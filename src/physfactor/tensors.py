"""Dense containers and elementwise algebra for the attention pipeline.

Voxel embeddings are 4D arrays indexed [t, c, a, b] (time, channel, two
spatial axes). The factorization solvers operate on a 2D view where time
maps to rows and the (c, a, b) triple maps to columns in row-major
order, so flatten/unflatten are exact inverses by construction.

The containers hold read-only views. An input that is already a
C-contiguous float64 array is not copied: the container's view cannot
write to it, but the caller's own array stays writeable, and what the
caller writes there shows through the view.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_finite, check_real


def _freeze(arr, ndim, name):
    # a view, so that clearing its flag leaves the caller's array writeable
    a = np.ascontiguousarray(np.asarray(arr, dtype=np.float64)).view()
    if a.ndim != ndim:
        raise DomainError(f"{name} expects a {ndim}D array, got ndim={a.ndim}")
    if min(a.shape) < 1:
        raise DomainError(f"{name} extents must all be >= 1, got {a.shape}")
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class VoxelEmbedding:
    """Immutable 4D embedding with axes (tau, kappa, alpha, beta); data
    is read-only (a C-contiguous float64 input is not copied)."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _freeze(self.data, 4, "VoxelEmbedding"))

    @property
    def tau(self):
        return self.data.shape[0]

    @property
    def kappa(self):
        return self.data.shape[1]

    @property
    def shape(self):
        return self.data.shape


@dataclass(frozen=True)
class EmbeddingMatrix:
    """Immutable 2D matrix, rows = time, columns = flattened features;
    data is read-only (a C-contiguous float64 input is not copied)."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _freeze(self.data, 2, "EmbeddingMatrix"))

    @property
    def m(self):
        return self.data.shape[0]

    @property
    def n(self):
        return self.data.shape[1]


@dataclass(frozen=True)
class VideoClip:
    """Immutable video block with axes (frames, channels, height, width).

    Channel count is restricted to 1 (thermal), 3 (RGB) or 4 (RGB plus
    thermal), and the spatial extents must be square with side 9, 36 or
    72. Values live in [0, 1]. data is read-only (a C-contiguous float64
    input is not copied).
    """

    data: np.ndarray

    def __post_init__(self):
        a = _freeze(self.data, 4, "VideoClip")
        t, c, h, w = a.shape
        if c not in (1, 3, 4):
            raise DomainError(f"VideoClip channels must be 1, 3 or 4, got {c}")
        if h != w or h not in (9, 36, 72):
            raise DomainError(f"VideoClip needs square frames of side 9, 36 or 72, got {h}x{w}")
        if not (a.min() >= 0.0 and a.max() <= 1.0):    # NaN fails too
            raise DomainError("VideoClip values must lie in [0, 1]")
        object.__setattr__(self, "data", a)

    @property
    def frames(self):
        return self.data.shape[0]

    @property
    def channels(self):
        return self.data.shape[1]

    @property
    def height(self):
        return self.data.shape[2]


@dataclass(frozen=True)
class Waveform:
    """A sampled 1D signal with its sampling rate in Hz; samples is
    read-only (a C-contiguous float64 input is not copied)."""

    samples: np.ndarray
    fs: float

    def __post_init__(self):
        object.__setattr__(self, "samples", _freeze(self.samples, 1, "Waveform"))
        check_finite(self.samples, "Waveform samples")
        object.__setattr__(self, "fs", check_real(self.fs, "Waveform fs", gt=0))

    @property
    def duration_s(self):
        return self.samples.size / self.fs


def flatten_to_matrix(eps):
    """Map a (tau, kappa, alpha, beta) embedding to a (tau, kappa*alpha*beta) matrix.

    Element [t, c, a, b] lands at row t, column c*(alpha*beta) + a*beta + b,
    i.e. plain row-major order over the feature axes.
    """
    t = eps.tau
    return EmbeddingMatrix(eps.data.reshape(t, -1))


def unflatten_to_voxel(v, shape):
    """Inverse of flatten_to_matrix for the given (tau, kappa, alpha, beta)."""
    t, c, a, b = (int(x) for x in shape)
    if v.m != t or v.n != c * a * b:
        raise DomainError(
            f"cannot unflatten ({v.m}, {v.n}) into shape ({t}, {c}, {a}, {b}): "
            f"need rows={t} and cols={c * a * b}"
        )
    return VoxelEmbedding(v.data.reshape(t, c, a, b))


def instance_norm(eps, epsilon=1e-5):
    """Normalize each channel to zero mean, unit variance over (t, a, b).

    The statistics are sums over contiguous axes: over time on the
    (t, c*a*b) matrix, then over the a*b pixels of each channel. They
    differ from x.mean and x.var over axes (0, 2, 3) only in rounding.

    Args:
        eps: input embedding.
        epsilon: variance guard added under the square root, finite and > 0.

    Returns:
        VoxelEmbedding of the same shape.
    """
    check_real(epsilon, "instance_norm epsilon", gt=0)
    x = eps.data
    t, c = x.shape[:2]
    n = x.size // c

    def channel_mean(y):
        return y.reshape(t, -1).sum(axis=0).reshape(c, -1).sum(axis=1)[:, None, None] / n

    d = x - channel_mean(x)
    var = channel_mean(d * d)
    d /= np.sqrt(var + epsilon)
    return VoxelEmbedding(d)


def hadamard(a, b):
    """Elementwise product of two embeddings of identical shape."""
    if a.shape != b.shape:
        raise DomainError(f"hadamard shape mismatch: {a.shape} vs {b.shape}")
    return VoxelEmbedding(a.data * b.data)
