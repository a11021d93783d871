"""Dense containers and elementwise algebra for the attention pipeline.

Voxel embeddings are 4D arrays indexed [t, c, a, b] (time, channel, two
spatial axes). The factorization solvers operate on a 2D view where time
maps to rows and the (c, a, b) triple maps to columns in row-major
order, so flatten/unflatten are exact inverses by construction.

The containers hold read-only views and refuse complex input (see
errors.real_array). An input that is already a C-contiguous float64
array is not copied: the container's view cannot
write to it, but the caller's own array stays writeable, and what the
caller writes there shows through the view.

`unit_scaled` is the package's one power-of-two scaling rule, used by
every scale-free computation (solvers, Pearson's r, cosines, norms).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_finite, check_real, real_array

# The square frame sides and the channel counts a VideoClip may have.
CLIP_SIDES = (9, 36, 72)
CLIP_CHANNELS = (1, 3, 4)

# The variance guard instance_norm adds under the square root.
NORM_EPSILON = 1e-5

def _freeze(arr, ndim, name):
    # no finiteness scan, a full pass per conv block; a view, so that
    # clearing its flag leaves the caller's array writeable
    a = np.ascontiguousarray(real_array(arr, name)).view()
    if a.ndim != ndim:
        raise DomainError(f"{name} expects a {ndim}D array, got ndim={a.ndim}")
    if min(a.shape) < 1:
        raise DomainError(f"{name} extents must all be >= 1, got {a.shape}")
    a.flags.writeable = False
    return a


def pow2_exponent(peak):
    """e with 2^e the power of two at or below peak >= 0, and 0 where the
    peak is 0: an int for a real scalar, an integer array for an ndarray."""
    if isinstance(peak, np.ndarray):    # np.frexp's exponent of 0 is 0
        return np.frexp(peak)[1] - (peak > 0)
    return math.frexp(peak)[1] - 1 if peak > 0 else 0


def shifted(a, k):
    """a * 2^k rounded once; a itself when every k is 0. k is an int or
    an integer array that broadcasts against a."""
    return np.ldexp(a, k) if np.any(k) else a


def unit_scaled(a, peak=None):
    """(a / 2^e, e) with e = pow2_exponent(peak), peak max |a| by default;
    peaks per row or per column, shaped to broadcast against a, give one
    e per slice. The division puts each peak in [1, 2) and is exact,
    except for entries more than 2^1022 below their peak, so a
    scale-free result computed on a / 2^e is bit for bit the unscaled
    one wherever that did not over- or underflow, and finite at any
    scale."""
    if peak is None:
        peak = max(a.max(), -a.min())
    e = pow2_exponent(peak)
    return shifted(a, -e), e


@dataclass(frozen=True)
class VoxelEmbedding:
    """Immutable 4D embedding with axes (tau, kappa, alpha, beta); data
    is read-only (a C-contiguous float64 input is not copied)."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _freeze(self.data, 4, type(self).__name__))

    @property
    def tau(self):
        return self.data.shape[0]

    @property
    def kappa(self):
        return self.data.shape[1]

    @property
    def shape(self):
        return self.data.shape


class VideoClip(VoxelEmbedding):
    """Immutable video block, a VoxelEmbedding with axes (frames,
    channels, height, width): its sizes are tau, kappa and shape.

    Channel count is restricted to 1 (thermal), 3 (RGB) or 4 (RGB plus
    thermal), and the spatial extents must be square with side 9, 36 or
    72. Values live in [0, 1]. data is read-only (a C-contiguous float64
    input is not copied).
    """

    def __post_init__(self):
        super().__post_init__()
        _, c, h, w = self.shape
        if c not in CLIP_CHANNELS:
            raise DomainError(f"VideoClip channels must be one of {CLIP_CHANNELS}, got {c}")
        if h != w or h not in CLIP_SIDES:
            raise DomainError(f"VideoClip needs square frames with a side in {CLIP_SIDES}, got {h}x{w}")
        if not (self.data.min() >= 0.0 and self.data.max() <= 1.0):    # NaN fails too
            raise DomainError("VideoClip values must lie in [0, 1]")


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
    """Map a (tau, kappa, alpha, beta) embedding to a (tau, kappa*alpha*beta)
    matrix: a read-only view of the embedding's data.

    Element [t, c, a, b] lands at row t, column c*(alpha*beta) + a*beta + b,
    i.e. plain row-major order over the feature axes.
    """
    return eps.data.reshape(eps.tau, -1)


def unflatten_to_voxel(v, shape):
    """Inverse of flatten_to_matrix for the given (tau, kappa, alpha, beta):
    a (tau, kappa*alpha*beta) array as a VoxelEmbedding."""
    t, c, a, b = (int(x) for x in shape)
    v = real_array(v, "unflatten_to_voxel input")
    if v.shape != (t, c * a * b):
        raise DomainError(
            f"cannot unflatten {v.shape} into shape ({t}, {c}, {a}, {b}): "
            f"need rows={t} and cols={c * a * b}"
        )
    return VoxelEmbedding(v.reshape(t, c, a, b))


def instance_norm(eps):
    """Normalize each channel to zero mean, unit variance over (t, a, b).

    The statistics are sums over contiguous axes: over time on the
    (t, c*a*b) matrix, then over the a*b pixels of each channel. They
    differ from x.mean and x.var over axes (0, 2, 3) only in rounding.

    Each channel is normalized as x / 2^e with NORM_EPSILON / 4^e, 2^e the
    power of two at or below its peak, or 1 (see unit_scaled): the same
    result where nothing over- or underflows, so the variance stays
    finite at any scale. A channel peaking below 2 is not scaled at
    all. A constant channel's mean is set to its value, so it maps to
    exactly 0: otherwise the rounding of the mean would be left over,
    and beyond a peak of about 2^45 it would dominate NORM_EPSILON / 4^e
    and give +-1. A channel holding an inf or a NaN is refused with
    DomainError.

    Returns:
        VoxelEmbedding of the same shape as eps.
    """
    x = eps.data
    t, c = x.shape[:2]
    n = x.size // c
    m = x.reshape(t, -1)
    hi = m.max(axis=0).reshape(c, -1).max(axis=1)
    lo = m.min(axis=0).reshape(c, -1).min(axis=1)
    check_finite(hi, "instance_norm channel maxima")
    check_finite(lo, "instance_norm channel minima")
    x, e = unit_scaled(x, np.maximum(np.maximum(hi, -lo), 1.0)[:, None, None])

    def channel_mean(y):
        return y.reshape(t, -1).sum(axis=0).reshape(c, -1).sum(axis=1)[:, None, None] / n

    mean = channel_mean(x)
    constant = hi == lo
    mean[constant] = x[0, constant, :1, :1]
    d = x - mean
    root = np.sqrt(channel_mean(d * d) + shifted(NORM_EPSILON, -2 * e))
    # NORM_EPSILON / 4^e underflows to 0 for a channel peaking beyond about
    # 2^530; one whose variance is then 0 too is constant, so its d is 0
    root[root == 0] = 1.0
    d /= root
    return VoxelEmbedding(d)


def hadamard(a, b):
    """Elementwise product of two embeddings of identical shape; a
    product beyond float64 is inf, and inf * 0 is NaN, without a
    warning."""
    if a.shape != b.shape:
        raise DomainError(f"hadamard shape mismatch: {a.shape} vs {b.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        return VoxelEmbedding(a.data * b.data)
