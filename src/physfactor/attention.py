"""Factorize-and-excite attention over voxel embeddings.

Pipeline: rectify the embedding so it is non-negative, flatten to a
(time x features) matrix, compute a low-rank approximation with one of
three solvers, map it back to the embedding shape, rectify again, then
excite the original embedding with the result:

    excited = eps + instance_norm(eps * attended)

Variants:
    fsam  unconstrained NMF of the flattened embedding.
    grbf  NMF constrained to the span of a Gaussian bump bank, which
          smooths the temporal profile of the attention.
    tsfm  NMF constrained to a single target-signal column, so every
          attention trace is a rescaled copy of the target.

The factorization is a solver run, not a differentiable layer; callers
must treat `attended` as a constant with respect to any gradients.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_finite, check_int, real_array
from .factorize import (
    FactorizationResult,
    _grbf_params,
    constrained_nmf_mu,
    grbf_basis,
    nmf_mu,
    target_basis,
)
from .tensors import (
    VoxelEmbedding,
    flatten_to_matrix,
    hadamard,
    instance_norm,
    unflatten_to_voxel,
    unit_scaled,
)

VARIANTS = ("fsam", "grbf", "tsfm")


@dataclass(frozen=True)
class AttentionConfig:
    """Configuration of one attention module.

    rank, iterations and grbf_delta_t are integers >= 1, seed an integer
    >= 0 and grbf_sigma a finite positive real; only grbf reads grbf_*.
    """

    variant: str = "fsam"
    rank: int = 8
    iterations: int = 4
    grbf_sigma: float = 2.0
    grbf_delta_t: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise DomainError(f"unknown attention variant {self.variant!r}, expected one of {VARIANTS}")
        check_int(self.rank, "attention rank", 1)
        check_int(self.iterations, "attention iterations", 1)
        check_int(self.seed, "attention seed", 0)
        _grbf_params(self.grbf_sigma, self.grbf_delta_t, "grbf_")


@dataclass(frozen=True)
class AttentionOutput:
    attended: VoxelEmbedding
    excited: VoxelEmbedding
    factorization: FactorizationResult


def channel_mix_relu(eps):
    """ReLU, out = max(0, eps): the 1x1x1 channel mixes that MMRPhys
    learns around the factorization are the identity, as nothing is trained."""
    return VoxelEmbedding(np.maximum(eps.data, 0.0))


def excite(eps, attended):
    """Residual excitation: eps + instance_norm(eps * attended).

    DomainError where eps or attended holds an inf or a NaN, or where
    their product overflows float64: the embedding's scale is too large.
    """
    product = hadamard(eps, attended)
    try:
        normed = instance_norm(product)
    except DomainError:    # a channel of the product holds an inf or a NaN
        check_finite(eps.data, "excite embedding")
        check_finite(attended.data, "excite attended")
        raise DomainError("excite: eps * attended overflows float64; the embedding's scale is too large") from None
    return VoxelEmbedding(eps.data + normed.data)


def solve(v, cfg, target=None):
    """Factor a non-negative (tau x features) matrix with the solver that
    cfg.variant names; the only place the variants are told apart.

    Args:
        v: 2D array-like, rows = time; the solver checks it.
        cfg: AttentionConfig selecting the variant and solver knobs.
        target: sample vector of one sample per row; required by tsfm,
            ignored by fsam and grbf.

    Returns:
        FactorizationResult (factors, low-rank product, error trace).
    """
    if cfg.variant == "fsam":
        return nmf_mu(v, cfg.rank, cfg.iterations, cfg.seed)
    if cfg.variant == "tsfm" and target is None:
        raise DomainError("tsfm needs a target signal")
    v = real_array(v, "constrained_nmf_mu input")
    basis = None    # the solver refuses a v that is no matrix before it reads the basis
    if v.ndim == 2:
        m = v.shape[0]
        basis = grbf_basis(m, cfg.grbf_sigma, cfg.grbf_delta_t) if cfg.variant == "grbf" else target_basis(target, m)
    return constrained_nmf_mu(v, basis, cfg.rank, cfg.iterations, cfg.seed)


def compute_attention(eps, cfg, target=None):
    """Run the full factorize-and-excite pipeline on one embedding.

    Args:
        eps: VoxelEmbedding of shape (tau, kappa, alpha, beta).
        cfg: AttentionConfig selecting the variant and solver knobs.
        target: sample vector of length tau; required by tsfm, ignored
            by fsam and grbf.

    Returns:
        AttentionOutput carrying the back-mapped low-rank attention, the
        excited embedding and the solver result (with its error trace).
    """
    pre = channel_mix_relu(eps)
    res = solve(flatten_to_matrix(pre), cfg, target)
    back = unflatten_to_voxel(res.low_rank, eps.shape)
    attended = channel_mix_relu(back)
    return AttentionOutput(attended, excite(eps, attended), res)


def csim_map(eps, target):
    """Absolute cosine similarity of every voxel trace with a target.

    For each (c, a, b) the temporal vector eps[:, c, a, b] is compared
    with the target; the result lies in [0, 1] for any finite input.
    Zero traces map to 0 rather than dividing by zero.
    """
    y = check_finite(target, "csim_map target", size=eps.tau)
    x = check_finite(eps.data, "csim_map embedding")
    ymax = np.max(np.abs(y))
    if ymax == 0.0:
        raise DomainError("target signal is all zeros")
    # the cosine is scale-free (see unit_scaled): no norm can overflow,
    # and every non-zero trace keeps a norm of at least 1
    xmax = np.max(np.abs(x), axis=0)
    nz = xmax > 0
    xs, _ = unit_scaled(x, xmax)
    ys, _ = unit_scaled(y, ymax)
    num = np.abs(np.tensordot(ys, xs, axes=([0], [0])))   # (c, a, b)
    den = np.linalg.norm(xs, axis=0) * np.linalg.norm(ys)
    out = np.zeros_like(num)
    out[nz] = num[nz] / den[nz]
    return np.minimum(out, 1.0)
