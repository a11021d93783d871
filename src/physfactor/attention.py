"""Factorize-and-excite attention over voxel embeddings.

Pipeline: mix channels and rectify so the embedding is non-negative,
flatten to a (time x features) matrix, compute a low-rank approximation
with one of three solvers, map it back to the embedding shape, mix and
rectify again, then excite the original embedding with the result:

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

from .errors import DomainError, check_int
from .factorize import (
    FactorizationResult,
    _grbf_params,
    constrained_nmf_mu,
    grbf_basis,
    nmf_mu,
    target_basis,
)
from .tensors import (
    EmbeddingMatrix,
    VoxelEmbedding,
    flatten_to_matrix,
    hadamard,
    instance_norm,
    unflatten_to_voxel,
)

VARIANTS = ("fsam", "grbf", "tsfm")


@dataclass(frozen=True)
class AttentionConfig:
    """Configuration of one attention module.

    pre_mix and post_mix are kappa x kappa channel mixing matrices (the
    1x1x1 convolution weights around the factorization); None means
    identity, which isolates the factorization behavior. rank and
    iterations are integers >= 1, seed an integer >= 0.
    """

    variant: str = "fsam"
    rank: int = 8
    iterations: int = 4
    grbf_sigma: float | None = None
    grbf_delta_t: int | None = None
    pre_mix: np.ndarray | None = None
    post_mix: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise DomainError(f"unknown attention variant {self.variant!r}, expected one of {VARIANTS}")
        check_int(self.rank, "attention rank", 1)
        check_int(self.iterations, "attention iterations", 1)
        check_int(self.seed, "attention seed", 0)
        sigma, delta_t = self.grbf_sigma, self.grbf_delta_t
        if self.variant == "grbf" and (sigma is None or delta_t is None):
            raise DomainError("grbf variant needs grbf_sigma and grbf_delta_t")
        # each checked where given, whatever the variant
        _grbf_params(1.0 if sigma is None else sigma, 1 if delta_t is None else delta_t, "grbf_")


@dataclass(frozen=True)
class AttentionOutput:
    attended: VoxelEmbedding
    excited: VoxelEmbedding
    factorization: FactorizationResult


def _mix_weights(w, kappa, name):
    if w is None:
        return None
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (kappa, kappa):
        raise DomainError(f"{name} must be {kappa}x{kappa}, got {w.shape}")
    return w


def channel_mix_relu(eps, weights=None):
    """Per-voxel channel mixing followed by ReLU.

    out[t, c', a, b] = max(0, sum_c weights[c', c] * eps[t, c, a, b]).
    weights=None applies the identity mix (plain rectification).
    """
    w = _mix_weights(weights, eps.kappa, "mix weights")
    x = eps.data
    if w is not None:
        x = np.einsum("dc,tcab->tdab", w, x)
    return VoxelEmbedding(np.maximum(x, 0.0))


def excite(eps, attended):
    """Residual excitation: eps + instance_norm(eps * attended)."""
    return VoxelEmbedding(eps.data + instance_norm(hadamard(eps, attended)).data)


def solve(v, cfg, target=None):
    """Factor a non-negative (tau x features) matrix with the solver that
    cfg.variant names; the only place the variants are told apart.

    Args:
        v: EmbeddingMatrix, rows = time.
        cfg: AttentionConfig selecting the variant and solver knobs.
        target: sample vector of length v.m; required by tsfm, ignored
            by fsam and grbf.

    Returns:
        FactorizationResult (factors, low-rank product, error trace).
    """
    if cfg.variant == "fsam":
        return nmf_mu(v, cfg.rank, cfg.iterations, cfg.seed)
    if cfg.variant == "grbf":
        basis = grbf_basis(v.m, cfg.grbf_sigma, cfg.grbf_delta_t)
    elif target is None:
        raise DomainError("tsfm needs a target signal")
    else:
        basis = target_basis(target, v.m).basis
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
    pre = channel_mix_relu(eps, cfg.pre_mix)
    res = solve(flatten_to_matrix(pre), cfg, target)
    back = unflatten_to_voxel(EmbeddingMatrix(res.low_rank), eps.shape)
    attended = channel_mix_relu(back, cfg.post_mix)
    return AttentionOutput(attended, excite(eps, attended), res)


def csim_map(eps, target):
    """Absolute cosine similarity of every voxel trace with a target.

    For each (c, a, b) the temporal vector eps[:, c, a, b] is compared
    with the target; the result lies in [0, 1] for any finite input.
    Zero traces map to 0 rather than dividing by zero.
    """
    y = np.asarray(target, dtype=np.float64).ravel()
    if y.size != eps.tau:
        raise DomainError(f"target length {y.size} does not match tau = {eps.tau}")
    x = eps.data
    if not (np.isfinite(y).all() and np.isfinite(x).all()):
        raise DomainError("csim_map needs a finite embedding and target")
    ymax = np.max(np.abs(y))
    if ymax == 0.0:
        raise DomainError("target signal is all zeros")
    # the cosine ignores scale, so each trace and the target are divided
    # by their largest magnitude first: no norm can overflow, and every
    # non-zero trace keeps a norm of at least 1
    xmax = np.max(np.abs(x), axis=0)
    nz = xmax > 0
    xs = x / np.where(nz, xmax, 1.0)
    ys = y / ymax
    num = np.abs(np.tensordot(ys, xs, axes=([0], [0])))   # (c, a, b)
    den = np.linalg.norm(xs, axis=0) * np.linalg.norm(ys)
    out = np.zeros_like(num)
    out[nz] = num[nz] / den[nz]
    return np.minimum(out, 1.0)
