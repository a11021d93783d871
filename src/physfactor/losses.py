"""Training losses with analytic gradients, plus a finite-difference
checker used by the test suite.

Only the losses carry gradients; the network forward passes in this
package are inference-only.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .factorize import _unit_scaled
from .tensors import Waveform


def _samples(x):
    """The samples of a Waveform or vector; DomainError unless finite."""
    s = x.samples if isinstance(x, Waveform) else np.asarray(x, dtype=np.float64).ravel()
    if not np.isfinite(s).all():
        raise DomainError("loss inputs must be finite")
    return s


def neg_pearson_loss(pred, gt):
    """Negative Pearson correlation loss, 1 - r, with its gradient.

    r is computed between the two sample vectors; the loss lies in
    [0, 2]. When either vector has zero variance r is treated as 0, so
    the loss is 1.0 with a zero gradient instead of an error.

    Args:
        pred: predicted Waveform or sample vector (length >= 3).
        gt: reference Waveform or sample vector of equal length.

    Returns:
        (loss, grad) where grad is d loss / d pred, same length as pred.
    """
    x = _samples(pred)
    y = _samples(gt)
    if x.size != y.size:
        raise DomainError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 3:
        raise DomainError("neg_pearson_loss needs at least 3 samples")

    # r is scale-free, so it is computed on x / 2^ex and y / 2^ey, where
    # no sum of squares over- or underflows; d r / d x is then the
    # gradient in x / 2^ex divided by 2^ex
    xs, ex = _unit_scaled(x)
    ys, _ = _unit_scaled(y)
    xc = xs - xs.mean()
    yc = ys - ys.mean()
    sxx = float(xc @ xc)
    syy = float(yc @ yc)
    if sxx == 0.0 or syy == 0.0:
        return 1.0, np.zeros_like(x)
    sxy = float(xc @ yc)
    denom = np.sqrt(sxx * syy)
    r = sxy / denom
    # d r / d x = yc / denom - r * xc / sxx  (mean-centering contributes
    # nothing because yc and xc both sum to zero)
    grad = np.ldexp(-(yc / denom - r * xc / sxx), -ex)
    return 1.0 - r, grad


def smooth_l1_loss(pred, gt):
    """Smooth L1 (Huber at unit knee), averaged over samples.

    Per sample, with d = pred - gt:
        0.5 d^2        if |d| < 1
        |d| - 0.5      otherwise
    The two branches agree at |d| = 1, so the loss is continuous and its
    gradient (d/n inside the knee, sign(d)/n outside) is bounded by 1/n.

    Returns:
        (loss, grad) with grad = d loss / d pred. DomainError where a
        difference or the loss lies beyond float64's range.
    """
    x = _samples(pred)
    y = _samples(gt)
    if x.size != y.size:
        raise DomainError(f"length mismatch: {x.size} vs {y.size}")
    with np.errstate(over="ignore"):
        d = x - y
        ad = np.abs(d)
        quad = ad < 1.0
        inner = np.where(quad, d, 0.0)
        terms = np.where(quad, 0.5 * inner * inner, ad - 0.5)
        loss = float(terms.mean())
    # every term is >= 0 and finite where d is, so an overflow anywhere
    # leaves the loss infinite
    if loss == np.inf:
        raise DomainError("smooth_l1_loss overflows: a difference or the loss exceeds float64's range")
    n = d.size
    grad = np.where(quad, d, np.sign(d)) / n
    return loss, grad


_LOSSES = {"neg_pearson": neg_pearson_loss, "smooth_l1": smooth_l1_loss}


@dataclass(frozen=True)
class GradCheck:
    """Result of a finite-difference gradient check.

    max_rel_error is taken over the checked coordinates; coordinates
    whose difference sits within 10*step of the smooth L1 knee are
    counted in knee_excluded and left out of the maximum (the central
    difference straddles a curvature jump there).
    """

    max_rel_error: float
    n_checked: int
    knee_excluded: int


def fd_gradient_check(loss_kind, point, step=1e-5):
    """Compare an analytic loss gradient against central differences.

    Args:
        loss_kind: "neg_pearson" or "smooth_l1".
        point: (pred, gt) pair of equal-length sample vectors.
        step: finite-difference step h, positive and finite.

    Returns:
        GradCheck with the max relative error, using denominator
        max(|analytic|, 1e-8) per coordinate.
    """
    if loss_kind not in _LOSSES:
        raise DomainError(f"unknown loss kind {loss_kind!r}")
    if not 0 < step < np.inf:
        raise DomainError(f"step must be positive and finite, got {step}")
    fn = _LOSSES[loss_kind]
    x = _samples(point[0]).copy()
    y = _samples(point[1])
    _, grad = fn(x, y)

    max_rel = 0.0
    excluded = 0
    checked = 0
    for i in range(x.size):
        if loss_kind == "smooth_l1" and abs(abs(x[i] - y[i]) - 1.0) <= 10.0 * step:
            excluded += 1
            continue
        x[i] += step
        hi, _ = fn(x, y)
        x[i] -= 2 * step
        lo, _ = fn(x, y)
        x[i] += step
        num = (hi - lo) / (2 * step)
        rel = abs(num - grad[i]) / max(abs(grad[i]), 1e-8)
        max_rel = max(max_rel, rel)
        checked += 1
    return GradCheck(max_rel, checked, excluded)
