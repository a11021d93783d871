"""Training losses with analytic gradients.

Only the losses carry gradients; the network forward passes in this
package are inference-only.
"""

import numpy as np

from .errors import DomainError, check_finite
from .tensors import shifted, unit_scaled


def _samples(pred, gt):
    """pred and gt, two sample vectors, as two finite float64 vectors
    of equal length; DomainError otherwise."""
    x = check_finite(pred, "pred").ravel()
    return x, check_finite(gt, "gt", size=x.size)


def neg_pearson_loss(pred, gt):
    """Negative Pearson correlation loss, 1 - r, with its gradient.

    r is computed between the two sample vectors; the loss lies in
    [0, 2]. When either vector has zero variance r is treated as 0, so
    the loss is 1.0 with a zero gradient instead of an error.

    Args:
        pred: predicted sample vector (length >= 3).
        gt: reference sample vector of equal length.

    Returns:
        (loss, grad) where grad is d loss / d pred, same length as pred.
    """
    x, y = _samples(pred, gt)
    if x.size < 3:
        raise DomainError("neg_pearson_loss needs at least 3 samples")

    # r is scale-free (see tensors.unit_scaled); d r / d x is the
    # gradient in x / 2^ex divided by 2^ex
    xs, ex = unit_scaled(x)
    ys, _ = unit_scaled(y)
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
    grad = shifted(-(yc / denom - r * xc / sxx), -ex)
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
    x, y = _samples(pred, gt)
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
