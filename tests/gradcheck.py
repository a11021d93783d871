"""Finite-difference check of a loss's analytic gradient, for the tests."""

from typing import NamedTuple

import numpy as np

from physfactor.losses import smooth_l1_loss


class GradCheck(NamedTuple):
    """max_rel_error is taken over the n_checked coordinates; for
    smooth_l1_loss, coordinates whose difference sits within 10*step of
    the knee are counted in knee_excluded and left out of the maximum
    (the central difference straddles a curvature jump there)."""

    max_rel_error: float
    n_checked: int
    knee_excluded: int


def fd_gradient_check(loss, pred, gt, step=1e-5):
    """Compare loss(pred, gt)'s analytic gradient with central
    differences of step h, using the denominator max(|analytic|, 1e-8)
    per coordinate."""
    x = np.array(pred, dtype=float)
    y = np.asarray(gt, dtype=float)
    _, grad = loss(x, y)
    max_rel, checked, excluded = 0.0, 0, 0
    for i in range(x.size):
        if loss is smooth_l1_loss and abs(abs(x[i] - y[i]) - 1.0) <= 10.0 * step:
            excluded += 1
            continue
        x[i] += step
        hi, _ = loss(x, y)
        x[i] -= 2 * step
        lo, _ = loss(x, y)
        x[i] += step
        rel = abs((hi - lo) / (2 * step) - grad[i]) / max(abs(grad[i]), 1e-8)
        max_rel = max(max_rel, rel)
        checked += 1
    return GradCheck(max_rel, checked, excluded)
