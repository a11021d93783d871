import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from physfactor.errors import DomainError
from physfactor.losses import fd_gradient_check, neg_pearson_loss, smooth_l1_loss
from physfactor.tensors import Waveform


def test_neg_pearson_endpoints():
    x = np.sin(np.arange(32) * 0.3)
    loss, _ = neg_pearson_loss(x, x)
    assert loss == pytest.approx(0.0, abs=1e-12)
    loss, _ = neg_pearson_loss(-x, x)
    assert loss == pytest.approx(2.0, abs=1e-12)


def test_neg_pearson_bounds_and_affine_invariance():
    rng = np.random.default_rng(13)
    for _ in range(20):
        x = rng.normal(size=50)
        y = rng.normal(size=50)
        loss, _ = neg_pearson_loss(x, y)
        assert 0.0 <= loss <= 2.0
        scaled, _ = neg_pearson_loss(3.7 * x + 11.0, y)
        assert abs(scaled - loss) < 1e-10


def test_neg_pearson_zero_variance():
    y = np.sin(np.arange(16) * 0.5)
    loss, grad = neg_pearson_loss(np.full(16, 2.0), y)
    assert loss == 1.0
    assert np.array_equal(grad, np.zeros(16))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 200), seed=st.integers(0, 2**32 - 1),
       k=st.integers(-1000, 1000), j=st.integers(-1000, 1000))
def test_neg_pearson_scales_exactly(n, seed, k, j):
    # magnitudes in [1, 2), so 2^k x and 2^j y stay normal and finite
    # from about 1e-301 to 1e301; at 1e-160 the loss was -inf, at 1e200 NaN
    rng = np.random.default_rng(seed)
    x, y = rng.choice([-1.0, 1.0], size=(2, n)) * rng.uniform(1.0, 2.0, size=(2, n))
    loss, grad = neg_pearson_loss(x, y)
    loss_s, grad_s = neg_pearson_loss(np.ldexp(x, k), np.ldexp(y, j))
    assert np.isfinite(loss_s) and np.isfinite(grad_s).all()
    assert loss_s == loss
    assert np.array_equal(grad_s, np.ldexp(grad, -k))


def test_neg_pearson_preconditions():
    with pytest.raises(DomainError):
        neg_pearson_loss([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(DomainError):
        neg_pearson_loss([1.0, 2.0, 3.0], [1.0, 2.0])


def test_neg_pearson_gradient_seed7():
    rng = np.random.default_rng(7)
    x = rng.normal(size=64)
    y = rng.normal(size=64)
    check = fd_gradient_check("neg_pearson", (x, y), step=1e-5)
    assert check.max_rel_error < 1e-5
    assert check.n_checked == 64


def test_neg_pearson_accepts_waveforms():
    x = Waveform(np.sin(np.arange(20) * 0.4), 25.0)
    loss, grad = neg_pearson_loss(x, x)
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert grad.shape == (20,)


def test_smooth_l1_point_values():
    loss, _ = smooth_l1_loss([0.5], [0.0])
    assert loss == 0.125
    loss, _ = smooth_l1_loss([2.0], [0.0])
    assert loss == 1.5
    # both branch formulas agree at the knee
    loss, _ = smooth_l1_loss([1.0], [0.0])
    assert loss == 0.5
    assert abs(0.5 * 1.0 ** 2 - (1.0 - 0.5)) <= 1e-12


def test_smooth_l1_zero_iff_equal():
    rng = np.random.default_rng(3)
    x = rng.normal(size=30)
    loss, _ = smooth_l1_loss(x, x)
    assert loss == 0.0
    loss, _ = smooth_l1_loss(x + 0.01, x)
    assert loss > 0.0


def test_smooth_l1_not_scale_invariant():
    x = np.array([0.3, -0.2, 0.6])
    y = np.zeros(3)
    a, _ = smooth_l1_loss(x, y)
    b, _ = smooth_l1_loss(4.0 * x, 4.0 * y)
    assert abs(a - b) > 1e-3


def test_smooth_l1_gradient_branches():
    pred = np.array([0.3, -0.4, 2.5, -3.0])
    gt = np.zeros(4)
    _, grad = smooth_l1_loss(pred, gt)
    assert np.allclose(grad, np.array([0.3, -0.4, 1.0, -1.0]) / 4.0, atol=1e-12)


def test_smooth_l1_gradient_quadratic_zone():
    rng = np.random.default_rng(17)
    x = 0.4 * rng.random(40)
    y = np.zeros(40)
    check = fd_gradient_check("smooth_l1", (x, y), step=1e-5)
    assert check.max_rel_error < 1e-6
    assert check.knee_excluded == 0


def test_smooth_l1_knee_excluded():
    x = np.array([0.2, 1.0, -1.0, 2.0])
    check = fd_gradient_check("smooth_l1", (x, np.zeros(4)), step=1e-5)
    assert check.knee_excluded == 2
    assert check.n_checked == 2
    assert check.max_rel_error < 1e-5


def test_smooth_l1_length_mismatch():
    with pytest.raises(DomainError):
        smooth_l1_loss([1.0, 2.0], [1.0])


@pytest.mark.parametrize("pred, gt", [
    ([1e308, 0.0, 0.0], [-1e308, 0.0, 0.0]),     # the difference overflows
    ([1.7e308, 1.7e308], [0.0, 0.0]),            # each term is finite, their sum is not
])
def test_smooth_l1_refuses_an_overflow(pred, gt):
    # both returned an infinite loss with numpy's overflow warning
    with pytest.raises(DomainError, match="overflows"):
        smooth_l1_loss(pred, gt)


@st.composite
def wide_vectors(draw, n):
    """n signed values with magnitudes from about 1e-300 to 1e300, or 0."""
    exps = draw(st.lists(st.floats(-300.0, 300.0), min_size=n, max_size=n))
    signs = draw(st.lists(st.sampled_from((-1.0, 0.0, 1.0)), min_size=n, max_size=n))
    return np.array(signs) * 10.0 ** np.array(exps)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_smooth_l1_finite_or_refused_from_1e_minus300_to_1e300(data):
    n = data.draw(st.integers(1, 6))
    pred, gt = data.draw(wide_vectors(n)), data.draw(wide_vectors(n))
    try:
        loss, grad = smooth_l1_loss(pred, gt)
    except DomainError:
        return
    assert np.isfinite(loss) and loss >= 0.0
    assert np.all(np.isfinite(grad)) and np.all(np.abs(grad) <= 1.0 / n)


def test_fd_check_arguments():
    with pytest.raises(DomainError):
        fd_gradient_check("unknown", (np.zeros(4), np.zeros(4)))
    with pytest.raises(DomainError):
        fd_gradient_check("smooth_l1", (np.zeros(4), np.zeros(4)), step=0.0)


@pytest.mark.parametrize("step", [np.inf, np.nan])
def test_fd_gradient_check_refuses_a_step_that_is_not_finite(step):
    # step = inf checked no coordinate and reported max_rel_error 0.0
    point = (np.sin(np.arange(8.0)), np.cos(np.arange(8.0)))
    with pytest.raises(DomainError, match="step"):
        fd_gradient_check("smooth_l1", point, step=step)
