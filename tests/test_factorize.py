import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from physfactor.errors import DomainError
from physfactor.factorize import (
    _BLOCK_ROWS,
    _row_blocks,
    constrained_nmf_mu,
    grbf_basis,
    nmf_mu,
    target_basis,
)
from physfactor.tensors import EmbeddingMatrix


def test_rank1_exact_example():
    v = np.outer([1.0, 2.0], [3.0, 4.0])
    res = nmf_mu(v, rank=1, iterations=200, seed=0)
    assert res.error_trace[-1] / np.linalg.norm(v) < 1e-3


def test_zero_matrix_collapses_immediately():
    res = nmf_mu(np.zeros((4, 4)), rank=1, iterations=3, seed=1)
    assert np.array_equal(res.low_rank, np.zeros((4, 4)))
    assert res.error_trace[0] == 0.0


def test_trace_non_increasing_seed42():
    v = np.random.default_rng(42).random((8, 8))
    res = nmf_mu(EmbeddingMatrix(v), rank=2, iterations=4, seed=42)
    tol = 1e-9 * (1.0 + res.error_trace[0])
    assert np.all(np.diff(res.error_trace) <= tol)


def test_nmf_preconditions():
    v = np.random.default_rng(0).random((4, 6))
    with pytest.raises(DomainError):
        nmf_mu(v - 0.5, rank=2)
    with pytest.raises(DomainError):
        nmf_mu(v, rank=5)  # > min(M, N)
    with pytest.raises(DomainError):
        nmf_mu(v, rank=0)
    with pytest.raises(DomainError):
        nmf_mu(v, rank=2, iterations=0)


@pytest.mark.parametrize("kwargs", [
    {"rank": 1.5},
    {"rank": "2"},
    {"rank": 2, "iterations": 2.5},
    {"rank": 2, "seed": -1},
    {"rank": 2, "seed": 1.0},
], ids=["rank-float", "rank-str", "iterations-float", "seed-negative", "seed-float"])
def test_solvers_reject_non_integer_counts_and_negative_seeds(kwargs):
    # numpy used to raise a bare TypeError or ValueError for these
    v = np.random.default_rng(0).random((4, 6))
    b = np.random.default_rng(1).random((4, 2))
    with pytest.raises(DomainError):
        nmf_mu(v, **kwargs)
    with pytest.raises(DomainError):
        constrained_nmf_mu(v, b, **kwargs)


def test_nmf_deterministic_and_nonnegative():
    v = np.random.default_rng(7).random((12, 9))
    a = nmf_mu(v, rank=3, iterations=6, seed=5)
    b = nmf_mu(v, rank=3, iterations=6, seed=5)
    assert np.array_equal(a.factors.w, b.factors.w)
    assert np.array_equal(a.factors.h, b.factors.h)
    assert np.array_equal(a.error_trace, b.error_trace)
    for seed in range(5):
        r = nmf_mu(v, rank=3, iterations=6, seed=seed)
        assert r.factors.w.min() >= 0 and r.factors.h.min() >= 0
        assert r.low_rank.min() >= 0


def test_monotonicity_small_battery():
    rng = np.random.default_rng(100)
    for seed in range(10):
        v = rng.random((32, 48))
        res = nmf_mu(v, rank=4, iterations=8, seed=seed)
        tol = 1e-9 * (1.0 + res.error_trace[0])
        assert np.all(np.diff(res.error_trace) <= tol)


def test_constrained_single_column_example():
    # every column of V is a scaled copy of the basis column, so the
    # exact solution lives in the constraint set
    y = np.abs(np.sin(np.arange(24) * 0.37)) + 0.1
    v = np.column_stack([2.0 * y, 3.0 * y])
    res = constrained_nmf_mu(v, y[:, None], rank=2, iterations=200, seed=0)
    assert res.error_trace[-1] / np.linalg.norm(v) < 1e-3
    for j in range(v.shape[1]):
        col = res.low_rank[:, j]
        cos = abs(col @ y) / (np.linalg.norm(col) * np.linalg.norm(y))
        assert abs(cos - 1.0) <= 1e-6


def test_constrained_k1_hits_projection_after_one_sweep():
    # with a single basis column the Q update telescopes onto the exact
    # least-squares coefficients, so iteration 1 already sits at the
    # projection error
    rng = np.random.default_rng(5)
    v = rng.random((40, 10))
    y = rng.random(40) + 0.05
    b = y[:, None]
    coef = (b.T @ v) / (b.T @ b)
    opt = np.linalg.norm(v - b @ coef)
    res = constrained_nmf_mu(v, b, rank=4, iterations=3, seed=2)
    assert res.error_trace[0] == pytest.approx(opt, rel=1e-10)


def test_constrained_grbf_span_property():
    rng = np.random.default_rng(8)
    v = rng.random((16, 8))
    basis = grbf_basis(16, sigma=2.0, delta_t=4)
    res = constrained_nmf_mu(v, basis.phi, rank=2, iterations=4, seed=3)
    tol = 1e-9 * (1.0 + res.error_trace[0])
    assert np.all(np.diff(res.error_trace) <= tol)
    # residual after projecting each reconstruction column onto span(phi)
    q, _ = np.linalg.qr(basis.phi)
    proj = q @ (q.T @ res.low_rank)
    resid = np.linalg.norm(res.low_rank - proj, axis=0)
    norms = np.linalg.norm(res.low_rank, axis=0)
    assert np.all(resid <= 1e-8 * np.maximum(norms, 1e-30))


def test_constrained_preconditions():
    v = np.random.default_rng(0).random((6, 4))
    b = np.random.default_rng(1).random((6, 2))
    with pytest.raises(DomainError):
        constrained_nmf_mu(v, b - 1.0, rank=1)
    with pytest.raises(DomainError):
        constrained_nmf_mu(v, np.vstack([b, b]), rank=1)
    with pytest.raises(DomainError):
        constrained_nmf_mu(v - 2.0, b, rank=1)
    with pytest.raises(DomainError):
        constrained_nmf_mu(v, b, rank=0)


def test_grbf_basis_values():
    basis = grbf_basis(5, sigma=1.0, delta_t=2)
    assert basis.k == 3
    assert basis.phi.shape == (5, 3)
    # center rows are exactly one, off-center decays
    for k in range(basis.k):
        assert basis.phi[k * 2, k] == 1.0
    assert abs(basis.phi[0, 1] - np.exp(-2.0)) <= 1e-12
    assert basis.phi.min() > 0.0 and basis.phi.max() <= 1.0


def test_grbf_count_against_naive_sweep():
    for m in range(2, 40, 3):
        for dt in range(1, 8):
            # independent count: centers k*dt that still fall inside 0..m-1
            expected = sum(1 for k in range(m) if k * dt <= m - 1)
            assert grbf_basis(m, 1.5, dt).k == expected


def test_grbf_preconditions():
    with pytest.raises(DomainError):
        grbf_basis(1, 1.0, 1)
    with pytest.raises(DomainError):
        grbf_basis(8, 1.0, 0)
    with pytest.raises(DomainError):
        grbf_basis(8, 0.0, 1)


@pytest.mark.parametrize("sigma", [np.inf, 1e-170, 1e200])
def test_grbf_rejects_unrepresentable_sigma(sigma):
    # inf gave an all-ones bank, 1e-170 (2 sigma^2 underflows to 0) gave
    # NaN at the centres, 1e200 (2 sigma^2 overflows) a bare OverflowError
    with pytest.raises(DomainError, match="sigma"):
        grbf_basis(8, sigma, 1)


def test_target_basis_example():
    tc = target_basis([-1.0, 0.0, 1.0], 3, floor=1e-3)
    assert tc.basis.shape == (3, 1)
    assert np.allclose(tc.basis[:, 0], [0.001, 0.5005, 1.0], atol=1e-12)
    assert tc.basis.min() == pytest.approx(1e-3)
    assert tc.basis.max() == 1.0


def test_target_basis_preconditions():
    with pytest.raises(DomainError):
        target_basis([2.0, 2.0, 2.0], 3)
    with pytest.raises(DomainError):
        target_basis(np.arange(10.0), 20)
    with pytest.raises(DomainError):
        target_basis([0.0, 1.0], 2, floor=1.5)


def test_solvers_reject_non_finite_input():
    v = np.random.default_rng(0).random((6, 4))
    b = np.random.default_rng(1).random((6, 2))
    for bad in (np.nan, np.inf, -np.inf):
        poisoned = v.copy()
        poisoned[2, 1] = bad
        with pytest.raises(DomainError, match="non-negative and finite"):
            nmf_mu(poisoned, rank=2)
        with pytest.raises(DomainError, match="non-negative and finite"):
            constrained_nmf_mu(poisoned, b, rank=1)
        with pytest.raises(DomainError, match="non-negative and finite"):
            constrained_nmf_mu(v, np.where(b > 0.5, bad, b), rank=1)


# ------------------------------------------------- oracle: the unshared loops

# The two solvers as they were written before they shared one driver:
# each with its own init, sweep loop and result, on the unscaled input
# with the plain Lee & Seung update (0/0 -> 0). The shared driver, which
# prescales by a power of two, must reproduce them bit for bit.


def _ratio(num, den):
    return np.divide(num, den, out=np.zeros(den.shape), where=den > 0)


def _nmf_mu_loop(a, rank, iterations, seed):
    m, n = a.shape
    rng = np.random.default_rng(seed)
    w = 1.0 - rng.random((m, rank))
    h = 1.0 - rng.random((rank, n))
    trace = np.empty(iterations)
    for it in range(iterations):
        h *= _ratio(w.T @ a, w.T @ w @ h)
        w *= _ratio(a @ h.T, w @ h @ h.T)
        trace[it] = np.linalg.norm(a - w @ h)
    return w, h, w @ h, trace


def _constrained_nmf_mu_loop(a, b, rank, iterations, seed):
    k = b.shape[1]
    n = a.shape[1]
    rng = np.random.default_rng(seed)
    p = 1.0 - rng.random((k, rank))
    q = 1.0 - rng.random((rank, n))
    btb = b.T @ b
    btv = b.T @ a
    trace = np.empty(iterations)
    for it in range(iterations):
        p *= _ratio(btv @ q.T, btb @ p @ q @ q.T)
        q *= _ratio(p.T @ btv, p.T @ btb @ p @ q)
        trace[it] = np.linalg.norm(a - b @ p @ q)
    return p, q, b @ p @ q, trace


def _nonneg(draw, shape, scales=(1e-3, 1.0, 1e3)):
    """A non-negative matrix at one of `scales`, with a share of exact
    zeros (whole rows, columns or scattered entries)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = draw(st.sampled_from(scales)) * rng.random(shape)
    zeros = draw(st.sampled_from(("none", "scattered", "row", "col", "all")))
    if zeros == "scattered":
        a[rng.random(shape) < 0.3] = 0.0
    elif zeros == "row":
        a[rng.integers(shape[0])] = 0.0
    elif zeros == "col":
        a[:, rng.integers(shape[1])] = 0.0
    elif zeros == "all":
        a[:] = 0.0
    return a


@st.composite
def nmf_problems(draw, scales=(1e-3, 1.0, 1e3)):
    m, n = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    a = _nonneg(draw, (m, n), scales)
    rank = draw(st.integers(1, min(m, n)))
    return a, rank, draw(st.integers(1, 12)), draw(st.integers(0, 2**32 - 1))


@st.composite
def constrained_problems(draw, scales=(1e-3, 1.0, 1e3)):
    m, n = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    a = _nonneg(draw, (m, n), scales)
    kind = draw(st.sampled_from(("random", "grbf", "target")))
    if kind == "grbf" and m >= 2:
        b = grbf_basis(m, draw(st.floats(0.5, 6.0)), draw(st.integers(1, m))).phi
    elif kind == "target" and m >= 2:
        y = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(m)
        assume(y.max() > y.min())
        b = target_basis(y, m).basis
    else:
        b = _nonneg(draw, (m, draw(st.integers(1, m))), scales)
    return a, b, draw(st.integers(1, 6)), draw(st.integers(1, 12)), draw(st.integers(0, 2**32 - 1))


def _assert_matches_loop(res, loop, a):
    w, h, low, trace = loop
    assert np.array_equal(res.factors.w, w)
    assert np.array_equal(res.factors.h, h)
    assert np.array_equal(res.low_rank, low)
    assert np.array_equal(res.error_trace, trace)
    # no sweep raises the error by more than rounding
    assert np.all(np.diff(trace) <= 1e-12 * np.linalg.norm(a))


@settings(max_examples=200, deadline=None)
@given(nmf_problems())
def test_nmf_mu_matches_unshared_loop(problem):
    a, rank, iterations, seed = problem
    res = nmf_mu(a, rank, iterations, seed)
    _assert_matches_loop(res, _nmf_mu_loop(a, rank, iterations, seed), a)


@settings(max_examples=200, deadline=None)
@given(constrained_problems())
def test_constrained_nmf_mu_matches_unshared_loop(problem):
    a, b, rank, iterations, seed = problem
    res = constrained_nmf_mu(a, b, rank, iterations, seed)
    _assert_matches_loop(res, _constrained_nmf_mu_loop(a, b, rank, iterations, seed), a)


# ------------------------------------------- oracle: the dense bank and solve

# The bump bank as it was built before it skipped its exact zeros: every
# entry evaluated. The banded bank must equal it bit for bit.


def _grbf_basis_dense(m, sigma, delta_t):
    k = (m - 1) // delta_t + 1
    rows = np.arange(m)[:, None]
    centers = np.arange(k)[None, :] * delta_t
    return np.exp(-((rows - centers) ** 2) / (2.0 * sigma ** 2))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_grbf_basis_matches_dense_formula(data):
    m = data.draw(st.integers(2, 600))
    sigma = data.draw(st.one_of(st.sampled_from((1e-3, 1e3)), st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)))
    delta_t = data.draw(st.integers(1, m))
    phi = grbf_basis(m, sigma, delta_t).phi
    assert not phi.flags.writeable
    assert phi.dtype == np.float64 and phi.flags.c_contiguous
    assert np.array_equal(phi, _grbf_basis_dense(m, sigma, delta_t))


@st.composite
def tall_bases(draw, min_rows=2):
    """A non-negative basis of min_rows to 600 rows: a grbf bank, a
    target column, or a random matrix with runs of zero rows (long
    enough, at times, to empty whole row blocks)."""
    m = draw(st.integers(min_rows, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("grbf", "target", "random")))
    if kind == "grbf":
        sigma = draw(st.floats(-1.0, 2.0).map(lambda e: 10.0 ** e))
        return grbf_basis(m, sigma, draw(st.integers(1, max(1, m // 4)))).phi
    if kind == "target":
        return target_basis(rng.random(m), m).basis
    b = rng.random((m, draw(st.integers(1, 24))))
    b[rng.random(b.shape) < draw(st.sampled_from((0.0, 0.5)))] = 0.0
    for _ in range(draw(st.integers(1, 3))):
        start = rng.integers(m)
        b[start:start + rng.integers(1, 2 * _BLOCK_ROWS)] = 0.0
    return b


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_constrained_nmf_mu_blocks_match_dense_loop(data):
    b = data.draw(tall_bases(min_rows=_BLOCK_ROWS + 1))
    m = b.shape[0]
    a = _nonneg(data.draw, (m, data.draw(st.integers(1, 24))))
    rank, iterations = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 12))
    seed = data.draw(st.integers(0, 2**32 - 1))
    res = constrained_nmf_mu(a, b, rank, iterations, seed)
    w, h, low, trace = _constrained_nmf_mu_loop(a, b, rank, iterations, seed)
    for got, want in ((res.factors.w, w), (res.factors.h, h), (res.low_rank, low)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.max(np.abs(res.error_trace - trace)) <= 1e-12 * np.linalg.norm(a)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_row_blocks_cover_every_non_zero_entry(data):
    b = data.draw(st.one_of(tall_bases(), tall_bases(min_rows=_BLOCK_ROWS + 1)))
    covered = np.zeros(b.shape, dtype=bool)
    next_row = 0
    for rows, cols in _row_blocks(b):
        assert rows.start == next_row and rows.stop - rows.start <= _BLOCK_ROWS
        next_row = rows.stop
        covered[rows, cols] = True
    assert next_row == b.shape[0]
    assert not np.any((b != 0) & ~covered)


@pytest.mark.parametrize("solver", ["nmf", "constrained"])
def test_trace_non_increasing_on_small_entries(solver):
    # 1x1 matrices at entry scale 1e-3, where an additive 1e-6 guard in
    # the denominators made the trace rise by 4e-5 of ||V|| (nmf_mu,
    # seed 4) and by 3e-3 (constrained_nmf_mu, seed 0)
    if solver == "nmf":
        a = np.array([[2e-3]])
        res = nmf_mu(a, rank=1, iterations=4, seed=4)
    else:
        a = np.array([[6.3696e-4]])
        res = constrained_nmf_mu(a, a, rank=1, iterations=4, seed=0)
    assert np.all(np.diff(res.error_trace) <= 1e-9 * np.linalg.norm(a))


# ------------------------------------------------ scale: equivariance, range


def _power_of_two(draw, a):
    """2^k for a drawn k that keeps every non-zero entry of a normal.
    At the top, 2^16 of headroom is left: the error and the low-rank
    product can exceed the largest entry by a factor that the problem
    sizes drawn here keep below 2^14, and beyond 2^1024 they overflow
    to inf."""
    lo, hi = -1022, 1023
    nz = a[a > 0]
    if nz.size:
        lo = max(lo, -1022 - (int(np.frexp(nz.min())[1]) - 1))
        hi = min(hi, 1023 - 16 - (int(np.frexp(nz.max())[1]) - 1))
    return 2.0 ** draw(st.integers(lo, hi))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_nmf_mu_scale_equivariant(data):
    # nmf_mu(c V) is exactly c nmf_mu(V): W unchanged, c on H
    a, rank, iterations, seed = data.draw(nmf_problems())
    c = _power_of_two(data.draw, a)
    res = nmf_mu(a, rank, iterations, seed)
    res_c = nmf_mu(c * a, rank, iterations, seed)
    assert np.array_equal(res_c.factors.w, res.factors.w)
    assert np.array_equal(res_c.factors.h, c * res.factors.h)
    assert np.array_equal(res_c.low_rank, c * res.low_rank)
    assert np.array_equal(res_c.error_trace, c * res.error_trace)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_constrained_nmf_mu_scale_equivariant(data):
    # constrained_nmf_mu(c V) is exactly c constrained_nmf_mu(V): c on P,
    # Q unchanged
    a, b, rank, iterations, seed = data.draw(constrained_problems())
    c = _power_of_two(data.draw, a)
    res = constrained_nmf_mu(a, b, rank, iterations, seed)
    res_c = constrained_nmf_mu(c * a, b, rank, iterations, seed)
    assert np.array_equal(res_c.factors.w, c * res.factors.w)
    assert np.array_equal(res_c.factors.h, res.factors.h)
    assert np.array_equal(res_c.low_rank, c * res.low_rank)
    assert np.array_equal(res_c.error_trace, c * res.error_trace)


def _wide(draw, shape):
    """A non-negative matrix with entries from about 1e-300 to 1e300:
    each entry's decimal exponent is drawn from a sub-range [lo, hi] of
    [-300, 300], which may be a single scale or span all of it."""
    lo = draw(st.floats(-300.0, 300.0))
    hi = draw(st.floats(lo, 300.0))
    e = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(lo, hi, shape)
    return _nonneg(draw, shape, (1.0,)) * 10.0 ** e


def _norm(a):
    """||a||_F without overflow or underflow of the squares."""
    amax = a.max()
    return amax * np.linalg.norm(a / amax) if amax > 0 else 0.0


def _assert_finite_and_non_rising(res, a):
    for arr in (res.factors.w, res.factors.h, res.low_rank, res.error_trace):
        assert np.all(np.isfinite(arr))
    assert np.all(np.diff(res.error_trace) <= 1e-12 * _norm(a))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_nmf_mu_finite_and_non_rising_from_1e_minus300_to_1e300(data):
    a, rank, iterations, seed = data.draw(nmf_problems())
    a = _wide(data.draw, a.shape)
    _assert_finite_and_non_rising(nmf_mu(a, rank, iterations, seed), a)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_constrained_nmf_mu_finite_and_non_rising_from_1e_minus300_to_1e300(data):
    # the basis stays at an ordinary scale: P carries V's scale over B's,
    # which for V near 1e300 and B near 1e-300 is not representable
    a, b, rank, iterations, seed = data.draw(constrained_problems())
    a = _wide(data.draw, a.shape)
    _assert_finite_and_non_rising(constrained_nmf_mu(a, b, rank, iterations, seed), a)
