import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from physfactor.errors import DomainError
from physfactor.factorize import (
    _BLOCK_ROWS,
    GrbfBasis,
    _band_block,
    _row_blocks,
    constrained_nmf_mu,
    grbf_basis,
    nmf_mu,
    target_basis,
)
from physfactor.tensors import pow2_exponent


def _phi(g):
    """The dense bank of a GrbfBasis, built from its band."""
    return _band_block(g, slice(0, g.m), slice(0, g.k))


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
    res = nmf_mu(v, rank=2, iterations=4, seed=42)
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
    assert np.array_equal(a.w, b.w)
    assert np.array_equal(a.h, b.h)
    assert np.array_equal(a.error_trace, b.error_trace)
    for seed in range(5):
        r = nmf_mu(v, rank=3, iterations=6, seed=seed)
        assert r.w.min() >= 0 and r.h.min() >= 0
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
    basis = _phi(grbf_basis(16, sigma=2.0, delta_t=4))
    res = constrained_nmf_mu(v, basis, rank=2, iterations=4, seed=3)
    tol = 1e-9 * (1.0 + res.error_trace[0])
    assert np.all(np.diff(res.error_trace) <= tol)
    # residual after projecting each reconstruction column onto span(phi)
    q, _ = np.linalg.qr(basis)
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
    phi = _phi(basis)
    assert phi.shape == (5, 3)
    # center rows are exactly one, off-center decays
    for k in range(basis.k):
        assert phi[k * 2, k] == 1.0
    assert abs(phi[0, 1] - np.exp(-2.0)) <= 1e-12
    assert phi.min() > 0.0 and phi.max() <= 1.0


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


@pytest.mark.parametrize("build", [
    lambda: grbf_basis(20.9, 1.0, 2),
    lambda: grbf_basis(20, 1.0, 2.5),
    lambda: target_basis(np.arange(5.0), 5.7),
], ids=["grbf-m", "grbf-delta-t", "target-m"])
def test_fractional_sizes_are_refused(build):
    # grbf_basis(20.9, 1.0, 2.5) built a 20 x 10 bank with delta_t = 2,
    # and target_basis accepted m = 5.7 for a 5-sample signal
    with pytest.raises(DomainError, match="integer"):
        build()


def test_target_basis_example():
    basis = target_basis([-1.0, 0.0, 1.0], 3)
    assert basis.shape == (3, 1)
    assert np.allclose(basis[:, 0], [0.001, 0.5005, 1.0], atol=1e-12)
    assert basis.min() == pytest.approx(1e-3)
    assert basis.max() == 1.0


def test_target_basis_preconditions():
    with pytest.raises(DomainError):
        target_basis([2.0, 2.0, 2.0], 3)
    with pytest.raises(DomainError):
        target_basis(np.arange(10.0), 20)


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


# ------------------------------------------------------- the dense bump bank

# The bump bank by its formula, every entry evaluated. grbf_basis cuts
# the entries below 2^-104 to 0; uncut (cut=False), a bump runs out to
# where exp underflows, through subnormal entries. The array-based
# solver tests take the uncut bank, whose subnormal tails reach the
# solver's underflow cases.


def _grbf_basis_dense(m, sigma, delta_t, cut=True):
    k = (m - 1) // delta_t + 1
    rows = np.arange(m)[:, None]
    centers = np.arange(k)[None, :] * delta_t
    phi = np.exp(-((rows - centers) ** 2) / (2.0 * sigma ** 2))
    if cut:
        phi[phi < 2.0 ** -104] = 0.0
    return phi


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


def _column_exponents(b):
    """The exponent of the power of two at or below each column's peak
    (0 for an all-zero column)."""
    return np.array([pow2_exponent(c.max()) for c in b.T])


def _constrained_nmf_mu_loop(a, b, rank, iterations, seed):
    # the solver divides each basis column by 2^e_j and starts from the
    # same draw; the MU step is equivariant under B -> B D only with P's
    # start moved by D^-1, so P starts at the draw times 2^-e_j by row
    k = b.shape[1]
    n = a.shape[1]
    rng = np.random.default_rng(seed)
    p = np.ldexp(1.0 - rng.random((k, rank)), -_column_exponents(b)[:, None])
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
        b = _grbf_basis_dense(m, draw(st.floats(0.5, 6.0)), draw(st.integers(1, m)), cut=False)
    elif kind == "target" and m >= 2:
        y = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(m)
        assume(y.max() > y.min())
        b = target_basis(y, m)
    else:
        b = _nonneg(draw, (m, draw(st.integers(1, m))), scales)
    return a, b, draw(st.integers(1, 6)), draw(st.integers(1, 12)), draw(st.integers(0, 2**32 - 1))


def _assert_product_matches(got, low, x, y, z, e, ex):
    """got, the driver's X Y Z, against low, the loop's, for
    non-negative factors. The driver forms the product at V / 2^e, with
    the basis X divided by 2^ex and the scale-carrying factor by
    2^(e - ex), and multiplies it back by 2^e.

    Where no factor entry, no term X_il Y_lr or (X Y)_ir Z_rj and no
    entry of low lies below 2^s tiny, 2^s the largest of those scales,
    both sides round the same values, and they agree bit for bit.
    Elsewhere each side is within its rounding of the exact product:
    a relative eps per operation, about k + r + 1 of them, and half a
    subnormal ulp at scale 2^s for each rounded factor entry and each
    underflowing term, each weighted by what multiplies it afterwards."""
    tiny = np.finfo(float).tiny
    scale = 2.0 ** (max(e, 0) + abs(ex))
    xy = x @ y
    terms = (x, y, z, low, x[:, :, None] * y[None], xy[:, :, None] * z[None])
    if not any(np.any((t > 0) & (t < scale * tiny)) for t in terms):
        assert np.array_equal(got, low)
        return
    k, r = y.shape
    ulp = scale * np.finfo(float).smallest_subnormal
    zs = z.sum(axis=0)
    weights = (
        (y @ z).sum(axis=0)                   # X's entries
        + x.sum(axis=1)[:, None] * zs         # Y's
        + xy.sum(axis=1)[:, None]             # Z's
        + k * zs + r + 1                      # the terms and the result
    )
    bound = 2 * (k + r + 1) * np.finfo(float).eps * low + ulp * weights
    assert np.all(np.abs(got - low) <= bound)


def _assert_matches_loop(res, loop, a, b=None):
    # factors and trace bit for bit; the low-rank product is formed on
    # V / 2^e and multiplied back, so where it underflows at either
    # scale it is rounded differently from the loop's
    w, h, low, trace = loop
    assert np.array_equal(res.w, w)
    assert np.array_equal(res.h, h)
    assert np.array_equal(res.error_trace, trace)
    x = np.eye(a.shape[0]) if b is None else b
    _assert_product_matches(res.low_rank, low, x, w, h, pow2_exponent(a.max()), pow2_exponent(x.max()))
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
# low_rank[19] is subnormal: 1.8189926e-317 here, 1.818992e-317 in the loop
@example((1e-3 * np.random.default_rng(0).random((20, 1)), _grbf_basis_dense(20, 0.5, 20, cut=False), 1, 1, 0))
# low_rank[21, 1] is 4 subnormal ulps from the loop's: the loop's B P
# underflows there, and Q (up to 7.9) multiplies that rounding
@example((1e-3 * np.random.default_rng(598).random((22, 8)), _grbf_basis_dense(22, 0.56, 22, cut=False), 2, 4, 1))
def test_constrained_nmf_mu_matches_unshared_loop(problem):
    a, b, rank, iterations, seed = problem
    res = constrained_nmf_mu(a, b, rank, iterations, seed)
    _assert_matches_loop(res, _constrained_nmf_mu_loop(a, b, rank, iterations, seed), a, b)


# ------------------------------------------- oracle: the dense bank and solve

# grbf_basis must equal the cut formula (_grbf_basis_dense) bit for
# bit; solves on it stay within rounding of solves on the uncut bank.


def _sigmas():
    """sigma from 1e-3 to 1e3, log-uniform, with both ends."""
    return st.one_of(st.sampled_from((1e-3, 1e3)), st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_grbf_basis_matches_dense_formula(data):
    m = data.draw(st.integers(2, 600))
    sigma = data.draw(_sigmas())
    delta_t = data.draw(st.integers(1, m))
    phi = _phi(grbf_basis(m, sigma, delta_t))
    assert phi.dtype == np.float64 and phi.flags.c_contiguous
    assert np.array_equal(phi, _grbf_basis_dense(m, sigma, delta_t))


@st.composite
def grbf_problems(draw):
    """V, a grbf bank of 2 to 600 rows (either side of _BLOCK_ROWS),
    rank, iterations and seed."""
    m = draw(st.integers(2, 600))
    g = grbf_basis(m, draw(_sigmas()), draw(st.integers(1, m)))
    a = _nonneg(draw, (m, draw(st.integers(1, 24))))
    return a, g, draw(st.integers(1, 6)), draw(st.integers(1, 12)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(grbf_problems())
def test_constrained_nmf_mu_band_matches_dense_bank(problem):
    # the blocks filled from the band against the checked and scanned
    # dense bank, which stays the oracle
    a, g, rank, iterations, seed = problem
    res = constrained_nmf_mu(a, g, rank, iterations, seed)
    want = constrained_nmf_mu(a, _phi(g), rank, iterations, seed)
    assert np.array_equal(res.w, want.w)
    assert np.array_equal(res.h, want.h)
    assert np.array_equal(res.low_rank, want.low_rank)
    assert np.array_equal(res.error_trace, want.error_trace)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_band_row_blocks_match_the_scan(data):
    m = data.draw(st.integers(2, 600))
    g = grbf_basis(m, data.draw(_sigmas()), data.draw(st.integers(1, m)))
    phi = _phi(g)
    assert _row_blocks(g) == _row_blocks(phi)
    # reach is the largest offset whose entry is non-zero
    assert g.profile.shape == (2 * g.reach + 1,) and g.profile[0] > 0.0
    assert g.reach == m - 1 or not np.any(phi[g.reach + 1:, 0])


@settings(max_examples=100, deadline=None)
@given(grbf_problems())
# V is zero where the one bump is not cut: the uncut bank's low_rank is
# 1.4e-90 in norm, all of it from the cut tail, and the cut bank's is 0
@example((np.r_[0.0, 0.0, np.full(189, 1e-3)][:, None], grbf_basis(191, 0.1, 191), 1, 1, 0))
def test_cut_bank_solves_within_rounding_of_the_uncut_bank(problem):
    # the bound is relative to V, the problem's own scale: where V is
    # all but orthogonal to the bank, low_rank is itself tail-sized
    a, g, rank, iterations, seed = problem
    low = constrained_nmf_mu(a, g, rank, iterations, seed).low_rank
    full = _grbf_basis_dense(g.m, g.sigma, g.delta_t, cut=False)
    want = constrained_nmf_mu(a, full, rank, iterations, seed).low_rank
    assert np.linalg.norm(low - want) <= 1e-12 * np.linalg.norm(a)


def test_grbf_band_cannot_disagree_with_its_bank():
    g = grbf_basis(300, 2.0, 4)
    # k, reach and profile derive from m, sigma and delta_t
    with pytest.raises(TypeError):
        GrbfBasis(300, 2.0, 4, profile=-np.ones(49))
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.profile = -g.profile
    with pytest.raises(ValueError, match="read-only"):
        g.profile[0] = -1.0
    wider = dataclasses.replace(g, sigma=3.0)
    assert wider.reach == grbf_basis(300, 3.0, 4).reach > g.reach
    with pytest.raises(DomainError, match="sigma"):
        dataclasses.replace(g, sigma=-1.0)


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
        return _grbf_basis_dense(m, sigma, draw(st.integers(1, max(1, m // 4))), cut=False)
    if kind == "target":
        return target_basis(rng.random(m), m)
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
    for got, want in ((res.w, w), (res.h, h), (res.low_rank, low)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.max(np.abs(res.error_trace - trace)) <= 1e-12 * np.linalg.norm(a)


def _distinct_spans(b):
    """The distinct column spans of b's row blocks: constrained_nmf_mu
    keeps one Gram per span."""
    return {(cols.start, cols.stop) for _, cols in _row_blocks(b)}


def test_multi_block_grbf_solve_matches_dense_gram_loop():
    # 600 rows, 150 bumps: five row blocks of about 44 columns each,
    # each over its own span, so the solve keeps five Grams
    g = grbf_basis(600, 2.0, 4)
    assert len(_row_blocks(g)) == 5 and len(_distinct_spans(g)) == 5
    a = np.random.default_rng(17).random((600, 12))
    res = constrained_nmf_mu(a, g, rank=8, iterations=6, seed=3)
    w, h, low, trace = _constrained_nmf_mu_loop(a, _phi(g), 8, 6, 3)
    bound = 1e-12 * np.linalg.norm(a)
    assert np.all(np.diff(res.error_trace) <= bound)
    assert np.max(np.abs(res.error_trace - trace)) <= bound
    assert np.linalg.norm(res.low_rank - low) <= bound
    for got, want in ((res.w, w), (res.h, h)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)


def _dense_gram_loop(a, b, rank, iterations, seed):
    # the solve on a dense B^T B, scattered from the row blocks' Grams,
    # with B P formed block by block, for a basis and V that need no
    # scaling (largest entries in [1, 2))
    rng = np.random.default_rng(seed)
    p = 1.0 - rng.random((b.shape[1], rank))
    q = 1.0 - rng.random((rank, a.shape[1]))
    blocks = [(rows, cols, np.ascontiguousarray(b[rows, cols])) for rows, cols in _row_blocks(b)]
    btb = np.zeros((b.shape[1], b.shape[1]))
    btv = np.zeros((b.shape[1], a.shape[1]))
    for rows, cols, blk in blocks:
        btb[cols, cols] += blk.T @ blk
        btv[cols] += blk.T @ a[rows]
    trace = np.empty(iterations)
    for it in range(iterations):
        p *= _ratio(btv @ q.T, btb @ p @ q @ q.T)
        q *= _ratio(p.T @ btv, p.T @ btb @ p @ q)
        bp = np.empty((b.shape[0], rank))
        for rows, cols, blk in blocks:
            bp[rows] = blk @ p[cols]
        trace[it] = np.linalg.norm(a - bp @ q)
    return p, q, trace


def test_dense_tall_basis_keeps_the_dense_gram_bit_for_bit():
    # every row block of a dense basis spans all its columns, so the
    # solve adds the blocks' Grams into one dense B^T B
    rng = np.random.default_rng(5)
    b = 1.0 + rng.random((300, 6))
    a = 1.0 + rng.random((300, 9))
    assert len(_row_blocks(b)) == 3 and _distinct_spans(b) == {(0, 6)}
    res = constrained_nmf_mu(a, b, rank=4, iterations=5, seed=2)
    p, q, trace = _dense_gram_loop(a, b, 4, 5, 2)
    assert np.array_equal(res.w, p)
    assert np.array_equal(res.h, q)
    assert np.array_equal(res.error_trace, trace)


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


@st.composite
def _scaled(draw, problems):
    problem = draw(problems)
    return problem, _power_of_two(draw, problem[0])


def _assert_scaled(got, base, c):
    """got == c * base bit for bit where both are normal. Both solves
    run on the same V / 2^e, and each multiplies its result back by its
    own power of two. Where that lands on a subnormal, the rounding is
    to a subnormal ulp: half an ulp in got, half an ulp times c in
    c * base, and half an ulp more where c < 1 takes c * base to a
    subnormal. So there they agree within 2 max(c, 1) ulps."""
    want = c * base
    tiny = np.finfo(float).tiny
    normal = (np.abs(base) >= tiny) & (np.abs(got) >= tiny)
    assert np.array_equal(got[normal], want[normal])
    ulp = np.finfo(float).smallest_subnormal
    assert np.all(np.abs(got - want)[~normal] <= 2 * max(c, 1.0) * ulp)


@settings(max_examples=200, deadline=None)
@given(_scaled(nmf_problems()))
def test_nmf_mu_scale_equivariant(scaled):
    # nmf_mu(c V) is exactly c nmf_mu(V) away from underflow: W
    # unchanged, c on H
    (a, rank, iterations, seed), c = scaled
    res = nmf_mu(a, rank, iterations, seed)
    res_c = nmf_mu(c * a, rank, iterations, seed)
    assert np.array_equal(res_c.w, res.w)
    _assert_scaled(res_c.h, res.h, c)
    _assert_scaled(res_c.low_rank, res.low_rank, c)
    _assert_scaled(res_c.error_trace, res.error_trace, c)


@settings(max_examples=200, deadline=None)
@given(_scaled(constrained_problems()))
# low_rank[19] is subnormal: 3.6379847e-317 at 2 V, 2 x 1.8189926e-317 at V
@example(((1e-3 * np.random.default_rng(0).random((20, 1)), _grbf_basis_dense(20, 0.5, 20, cut=False), 1, 1, 0), 2.0))
def test_constrained_nmf_mu_scale_equivariant(scaled):
    # constrained_nmf_mu(c V) is exactly c constrained_nmf_mu(V) away
    # from underflow: c on P, Q unchanged. With V at 1e-3, a grbf bank
    # of sigma 0.5 has subnormal entries, and so has low_rank.
    (a, b, rank, iterations, seed), c = scaled
    res = constrained_nmf_mu(a, b, rank, iterations, seed)
    res_c = constrained_nmf_mu(c * a, b, rank, iterations, seed)
    _assert_scaled(res_c.w, res.w, c)
    assert np.array_equal(res_c.h, res.h)
    _assert_scaled(res_c.low_rank, res.low_rank, c)
    _assert_scaled(res_c.error_trace, res.error_trace, c)


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
    for arr in (res.w, res.h, res.low_rank, res.error_trace):
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
    # V and the basis both wide: P alone cannot carry V's scale over B's
    # when that leaves float64, so Q takes the excess
    a, b, rank, iterations, seed = data.draw(constrained_problems())
    a = _wide(data.draw, a.shape)
    b = _wide(data.draw, b.shape)
    _assert_finite_and_non_rising(constrained_nmf_mu(a, b, rank, iterations, seed), a)


@pytest.mark.parametrize("solver", ["nmf", "constrained"])
def test_scale_carrying_factor_stays_finite(solver):
    # H (nmf_mu) or P (constrained_nmf_mu) carries V's scale; multiplied
    # back alone, it overflowed to inf with numpy's ldexp overflow warning
    if solver == "nmf":
        res = nmf_mu(np.full((3, 3), 1.5e308), rank=1)
        product = res.w @ res.h
    else:
        rng = np.random.default_rng(3)
        basis = 1e-300 * rng.random((30, 4))
        res = constrained_nmf_mu(1e300 * rng.random((30, 5)), basis, rank=2)
        product = basis @ res.w @ res.h
    assert np.all(np.isfinite(res.w)) and np.all(np.isfinite(res.h))
    assert np.all(np.isfinite(res.low_rank))
    assert np.max(np.abs(product - res.low_rank)) <= 1e-12 * np.max(res.low_rank)


def test_factor_split_at_the_float64_boundary():
    # with V near 2^1023 and a basis peaking at 2^eb, P Q carries about
    # 2^(1023 - eb): two finite factors carry 2^2045 (eb = -1022, the
    # smallest normal) but not 2^2053 (a subnormal basis, eb = -1030)
    v = np.full((3, 3), 1.5e308)
    basis = np.full((3, 1), np.finfo(float).tiny)
    res = constrained_nmf_mu(v, basis, rank=1)
    assert np.all(np.isfinite(res.w)) and np.all(np.isfinite(res.h))
    product = basis @ res.w @ res.h
    assert np.max(np.abs(product - res.low_rank)) <= 1e-12 * np.max(res.low_rank)
    with pytest.raises(DomainError, match="cannot carry"):
        constrained_nmf_mu(v, np.full((3, 1), np.ldexp(1.0, -1030)), rank=1)
