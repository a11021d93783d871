"""Multiplicative-update NMF solvers and constraint basis constructors.

Two solvers are provided. `nmf_mu` minimizes ||V - W H||_F over
non-negative W, H with the classic multiplicative updates. The
constrained variant keeps a fixed non-negative basis B and optimizes
||V - B P Q||_F over non-negative P, Q, so every column of the
reconstruction stays inside the column span of B. The basis can be a
bank of Gaussian radial bumps (smoothness constraint) or a single
normalized target signal column (target-signal constraint).

Every update is the plain Lee & Seung (2001) step x <- x * num / den,
with no additive guard, so each sweep is a majorize-minimize step and
the error trace does not rise beyond rounding. An entry whose
denominator is 0 becomes 0 (0/0 -> 0); in exact arithmetic its
numerator is then 0 too, or the entry already is.

The update is scale-free: V -> c V multiplies one factor by c and
leaves the other unchanged. The solvers run on V / 2^e and on an array
basis with each column divided by its own power of two (see
tensors.unit_scaled; the grbf bank and the default target basis peak
at exactly 1.0, so they are not copied). After the sweeps the low-rank
product and the error trace are multiplied back by 2^e, and so is the
factor each sweep updates first: H in `nmf_mu`; in
`constrained_nmf_mu` row j of P, by 2^e over column j's power of two
(B -> B D moves P by D^-1). Where that would take the factor's largest
entry beyond float64, the excess power of two goes to the other
factor. Two finite factors carry at most about 2^2046 between them, so
a scale beyond that (a basis whose largest entry is subnormal, with V
near 2^1023) raises DomainError.

Solutions are not unique, so both solvers are seeded and deterministic:
same input, rank, iterations and seed gives bitwise identical factors.

The grbf bank is a band (see GrbfBasis): each bump is cut to 0 below
2^-104 of its peak, at the profile's own rounding, so the bank differs
from the uncut formula by far less than its rounding, and it stores
only the 2 reach + 1 entries of one bump. `constrained_nmf_mu` cuts a
basis into row blocks of `_BLOCK_ROWS` rows, each with the span of
columns that holds its non-zero entries (`_row_blocks`): a caller's
array is checked and scanned for them, while a GrbfBasis, built from
validated parameters, gives its spans by arithmetic and fills each
block from its profile without building the dense bank. B^T V
accumulates block by block over those spans, and each sweep forms B P
one block at a time.

B^T B is the sum of the blocks' Grams G_r = B_r^T B_r, each over its
block's span of columns. The Grams of blocks that share a span are
added into one, and each sweep forms B^T B P as the sum of G_s P[s] and
P^T B^T B P as the sum of P[s]^T G_s P[s] over the distinct spans s.
Only a basis of at most `_BLOCK_ROWS` rows is one block, so only its
results are those of the dense products bit for bit. A taller one-column
target basis or dense basis has one span over every column, but its
B^T B and B^T V are still summed block by block, and a grbf bank over
several blocks has about one span per block (24 spans of about 44
columns against K = 750 at 3000 rows); both agree with the dense
products within rounding.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, check_finite, check_int, check_real, real_array
from .tensors import pow2_exponent, shifted, unit_scaled

# Rows per block of a constraint basis in constrained_nmf_mu.
_BLOCK_ROWS = 128

# A bump entry below 2^-104 = eps^2 of the peak 1.0 is cut to 0 (see
# GrbfBasis). exp(-d^2 / (2 sigma^2)) falls below it where the argument
# exceeds 104 ln 2 = 72.09, that is beyond sigma sqrt(208 ln 2) = 12.007
# sigma rows from the centre.
_BUMP_CUT = 2.0 ** -104
_BUMP_CUT_REACH = math.sqrt(208.0 * math.log(2.0))

# Lowest entry of a target_basis column, so no row of the tsfm basis is 0.
TARGET_FLOOR = 1e-3


@dataclass(frozen=True)
class GrbfBasis:
    """Bank of Gaussian bumps, one column per centre, spaced delta_t
    rows, stored as a band.

    Entry (row, j) of the m x k bank is exp(-(row - j delta_t)^2 /
    (2 sigma^2)) for j = 0..k-1, k = floor((m - 1)/delta_t) + 1 (the
    last centre still falls inside the signal), cut to 0 below 2^-104.

    The cut lies at the profile's own rounding. 2^-104 is eps^2 (eps =
    2^-52). Each column peaks at exactly 1.0 and each entry is rounded
    to within eps/2 of itself, so rounding already moves a column by up
    to about eps of its norm; the entries cut, beyond about 12 sigma,
    come to less than eps^2 of it (0.6 eps^2 at most for sigma from
    1e-3 to 1e3). Uncut, the bumps run out to where exp underflows
    (77 rows at sigma = 2, against 24), and BLAS is slow on the
    subnormal outer entries.

    m >= 2 and delta_t >= 1 are integers (a float such as 2.5 is
    refused rather than truncated); sigma is positive and finite with
    2 sigma^2 finite and non-zero in float64. k, reach (the largest
    offset from a centre whose entry is non-zero) and the read-only
    profile (the 2 reach + 1 entries at offsets -reach..reach) derive
    from them. constrained_nmf_mu fills each row block from the profile
    and never builds the dense bank.
    """

    m: int
    sigma: float
    delta_t: int
    k: int = field(init=False)
    reach: int = field(init=False)
    profile: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = check_int(self.m, "grbf_basis m", 2)
        sigma, two_var, delta_t = _grbf_params(self.sigma, self.delta_t, "grbf_basis ")
        # every entry beyond `bound` rows from its centre is below the cut
        bound = min(m - 1, math.ceil(sigma * _BUMP_CUT_REACH) + 1)
        d = np.arange(-bound, bound + 1)
        with np.errstate(over="ignore"):    # d^2 / 2 sigma^2 -> inf gives exp -> 0
            profile = np.exp(-(d * d) / two_var)
        reach = bound - int(np.argmax(profile >= _BUMP_CUT))
        profile = profile[bound - reach:bound + reach + 1]
        profile.flags.writeable = False
        for name, value in (("m", m), ("sigma", sigma), ("delta_t", delta_t),
                            ("k", (m - 1) // delta_t + 1), ("reach", reach), ("profile", profile)):
            object.__setattr__(self, name, value)

    @property
    def shape(self):
        """(m, k), the dense bank's shape."""
        return (self.m, self.k)


@dataclass(frozen=True)
class FactorizationResult:
    """Read-only non-negative factors w and h, with low_rank = w @ h
    (basis @ w @ h when a basis is involved, w then holding the K x L
    inner gains), the error trace, one entry per sweep, and the
    iteration count the solve ran with."""

    w: np.ndarray
    h: np.ndarray
    low_rank: np.ndarray
    error_trace: np.ndarray
    iterations: int


def _check_nonneg(a, name):
    """Reject an empty array or a negative or non-finite entry. Returns the max."""
    if a.size == 0:
        raise DomainError(f"{name} must not be empty, got shape {a.shape}")
    amax = a.max()
    # written so that NaN fails the comparison
    if not a.min() >= 0 or amax == np.inf:
        raise DomainError(f"{name} must be non-negative and finite")
    return amax


def _excess(a, e):
    """How many powers of two the largest entry of a * 2^e lies beyond
    float64's range, for an integer e or a column of one exponent per
    row of a; 0 if it is within it or a is all zero."""
    peaks = a.max(axis=1)
    nz = peaks > 0
    if not nz.any():
        return 0
    e = np.broadcast_to(e, (a.shape[0], 1))[nz, 0]
    return max(int(np.max(pow2_exponent(peaks[nz]) + e)) - 1023, 0)


def _shift_pair(x, y, ex, ey):
    """x * 2^ex and y * 2^ey, except that the part of a shift that would
    take a factor's largest entry beyond float64 goes to the other
    factor instead. The product x y gets the same 2^(ex + ey). ex may
    be a column of one exponent per row of x; its excess is the largest
    over the rows, and all of it goes to y. Raises DomainError where
    neither factor can take the excess."""
    dx, dy = _excess(x, ex), _excess(y, ey)
    ex, ey = ex - dx + dy, ey - dy + dx
    if _excess(x, ex) or _excess(y, ey):
        raise DomainError(
            f"the factors cannot carry a scale of 2^{np.max(ex) + ey} in float64; "
            "the input's scale over the basis's is too large"
        )
    return shifted(x, ex), shifted(y, ey)


def _nonneg_matrix(v, name):
    """The input as a float64 matrix divided by 2^e, the power of two at
    or below its largest entry, and e (see tensors.unit_scaled)."""
    a = real_array(v, f"{name} input")
    if a.ndim != 2:
        raise DomainError(f"{name} expects a 2D matrix")
    return unit_scaled(a, _check_nonneg(a, f"{name} input"))


def _grbf_params(sigma, delta_t, prefix):
    """(sigma, 2 sigma^2, delta_t) for a bump bank: delta_t an integer
    >= 1, sigma positive and finite with 2 sigma^2 finite and non-zero
    in float64. A DomainError names each as prefix + name."""
    delta_t = check_int(delta_t, f"{prefix}delta_t", 1)
    sigma = check_real(sigma, f"{prefix}sigma", gt=0)
    with np.errstate(over="ignore"):    # an overflow to inf is refused below
        two_var = 2.0 * np.float64(sigma) ** 2
    return sigma, check_real(two_var, f"2 {prefix}sigma^2", gt=0), delta_t


def _mu_step(x, num, den):
    """The Lee & Seung update x <- x * num / den in place, with 0/0 -> 0."""
    x *= np.divide(num, den, out=np.zeros_like(den), where=den > 0)


def _run_mu(a, e, inner, rank, iterations, seed, sweep, max_rank=np.inf, ex=0, ey=0):
    """Shared multiplicative-update driver.

    Checks that rank (1 <= rank <= max_rank), iterations (>= 1) and
    seed (>= 0) are integers in range. Draws an inner x rank and a
    rank x N factor uniformly on (0, 1] from a seeded generator, runs
    `iterations` sweeps and records the Frobenius error of each sweep's
    reconstruction. sweep(x, y) updates both factors in place and
    returns their reconstruction of `a`.

    `a` is the input divided by 2^e; the low-rank product and the trace
    are multiplied back by 2^e, the factors x and y by 2^ex and 2^ey,
    where ex may be a column of one exponent per row of x (see
    _shift_pair).
    """
    rank = check_int(rank, "rank", 1)
    if rank > max_rank:
        raise DomainError(f"rank must satisfy 1 <= rank <= {max_rank}, got {rank}")
    iterations = check_int(iterations, "iterations", 1)
    rng = np.random.default_rng(check_int(seed, "seed", 0))
    x = 1.0 - rng.random((inner, rank))    # uniform on (0, 1]
    y = 1.0 - rng.random((rank, a.shape[1]))
    trace = np.empty(iterations)
    for it in range(iterations):
        low = sweep(x, y)
        trace[it] = np.linalg.norm(a - low)
    x, y = _shift_pair(x, y, ex, ey)
    low, trace = shifted(low, e), shifted(trace, e)
    for arr in (x, y, low, trace):
        arr.flags.writeable = False
    return FactorizationResult(x, y, low, trace, iterations)


def nmf_mu(v, rank, iterations=4, seed=0):
    """Factor a non-negative matrix V into W (M x L) times H (L x N).

    Lee & Seung updates (Frobenius objective), 0/0 -> 0:
        H <- H * (W^T V) / (W^T W H)
        W <- W * (V H^T) / (W H H^T)

    Factors are initialized uniformly on (0, 1] from a seeded generator.
    The sweeps run on V / 2^e, and H carries 2^e back (see the module
    docstring). The Frobenius reconstruction error is recorded after
    each full iteration and is non-increasing up to rounding.

    Args:
        v: non-negative, finite 2D array-like.
        rank: number of components L, an integer 1 <= L <= min(M, N).
        iterations: full update sweeps, an integer >= 1.
        seed: RNG seed for the factor init, an integer >= 0.

    Returns:
        FactorizationResult with low_rank = W @ H.
    """
    a, e = _nonneg_matrix(v, "nmf_mu")
    m, n = a.shape

    def sweep(w, h):
        _mu_step(h, w.T @ a, w.T @ w @ h)
        _mu_step(w, a @ h.T, w @ h @ h.T)
        return w @ h

    return _run_mu(a, e, m, rank, iterations, seed, sweep, max_rank=min(m, n), ey=e)


def constrained_nmf_mu(v, basis, rank, iterations=4, seed=0):
    """Factor V as B P Q with B fixed and P (K x L), Q (L x N) non-negative.

    Substituting W = B P into the Lee & Seung updates gives (0/0 -> 0)
        P <- P * (B^T V Q^T) / (B^T B P Q Q^T)
        Q <- Q * (P^T B^T V) / (P^T B^T B P Q)
    which are valid multiplicative updates because B is non-negative.
    Every column of the reconstruction B P Q lies in span(B). The
    sweeps run on V / 2^e and on B with column j divided by 2^eb_j, and
    row j of P carries 2^(e - eb_j) back (see the module docstring).

    Args:
        v: non-negative, finite 2D array-like (M x N).
        basis: fixed non-negative M x K basis: a GrbfBasis, whose row
            blocks are filled from its band, or a 2D array (bump bank or
            target column), which is checked and scanned.
        rank: inner rank L, an integer >= 1.
        iterations: full update sweeps, an integer >= 1.
        seed: RNG seed for the factor init, an integer >= 0.
    """
    a, e = _nonneg_matrix(v, "constrained_nmf_mu")
    if isinstance(basis, GrbfBasis):
        # built from validated parameters: non-negative, finite and
        # peaking at exactly 1.0, so it needs no check and no scaling
        b, eb = basis, 0
        blocks = [(rows, cols, _band_block(b, rows, cols)) for rows, cols in _row_blocks(b)]
    else:
        b = real_array(basis, "constraint basis")
        if b.ndim != 2:
            raise DomainError(f"constraint basis must be a 2D M x K array, got ndim={b.ndim}")
        _check_nonneg(b, "constraint basis")
        # each column divided by the power of two at or below its own
        # peak, and P's row for it multiplied back by the same
        b, eb = unit_scaled(b, b.max(axis=0))
        eb = eb[:, None]
        # contiguous like the band's blocks, so that both take the same
        # BLAS calls (numpy multiplies a strided one-column view itself)
        blocks = [(rows, cols, np.ascontiguousarray(b[rows, cols])) for rows, cols in _row_blocks(b)]
    if b.shape[0] != a.shape[0]:
        raise DomainError(
            f"basis has {b.shape[0]} rows but the matrix has {a.shape[0]}"
        )

    k = b.shape[1]
    grams = {}    # one Gram per distinct span (j0, j1), summed in block order
    btv = np.zeros((k, a.shape[1]))
    for rows, cols, blk in blocks:
        span, g = (cols.start, cols.stop), blk.T @ blk
        grams[span] = grams[span] + g if span in grams else g
        btv[cols] += blk.T @ a[rows]

    def btb_p(p):
        out = np.zeros(p.shape)
        for (j0, j1), g in grams.items():
            out[j0:j1] += g @ p[j0:j1]
        return out

    def pt_btb_p(p):
        return sum((p[j0:j1].T @ g) @ p[j0:j1] for (j0, j1), g in grams.items())

    def sweep(p, q):
        _mu_step(p, btv @ q.T, btb_p(p) @ q @ q.T)
        _mu_step(q, p.T @ btv, pt_btb_p(p) @ q)
        bp = np.empty((b.shape[0], p.shape[1]))
        for rows, cols, blk in blocks:
            np.matmul(blk, p[cols], out=bp[rows])
        return bp @ q

    return _run_mu(a, e, k, rank, iterations, seed, sweep, ex=e - eb)


def _row_blocks(b):
    """Cut the rows of an M x K basis into blocks of _BLOCK_ROWS rows.

    Returns (rows, cols) slice pairs, one per block: cols spans the
    first to the last column with a non-zero entry in those rows (empty
    for an all-zero block), so every non-zero entry of b lies in some
    b[rows, cols]. An array is scanned for them; in a GrbfBasis column j
    is non-zero exactly in the rows within reach of j delta_t, so its
    spans are found by arithmetic. A basis of at most _BLOCK_ROWS rows is
    a single block over every column, which keeps its products those of
    the whole matrix.
    """
    m, k = b.shape
    if m <= _BLOCK_ROWS:
        return [(slice(0, m), slice(0, k))]
    if isinstance(b, GrbfBasis):
        def span(r0, r1):
            return max(-((b.reach - r0) // b.delta_t), 0), min((r1 - 1 + b.reach) // b.delta_t + 1, k)
    else:
        def span(r0, r1):
            nz = np.flatnonzero(b[r0:r1].any(axis=0))
            return (int(nz[0]), int(nz[-1]) + 1) if nz.size else (0, 0)
    blocks = []
    for r0 in range(0, m, _BLOCK_ROWS):
        r1 = min(r0 + _BLOCK_ROWS, m)
        j0, j1 = span(r0, r1)
        blocks.append((slice(r0, r1), slice(j0, j1) if j0 < j1 else slice(0, 0)))
    return blocks


def _band_block(g, rows, cols):
    """Block [rows, cols] of the dense bank of GrbfBasis g, for unit-step
    slices whose every column has a centre within reach of the rows (as
    _row_blocks gives them, or the whole bank), as a fresh C-contiguous
    array filled from the profile.

    Entry (r, j) is profile[r - j delta_t + reach], or 0 where that
    index falls outside the profile. With n rows and the profile padded
    by n - 1 zeros on either side, column j is the n entries of the
    padded profile from r0 - j delta_t + reach + n - 1 on.
    """
    n = rows.stop - rows.start
    padded = np.zeros(2 * (g.reach + n) - 1)
    padded[n - 1:n + 2 * g.reach] = g.profile
    starts = rows.start + g.reach + n - 1 - g.delta_t * np.arange(cols.start, cols.stop)
    return np.ascontiguousarray(sliding_window_view(padded, n)[starts].T)


# The M x K bump bank as a band (see GrbfBasis), under the name that
# attention.solve calls and the benchmark's tracing wraps.
grbf_basis = GrbfBasis


def target_basis(y, m):
    """Turn a target signal, a vector of m samples, into a single
    non-negative constraint column, the read-only (m, 1) basis of the
    tsfm solve.

    The signal is min-max normalized onto [TARGET_FLOOR, 1]:
        basis = TARGET_FLOOR + (1 - TARGET_FLOOR) * (y - min y) / (max y - min y)
    A constant signal is rejected, it would make the constrained
    factorization degenerate, and so is a non-finite one.
    """
    y = check_finite(y, "target signal", size=check_int(m, "target_basis m"))
    lo, hi = y.min(), y.max()
    if hi == lo:
        raise DomainError("target signal is constant, cannot build a constraint")
    col = TARGET_FLOOR + (1.0 - TARGET_FLOOR) * (y - lo) / (hi - lo)
    col = col[:, None]
    col.flags.writeable = False
    return col
