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
leaves the other unchanged. The solvers divide V by 2^e, the power of
two at or below its largest entry, to keep the intermediates in range;
a basis likewise, unless its largest entry already lies in [1, 2) (the
grbf bank and the default target basis peak at exactly 1.0, so they
are not copied). After the sweeps the low-rank product, the error trace
and the factor each sweep updates first (H in `nmf_mu`, P in
`constrained_nmf_mu`) are multiplied back by 2^e. Power-of-two scaling
is exact, so away from over- and underflow the results are bit for bit
those of the unscaled update, and solver(2^k V) is exactly
2^k solver(V).

Solutions are not unique, so both solvers are seeded and deterministic:
same input, rank, iterations and seed gives bitwise identical factors.

Both grbf stages skip the bank's exact zeros. `grbf_basis` evaluates
each bump only within `reach` rows of its centre; further out the
Gaussian underflows to 0.0, so the dense bank is bitwise the full
formula's. `constrained_nmf_mu` cuts the basis into row blocks of
`_BLOCK_ROWS` rows, each with the span of columns that holds its
non-zero entries (`_row_blocks`). B^T B and B^T V accumulate block by
block over those spans, and each sweep forms B P one block at a time.
A basis of at most `_BLOCK_ROWS` rows is one block over every column,
so its results are those of the dense products bit for bit; taller
bases agree with them within rounding.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .tensors import EmbeddingMatrix, Waveform

# Rows per block of a constraint basis in constrained_nmf_mu.
_BLOCK_ROWS = 128

# exp(-x) rounds to 0.0 in float64 for every x above about 745.13 (half
# the smallest subnormal), so a bump is exactly zero where
# d^2 / (2 sigma^2) exceeds this.
_EXP_ZERO_ARG = 746.0


@dataclass(frozen=True)
class FactorPair:
    """Non-negative factors. w is M x L (or K x L inner gains when a
    basis is involved), h is L x N."""

    w: np.ndarray
    h: np.ndarray
    rank: int


@dataclass(frozen=True)
class GrbfBasis:
    """Bank of Gaussian bumps, one column per center, spaced delta_t samples."""

    phi: np.ndarray
    sigma: float
    delta_t: int
    k: int


@dataclass(frozen=True)
class TargetConstraint:
    """Single-column constraint built from a target signal, min-max
    normalized into [floor, 1]."""

    basis: np.ndarray
    floor: float


@dataclass(frozen=True)
class FactorizationResult:
    factors: FactorPair
    low_rank: np.ndarray
    error_trace: np.ndarray
    iterations: int
    seed: int


def _check_nonneg(a, name):
    """Reject a negative or non-finite entry. Returns the exponent e of
    2^e, the power of two at or below the largest entry (0 for a zero
    matrix)."""
    amax = a.max()
    # written so that NaN fails the comparison
    if not a.min() >= 0 or amax == np.inf:
        raise DomainError(f"{name} must be non-negative and finite")
    return int(np.frexp(amax)[1]) - 1 if amax > 0 else 0


def _shift(a, e):
    """a * 2^e, rounded once; a itself when e is 0."""
    return np.ldexp(a, e) if e else a


def _nonneg_matrix(v, name):
    """The input as a float64 matrix divided by 2^e (see _check_nonneg),
    and e."""
    a = v.data if isinstance(v, EmbeddingMatrix) else np.asarray(v, dtype=np.float64)
    if a.ndim != 2:
        raise DomainError(f"{name} expects a 2D matrix")
    e = _check_nonneg(a, f"{name} input")
    return _shift(a, -e), e


def _index(value, name):
    """A Python or numpy integer; a float such as 2.5 is refused rather
    than truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


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
    are multiplied back by 2^e, the factors x and y by 2^ex and 2^ey.
    """
    rank = _index(rank, "rank")
    iterations = _index(iterations, "iterations")
    seed = _index(seed, "seed")
    if not 1 <= rank <= max_rank:
        raise DomainError(f"rank must satisfy 1 <= rank <= {max_rank}, got {rank}")
    if iterations < 1:
        raise DomainError("iterations must be >= 1")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    x = 1.0 - rng.random((inner, rank))    # uniform on (0, 1]
    y = 1.0 - rng.random((rank, a.shape[1]))
    trace = np.empty(iterations)
    for it in range(iterations):
        low = sweep(x, y)
        trace[it] = np.linalg.norm(a - low)
    x, y, low, trace = _shift(x, ex), _shift(y, ey), _shift(low, e), _shift(trace, e)
    for arr in (x, y, low, trace):
        arr.flags.writeable = False
    return FactorizationResult(FactorPair(x, y, rank), low, trace, iterations, seed)


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
        v: non-negative, finite EmbeddingMatrix or 2D array.
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
    sweeps run on V / 2^e and B / 2^eb, and P carries 2^(e - eb) back
    (see the module docstring).

    Args:
        v: non-negative, finite EmbeddingMatrix or 2D array (M x N).
        basis: fixed non-negative M x K matrix (bump bank or target column).
        rank: inner rank L, an integer >= 1.
        iterations: full update sweeps, an integer >= 1.
        seed: RNG seed for the factor init, an integer >= 0.
    """
    a, e = _nonneg_matrix(v, "constrained_nmf_mu")
    b = np.asarray(basis, dtype=np.float64)
    if b.ndim == 1:
        b = b[:, None]
    eb = _check_nonneg(b, "constraint basis")
    if b.shape[0] != a.shape[0]:
        raise DomainError(
            f"basis has {b.shape[0]} rows but the matrix has {a.shape[0]}"
        )
    b = _shift(b, -eb)

    blocks = [(rows, cols, b[rows, cols]) for rows, cols in _row_blocks(b)]
    k = b.shape[1]
    btb = np.zeros((k, k))
    btv = np.zeros((k, a.shape[1]))
    for rows, cols, blk in blocks:
        btb[cols, cols] += blk.T @ blk
        btv[cols] += blk.T @ a[rows]

    def sweep(p, q):
        _mu_step(p, btv @ q.T, btb @ p @ q @ q.T)
        _mu_step(q, p.T @ btv, p.T @ btb @ p @ q)
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
    b[rows, cols]. A basis of at most _BLOCK_ROWS rows is a single block
    over every column, which keeps its products those of the whole
    matrix.
    """
    m, k = b.shape
    if m <= _BLOCK_ROWS:
        return [(slice(0, m), slice(0, k))]
    blocks = []
    for r0 in range(0, m, _BLOCK_ROWS):
        rows = slice(r0, min(r0 + _BLOCK_ROWS, m))
        nz = np.flatnonzero(b[rows].any(axis=0))
        blocks.append((rows, slice(int(nz[0]), int(nz[-1]) + 1) if nz.size else slice(0, 0)))
    return blocks


def grbf_basis(m, sigma, delta_t):
    """Build the M x K Gaussian radial bump bank.

    Entry (row, k) = exp(-(row - k*delta_t)^2 / (2 sigma^2)) with
    k = 0..K-1 and K = floor((m - 1)/delta_t) + 1, so the last center
    still falls inside the signal. sigma must be positive and finite
    with 2 sigma^2 finite and non-zero in float64.

    Only the rows within reach = ceil(sigma sqrt(2 * 746)) of a centre
    are evaluated; further out the entry underflows to exactly 0.0, so
    phi is bitwise the dense formula's.
    """
    m = int(m)
    delta_t = int(delta_t)
    if m < 2:
        raise DomainError(f"grbf_basis needs m >= 2, got {m}")
    if delta_t < 1:
        raise DomainError(f"grbf_basis needs delta_t >= 1, got {delta_t}")
    with np.errstate(over="ignore"):    # an overflow to inf is rejected below
        two_var = 2.0 * np.float64(sigma) ** 2
    if not (0 < sigma < np.inf and 0 < two_var < np.inf):
        raise DomainError(f"grbf_basis needs sigma > 0 with a finite, non-zero 2 sigma^2, got {sigma}")
    k = (m - 1) // delta_t + 1
    # beyond reach rows from its centre a bump is exactly 0.0, so one
    # profile over -reach..reach, placed at every centre, is the bank
    reach = int(min(m - 1, np.ceil(sigma * np.sqrt(2.0 * _EXP_ZERO_ARG))))
    d = np.arange(-reach, reach + 1)
    with np.errstate(over="ignore"):    # d^2 / 2 sigma^2 -> inf gives exp -> 0
        profile = np.exp(-(d * d) / two_var)
    phi = np.zeros((m, k))
    for j in range(k):
        c = j * delta_t
        lo, hi = max(c - reach, 0), min(c + reach + 1, m)
        phi[lo:hi, j] = profile[lo - c + reach:hi - c + reach]
    phi.flags.writeable = False
    return GrbfBasis(phi, float(sigma), delta_t, k)


def target_basis(y, m, floor=1e-3):
    """Turn a target signal into a single non-negative constraint column.

    The signal is min-max normalized onto [floor, 1]:
        basis = floor + (1 - floor) * (y - min y) / (max y - min y)
    A constant signal is rejected, it would make the constrained
    factorization degenerate.
    """
    if isinstance(y, Waveform):
        y = y.samples
    y = np.asarray(y, dtype=np.float64).ravel()
    if y.size != int(m):
        raise DomainError(f"target length {y.size} does not match m = {m}")
    if not 0 < floor < 1:
        raise DomainError(f"floor must lie in (0, 1), got {floor}")
    lo, hi = y.min(), y.max()
    if hi == lo:
        raise DomainError("target signal is constant, cannot build a constraint")
    col = floor + (1.0 - floor) * (y - lo) / (hi - lo)
    col = col[:, None]
    col.flags.writeable = False
    return TargetConstraint(col, float(floor))
