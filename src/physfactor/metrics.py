"""Rate estimation and the evaluation metric suite.

Rates come from the FFT peak inside a physiological band. Signals are
mean-detrended, zero-padded to 8 times the next power of two (so the
peak can be localized well below the raw bin width of a 30 s window)
and scanned for the largest in-band magnitude.

SNR deliberately skips the padding: the spectrum is taken at the native
length, signal power is integrated over a window of +-0.1 Hz around the
reference fundamental plus +-0.2 Hz around its second harmonic, noise
power is the remaining in-band energy, and the ratio is clipped into
[-20, 40] dB. Padding would smear a pure tone's energy across the band
and hide the fact that its noise power is essentially zero.

Every Pearson r here is scale-free (see tensors.unit_scaled), and its
sums are numpy's pairwise sums, not BLAS dot products, whose order
depends on the BLAS kernel the CPU selects.

MACC, the maximum absolute Pearson correlation over integer lags, scores
every lag in one pass. Both signals are centred on their window means;
one np.correlate gives each lag's cross sum and prefix sums of the
samples and their squares give each overlap's mean and variance. Each
lag whose score comes within its rounding bound of the best is then
scored again with the direct two-pass Pearson, so the result equals that
of a loop over all lags bit for bit. A constant signal scores 0.0, where
the loop returned its centring's rounding residue. tests/test_metrics.py
keeps that loop as the oracle and compares the two over generated
signals.

Aggregate evaluation follows a windowing protocol: non-overlapping 30 s
windows, per-window rates feeding MAE/RMSE/MAPE/Corr, per-window SNR and
MACC averaged with their standard errors. Each window is one
estimate_rate_fft call per signal, one snr and one macc call, made
through the module's names, so a caller that rebinds them (a probe or a
timer) sees every window.
"""

from dataclasses import dataclass, replace
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .errors import DomainError, check_finite, check_int, check_real
from .tensors import Waveform, shifted, unit_scaled

MIN_DURATION_S = 10.0     # shortest signal the rate estimator accepts
WINDOW_S = 30.0
PAD_FACTOR = 8
SNR_FUND_HZ = 0.1         # half-width of the fundamental window
SNR_HARM_HZ = 0.2         # half-width of the second-harmonic window
SNR_CLIP_DB = (-20.0, 40.0)


@dataclass(frozen=True)
class RateBand:
    lo_hz: float
    hi_hz: float

    def __post_init__(self):
        check_real(self.hi_hz, "band hi_hz", gt=check_real(self.lo_hz, "band lo_hz", gt=0))


HR_BAND = RateBand(0.6, 3.3)     # 36..198 beats/min
RR_BAND = RateBand(0.1, 0.5)     # 6..30 breaths/min
BANDS = MappingProxyType({"hr": HR_BAND, "rr": RR_BAND})


def band_for(kind):
    try:
        return BANDS[kind]
    except (KeyError, TypeError):
        raise DomainError(f"unknown band kind {kind!r}") from None


@dataclass(frozen=True)
class MetricValue:
    avg: float
    se: float


@dataclass(frozen=True)
class MetricsReport:
    """Avg/SE pairs for the metric suite; entries are None when not
    computed. n is the number of evaluation units (windows)."""

    n: int
    mae: MetricValue | None = None
    rmse: MetricValue | None = None
    mape: MetricValue | None = None
    corr: MetricValue | None = None
    snr: MetricValue | None = None
    macc: MetricValue | None = None

    def as_dict(self):
        out = {"n": self.n}
        for name in ("mae", "rmse", "mape", "corr", "snr", "macc"):
            mv = getattr(self, name)
            if mv is not None:
                out[name] = {"avg": mv.avg, "se": mv.se}
        return out


def _next_pow2(n):
    return 1 << (int(n) - 1).bit_length()


def _mean(x):
    """x.mean(axis=-1, keepdims=True) bit for bit (the same pairwise sum
    over the same count), without np.mean's Python-level wrapper, which
    costs more than the sum itself on a 30 s window."""
    return x.sum(axis=-1, keepdims=True) / x.shape[-1]


def _detrended(wave):
    x = wave.samples
    return x - _mean(x)


def estimate_rate_fft(wave, band, pad_factor=PAD_FACTOR):
    """Rate in per-minute units from the dominant in-band FFT peak.

    The signal must last at least 10 s and the band must sit below the
    Nyquist frequency. pad_factor, the zero-padding multiple of the FFT
    length, must be an integer >= 1.
    """
    pad_factor = check_int(pad_factor, "pad_factor", 1)
    n = wave.samples.size
    if n / wave.fs < MIN_DURATION_S:
        raise DomainError(
            f"signal too short for rate estimation: {n / wave.fs:.2f} s < {MIN_DURATION_S} s"
        )
    if band.hi_hz > wave.fs / 2:
        raise DomainError(f"band [{band.lo_hz}, {band.hi_hz}] Hz extends past Nyquist {wave.fs / 2}")
    nfft = pad_factor * _next_pow2(n)
    freqs, lo, hi = _spectrum_grid(nfft, wave.fs, band)
    if lo == hi:
        raise DomainError("no FFT bins inside the band")
    peak = lo + int(np.argmax(np.abs(np.fft.rfft(_detrended(wave), n=nfft)[lo:hi])))
    return 60.0 * float(freqs[peak])


@lru_cache(maxsize=64)
def _spectrum_grid(nfft, fs, band):
    """(freqs, lo, hi): the read-only grid rfftfreq(nfft, 1 / fs) and the
    range lo:hi of its bins inside band, edges included (the frequencies
    ascend). Cached: a window length, sampling rate and band recur from
    window to window."""
    freqs = np.fft.rfftfreq(nfft, 1.0 / fs)
    freqs.flags.writeable = False
    return freqs, int(np.searchsorted(freqs, band.lo_hz, "left")), int(np.searchsorted(freqs, band.hi_hz, "right"))


def snr(pred, ref_rate, band):
    """Harmonic-window SNR in dB against a reference rate (per minute).

    Power within +-0.1 Hz of the fundamental and +-0.2 Hz of its second
    harmonic counts as signal; the rest of the in-band power is noise.
    Clipped to [-20, 40] dB, unpadded spectrum (see module docstring).
    """
    check_real(ref_rate, "ref_rate (per minute)")
    f0 = ref_rate / 60.0
    if not band.lo_hz <= f0 <= band.hi_hz:
        raise DomainError(
            f"reference rate {ref_rate}/min lies outside the band "
            f"[{band.lo_hz * 60:.0f}, {band.hi_hz * 60:.0f}]/min"
        )
    x = _detrended(pred)
    power = np.abs(np.fft.rfft(x)) ** 2
    freqs, lo, hi = _spectrum_grid(x.size, pred.fs, band)
    sig = (np.abs(freqs - f0) <= SNR_FUND_HZ) | (np.abs(freqs - 2 * f0) <= SNR_HARM_HZ)
    p_sig = float(power[sig].sum())
    p_noise = float(power[lo:hi][~sig[lo:hi]].sum())
    db_lo, db_hi = SNR_CLIP_DB
    if p_sig == 0.0:
        return db_lo
    if p_noise == 0.0:
        return db_hi
    return float(np.clip(10.0 * np.log10(p_sig / p_noise), db_lo, db_hi))


def _pearson(a, b):
    a, _ = unit_scaled(a)
    b, _ = unit_scaled(b)
    ac = a - _mean(a)
    bc = b - _mean(b)
    denom = np.sqrt(float(np.add.reduce(ac * ac)) * float(np.add.reduce(bc * bc)))
    if denom == 0.0:
        return 0.0
    return float(np.add.reduce(ac * bc)) / denom


def _overlap(x, y, lag):
    """The two samples the lag aligns: x shifted by lag against y."""
    n = x.size
    if lag >= 0:
        return x[lag:], y[: n - lag]
    return x[: n + lag], y[-lag:]


def _lagged_abs_pearson(v, max_lag):
    """|r| at every lag in -max_lag..max_lag between the rows x = v[0]
    and y = v[1] of a (2, n) array, each row's largest magnitude in
    [1, 2) (see unit_scaled), from one cross-correlation and prefix
    sums, plus a bound on how far each value may sit from _pearson's
    for that lag.

    Both rows are centred on their whole-window means first, so the
    prefix sums carry no DC term to cancel. Where an overlap's variance
    is lost in rounding the bound is infinite.
    """
    n = v.shape[1]
    w = np.empty((4, n))    # centred x and y, then their squares
    np.subtract(v, _mean(v), out=w[:2])
    np.multiply(w[:2], w[:2], out=w[2:])
    # np.correlate's "same" mode takes lags -(n // 2)..(n - 1) // 2 only,
    # with the dot products "full" takes for them; at max_lag = n / 2,
    # the default, that is about 3/4 of "full"'s work
    if max_lag <= n // 2:
        cross = np.correlate(w[0], w[1], "same")[n // 2 - max_lag : n // 2 + max_lag + 1]
        if cross.size == 2 * max_lag:    # even n: lag n / 2 is one more dot
            cross = np.append(cross, w[0, max_lag:] @ w[1, : n - max_lag])
    else:
        cross = np.correlate(w[0], w[1], "full")[n - 1 - max_lag : n + max_lag]

    # Sums over each lag's overlap: x's runs from max(lag, 0) to
    # min(n + lag, n), and y's is x's range at -lag, so y's sums are
    # those of the same formula in reverse lag order (m = n - |lag| is
    # symmetric, so y's rows are reversed after use).
    pre = np.zeros((4, n + 1))
    np.cumsum(w, axis=1, out=pre[:, 1:])
    s = np.empty((4, 2 * max_lag + 1))
    s[:, :max_lag] = pre[:, n - max_lag : n]
    np.subtract(pre[:, n:], pre[:, : max_lag + 1], out=s[:, max_lag:])
    m = n - np.abs(np.arange(-max_lag, max_lag + 1.0))
    var = s[2:] - s[:2] * s[:2] / m
    cov = cross - s[0] * s[1, ::-1] / m

    # The sums above are accurate to about tol times the whole window's
    # sum of squares. _pearson centres each overlap on a mean that is
    # itself off by up to about n * eps * max|sample|, which shifts its
    # r by a second-order term; max|sample| < 2 for both rows. Divided
    # by an overlap's own variance, each floor bounds that signal's
    # share of the error on r.
    eps = np.finfo(np.float64).eps
    tol = 16.0 * eps * n ** 1.5
    floors = np.array([[tol * float(row @ row) + n * (4.0 * n * eps) ** 2] for row in w[:2]])
    ok = var > floors
    sure = ok[0] & ok[1, ::-1]
    safe = np.where(ok, var, 1.0)
    r = np.abs(cov) / np.sqrt(safe[0] * safe[1, ::-1])
    share = floors / safe
    slack = share[0] + share[1, ::-1]
    slack[~sure] = np.inf
    return r, slack


def macc(pred, gt, max_lag_s=None):
    """Maximum absolute Pearson correlation over integer lags.

    max_lag_s defaults to half the signal duration; a window wider than
    the signal is clamped to it. Overlaps shorter than 3 samples are
    skipped, and with none left, or a constant signal, the result is 0.0.

    Every lag is scored at once (see _lagged_abs_pearson). Each lag
    whose score is within its rounding bound of the best is then scored
    again with _pearson, and the largest of those is returned. The
    winning lag is always among them, so for non-constant signals the
    result is the one a loop of _pearson over all lags gives, bit for bit.
    """
    if pred.fs != gt.fs:
        raise DomainError(f"sampling rate mismatch: {pred.fs} vs {gt.fs}")
    x = pred.samples
    y = gt.samples
    if x.size != y.size:
        raise DomainError(f"length mismatch: {x.size} vs {y.size}")
    if max_lag_s is None:
        max_lag_s = x.size / (2.0 * pred.fs)
    else:
        check_real(max_lag_s, "max_lag_s", ge=0)
    max_lag = int(round(min(max_lag_s * pred.fs, x.size - 3)))
    v = np.array((x, y))
    top, bottom = v.max(axis=1, keepdims=True), v.min(axis=1, keepdims=True)
    if max_lag < 0 or (top == bottom).any():
        # no overlap of 3 samples, or a constant signal: r = 0 at every lag
        return 0.0
    # each row divided by the power of two at or below its own peak
    v, _ = unit_scaled(v, np.maximum(top, -bottom))
    r, slack = _lagged_abs_pearson(v, max_lag)
    # a NaN cutoff keeps every lag, which falls back to the full loop
    contenders = np.flatnonzero(~(r + slack < np.max(r - slack))) - max_lag
    best = 0.0
    for lag in contenders:
        best = max(best, abs(_pearson(*_overlap(x, y, int(lag)))))
    # |r| <= 1 mathematically; trim the roundoff excess so identical
    # signals report exactly 1.0
    return min(best, 1.0)


def _avg_se(terms):
    terms = np.asarray(terms)
    n = terms.size
    se = float(terms.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return float(terms.mean()), se


def error_metrics(preds, gts):
    """MAE/RMSE/MAPE/Corr over paired per-window rates.

    Each metric's standard error is the sample standard deviation of its
    per-item terms over sqrt(n); Corr's uses the Fisher-z delta method,
    (1 - r^2)/sqrt(n - 3), infinite at n = 3.

    MAE, RMSE and their standard errors are computed on the differences
    divided by the power of two at or below their peak (see unit_scaled)
    and multiplied back, so they neither over- nor underflow on the way
    at any scale. A difference or a value beyond float64's range raises
    DomainError rather than reading inf or NaN.

    Corr is undefined for n < 3 or a constant series, and is then left
    out.

    Args:
        preds, gts: equal-length non-empty lists of finite rates.

    Returns:
        MetricsReport with the four error metrics filled in.
    """
    p = check_finite(preds, "error_metrics preds").ravel()
    g = check_finite(gts, "error_metrics gts", size=p.size)
    if p.size == 0:
        raise DomainError("error_metrics needs at least one pair")
    if np.any(g == 0):
        raise DomainError("zero ground-truth rate makes MAPE undefined")
    n = p.size

    with np.errstate(over="ignore", invalid="ignore"):    # an inf or NaN is refused below
        d = check_finite(p - g, "error_metrics preds - gts")
        s, e = unit_scaled(d)
        mae, sq = _avg_se(np.abs(s)), _avg_se(s * s)
        # MAE, RMSE (each with its SE) and MAPE, at the scale of d again
        values = shifted(np.array([*mae, np.sqrt(sq[0]), sq[1], *_avg_se(100.0 * np.abs(d / g))]),
                         np.array([e, e, e, 2 * e, 0, 0]))
    v = [check_real(x, f"error_metrics {name}")
         for x, name in zip(values, ("MAE", "MAE se", "RMSE", "RMSE se", "MAPE", "MAPE se"))]

    corr_value = None
    if n >= 3 and p.min() < p.max() and g.min() < g.max():
        r = _pearson(p, g)
        r_se = (1.0 - r * r) / np.sqrt(n - 3) if n > 3 else float("inf")
        corr_value = MetricValue(r, float(r_se))

    return MetricsReport(
        n=n,
        mae=MetricValue(*v[0:2]),
        rmse=MetricValue(*v[2:4]),
        mape=MetricValue(*v[4:6]),
        corr=corr_value,
    )


def split_windows(wave, window_s=WINDOW_S):
    """Non-overlapping windows of window_s seconds; a window, the
    trailing remainder too, is kept when it lasts at least
    MIN_DURATION_S, long enough for rate estimation."""
    check_real(window_s, "window_s")
    size = int(round(check_real(window_s * wave.fs, "window_s * fs (samples per window)", ge=1)))
    out = []
    for start in range(0, wave.samples.size, size):
        chunk = wave.samples[start : start + size]
        if chunk.size / wave.fs >= MIN_DURATION_S:
            out.append(Waveform(chunk, wave.fs))
    if not out:
        raise DomainError(
            f"signal too short for rate estimation: no window reaches {MIN_DURATION_S} s"
        )
    return out


def evaluate_windows(pred, gt, kind="hr", window_s=WINDOW_S, pad_factor=PAD_FACTOR,
                     max_lag_s=None, band=None):
    """Full windowed evaluation of a prediction against ground truth.

    Both signals are truncated to their common length and cut into
    non-overlapping windows. Per window: FFT rates for both signals, SNR
    of the prediction against the ground-truth rate, MACC between the
    raw traces. Rates feed error_metrics; SNR and MACC are
    averaged with their standard errors. band defaults to band_for(kind).
    Each signal is divided by the power of two at or below its peak
    first (see unit_scaled): rates, SNR and MACC are scale-free, so the
    report is the same at any scale, where the squares in the spectra
    would otherwise over- or underflow.
    """
    if pred.fs != gt.fs:
        raise DomainError(f"sampling rate mismatch: {pred.fs} vs {gt.fs}")
    band = band_for(kind) if band is None else band
    n = min(pred.samples.size, gt.samples.size)
    pw = split_windows(Waveform(unit_scaled(pred.samples[:n])[0], pred.fs), window_s)
    gw = split_windows(Waveform(unit_scaled(gt.samples[:n])[0], gt.fs), window_s)

    rates_p, rates_g, snrs, maccs = [], [], [], []
    for wp, wg in zip(pw, gw):
        rp = estimate_rate_fft(wp, band, pad_factor)
        rg = estimate_rate_fft(wg, band, pad_factor)
        rates_p.append(rp)
        rates_g.append(rg)
        snrs.append(snr(wp, rg, band))
        maccs.append(macc(wp, wg, max_lag_s))

    return replace(error_metrics(rates_p, rates_g),
                   snr=MetricValue(*_avg_se(snrs)), macc=MetricValue(*_avg_se(maccs)))
