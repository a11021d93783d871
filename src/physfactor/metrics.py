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
MACC averaged with their standard errors.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .tensors import Waveform

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
    kind: str = "hr"

    def __post_init__(self):
        if not 0 < self.lo_hz < self.hi_hz:
            raise DomainError(f"band must satisfy 0 < lo < hi, got [{self.lo_hz}, {self.hi_hz}]")
        if self.kind not in ("hr", "rr"):
            raise DomainError(f"band kind must be 'hr' or 'rr', got {self.kind!r}")


HR_BAND = RateBand(0.6, 3.3, "hr")     # 36..198 beats/min
RR_BAND = RateBand(0.1, 0.5, "rr")     # 6..30 breaths/min


def band_for(kind):
    if kind == "hr":
        return HR_BAND
    if kind == "rr":
        return RR_BAND
    raise DomainError(f"unknown band kind {kind!r}")


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


def concat_windows(segments, cap_s=WINDOW_S):
    """Concatenate same-rate segments, truncated to the lesser of cap_s
    seconds or the total length."""
    if not segments:
        raise DomainError("concat_windows needs at least one segment")
    fs = segments[0].fs
    for seg in segments:
        if seg.fs != fs:
            raise DomainError(f"mixed sampling rates: {seg.fs} vs {fs}")
    joined = np.concatenate([seg.samples for seg in segments])
    cap = int(round(cap_s * fs))
    return Waveform(joined[: min(cap, joined.size)], fs)


def _next_pow2(n):
    return 1 << (int(n) - 1).bit_length()


def _detrended(wave):
    x = wave.samples
    return x - x.mean()


def estimate_rate_fft(wave, band, pad_factor=PAD_FACTOR):
    """Rate in per-minute units from the dominant in-band FFT peak.

    The signal must last at least 10 s and the band must sit below the
    Nyquist frequency. pad_factor, the zero-padding multiple of the FFT
    length, must be an integer >= 1.
    """
    try:
        ok = operator.index(pad_factor) >= 1
    except TypeError:
        ok = False
    if not ok:
        raise DomainError(f"pad_factor must be an integer >= 1, got {pad_factor!r}")
    n = wave.samples.size
    if n / wave.fs < MIN_DURATION_S:
        raise DomainError(
            f"signal too short for rate estimation: {n / wave.fs:.2f} s < {MIN_DURATION_S} s"
        )
    if band.hi_hz > wave.fs / 2:
        raise DomainError(f"band [{band.lo_hz}, {band.hi_hz}] Hz extends past Nyquist {wave.fs / 2}")
    nfft = pad_factor * _next_pow2(n)
    spec = np.abs(np.fft.rfft(_detrended(wave), n=nfft))
    freqs = np.fft.rfftfreq(nfft, 1.0 / wave.fs)
    mask = (freqs >= band.lo_hz) & (freqs <= band.hi_hz)
    if not mask.any():
        raise DomainError("no FFT bins inside the band")
    idx = np.flatnonzero(mask)
    peak = idx[np.argmax(spec[idx])]
    return 60.0 * freqs[peak]


def snr(pred, ref_rate, band):
    """Harmonic-window SNR in dB against a reference rate (per minute).

    Power within +-0.1 Hz of the fundamental and +-0.2 Hz of its second
    harmonic counts as signal; the rest of the in-band power is noise.
    Clipped to [-20, 40] dB, unpadded spectrum (see module docstring).
    """
    f0 = ref_rate / 60.0
    if not band.lo_hz <= f0 <= band.hi_hz:
        raise DomainError(
            f"reference rate {ref_rate}/min lies outside the band "
            f"[{band.lo_hz * 60:.0f}, {band.hi_hz * 60:.0f}]/min"
        )
    x = _detrended(pred)
    power = np.abs(np.fft.rfft(x)) ** 2
    freqs = np.fft.rfftfreq(x.size, 1.0 / pred.fs)
    sig = (np.abs(freqs - f0) <= SNR_FUND_HZ) | (np.abs(freqs - 2 * f0) <= SNR_HARM_HZ)
    inband = (freqs >= band.lo_hz) & (freqs <= band.hi_hz)
    p_sig = float(power[sig].sum())
    p_noise = float(power[inband & ~sig].sum())
    lo, hi = SNR_CLIP_DB
    if p_sig == 0.0:
        return lo
    if p_noise == 0.0:
        return hi
    return float(np.clip(10.0 * np.log10(p_sig / p_noise), lo, hi))


def _pearson(a, b):
    ac = a - a.mean()
    bc = b - b.mean()
    denom = np.sqrt(float(ac @ ac) * float(bc @ bc))
    if denom == 0.0:
        return 0.0
    return float(ac @ bc) / denom


def _overlap(x, y, lag):
    """The two samples the lag aligns: x shifted by lag against y."""
    n = x.size
    if lag >= 0:
        return x[lag:], y[: n - lag]
    return x[: n + lag], y[-lag:]


def _lagged_abs_pearson(x, y, lags):
    """|r| at every lag from one cross-correlation and prefix sums, plus
    a bound on how far each value may sit from _pearson's for that lag.

    Both signals are centred on their whole-window means first, so the
    prefix sums carry no DC term to cancel. Where an overlap's variance
    is lost in rounding the bound is infinite and |r| is reported as 0.
    """
    n = x.size
    xc = x - x.mean()
    yc = y - y.mean()
    cross = np.correlate(xc, yc, "full")[lags + (n - 1)]

    def window_sums(v, lo, hi):
        pre = np.concatenate(([0.0], np.cumsum(v)))
        pre2 = np.concatenate(([0.0], np.cumsum(v * v)))
        return pre[hi] - pre[lo], pre2[hi] - pre2[lo]

    m = n - np.abs(lags)
    sa, saa = window_sums(xc, np.maximum(lags, 0), np.minimum(n + lags, n))
    sb, sbb = window_sums(yc, np.maximum(-lags, 0), np.minimum(n - lags, n))
    cov = cross - sa * sb / m
    var_a = saa - sa * sa / m
    var_b = sbb - sb * sb / m

    # The sums above are accurate to about tol times the whole window's
    # sum of squares. _pearson centres each overlap on a mean that is
    # itself off by up to about n * eps * max|sample|, which shifts its
    # r by a second-order term. Divided by an overlap's own variance,
    # each floor bounds that signal's share of the error on r.
    eps = np.finfo(np.float64).eps
    tol = 16.0 * eps * n ** 1.5

    def floor(v, raw):
        shift = 2.0 * n * eps * float(np.max(np.abs(raw)))
        return tol * float(v @ v) + n * shift * shift

    floor_a = floor(xc, x)
    floor_b = floor(yc, y)
    sure = (var_a > floor_a) & (var_b > floor_b)
    safe_a = np.where(sure, var_a, 1.0)
    safe_b = np.where(sure, var_b, 1.0)
    r = np.where(sure, np.abs(cov) / np.sqrt(safe_a * safe_b), 0.0)
    slack = np.where(sure, floor_a / safe_a + floor_b / safe_b, np.inf)
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
    if not max_lag_s >= 0:
        raise DomainError(f"max_lag_s must be >= 0, got {max_lag_s}")
    max_lag = int(round(min(max_lag_s * pred.fs, x.size - 3)))
    if max_lag < 0 or np.ptp(x) == 0 or np.ptp(y) == 0:
        # no overlap of 3 samples, or a constant signal: r = 0 at every lag
        return 0.0
    lags = np.arange(-max_lag, max_lag + 1)
    r, slack = _lagged_abs_pearson(x, y, lags)
    # a NaN cutoff keeps every lag, which falls back to the full loop
    cutoff = np.max(r - slack)
    contenders = lags[~(r + slack < cutoff)]
    best = 0.0
    for lag in contenders:
        best = max(best, abs(_pearson(*_overlap(x, y, int(lag)))))
    # |r| <= 1 mathematically; trim the roundoff excess so identical
    # signals report exactly 1.0
    return min(best, 1.0)


def _avg_se(terms):
    terms = np.asarray(terms, dtype=np.float64)
    n = terms.size
    se = float(terms.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return float(terms.mean()), se


def error_metrics(preds, gts, corr="strict"):
    """MAE/RMSE/MAPE/Corr over paired per-window rates.

    Each metric's standard error is the sample standard deviation of its
    per-item terms over sqrt(n); Corr's uses the Fisher-z delta method,
    (1 - r^2)/sqrt(n - 3), infinite at n = 3.

    Args:
        preds, gts: equal-length non-empty rate lists.
        corr: "strict" raises when Corr is undefined (n < 3 or a
            constant series); "skip" leaves it out of the report;
            "auto" behaves like strict except when the two series are
            element-wise identical (a perfect but degenerate
            prediction, e.g. the same file evaluated against itself),
            which skips Corr instead of failing.

    Returns:
        MetricsReport with the four error metrics filled in.
    """
    p = np.asarray(preds, dtype=np.float64).ravel()
    g = np.asarray(gts, dtype=np.float64).ravel()
    if p.size == 0:
        raise DomainError("error_metrics needs at least one pair")
    if p.size != g.size:
        raise DomainError(f"length mismatch: {p.size} vs {g.size}")
    if np.any(g == 0):
        raise DomainError("zero ground-truth rate makes MAPE undefined")
    d = p - g
    n = p.size

    mae_avg, mae_se = _avg_se(np.abs(d))
    sq_avg, sq_se = _avg_se(d * d)
    mape_avg, mape_se = _avg_se(100.0 * np.abs(d / g))

    corr_value = None
    if corr not in ("strict", "skip", "auto"):
        raise DomainError(f"corr must be 'strict', 'skip' or 'auto', got {corr!r}")
    defined = n >= 3 and p.std() > 0 and g.std() > 0
    if not defined and corr != "skip":
        degenerate_perfect = np.array_equal(p, g)
        if not (corr == "auto" and degenerate_perfect):
            raise DomainError(
                "Corr undefined: needs at least 3 pairs and non-constant series"
            )
    if defined:
        r = _pearson(p, g)
        r_se = (1.0 - r * r) / np.sqrt(n - 3) if n > 3 else float("inf")
        corr_value = MetricValue(r, float(r_se))

    return MetricsReport(
        n=n,
        mae=MetricValue(mae_avg, mae_se),
        rmse=MetricValue(float(np.sqrt(sq_avg)), sq_se),
        mape=MetricValue(mape_avg, mape_se),
        corr=corr_value,
    )


def split_windows(wave, window_s=WINDOW_S, min_s=MIN_DURATION_S):
    """Non-overlapping windows of window_s seconds; a trailing remainder
    is kept when it is long enough for rate estimation."""
    if not 1 <= window_s * wave.fs < np.inf:
        raise DomainError(f"window_s must span at least one sample, got {window_s}")
    size = int(round(window_s * wave.fs))
    out = []
    for start in range(0, wave.samples.size, size):
        chunk = wave.samples[start : start + size]
        if chunk.size / wave.fs >= min_s:
            out.append(Waveform(chunk, wave.fs))
    if not out:
        raise DomainError(
            f"signal too short for rate estimation: no window reaches {min_s} s"
        )
    return out


def evaluate_windows(pred, gt, kind="hr", window_s=WINDOW_S, pad_factor=PAD_FACTOR,
                     max_lag_s=None, corr="auto", band=None):
    """Full windowed evaluation of a prediction against ground truth.

    Both signals are truncated to their common length and cut into
    non-overlapping windows. Per window: FFT rates for both signals, SNR
    of the prediction against the ground-truth rate, MACC between the
    raw traces. Rates feed error_metrics; SNR and MACC are averaged with
    their standard errors. band defaults to band_for(kind).
    """
    if pred.fs != gt.fs:
        raise DomainError(f"sampling rate mismatch: {pred.fs} vs {gt.fs}")
    band = band_for(kind) if band is None else band
    n = min(pred.samples.size, gt.samples.size)
    pw = split_windows(Waveform(pred.samples[:n], pred.fs), window_s)
    gw = split_windows(Waveform(gt.samples[:n], gt.fs), window_s)

    rates_p, rates_g, snrs, maccs = [], [], [], []
    for wp, wg in zip(pw, gw):
        rp = estimate_rate_fft(wp, band, pad_factor)
        rg = estimate_rate_fft(wg, band, pad_factor)
        rates_p.append(rp)
        rates_g.append(rg)
        snrs.append(snr(wp, rg, band))
        maccs.append(macc(wp, wg, max_lag_s))

    report = error_metrics(rates_p, rates_g, corr=corr)
    snr_avg, snr_se = _avg_se(snrs)
    macc_avg, macc_se = _avg_se(maccs)
    return MetricsReport(
        n=report.n,
        mae=report.mae,
        rmse=report.rmse,
        mape=report.mape,
        corr=report.corr,
        snr=MetricValue(snr_avg, snr_se),
        macc=MetricValue(macc_avg, macc_se),
    )
