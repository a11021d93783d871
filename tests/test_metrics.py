import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from physfactor.errors import DomainError
from physfactor.metrics import (
    BANDS,
    HR_BAND,
    RR_BAND,
    MetricsReport,
    MetricValue,
    RateBand,
    _avg_se,
    _pearson,
    _spectrum_grid,
    band_for,
    error_metrics,
    estimate_rate_fft,
    evaluate_windows,
    macc,
    snr,
    split_windows,
)
from physfactor.synth import gen_pulse, gen_resp
from physfactor.tensors import Waveform


def test_rate_band_validation():
    assert band_for("hr") is HR_BAND
    assert band_for("rr") is RR_BAND
    assert dict(BANDS) == {"hr": HR_BAND, "rr": RR_BAND}
    with pytest.raises(TypeError):
        BANDS["hr"] = RR_BAND
    with pytest.raises(DomainError):
        RateBand(0.5, 0.2)
    with pytest.raises(DomainError):
        band_for("xx")


@pytest.mark.parametrize("nfft, fs, band", [(8192, 25.0, HR_BAND), (750, 25.0, HR_BAND), (150, 5.0, RR_BAND),
                                            (375, 12.5, RateBand(0.7, 3.0))])
def test_spectrum_grid_is_rfftfreq_and_its_band_mask(nfft, fs, band):
    # the rate and snr share one cached grid, so no caller may write it
    freqs, lo, hi = _spectrum_grid(nfft, fs, band)
    assert _spectrum_grid(nfft, fs, band)[0] is freqs and not freqs.flags.writeable
    assert np.array_equal(freqs, np.fft.rfftfreq(nfft, 1.0 / fs))
    inband = np.flatnonzero((freqs >= band.lo_hz) & (freqs <= band.hi_hz))
    assert (lo, hi) == (inband[0], inband[-1] + 1)


def test_rate_estimation_pure_tones():
    t = np.arange(750) / 25.0
    hr = Waveform(np.sin(2 * np.pi * 1.0 * t), 25.0)
    assert abs(estimate_rate_fft(hr, HR_BAND) - 60.0) <= 0.5

    t = np.arange(1500) / 25.0
    rr = Waveform(np.sin(2 * np.pi * 0.25 * t), 25.0)
    assert abs(estimate_rate_fft(rr, RR_BAND) - 15.0) <= 0.25


def test_rate_estimation_ignores_out_of_band_peak():
    t = np.arange(750) / 25.0
    x = np.sin(2 * np.pi * 1.0 * t) + 2.0 * np.sin(2 * np.pi * 4.0 * t)
    wave = Waveform(x, 25.0)
    # brute-force scan over the same padded grid, restricted to the band
    nfft = 8 * 1024
    freqs = np.fft.rfftfreq(nfft, 1 / 25.0)
    grid = freqs[(freqs >= HR_BAND.lo_hz) & (freqs <= HR_BAND.hi_hz)]
    xd = x - x.mean()
    mags = np.abs(np.exp(-2j * np.pi * np.outer(grid, t[: len(xd)])) @ xd)
    assert abs(grid[np.argmax(mags)] - 1.0) < 0.01
    assert abs(estimate_rate_fft(wave, HR_BAND) - 60.0) <= 0.5


def test_rate_estimation_sweep_within_padded_bin():
    fs = 25.0
    n = 750
    nfft = 8 * 1024
    bin_hz = fs / nfft
    t = np.arange(n) / fs
    for f in np.linspace(0.75, 3.1, 10):
        wave = Waveform(np.sin(2 * np.pi * f * t), fs)
        est_hz = estimate_rate_fft(wave, HR_BAND) / 60.0
        assert abs(est_hz - f) <= bin_hz + 1e-12


def test_rate_estimation_preconditions():
    short = Waveform(np.sin(np.arange(100) * 0.3), 25.0)  # 4 s
    with pytest.raises(DomainError):
        estimate_rate_fft(short, HR_BAND)
    wave = Waveform(np.sin(np.arange(400) * 0.3), 4.0)    # Nyquist 2 Hz < 3.3
    with pytest.raises(DomainError):
        estimate_rate_fft(wave, HR_BAND)


@pytest.mark.parametrize("pad_factor", [0, -2, 1.5, 2.0, None])
def test_rate_estimation_rejects_bad_pad_factor(pad_factor):
    # 0 made np.fft.rfft fail, 1.5 reached it as a float FFT length
    wave = gen_pulse(25.0, 72.0, 20.0)
    with pytest.raises(DomainError, match="pad_factor"):
        estimate_rate_fft(wave, HR_BAND, pad_factor)


def test_snr_pure_tone_hits_ceiling():
    wave = gen_pulse(25.0, 72.0, 30.0)  # 1.2 Hz, an exact bin of a 30 s window
    assert snr(wave, 72.0, HR_BAND) == 40.0


def test_snr_noise_is_negative():
    rng = np.random.default_rng(31)
    for _ in range(5):
        wave = Waveform(rng.normal(size=750), 25.0)
        assert snr(wave, 72.0, HR_BAND) < 0.0


def test_snr_ref_rate_outside_band():
    wave = gen_pulse(25.0, 72.0, 30.0)
    with pytest.raises(DomainError):
        snr(wave, 200.0, HR_BAND)  # band ceiling is 198 per minute


def test_snr_matches_direct_integration_oracle():
    rng = np.random.default_rng(40)
    t = np.arange(750) / 25.0
    for trial in range(5):
        f0 = float(rng.uniform(0.8, 2.0))
        f1 = float(rng.uniform(2.2, 3.1))
        x = np.sin(2 * np.pi * f0 * t) + 0.5 * np.sin(2 * np.pi * f1 * t)
        wave = Waveform(x, 25.0)
        got = snr(wave, f0 * 60.0, HR_BAND)

        # independent integration with explicit per-bin bookkeeping
        xd = x - x.mean()
        power = np.abs(np.fft.rfft(xd)) ** 2
        freqs = np.fft.rfftfreq(750, 1 / 25.0)
        p_sig = p_noise = 0.0
        for p, f in zip(power, freqs):
            in_sig = abs(f - f0) <= 0.1 or abs(f - 2 * f0) <= 0.2
            if in_sig:
                p_sig += p
            elif HR_BAND.lo_hz <= f <= HR_BAND.hi_hz:
                p_noise += p
        want = float(np.clip(10 * np.log10(p_sig / p_noise), -20, 40))
        assert abs(got - want) <= 1e-6


def test_macc_identity_and_shift():
    wave = gen_pulse(25.0, 72.0, 30.0)
    assert macc(wave, wave) == pytest.approx(1.0, abs=1e-12)

    long = gen_pulse(25.0, 72.0, 40.0).samples
    gt = Waveform(long[:750], 25.0)
    pred = Waveform(long[10:760], 25.0)   # 0.4 s ahead
    assert macc(pred, gt, max_lag_s=1.0) == pytest.approx(1.0, abs=1e-6)


def test_macc_symmetry_and_scaling():
    rng = np.random.default_rng(50)
    a = Waveform(rng.normal(size=200), 25.0)
    b = Waveform(rng.normal(size=200), 25.0)
    v = macc(a, b, 2.0)
    assert macc(b, a, 2.0) == pytest.approx(v, abs=1e-12)
    scaled = Waveform(5.0 * a.samples - 3.0, 25.0)
    assert macc(scaled, b, 2.0) == pytest.approx(v, abs=1e-10)


def test_macc_noise_stays_low():
    rng = np.random.default_rng(60)
    for _ in range(10):
        a = Waveform(rng.normal(size=750), 25.0)
        b = Waveform(rng.normal(size=750), 25.0)
        assert macc(a, b) < 0.25


def test_macc_preconditions():
    a = Waveform(np.zeros(100), 25.0)
    with pytest.raises(DomainError):
        macc(a, Waveform(np.zeros(100), 30.0))
    with pytest.raises(DomainError):
        macc(a, Waveform(np.zeros(90), 25.0))
    with pytest.raises(DomainError):
        macc(a, a, max_lag_s=-1.0)
    with pytest.raises(DomainError):
        macc(a, a, max_lag_s=float("nan"))


def test_macc_rejects_non_finite_input():
    # a single NaN used to score 1.0; the Waveform now refuses it
    x = gen_pulse(25.0, 72.0, 30.0).samples.copy()
    x[100] = np.nan
    with pytest.raises(DomainError, match="finite"):
        macc(Waveform(x, 25.0), gen_pulse(25.0, 72.0, 30.0))


def test_rate_rejects_non_finite_input():
    # a single NaN used to give 36.07 per minute, the HR band floor
    x = gen_pulse(25.0, 72.0, 30.0).samples.copy()
    x[100] = np.inf
    with pytest.raises(DomainError, match="finite"):
        estimate_rate_fft(Waveform(x, 25.0), HR_BAND)


# ------------------------------------------------ macc against its loop oracle

FS = 25.0


def _macc_loop(pred, gt, max_lag_s=None):
    """MACC as one _pearson per lag: the oracle for macc, which scores
    every lag at once."""
    x = pred.samples
    y = gt.samples
    if max_lag_s is None:
        max_lag_s = x.size / (2.0 * pred.fs)
    max_lag = int(round(max_lag_s * pred.fs))
    n = x.size
    best = 0.0
    for lag in range(-max_lag, max_lag + 1):
        if n - abs(lag) < 3:
            continue
        if lag >= 0:
            a, b = x[lag:], y[: n - lag]
        else:
            a, b = x[: n + lag], y[-lag:]
        best = max(best, abs(_pearson(a, b)))
    return min(best, 1.0)


def _shape(kind, n, rng):
    t = np.arange(n)
    if kind == "noise":
        return rng.normal(size=n)
    if kind == "rounded":                       # few distinct values, many ties
        return np.round(2.0 * rng.normal(size=n))
    if kind == "tone":
        f = rng.uniform(HR_BAND.lo_hz, HR_BAND.hi_hz)
        return np.sin(2 * np.pi * f * t / FS) + 0.1 * rng.normal(size=n)
    if kind == "ramp":
        return t / n
    if kind == "steps":                         # constant runs of 7 samples
        return np.repeat(rng.normal(size=n // 7 + 1), 7)[:n]
    x = np.zeros(n)                             # a few spikes on a flat line
    x[rng.integers(0, n, size=3)] = rng.normal(size=3)
    return x


SHAPES = ("noise", "rounded", "tone", "ramp", "steps", "spikes")
scales = st.floats(1e-3, 1e6)
offsets = st.floats(-1e6, 1e6)


@st.composite
def signal_pairs(draw):
    """Two equal-length waveforms, independent, shifted copies or the same
    signal, each with its own scale and DC offset."""
    n = draw(st.integers(3, 800))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = _shape(draw(st.sampled_from(SHAPES)), n, rng)
    relation = draw(st.sampled_from(("independent", "shifted", "same")))
    if relation == "independent":
        y = _shape(draw(st.sampled_from(SHAPES)), n, rng)
    elif relation == "shifted":
        y = np.roll(x, int(rng.integers(0, n))) + 0.1 * rng.normal(size=n)
    else:
        y = x
    pred = Waveform(draw(scales) * x + draw(offsets), FS)
    gt = Waveform(draw(scales) * y + draw(offsets), FS)
    return pred, gt


@st.composite
def max_lags(draw, n):
    """None (the default half duration), 0, a window wider than the
    signal, or anything in between."""
    kind = draw(st.sampled_from(("default", "zero", "wide", "any")))
    if kind == "default":
        return None
    if kind == "zero":
        return 0.0
    if kind == "wide":
        return 2.0 * n / FS
    return draw(st.floats(0.0, n / FS))


def _assert_matches_oracle(pred, gt, max_lag_s):
    # A constant signal has no correlation (0/0) and macc gives 0.0, see
    # test_macc_constant_signal_is_zero. The loop returns whatever its
    # centring leaves over, about 2e-7 at a 1e6 offset, so those are
    # left out here.
    assume(np.ptp(pred.samples) > 0 and np.ptp(gt.samples) > 0)
    assert abs(macc(pred, gt, max_lag_s) - _macc_loop(pred, gt, max_lag_s)) <= 1e-12


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_macc_matches_loop_oracle(data):
    pred, gt = data.draw(signal_pairs())
    _assert_matches_oracle(pred, gt, data.draw(max_lags(pred.samples.size)))


raw_samples = st.one_of(st.integers(-2, 2).map(float), st.floats(-1e6, 1e6))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_macc_matches_loop_oracle_on_raw_samples(data):
    # short drawn vectors: exact ties, zeros, mixed magnitudes
    n = data.draw(st.integers(3, 40))
    x = data.draw(st.lists(raw_samples, min_size=n, max_size=n))
    y = data.draw(st.lists(raw_samples, min_size=n, max_size=n))
    _assert_matches_oracle(Waveform(x, FS), Waveform(y, FS), data.draw(max_lags(n)))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_macc_symmetric_and_bounded(data):
    a, b = data.draw(signal_pairs())
    max_lag_s = data.draw(max_lags(a.samples.size))
    v = macc(a, b, max_lag_s)
    assert 0.0 <= v <= 1.0
    assert macc(b, a, max_lag_s) == v


@settings(max_examples=40, deadline=None)
@given(pair=signal_pairs(), value=offsets)
def test_macc_constant_signal_is_zero(pair, value):
    other, _ = pair
    flat = Waveform(np.full(other.samples.size, value), FS)
    assert macc(flat, other) == 0.0
    assert macc(other, flat) == 0.0


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 800), seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3),
       offset=offsets, data=st.data())
def test_macc_identical_signals_exactly_one(n, seed, scale, offset, data):
    x = offset + scale * np.random.default_rng(seed).normal(size=n)
    wave = Waveform(x, FS)
    assert macc(wave, wave, data.draw(max_lags(n))) == 1.0


# both overlap variances of 2.7e-132 are ~1e-264, and their product
# underflowed to 0 in the all-lags pass (a divide-by-zero warning)
UNDERFLOW_PAIR = (Waveform([0.0, 0.0, 2.7261272287857e-132], FS),) * 2
RAMP_PAIR = (Waveform([1.0, 3.0, 2.0, 5.0, 4.0], FS),) * 2


@settings(max_examples=60, deadline=None)
@given(pair=signal_pairs(), k=st.integers(-1000, 1000))
@example(pair=UNDERFLOW_PAIR, k=0)
@example(pair=RAMP_PAIR, k=-531)    # about 1e-160: sxx * syy underflowed and macc gave 0.0
@example(pair=RAMP_PAIR, k=664)     # about 1e200: sxx * syy overflowed and macc gave 0.0
def test_macc_is_scale_free(pair, k):
    with np.errstate(over="ignore"):
        scaled = [np.ldexp(w.samples, k) for w in pair]
    # only scalings that are exact both ways
    assume(all(np.array_equal(np.ldexp(s, -k), w.samples) for s, w in zip(scaled, pair)))
    value = macc(*pair)
    assert macc(*(Waveform(s, FS) for s in scaled)) == value
    if pair[0] is pair[1]:
        assert value == 1.0


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 800), seed=st.integers(0, 2**32 - 1), exponent=st.floats(-300, 300))
def test_macc_identical_signals_exactly_one_at_any_scale(n, seed, exponent):
    wave = Waveform(10.0 ** exponent * np.random.default_rng(seed).normal(size=n), FS)
    assert macc(wave, wave) == 1.0


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("max_lag_s", [None, 0.0, 10.0])
def test_macc_too_short_is_zero(n, max_lag_s):
    a = Waveform(np.arange(n, dtype=float), FS)
    b = Waveform(np.arange(n, dtype=float)[::-1] * 3.0, FS)
    assert macc(a, b, max_lag_s) == 0.0


def test_error_metrics_hand_example():
    rep = error_metrics([60.0, 62.0, 70.0], [61.0, 61.0, 70.0])
    assert rep.mae.avg == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert rep.rmse.avg == pytest.approx(np.sqrt(2.0 / 3.0), rel=1e-12)
    want_mape = 100.0 * (1.0 / 61.0 + 1.0 / 61.0 + 0.0) / 3.0
    assert rep.mape.avg == pytest.approx(want_mape, rel=1e-12)
    r = np.corrcoef([60.0, 62.0, 70.0], [61.0, 61.0, 70.0])[0, 1]
    assert rep.corr.avg == pytest.approx(r, rel=1e-12)
    assert rep.corr.se == float("inf")  # Fisher-z blows up at n = 3
    assert rep.n == 3


def test_error_metrics_perfect_prediction():
    x = [60.0, 65.0, 70.0, 75.0]
    rep = error_metrics(x, x)
    assert rep.mae.avg == 0.0 and rep.rmse.avg == 0.0 and rep.mape.avg == 0.0
    assert rep.corr.avg == pytest.approx(1.0, abs=1e-12)
    assert rep.corr.se == pytest.approx(0.0, abs=1e-12)


def test_error_metrics_se_oracle():
    rng = np.random.default_rng(70)
    p = 60.0 + rng.normal(size=8)
    g = 60.0 + rng.normal(size=8)
    rep = error_metrics(p, g)
    d = p - g
    assert rep.mae.se == pytest.approx(np.abs(d).std(ddof=1) / np.sqrt(8), rel=1e-12)
    assert rep.rmse.se == pytest.approx((d ** 2).std(ddof=1) / np.sqrt(8), rel=1e-12)
    mape_terms = 100.0 * np.abs(d / g)
    assert rep.mape.se == pytest.approx(mape_terms.std(ddof=1) / np.sqrt(8), rel=1e-12)
    r = np.corrcoef(p, g)[0, 1]
    assert rep.corr.se == pytest.approx((1 - r * r) / np.sqrt(5), rel=1e-12)


def test_error_metrics_corr_modes():
    # an undefined Corr (n < 3 or a constant series) is left out, and
    # the other three metrics are still reported
    constant = [70.0, 70.0, 70.0]
    for p, g in (([60.0, 62.0], [61.0, 61.0]),
                 (constant, constant),
                 (constant, [70.0, 71.0, 72.0]),
                 ([70.0, 71.0, 72.0], constant),
                 (constant, [71.0, 71.0, 71.0]),
                 ([72.0, 72.0], [72.0, 72.0]),
                 ([72.0, 72.0], [72.0, 73.0])):
        rep = error_metrics(p, g)
        assert rep.corr is None
        assert rep.mae.avg == np.mean(np.abs(np.subtract(p, g)))
    # a series that varies by one ulp is not constant
    rep = error_metrics([70.0, 70.0, np.nextafter(70.0, 71.0)], [70.0, 71.0, 72.0])
    assert rep.corr is not None
    with pytest.raises(TypeError):
        error_metrics(constant, constant, corr="skip")


@settings(max_examples=60, deadline=None)
@given(k=st.integers(-1000, 1000))
@example(k=-498)    # 2^-498 ~ 1e-150, where RMSE's SE underflowed to 0.0
@example(k=664)     # 2^664 ~ 1e200, where MAE's SE read inf
@example(k=-565)    # 2^-565 ~ 1e-170, where the std of a rate series underflowed
def test_error_metrics_is_exact_at_any_scale(k):
    # every value is its unit-scale value times 2^k (2^2k for RMSE's SE,
    # the SE of squared errors), and one beyond float64 is refused
    p, g = np.array([1.0, 2.0, 3.0, 4.0]), np.array([1.0, 1.0, 1.5, 2.0])
    unit = error_metrics(p, g)
    if math.frexp(unit.rmse.se)[1] + 2 * k > 1024:    # beyond float64's largest value
        with pytest.raises(DomainError, match="RMSE se"):
            error_metrics(np.ldexp(p, k), np.ldexp(g, k))
        return
    rep = error_metrics(np.ldexp(p, k), np.ldexp(g, k))
    for name, (ka, ks) in {"mae": (k, k), "rmse": (k, 2 * k), "mape": (0, 0), "corr": (0, 0)}.items():
        want = getattr(unit, name)
        assert getattr(rep, name) == MetricValue(float(np.ldexp(want.avg, ka)), float(np.ldexp(want.se, ks))), name


def test_error_metrics_preconditions():
    with pytest.raises(DomainError):
        error_metrics([], [])
    with pytest.raises(DomainError):
        error_metrics([1.0], [1.0, 2.0])
    with pytest.raises(DomainError):
        error_metrics([60.0, 61.0, 62.0], [60.0, 0.0, 62.0])  # MAPE undefined
    # a difference or a percentage beyond float64 is refused, where numpy
    # warned of the overflow and the report read inf
    with pytest.raises(DomainError, match="preds - gts must be finite"):
        error_metrics([1e308, 1.0, 2.0], [-1e308, 2.0, 1.0])
    with pytest.raises(DomainError, match="MAPE must be finite"):
        error_metrics([1e100, 1.0, 2.0], [1e-250, 2.0, 1.0])


def test_split_windows_trailing_rule():
    fs = 25.0
    wave = Waveform(np.sin(np.arange(int(70 * fs)) * 0.3), fs)
    parts = split_windows(wave)
    assert [p.samples.size for p in parts] == [750, 750, 250]  # 10 s tail kept

    wave = Waveform(np.sin(np.arange(int(65 * fs)) * 0.3), fs)
    parts = split_windows(wave)
    assert [p.samples.size for p in parts] == [750, 750]       # 5 s tail dropped

    with pytest.raises(DomainError):
        split_windows(Waveform(np.zeros(100), fs))


def test_evaluate_windows_identical_signals():
    wave = gen_pulse(25.0, 72.0, 120.0, 0.2, 0.1, seed=3)
    rep = evaluate_windows(wave, wave, "hr")
    assert rep.n == 4
    assert rep.mae.avg == 0.0
    assert rep.macc.avg == pytest.approx(1.0, abs=1e-12)
    assert rep.corr is None  # constant rate series, degenerate perfect


def test_evaluate_windows_varying_rates():
    fs = 25.0
    pieces_p, pieces_g = [], []
    for rate in (66.0, 72.0, 78.0, 84.0):
        pieces_g.append(gen_pulse(fs, rate, 30.0).samples)
        pieces_p.append(gen_pulse(fs, rate, 30.0, noise_sigma=0.05, seed=int(rate)).samples)
    pred = Waveform(np.concatenate(pieces_p), fs)
    gt = Waveform(np.concatenate(pieces_g), fs)
    rep = evaluate_windows(pred, gt, "hr")
    assert rep.n == 4
    assert rep.mae.avg < 1.0
    assert rep.corr.avg > 0.99
    assert rep.snr.avg > 10.0
    assert rep.macc.avg > 0.9


def test_evaluate_windows_fs_mismatch():
    a = gen_pulse(25.0, 72.0, 40.0)
    b = gen_pulse(30.0, 72.0, 40.0)
    with pytest.raises(DomainError):
        evaluate_windows(a, b)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(("hr", "rr")), windows=st.integers(3, 5), seed=st.integers(0, 2**32 - 1),
       noise=st.floats(0.05, 0.5), shift=st.floats(-1e3, 1e3))
def test_evaluate_windows_ignores_a_common_dc_shift(kind, windows, seed, noise, shift):
    # unit-amplitude signals with one rate per 30 s window; adding the
    # same constant to prediction and ground truth moves no report field
    gen, lo, hi = (gen_pulse, 55.0, 110.0) if kind == "hr" else (gen_resp, 8.0, 24.0)
    rng = np.random.default_rng(seed)
    rates = rng.uniform(lo, hi, windows)
    gt = np.concatenate([gen(FS, r, 30.0, 0.3).samples for r in rates])
    pred = np.concatenate([gen(FS, r, 30.0, 0.3, noise, seed=i).samples for i, r in enumerate(rates)])
    base = evaluate_windows(Waveform(pred, FS), Waveform(gt, FS), kind).as_dict()
    moved = evaluate_windows(Waveform(pred + shift, FS), Waveform(gt + shift, FS), kind).as_dict()
    assert set(moved) == set(base) and moved["n"] == base["n"]
    for field in set(base) - {"n"}:
        for part in ("avg", "se"):
            assert math.isclose(moved[field][part], base[field][part], rel_tol=1e-9, abs_tol=1e-12), (field, part)


# a 6-window HR pair at unit scale, rounded to multiples of 2^-40 so
# that a factor of 2^k for k in [-1000, 1000] is exact: no bit falls
# below 2^-1074
_SCALE_RATES = (62.0, 71.0, 88.0, 95.0, 77.0, 105.0)


def _quantized_tones(shift, noise):
    x = np.concatenate([gen_pulse(FS, r + shift, 30.0, 0.3, noise, i).samples for i, r in enumerate(_SCALE_RATES)])
    return np.round(x * 2.0**40) / 2.0**40


_SCALE_PRED, _SCALE_GT = _quantized_tones(2.0, 0.5), _quantized_tones(0.0, 0.0)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(-1000, 1000))
@example(k=600)     # the spectra's squares overflowed: SNR avg NaN, with numpy's warning
@example(k=-600)    # they underflowed: SNR avg -20.0, the clip floor
def test_evaluate_windows_is_scale_free(k):
    pred, gt = np.ldexp(_SCALE_PRED, k), np.ldexp(_SCALE_GT, k)
    assert np.array_equal(np.ldexp(pred, -k), _SCALE_PRED) and np.array_equal(np.ldexp(gt, -k), _SCALE_GT)
    base = evaluate_windows(Waveform(_SCALE_PRED, FS), Waveform(_SCALE_GT, FS), "hr").as_dict()
    assert evaluate_windows(Waveform(pred, FS), Waveform(gt, FS), "hr").as_dict() == base


# ------------------------------- windowed evaluation against its per-window loop


def _rate_oracle(wave, band, pad_factor=8):
    """estimate_rate_fft as a mask over every padded bin."""
    x = wave.samples
    nfft = pad_factor * (1 << (x.size - 1).bit_length())
    spec = np.abs(np.fft.rfft(x - x.mean(), n=nfft))
    freqs = np.fft.rfftfreq(nfft, 1.0 / wave.fs)
    mask = (freqs >= band.lo_hz) & (freqs <= band.hi_hz)
    if not mask.any():
        raise DomainError("no FFT bins inside the band")
    idx = np.flatnonzero(mask)
    return 60.0 * freqs[idx[np.argmax(spec[idx])]]


def _snr_oracle(pred, ref_rate, band):
    """snr of one window, from its own rfft and masks."""
    f0 = ref_rate / 60.0
    if not band.lo_hz <= f0 <= band.hi_hz:
        raise DomainError(
            f"reference rate {ref_rate}/min lies outside the band "
            f"[{band.lo_hz * 60:.0f}, {band.hi_hz * 60:.0f}]/min"
        )
    x = pred.samples - pred.samples.mean()
    power = np.abs(np.fft.rfft(x)) ** 2
    freqs = np.fft.rfftfreq(x.size, 1.0 / pred.fs)
    sig = (np.abs(freqs - f0) <= 0.1) | (np.abs(freqs - 2 * f0) <= 0.2)
    inband = (freqs >= band.lo_hz) & (freqs <= band.hi_hz)
    p_sig = float(power[sig].sum())
    p_noise = float(power[inband & ~sig].sum())
    if p_sig == 0.0:
        return -20.0
    if p_noise == 0.0:
        return 40.0
    return float(np.clip(10.0 * np.log10(p_sig / p_noise), -20.0, 40.0))


def _evaluate_windows_loop(pred, gt, kind="hr", window_s=30.0, pad_factor=8, max_lag_s=None):
    """evaluate_windows as one rate, SNR and MACC call per window, with
    the rate and SNR taken by their mask-based formulas: the oracle for
    evaluate_windows."""
    band = band_for(kind)
    n = min(pred.samples.size, gt.samples.size)
    pw = split_windows(Waveform(pred.samples[:n], pred.fs), window_s)
    gw = split_windows(Waveform(gt.samples[:n], gt.fs), window_s)
    rates_p, rates_g, snrs, maccs = [], [], [], []
    for wp, wg in zip(pw, gw):
        rp = _rate_oracle(wp, band, pad_factor)
        rg = _rate_oracle(wg, band, pad_factor)
        rates_p.append(rp)
        rates_g.append(rg)
        snrs.append(_snr_oracle(wp, rg, band))
        maccs.append(macc(wp, wg, max_lag_s))
    report = error_metrics(rates_p, rates_g)
    return {
        **report.as_dict(),
        "snr": dict(zip(("avg", "se"), _avg_se(snrs))),
        "macc": dict(zip(("avg", "se"), _avg_se(maccs))),
    }


def _outcome(fn, *args, **kwargs):
    """fn's result, or the type and message of the DomainError it raised."""
    try:
        return fn(*args, **kwargs)
    except DomainError as exc:
        return ("DomainError", str(exc))


@st.composite
def windowed_pairs(draw):
    """A prediction and ground truth of 1-25 windows, each window a tone
    at its own in-band rate plus noise, or constant; optionally a
    trailing window from 10 s up to the window length; one scale and DC
    offset per signal."""
    kind = draw(st.sampled_from(("hr", "rr")))
    fs = draw(st.sampled_from((8.0, 12.5, 25.0)))
    window_s = draw(st.sampled_from((10.0, 13.7, 30.0)))
    size = int(round(window_s * fs))
    windows = draw(st.integers(1, 25))
    shortest = int(np.ceil(10.0 * fs))
    tail = draw(st.integers(shortest, size - 1)) if shortest < size and draw(st.booleans()) else 0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    band = band_for(kind)
    lengths = [size] * windows + ([tail] if tail else [])
    constant = draw(st.lists(st.booleans(), min_size=len(lengths), max_size=len(lengths)))

    def signal(sigma):
        parts = []
        for length, flat, f in zip(lengths, constant, rng.uniform(band.lo_hz, band.hi_hz, len(lengths))):
            t = np.arange(length) / fs
            parts.append(np.full(length, rng.normal()) if flat
                         else np.sin(2 * np.pi * f * t) + sigma * rng.normal(size=length))
        return np.concatenate(parts)

    gt = signal(0.05)
    pred = gt + signal(0.3)
    scale = st.floats(1e-3, 1e6)
    pred = Waveform(draw(scale) * pred + draw(offsets), fs)
    gt = Waveform(draw(scale) * gt + draw(offsets), fs)
    max_lag_s = draw(st.one_of(st.none(), st.just(0.0), st.floats(0.0, window_s)))
    return pred, gt, kind, window_s, max_lag_s


@settings(max_examples=80, deadline=None)
@given(case=windowed_pairs())
def test_evaluate_windows_matches_per_window_loop(case):
    pred, gt, kind, window_s, max_lag_s = case
    want = _outcome(_evaluate_windows_loop, pred, gt, kind, window_s, max_lag_s=max_lag_s)
    got = _outcome(evaluate_windows, pred, gt, kind, window_s, max_lag_s=max_lag_s)
    if isinstance(got, MetricsReport):
        got = got.as_dict()
    assert got == want


@settings(max_examples=100, deadline=None)
@given(n=st.integers(int(10 * FS), 1201), pad_factor=st.integers(1, 16),
       seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(("hr", "rr")),
       tone=st.sampled_from(("inside", "lo", "hi")))
def test_rate_and_snr_match_their_mask_oracles(n, pad_factor, seed, kind, tone):
    rng = np.random.default_rng(seed)
    band = band_for(kind)
    if tone == "inside":
        f = rng.uniform(band.lo_hz, band.hi_hz)
    else:
        # band edges exactly on a padded bin, and the tone on one of them
        nfft = pad_factor * (1 << (n - 1).bit_length())
        freqs = np.fft.rfftfreq(nfft, 1.0 / FS)
        lo, hi = np.searchsorted(freqs, [band.lo_hz, band.hi_hz])
        band = RateBand(float(freqs[lo]), float(freqs[hi]))
        f = band.lo_hz if tone == "lo" else band.hi_hz
    t = np.arange(n) / FS
    wave = Waveform(np.sin(2 * np.pi * f * t) + 0.5 * rng.normal(size=n), FS)
    rate = estimate_rate_fft(wave, band, pad_factor)
    assert rate == _rate_oracle(wave, band, pad_factor)
    for ref_rate in (rate, 60.0 * band.lo_hz, 60.0 * band.hi_hz, 60.0 * f):
        assert _outcome(snr, wave, ref_rate, band) == _outcome(_snr_oracle, wave, ref_rate, band)


def test_snr_band_edges_on_native_bins():
    # a 12 s window at 25 Hz has bins every 1/12 Hz: 0.5 and 3.25 Hz are bins
    n = 300
    freqs = np.fft.rfftfreq(n, 1.0 / FS)
    band = RateBand(float(freqs[6]), float(freqs[39]))
    assert band.lo_hz == 0.5 and band.hi_hz == 3.25
    t = np.arange(n) / FS
    rng = np.random.default_rng(5)
    for f in (band.lo_hz, band.hi_hz, 1.0):
        wave = Waveform(np.sin(2 * np.pi * f * t) + 0.2 * rng.normal(size=n), FS)
        for ref_rate in (60.0 * band.lo_hz, 60.0 * band.hi_hz, 60.0 * f):
            assert _outcome(snr, wave, ref_rate, band) == _outcome(_snr_oracle, wave, ref_rate, band)
