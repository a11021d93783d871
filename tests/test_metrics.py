import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from physfactor.errors import DomainError
from physfactor.metrics import (
    HR_BAND,
    RR_BAND,
    RateBand,
    _pearson,
    band_for,
    concat_windows,
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
    with pytest.raises(DomainError):
        RateBand(0.5, 0.2)
    with pytest.raises(DomainError):
        RateBand(0.1, 0.5, kind="xx")
    with pytest.raises(DomainError):
        band_for("xx")


def test_concat_windows_truncation():
    segs = [Waveform(np.arange(180.0) + i, 25.0) for i in range(6)]
    joined = concat_windows(segs)
    assert joined.samples.size == 750           # capped at 30 s
    assert np.array_equal(joined.samples[:180], segs[0].samples)

    short = concat_windows([Waveform(np.zeros(400), 25.0)])
    assert short.samples.size == 400            # under the cap

    with pytest.raises(DomainError):
        concat_windows([Waveform(np.zeros(10), 25.0), Waveform(np.zeros(10), 30.0)])
    with pytest.raises(DomainError):
        concat_windows([])


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
    with pytest.raises(DomainError, match="Corr"):
        error_metrics([60.0, 62.0], [61.0, 61.0])
    rep = error_metrics([60.0, 62.0], [61.0, 61.0], corr="skip")
    assert rep.mae.avg == 1.0
    assert rep.corr is None

    constant = [70.0, 70.0, 70.0]
    with pytest.raises(DomainError, match="Corr"):
        error_metrics(constant, constant, corr="strict")
    assert error_metrics(constant, constant, corr="auto").corr is None
    with pytest.raises(DomainError, match="Corr"):
        error_metrics(constant, [70.0, 71.0, 72.0], corr="auto")

    # identical series skip Corr in auto mode even below three windows
    short = error_metrics([72.0, 72.0], [72.0, 72.0], corr="auto")
    assert short.corr is None and short.mae.avg == 0.0
    with pytest.raises(DomainError, match="Corr"):
        error_metrics([72.0, 72.0], [72.0, 73.0], corr="auto")


def test_error_metrics_preconditions():
    with pytest.raises(DomainError):
        error_metrics([], [])
    with pytest.raises(DomainError):
        error_metrics([1.0], [1.0, 2.0])
    with pytest.raises(DomainError):
        error_metrics([60.0, 61.0, 62.0], [60.0, 0.0, 62.0])  # MAPE undefined


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

