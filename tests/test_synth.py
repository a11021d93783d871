import numpy as np
import pytest

from physfactor.attention import csim_map
from physfactor.errors import DomainError
from physfactor.metrics import HR_BAND, estimate_rate_fft
from physfactor.synth import gen_clip, gen_planted_embedding, gen_pulse, gen_resp


def test_gen_pulse_clean_tone_rate():
    wave = gen_pulse(25.0, 72.0, 30.0)
    assert wave.samples.size == 750
    assert abs(estimate_rate_fft(wave, HR_BAND) - 72.0) <= 0.5


def test_gen_pulse_harmonic_keeps_fundamental():
    wave = gen_pulse(25.0, 72.0, 30.0, harmonic_ratio=0.3)
    assert abs(estimate_rate_fft(wave, HR_BAND) - 72.0) <= 0.5


def test_gen_pulse_range_and_duration():
    with pytest.raises(DomainError):
        gen_pulse(25.0, 500.0, 30.0)
    with pytest.raises(DomainError):
        gen_pulse(25.0, 72.0, 0.5)
    with pytest.raises(DomainError):
        gen_pulse(25.0, 72.0, 30.0, noise_sigma=-0.1)


@pytest.mark.parametrize("fs", [0.0, -25.0, np.nan, np.inf])
def test_gen_pulse_rejects_bad_sampling_rate(fs):
    # nan ended in a ValueError, inf in an OverflowError
    with pytest.raises(DomainError, match="fs"):
        gen_pulse(fs, 72.0, 30.0)
    with pytest.raises(DomainError, match="fs"):
        gen_resp(fs, 15.0, 30.0)


def test_gen_resp_range():
    wave = gen_resp(25.0, 15.0, 60.0)
    assert wave.samples.size == 1500
    with pytest.raises(DomainError):
        gen_resp(25.0, 72.0, 60.0)  # cardiac rate, not a breathing rate


def test_gen_pulse_deterministic():
    a = gen_pulse(25.0, 80.0, 20.0, 0.2, 0.3, seed=6)
    b = gen_pulse(25.0, 80.0, 20.0, 0.2, 0.3, seed=6)
    c = gen_pulse(25.0, 80.0, 20.0, 0.2, 0.3, seed=7)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_plant_spec_validation():
    # the messages name the arguments, not a spec class callers never see
    sig = gen_pulse(25.0, 72.0, 4.0)
    with pytest.raises(DomainError, match="^shape must be 4 positive extents"):
        gen_planted_embedding((100, 2, 2), ((0, 0, 0),), sig)
    with pytest.raises(DomainError, match="^mask must be non-empty$"):
        gen_planted_embedding((100, 2, 2, 2), (), sig)
    with pytest.raises(DomainError):
        gen_planted_embedding((100, 2, 2, 2), ((0, 0, 5),), sig)
    with pytest.raises(DomainError, match="^mask contains duplicate coordinates$"):
        gen_planted_embedding((100, 2, 2, 2), ((0, 0, 0), (0, 0, 0)), sig)
    with pytest.raises(DomainError):
        gen_planted_embedding((100, 2, 2, 2), ((0, 0, 0),), sig, noise_sigma=-1.0)


def test_planted_length_mismatch():
    sig = gen_pulse(25.0, 72.0, 4.0)  # 100 samples
    with pytest.raises(DomainError):
        gen_planted_embedding((80, 2, 2, 2), ((0, 0, 0),), sig)


def test_noiseless_plant_exact_csim():
    # a signal with minimum exactly zero survives the non-negativity
    # shift untouched, so planted traces equal the signal itself
    t = np.arange(160)
    y = 0.5 * (1.0 - np.cos(2 * np.pi * 1.2 * t / 25.0))
    from physfactor.tensors import Waveform

    sig = Waveform(y, 25.0)
    eps, mask = gen_planted_embedding((160, 2, 3, 3), ((0, 1, 2), (1, 0, 0)), sig, noise_sigma=0.0, seed=0)
    assert eps.data.min() == 0.0
    cs = csim_map(eps, y)
    assert cs[mask].min() > 1.0 - 1e-12
    assert np.all(cs[~mask] == 0.0)   # background traces are all zero


def test_noiseless_plant_with_negative_signal_still_nonnegative():
    sig = gen_pulse(25.0, 72.0, 4.0)  # sine, min near -1
    eps, mask = gen_planted_embedding((100, 2, 2, 2), ((0, 0, 0),), sig)
    assert eps.data.min() == 0.0
    assert mask.sum() == 1


def test_background_csim_stays_low():
    sig = gen_pulse(25.0, 72.0, 6.4)  # 160 samples
    coords = tuple((c, a, b) for c in range(2) for a in range(3) for b in range(3))[:5]
    eps, mask = gen_planted_embedding((160, 4, 6, 6), coords, sig, noise_sigma=0.5, seed=3)
    cs = csim_map(eps, sig.samples)
    assert (~mask).sum() >= 100
    assert cs[~mask].mean() < 0.15


def test_planted_deterministic():
    sig = gen_pulse(25.0, 72.0, 6.4)
    a, _ = gen_planted_embedding((160, 2, 2, 2), ((0, 0, 0), (1, 1, 1)), sig, 0.3, seed=9)
    b, _ = gen_planted_embedding((160, 2, 2, 2), ((0, 0, 0), (1, 1, 1)), sig, 0.3, seed=9)
    assert np.array_equal(a.data, b.data)


def test_gen_clip_contract():
    clip = gen_clip(40, 36, 3, seed=2)
    assert clip.tau == 40 and clip.shape == (40, 3, 36, 36)
    assert clip.data.min() >= 0.0 and clip.data.max() <= 1.0
    again = gen_clip(40, 36, 3, seed=2)
    assert np.array_equal(clip.data, again.data)


_SIG = gen_pulse(25.0, 72.0, 1.0)


@pytest.mark.parametrize("build, match", [
    (lambda: gen_planted_embedding((25.9, 2, 2, 2), ((0, 0, 0),), _SIG), "^shape must be an integer"),
    (lambda: gen_planted_embedding((25, 2, 2, 2), ((0.5, 0, 0),), _SIG), "coordinate"),
    (lambda: gen_clip(2.5, 9, 1), "frames"),
    (lambda: gen_pulse(25.0, 72.0, np.inf), "duration"),
    (lambda: gen_pulse(25.0, 72.0, np.nan), "duration"),
    (lambda: gen_pulse(25.0, 72.0, 30.0, noise_sigma=np.nan), "noise_sigma"),
    (lambda: gen_clip(8, 9, 1, noise_sigma=-1.0), "noise_sigma"),
    (lambda: gen_clip(8, 9, 1, noise_sigma=np.inf), "noise_sigma"),
], ids=["plant-shape-25.9", "plant-coordinate-0.5", "clip-frames-2.5", "pulse-duration-inf",
        "pulse-duration-nan", "pulse-noise-nan", "clip-noise-negative", "clip-noise-inf"])
def test_refused_rather_than_truncated_or_ignored(build, match):
    # a planted shape of 25.9 and coordinate 0.5 were truncated to 25
    # and 0; gen_clip(2.5) raised a bare TypeError and took a negative
    # noise level; an infinite duration raised a bare OverflowError; a
    # NaN noise level gave the noise-free tone
    with pytest.raises(DomainError, match=match):
        build()
