"""Deterministic generators for pulse-like signals, planted embeddings
and toy video clips. Everything here exists to give the oracle tests a
known ground truth."""

import numpy as np

from .errors import DomainError, check_finite, check_int, check_real
from .tensors import VideoClip, VoxelEmbedding, Waveform

PULSE_RATE_RANGE = (30.0, 220.0)     # plausible heart rates, beats/min
RESP_RATE_RANGE = (4.0, 40.0)        # plausible breathing rates, breaths/min
CLIP_NOISE_SIGMA = 0.02              # per-pixel noise of gen_clip


def _gen_tone(fs, rate_bpm, duration_s, harmonic_ratio, noise_sigma, seed, lo, hi):
    fs = check_real(fs, "sampling rate fs", gt=0)
    check_real(rate_bpm, "rate_bpm (per minute)", ge=lo, le=hi)
    duration_s = check_real(duration_s, "duration_s", ge=1.0)
    check_real(harmonic_ratio, "harmonic_ratio")
    check_real(noise_sigma, "noise_sigma", ge=0)
    f0 = rate_bpm / 60.0
    top = 2 * f0 if harmonic_ratio else f0    # the highest tone
    if not top < fs / 2:
        raise DomainError(f"a {top:g} Hz tone aliases at sampling rate fs = {fs:g} Hz; fs must exceed {2 * top:g} Hz")
    n = int(round(check_real(fs * duration_s, "fs * duration_s (samples)")))
    t = np.arange(n) / fs
    x = np.sin(2 * np.pi * f0 * t) + harmonic_ratio * np.sin(2 * np.pi * 2 * f0 * t)
    if noise_sigma > 0:
        with np.errstate(over="ignore"):    # Waveform refuses an inf sample
            x = x + noise_sigma * np.random.default_rng(seed).normal(size=n)
    return Waveform(x, fs)


def gen_pulse(fs, rate_bpm, duration_s, harmonic_ratio=0.0, noise_sigma=0.0, seed=0):
    """Unit-amplitude fundamental plus an optional second harmonic and
    seeded Gaussian noise. Rate must lie in the cardiac range."""
    lo, hi = PULSE_RATE_RANGE
    return _gen_tone(fs, rate_bpm, duration_s, harmonic_ratio, noise_sigma, seed, lo, hi)


def gen_resp(fs, rate_bpm, duration_s, harmonic_ratio=0.0, noise_sigma=0.0, seed=0):
    """Same generator as gen_pulse but validated against the respiratory
    rate range."""
    lo, hi = RESP_RATE_RANGE
    return _gen_tone(fs, rate_bpm, duration_s, harmonic_ratio, noise_sigma, seed, lo, hi)


def gen_planted_embedding(shape, mask, signal, noise_sigma=0.0, seed=0):
    """Build an embedding whose masked voxels carry the signal plus noise
    and whose remaining voxels are pure noise.

    shape is (tau, kappa, alpha, beta), four integers >= 1; signal is a
    Waveform of tau samples, and mask a non-empty iterable of distinct
    integer (c, a, b) coordinates inside shape that receive it;
    noise_sigma >= 0 is the Gaussian noise level relative to the
    unit-amplitude signal, drawn from a generator seeded with seed.

    The signal is scaled to unit peak amplitude, and the whole tensor is
    shifted by its global minimum afterwards so the result is
    non-negative (ready for the attention pipeline). Note the shift adds
    a constant to every trace; it is zero when the noiseless signal
    already has minimum 0.

    Returns:
        (VoxelEmbedding, boolean mask array over (kappa, alpha, beta)).
    """
    extents = tuple(check_int(x, "shape", 1) for x in shape)
    if len(extents) != 4:
        raise DomainError(f"shape must be 4 positive extents, got {shape}")
    coords = [tuple(check_int(x, "planted coordinate") for x in cab) for cab in mask]
    if not coords:
        raise DomainError("mask must be non-empty")
    if len(set(coords)) != len(coords):
        raise DomainError("mask contains duplicate coordinates")
    tau, kappa, alpha, beta = extents
    for (c, a, b) in coords:
        if not (0 <= c < kappa and 0 <= a < alpha and 0 <= b < beta):
            raise DomainError(f"planted coordinate {(c, a, b)} outside shape {extents}")
    noise_sigma = check_real(noise_sigma, "noise_sigma", ge=0)
    y = check_finite(signal.samples, "planted signal", size=tau)
    peak = np.abs(y).max()
    if peak == 0:
        raise DomainError("planted signal is all zeros")
    y = y / peak

    rng = np.random.default_rng(seed)
    mask = np.zeros((kappa, alpha, beta), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):    # refused below
        data = noise_sigma * rng.normal(size=extents) if noise_sigma > 0 else np.zeros(extents)
        for (c, a, b) in coords:
            data[:, c, a, b] += y
            mask[c, a, b] = True
        data -= data.min()
    mask.flags.writeable = False
    return VoxelEmbedding(check_finite(data, "planted embedding")), mask


def gen_clip(frames, resolution, channels, rate_bpm=72.0, fs=25.0, seed=0):
    """Toy video clip: mid-gray frames with a weak pulse modulating all
    pixels plus per-pixel Gaussian noise of CLIP_NOISE_SIGMA, clipped
    into [0, 1]. frames, resolution and channels are integers >= 1."""
    frames = check_int(frames, "frames", 1)
    resolution = check_int(resolution, "resolution", 1)
    channels = check_int(channels, "channels", 1)
    check_real(fs, "sampling rate fs", gt=0)
    pulse = gen_pulse(fs, rate_bpm, frames / fs if frames / fs >= 1 else 1.0, 0.2, 0.0, seed)
    s = pulse.samples[:frames]
    rng = np.random.default_rng(seed)
    data = 0.5 + 0.05 * s[:, None, None, None]
    data = data + CLIP_NOISE_SIGMA * rng.normal(size=(frames, channels, resolution, resolution))
    return VideoClip(np.clip(data, 0.0, 1.0))
