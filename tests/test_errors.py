from dataclasses import replace
from fractions import Fraction

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from physfactor.attention import AttentionConfig, csim_map, solve
from physfactor.cli import main
from physfactor.config import load_run_config
from physfactor.errors import DomainError, check_finite, check_int, check_real, real_array
from physfactor.factorize import constrained_nmf_mu, grbf_basis, nmf_mu, target_basis
from physfactor.losses import fd_gradient_check, neg_pearson_loss, smooth_l1_loss
from physfactor.metrics import (
    HR_BAND, RateBand, error_metrics, estimate_rate_fft, macc, snr, split_windows,
)
from physfactor.network import ModelConfig, conv3d_forward, forward_multitask
from physfactor.synth import gen_clip, gen_planted_embedding, gen_pulse, gen_resp
from physfactor.tensors import VideoClip, VoxelEmbedding, Waveform, instance_norm, unflatten_to_voxel


@pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3), 2**70])
def test_check_int_returns_a_python_int(value):
    out = check_int(value, "n", 0)
    assert out == value and type(out) is int


@pytest.mark.parametrize("value", [2.5, 3.0, np.float64(3.0), "3", None, True, False, np.True_])
def test_check_int_refuses_non_integers_and_bools(value):
    with pytest.raises(DomainError, match="n must be an integer"):
        check_int(value, "n")


def test_check_int_lower_bound():
    assert check_int(-5, "n") == -5
    assert check_int(2, "n", 2) == 2
    with pytest.raises(DomainError, match="n must be >= 2, got 1"):
        check_int(1, "n", 2)


def _v():
    return np.random.default_rng(0).random((6, 5))


# True passed every one of these as 1 and False as 0; only the seed
# override refused a bool (tests/test_config.py)
@pytest.mark.parametrize("build", [
    lambda: AttentionConfig(rank=True),
    lambda: AttentionConfig(iterations=True),
    lambda: AttentionConfig(grbf_delta_t=True),
    lambda: ModelConfig(temporal_kernel=True),
    lambda: ModelConfig(spatial_kernel=True),
    lambda: ModelConfig(bvp_channels=(8, True, 12, 8)),
    lambda: ModelConfig(rsp_temporal_strides=(2, True, 1, 1)),
    lambda: ModelConfig(attention_index=True),
    lambda: ModelConfig(input_channels=True),
    lambda: nmf_mu(_v(), True),
    lambda: nmf_mu(_v(), 2, iterations=True),
    lambda: nmf_mu(_v(), 2, seed=False),
    lambda: constrained_nmf_mu(_v(), np.ones((6, 2)), 1, seed=True),
    lambda: grbf_basis(8, 1.0, True),
    lambda: target_basis([0.0, 1.0], True),
    lambda: estimate_rate_fft(gen_pulse(25.0, 72.0, 30.0), HR_BAND, pad_factor=True),
    lambda: conv3d_forward(VoxelEmbedding(np.ones((5, 1, 4, 4))), np.ones((1, 1, 1, 1, 1)), strides=(True, 1, 1)),
    lambda: conv3d_forward(VoxelEmbedding(np.ones((5, 1, 4, 4))), np.ones((1, 1, 1, 1, 1)), padding=(0, False, 0)),
    lambda: gen_clip(True, 9, 1),
    lambda: gen_planted_embedding((8, 1, 2, True), ((0, 0, 0),), gen_pulse(25.0, 72.0, 1.0)),
], ids=["attention-rank", "attention-iterations", "attention-delta-t", "temporal-kernel", "spatial-kernel",
        "bvp-channel", "rsp-stride", "attention-index", "input-channels", "nmf-rank", "nmf-iterations",
        "nmf-seed", "constrained-seed", "grbf-delta-t", "target-m", "pad-factor", "conv-stride",
        "conv-padding", "clip-frames", "plant-shape"])
def test_a_bool_is_no_integer_anywhere(build):
    with pytest.raises(DomainError, match="integer"):
        build()


_TAKES_A_VECTOR = {
    "error_metrics preds": lambda bad, ok: error_metrics(bad, ok),
    "error_metrics gts": lambda bad, ok: error_metrics(ok, bad),
    "target_basis": lambda bad, ok: target_basis(bad, bad.size),
    "Waveform samples": lambda bad, ok: Waveform(bad, 25.0),
    "csim_map target": lambda bad, ok: csim_map(VoxelEmbedding(np.ones((bad.size, 1, 2, 2))), bad),
    "conv weights": lambda bad, ok: conv3d_forward(VoxelEmbedding(np.ones((3, 1, 2, 2))), bad.reshape(-1, 1, 1, 1, 1)),
    "conv bias": lambda bad, ok: conv3d_forward(VoxelEmbedding(np.ones((3, 1, 2, 2))), np.ones((bad.size, 1, 1, 1, 1)),
                                                bias=bad),
    "neg_pearson_loss pred": lambda bad, ok: neg_pearson_loss(bad, ok),
    "neg_pearson_loss gt": lambda bad, ok: neg_pearson_loss(ok, bad),
    "smooth_l1_loss pred": lambda bad, ok: smooth_l1_loss(bad, ok),
    "smooth_l1_loss gt": lambda bad, ok: smooth_l1_loss(ok, bad),
}


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 64),
    data=st.data(),
    value=st.sampled_from([np.nan, np.inf, -np.inf]),
    call=st.sampled_from(sorted(_TAKES_A_VECTOR)),
)
def test_a_non_finite_sample_is_refused(n, data, value, call):
    # target_basis gave an all-NaN column for a NaN and [nan, 1e-3, ...]
    # for an inf; both losses returned a NaN or infinite loss, and
    # error_metrics NaN errors
    ok = 2.0 + np.sin(0.7 * np.arange(n))
    bad = ok.copy()
    bad[data.draw(st.integers(0, n - 1), label="index")] = value
    with pytest.raises(DomainError, match="finite"):
        _TAKES_A_VECTOR[call](bad, ok)


def _clip():
    return VideoClip(np.full((8, 3, 9, 9), 0.5))


_S = 2.0 + np.sin(0.7 * np.arange(8))    # a valid signal of 8 samples

# Every public entry point that takes an array, as (case, the name its
# error gives the argument, a call passing a complex array for it); each
# cast the imaginary part away with only numpy's ComplexWarning except the
# containers and forward_multitask, which refused it by hand
_TAKES_AN_ARRAY = [
    ("nmf_mu", "nmf_mu input", lambda: nmf_mu(_v() + 1j, 2)),
    ("solve fsam", "nmf_mu input", lambda: solve(_v() + 1j, AttentionConfig("fsam", rank=2))),
    ("solve grbf", "constrained_nmf_mu input", lambda: solve(_v() + 1j, AttentionConfig("grbf", rank=2))),
    ("solve tsfm", "constrained_nmf_mu input", lambda: solve(_v() + 1j, AttentionConfig("tsfm", rank=2), _S[:6])),
    ("constrained_nmf_mu", "constrained_nmf_mu input", lambda: constrained_nmf_mu(_v() + 1j, np.ones((6, 2)), 1)),
    ("constrained_nmf_mu basis", "constraint basis", lambda: constrained_nmf_mu(_v(), np.ones((6, 2)) + 1j, 1)),
    ("target_basis", "target signal", lambda: target_basis(_S + 1j, 8)),
    ("csim_map", "csim_map target", lambda: csim_map(VoxelEmbedding(np.ones((8, 1, 2, 2))), _S + 1j)),
    ("error_metrics preds", "error_metrics preds", lambda: error_metrics(_S + 1j, _S)),
    ("error_metrics gts", "error_metrics gts", lambda: error_metrics(_S, _S + 1j)),
    ("neg_pearson_loss pred", "pred", lambda: neg_pearson_loss(_S + 1j, _S)),
    ("neg_pearson_loss gt", "gt", lambda: neg_pearson_loss(_S, _S + 1j)),
    ("smooth_l1_loss pred", "pred", lambda: smooth_l1_loss(_S + 1j, _S)),
    ("smooth_l1_loss gt", "gt", lambda: smooth_l1_loss(_S, _S + 1j)),
    ("fd_gradient_check", "pred", lambda: fd_gradient_check("smooth_l1", (_S + 1j, _S))),
    ("conv weights", "conv weights",
     lambda: conv3d_forward(VoxelEmbedding(np.ones((3, 1, 2, 2))), np.ones((1, 1, 1, 1, 1)) + 1j)),
    ("conv bias", "conv bias",
     lambda: conv3d_forward(VoxelEmbedding(np.ones((3, 1, 2, 2))), np.ones((1, 1, 1, 1, 1)), bias=np.ones(1) + 1j)),
    ("forward bvp_target", "bvp_target",
     lambda: forward_multitask(_clip(), None, ModelConfig(input_resolution=9), bvp_target=_S + 1j)),
    ("forward rsp_target", "rsp_target",
     lambda: forward_multitask(_clip(), None, ModelConfig(input_resolution=9), rsp_target=_S + 1j)),
    ("VoxelEmbedding", "VoxelEmbedding", lambda: VoxelEmbedding(np.ones((2, 1, 1, 1)) + 1j)),
    ("VideoClip", "VideoClip", lambda: VideoClip(np.full((8, 3, 9, 9), 0.5) + 1j)),
    ("Waveform", "Waveform", lambda: Waveform(_S + 1j, 25.0)),
]


@pytest.mark.parametrize("arg, call", [case[1:] for case in _TAKES_AN_ARRAY],
                         ids=[case[0] for case in _TAKES_AN_ARRAY])
def test_a_complex_array_is_refused_everywhere(arg, call):
    with pytest.raises(DomainError, match=re.escape(f"{arg} must be real")):
        call()


@pytest.mark.parametrize("value", [2, np.int64(2), np.float32(2.0), Fraction(2, 1), 2.0])
def test_check_real_returns_a_python_float(value):
    out = check_real(value, "x", gt=0)
    assert out == 2.0 and type(out) is float


@pytest.mark.parametrize("value, words", [
    (np.nan, "finite"), (np.inf, "finite"), (-np.inf, "finite"), (10**400, "finite"),
    (True, "a real number"), (np.True_, "a real number"), ("2", "a real number"), (None, "a real number"),
    (np.array([2.0]), "a real number"),
])
def test_check_real_refuses_non_finite_and_non_reals(value, words):
    with pytest.raises(DomainError, match=f"x must be {words}"):
        check_real(value, "x")


def test_check_real_bounds():
    assert check_real(0.0, "x", ge=0.0, le=0.0) == 0.0
    for bounds, message in [({"gt": 0.0}, "x must be > 0.0, got 0.0"), ({"ge": 1}, "x must be >= 1, got 0.0"),
                            ({"lt": 0.0}, "x must be < 0.0, got 0.0"), ({"le": -1}, "x must be <= -1, got 0.0")]:
        with pytest.raises(DomainError, match=message):
            check_real(0.0, "x", **bounds)


def test_check_finite_names_the_first_bad_entry():
    a = np.zeros(5)
    assert check_finite(a, "a") is a
    assert check_finite([1, 2], "a").dtype == np.float64
    with pytest.raises(DomainError, match="a must be finite, got nan at index 3"):
        check_finite([0.0, 1.0, 2.0, np.nan, np.inf], "a")
    with pytest.raises(DomainError, match=r"a must be finite, got -inf at index \(1, 0\)"):
        check_finite([[0.0, 1.0], [-np.inf, np.nan]], "a")


def test_check_finite_with_a_size_ravels_and_checks_the_length():
    a = np.zeros((2, 3))
    out = check_finite(a, "a", size=6)
    assert out.shape == (6,) and np.shares_memory(out, a)
    with pytest.raises(DomainError, match="a must hold 5 entries, got 6"):
        check_finite(a, "a", size=5)
    with pytest.raises(DomainError, match="a must be finite, got nan at index 4"):
        check_finite([[0.0, 1.0], [2.0, 3.0], [np.nan, 5.0]], "a", size=6)


@pytest.mark.parametrize("call, name", [
    (lambda: error_metrics(["a", "b", "c"], [1.0, 2.0, 3.0]), "error_metrics preds"),
    (lambda: nmf_mu([["x"]], 1), "nmf_mu input"),
    (lambda: nmf_mu([[1.0, 2.0], [3.0]], 1), "nmf_mu input"),
    (lambda: unflatten_to_voxel([[1.0, 2.0], [3.0]], (2, 1, 1, 2)), "unflatten_to_voxel input"),
    (lambda: check_finite(np.array([1.0, 2j], dtype=object), "x"), "x"),
    (lambda: real_array([10**400], "x"), "x"),
], ids=["strings", "string-matrix", "ragged", "ragged-unflatten", "complex-objects", "huge-int"])
def test_what_the_cast_cannot_take_is_refused_naming_the_argument(call, name):
    # numpy's ValueError, TypeError or OverflowError came out bare
    with pytest.raises(DomainError, match=re.escape(f"{name} must be an array of real numbers")):
        call()


def _wave(n=50):
    return Waveform(np.sin(np.arange(n)), 25.0)


# Every public real-valued parameter that errors.check_real guards, as
# (site, the parameter's name in the error, a call taking the value,
# values accepted at or next to the boundary, values refused there)
_REAL_SITES = [
    # a tone must lie below fs / 2: 1.2 Hz here, and the clip's 2.4 Hz harmonic
    ("gen_pulse fs", "fs", lambda v: gen_pulse(v, 72.0, 30.0), [np.nextafter(2.4, 3.0)], [2.4, 1.0, 0.0]),
    ("gen_pulse rate", "rate_bpm", lambda v: gen_pulse(25.0, v, 30.0), [30.0, 220.0], [29.99, 220.01]),
    ("gen_resp rate", "rate_bpm", lambda v: gen_resp(25.0, v, 30.0), [4.0, 40.0], [3.99, 40.01]),
    ("gen_pulse duration", "duration_s", lambda v: gen_pulse(25.0, 72.0, v), [1.0], [0.999]),
    ("gen_pulse noise", "noise_sigma", lambda v: gen_pulse(25.0, 72.0, 30.0, noise_sigma=v), [0.0], [-1e-300]),
    # a negative ratio flips the harmonic's phase, so no bound
    ("gen_pulse harmonic_ratio", "harmonic_ratio", lambda v: gen_pulse(25.0, 72.0, 30.0, harmonic_ratio=v),
     [-1.0, 0.0], []),
    ("gen_clip fs", "fs", lambda v: gen_clip(4, 9, 1, fs=v), [np.nextafter(4.8, 5.0)], [4.8, 0.1, 0.0]),
    ("gen_clip noise", "noise_sigma", lambda v: gen_clip(4, 9, 1, noise_sigma=v), [0.0], [-1e-300]),
    ("gen_planted_embedding noise", "noise_sigma",
     lambda v: gen_planted_embedding((50, 1, 1, 1), ((0, 0, 0),), _wave(), v),
     [0.0], [-1e-300]),
    ("Waveform fs", "fs", lambda v: Waveform([1.0], v), [5e-324], [0.0]),
    ("instance_norm epsilon", "epsilon", lambda v: instance_norm(VoxelEmbedding(np.ones((2, 1, 2, 2))), v),
     [5e-324], [0.0]),
    ("RateBand lo", "lo_hz", lambda v: RateBand(v, 1.0), [5e-324], [0.0]),
    ("RateBand hi", "hi_hz", lambda v: RateBand(0.6, v), [np.nextafter(0.6, 1.0)], [0.6]),
    ("macc max_lag_s", "max_lag_s", lambda v: macc(_wave(), _wave(), v), [0.0], [-1e-300]),
    # rates outside the band are refused as the mask oracle in test_metrics.py refuses them
    ("snr ref_rate", "ref_rate", lambda v: snr(_wave(), v, HR_BAND), [36.0, 198.0], []),
    ("split_windows window_s", "window_s", lambda v: split_windows(_wave(), v, min_s=0.0), [0.04], [0.039]),
    ("fd_gradient_check step", "step", lambda v: fd_gradient_check("smooth_l1", ([0.0, 3.0], [1.0, 0.0]), v),
     [1e-5], [0.0]),
    ("grbf_basis sigma", "sigma", lambda v: grbf_basis(8, v, 1), [1e-150], [0.0, 1e-170, 1e200]),
    ("AttentionConfig grbf_sigma", "grbf_sigma", lambda v: AttentionConfig("grbf", grbf_sigma=v, grbf_delta_t=1),
     [1e-150], [0.0, 1e-170]),
    ("RunConfig window_s", "window_s", lambda v: replace(load_run_config(), window_s=v), [5e-324], [0.0]),
    ("RunConfig max_lag_s", "max_lag_s", lambda v: replace(load_run_config(), max_lag_s=v), [0.0], [-1e-300]),
]
_SITE_IDS = [site for site, *_ in _REAL_SITES]


@pytest.mark.parametrize("site, name, call, accepted, refused", _REAL_SITES, ids=_SITE_IDS)
def test_each_real_site_keeps_its_boundaries_and_refuses_non_reals(site, name, call, accepted, refused):
    for value in accepted:
        call(value)
    for value in refused + [np.nan, np.inf, -np.inf, True, "1"]:
        with pytest.raises(DomainError, match=name):
            call(value)


@pytest.mark.parametrize("call", [
    lambda: instance_norm(VoxelEmbedding(np.ones((2, 1, 2, 2))), np.inf),
    lambda: macc(_wave(), _wave(), np.inf),
    lambda: RateBand(0.6, np.inf),
    lambda: gen_pulse("25", 72.0, 30.0),
    lambda: Waveform([1.0], True),
], ids=["instance-norm-epsilon-inf", "macc-max-lag-inf", "band-edge-inf", "gen-pulse-str-fs", "waveform-bool-fs"])
def test_values_accepted_before_the_shared_checks_are_refused(call):
    # epsilon = inf gave all zeros, the infinite lag and band edge were
    # taken, a str fs raised a bare TypeError and fs = True was 1 Hz
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("ini, name", [
    ("[metrics]\nmax_lag_s = inf\n", "max_lag_s"),
    ("[metrics]\nhr_hi_hz = inf\n", "hi_hz"),
], ids=["max-lag-s-inf", "hr-hi-hz-inf"])
def test_config_check_refuses_an_infinite_metrics_value(tmp_path, capsys, ini, name):
    # both passed config --check, which exited 0
    path = tmp_path / "run.ini"
    path.write_text(ini)
    assert main(["config", "--check", str(path)]) == 1
    assert name in capsys.readouterr().err
