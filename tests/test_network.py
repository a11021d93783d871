import dataclasses
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from physfactor import network
from physfactor.attention import AttentionConfig
from physfactor.config import load_run_config
from physfactor.errors import DomainError
from physfactor.network import (
    ModelConfig,
    conv3d_forward,
    forward_multitask,
    param_count,
)
from physfactor.synth import gen_clip, gen_pulse, gen_resp
from physfactor.tensors import VoxelEmbedding, Waveform


def _naive_conv3d(x, w, bias, strides, padding):
    # reference implementation with explicit loops, small inputs only
    st, sa, sb = strides
    pt, pa, pb = padding
    xp = np.pad(x, ((pt, pt), (0, 0), (pa, pa), (pb, pb)))
    co, ci, kt, ka, kb = w.shape
    t_out = (xp.shape[0] - kt) // st + 1
    a_out = (xp.shape[2] - ka) // sa + 1
    b_out = (xp.shape[3] - kb) // sb + 1
    out = np.zeros((t_out, co, a_out, b_out))
    for t in range(t_out):
        for o in range(co):
            for a in range(a_out):
                for b in range(b_out):
                    acc = 0.0
                    for c in range(ci):
                        for dt in range(kt):
                            for da in range(ka):
                                for db in range(kb):
                                    acc += (
                                        w[o, c, dt, da, db]
                                        * xp[t * st + dt, c, a * sa + da, b * sb + db]
                                    )
                    out[t, o, a, b] = acc + bias[o]
    return out


def _conv3d_taps(eps, w, bias=None, strides=(1, 1, 1), padding=(0, 0, 0)):
    # the loop over kernel taps that conv3d_forward replaced, one
    # tensordot over the input channels per tap; kept as the oracle
    st, sa, sb = strides
    pt, pa, pb = padding
    xp = np.pad(eps.data, ((pt, pt), (0, 0), (pa, pa), (pb, pb)))
    t_in, _, a_in, b_in = xp.shape
    co, _, kt, ka, kb = w.shape
    t_out = (t_in - kt) // st + 1
    a_out = (a_in - ka) // sa + 1
    b_out = (b_in - kb) // sb + 1
    out = np.zeros((t_out, a_out, b_out, co))
    for dt in range(kt):
        xt = xp[dt : dt + (t_out - 1) * st + 1 : st]
        for da in range(ka):
            for db in range(kb):
                xs = xt[
                    :,
                    :,
                    da : da + (a_out - 1) * sa + 1 : sa,
                    db : db + (b_out - 1) * sb + 1 : sb,
                ]  # (t_out, in_c, a_out, b_out)
                out += np.tensordot(xs, w[:, :, dt, da, db], axes=([1], [1]))
    out = np.moveaxis(out, 3, 1)
    if bias is not None:
        out = out + np.asarray(bias, dtype=np.float64)[None, :, None, None]
    return VoxelEmbedding(out)


def _rel_err(got, want):
    return np.max(np.abs(got - want)) / max(np.max(np.abs(want)), np.finfo(float).tiny)


def test_conv3d_identity_kernel():
    x = np.random.default_rng(0).normal(size=(6, 3, 4, 4))
    w = np.zeros((3, 3, 1, 1, 1))
    for c in range(3):
        w[c, c, 0, 0, 0] = 1.0
    out = conv3d_forward(VoxelEmbedding(x), w)
    assert np.allclose(out.data, x, atol=1e-12)


def test_conv3d_shape_formula():
    x = VoxelEmbedding(np.zeros((8, 2, 5, 5)))
    w = np.zeros((4, 2, 3, 3, 3))
    out = conv3d_forward(x, w, strides=(1, 1, 1), padding=(1, 1, 1))
    assert out.shape == (8, 4, 5, 5)
    out = conv3d_forward(x, w, strides=(2, 1, 1), padding=(1, 1, 1))
    assert out.shape == (4, 4, 5, 5)


def test_conv3d_kernel_too_large():
    x = VoxelEmbedding(np.zeros((2, 1, 2, 2)))
    w = np.zeros((1, 1, 5, 1, 1))
    with pytest.raises(DomainError):
        conv3d_forward(x, w)


def test_conv3d_matches_naive_loops():
    rng = np.random.default_rng(23)
    x = rng.normal(size=(5, 2, 4, 4))
    w = rng.normal(size=(3, 2, 3, 3, 3))
    bias = rng.normal(size=3)
    for strides, padding in (((1, 1, 1), (1, 1, 1)), ((2, 2, 2), (1, 1, 1)), ((1, 2, 1), (0, 1, 1))):
        got = conv3d_forward(VoxelEmbedding(x), w, bias, strides, padding)
        want = _naive_conv3d(x, w, bias, strides, padding)
        assert np.allclose(got.data, want, atol=1e-10)


def test_conv3d_channel_mismatch():
    x = VoxelEmbedding(np.zeros((4, 2, 3, 3)))
    w = np.zeros((1, 3, 1, 1, 1))
    with pytest.raises(DomainError):
        conv3d_forward(x, w)


@st.composite
def conv_cases(draw):
    ci = draw(st.integers(1, 12))
    co = draw(st.integers(1, 12))
    kernel = tuple(draw(st.integers(1, 5)) for _ in range(3))
    strides = tuple(draw(st.integers(1, 3)) for _ in range(3))
    padding = tuple(draw(st.integers(0, 2)) for _ in range(3))
    # each input extent at least its kernel minus the padding, so the
    # kernel fits the padded input
    t = draw(st.integers(max(1, kernel[0] - 2 * padding[0]), 30))
    a = draw(st.integers(max(1, kernel[1] - 2 * padding[1]), 28))
    b = draw(st.integers(max(1, kernel[2] - 2 * padding[2]), 28))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(t, ci, a, b))
    w = rng.normal(size=(co, ci) + kernel)
    bias = rng.normal(size=co) if draw(st.booleans()) else None
    return x, w, bias, strides, padding


def _case(t, ci, a, b, co, kernel=(3, 3, 3), strides=(1, 1, 1), padding=(1, 1, 1), seed=0):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(t, ci, a, b)), rng.normal(size=(co, ci) + kernel),
            rng.normal(size=co), strides, padding)


# Shapes that together cover each chunking case of conv3d_forward; see
# test_conv3d_examples_straddle_the_chunk.
_CHUNK_EXAMPLES = {
    # 5x5 output pixels: many frames per chunk, and 100 leave a partial one
    "partial-last": dict(t=100, ci=4, a=5, b=5, co=6),
    # 26x26 output pixels, 4 frames per chunk; the last window of the
    # first chunk ends on the input frame where the second chunk starts
    "stride-2-halo": dict(t=11, ci=2, a=26, b=26, co=3, strides=(2, 1, 1)),
    # 49x48 output pixels, more than one chunk holds
    "wide-frame": dict(t=7, ci=2, a=48, b=48, co=3, kernel=(2, 4, 3), padding=(0, 2, 1)),
    # kt = 1 with a temporal stride of 3: no halo, skipped frames, and a
    # last chunk that reads only the zero padding after the input
    "kt-1": dict(t=9, ci=2, a=21, b=21, co=3, kernel=(1, 3, 3), strides=(3, 1, 1), padding=(2, 1, 1)),
}


# Shapes on either side of the rule that picks the frame operator (input
# pixels a*b at most the kernel's ka*kb taps) over the patch matrix; see
# test_conv3d_examples_take_their_lowering.
_FRAME_EXAMPLES = {
    # a*b = ka*kb: the 3x3 input of the 9 px forward's block 2
    "frame-operator": dict(t=40, ci=3, a=3, b=3, co=4, strides=(1, 2, 2)),
    # a*b = ka*kb + 1: the patch matrix
    "patch-matrix": dict(t=40, ci=3, a=2, b=5, co=4, strides=(1, 2, 2)),
    # a 2x1 input under a 3x3 kernel, which reads mostly padding
    "smaller-than-kernel": dict(t=12, ci=2, a=2, b=1, co=3),
    "stride-2": dict(t=11, ci=3, a=2, b=2, co=4, strides=(2, 1, 1)),
    # the first and last output frames read only padding
    "kt-1-stride-3": dict(t=9, ci=2, a=3, b=3, co=3, kernel=(1, 3, 3), strides=(3, 1, 1), padding=(2, 1, 1)),
}


@settings(max_examples=150, deadline=None)
@given(conv_cases())
@example(_case(**_CHUNK_EXAMPLES["partial-last"]))
@example(_case(**_CHUNK_EXAMPLES["stride-2-halo"]))
@example(_case(**_CHUNK_EXAMPLES["wide-frame"]))
@example(_case(**_CHUNK_EXAMPLES["kt-1"]))
@example(_case(**_FRAME_EXAMPLES["frame-operator"]))
@example(_case(**_FRAME_EXAMPLES["patch-matrix"]))
@example(_case(**_FRAME_EXAMPLES["smaller-than-kernel"]))
@example(_case(**_FRAME_EXAMPLES["stride-2"]))
@example(_case(**_FRAME_EXAMPLES["kt-1-stride-3"]))
def test_conv3d_matches_tap_loop(case):
    x, w, bias, strides, padding = case
    got = conv3d_forward(VoxelEmbedding(x), w, bias, strides, padding)
    want = _conv3d_taps(VoxelEmbedding(x), w, bias, strides, padding)
    assert got.shape == want.shape
    assert _rel_err(got.data, want.data) <= 1e-12


def _chunking(t, a, b, kernel=(3, 3, 3), strides=(1, 1, 1), padding=(1, 1, 1), **_):
    """(t_out, output pixels per frame, output frames per chunk) of a
    _CHUNK_EXAMPLES entry, by the chunk rule of conv3d_forward."""
    t_out, a_out, b_out = (
        (n + 2 * p - k) // s + 1 for n, k, s, p in zip((t, a, b), kernel, strides, padding)
    )
    cols = a_out * b_out
    return t_out, cols, min(t_out, max(4, network._CHUNK_COLUMNS // cols))


def test_conv3d_examples_straddle_the_chunk():
    # the explicit examples above must keep covering each chunking case
    t_out, _, frames = _chunking(**_CHUNK_EXAMPLES["partial-last"])
    assert 1 < frames < t_out and t_out % frames != 0

    ex = _CHUNK_EXAMPLES["stride-2-halo"]
    t_out, _, frames = _chunking(**ex)
    kt, st, pt = 3, ex["strides"][0], 1
    assert st == 2 and kt > st and frames < t_out
    # the last window of chunk 0 ends inside the input, at or past the
    # padded frame where chunk 1 starts
    assert frames * st <= (frames - 1) * st + kt - 1 < ex["t"] + pt

    t_out, cols, frames = _chunking(**_CHUNK_EXAMPLES["wide-frame"])
    assert cols > network._CHUNK_COLUMNS and frames < t_out

    ex = _CHUNK_EXAMPLES["kt-1"]
    t_out, _, frames = _chunking(**ex)
    kt, st, pt = ex["kernel"][0], ex["strides"][0], ex["padding"][0]
    assert kt == 1 and frames < t_out
    # the first output frame of the last chunk reads past the input
    assert (t_out - 1) // frames * frames * st - pt >= ex["t"]


@pytest.mark.parametrize("name", sorted(_FRAME_EXAMPLES))
def test_conv3d_examples_take_their_lowering(monkeypatch, name):
    # the explicit examples above must keep reaching the lowering they
    # are named for
    calls = []
    frame_operator = network._frame_operator_conv
    monkeypatch.setattr(network, "_frame_operator_conv", lambda *a: calls.append(1) or frame_operator(*a))
    x, w, bias, strides, padding = _case(**_FRAME_EXAMPLES[name])
    conv3d_forward(VoxelEmbedding(x), w, bias, strides, padding)
    assert len(calls) == (name != "patch-matrix")


def _forward_against_tap_loop(monkeypatch, cfg, rgb, thermal, *targets):
    pulse, resp = forward_multitask(rgb, thermal, cfg, *targets)
    monkeypatch.setattr(network, "conv3d_forward", _conv3d_taps)
    pulse_taps, resp_taps = forward_multitask(rgb, thermal, cfg, *targets)
    assert _rel_err(pulse.samples, pulse_taps.samples) <= 1e-12
    assert _rel_err(resp.samples, resp_taps.samples) <= 1e-12


def test_forward_matches_tap_loop_forward(monkeypatch):
    # at 72 px every block takes the patch matrix
    _forward_against_tap_loop(monkeypatch, ModelConfig(seed=4), gen_clip(8, 72, 3, seed=12), None)


def test_forward_at_9px_matches_tap_loop_forward(monkeypatch):
    # at 9 px blocks 2 and 3 (3x3 and 2x2 inputs) take the frame operator
    cfg = ModelConfig(input_resolution=9, input_channels=4, seed=3,
                      bvp_attention=AttentionConfig("grbf"), rsp_attention=AttentionConfig("tsfm"))
    rgb, thermal = gen_clip(120, 9, 3, seed=7), gen_clip(120, 9, 1, seed=8)
    targets = gen_pulse(25.0, 72.0, 4.8).samples, gen_resp(25.0, 15.0, 4.8).samples
    _forward_against_tap_loop(monkeypatch, cfg, rgb, thermal, *targets)


@pytest.mark.parametrize("weights, bias", [
    (np.full((2, 2, 3, 3, 3), np.nan), None),
    (np.ones((2, 2, 3, 3, 3)), np.array([0.0, np.inf])),
    (np.ones((2, 2, 3, 3, 3)), np.array([0.5])),
    (np.ones((2, 2, 3, 3, 3)), np.zeros(3)),
    (np.ones((3, 2, 0, 3, 3)), None),
], ids=["nan-weights", "inf-bias", "length-1-bias", "wrong-length-bias", "zero-extent-kernel"])
def test_conv3d_rejects_bad_weights_and_bias(weights, bias):
    x = VoxelEmbedding(np.ones((5, 2, 4, 4)))
    with pytest.raises(DomainError):
        conv3d_forward(x, weights, bias, padding=(1, 1, 1))


@pytest.mark.parametrize("strides, padding", [
    ((1.7, 1, 1), (0, 0, 0)),
    ((1, 1, 1), (0.5, 0, 0)),
    ((1, 1), (0, 0, 0)),
], ids=["float-stride", "float-padding", "two-strides"])
def test_conv3d_requires_integer_triples(strides, padding):
    x = VoxelEmbedding(np.ones((5, 2, 4, 4)))
    with pytest.raises(DomainError):
        conv3d_forward(x, np.ones((1, 2, 1, 1, 1)), None, strides, padding)


@pytest.mark.parametrize("strides, padding", [
    (1, (0, 0, 0)),
    ((1, 1, 1), 0),
    ((1, 0, 1), (0, 0, 0)),
    ((1, 1, 1), (0, 0, -1)),
], ids=["scalar-stride", "scalar-padding", "stride-0", "padding-minus-1"])
def test_conv3d_refuses_out_of_domain_strides_and_padding(strides, padding):
    # with test_conv3d_requires_integer_triples, every shape of bad
    # stride or padding the removed triple check refused
    x = VoxelEmbedding(np.ones((5, 2, 4, 4)))
    with pytest.raises(DomainError, match="strides|padding"):
        conv3d_forward(x, np.ones((1, 2, 1, 1, 1)), None, strides, padding)


@pytest.mark.parametrize("seed", [-1, 1.5, True])
@pytest.mark.parametrize("config", [ModelConfig, AttentionConfig])
def test_seeds_are_checked_when_the_config_is_built(config, seed):
    # ModelConfig took all three (-1 failed in numpy at forward time,
    # 1.5 with a TypeError, True ran as seed 1), and AttentionConfig
    # took -1 until a solve ran
    with pytest.raises(DomainError, match="seed"):
        config(seed=seed)


def _small_cfg(**kw):
    defaults = dict(input_resolution=9, input_channels=3, seed=0)
    defaults.update(kw)
    return ModelConfig(**defaults)


def test_bvp_output_length_matches_frames():
    cfg = _small_cfg()
    for frames in (60, 90):
        clip = gen_clip(frames, 9, 3, seed=1)
        wave = network._branch_forward(clip, cfg, "bvp", None, 25.0)
        assert wave.samples.size == frames


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.integers(1, 3000), elements=st.floats(allow_nan=False, allow_subnormal=True)))
@example(np.array([-0.0, 5e-324, np.inf, -np.inf, 1.0]))
def test_resample_to_its_own_length_returns_the_input_bytes_in_a_new_array(x):
    # the oracle of the copy branch both branches' final resample had for
    # equal lengths: np.interp at the grid nodes returns its input
    x.flags.writeable = False
    got = network._resample_linear(x, x.size)
    assert got.dtype == np.float64 and got.tobytes() == x.tobytes()
    assert not np.shares_memory(got, x)


def test_rsp_output_length_and_divisibility():
    cfg = _small_cfg()
    clip = gen_clip(160, 9, 3, seed=1)
    assert forward_multitask(clip, None, cfg)[1].samples.size == 160
    # 180 = 4 * 45, so the stride product divides it
    clip = gen_clip(180, 9, 3, seed=1)
    assert forward_multitask(clip, None, cfg)[1].samples.size == 180
    with pytest.raises(DomainError):
        forward_multitask(gen_clip(162, 9, 3, seed=1), None, cfg)


def test_branch_input_validation():
    cfg = _small_cfg()
    with pytest.raises(DomainError):
        forward_multitask(gen_clip(40, 36, 3, seed=0), None, cfg)     # wrong resolution
    with pytest.raises(DomainError):
        forward_multitask(gen_clip(40, 9, 1, seed=0), None, cfg)      # wrong channel count


def test_model_config_invariants():
    with pytest.raises(DomainError):
        ModelConfig(input_resolution=64)
    with pytest.raises(DomainError):
        ModelConfig(input_channels=2)
    with pytest.raises(DomainError):
        ModelConfig(rsp_temporal_strides=(2, 2, 1))
    with pytest.raises(DomainError):
        ModelConfig(attention_index=7)


@pytest.mark.parametrize("field, value", [
    ("bvp_channels", ()),
    ("bvp_channels", (8, 0, 12, 8)),
    ("rsp_channels", (8, 12.0, 12, 8)),
    ("rsp_temporal_strides", (0, 2, 1, 1)),
    ("spatial_kernel", 0),
    ("temporal_kernel", 2),
    ("temporal_kernel", 3.0),
    ("attention_index", 1.5),
])
def test_model_config_refuses_out_of_domain_blocks(field, value):
    # unchecked, these fail inside the forward pass (numpy errors, a
    # division by zero, an empty branch) or, for an even temporal kernel,
    # make the pulse branch return more samples than frames; a fractional
    # attention_index matches no block, so attention silently never runs
    with pytest.raises(DomainError, match=field):
        ModelConfig(**{field: value})


def test_rsp_upsample_factor_is_the_stride_product():
    assert ModelConfig().rsp_upsample_factor == 4
    assert ModelConfig(rsp_temporal_strides=(3, 1, 2, 1)).rsp_upsample_factor == 6


def test_forward_multitask_routing():
    cfg = _small_cfg(input_channels=4)
    rgb = gen_clip(80, 9, 3, seed=3)
    thermal = gen_clip(80, 9, 1, seed=4)
    pulse, resp = forward_multitask(rgb, thermal, cfg)
    assert pulse.samples.size == 80 and resp.samples.size == 80

    single = _small_cfg(input_channels=3)
    pulse, resp = forward_multitask(rgb, None, single)
    assert pulse.samples.size == 80 and resp.samples.size == 80

    with pytest.raises(DomainError):
        forward_multitask(None, None, cfg)
    with pytest.raises(DomainError):
        forward_multitask(rgb, gen_clip(40, 9, 1, seed=4), cfg)


def test_forward_deterministic():
    cfg = _small_cfg(seed=5)
    clip = gen_clip(60, 9, 3, seed=6)
    a = network._branch_forward(clip, cfg, "bvp", None, 25.0)
    b = network._branch_forward(clip, cfg, "bvp", None, 25.0)
    assert np.array_equal(a.samples, b.samples)


def test_attention_inside_branches():
    att = AttentionConfig(variant="tsfm", rank=4)
    cfg = _small_cfg(bvp_attention=att, rsp_attention=att, seed=2)
    clip = gen_clip(80, 9, 3, seed=9)
    target = gen_pulse(25.0, 72.0, 3.2).samples  # 80 samples
    pulse, resp = forward_multitask(clip, None, cfg, target, target)  # rsp resamples it to 20 inside
    assert pulse.samples.size == 80
    assert resp.samples.size == 80
    with pytest.raises(DomainError):
        forward_multitask(clip, None, cfg, target[:-1], target)
    with pytest.raises(DomainError):
        network._branch_forward(clip, cfg, "bvp", None, 25.0)  # tsfm without target


def test_param_count_positive_and_stable():
    cfg = _small_cfg()
    assert param_count(cfg) == param_count(cfg)
    assert param_count(cfg) > 1000


def _draw_oracle(cfg, branch):
    """An independent copy of the per-branch draw: seeded uniform weights
    in [-k, k], k = 1/sqrt(fan_in), blocks first, then the head."""
    if branch == "bvp":
        blocks = [(c, 1) for c in cfg.bvp_channels]
    else:
        blocks = list(zip(cfg.rsp_channels, cfg.rsp_temporal_strides))
    kt, ks = cfg.temporal_kernel, cfg.spatial_kernel
    rng = np.random.default_rng([cfg.seed, 0 if branch == "bvp" else 1])
    in_c = cfg.input_channels
    if in_c == 4:
        in_c = 3 if branch == "bvp" else 1
    layers = []
    for out_c, stride in blocks:
        k = 1.0 / np.sqrt(in_c * kt * ks ** 2)
        w = rng.uniform(-k, k, size=(out_c, in_c, kt, ks, ks))
        b = rng.uniform(-k, k, size=out_c)
        layers.append((w, b, stride))
        in_c = out_c
    k = 1.0 / np.sqrt(in_c)
    head_w = rng.uniform(-k, k, size=in_c)
    head_b = float(rng.uniform(-k, k))
    return layers, head_w, head_b


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# (model, its parameter count): the default model, the 4-channel model at
# 9 px of the forward-long9 benchmark, and every [model] key changed
_MODELS = [
    (ModelConfig(), 19538),
    (ModelConfig(input_resolution=9, input_channels=4, seed=1), 19106),
    (load_run_config(Path(__file__).parent / "data" / "nondefault.ini").model_config(), 1050),
]


@pytest.mark.parametrize("cfg, _count", _MODELS, ids=["default", "4-channel", "nondefault"])
def test_weights_equal_the_draw_oracle_and_are_read_only(cfg, _count):
    assert sorted(cfg.weights) == ["bvp", "rsp"]
    for branch, (layers, head_w, head_b) in cfg.weights.items():
        want_layers, want_head_w, want_head_b = _draw_oracle(cfg, branch)
        assert len(layers) == len(want_layers)
        for (w, b, stride), (want_w, want_b, want_stride) in zip(layers, want_layers):
            assert _same_bits(w, want_w) and _same_bits(b, want_b) and stride == want_stride
            assert not w.flags.writeable and not b.flags.writeable
        assert _same_bits(head_w, want_head_w) and head_b == want_head_b
        assert not head_w.flags.writeable
    with pytest.raises(TypeError):
        cfg.weights["bvp"] = cfg.weights["rsp"]
    with pytest.raises(ValueError):
        cfg.weights["bvp"][0][0][0][0] = 0.0


@pytest.mark.parametrize("cfg, count", _MODELS, ids=["default", "4-channel", "nondefault"])
def test_param_count_is_the_shape_formula(cfg, count):
    kt, ks = cfg.temporal_kernel, cfg.spatial_kernel
    split = cfg.input_channels == 4
    total = 0
    for channels, in_c in ((cfg.bvp_channels, 3 if split else cfg.input_channels),
                           (cfg.rsp_channels, 1 if split else cfg.input_channels)):
        for out_c in channels:
            total += out_c * in_c * kt * ks * ks + out_c
            in_c = out_c
        total += in_c + 1
    assert param_count(cfg) == total == count


def test_weights_are_drawn_once_and_only_on_first_use(monkeypatch):
    # the first forward runs its branches on two threads, which must not
    # both draw
    draws = []
    draw = network._init_branch
    monkeypatch.setattr(network, "_init_branch", lambda cfg, branch: draws.append(branch) or draw(cfg, branch))
    load_run_config()
    cfg = _small_cfg(seed=4)
    assert draws == []
    clip = gen_clip(40, 9, 3, seed=2)
    first = forward_multitask(clip, None, cfg)
    second = forward_multitask(clip, None, cfg)
    param_count(cfg)
    assert sorted(draws) == ["bvp", "rsp"]
    for a, b in zip(first, second):
        assert np.array_equal(a.samples, b.samples)


def _count_conv_calls(monkeypatch):
    calls = []
    conv = network.conv3d_forward
    monkeypatch.setattr(network, "conv3d_forward", lambda *a, **k: calls.append(1) or conv(*a, **k))
    return calls


def _with_nan(samples):
    out = np.array(samples)
    out[7] = np.nan
    return out


_PULSE_40 = gen_pulse(25.0, 72.0, 1.6).samples    # 40 samples
_FSAM_72 = load_run_config().model_config()       # fsam on both branches
_GRBF_9 = ModelConfig(input_resolution=9, bvp_attention=AttentionConfig("grbf"))

# (config, clip resolution, forward_multitask keyword arguments, the
# words the error gives); the fsam and grbf attention never read the
# target, so a NaN passed through, a complex target was cast with its
# imaginary part dropped, and fs = nan failed only after both branches;
# a bare array for a modality must be named before its .frames is read,
# and a plain embedding refused now that a clip is one; a clip the
# respiration branch refuses, or a tsfm branch with no target, let the
# pulse branch run first
_BAD_ARGUMENTS = {
    "rgb-36px-for-72px": (_FSAM_72, 36, {}, "clip resolution 36"),
    "thermal-36px-for-72px": (dataclasses.replace(_FSAM_72, input_channels=4), 72,
                              dict(thermal=gen_clip(40, 36, 1, seed=2)), "clip resolution 36"),
    "rgb-for-thermal-bvp": (dataclasses.replace(_GRBF_9, input_channels=1), 9, {}, "bvp branch expects 1"),
    "rgb-for-thermal-rsp": (dataclasses.replace(_FSAM_72, input_channels=4), 72, {}, "rsp branch expects 1"),
    "42-frames-rsp-stride-4": (_FSAM_72, 72, dict(rgb=gen_clip(42, 72, 3, seed=1)), "frame count 42"),
    "ndarray-rgb": (_FSAM_72, 72, dict(rgb=np.zeros((40, 3, 72, 72))), "rgb"),
    "ndarray-thermal": (_FSAM_72, 72, dict(thermal=np.zeros((40, 1, 72, 72))), "thermal"),
    "embedding-rgb": (_FSAM_72, 72, dict(rgb=VoxelEmbedding(np.full((40, 3, 72, 72), 0.5))),
                      "rgb must be a VideoClip"),
    "tsfm-bvp-no-target": (dataclasses.replace(_FSAM_72, bvp_attention=AttentionConfig("tsfm")), 72, {},
                           "bvp_target"),
    "tsfm-rsp-no-target": (dataclasses.replace(_FSAM_72, rsp_attention=AttentionConfig("tsfm")), 72, {},
                           "rsp_target"),
    "nan-target-fsam": (_FSAM_72, 72, dict(bvp_target=_with_nan(_PULSE_40)), "bvp_target"),
    "nan-target-grbf-9px": (_GRBF_9, 9, dict(bvp_target=_with_nan(_PULSE_40)), "bvp_target"),
    "complex-target": (_FSAM_72, 72, dict(rsp_target=_PULSE_40 + 1j), "rsp_target"),
    "short-target": (_FSAM_72, 72, dict(bvp_target=_PULSE_40[:39]), "bvp_target"),
    "nan-fs": (_FSAM_72, 72, dict(fs=float("nan")), "fs"),
}


@pytest.mark.parametrize("name", sorted(_BAD_ARGUMENTS))
def test_forward_checks_its_arguments_before_either_branch_starts(monkeypatch, name):
    cfg, resolution, kwargs, arg = _BAD_ARGUMENTS[name]
    clip = gen_clip(40, resolution, 3, seed=1)
    calls = _count_conv_calls(monkeypatch)
    with pytest.raises(DomainError, match=arg):
        forward_multitask(**{"rgb": clip, "thermal": None, "cfg": cfg, **kwargs})
    assert calls == []


def _forward_case(name):
    """(config, rgb, thermal, bvp target, rsp target) of a forward case."""
    if name == "rgb-72px":
        return _FSAM_72, gen_clip(40, 72, 3, seed=5), None, None, None
    cfg = ModelConfig(input_resolution=9, input_channels=4, seed=3,
                      bvp_attention=AttentionConfig("grbf"), rsp_attention=AttentionConfig("tsfm"))
    return (cfg, gen_clip(120, 9, 3, seed=7), gen_clip(120, 9, 1, seed=8),
            gen_pulse(25.0, 72.0, 4.8).samples, gen_resp(25.0, 15.0, 4.8).samples)


@pytest.mark.parametrize("case", ["rgb-72px", "rgb-thermal-9px-grbf-tsfm"])
def test_forward_equals_two_serial_branch_calls_bit_for_bit(monkeypatch, case):
    # the respiration branch runs on a worker thread; each output is bit
    # for bit its branch run alone
    cfg, rgb, thermal, bvp_target, rsp_target = _forward_case(case)
    rsp_clip = rgb if thermal is None else thermal
    want = (network._branch_forward(rgb, cfg, "bvp", bvp_target, 25.0),
            network._branch_forward(rsp_clip, cfg, "rsp", rsp_target, 25.0))
    threads = {}
    branch_forward = network._branch_forward

    def recorded(clip, cfg, branch, target, fs):
        threads[branch] = threading.get_ident()
        return branch_forward(clip, cfg, branch, target, fs)

    monkeypatch.setattr(network, "_branch_forward", recorded)
    got = forward_multitask(rgb, thermal, cfg, bvp_target, rsp_target)
    for g, w in zip(got, want):
        assert _same_bits(g.samples, w.samples)
    assert threads["bvp"] == threading.get_ident()
    assert threads["rsp"] != threading.get_ident()


def _fake_branches(monkeypatch, failing, seen):
    """Replace _branch_forward with a stand-in that records each branch
    once it is done and raises DomainError(branch) for the failing ones;
    the respiration branch takes longer, so it is still running when
    the pulse branch raises."""
    def branch_forward(clip, cfg, branch, target, fs):
        if branch == "rsp":
            time.sleep(0.05)
        seen.append((branch, np.geterr()["over"]))
        if branch in failing:
            raise DomainError(branch)
        return Waveform(np.zeros(clip.tau), fs)

    monkeypatch.setattr(network, "_branch_forward", branch_forward)


@pytest.mark.parametrize("failing, raised", [(("bvp", "rsp"), "bvp"), (("rsp",), "rsp")],
                         ids=["both-fail", "rsp-fails"])
def test_concurrent_forward_raises_the_serial_error_once_both_branches_finish(monkeypatch, failing, raised):
    seen = []
    _fake_branches(monkeypatch, failing, seen)
    before = threading.active_count()
    with pytest.raises(DomainError, match=f"^{raised}$"):
        forward_multitask(gen_clip(8, 9, 3, seed=0), None, _small_cfg())
    assert sorted(branch for branch, _ in seen) == ["bvp", "rsp"]
    assert threading.active_count() == before


def test_both_branches_run_under_the_callers_numpy_error_state(monkeypatch):
    seen = []
    _fake_branches(monkeypatch, (), seen)
    with np.errstate(over="raise"):
        forward_multitask(gen_clip(8, 9, 3, seed=0), None, _small_cfg())
    assert sorted(seen) == [("bvp", "raise"), ("rsp", "raise")]
