import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from physfactor import network
from physfactor.attention import AttentionConfig
from physfactor.errors import DomainError
from physfactor.network import (
    ConvBlockSpec,
    ModelConfig,
    bvp_branch_forward,
    conv3d_forward,
    forward_multitask,
    param_count,
    rsp_branch_forward,
)
from physfactor.synth import gen_clip, gen_pulse
from physfactor.tensors import VoxelEmbedding


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


@settings(max_examples=150, deadline=None)
@given(conv_cases())
# 5x5 output pixels: several frames per chunk, 23 frames leave a partial one
@example(_case(23, 4, 5, 5, 6))
# 27x26 = 702 output pixels, more than one chunk holds; one frame each
@example(_case(7, 3, 26, 26, 5, kernel=(2, 4, 3), padding=(0, 2, 1)))
def test_conv3d_matches_tap_loop(case):
    x, w, bias, strides, padding = case
    got = conv3d_forward(VoxelEmbedding(x), w, bias, strides, padding)
    want = _conv3d_taps(VoxelEmbedding(x), w, bias, strides, padding)
    assert got.shape == want.shape
    assert _rel_err(got.data, want.data) <= 1e-12


def test_conv3d_examples_straddle_the_chunk():
    # the explicit examples above must keep covering a partial last
    # chunk and an output frame wider than one chunk
    frames = network._CHUNK_COLUMNS // 25
    assert frames > 1 and 23 % frames != 0
    assert 27 * 26 > network._CHUNK_COLUMNS


def test_forward_matches_tap_loop_forward(monkeypatch):
    cfg = ModelConfig(seed=4)
    clip = gen_clip(8, 72, 3, seed=12)
    pulse, resp = forward_multitask(clip, None, cfg)
    monkeypatch.setattr(network, "conv3d_forward", _conv3d_taps)
    pulse_taps, resp_taps = forward_multitask(clip, None, cfg)
    assert _rel_err(pulse.samples, pulse_taps.samples) <= 1e-12
    assert _rel_err(resp.samples, resp_taps.samples) <= 1e-12


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


def _small_cfg(**kw):
    defaults = dict(input_resolution=9, input_channels=3, seed=0)
    defaults.update(kw)
    return ModelConfig(**defaults)


def test_bvp_output_length_matches_frames():
    cfg = _small_cfg()
    for frames in (60, 90):
        clip = gen_clip(frames, 9, 3, seed=1)
        wave = bvp_branch_forward(clip, cfg)
        assert wave.samples.size == frames


def test_rsp_output_length_and_divisibility():
    cfg = _small_cfg()
    clip = gen_clip(160, 9, 3, seed=1)
    assert rsp_branch_forward(clip, cfg).samples.size == 160
    # 180 = 4 * 45, so the stride product divides it
    clip = gen_clip(180, 9, 3, seed=1)
    assert rsp_branch_forward(clip, cfg).samples.size == 180
    with pytest.raises(DomainError):
        rsp_branch_forward(gen_clip(162, 9, 3, seed=1), cfg)


def test_branch_input_validation():
    cfg = _small_cfg()
    with pytest.raises(DomainError):
        bvp_branch_forward(gen_clip(40, 36, 3, seed=0), cfg)     # wrong resolution
    with pytest.raises(DomainError):
        bvp_branch_forward(gen_clip(40, 9, 1, seed=0), cfg)      # wrong channel count


def test_model_config_invariants():
    with pytest.raises(DomainError):
        ModelConfig(input_resolution=64)
    with pytest.raises(DomainError):
        ModelConfig(input_channels=2)
    with pytest.raises(DomainError):
        ModelConfig(bvp_blocks=(ConvBlockSpec(8, temporal_stride=2),))
    with pytest.raises(DomainError):
        ModelConfig(attention_index=7)


def test_rsp_upsample_factor_is_the_stride_product():
    assert ModelConfig().rsp_upsample_factor == 4
    blocks = tuple(ConvBlockSpec(8, temporal_stride=s) for s in (3, 1, 2, 1))
    assert ModelConfig(rsp_blocks=blocks).rsp_upsample_factor == 6


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
    a = bvp_branch_forward(clip, cfg)
    b = bvp_branch_forward(clip, cfg)
    assert np.array_equal(a.samples, b.samples)


def test_attention_toggle_consistency():
    # attention with an all-zero post mix contributes exactly zero
    # through the residual, matching the attention-free forward
    clip = gen_clip(40, 9, 3, seed=8)
    plain = _small_cfg()
    zeroed = AttentionConfig(variant="fsam", rank=4, post_mix=np.zeros((12, 12)))
    with_zero_attention = _small_cfg(bvp_attention=zeroed)
    a = bvp_branch_forward(clip, plain)
    b = bvp_branch_forward(clip, with_zero_attention)
    assert np.array_equal(a.samples, b.samples)


def test_attention_inside_branches():
    att = AttentionConfig(variant="tsfm", rank=4)
    cfg = _small_cfg(bvp_attention=att, rsp_attention=att, seed=2)
    clip = gen_clip(80, 9, 3, seed=9)
    target = gen_pulse(25.0, 72.0, 3.2).samples  # 80 samples
    pulse = bvp_branch_forward(clip, cfg, target=target)
    resp = rsp_branch_forward(clip, cfg, target=target)  # resampled to 20 inside
    assert pulse.samples.size == 80
    assert resp.samples.size == 80
    with pytest.raises(DomainError):
        bvp_branch_forward(clip, cfg, target=target[:-1])
    with pytest.raises(DomainError):
        bvp_branch_forward(clip, cfg)  # tsfm without target


def test_param_count_positive_and_stable():
    cfg = _small_cfg()
    assert param_count(cfg) == param_count(cfg)
    assert param_count(cfg) > 1000
