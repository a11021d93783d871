import numpy as np
import pytest

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
