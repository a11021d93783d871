import numpy as np
import pytest

from physfactor.attention import (
    AttentionConfig,
    channel_mix_relu,
    compute_attention,
    csim_map,
    excite,
    solve,
)
from physfactor.errors import DomainError
from physfactor.tensors import VoxelEmbedding, flatten_to_matrix, instance_norm
from physfactor.factorize import constrained_nmf_mu, grbf_basis, nmf_mu, target_basis


def _rand_eps(shape=(20, 4, 3, 3), seed=0, shift=0.0):
    return VoxelEmbedding(np.random.default_rng(seed).normal(size=shape) + shift)


def test_channel_mix_identity_and_relu():
    pos = VoxelEmbedding(np.abs(np.random.default_rng(1).normal(size=(6, 3, 2, 2))))
    assert np.array_equal(channel_mix_relu(pos).data, pos.data)

    mixed_sign = _rand_eps((6, 3, 2, 2), seed=2)
    out = channel_mix_relu(mixed_sign, np.eye(3))
    assert np.array_equal(out.data, np.maximum(mixed_sign.data, 0.0))

    negated = channel_mix_relu(pos, -np.eye(3))
    assert np.array_equal(negated.data, np.zeros_like(pos.data))


def test_channel_mix_weight_shape():
    with pytest.raises(DomainError):
        channel_mix_relu(_rand_eps((4, 3, 2, 2)), np.eye(2))


def test_compute_attention_shapes_all_variants():
    eps = _rand_eps((20, 4, 3, 3), seed=3)
    target = np.sin(np.arange(20) * 0.6)

    out = compute_attention(eps, AttentionConfig(variant="tsfm"), target)
    assert out.attended.shape == (20, 4, 3, 3)
    assert out.excited.shape == (20, 4, 3, 3)
    assert out.attended.data.min() >= 0.0

    out = compute_attention(eps, AttentionConfig(variant="fsam"))
    assert out.excited.shape == (20, 4, 3, 3)

    out = compute_attention(eps, AttentionConfig(variant="grbf", grbf_sigma=2.0, grbf_delta_t=4))
    assert out.excited.shape == (20, 4, 3, 3)
    assert len(out.factorization.error_trace) == 4


def test_solve_dispatches_each_variant():
    v = flatten_to_matrix(VoxelEmbedding(np.abs(_rand_eps((20, 4, 3, 3)).data)))
    y = np.sin(np.arange(20) * 0.3)
    expected = {
        "fsam": nmf_mu(v, 3, 5, 2, guard=1e-5),
        "grbf": constrained_nmf_mu(v, grbf_basis(20, 1.5, 3).phi, 3, 5, 2, guard=1e-5),
        "tsfm": constrained_nmf_mu(v, target_basis(y, 20).basis, 3, 5, 2, guard=1e-5),
    }
    for variant, want in expected.items():
        cfg = AttentionConfig(variant=variant, rank=3, iterations=5, epsilon=1e-5,
                              grbf_sigma=1.5, grbf_delta_t=3, seed=2)
        got = solve(v, cfg, y)
        assert np.array_equal(got.low_rank, want.low_rank)
        assert np.array_equal(got.error_trace, want.error_trace)
        out = compute_attention(VoxelEmbedding(v.data.reshape(20, 4, 3, 3)), cfg, y)
        assert np.array_equal(out.factorization.low_rank, want.low_rank)
    with pytest.raises(DomainError, match="target"):
        solve(v, AttentionConfig(variant="tsfm"))


def test_tsfm_target_errors():
    eps = _rand_eps((20, 4, 3, 3))
    cfg = AttentionConfig(variant="tsfm")
    with pytest.raises(DomainError):
        compute_attention(eps, cfg)
    with pytest.raises(DomainError):
        compute_attention(eps, cfg, np.sin(np.arange(19) * 0.3))


def test_config_validation():
    with pytest.raises(DomainError):
        AttentionConfig(variant="mystery")
    with pytest.raises(DomainError):
        AttentionConfig(iterations=0)
    with pytest.raises(DomainError):
        AttentionConfig(variant="grbf")  # sigma and delta_t missing


def test_excite_passthrough_and_identity():
    eps = _rand_eps((8, 2, 3, 3), seed=5)
    zeros = VoxelEmbedding(np.zeros(eps.shape))
    assert np.array_equal(excite(eps, zeros).data, eps.data)

    ones = VoxelEmbedding(np.ones(eps.shape))
    expected = eps.data + instance_norm(eps).data
    assert np.allclose(excite(eps, ones).data, expected, atol=1e-12)

    with pytest.raises(DomainError):
        excite(eps, VoxelEmbedding(np.zeros((8, 2, 3, 2))))


def test_csim_map_values():
    t = np.arange(40)
    y = np.sin(2 * np.pi * t / 20.0)       # two whole periods
    orth = np.cos(2 * np.pi * t / 20.0)
    data = np.zeros((40, 1, 2, 2))
    data[:, 0, 0, 0] = y
    data[:, 0, 0, 1] = -y
    data[:, 0, 1, 0] = orth
    # [0, 1, 1] stays a zero-norm trace
    cs = csim_map(VoxelEmbedding(data), y)
    assert cs[0, 0, 0] == pytest.approx(1.0, abs=1e-12)
    assert cs[0, 0, 1] == pytest.approx(1.0, abs=1e-12)
    assert abs(cs[0, 1, 0]) <= 1e-6
    assert cs[0, 1, 1] == 0.0

    with pytest.raises(DomainError):
        csim_map(VoxelEmbedding(data), np.zeros(40))
    with pytest.raises(DomainError):
        csim_map(VoxelEmbedding(data), y[:-1])


def test_tsfm_span_property():
    # with identity mixing the attended tensor is the reconstruction
    # itself, so every temporal column must be parallel to the basis
    eps = _rand_eps((30, 3, 2, 2), seed=9, shift=1.0)
    y = np.sin(np.arange(30) * 0.41) + 0.2 * np.cos(np.arange(30) * 0.13)
    out = compute_attention(eps, AttentionConfig(variant="tsfm", rank=5), y)
    basis = target_basis(y, 30).basis[:, 0]
    flat = flatten_to_matrix(out.attended).data
    for j in range(flat.shape[1]):
        col = flat[:, j]
        norm = np.linalg.norm(col)
        assert norm > 0
        cos = abs(col @ basis) / (norm * np.linalg.norm(basis))
        assert abs(cos - 1.0) <= 1e-6


def test_attention_deterministic():
    eps = _rand_eps((16, 2, 3, 3), seed=12)
    cfg = AttentionConfig(variant="fsam", rank=4, seed=77)
    a = compute_attention(eps, cfg)
    b = compute_attention(eps, cfg)
    assert np.array_equal(a.attended.data, b.attended.data)
    assert np.array_equal(a.excited.data, b.excited.data)


def test_custom_mixing_weights():
    rng = np.random.default_rng(15)
    eps = _rand_eps((12, 3, 2, 2), seed=15, shift=0.5)
    pre = rng.normal(size=(3, 3))
    post = rng.normal(size=(3, 3))
    out = compute_attention(eps, AttentionConfig(variant="fsam", pre_mix=pre, post_mix=post))
    assert out.attended.shape == eps.shape
    assert out.attended.data.min() >= 0.0
