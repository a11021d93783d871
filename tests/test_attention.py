import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
from physfactor.factorize import _band_block, constrained_nmf_mu, grbf_basis, nmf_mu, target_basis


def _rand_eps(shape=(20, 4, 3, 3), seed=0, shift=0.0):
    return VoxelEmbedding(np.random.default_rng(seed).normal(size=shape) + shift)


def test_channel_mix_identity_and_relu():
    pos = VoxelEmbedding(np.abs(np.random.default_rng(1).normal(size=(6, 3, 2, 2))))
    assert np.array_equal(channel_mix_relu(pos).data, pos.data)

    mixed_sign = _rand_eps((6, 3, 2, 2), seed=2)
    out = channel_mix_relu(mixed_sign)
    assert np.array_equal(out.data, np.maximum(mixed_sign.data, 0.0))

    negated = channel_mix_relu(VoxelEmbedding(-pos.data))
    assert np.array_equal(negated.data, np.zeros_like(pos.data))


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


def test_grbf_defaults_are_the_ini_defaults():
    eps = _rand_eps((20, 4, 3, 3), seed=3)
    got = compute_attention(eps, AttentionConfig("grbf"))
    want = compute_attention(eps, AttentionConfig("grbf", grbf_sigma=2.0, grbf_delta_t=4))
    assert np.array_equal(got.attended.data, want.attended.data)
    assert np.array_equal(got.excited.data, want.excited.data)
    assert np.array_equal(got.factorization.error_trace, want.factorization.error_trace)


def _solve_cases():
    """(matrix, target, {variant: the solver's own result}) for solve."""
    v = flatten_to_matrix(VoxelEmbedding(np.abs(_rand_eps((20, 4, 3, 3)).data)))
    y = np.sin(np.arange(20) * 0.3)
    g = grbf_basis(20, 1.5, 3)
    return v, y, {
        "fsam": nmf_mu(v, 3, 5, 2),
        "grbf": constrained_nmf_mu(v, _band_block(g, slice(0, g.m), slice(0, g.k)), 3, 5, 2),
        "tsfm": constrained_nmf_mu(v, target_basis(y, 20), 3, 5, 2),
    }


def _solve_cfg(variant):
    return AttentionConfig(variant=variant, rank=3, iterations=5, grbf_sigma=1.5, grbf_delta_t=3, seed=2)


def test_solve_dispatches_each_variant():
    v, y, expected = _solve_cases()
    for variant, want in expected.items():
        cfg = _solve_cfg(variant)
        got = solve(v, cfg, y)
        assert np.array_equal(got.low_rank, want.low_rank)
        assert np.array_equal(got.error_trace, want.error_trace)
        out = compute_attention(VoxelEmbedding(v.reshape(20, 4, 3, 3)), cfg, y)
        assert np.array_equal(out.factorization.low_rank, want.low_rank)
    with pytest.raises(DomainError, match="target"):
        solve(v, AttentionConfig(variant="tsfm"))


@pytest.mark.parametrize("variant", ["fsam", "grbf", "tsfm"])
@pytest.mark.parametrize("form", ["writeable-ndarray", "nested-list"])
def test_solve_takes_any_2d_array_like(variant, form):
    # grbf and tsfm read v.m, which a plain array lacks: AttributeError
    v, y, expected = _solve_cases()
    got = solve(np.array(v) if form == "writeable-ndarray" else v.tolist(), _solve_cfg(variant), y)
    want = expected[variant]
    for a, b in ((got.w, want.w), (got.h, want.h), (got.low_rank, want.low_rank),
                 (got.error_trace, want.error_trace)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("variant", ["fsam", "grbf", "tsfm"])
@pytest.mark.parametrize("shape", [(0, 5), (20, 0)])
def test_solve_refuses_an_empty_matrix(variant, shape):
    # numpy's bare ValueError for a max over no entries
    with pytest.raises(DomainError):
        solve(np.zeros(shape), _solve_cfg(variant), np.sin(np.arange(20) * 0.3))


@pytest.mark.parametrize("variant", ["fsam", "grbf", "tsfm"])
@pytest.mark.parametrize("v", [np.ones(20), np.float64(1.0), [1.0] * 20], ids=["1d", "0d", "list"])
def test_solve_refuses_what_is_no_matrix_with_the_solvers_error(variant, v):
    with pytest.raises(DomainError, match="expects a 2D matrix"):
        solve(v, _solve_cfg(variant), np.sin(np.arange(20) * 0.3))


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


@pytest.mark.parametrize("kwargs, key", [
    ({"rank": 0}, "rank"),
    ({"rank": 2.5}, "rank"),
    ({"iterations": 1.5}, "iterations"),
    ({"grbf_sigma": -1.0, "grbf_delta_t": 4}, "grbf_sigma"),
    ({"grbf_sigma": np.nan, "grbf_delta_t": 4}, "grbf_sigma"),
    ({"grbf_sigma": 2.0, "grbf_delta_t": 0}, "grbf_delta_t"),
    ({"grbf_sigma": 2.0, "grbf_delta_t": 2.5}, "grbf_delta_t"),
    ({"grbf_sigma": 0.0}, "grbf_sigma"),
    ({"grbf_delta_t": 0}, "grbf_delta_t"),
])
@pytest.mark.parametrize("variant", ["fsam", "grbf"])
def test_config_checks_rank_and_grbf_parameters_where_given(kwargs, key, variant):
    # refused here rather than by the solver or grbf_basis, whatever the
    # variant, so that a run config fails at load time
    with pytest.raises(DomainError, match=key):
        AttentionConfig(variant=variant, **kwargs)


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


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def embedding_and_target(draw):
    t = draw(st.integers(1, 12))
    shape = (t,) + tuple(draw(st.integers(1, 3)) for _ in range(3))
    data = draw(arrays(np.float64, shape, elements=finite))
    target = draw(arrays(np.float64, t, elements=finite))
    return data, target


@settings(max_examples=300, deadline=None)
@given(embedding_and_target())
def test_csim_map_stays_in_unit_interval(case):
    data, target = case
    assume(np.any(target != 0.0))
    cs = csim_map(VoxelEmbedding(data), target)
    assert cs.shape == data.shape[1:]
    assert np.all((cs >= 0.0) & (cs <= 1.0))


def test_csim_map_extreme_scales():
    y = np.array([1.0, -2.0, 0.5])
    for scale in (1e300, 1e-320):
        data = (scale * np.array([1.0, -2.0, 0.5, 2.0, 1.0, 0.0])).reshape(2, 3, 1, 1).transpose(1, 0, 2, 3)
        cs = csim_map(VoxelEmbedding(data), y)
        assert cs[0, 0, 0] == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= cs[1, 0, 0] < 1.0
    tiny = csim_map(VoxelEmbedding(y.reshape(3, 1, 1, 1)), 1e-320 * y)
    assert tiny[0, 0, 0] == pytest.approx(1.0, abs=1e-12)


def test_excitation_refuses_a_product_beyond_float64():
    # eps * attended squares the embedding's scale: beyond about 1.3e154
    # it overflowed, and the excited embedding came back NaN with
    # numpy's overflow warning; then the refusal named instance_norm's
    # channel maxima, an internal of the library, not the excitation
    eps = np.random.default_rng(0).random((40, 4, 3, 3))
    assert np.isfinite(compute_attention(VoxelEmbedding(1e150 * eps), AttentionConfig()).excited.data).all()
    with pytest.raises(DomainError, match=r"^excite: eps \* attended overflows float64"):
        compute_attention(VoxelEmbedding(1e160 * eps), AttentionConfig())


def test_excite_names_what_is_not_finite():
    big = VoxelEmbedding(np.full((4, 1, 2, 2), 1e200))
    ones = VoxelEmbedding(np.ones((4, 1, 2, 2)))
    bad = np.ones((4, 1, 2, 2))
    bad[2, 0, 1, 0] = -np.inf
    with pytest.raises(DomainError, match=r"^excite: eps \* attended overflows float64"):
        excite(big, big)
    with pytest.raises(DomainError, match="^excite embedding must be finite, got -inf"):
        excite(VoxelEmbedding(bad), ones)
    with pytest.raises(DomainError, match="^excite attended must be finite, got nan"):
        excite(ones, VoxelEmbedding(np.where(bad < 0, np.nan, 1.0)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_csim_map_rejects_non_finite(bad):
    data = np.ones((4, 1, 2, 2))
    y = np.arange(4.0)
    with pytest.raises(DomainError, match="finite"):
        csim_map(VoxelEmbedding(data.copy()), np.where(y == 2, bad, y))
    data[1, 0, 1, 1] = bad
    with pytest.raises(DomainError, match="finite"):
        csim_map(VoxelEmbedding(data), y)


def test_tsfm_span_property():
    # with identity mixing the attended tensor is the reconstruction
    # itself, so every temporal column must be parallel to the basis
    eps = _rand_eps((30, 3, 2, 2), seed=9, shift=1.0)
    y = np.sin(np.arange(30) * 0.41) + 0.2 * np.cos(np.arange(30) * 0.13)
    out = compute_attention(eps, AttentionConfig(variant="tsfm", rank=5), y)
    basis = target_basis(y, 30)[:, 0]
    flat = flatten_to_matrix(out.attended)
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
