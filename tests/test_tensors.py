import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from physfactor.errors import DomainError
from physfactor.tensors import (
    EmbeddingMatrix,
    VideoClip,
    VoxelEmbedding,
    Waveform,
    flatten_to_matrix,
    hadamard,
    instance_norm,
    unflatten_to_voxel,
)


def test_flatten_forced_example():
    eps = VoxelEmbedding(np.array([1.0, 2.0, 3.0, 4.0]).reshape(2, 1, 1, 2))
    v = flatten_to_matrix(eps)
    assert v.m == 2 and v.n == 2
    assert np.array_equal(v.data, [[1.0, 2.0], [3.0, 4.0]])


def test_flatten_column_order():
    # element [t, c, a, b] must land in column c*(alpha*beta) + a*beta + b
    rng = np.random.default_rng(11)
    eps = VoxelEmbedding(rng.normal(size=(20, 4, 3, 3)))
    v = flatten_to_matrix(eps)
    assert v.data.shape == (20, 36)
    for t in (0, 7, 19):
        for c in range(4):
            for a in range(3):
                for b in range(3):
                    assert v.data[t, c * 9 + a * 3 + b] == eps.data[t, c, a, b]


def test_round_trip_random_shapes():
    rng = np.random.default_rng(0)
    for _ in range(50):
        shape = tuple(int(rng.integers(1, 7)) for _ in range(4))
        eps = VoxelEmbedding(rng.normal(size=shape))
        back = unflatten_to_voxel(flatten_to_matrix(eps), shape)
        assert np.array_equal(back.data, eps.data)


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=4, max_dims=4, max_side=6), elements=st.floats(width=64)))
def test_round_trip_is_bitwise(data):
    # any float64 pattern, NaN payloads and signed zeros included
    eps = VoxelEmbedding(data)
    back = unflatten_to_voxel(flatten_to_matrix(eps), data.shape)
    assert back.data.tobytes() == data.tobytes()


def test_unflatten_examples():
    v = EmbeddingMatrix([[1.0, 2.0], [3.0, 4.0]])
    eps = unflatten_to_voxel(v, (2, 1, 1, 2))
    assert eps.data[0, 0, 0, 1] == 2.0 and eps.data[1, 0, 0, 0] == 3.0

    wide = EmbeddingMatrix(np.zeros((20, 36)))
    assert unflatten_to_voxel(wide, (20, 4, 3, 3)).shape == (20, 4, 3, 3)
    with pytest.raises(DomainError):
        unflatten_to_voxel(wide, (20, 4, 3, 4))


def test_flatten_is_linear():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 2, 3, 2))
    y = rng.normal(size=(5, 2, 3, 2))
    lhs = flatten_to_matrix(VoxelEmbedding(2.5 * x - 1.5 * y)).data
    rhs = 2.5 * flatten_to_matrix(VoxelEmbedding(x)).data - 1.5 * flatten_to_matrix(VoxelEmbedding(y)).data
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_instance_norm_zero_and_constant():
    zero = VoxelEmbedding(np.zeros((4, 2, 3, 3)))
    assert np.array_equal(instance_norm(zero).data, zero.data)
    const = VoxelEmbedding(np.full((4, 2, 3, 3), 5.0))
    assert np.allclose(instance_norm(const).data, 0.0)


def test_instance_norm_statistics():
    rng = np.random.default_rng(9)
    eps = VoxelEmbedding(3.0 * rng.normal(size=(32, 3, 4, 4)) + 2.0)
    out = instance_norm(eps).data
    mu = out.mean(axis=(0, 2, 3))
    var = out.var(axis=(0, 2, 3))
    assert np.all(np.abs(mu) < 1e-6)
    assert np.all(np.abs(var - 1.0) < 1e-3)


def test_instance_norm_shift_invariance():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(16, 2, 5, 5)) * 2.0
    shifted = x + np.array([10.0, -4.0])[None, :, None, None]
    a = instance_norm(VoxelEmbedding(x)).data
    b = instance_norm(VoxelEmbedding(shifted)).data
    assert np.max(np.abs(a - b)) < 1e-6


def test_instance_norm_needs_positive_epsilon():
    with pytest.raises(DomainError):
        instance_norm(VoxelEmbedding(np.zeros((2, 1, 1, 1))), epsilon=0.0)


def test_hadamard():
    rng = np.random.default_rng(4)
    a = VoxelEmbedding(rng.normal(size=(2, 1, 1, 2)))
    ones = VoxelEmbedding(np.ones((2, 1, 1, 2)))
    zeros = VoxelEmbedding(np.zeros((2, 1, 1, 2)))
    assert np.array_equal(hadamard(a, ones).data, a.data)
    assert np.array_equal(hadamard(a, zeros).data, zeros.data)
    with pytest.raises(DomainError):
        hadamard(a, VoxelEmbedding(np.zeros((2, 1, 2, 1))))


def test_voxel_embedding_validation():
    with pytest.raises(DomainError):
        VoxelEmbedding(np.zeros((2, 3)))
    with pytest.raises(DomainError):
        VoxelEmbedding(np.zeros((2, 0, 1, 1)))
    eps = VoxelEmbedding(np.zeros((1, 1, 1, 1)))
    with pytest.raises(ValueError):
        eps.data[0, 0, 0, 0] = 1.0  # read-only storage


def test_video_clip_validation():
    ok = VideoClip(np.full((4, 3, 9, 9), 0.5))
    assert ok.frames == 4 and ok.channels == 3 and ok.height == 9
    with pytest.raises(DomainError):
        VideoClip(np.full((4, 2, 9, 9), 0.5))
    with pytest.raises(DomainError):
        VideoClip(np.full((4, 3, 8, 8), 0.5))
    with pytest.raises(DomainError):
        VideoClip(np.full((4, 3, 9, 36), 0.5))
    with pytest.raises(DomainError):
        VideoClip(np.full((4, 3, 9, 9), 1.5))


def test_video_clip_rejects_nan():
    data = np.full((4, 3, 9, 9), 0.5)
    data[2, 1, 3, 4] = np.nan
    with pytest.raises(DomainError, match=r"\[0, 1\]"):
        VideoClip(data)


def test_waveform_validation():
    w = Waveform([0.0, 1.0], 25.0)
    assert w.duration_s == pytest.approx(0.08)
    with pytest.raises(DomainError):
        Waveform([], 25.0)
    with pytest.raises(DomainError):
        Waveform([1.0], 0.0)


@pytest.mark.parametrize("fs", [np.inf, -np.inf, np.nan])
def test_waveform_rejects_non_finite_fs(fs):
    with pytest.raises(DomainError, match="fs"):
        Waveform([0.0, 1.0], fs)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_waveform_rejects_non_finite_samples(bad):
    x = np.zeros(10)
    x[7] = bad
    with pytest.raises(DomainError, match="index 7"):
        Waveform(x, 25.0)
