import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from physfactor.errors import DomainError
from physfactor.tensors import (
    VideoClip,
    VoxelEmbedding,
    Waveform,
    flatten_to_matrix,
    hadamard,
    instance_norm,
    pow2_exponent,
    shifted,
    unflatten_to_voxel,
    unit_scaled,
)


def test_flatten_forced_example():
    eps = VoxelEmbedding(np.array([1.0, 2.0, 3.0, 4.0]).reshape(2, 1, 1, 2))
    v = flatten_to_matrix(eps)
    assert v.shape == (2, 2)
    assert np.array_equal(v, [[1.0, 2.0], [3.0, 4.0]])


def test_flatten_is_a_read_only_view_of_the_embedding():
    data = np.arange(24.0).reshape(2, 3, 2, 2)
    eps = VoxelEmbedding(data)
    v = flatten_to_matrix(eps)
    assert type(v) is np.ndarray and v.shape == (2, 12)
    assert np.shares_memory(v, eps.data) and np.shares_memory(v, data)
    with pytest.raises(ValueError, match="read-only"):
        v[0, 0] = 1.0
    data[1, 2, 1, 1] = -1.0    # the caller's array stays writeable and shows through
    assert v[1, 11] == -1.0


def test_flatten_column_order():
    # element [t, c, a, b] must land in column c*(alpha*beta) + a*beta + b
    rng = np.random.default_rng(11)
    eps = VoxelEmbedding(rng.normal(size=(20, 4, 3, 3)))
    v = flatten_to_matrix(eps)
    assert v.shape == (20, 36)
    for t in (0, 7, 19):
        for c in range(4):
            for a in range(3):
                for b in range(3):
                    assert v[t, c * 9 + a * 3 + b] == eps.data[t, c, a, b]


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
    eps = unflatten_to_voxel([[1.0, 2.0], [3.0, 4.0]], (2, 1, 1, 2))
    assert eps.data[0, 0, 0, 1] == 2.0 and eps.data[1, 0, 0, 0] == 3.0

    wide = np.zeros((20, 36))
    assert unflatten_to_voxel(wide, (20, 4, 3, 3)).shape == (20, 4, 3, 3)
    with pytest.raises(DomainError):
        unflatten_to_voxel(wide, (20, 4, 3, 4))


def test_flatten_is_linear():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 2, 3, 2))
    y = rng.normal(size=(5, 2, 3, 2))
    lhs = flatten_to_matrix(VoxelEmbedding(2.5 * x - 1.5 * y))
    rhs = 2.5 * flatten_to_matrix(VoxelEmbedding(x)) - 1.5 * flatten_to_matrix(VoxelEmbedding(y))
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


def _instance_norm_per_axis(x, epsilon=1e-5):
    # the formula instance_norm replaced, numpy's mean and variance over
    # the (t, a, b) axes; kept as the oracle
    mu = x.mean(axis=(0, 2, 3), keepdims=True)
    var = x.var(axis=(0, 2, 3), keepdims=True)
    return (x - mu) / np.sqrt(var + epsilon)


@st.composite
def norm_inputs(draw):
    """An embedding whose channels have a spread from 1e-3 to 1e3 (either
    side of epsilon) and a mean within a few spreads of 0, signed or
    rectified, with a share of all-zero channels; the shapes include the
    9 px forward pass's (t, c, 2, 2) and (t, c, 9, 9)."""
    a = draw(st.sampled_from((1, 2, 3, 9)))
    shape = (draw(st.integers(1, 400)), draw(st.integers(1, 12)), a, draw(st.sampled_from((a, 1, 4))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    x = scale * (draw(st.floats(-3.0, 3.0)) + rng.normal(size=shape))
    if draw(st.booleans()):
        x = np.maximum(x, 0.0)
    x[:, rng.random(shape[1]) < 0.2] = 0.0
    return x


@settings(max_examples=200, deadline=None)
@given(norm_inputs())
def test_instance_norm_matches_per_axis_statistics(x):
    got = instance_norm(VoxelEmbedding(x)).data
    want = _instance_norm_per_axis(x)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), np.finfo(float).tiny)
    # a channel that is all zero stays exactly zero
    zero = ~x.any(axis=(0, 2, 3))
    assert not got[:, zero].any()


@settings(max_examples=200, deadline=None)
@given(norm_inputs(), st.floats(-300.0, 300.0))
@example(np.random.default_rng(0).normal(size=(100, 12, 2, 2)), 200.0)
@example(np.full((1, 1, 1, 1), 0.125), 161.0)
def test_instance_norm_finite_from_1e_minus300_to_1e300(x, decade):
    # the variance overflowed to inf near 1e200, so every output was 0;
    # and a constant channel beyond 2^530, where epsilon / 4^e is 0, must
    # not divide 0 by 0
    x = x * 10.0 ** decade
    got = instance_norm(VoxelEmbedding(x)).data
    assert np.all(np.isfinite(got))
    varies = x.max(axis=(0, 2, 3)) > x.min(axis=(0, 2, 3))
    assert got[:, varies].any(axis=0).all()
    assert not got[:, ~x.any(axis=(0, 2, 3))].any()


def _bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


# row r of SCALED has entries of magnitude 2^(EXPS[r] - 1)..2^EXPS[r],
# from subnormal to near the largest float64
EXPS = np.array([-1074, -1060, -1030, -1022, -1021, -300, -1, 0, 1, 52, 700, 1023])
SCALED = np.ldexp(np.random.default_rng(4).uniform(-1.0, 1.0, (EXPS.size, 7)), EXPS[:, None])


@pytest.mark.parametrize("axis", [None, 0, 1], ids=["scalar", "per-column", "per-row"])
def test_unit_scaled_matches_frexp_and_ldexp_bit_for_bit(axis):
    a = SCALED if axis != 0 else SCALED.T
    if axis is None:
        peak = np.abs(a).max()
        e = math.frexp(peak)[1] - 1
        got, got_e = unit_scaled(a)
        assert got_e == e and pow2_exponent(peak) == e
        assert _bits(got) == _bits(np.ldexp(a, -e))
        return
    peaks = np.abs(a).max(axis=axis, keepdims=True)
    e = np.vectorize(lambda p: math.frexp(p)[1] - 1)(peaks)
    got, got_e = unit_scaled(a, peaks)
    assert np.array_equal(got_e, e)
    assert _bits(got) == _bits(np.ldexp(a, -e))
    assert np.all((np.abs(got).max(axis=axis) >= 1.0) & (np.abs(got).max(axis=axis) < 2.0))


def test_zero_shift_and_zero_peak():
    a = np.array([[0.0, 0.0], [3.0, -5.0]])
    assert shifted(a, 0) is a and shifted(a, np.zeros((2, 1), dtype=int)) is a
    assert pow2_exponent(0.0) == 0
    assert np.array_equal(pow2_exponent(np.array([0.0, 5.0, 2.0 ** -1074])), [0, 2, -1074])
    got, e = unit_scaled(a, np.abs(a).max(axis=1, keepdims=True))
    assert np.array_equal(e, [[0], [2]])
    assert np.array_equal(got, [[0.0, 0.0], [0.75, -1.25]])


@pytest.mark.parametrize("make", [
    lambda v: VoxelEmbedding(v.reshape(2, 1, 1, 1)),
    lambda v: unflatten_to_voxel(v.reshape(2, 1), (2, 1, 1, 1)),
    lambda v: Waveform(v, 25.0),
], ids=["voxel", "matrix", "waveform"])
def test_containers_refuse_complex_values(make):
    # the imaginary part was dropped with numpy's ComplexWarning
    with pytest.raises(DomainError, match="complex"):
        make(np.array([1.0 + 2.0j, 3.0]))


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
    assert ok.tau == 4 and ok.kappa == 3 and ok.shape == (4, 3, 9, 9)
    assert isinstance(ok, VoxelEmbedding)
    with pytest.raises(DomainError):
        VideoClip(np.full((4, 2, 9, 9), 0.5))
    with pytest.raises(DomainError):
        VideoClip(np.full((4, 3, 8, 8), 0.5))
    with pytest.raises(DomainError):
        VideoClip(np.full((4, 3, 9, 36), 0.5))
    with pytest.raises(DomainError):
        VideoClip(np.full((4, 3, 9, 9), 1.5))
    # the embedding's own checks name the class they run for
    with pytest.raises(DomainError, match="^VideoClip expects a 4D array"):
        VideoClip(np.full((3, 9, 9), 0.5))


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



@pytest.mark.parametrize("make, shape, field", [
    (VoxelEmbedding, (2, 1, 2, 2), "data"),
    (lambda a: unflatten_to_voxel(a, (2, 1, 2, 2)), (2, 4), "data"),
    (VideoClip, (2, 3, 9, 9), "data"),
    (lambda a: Waveform(a, 25.0), (8,), "samples"),
])
def test_containers_leave_the_callers_array_writeable(make, shape, field):
    # C-contiguous float64 input is wrapped without a copy; only the
    # container's view is read-only
    a = np.zeros(shape)
    held = getattr(make(a), field)
    assert a.flags.writeable
    assert np.shares_memory(held, a)
    a.flat[0] = 0.5
    assert held.flat[0] == 0.5
    with pytest.raises(ValueError, match="read-only"):
        held.flat[0] = 1.0


_MAGNITUDES = st.floats(-300.0, 300.0).map(lambda decade: 10.0 ** decade)


@settings(max_examples=200, deadline=None)
@given(norm_inputs(), _MAGNITUDES, _MAGNITUDES, st.sampled_from((1.0, -1.0)))
@example(np.zeros((7, 0, 2, 2)), 1.0, 5.606394622302311e19, 1.0)
@example(np.zeros((7, 0, 2, 2)), 1.0, 1e200, 1.0)
@example(np.zeros((7, 0, 2, 2)), 1.0, 7e30, -1.0)
@example(np.full((7, 2, 2, 2), 0.5), 1.0, 0.1, 1.0)
def test_instance_norm_maps_a_constant_channel_to_zero_at_any_magnitude(x, scale, magnitude, sign):
    # the mean of equal entries rounds, and beyond a peak of about 2^45
    # that residue dominated epsilon / 4^e: a (7, 1, 2, 2) channel of
    # 5.606394622302311e19 gave 0.99999999999993, and 1e200 or -7e30 gave
    # 1.0. With every peak below 2 nothing was scaled and the residue
    # was left over: a channel of 0.1 gave 7.9e-14
    k = x.shape[1] // 2
    x = np.insert(x * scale, k, sign * magnitude, axis=1)
    got = instance_norm(VoxelEmbedding(x)).data
    assert np.all(np.isfinite(got))
    assert np.all(got[:, k] == 0.0)
