import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from physfactor.attention import AttentionConfig
from physfactor.errors import DomainError, check_int
from physfactor.factorize import constrained_nmf_mu, grbf_basis, nmf_mu, target_basis
from physfactor.losses import neg_pearson_loss, smooth_l1_loss
from physfactor.metrics import HR_BAND, error_metrics, estimate_rate_fft
from physfactor.network import ModelConfig, conv3d_forward
from physfactor.synth import PlantSpec, gen_clip, gen_pulse
from physfactor.tensors import VoxelEmbedding


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
    lambda: PlantSpec((8, 1, 2, True), ((0, 0, 0),), gen_pulse(25.0, 72.0, 1.0)),
], ids=["attention-rank", "attention-iterations", "attention-delta-t", "temporal-kernel", "spatial-kernel",
        "bvp-channel", "rsp-stride", "attention-index", "input-channels", "nmf-rank", "nmf-iterations",
        "nmf-seed", "constrained-seed", "grbf-delta-t", "target-m", "pad-factor", "conv-stride",
        "conv-padding", "clip-frames", "plant-shape"])
def test_a_bool_is_no_integer_anywhere(build):
    with pytest.raises(DomainError, match="integer"):
        build()


_TAKES_A_VECTOR = {
    "error_metrics preds": lambda bad, ok: error_metrics(bad, ok, corr="skip"),
    "error_metrics gts": lambda bad, ok: error_metrics(ok, bad, corr="skip"),
    "target_basis": lambda bad, ok: target_basis(bad, bad.size),
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
