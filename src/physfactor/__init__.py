"""Constrained matrix-factorization attention for physiological sensing,
with a toy dual-branch 3D-CNN, the standard rPPG/respiration metric
suite and deterministic synthetic generators."""

from .attention import AttentionConfig, AttentionOutput, channel_mix_relu, compute_attention, csim_map, excite
from .errors import DomainError, InputFormatError
from .factorize import (
    FactorizationResult,
    GrbfBasis,
    constrained_nmf_mu,
    grbf_basis,
    nmf_mu,
    target_basis,
)
from .losses import GradCheck, fd_gradient_check, neg_pearson_loss, smooth_l1_loss
from .metrics import (
    HR_BAND,
    RR_BAND,
    MetricsReport,
    MetricValue,
    RateBand,
    error_metrics,
    estimate_rate_fft,
    evaluate_windows,
    macc,
    snr,
)
from .network import (
    ModelConfig,
    conv3d_forward,
    forward_multitask,
    param_count,
)
from .synth import gen_clip, gen_planted_embedding, gen_pulse, gen_resp
from .tensors import (
    VideoClip,
    VoxelEmbedding,
    Waveform,
    flatten_to_matrix,
    hadamard,
    instance_norm,
    unflatten_to_voxel,
)

__version__ = "0.1.0"
