"""Toy dual-branch 3D convolutional network, forward pass only.

The pulse branch keeps temporal stride 1 everywhere and aggregates the
spatial axes, so its output length always equals the input frame count.
The respiration branch downsamples time with strided convolutions and
linearly upsamples back to the frame count at the end. Both branches
are fully convolutional in time: any frame count works (the respiration
branch needs it divisible by its stride product).

Every conv block runs through `conv3d_forward`, a chunked im2col
lowering in float64: one matmul per few output frames. The per-tap loop
it replaced is the oracle in the tests.

Weights are initialized from a seeded generator; there is no training
here, determinism is all that matters.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .attention import AttentionConfig, compute_attention
from .errors import DomainError
from .tensors import VideoClip, VoxelEmbedding, Waveform


@dataclass(frozen=True)
class ConvBlockSpec:
    out_channels: int
    temporal_kernel: int = 3
    spatial_kernel: int = 3
    temporal_stride: int = 1
    spatial_stride: int = 2


def _default_blocks(branch):
    if branch == "bvp":
        strides = (1, 1, 1, 1)
    else:
        strides = (2, 2, 1, 1)
    return tuple(
        ConvBlockSpec(c, temporal_stride=s)
        for c, s in zip((8, 12, 12, 8), strides)
    )


@dataclass(frozen=True)
class ModelConfig:
    """Static description of the two branches.

    attention_index selects the block after whose output the attention
    module runs (default 2, the penultimate of four). A branch with its
    attention config set to None runs without attention entirely.
    """

    input_resolution: int = 72
    input_channels: int = 3
    bvp_blocks: tuple = ()
    rsp_blocks: tuple = ()
    attention_index: int = 2
    bvp_attention: AttentionConfig | None = None
    rsp_attention: AttentionConfig | None = None
    seed: int = 0

    def __post_init__(self):
        if self.input_resolution not in (9, 36, 72):
            raise DomainError(f"input_resolution must be 9, 36 or 72, got {self.input_resolution}")
        if self.input_channels not in (1, 3, 4):
            raise DomainError(f"input_channels must be 1, 3 or 4, got {self.input_channels}")
        bvp = self.bvp_blocks or _default_blocks("bvp")
        rsp = self.rsp_blocks or _default_blocks("rsp")
        for blk in bvp:
            if blk.temporal_stride != 1:
                raise DomainError("bvp blocks must keep temporal_stride = 1")
        nblocks = min(len(bvp), len(rsp))
        if not 0 <= self.attention_index < nblocks:
            raise DomainError(f"attention_index {self.attention_index} outside 0..{nblocks - 1}")
        object.__setattr__(self, "bvp_blocks", tuple(bvp))
        object.__setattr__(self, "rsp_blocks", tuple(rsp))

    @property
    def rsp_upsample_factor(self):
        """Temporal downsampling of the respiration branch, which its final
        upsample undoes: the product of the rsp temporal strides."""
        return math.prod(blk.temporal_stride for blk in self.rsp_blocks)

    def branch_in_channels(self, branch):
        # with a 4-channel (RGB + thermal) input the pulse branch reads
        # the RGB part and the respiration branch the thermal part
        if self.input_channels == 4:
            return 3 if branch == "bvp" else 1
        return self.input_channels


# Output columns (frames x output pixels) gathered per im2col matmul. At
# least one frame is always taken, so a 72 px block 0 (1,296 pixels)
# runs one frame at a time; the patch buffer stays within a few MB.
_CHUNK_COLUMNS = 512


def _int_triple(values, name):
    """Three Python or numpy integers; a float such as 1.7 is refused
    rather than truncated."""
    try:
        out = tuple(operator.index(v) for v in values)
    except TypeError:
        raise DomainError(f"{name} must be three integers, got {values!r}") from None
    if len(out) != 3:
        raise DomainError(f"{name} must be three integers, got {values!r}")
    return out


def conv3d_forward(eps, weights, bias=None, strides=(1, 1, 1), padding=(0, 0, 0)):
    """Strided 3D cross-correlation with zero padding.

    Lowered to chunked im2col: the patches of a few output frames at a
    time are copied into one reused buffer, and one matmul with the
    (out_c, in_c*kt*ka*kb) weight matrix writes those frames of the
    output directly.

    Args:
        eps: VoxelEmbedding (t, c, a, b).
        weights: finite array (out_c, in_c, kt, ka, kb), every extent >= 1.
        bias: optional finite (out_c,) vector added per output channel.
        strides: (temporal, spatial a, spatial b), integers >= 1.
        padding: symmetric zero padding per axis, integers >= 0.

    Returns:
        VoxelEmbedding with extents floor((in + 2 pad - kernel)/stride) + 1.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 5:
        raise DomainError("conv weights must be 5D (out_c, in_c, kt, ka, kb)")
    if min(w.shape) < 1:
        raise DomainError(f"conv weight extents must all be >= 1, got {w.shape}")
    if w.shape[1] != eps.kappa:
        raise DomainError(f"weights expect {w.shape[1]} input channels, embedding has {eps.kappa}")
    if not np.isfinite(w).all():
        raise DomainError("conv weights must be finite")
    co, ci, kt, ka, kb = w.shape
    if bias is not None:
        bias = np.asarray(bias, dtype=np.float64)
        if bias.shape != (co,):
            raise DomainError(f"conv bias must have shape ({co},), got {bias.shape}")
        if not np.isfinite(bias).all():
            raise DomainError("conv bias must be finite")
    st, sa, sb = _int_triple(strides, "strides")
    pt, pa, pb = _int_triple(padding, "padding")
    if min(st, sa, sb) < 1 or min(pt, pa, pb) < 0:
        raise DomainError("strides must be >= 1 and padding >= 0")

    xp = np.pad(eps.data, ((pt, pt), (0, 0), (pa, pa), (pb, pb)))
    t_in, _, a_in, b_in = xp.shape
    if kt > t_in or ka > a_in or kb > b_in:
        raise DomainError("kernel larger than the padded input")
    # (t_out, ci, a_out, b_out, kt, ka, kb) -> (t_out, ci, kt, ka, kb, a_out, b_out)
    windows = sliding_window_view(xp, (kt, ka, kb), axis=(0, 2, 3))[::st, :, ::sa, ::sb]
    patches = windows.transpose(0, 1, 4, 5, 6, 2, 3)
    t_out, a_out, b_out = patches.shape[0], patches.shape[5], patches.shape[6]

    cols = a_out * b_out
    frames = max(1, min(t_out, _CHUNK_COLUMNS // cols))
    buf = np.empty((frames,) + patches.shape[1:])
    wmat = w.reshape(co, ci * kt * ka * kb)
    out = np.empty((t_out, co, a_out, b_out))
    for t0 in range(0, t_out, frames):
        n = min(frames, t_out - t0)
        np.copyto(buf[:n], patches[t0 : t0 + n])
        np.matmul(wmat, buf[:n].reshape(n, -1, cols), out=out[t0 : t0 + n].reshape(n, co, cols))
    if bias is not None:
        out += bias[None, :, None, None]
    return VoxelEmbedding(out)


def _init_branch(cfg, branch):
    """Seeded uniform weights in [-k, k], k = 1/sqrt(fan_in), one
    independent stream per branch so the branches do not entangle."""
    blocks = cfg.bvp_blocks if branch == "bvp" else cfg.rsp_blocks
    rng = np.random.default_rng([cfg.seed, 0 if branch == "bvp" else 1])
    in_c = cfg.branch_in_channels(branch)
    layers = []
    for spec in blocks:
        shape = (spec.out_channels, in_c, spec.temporal_kernel, spec.spatial_kernel, spec.spatial_kernel)
        k = 1.0 / np.sqrt(in_c * spec.temporal_kernel * spec.spatial_kernel ** 2)
        w = rng.uniform(-k, k, size=shape)
        b = rng.uniform(-k, k, size=spec.out_channels)
        layers.append((w, b, spec))
        in_c = spec.out_channels
    k = 1.0 / np.sqrt(in_c)
    head_w = rng.uniform(-k, k, size=in_c)
    head_b = float(rng.uniform(-k, k))
    return layers, head_w, head_b


def param_count(cfg):
    total = 0
    for branch in ("bvp", "rsp"):
        layers, head_w, _ = _init_branch(cfg, branch)
        total += sum(w.size + b.size for w, b, _ in layers)
        total += head_w.size + 1
    return total


def _resample_linear(x, length):
    if x.size == length:
        return x.copy()
    src = np.linspace(0.0, length - 1.0, num=x.size)
    return np.interp(np.arange(length), src, x)


def _branch_forward(clip, cfg, branch, target, fs):
    if not isinstance(clip, VideoClip):
        raise DomainError("branch forward expects a VideoClip")
    if clip.height != cfg.input_resolution:
        raise DomainError(
            f"clip resolution {clip.height} does not match config {cfg.input_resolution}"
        )
    expected = cfg.branch_in_channels(branch)
    if clip.channels != expected:
        raise DomainError(
            f"{branch} branch expects {expected} channels, clip has {clip.channels}"
        )
    att_cfg = cfg.bvp_attention if branch == "bvp" else cfg.rsp_attention
    if branch == "rsp" and clip.frames % cfg.rsp_upsample_factor != 0:
        raise DomainError(
            f"frame count {clip.frames} not divisible by the temporal "
            f"downsampling factor {cfg.rsp_upsample_factor}"
        )

    layers, head_w, head_b = _init_branch(cfg, branch)
    x = VoxelEmbedding(clip.data)
    for i, (w, b, spec) in enumerate(layers):
        pad = (spec.temporal_kernel // 2, spec.spatial_kernel // 2, spec.spatial_kernel // 2)
        strides = (spec.temporal_stride, spec.spatial_stride, spec.spatial_stride)
        x = conv3d_forward(x, w, b, strides, pad)
        x = VoxelEmbedding(np.maximum(x.data, 0.0))
        if i == cfg.attention_index and att_cfg is not None:
            tgt = None
            if target is not None:
                t = np.asarray(target, dtype=np.float64).ravel()
                if t.size != clip.frames:
                    raise DomainError(f"target length {t.size} does not match {clip.frames} frames")
                tgt = _resample_linear(t, x.tau)
            x = compute_attention(x, att_cfg, tgt).excited

    pooled = x.data.mean(axis=(2, 3))              # (t', c)
    samples = pooled @ head_w + head_b             # (t',)
    if branch == "rsp":
        samples = _resample_linear(samples, clip.frames)
    return Waveform(samples, fs)


def bvp_branch_forward(clip, cfg, target=None, fs=25.0):
    """Pulse branch: output length equals clip.frames for any frame count."""
    return _branch_forward(clip, cfg, "bvp", target, fs)


def rsp_branch_forward(clip, cfg, target=None, fs=25.0):
    """Respiration branch: strided temporal downsampling inside, linear
    upsample back to clip.frames at the end. Frame count must be
    divisible by the stride product."""
    return _branch_forward(clip, cfg, "rsp", target, fs)


def forward_multitask(rgb, thermal, cfg, bvp_target=None, rsp_target=None, fs=25.0):
    """Run both branches, routing modalities by availability.

    With both modalities the pulse branch reads RGB and the respiration
    branch reads thermal; with a single modality both branches share it.

    Returns:
        (pulse Waveform, respiration Waveform), each of length T.
    """
    if rgb is None and thermal is None:
        raise DomainError("forward_multitask needs at least one modality")
    if rgb is not None and thermal is not None and rgb.frames != thermal.frames:
        raise DomainError(
            f"frame count mismatch between modalities: {rgb.frames} vs {thermal.frames}"
        )
    bvp_clip = rgb if rgb is not None else thermal
    rsp_clip = thermal if thermal is not None else rgb
    pulse = _branch_forward(bvp_clip, cfg, "bvp", bvp_target, fs)
    resp = _branch_forward(rsp_clip, cfg, "rsp", rsp_target, fs)
    return pulse, resp
