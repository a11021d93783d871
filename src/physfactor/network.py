"""Toy dual-branch 3D convolutional network, forward pass only.

`ModelConfig` holds the run config's [model] keys: a channel list per
branch, the respiration branch's temporal strides, and one temporal and
one spatial kernel size for every block. Every block halves both
spatial axes. The pulse branch keeps temporal stride 1 everywhere and
aggregates the spatial axes, so with an odd temporal kernel its output
length always equals the input frame count. The respiration branch
downsamples time with strided convolutions and linearly upsamples back
to the frame count at the end. Both branches are fully convolutional in
time: any frame count works (the respiration branch needs it divisible
by its stride product).

Every conv block runs through `conv3d_forward`, an im2col lowering over
space only, in float64 (MEC, applied to the temporal axis): the spatial
patches of each input frame are copied once, and each output frame's
temporal window is a strided view over consecutive frames of that
buffer, so one batched matmul per chunk of output frames needs no
temporal copy. The per-tap loop it replaced is the oracle in the tests.

Weights are initialized from a seeded generator; there is no training
here, determinism is all that matters.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .attention import AttentionConfig, compute_attention
from .errors import DomainError, check_finite, check_int
from .tensors import VideoClip, VoxelEmbedding, Waveform


# Every conv block halves both spatial axes.
SPATIAL_STRIDE = 2


@dataclass(frozen=True)
class ModelConfig:
    """Static description of the two branches; the block fields are the
    run config's [model] keys.

    Each branch runs one conv block (then a ReLU) per entry of its
    channel list, with a temporal_kernel x spatial_kernel x
    spatial_kernel kernel, zero padding of half the kernel and spatial
    stride 2. The pulse branch keeps temporal stride 1; respiration
    block i has temporal stride rsp_temporal_strides[i]. temporal_kernel
    must be odd, so that a stride-1 block returns one frame per input
    frame.

    attention_index selects the block after whose output the attention
    module runs (default 2, the penultimate of four). A branch with its
    attention config set to None runs without attention entirely.
    """

    input_resolution: int = 72
    input_channels: int = 3
    bvp_channels: tuple = (8, 12, 12, 8)
    rsp_channels: tuple = (8, 12, 12, 8)
    rsp_temporal_strides: tuple = (2, 2, 1, 1)
    temporal_kernel: int = 3
    spatial_kernel: int = 3
    attention_index: int = 2
    bvp_attention: AttentionConfig | None = None
    rsp_attention: AttentionConfig | None = None
    seed: int = 0

    def __post_init__(self):
        if check_int(self.input_resolution, "input_resolution") not in (9, 36, 72):
            raise DomainError(f"input_resolution must be 9, 36 or 72, got {self.input_resolution}")
        if check_int(self.input_channels, "input_channels") not in (1, 3, 4):
            raise DomainError(f"input_channels must be 1, 3 or 4, got {self.input_channels}")
        for name in ("bvp_channels", "rsp_channels", "rsp_temporal_strides"):
            value = getattr(self, name)
            if np.ndim(value) != 1 or len(value) == 0:
                raise DomainError(f"{name} must list one or more integers >= 1, got {value!r}")
            for v in value:
                check_int(v, name, 1)
        check_int(self.temporal_kernel, "temporal_kernel", 1)
        check_int(self.spatial_kernel, "spatial_kernel", 1)
        check_int(self.seed, "seed", 0)
        if self.temporal_kernel % 2 == 0:
            raise DomainError(f"temporal_kernel must be odd, got {self.temporal_kernel}")
        if len(self.rsp_channels) != len(self.rsp_temporal_strides):
            raise DomainError("rsp_channels and rsp_temporal_strides must have equal length")
        nblocks = min(len(self.bvp_channels), len(self.rsp_channels))
        # a fractional index would match no block, and attention would
        # silently never run
        if not 0 <= check_int(self.attention_index, "attention_index") < nblocks:
            raise DomainError(f"attention_index {self.attention_index} outside 0..{nblocks - 1}")

    @property
    def rsp_upsample_factor(self):
        """Temporal downsampling of the respiration branch, which its final
        upsample undoes: the product of the rsp temporal strides."""
        return math.prod(self.rsp_temporal_strides)

    def branch_in_channels(self, branch):
        # with a 4-channel (RGB + thermal) input the pulse branch reads
        # the RGB part and the respiration branch the thermal part
        if self.input_channels == 4:
            return 3 if branch == "bvp" else 1
        return self.input_channels


# Output columns (frames x output pixels) per batched matmul. A chunk
# takes at least 4 output frames, so that at 72 px (1,296 pixels per
# frame in block 0) the kt - st frame halo is not copied once per output
# frame; the buffers stay within a few MB.
_CHUNK_COLUMNS = 2048


def conv3d_forward(eps, weights, bias=None, strides=(1, 1, 1), padding=(0, 0, 0)):
    """Strided 3D cross-correlation with zero padding.

    Lowered to im2col over space only (MEC, Cho & Brand 2017, applied
    to the temporal axis). Output frames run in chunks. The input frames
    a chunk reads, its kt - st frame halo included, go into a reused
    zero-bordered frame buffer, and the ka*kb spatial patches of each
    are copied once into a reused buffer laid out (frame, in_c, ka, kb,
    a_out, b_out). The kt frames an output frame reads are then one
    contiguous (kt*in_c*ka*kb, a_out*b_out) matrix, so a strided view
    serves the temporal window without a copy. One batched matmul with
    the weights in (out_c, kt, in_c, ka, kb) order writes the chunk's
    output frames directly.

    Args:
        eps: VoxelEmbedding (t, c, a, b).
        weights: finite array (out_c, in_c, kt, ka, kb), every extent >= 1.
        bias: optional finite (out_c,) vector added per output channel.
        strides: (temporal, spatial a, spatial b), integers >= 1.
        padding: symmetric zero padding per axis, integers >= 0.

    Returns:
        VoxelEmbedding with extents floor((in + 2 pad - kernel)/stride) + 1.
    """
    w = check_finite(weights, "conv weights")
    if w.ndim != 5:
        raise DomainError("conv weights must be 5D (out_c, in_c, kt, ka, kb)")
    if min(w.shape) < 1:
        raise DomainError(f"conv weight extents must all be >= 1, got {w.shape}")
    if w.shape[1] != eps.kappa:
        raise DomainError(f"weights expect {w.shape[1]} input channels, embedding has {eps.kappa}")
    co, ci, kt, ka, kb = w.shape
    if bias is not None:
        bias = check_finite(bias, "conv bias")
        if bias.shape != (co,):
            raise DomainError(f"conv bias must have shape ({co},), got {bias.shape}")
    if np.shape(strides) != (3,) or np.shape(padding) != (3,):
        raise DomainError(f"strides and padding must be three integers each, got {strides!r}, {padding!r}")
    st, sa, sb = (check_int(v, "strides", 1) for v in strides)
    pt, pa, pb = (check_int(v, "padding", 0) for v in padding)

    t, _, a, b = eps.shape
    t_in, a_in, b_in = t + 2 * pt, a + 2 * pa, b + 2 * pb
    if kt > t_in or ka > a_in or kb > b_in:
        raise DomainError("kernel larger than the padded input")
    t_out = (t_in - kt) // st + 1
    a_out = (a_in - ka) // sa + 1
    b_out = (b_in - kb) // sb + 1
    cols = a_out * b_out
    frames = min(t_out, max(4, _CHUNK_COLUMNS // cols))
    xbuf = np.zeros(((frames - 1) * st + kt, ci, a_in, b_in))
    inner = xbuf[:, :, pa : pa + a, pb : pb + b]
    # (frame, ci, a_out, b_out, ka, kb) -> (frame, ci, ka, kb, a_out, b_out)
    windows = sliding_window_view(xbuf, (ka, kb), axis=(2, 3))[:, :, ::sa, ::sb]
    patches = windows.transpose(0, 1, 4, 5, 2, 3)
    buf = np.empty(patches.shape)
    rows = kt * ci * ka * kb
    wmat = w.transpose(0, 2, 1, 3, 4).reshape(co, rows)
    out = np.empty((t_out, co, a_out, b_out))
    for t0 in range(0, t_out, frames):
        n = min(frames, t_out - t0)
        span = (n - 1) * st + kt
        # buffer frame i holds input frame f0 + i, which exists for i in
        # [lo, hi). Frames before lo stay zero: no earlier chunk wrote
        # there, since it started further into the leading padding.
        f0 = t0 * st - pt
        lo = min(max(-f0, 0), span)
        hi = max(min(t - f0, span), lo)
        inner[lo:hi] = eps.data[f0 + lo : f0 + hi]
        inner[hi:span] = 0.0
        np.copyto(buf[:span], patches[:span])
        # output frame j reads buffer frames j*st .. j*st + kt - 1, which
        # are consecutive in memory: one (rows, cols) matrix per frame
        view = as_strided(buf, (n, rows, cols), (st * buf[0].nbytes, cols * 8, 8), writeable=False)
        np.matmul(wmat, view, out=out[t0 : t0 + n].reshape(n, co, cols))
    if bias is not None:
        out += bias[None, :, None, None]
    return VoxelEmbedding(out)


def _init_branch(cfg, branch):
    """Seeded uniform weights in [-k, k], k = 1/sqrt(fan_in), one
    independent stream per branch so the branches do not entangle.
    Returns (weights, bias, temporal stride) per block and the head."""
    if branch == "bvp":
        blocks = [(c, 1) for c in cfg.bvp_channels]
    else:
        blocks = list(zip(cfg.rsp_channels, cfg.rsp_temporal_strides))
    kt, ks = cfg.temporal_kernel, cfg.spatial_kernel
    rng = np.random.default_rng([cfg.seed, 0 if branch == "bvp" else 1])
    in_c = cfg.branch_in_channels(branch)
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
    pad = (cfg.temporal_kernel // 2, cfg.spatial_kernel // 2, cfg.spatial_kernel // 2)
    for i, (w, b, stride) in enumerate(layers):
        x = conv3d_forward(x, w, b, (stride, SPATIAL_STRIDE, SPATIAL_STRIDE), pad)
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
