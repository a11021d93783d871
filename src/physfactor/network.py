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

Every conv block runs through `conv3d_forward`, in float64, which
lowers it one of two ways by the input's shape. A frame with more
pixels than the kernel has spatial taps (a*b > ka*kb: every block at
36 and 72 px, blocks 0 and 1 at 9 px) takes an im2col over space only
(MEC, applied to the temporal axis): the spatial patches of each input
frame are copied once, and each output frame's temporal window is a
strided view over consecutive frames of that buffer, so one batched
matmul per chunk of output frames needs no temporal copy. A smaller
frame (blocks 2 and 3 at 9 px, 3x3 and 2x2 inputs) takes a frame
operator: the spatial conv folded into one dense matrix per temporal
tap, so the whole clip is kt GEMMs over the input with no patch copy,
and no more multiply-adds than the patch matrix. The per-tap loop both
replaced is the oracle in the tests.

The branches share nothing but their read-only weights, so
`forward_multitask` runs the respiration branch on a worker thread while
the calling thread runs the pulse branch; numpy and BLAS release the GIL
for a branch's copies and GEMMs, so on two CPUs the two overlap. Each
branch does the arithmetic it does alone, so the outputs are bit for bit
those of two `_branch_forward` calls in a row.

Weights are drawn once per `ModelConfig` from a seeded generator; there
is no training here, determinism is all that matters.
"""

import contextvars
import math
import threading
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .attention import AttentionConfig, compute_attention
from .errors import DomainError, check_finite, check_int, check_real
from .tensors import CLIP_CHANNELS, CLIP_SIDES, VideoClip, VoxelEmbedding, Waveform


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
        if check_int(self.input_resolution, "input_resolution") not in CLIP_SIDES:
            raise DomainError(f"input_resolution must be one of {CLIP_SIDES}, got {self.input_resolution}")
        if check_int(self.input_channels, "input_channels") not in CLIP_CHANNELS:
            raise DomainError(f"input_channels must be one of {CLIP_CHANNELS}, got {self.input_channels}")
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

    @cached_property
    def weights(self):
        """The built model, drawn on first access and then kept: a read-only
        mapping from "bvp" and "rsp" to that branch's blocks and head, as
        _init_branch returns them."""
        return MappingProxyType({branch: _init_branch(self, branch) for branch in ("bvp", "rsp")})


# Output columns (frames x output pixels) per batched matmul. A chunk
# takes at least 4 output frames, so that at 72 px (1,296 pixels per
# frame in block 0) the kt - st frame halo is not copied once per output
# frame; the buffers stay within a few MB.
_CHUNK_COLUMNS = 2048


def conv3d_forward(eps, weights, bias=None, strides=(1, 1, 1), padding=(0, 0, 0)):
    """Strided 3D cross-correlation with zero padding.

    Two lowerings, picked by the input's frame size. A frame of at most
    ka*kb pixels (a*b <= ka*kb) takes the frame operator
    (_frame_operator_conv): one dense (ci*a*b, co*a_out*b_out) matrix
    per temporal tap, built from the weights, and kt GEMMs over the
    time-padded input. Per output entry, input channel and temporal tap
    it does a*b multiply-adds where the patch matrix does ka*kb, so it
    never does more. A larger frame takes the patch matrix
    (_patch_matrix_conv), im2col over space only.

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
    out_shape = ((t_in - kt) // st + 1, (a_in - ka) // sa + 1, (b_in - kb) // sb + 1)
    lower = _frame_operator_conv if a * b <= ka * kb else _patch_matrix_conv
    out = lower(eps.data, w, out_shape, (st, sa, sb), (pt, pa, pb))
    if bias is not None:
        out += bias[None, :, None, None]
    return VoxelEmbedding(out)


def _patch_matrix_conv(x, w, out_shape, strides, padding):
    """The conv as im2col over space only (MEC, Cho & Brand 2017,
    applied to the temporal axis).

    Output frames run in chunks. The input frames a chunk reads, its
    kt - st frame halo included, go into a reused zero-bordered frame
    buffer, and the ka*kb spatial patches of each are copied once into a
    reused buffer laid out (frame, in_c, ka, kb, a_out, b_out). The kt
    frames an output frame reads are then one contiguous
    (kt*in_c*ka*kb, a_out*b_out) matrix, so a strided view serves the
    temporal window without a copy. One batched matmul with the weights
    in (out_c, kt, in_c, ka, kb) order writes the chunk's output frames
    directly.
    """
    t, ci, a, b = x.shape
    co, _, kt, ka, kb = w.shape
    t_out, a_out, b_out = out_shape
    st, sa, sb = strides
    pt, pa, pb = padding
    a_in, b_in = a + 2 * pa, b + 2 * pb
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
        inner[lo:hi] = x[f0 + lo : f0 + hi]
        inner[hi:span] = 0.0
        np.copyto(buf[:span], patches[:span])
        # output frame j reads buffer frames j*st .. j*st + kt - 1, which
        # are consecutive in memory: one (rows, cols) matrix per frame
        view = as_strided(buf, (n, rows, cols), (st * buf[0].nbytes, cols * 8, 8), writeable=False)
        np.matmul(wmat, view, out=out[t0 : t0 + n].reshape(n, co, cols))
    return out


def _frame_operator_conv(x, w, out_shape, strides, padding):
    """The conv as one dense frame operator per temporal tap, for frames
    with no more pixels than the kernel has taps.

    M_tau maps an input frame, flattened to its ci*a*b entries, to the
    co*a_out*b_out entries of an output frame: entry ((c, i, j), (o, p,
    q)) is w[o, c, tau, i - p*sa + pa, j - q*sb + pb], or 0 where that
    tap reads the spatial padding. Output frame f is the sum over tau of
    padded input frame f*st + tau times M_tau, so the output is kt GEMMs
    over row views of the time-padded input, with no patch copy, already
    laid out (t_out, co, a_out, b_out).
    """
    t, ci, a, b = x.shape
    co, _, kt, ka, kb = w.shape
    t_out, a_out, b_out = out_shape
    st, sa, sb = strides
    pt, pa, pb = padding
    # di[i, p]: the kernel row that input row i meets in output row p,
    # or ka, the zero slot appended below, where they do not meet (the
    # tap reads the padding); dj likewise for the columns
    di = np.arange(a)[:, None] - sa * np.arange(a_out)[None, :] + pa
    dj = np.arange(b)[:, None] - sb * np.arange(b_out)[None, :] + pb
    di = np.where((di >= 0) & (di < ka), di, ka)
    dj = np.where((dj >= 0) & (dj < kb), dj, kb)
    wz = np.zeros((kt, ci, ka + 1, kb + 1, co))
    wz[:, :, :ka, :kb] = w.transpose(2, 1, 3, 4, 0)
    # (kt, ci, a, b, a_out, b_out, co) -> (kt, ci*a*b, co*a_out*b_out)
    ops = wz[:, :, di[:, None, :, None], dj[None, :, None, :]]
    ops = ops.transpose(0, 1, 2, 3, 6, 4, 5).reshape(kt, ci * a * b, co * a_out * b_out)
    xp = np.zeros((t + 2 * pt, ci * a * b))
    xp[pt : pt + t] = x.reshape(t, -1)
    # rows tau, tau + st, ...: a plain strided row view, so each product
    # is one GEMM
    span = (t_out - 1) * st + 1
    out = xp[:span:st] @ ops[0]
    for tau in range(1, kt):
        out += xp[tau : tau + span : st] @ ops[tau]
    return out.reshape(t_out, co, a_out, b_out)


def _init_branch(cfg, branch):
    """Seeded uniform weights in [-k, k], k = 1/sqrt(fan_in), one
    independent stream per branch so the branches do not entangle; a
    4-channel input gives the pulse branch its RGB part and the
    respiration branch its thermal part. Returns the blocks, a tuple of
    read-only (weights, bias, temporal stride), and the read-only head."""
    if branch == "bvp":
        blocks = [(c, 1) for c in cfg.bvp_channels]
        in_c = 3 if cfg.input_channels == 4 else cfg.input_channels
    else:
        blocks = list(zip(cfg.rsp_channels, cfg.rsp_temporal_strides))
        in_c = 1 if cfg.input_channels == 4 else cfg.input_channels
    kt, ks = cfg.temporal_kernel, cfg.spatial_kernel
    rng = np.random.default_rng([cfg.seed, 0 if branch == "bvp" else 1])
    layers = []
    for out_c, stride in blocks:
        k = 1.0 / np.sqrt(in_c * kt * ks ** 2)
        w = rng.uniform(-k, k, size=(out_c, in_c, kt, ks, ks))
        b = rng.uniform(-k, k, size=out_c)
        w.flags.writeable = b.flags.writeable = False
        layers.append((w, b, stride))
        in_c = out_c
    k = 1.0 / np.sqrt(in_c)
    head_w = rng.uniform(-k, k, size=in_c)
    head_w.flags.writeable = False
    head_b = float(rng.uniform(-k, k))
    return tuple(layers), head_w, head_b


def param_count(cfg):
    total = 0
    for layers, head_w, _ in cfg.weights.values():
        total += sum(w.size + b.size for w, b, _ in layers)
        total += head_w.size + 1
    return total


def _resample_linear(x, length):
    if x.size == length:
        return x.copy()
    src = np.linspace(0.0, length - 1.0, num=x.size)
    return np.interp(np.arange(length), src, x)


def _branch_forward(clip, cfg, branch, target, fs):
    """One branch's forward pass on a VideoClip; target is None or a finite
    vector of one sample per frame (forward_multitask checks both)."""
    if clip.height != cfg.input_resolution:
        raise DomainError(
            f"clip resolution {clip.height} does not match config {cfg.input_resolution}"
        )
    layers, head_w, head_b = cfg.weights[branch]
    expected = layers[0][0].shape[1]
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

    x = VoxelEmbedding(clip.data)
    pad = (cfg.temporal_kernel // 2, cfg.spatial_kernel // 2, cfg.spatial_kernel // 2)
    for i, (w, b, stride) in enumerate(layers):
        x = conv3d_forward(x, w, b, (stride, SPATIAL_STRIDE, SPATIAL_STRIDE), pad)
        x = VoxelEmbedding(np.maximum(x.data, 0.0))
        if i == cfg.attention_index and att_cfg is not None:
            tgt = None if target is None else _resample_linear(target, x.tau)
            x = compute_attention(x, att_cfg, tgt).excited

    pooled = x.data.mean(axis=(2, 3))              # (t', c)
    samples = pooled @ head_w + head_b             # (t',)
    if branch == "rsp":
        samples = _resample_linear(samples, clip.frames)
    return Waveform(samples, fs)


def forward_multitask(rgb, thermal, cfg, bvp_target=None, rsp_target=None, fs=25.0):
    """Run both branches, routing modalities by availability.

    With both modalities the pulse branch reads RGB and the respiration
    branch reads thermal; with a single modality both branches share it.

    The arguments are checked before either branch starts: each modality
    given must be a VideoClip, fs a finite real > 0, and each target
    given must be real, finite and hold one sample per frame, whether or
    not its branch's attention reads it.

    The respiration branch runs on a worker thread while this thread
    runs the pulse branch; each output is bit for bit its branch run
    alone. Both branches finish before the call returns or raises, and
    the error is the one the serial order gives: the pulse branch's if it
    fails, else the respiration branch's. The weights are drawn here,
    before the worker starts.

    Returns:
        (pulse Waveform, respiration Waveform), each of length T.
    """
    if rgb is None and thermal is None:
        raise DomainError("forward_multitask needs at least one modality")
    for name, clip in (("rgb", rgb), ("thermal", thermal)):
        if clip is not None and not isinstance(clip, VideoClip):
            raise DomainError(f"{name} must be a VideoClip, got {type(clip).__name__}")
    if rgb is not None and thermal is not None and rgb.frames != thermal.frames:
        raise DomainError(
            f"frame count mismatch between modalities: {rgb.frames} vs {thermal.frames}"
        )
    bvp_clip = rgb if rgb is not None else thermal
    rsp_clip = thermal if thermal is not None else rgb
    fs = check_real(fs, "fs", gt=0)
    if bvp_target is not None:
        bvp_target = check_finite(bvp_target, "bvp_target", size=bvp_clip.frames)
    if rsp_target is not None:
        rsp_target = check_finite(rsp_target, "rsp_target", size=rsp_clip.frames)
    cfg.weights    # drawn in this thread: cached_property need not lock
    rsp = {}

    def respiration():
        try:
            rsp["wave"] = _branch_forward(rsp_clip, cfg, "rsp", rsp_target, fs)
        except Exception as err:    # raised below, once the pulse branch is done
            rsp["error"] = err

    # the worker runs in a copy of this thread's context, so numpy's error
    # state (np.errstate) holds in both branches; that needs numpy 2, where
    # the error state is a context variable rather than per-thread state
    worker = threading.Thread(target=contextvars.copy_context().run, args=(respiration,))
    worker.start()
    try:
        pulse = _branch_forward(bvp_clip, cfg, "bvp", bvp_target, fs)
    finally:
        worker.join()
    if "error" in rsp:
        raise rsp["error"]
    return pulse, rsp["wave"]
