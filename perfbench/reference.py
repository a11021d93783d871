"""Frozen reference numerics for the benchmark's output checks.

A compact copy of the forward pass and the windowed evaluation as they
stood when the benchmark was defined: same operations in the same
order, without input validation. It imports nothing from physfactor, so
a later change to the package is compared against this fixed oracle,
not against itself. The architecture constants are the package
defaults of that commit (four blocks of 8, 12, 12, 8 channels, 3x3x3
kernels, spatial stride 2, respiration temporal strides 2, 2, 1, 1,
attention after block 2, rank 8, 4 MU iterations, guard 1e-6).
"""

import numpy as np

CHANNELS = (8, 12, 12, 8)
RSP_STRIDES = (2, 2, 1, 1)
ATTENTION_INDEX = 2
RANK = 8
ITERATIONS = 4
GUARD = 1e-6
GRBF_SIGMA = 2.0
GRBF_DELTA_T = 4
HR_BAND = (0.6, 3.3)
RR_BAND = (0.1, 0.5)
PAD_FACTOR = 8
WINDOW_S = 30.0
MIN_S = 10.0


# ---------------------------------------------------------------- network

def conv3d(x, w, b, strides, pad):
    st, sa, sb = strides
    pt, pa, pb = pad
    xp = np.pad(x, ((pt, pt), (0, 0), (pa, pa), (pb, pb)))
    t_in, _, a_in, b_in = xp.shape
    co, _, kt, ka, kb = w.shape
    t_out = (t_in - kt) // st + 1
    a_out = (a_in - ka) // sa + 1
    b_out = (b_in - kb) // sb + 1
    out = np.zeros((t_out, a_out, b_out, co))
    for dt in range(kt):
        xt = xp[dt : dt + (t_out - 1) * st + 1 : st]
        for da in range(ka):
            for db in range(kb):
                xs = xt[:, :, da : da + (a_out - 1) * sa + 1 : sa, db : db + (b_out - 1) * sb + 1 : sb]
                out += np.tensordot(xs, w[:, :, dt, da, db], axes=([1], [1]))
    return np.ascontiguousarray(np.moveaxis(out, 3, 1) + b[None, :, None, None])


def init_branch(seed, branch, in_c):
    rng = np.random.default_rng([seed, 0 if branch == "bvp" else 1])
    strides = (1, 1, 1, 1) if branch == "bvp" else RSP_STRIDES
    layers = []
    for out_c, st in zip(CHANNELS, strides):
        k = 1.0 / np.sqrt(in_c * 27)
        w = rng.uniform(-k, k, size=(out_c, in_c, 3, 3, 3))
        b = rng.uniform(-k, k, size=out_c)
        layers.append((w, b, st))
        in_c = out_c
    k = 1.0 / np.sqrt(in_c)
    head_w = rng.uniform(-k, k, size=in_c)
    head_b = float(rng.uniform(-k, k))
    return layers, head_w, head_b


def resample(x, length):
    if x.size == length:
        return x.copy()
    return np.interp(np.arange(length), np.linspace(0.0, length - 1.0, num=x.size), x)


def branch_forward(clip, branch, attention, target, seed):
    """One branch on a (t, c, h, w) clip; attention is None, "fsam",
    "grbf" or "tsfm"."""
    layers, head_w, head_b = init_branch(seed, branch, clip.shape[1])
    x = clip
    for i, (w, b, st) in enumerate(layers):
        x = np.maximum(conv3d(x, w, b, (st, 2, 2), (1, 1, 1)), 0.0)
        if i == ATTENTION_INDEX and attention is not None:
            tgt = None if target is None else resample(np.asarray(target, dtype=np.float64), x.shape[0])
            x = attend(x, attention, tgt, seed)
    samples = x.mean(axis=(2, 3)) @ head_w + head_b
    if branch == "rsp":
        samples = resample(samples, clip.shape[0])
    return samples


def forward(bvp_clip, rsp_clip, bvp_attention, rsp_attention, bvp_target, rsp_target, seed):
    return (
        branch_forward(bvp_clip, "bvp", bvp_attention, bvp_target, seed),
        branch_forward(rsp_clip, "rsp", rsp_attention, rsp_target, seed),
    )


# ---------------------------------------------------------------- attention

def nmf(a, rank, seed):
    m, n = a.shape
    rng = np.random.default_rng(seed)
    w = 1.0 - rng.random((m, rank))
    h = 1.0 - rng.random((rank, n))
    for _ in range(ITERATIONS):
        h *= (w.T @ a) / (w.T @ w @ h + GUARD)
        w *= (a @ h.T) / (w @ h @ h.T + GUARD)
    return w @ h


def constrained_nmf(a, b, rank, seed):
    rng = np.random.default_rng(seed)
    p = 1.0 - rng.random((b.shape[1], rank))
    q = 1.0 - rng.random((rank, a.shape[1]))
    btb = b.T @ b
    btv = b.T @ a
    for _ in range(ITERATIONS):
        p *= (btv @ q.T) / (btb @ p @ q @ q.T + GUARD)
        q *= (p.T @ btv) / (p.T @ btb @ p @ q + GUARD)
    return b @ p @ q


def grbf(m):
    k = (m - 1) // GRBF_DELTA_T + 1
    rows = np.arange(m)[:, None]
    centers = np.arange(k)[None, :] * GRBF_DELTA_T
    return np.exp(-((rows - centers) ** 2) / (2.0 * GRBF_SIGMA ** 2))


def target_column(y, floor=1e-3):
    lo, hi = y.min(), y.max()
    return (floor + (1.0 - floor) * (y - lo) / (hi - lo))[:, None]


def instance_norm(x, epsilon=1e-5):
    mu = x.mean(axis=(0, 2, 3), keepdims=True)
    var = x.var(axis=(0, 2, 3), keepdims=True)
    return (x - mu) / np.sqrt(var + epsilon)


def attend(x, variant, target, seed):
    t = x.shape[0]
    v = np.maximum(x, 0.0).reshape(t, -1)
    if variant == "fsam":
        low = nmf(v, RANK, seed)
    elif variant == "grbf":
        low = constrained_nmf(v, grbf(t), RANK, seed)
    else:
        low = constrained_nmf(v, target_column(target), RANK, seed)
    attended = np.maximum(low.reshape(x.shape), 0.0)
    return x + instance_norm(x * attended)


# ---------------------------------------------------------------- metrics

def rate_fft(x, fs, band):
    nfft = PAD_FACTOR * (1 << (x.size - 1).bit_length())
    spec = np.abs(np.fft.rfft(x - x.mean(), n=nfft))
    freqs = np.fft.rfftfreq(nfft, 1.0 / fs)
    idx = np.flatnonzero((freqs >= band[0]) & (freqs <= band[1]))
    return 60.0 * freqs[idx[np.argmax(spec[idx])]]


def snr(x, fs, ref_rate, band):
    f0 = ref_rate / 60.0
    x = x - x.mean()
    power = np.abs(np.fft.rfft(x)) ** 2
    freqs = np.fft.rfftfreq(x.size, 1.0 / fs)
    sig = (np.abs(freqs - f0) <= 0.1) | (np.abs(freqs - 2 * f0) <= 0.2)
    inband = (freqs >= band[0]) & (freqs <= band[1])
    p_sig = float(power[sig].sum())
    p_noise = float(power[inband & ~sig].sum())
    if p_sig == 0.0:
        return -20.0
    if p_noise == 0.0:
        return 40.0
    return float(np.clip(10.0 * np.log10(p_sig / p_noise), -20.0, 40.0))


def pearson(a, b):
    ac = a - a.mean()
    bc = b - b.mean()
    denom = np.sqrt(float(ac @ ac) * float(bc @ bc))
    return 0.0 if denom == 0.0 else float(ac @ bc) / denom


def macc(x, y, fs):
    n = x.size
    max_lag = int(round(x.size / (2.0 * fs) * fs))
    best = 0.0
    for lag in range(-max_lag, max_lag + 1):
        a, b = (x[lag:], y[: n - lag]) if lag >= 0 else (x[: n + lag], y[-lag:])
        if a.size >= 3:
            best = max(best, abs(pearson(a, b)))
    return min(best, 1.0)


def avg_se(terms):
    terms = np.asarray(terms, dtype=np.float64)
    se = float(terms.std(ddof=1) / np.sqrt(terms.size)) if terms.size > 1 else 0.0
    return {"avg": float(terms.mean()), "se": se}


def split(x, fs):
    size = int(round(WINDOW_S * fs))
    return [x[s : s + size] for s in range(0, x.size, size) if x[s : s + size].size / fs >= MIN_S]


def evaluate(pred, gt, fs, kind):
    """The report dict of evaluate_windows(pred, gt, kind) with default
    window, padding, lag and corr="auto" settings, for rate series whose
    Corr is defined."""
    band = HR_BAND if kind == "hr" else RR_BAND
    n = min(pred.size, gt.size)
    rp, rg, snrs, maccs = [], [], [], []
    for wp, wg in zip(split(pred[:n], fs), split(gt[:n], fs)):
        rp.append(rate_fft(wp, fs, band))
        rg.append(rate_fft(wg, fs, band))
        snrs.append(snr(wp, fs, rg[-1], band))
        maccs.append(macc(wp, wg, fs))
    p = np.asarray(rp)
    g = np.asarray(rg)
    d = p - g
    sq = avg_se(d * d)
    r = pearson(p, g)
    return {
        "n": p.size,
        "mae": avg_se(np.abs(d)),
        "rmse": {"avg": float(np.sqrt(sq["avg"])), "se": sq["se"]},
        "mape": avg_se(100.0 * np.abs(d / g)),
        "corr": {"avg": r, "se": float((1.0 - r * r) / np.sqrt(p.size - 3)) if p.size > 3 else float("inf")},
        "snr": avg_se(snrs),
        "macc": avg_se(maccs),
    }
