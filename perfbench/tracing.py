"""Spans and counters recorded from outside the package.

The benchmark never edits physfactor. It rebinds the public names that
the calling module looks up at call time (for example
`physfactor.network.conv3d_forward`, which `forward_multitask` reaches
through the network module's globals) to thin wrappers, and restores
them afterwards. Two kinds of wrapper exist:

- probes, always installed, read return values that the output checks
  need (MU error traces, estimated rates) and cost a few attribute
  reads per call;
- spans, installed only for traced ops, time each call and count the
  work it did.

Spans live in memory, one list per op, as (id, parent, name, start,
end) tuples; the harness folds them into per-op totals.
"""

import time
from collections import defaultdict

import numpy as np

# Conv blocks per branch in the default model; spans are named by them.
BLOCKS = 4


class OpRecord:
    """Spans and counters of one op."""

    def __init__(self, op_id):
        self.op_id = op_id
        self.spans = []                  # (id, parent, name, start, end)
        self.counts = defaultdict(float)
        self.conv_calls = 0
        self.attention_calls = 0
        self.problems = []

    def total(self, name):
        return sum(end - start for _, _, n, start, end in self.spans if n == name)

    def total_prefix(self, prefix):
        return sum(end - start for _, _, n, start, end in self.spans if n.startswith(prefix))


class Recorder:
    """Current-op state shared by every wrapper of one benchmark run."""

    def __init__(self, guard):
        self.guard = guard
        self.op = OpRecord(-1)
        self._stack = []
        self._next_id = 0
        self._next_op = 0

    def begin_op(self):
        self.op = OpRecord(self._next_op)
        self._next_op += 1
        self._stack = []
        return self.op

    def timed(self, name, fn, *args, **kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.op.spans.append((span_id, parent, name, start, end))

    # ------------------------------------------------------------ probes

    def check_trace(self, res):
        """Count an MU error trace that rises by more than the guard,
        relative to the previous iterate."""
        tr = np.asarray(res.error_trace)
        if np.any(tr[1:] > tr[:-1] * (1.0 + self.guard)):
            self.op.counts["factorize.trace_rises"] += 1
            self.op.problems.append("MU error trace rises")

    def check_rate(self, rate, wave, band, pad_factor):
        """Count a rate within one padded FFT bin of its band edge."""
        nfft = pad_factor * (1 << (wave.samples.size - 1).bit_length())
        hz = rate / 60.0
        bin_hz = wave.fs / nfft
        self.op.counts["metrics.fft_points"] += nfft
        if hz - band.lo_hz < bin_hz or band.hi_hz - hz < bin_hz:
            self.op.counts["metrics.band_edge_rates"] += 1
            self.op.problems.append(f"rate {rate:.3f}/min on the edge of [{band.lo_hz}, {band.hi_hz}] Hz")


class Rebinder:
    """Swap module attributes for wrappers and put the originals back."""

    def __init__(self):
        self._saved = []

    def set(self, module, name, wrapper):
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)

    def restore(self):
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)


def install_probes(pf, rec, rebinder):
    """Probes the output checks rely on, in traced and untraced runs."""
    compute_attention = pf.network.compute_attention
    estimate_rate_fft = pf.metrics.estimate_rate_fft

    def attention_probe(eps, cfg, target=None):
        out = compute_attention(eps, cfg, target)
        rec.check_trace(out.factorization)
        rec.op.counts["factorize.iterations"] += out.factorization.iterations
        return out

    def rate_probe(wave, band, pad_factor=pf.metrics.PAD_FACTOR):
        rate = estimate_rate_fft(wave, band, pad_factor)
        rec.check_rate(rate, wave, band, pad_factor)
        return rate

    rebinder.set(pf.network, "compute_attention", attention_probe)
    rebinder.set(pf.metrics, "estimate_rate_fft", rate_probe)


def install_spans(pf, rec, rebinder):
    """Timing wrappers around each layer boundary. Installed after the
    probes, so the attention span covers the probe's few reads too."""
    net, att, met = pf.network, pf.attention, pf.metrics

    conv3d_forward = net.conv3d_forward

    def conv_span(eps, weights, bias=None, strides=(1, 1, 1), padding=(0, 0, 0)):
        i = rec.op.conv_calls
        rec.op.conv_calls += 1
        branch = "bvp" if i < BLOCKS else "rsp"
        name = f"network.conv.{branch}.b{i % BLOCKS}"
        out = rec.timed(name, conv3d_forward, eps, weights, bias, strides, padding)
        w = np.asarray(weights)
        t, a, b = out.data.shape[0], out.data.shape[2], out.data.shape[3]
        co, ci, kt, ka, kb = w.shape
        counts = rec.op.counts
        counts["network.conv.flop"] += 2 * t * a * b * co * ci * kt * ka * kb + (t * a * b * co if bias is not None else 0)
        counts["network.conv.bytes"] += eps.data.nbytes + w.nbytes + out.data.nbytes
        return out

    compute_attention = net.compute_attention

    def attention_span(eps, cfg, target=None):
        i = rec.op.attention_calls
        rec.op.attention_calls += 1
        name = "attention.compute_attention." + ("bvp" if i == 0 else "rsp")
        return rec.timed(name, compute_attention, eps, cfg, target)

    rebinder.set(net, "conv3d_forward", conv_span)
    rebinder.set(net, "compute_attention", attention_span)

    def solver_span(name, fn):
        def wrapper(v, *args, **kwargs):
            res = rec.timed(name, fn, v, *args, **kwargs)
            a = v.data if hasattr(v, "data") else np.asarray(v)
            rel = float(res.error_trace[-1] / np.linalg.norm(a))
            counts = rec.op.counts
            counts["factorize.final_rel_err"] = max(counts["factorize.final_rel_err"], rel)
            return res
        return wrapper

    rebinder.set(att, "nmf_mu", solver_span("factorize.nmf_mu", att.nmf_mu))
    rebinder.set(att, "constrained_nmf_mu", solver_span("factorize.constrained_nmf_mu", att.constrained_nmf_mu))

    def plain_span(module, attr, name):
        fn = getattr(module, attr)
        rebinder.set(module, attr, lambda *a, **k: rec.timed(name, fn, *a, **k))

    for attr in ("grbf_basis", "target_basis"):
        plain_span(att, attr, "factorize.basis")
    for attr in ("flatten_to_matrix", "unflatten_to_voxel"):
        plain_span(att, attr, "tensors.flatten")
    plain_span(att, "excite", "attention.excite")
    plain_span(att, "channel_mix_relu", "attention.channel_mix_relu")
    plain_span(att, "instance_norm", "tensors.instance_norm")
    plain_span(att, "hadamard", "tensors.hadamard")

    macc = met.macc

    def macc_span(pred, gt, max_lag_s=None):
        out = rec.timed("metrics.macc", macc, pred, gt, max_lag_s)
        lag_s = pred.samples.size / (2.0 * pred.fs) if max_lag_s is None else max_lag_s
        rec.op.counts["metrics.macc.lags"] += 2 * int(round(lag_s * pred.fs)) + 1
        return out

    split_windows = met.split_windows

    def split_span(*args, **kwargs):
        out = rec.timed("metrics.split_windows", split_windows, *args, **kwargs)
        rec.op.counts["metrics.windows"] += len(out)
        return out

    rebinder.set(met, "macc", macc_span)
    rebinder.set(met, "split_windows", split_span)
    plain_span(met, "estimate_rate_fft", "metrics.estimate_rate_fft")
    plain_span(met, "snr", "metrics.snr")
    plain_span(met, "error_metrics", "metrics.error_metrics")


# Timed spans reported as per-op medians, in seconds.
SPAN_METRICS = (
    [f"network.conv.{br}.b{i}" for br in ("bvp", "rsp") for i in range(BLOCKS)]
    + [
        "attention.compute_attention.bvp",
        "attention.compute_attention.rsp",
        "attention.excite",
        "attention.channel_mix_relu",
        "tensors.instance_norm",
        "tensors.hadamard",
        "tensors.flatten",
        "factorize.nmf_mu",
        "factorize.constrained_nmf_mu",
        "factorize.basis",
        "metrics.macc",
        "metrics.estimate_rate_fft",
        "metrics.snr",
        "metrics.error_metrics",
        "metrics.split_windows",
    ]
)

# Per-op counts with their units. Each is fixed by the input and the
# code, so each must repeat exactly from op to op and run to run.
COUNTS = {
    "network.conv.flop": "count",
    "network.conv.bytes": "B",
    "factorize.iterations": "count",
    "factorize.final_rel_err": "ratio",
    "factorize.trace_rises": "count",
    "metrics.macc.lags": "count",
    "metrics.fft_points": "count",
    "metrics.windows": "count",
    "metrics.band_edge_rates": "count",
}


def op_summary(record, op_s):
    """Per-op span totals, the forward self time and the counters."""
    out = {name + "_s": record.total(name) for name in SPAN_METRICS}
    covered = record.total_prefix("network.conv.") + record.total_prefix("attention.compute_attention.")
    out["network.self_s"] = max(op_s - covered, 0.0) if record.conv_calls else 0.0
    for name in COUNTS:
        out[name] = record.counts.get(name, 0.0)
    return out
