"""Closed-loop measurement of one workload: one caller, the next op
starts when the previous one has returned.

A run sets up (fresh import of physfactor, default run config, model or
settings), builds its inputs from the seed, computes the reference once,
warms up with one op, then repeats the op until the time is up. Set-up
is repeated about every 5 s between ops, and its median is
`setup_s`. Every op's output is checked; an op that raises or fails a
check counts as failed.

Untraced runs report the end-to-end metrics. Traced runs alternate
untraced and traced ops, report per-layer medians over the traced ones
and the tracing overhead as the gap between the two op medians.
"""

import gc
import importlib
import resource
import statistics
import sys
import time
import traceback
import types

import tracing

# Set-ups before the first op; while measuring, one more after the first
# op that ends at least SETUP_EVERY_S after the last one, so set-up is
# sampled across the same stretch of time as the ops. The op after a
# set-up runs a few percent slower (cold caches), so set-ups are sparse.
SETUP_REPS = 3
SETUP_EVERY_S = 5.0
MIN_OPS = 3
# Tail percentile of op time. Fixed rather than derived from each run's
# op count, so that a faster program is not judged on a higher
# percentile; at the seed commit the slowest workload completes about
# 50 ops in 35 s, which leaves 10 samples beyond p80.
TAIL_PERCENTILE = 80

PACKAGE_MODULES = ("attention", "config", "factorize", "metrics", "network", "synth", "tensors")


def import_package():
    """Import physfactor afresh, so that set-up time includes module
    execution each time it is measured."""
    for name in [m for m in sys.modules if m == "physfactor" or m.startswith("physfactor.")]:
        del sys.modules[name]
    return types.SimpleNamespace(
        **{m: importlib.import_module("physfactor." + m) for m in PACKAGE_MODULES}
    )


def tail(times):
    return statistics.quantiles(times, n=100, method="inclusive")[TAIL_PERCENTILE - 1]


class Run:
    """State of one benchmark run of one workload."""

    def __init__(self, workload, seed, model_seed=0):
        self.workload = workload
        self.model_seed = model_seed
        self.setup_times, self.config_times = [], []
        for _ in range(SETUP_REPS):
            self.pf, self.cfg, self.state = self.set_up()
        self.synth_s = {"synth.gen_clip_s": 0.0, "synth.gen_signal_s": 0.0}
        self.inputs = workload.make_inputs(self.pf, seed, self._timed_synth)
        self.expected = workload.reference(self.state, self.inputs)
        self.rec = tracing.Recorder(self.cfg.epsilon)
        self.failures = []

    def set_up(self):
        """One timed set-up: fresh import, default run config, model or
        settings. Returns (package namespace, config, state)."""
        # the previous import's module objects are cyclic garbage;
        # collect them now rather than inside the timed import
        gc.collect()
        t0 = time.perf_counter()
        pf = import_package()
        t1 = time.perf_counter()
        cfg = pf.config.load_run_config(seed_override=self.model_seed)
        t2 = time.perf_counter()
        state = self.workload.build(pf, cfg)
        self.setup_times.append(time.perf_counter() - t0)
        self.config_times.append(t2 - t1)
        return pf, cfg, state

    def _timed_synth(self, name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.synth_s[name + "_s"] += time.perf_counter() - t0
        return out

    def op(self, traced):
        """Run one op; return (seconds or None if it raised, problems)."""
        rec = self.rec
        rec.begin_op()
        spans = tracing.Rebinder()
        if traced:
            tracing.install_spans(self.pf, rec, spans)
        try:
            t0 = time.perf_counter()
            out = self.workload.run(self.pf, self.state, self.inputs)
            dt = time.perf_counter() - t0
            problems = rec.op.problems + self.workload.problems(out, self.expected)
        except Exception:
            # the op boundary keeps the loop going; the failure is counted
            return None, [traceback.format_exc()]
        finally:
            spans.restore()
        return dt, problems

    def measure(self, seconds, traced):
        """Repeat the op for `seconds` (at least MIN_OPS times) after one
        warm-up op; return the list of (traced, seconds, record) per op
        that completed, and the number attempted and failed."""
        probes = tracing.Rebinder()
        tracing.install_probes(self.pf, self.rec, probes)
        ops, attempted, failed = [], 0, 0
        try:
            self.op(traced=False)
            if traced:
                self.op(traced=True)
            start = time.perf_counter()
            deadline, next_setup = start + seconds, start + SETUP_EVERY_S
            while attempted < MIN_OPS or time.perf_counter() < deadline:
                is_traced = traced and attempted % 2 == 1
                dt, problems = self.op(is_traced)
                attempted += 1
                if problems:
                    failed += 1
                    self.failures.append(problems)
                if dt is not None:
                    ops.append((is_traced, dt, self.rec.op))
                if time.perf_counter() >= next_setup:
                    self.set_up()
                    next_setup = time.perf_counter() + SETUP_EVERY_S
        finally:
            probes.restore()
        if not ops:
            raise RuntimeError("no op completed:\n" + "\n".join(self.failures[0]))
        return ops, attempted, failed

    def end_to_end(self, seconds):
        ops, attempted, failed = self.measure(seconds, traced=False)
        times = [dt for _, dt, _ in ops]
        p50 = statistics.median(times)
        metrics = {
            "op_p50_s": (p50, "s"),
            "op_p80_s": (tail(times), "s"),
            "realtime_factor": (self.workload.signal_s / p50, "s/s"),
            "setup_s": (statistics.median(self.setup_times), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            "ok_frac": ((attempted - failed) / attempted, "fraction"),
        }
        return metrics, attempted, failed, True

    def per_layer(self, seconds):
        ops, attempted, failed = self.measure(seconds, traced=True)
        traced = [(dt, tracing.op_summary(rec, dt)) for is_traced, dt, rec in ops if is_traced]
        plain = [dt for is_traced, dt, _ in ops if not is_traced]
        summaries = [s for _, s in traced]

        repeat = True
        for name in tracing.COUNTS:
            values = {s[name] for s in summaries}
            if len(values) > 1:
                repeat = False
                print(f"counter {name} differs between ops: {sorted(values)}", file=sys.stderr)

        med = lambda key: statistics.median(s[key] for s in summaries)
        metrics = {}
        for name in tracing.SPAN_METRICS:
            metrics[name + "_s"] = (med(name + "_s"), "s")
        metrics["network.self_s"] = (med("network.self_s"), "s")
        for name, unit in tracing.COUNTS.items():
            metrics[name] = (summaries[0][name], unit)
        conv_s = [
            sum(s[f"network.conv.{br}.b{i}_s"] for br in ("bvp", "rsp") for i in range(tracing.BLOCKS))
            for s in summaries
        ]
        flop = summaries[0]["network.conv.flop"]
        metrics["network.conv.gflop_s"] = (flop / statistics.median(conv_s) / 1e9 if flop else 0.0, "GFLOP/s")
        for name, value in self.synth_s.items():
            metrics[name] = (value, "s")
        metrics["config.load_run_config_s"] = (statistics.median(self.config_times), "s")
        p50_traced = statistics.median(dt for dt, _ in traced)
        p50_plain = statistics.median(plain)
        metrics["bench.op_p50_traced_s"] = (p50_traced, "s")
        metrics["bench.op_p50_untraced_s"] = (p50_plain, "s")
        metrics["bench.trace_overhead_s"] = (p50_traced - p50_plain, "s")
        return metrics, attempted, failed, repeat
