"""Smoke test of the benchmark harness, at tiny sizes, in a few seconds:

    python3 perfbench/smoke.py

Runs every workload untraced and traced, checks that every op passes,
that the exact counters repeat between two traced runs and that the
output checks reject a wrong answer, then runs the command line once and
parses its result line.
"""

import json
import subprocess
import sys
import types

import run

run.prepare()

import harness  # noqa: E402  (needs the import path set by prepare)
import numpy as np  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SCALE = 0.05
SEED = 3


def check(cond, what):
    if not cond:
        raise SystemExit(f"smoke: FAILED: {what}")
    print(f"smoke: ok: {what}")


def exact_counts(metrics):
    return {name: metrics[name][0] for name in tracing.COUNTS}


def probe_checks():
    pf = harness.import_package()
    rec = tracing.Recorder(1e-6)
    rec.begin_op()
    wave = pf.tensors.Waveform(np.zeros(750), 25.0)
    rec.check_rate(36.0, wave, pf.metrics.HR_BAND, 8)    # 0.6 Hz, the lower edge
    rec.check_rate(72.0, wave, pf.metrics.HR_BAND, 8)
    check(rec.op.counts["metrics.band_edge_rates"] == 1, "band-edge probe flags the edge rate only")
    rec.check_trace(types.SimpleNamespace(error_trace=np.array([3.0, 2.0, 2.1])))
    rec.check_trace(types.SimpleNamespace(error_trace=np.array([3.0, 2.0, 2.0])))
    check(rec.op.counts["factorize.trace_rises"] == 1, "trace probe flags the rising trace only")


def main():
    probe_checks()
    for cls in workloads.WORKLOADS.values():
        wl = cls(scale=SCALE)
        r = harness.Run(wl, SEED)
        metrics, attempted, failed, _ = r.end_to_end(0)
        check(failed == 0 and attempted >= harness.MIN_OPS, f"{wl.name}: {attempted} untraced ops pass")
        check(all(v > 0 for v, _ in metrics.values()), f"{wl.name}: end-to-end metrics are positive")

        counts = []
        for _ in range(2):
            metrics, attempted, failed, repeat = harness.Run(wl, SEED).per_layer(0)
            check(failed == 0 and repeat, f"{wl.name}: traced ops pass, counters repeat op to op")
            counts.append(exact_counts(metrics))
        check(counts[0] == counts[1], f"{wl.name}: exact counters repeat run to run {counts[0]}")
        if wl.name == "eval-10min":
            check(metrics["metrics.macc.lags"][0] > 0 and metrics["metrics.macc_s"][0] > 0, "eval spans recorded")
        else:
            check(metrics["network.conv.flop"][0] > 0 and metrics["network.conv.bvp.b0_s"][0] > 0, "conv spans recorded")
            check(metrics["factorize.iterations"][0] == 8, "two MU solves of 4 iterations")

        out = wl.run(r.pf, r.state, r.inputs)
        wrong = tuple(
            {**e, "macc": {"avg": e["macc"]["avg"] * 1.001, "se": e["macc"]["se"]}} if isinstance(e, dict) else e * 1.001
            for e in r.expected
        )
        check(wl.problems(out, wrong), f"{wl.name}: output check rejects a wrong reference")

    res = subprocess.run(
        [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload", "forward-long9",
         "--seed", str(SEED), "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=170,
    )
    result = json.loads(res.stdout.strip().splitlines()[-1])
    check(res.returncode == 0 and result["correct"] and set(result) == {"correct", "attempted", "failed", "metrics"},
          "command line prints a correct result line")


if __name__ == "__main__":
    main()
