"""Benchmark of physfactor, run from the root of a checkout:

    python3 perfbench/run.py --workload forward-rgb72 --seed 1 --seconds 30 --trace 0

Imports the package from the checkout's src/ and drives its public API
in one process, one caller at a time. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics:
with --trace 0 the end-to-end metrics, with --trace 1 the per-layer
ones. The line before it records the environment. A readable table goes
to standard error.

Workloads: forward-rgb72, forward-long9, eval-10min (see workloads.py
and README.md). --model-seed changes the weights and the solver start,
for re-checking a claim on inputs not used while it was developed.
"""

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# One BLAS thread: the conv GEMMs are small, and a second thread on a
# shared two-core machine mostly adds run-to-run spread.
BLAS_THREADS = 1
WORKLOAD_NAMES = ("forward-rgb72", "forward-long9", "eval-10min")


def prepare():
    """Put the checkout's src/ first on the import path and pin the BLAS
    thread count. Must run before numpy is imported."""
    if not (SRC / "physfactor" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'physfactor'} not found; run from the root of a physfactor checkout")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("PHYSFACTOR_CONFIG", None)
    sys.path.insert(0, str(SRC))


def git_commit():
    """The checked-out commit, read from .git without running git; None
    outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "model_seed": args.model_seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description="physfactor benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True, help="workload seed, >= 0")
    p.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--model-seed", type=int, default=0, help="weights and solver seed, >= 0")
    args = p.parse_args(argv)
    if args.seed < 0 or args.model_seed < 0 or args.seconds < 0:
        p.error("seeds and seconds must be >= 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    prepare()
    import harness
    import workloads

    run = harness.Run(workloads.WORKLOADS[args.workload](), args.seed, args.model_seed)
    if args.trace:
        metrics, attempted, failed, repeat = run.per_layer(args.seconds)
    else:
        metrics, attempted, failed, repeat = run.end_to_end(args.seconds)
    for problems in run.failures[:3]:
        print("failed op: " + "; ".join(problems), file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit}", file=sys.stderr)
    print("# env " + json.dumps(environment(args), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
