"""Command line driver.

Subcommands: factorize, attend, metrics, synth, bench, demo-forward,
config. Signals travel as CSV (one sample per line, or time,value
pairs); structured reports are JSON with sorted keys, so an emitted
report re-serializes byte-identically after parsing.

Exit codes: 0 success, 1 domain error (violated precondition), 2 I/O or
parse error.
"""

import argparse
import dataclasses
import itertools
import json
import math
import sys
import time
import zipfile

import numpy as np

from . import synth
from .attention import VARIANTS, compute_attention, csim_map, solve
from .config import ENV_CONFIG_PATH, defaults_text, load_run_config
from .errors import DomainError, InputFormatError, check_int, check_real
from .metrics import MIN_DURATION_S, estimate_rate_fft, evaluate_windows
from .network import forward_multitask, param_count
from .tensors import VoxelEmbedding, Waveform


def dump_json(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_text(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def read_signal_csv(path):
    """One value per line, or time,value pairs, every row alike; a single
    leading header line is tolerated. Returns the last column; rows are
    read and refused as in read_matrix_csv."""
    rows = read_matrix_csv(path, header=True)
    if rows.shape[1] > 2:
        raise InputFormatError(f"{path}: expected 1 or 2 columns, got {rows.shape[1]}")
    return rows[:, -1].copy()


def write_signal_csv(path, wave, with_time=False):
    _write_text(path, "".join(
        f"{i / wave.fs:.6f},{v:.10g}\n" if with_time else f"{v:.10g}\n" for i, v in enumerate(wave.samples)
    ))


def read_matrix_csv(path, header=False):
    """Comma-separated rows of finite numbers, all of one width; with
    header, a first line that does not parse is skipped. A bad row raises
    with its line number."""
    rows = []
    with open(path) as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError:
            raise InputFormatError(f"{path}: not a text file") from None
        for lineno, raw in enumerate(lines, 1):
            line = raw.strip()
            if not line:
                continue
            tokens = line.split(",")
            try:
                row = [float(tok) for tok in tokens]
            except ValueError:
                if header and not rows:
                    header = False
                    continue
                raise InputFormatError(f"{path}: line {lineno}: non-numeric entry") from None
            bad = [tok.strip() for tok, x in zip(tokens, row) if not math.isfinite(x)]
            if bad:
                raise InputFormatError(f"{path}: line {lineno}: not a finite number: {bad[0]!r}")
            if rows and len(row) != len(rows[0]):
                raise InputFormatError(
                    f"{path}: line {lineno}: expected {len(rows[0])} columns, got {len(row)}"
                )
            rows.append(row)
    if not rows:
        raise InputFormatError(f"{path}: no data rows")
    return np.asarray(rows)


def _emit_report(args, obj, also_stdout=True):
    text = dump_json(obj)
    if args.report:
        _write_text(args.report, text)
    if also_stdout:
        sys.stdout.write(text)


# ---------------------------------------------------------------- commands


def cmd_factorize(args):
    cfg = load_run_config(args.config, args.seed)
    flags = ("rank", "iterations", "grbf_sigma", "grbf_delta_t")
    att_cfg = dataclasses.replace(
        cfg.attention_config(args.variant),
        **{key: getattr(args, key) for key in flags if getattr(args, key) is not None},
    )
    if att_cfg.variant == "tsfm" and not args.target:
        raise DomainError("tsfm factorization needs --target")

    if args.input:
        v = read_matrix_csv(args.input)
    else:
        m, n = _parse_shape(args.demo_shape, 2, "--demo-shape")
        v = np.random.default_rng(cfg.seed).random((m, n))
    res = solve(v, att_cfg, read_signal_csv(args.target) if args.target else None)

    _emit_report(args, {
        "variant": att_cfg.variant,
        "m": v.shape[0],
        "n": v.shape[1],
        "rank": att_cfg.rank,
        "iterations": att_cfg.iterations,
        "seed": cfg.seed,
        "error_trace": [float(e) for e in res.error_trace],
        "final_error": float(res.error_trace[-1]),
    })
    return 0


def _parse_shape(text, length, flag):
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except (AttributeError, ValueError):
        raise InputFormatError(f"{flag} expects {length} comma-separated integers") from None
    if len(parts) != length:
        raise InputFormatError(f"{flag} expects {length} comma-separated integers")
    return tuple(check_int(x, flag, 1) for x in parts)


def cmd_attend(args):
    cfg = load_run_config(args.config, args.seed)
    att_cfg = cfg.attention_config(args.variant)

    if args.input:
        try:
            # opened here, so that it is closed also where np.load fails;
            # np.load hands a file that starts like a zip archive to zipfile
            with open(args.input, "rb") as fh:
                data = np.load(fh)
        except (ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise InputFormatError(f"{args.input}: not a numeric .npy array ({exc})") from None
        if not isinstance(data, np.ndarray):    # an .npz archive
            raise InputFormatError(f"{args.input}: expected one .npy array, got an archive")
        if data.ndim != 4:
            raise DomainError(f"{args.input}: expected a 4D array, got ndim={data.ndim}")
        eps = VoxelEmbedding(data)
        target = read_signal_csv(args.target) if args.target else None
        mask = None
    else:
        shape = _parse_shape(args.shape, 4, "--shape")
        tau = shape[0]
        pulse = synth.gen_pulse(args.fs, args.rate, tau / check_real(args.fs, "--fs", gt=0), seed=cfg.seed)
        rng = np.random.default_rng(cfg.seed)
        coords = list(itertools.product(*map(range, shape[1:])))
        rng.shuffle(coords)
        n_planted = check_int(args.n_planted, "--n-planted", 1)
        if n_planted >= len(coords):    # the report compares planted voxels with the rest
            raise DomainError(f"--n-planted must leave a background voxel: below the {len(coords)} voxels "
                              f"of --shape, got {n_planted}")
        eps, mask = synth.gen_planted_embedding(shape, coords[:n_planted], pulse, args.noise_sigma, cfg.seed)
        target = pulse.samples

    out = compute_attention(eps, att_cfg, target)
    report = {
        "variant": att_cfg.variant,
        "shape": list(eps.shape),
        "iterations": att_cfg.iterations,
        "rank": att_cfg.rank,
        "seed": att_cfg.seed,
        "final_error": float(out.factorization.error_trace[-1]),
    }
    if target is not None:
        cs = csim_map(out.excited, target)
        report["csim_mean"] = float(cs.mean())
        if mask is not None:
            report["csim_planted_mean"] = float(cs[mask].mean())
            report["csim_background_mean"] = float(cs[~mask].mean())
            report["csim_gap"] = float(cs[mask].mean() - cs[~mask].mean())
    if args.save_excited:
        np.save(args.save_excited, out.excited.data)
    _emit_report(args, report)
    return 0


def cmd_metrics(args):
    cfg = load_run_config(args.config, args.seed)
    pred = Waveform(read_signal_csv(args.pred), args.fs)
    gt = Waveform(read_signal_csv(args.gt), args.fs)
    report = evaluate_windows(
        pred,
        gt,
        window_s=args.window_s if args.window_s is not None else cfg.window_s,
        pad_factor=cfg.pad_factor,
        max_lag_s=args.max_lag_s if args.max_lag_s is not None else cfg.max_lag_s,
        band=cfg.band(args.kind),
    )
    _emit_report(args, report.as_dict(), also_stdout=args.format == "json")
    if args.format == "table":
        sys.stdout.write(_format_table(report))
    return 0


def _format_table(report):
    labels = (("mae", "MAE"), ("rmse", "RMSE"), ("mape", "MAPE"),
              ("corr", "Corr"), ("snr", "SNR"), ("macc", "MACC"))
    lines = [f"{'metric':<8}{'avg':>14}{'se':>14}"]
    for attr, label in labels:
        mv = getattr(report, attr)
        if mv is None:
            continue
        lines.append(f"{label:<8}{mv.avg:>14.6f}{mv.se:>14.6f}")
    lines.append(f"windows  {report.n}")
    return "\n".join(lines) + "\n"


def cmd_synth(args):
    cfg = load_run_config(args.config, args.seed)
    gen = synth.gen_pulse if args.kind == "pulse" else synth.gen_resp
    wave = gen(args.fs, args.rate, args.duration, args.harmonic_ratio, args.noise_sigma, cfg.seed)
    write_signal_csv(args.out, wave, with_time=args.with_time)
    sys.stdout.write(f"wrote {wave.samples.size} samples at {wave.fs} Hz to {args.out}\n")
    return 0


def _demo_setup(args):
    """The run config, the model (without attention if asked) and its
    demo clips: RGB and thermal for a 4-channel model, else one clip of
    the model's channel count as rgb."""
    cfg = load_run_config(args.config, args.seed)
    model = cfg.model_config(omit_attention=args.omit_attention)
    res, channels = model.input_resolution, model.input_channels
    rgb = synth.gen_clip(args.frames, res, 3 if channels == 4 else channels, seed=cfg.seed)
    thermal = synth.gen_clip(args.frames, res, 1, seed=cfg.seed + 1) if channels == 4 else None
    return cfg, model, rgb, thermal


def cmd_bench(args):
    check_int(args.repeats, "repeats", 1)
    _, model, rgb, thermal = _demo_setup(args)

    def run():
        t0 = time.perf_counter()
        forward_multitask(rgb, thermal, model)
        return time.perf_counter() - t0

    for _ in range(3):
        run()
    times = [run() for _ in range(args.repeats)]
    _emit_report(args, {
        "frames": args.frames,
        "resolution": model.input_resolution,
        "channels": model.input_channels,
        "param_count": param_count(model),
        "repeats": args.repeats,
        "warmup": 3,
        "min_s": min(times),
        "median_s": float(np.median(times)),
        "mean_s": float(np.mean(times)),
        "times_s": times,
    })
    return 0


def cmd_demo_forward(args):
    cfg, model, rgb, thermal = _demo_setup(args)
    pulse, resp = forward_multitask(rgb, thermal, model, fs=args.fs)
    hr = estimate_rate_fft(pulse, cfg.band("hr"), cfg.pad_factor) if pulse.duration_s >= MIN_DURATION_S else None
    rr = estimate_rate_fft(resp, cfg.band("rr"), cfg.pad_factor) if resp.duration_s >= MIN_DURATION_S else None
    if args.save_prefix:
        write_signal_csv(args.save_prefix + "_bvp.csv", pulse)
        write_signal_csv(args.save_prefix + "_rsp.csv", resp)
    _emit_report(args, {
        "frames": args.frames,
        "fs": args.fs,
        "bvp_len": pulse.samples.size,
        "rsp_len": resp.samples.size,
        "hr_bpm": hr,
        "rr_bpm": rr,
        "attention": model.bvp_attention is not None,
    })
    return 0


def cmd_config(args):
    if args.print_defaults:
        sys.stdout.write(defaults_text())
    else:
        load_run_config(args.check)
        sys.stdout.write(f"{args.check}: ok\n")
    return 0


# ---------------------------------------------------------------- parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="physfactor",
        description="Factorization attention, toy physiological model and metric suite.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None,
                        help=f"INI config path (falls back to ${ENV_CONFIG_PATH}, then defaults)")
    common.add_argument("--seed", type=int, default=None, help="override the configured RNG seed")
    common.add_argument("--report", default=None, help="write the JSON report to this path")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factorize", parents=[common], help="run one factorization on a matrix")
    p.add_argument("--input", help="CSV matrix, one comma-separated row per line")
    p.add_argument("--demo-shape", default="64,512", help="M,N for a seeded random matrix")
    p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--rank", type=int)
    p.add_argument("--iterations", type=int)
    p.add_argument("--grbf-sigma", type=float)
    p.add_argument("--grbf-delta-t", type=int)
    p.add_argument("--target", help="target signal CSV (tsfm)")
    p.set_defaults(fn=cmd_factorize)

    p = sub.add_parser("attend", parents=[common],
                       help="run the attention pipeline on a planted or loaded embedding")
    p.add_argument("--input", help="4D .npy embedding (t, c, a, b)")
    p.add_argument("--target", help="target signal CSV for tsfm / CSIM")
    p.add_argument("--shape", default="160,4,3,3", help="T,C,A,B of the planted embedding")
    p.add_argument("--n-planted", type=int, default=12)
    p.add_argument("--noise-sigma", type=float, default=0.3)
    p.add_argument("--rate", type=float, default=72.0)
    p.add_argument("--fs", type=float, default=25.0)
    p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--save-excited", help="save the excited embedding to this .npy path")
    p.set_defaults(fn=cmd_attend)

    p = sub.add_parser("metrics", parents=[common], help="windowed metric evaluation of two signal files")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--fs", type=float, required=True)
    p.add_argument("--kind", choices=("hr", "rr"), default="hr")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--window-s", type=float, default=None)
    p.add_argument("--max-lag-s", type=float, default=None)
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser("synth", parents=[common], help="write a synthetic signal CSV")
    p.add_argument("--kind", choices=("pulse", "resp"), default="pulse")
    p.add_argument("--fs", type=float, default=25.0)
    p.add_argument("--rate", type=float, default=72.0)
    p.add_argument("--duration", type=float, default=30.0)
    p.add_argument("--harmonic-ratio", type=float, default=0.0)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--with-time", action="store_true", help="write time,value rows")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("bench", parents=[common], help="time the dual-branch forward pass")
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--frames", type=int, default=160)
    p.add_argument("--omit-attention", action="store_true")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("demo-forward", parents=[common],
                       help="forward synthetic clips through both branches")
    p.add_argument("--frames", type=int, default=160)
    p.add_argument("--fs", type=float, default=25.0)
    p.add_argument("--omit-attention", action="store_true")
    p.add_argument("--save-prefix", help="write <prefix>_bvp.csv and <prefix>_rsp.csv")
    p.set_defaults(fn=cmd_demo_forward)

    p = sub.add_parser("config", parents=[common], help="print or validate configuration")
    action = p.add_mutually_exclusive_group(required=True)
    action.add_argument("--print-defaults", action="store_true")
    action.add_argument("--check", help="validate this INI file")
    p.set_defaults(fn=cmd_config)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:    # argparse printed a usage error (2) or the help (0)
        return exc.code
    try:
        return args.fn(args)
    except (DomainError, InputFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, DomainError) else 2


if __name__ == "__main__":
    sys.exit(main())
