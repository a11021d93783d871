"""Outputs pinned to goldens written before the metric suite's rework
(one spectrum grid, one band table, MACC rows scaled once), so that
"the outputs did not change" is a check, not a claim.

Text outputs (the default config document and the synth CSVs) must
match byte for byte. Reports and forward outputs pass through BLAS and
numpy sums, whose order depends on the kernel the CPU selects, so each
numeric field must lie within 1e-13 of its golden's largest magnitude;
every other field must be equal.

After an intended change of an output, rewrite the goldens with
    PYTHONPATH=src python tests/test_goldens.py --write
and say in the change why they moved.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from physfactor.attention import AttentionConfig
from physfactor.cli import main
from physfactor.network import ModelConfig, forward_multitask
from physfactor.synth import gen_clip, gen_pulse, gen_resp

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
NONDEFAULT_INI = str(DATA / "nondefault.ini")
TSFM_TARGET = str(GOLDEN / "tsfm_target.csv")    # 32 samples, one per row of the 32x64 demo matrix
TOL = 1e-13

# golden file -> argv; the file holds the CSV that --out names
SYNTH_CASES = {
    "synth_pulse.csv": ["synth", "--kind", "pulse", "--fs", "25", "--rate", "84", "--duration", "12",
                        "--harmonic-ratio", "0.3", "--noise-sigma", "0.1", "--seed", "5"],
    "synth_resp.csv": ["synth", "--kind", "resp", "--fs", "5", "--rate", "15", "--duration", "40",
                       "--noise-sigma", "0.05", "--with-time", "--seed", "2"],
}

# reports.json key -> argv; the golden is the JSON report on stdout
REPORT_CASES = {
    "factorize_fsam": ["factorize", "--demo-shape", "32,64"],
    "factorize_grbf": ["factorize", "--demo-shape", "32,64", "--variant", "grbf", "--seed", "1"],
    "factorize_tsfm": ["factorize", "--demo-shape", "32,64", "--variant", "tsfm", "--target", TSFM_TARGET],
    "attend_fsam": ["attend"],
    "attend_grbf": ["attend", "--variant", "grbf", "--seed", "1"],
    "attend_tsfm": ["attend", "--variant", "tsfm", "--shape", "100,3,3,3", "--n-planted", "9"],
    "demo_forward": ["demo-forward", "--frames", "48"],
    "demo_forward_nondefault": ["demo-forward", "--frames", "300", "--config", NONDEFAULT_INI],
    "metrics_hr_nondefault": ["metrics", "--pred", str(DATA / "metrics_hr_pred.csv"), "--gt", str(DATA / "metrics_hr_gt.csv"),
                              "--fs", "12.5", "--format", "json", "--config", NONDEFAULT_INI],
    "metrics_rr_nondefault": ["metrics", "--pred", str(DATA / "metrics_rr_pred.csv"), "--gt", str(DATA / "metrics_rr_gt.csv"),
                              "--fs", "5", "--kind", "rr", "--format", "json", "--config", NONDEFAULT_INI],
}

# forward.json key -> (variant, resolution, channels, frames, model seed)
FORWARD_CASES = {
    f"{variant}_{res}px_seed{seed}": (variant, res, channels, frames, seed)
    for variant, res, channels, frames in (("fsam", 36, 3, 32), ("grbf", 9, 4, 64), ("tsfm", 9, 4, 48))
    for seed in (0, 1)
}


def _run(argv, capsys):
    assert main(argv) == 0
    return capsys.readouterr().out


def _forward(variant, res, channels, frames, seed):
    att = AttentionConfig(variant, seed=seed)
    cfg = ModelConfig(input_resolution=res, input_channels=channels,
                      bvp_attention=att, rsp_attention=att, seed=seed)
    rgb = gen_clip(frames, res, 3, seed=0)
    thermal = gen_clip(frames, res, 1, seed=1) if channels == 4 else None
    targets = {}
    if variant == "tsfm":
        targets = {"bvp_target": gen_pulse(25.0, 72.0, frames / 25.0).samples,
                   "rsp_target": gen_resp(25.0, 15.0, frames / 25.0).samples}
    pulse, resp = forward_multitask(rgb, thermal, cfg, **targets)
    return {"bvp": pulse.samples.tolist(), "rsp": resp.samples.tolist()}


def _assert_close(got, want, where):
    """got matches want field by field: a float or a list of floats
    within TOL of the golden field's largest magnitude, anything else
    equal."""
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, float) or (isinstance(want, list) and want and isinstance(want[0], float)):
        got, want = np.asarray(got, dtype=float), np.asarray(want)
        assert got.shape == want.shape, where
        assert np.abs(got - want).max() <= TOL * np.abs(want).max(), where
    else:
        assert got == want, where


@pytest.fixture(autouse=True)
def _no_env_config(monkeypatch):
    monkeypatch.delenv("PHYSFACTOR_CONFIG", raising=False)


def test_config_defaults_match_golden(capsys):
    assert _run(["config", "--print-defaults"], capsys) == (GOLDEN / "config_defaults.ini").read_text()


@pytest.mark.parametrize("golden", sorted(SYNTH_CASES))
def test_synth_csv_matches_golden(golden, tmp_path, capsys):
    out = tmp_path / golden
    _run(SYNTH_CASES[golden] + ["--out", str(out)], capsys)
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("case", sorted(REPORT_CASES))
def test_report_matches_golden(case, capsys):
    want = json.loads((GOLDEN / "reports.json").read_text())[case]
    _assert_close(json.loads(_run(REPORT_CASES[case], capsys)), want, case)


@pytest.mark.parametrize("case", sorted(FORWARD_CASES))
def test_forward_output_matches_golden(case):
    want = json.loads((GOLDEN / "forward.json").read_text())[case]
    _assert_close(_forward(*FORWARD_CASES[case]), want, case)


def _write_goldens():
    def stdout_of(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0
        return buf.getvalue()

    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "config_defaults.ini").write_text(stdout_of(["config", "--print-defaults"]))
    with tempfile.TemporaryDirectory() as tmp:
        for golden, argv in SYNTH_CASES.items():
            stdout_of(argv + ["--out", str(Path(tmp) / golden)])
            (GOLDEN / golden).write_bytes((Path(tmp) / golden).read_bytes())
    reports = {case: json.loads(stdout_of(argv)) for case, argv in REPORT_CASES.items()}
    (GOLDEN / "reports.json").write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
    forward = {case: _forward(*spec) for case, spec in FORWARD_CASES.items()}
    (GOLDEN / "forward.json").write_text(json.dumps(forward, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_goldens.py --write")
    _write_goldens()
