"""End-to-end CLI tests: exit codes, report shapes, file round trips."""

import json
from pathlib import Path

import numpy as np
import pytest

from physfactor import synth
from physfactor.cli import dump_json, main, read_matrix_csv, read_signal_csv, write_signal_csv
from physfactor.config import load_run_config
from physfactor.errors import InputFormatError
from physfactor.metrics import RateBand, estimate_rate_fft, evaluate_windows
from physfactor.network import forward_multitask
from physfactor.tensors import Waveform


NONDEFAULT_INI = str(Path(__file__).parent / "data" / "nondefault.ini")


def _write_tone_csv(path, rates, fs=25.0, noise=0.0, seed=0):
    pieces = [
        synth.gen_pulse(fs, r, 30.0, 0.0, noise, seed + i).samples
        for i, r in enumerate(rates)
    ]
    write_signal_csv(str(path), Waveform(np.concatenate(pieces), fs))


# ------------------------------------------------------------------ metrics


def test_metrics_identical_files(tmp_path, capsys):
    sig = tmp_path / "sig.csv"
    _write_tone_csv(sig, [72.0] * 4)
    rc = main(["metrics", "--pred", str(sig), "--gt", str(sig),
               "--fs", "25", "--format", "json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n"] == 4
    assert report["mae"]["avg"] == 0.0
    assert report["macc"]["avg"] == 1.0
    assert "corr" not in report  # constant rate series, same file
    assert report["snr"]["avg"] > 10.0


def test_metrics_identical_two_window_files(tmp_path, capsys):
    sig = tmp_path / "sig.csv"
    _write_tone_csv(sig, [72.0, 72.0])
    rc = main(["metrics", "--pred", str(sig), "--gt", str(sig),
               "--fs", "25", "--format", "json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n"] == 2
    assert report["mae"]["avg"] == 0.0 and report["macc"]["avg"] == 1.0


def test_metrics_varying_rates_json_round_trip(tmp_path, capsys):
    pred = tmp_path / "pred.csv"
    gt = tmp_path / "gt.csv"
    _write_tone_csv(pred, [66.0, 72.0, 78.0, 84.0], noise=0.05, seed=3)
    _write_tone_csv(gt, [66.0, 72.0, 78.0, 84.0])
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["metrics", "--pred", str(pred), "--gt", str(gt), "--fs", "25",
                 "--format", "json", "--report", str(out1)]) == 0
    assert main(["metrics", "--pred", str(pred), "--gt", str(gt), "--fs", "25",
                 "--format", "json", "--report", str(out2)]) == 0
    capsys.readouterr()

    raw = out1.read_bytes()
    assert raw == out2.read_bytes()
    report = json.loads(raw)
    assert dump_json(report).encode() == raw  # parse + re-dump is byte stable
    assert report["corr"]["avg"] > 0.99
    assert report["mae"]["avg"] < 1.0


DATA = Path(__file__).parent / "data"

# Each input pair is six 30 s windows plus a trailing 12 s one, one seeded
# rate per window, the prediction being the ground truth plus Gaussian
# noise (HR at 12.5 Hz, RR at 5 Hz). The outputs were written before
# macc and estimate_rate_fft were made leaner, so they pin every report
# byte for byte across that rework.
GOLDEN_METRICS = [
    ("metrics_hr_table.txt", ["--kind", "hr", "--fs", "12.5"]),
    ("metrics_hr.json", ["--kind", "hr", "--fs", "12.5", "--format", "json"]),
    ("metrics_rr_lag2.json", ["--kind", "rr", "--fs", "5", "--format", "json", "--max-lag-s", "2"]),
]


@pytest.mark.parametrize("golden, args", GOLDEN_METRICS, ids=[g for g, _ in GOLDEN_METRICS])
def test_metrics_reproduces_golden_output(golden, args, capsys, monkeypatch):
    monkeypatch.delenv("PHYSFACTOR_CONFIG", raising=False)
    kind = args[1]
    assert main(["metrics", "--pred", str(DATA / f"metrics_{kind}_pred.csv"),
                 "--gt", str(DATA / f"metrics_{kind}_gt.csv"), *args]) == 0
    assert capsys.readouterr().out == (DATA / golden).read_text()


def test_metrics_table_output(tmp_path, capsys):
    sig = tmp_path / "sig.csv"
    _write_tone_csv(sig, [72.0] * 4)
    assert main(["metrics", "--pred", str(sig), "--gt", str(sig), "--fs", "25"]) == 0
    out = capsys.readouterr().out
    assert "MAE" in out and "MACC" in out and "windows  4" in out
    assert "Corr" not in out


def test_metrics_malformed_csv_names_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0\n2.0\nwat\n")
    good = tmp_path / "good.csv"
    _write_tone_csv(good, [72.0])
    rc = main(["metrics", "--pred", str(bad), "--gt", str(good), "--fs", "25"])
    assert rc == 2
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["nan", "inf", "-Infinity", "0.5,NaN"])
def test_metrics_non_finite_csv_names_line(tmp_path, capsys, token):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"1.0\n2.0\n{token}\n")
    good = tmp_path / "good.csv"
    _write_tone_csv(good, [72.0])
    rc = main(["metrics", "--pred", str(bad), "--gt", str(good), "--fs", "25"])
    assert rc == 2
    assert "line 3: not a finite number" in capsys.readouterr().err
    with pytest.raises(InputFormatError, match="line 3"):
        read_signal_csv(str(bad))


@pytest.mark.parametrize("text, message", [
    ("1.0\n0.04,2.0\n", "line 2: expected 1 columns, got 2"),      # a v row, then a t,v row
    ("0.0,1.0\n0.04,2.0\n0.08\n", "line 3: expected 2 columns, got 1"),
    ("0.0,1.0\nlate,2.0\n", "line 2: non-numeric entry"),          # only the last token was parsed
    ("t,v,w\n0.0,1.0,2.0\n", "expected 1 or 2 columns, got 3"),
], ids=["v-then-t-v", "t-v-then-v", "non-numeric-time", "three-columns"])
def test_signal_csv_refuses_mixed_widths_and_a_non_numeric_time(tmp_path, text, message):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    with pytest.raises(InputFormatError, match=message):
        read_signal_csv(str(bad))


def test_signal_csv_header_then_time_value_rows(tmp_path):
    sig = tmp_path / "sig.csv"
    sig.write_text("t,v\n\n0.0,1.5\n0.04,-2.0\n")
    assert read_signal_csv(str(sig)).tolist() == [1.5, -2.0]
    sig.write_text("value\n3.0\n")
    assert read_signal_csv(str(sig)).tolist() == [3.0]


def test_metrics_too_short_is_domain_error(tmp_path, capsys):
    short = tmp_path / "short.csv"
    write_signal_csv(str(short), synth.gen_pulse(25.0, 72.0, 4.0))
    rc = main(["metrics", "--pred", str(short), "--gt", str(short), "--fs", "25"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_metrics_missing_file(tmp_path, capsys):
    good = tmp_path / "good.csv"
    _write_tone_csv(good, [72.0])
    rc = main(["metrics", "--pred", str(tmp_path / "nope.csv"),
               "--gt", str(good), "--fs", "25"])
    assert rc == 2
    capsys.readouterr()


def test_metrics_zero_window_is_domain_error(tmp_path, capsys):
    sig = tmp_path / "sig.csv"
    _write_tone_csv(sig, [72.0] * 2)
    rc = main(["metrics", "--pred", str(sig), "--gt", str(sig), "--fs", "25", "--window-s", "0"])
    assert rc == 1
    assert "window_s" in capsys.readouterr().err


def test_metrics_reads_configured_band(tmp_path, capsys):
    pred = tmp_path / "pred.csv"
    gt = tmp_path / "gt.csv"
    _write_tone_csv(pred, [60.0, 64.0, 68.0, 76.0], noise=0.2, seed=3)
    _write_tone_csv(gt, [60.0, 64.0, 68.0, 76.0])
    args = ["metrics", "--pred", str(pred), "--gt", str(gt), "--fs", "25", "--format", "json"]
    assert main(args) == 0
    default = capsys.readouterr().out
    waves = [Waveform(read_signal_csv(str(path)), 25.0) for path in (pred, gt)]
    assert default == dump_json(evaluate_windows(*waves).as_dict())

    ini = tmp_path / "narrow.ini"
    ini.write_text("[metrics]\nhr_hi_hz = 1.2\n")    # 72 bpm, below the last window's rate
    assert main(args + ["--config", str(ini)]) == 0
    narrowed = capsys.readouterr().out
    assert narrowed != default
    assert narrowed == dump_json(evaluate_windows(*waves, band=RateBand(0.6, 1.2)).as_dict())


# ---------------------------------------------------------------- factorize


def test_factorize_demo_trace_non_increasing(tmp_path, capsys):
    rc = main(["factorize", "--demo-shape", "32,64", "--rank", "4",
               "--iterations", "6"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    trace = report["error_trace"]
    assert len(trace) == 6  # one entry per iteration
    assert all(b <= a * (1 + 1e-9) for a, b in zip(trace, trace[1:]))
    assert report["final_error"] == trace[-1]


def test_factorize_deterministic_reports(tmp_path, capsys):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    for path in (r1, r2):
        assert main(["factorize", "--demo-shape", "32,64",
                     "--report", str(path)]) == 0
    capsys.readouterr()
    assert r1.read_bytes() == r2.read_bytes()


def test_factorize_tsfm_needs_target(capsys):
    rc = main(["factorize", "--demo-shape", "32,64", "--variant", "tsfm"])
    assert rc == 1
    assert "--target" in capsys.readouterr().err


def test_factorize_tsfm_with_target(tmp_path, capsys):
    target = tmp_path / "target.csv"
    write_signal_csv(str(target), synth.gen_pulse(25.0, 72.0, 32.0 / 25.0))
    rc = main(["factorize", "--demo-shape", "32,16", "--variant", "tsfm",
               "--rank", "3", "--target", str(target)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["variant"] == "tsfm"


def test_factorize_rejects_infinite_grbf_sigma(capsys):
    # an infinite sigma made an all-ones bank and exited 0
    rc = main(["factorize", "--demo-shape", "32,16", "--variant", "grbf",
               "--grbf-sigma", "inf"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "sigma" in captured.err and captured.out == ""


def test_factorize_ragged_matrix(tmp_path, capsys):
    mat = tmp_path / "mat.csv"
    mat.write_text("1,2,3\n4,5\n")
    rc = main(["factorize", "--input", str(mat)])
    assert rc == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN"])
def test_factorize_non_finite_matrix_names_line(tmp_path, capsys, token):
    mat = tmp_path / "mat.csv"
    mat.write_text(f"1,2,3\n4,{token},6\n7,8,9\n")
    rc = main(["factorize", "--input", str(mat), "--rank", "1", "--iterations", "2"])
    assert rc == 2
    assert "line 2: not a finite number" in capsys.readouterr().err
    with pytest.raises(InputFormatError, match="line 2"):
        read_matrix_csv(str(mat))


@pytest.mark.parametrize("flags", [
    ["--rank", "0"],
    ["--iterations", "0"],
    ["--rank", "0", "--iterations", "0"],
    ["--variant", "grbf", "--grbf-delta-t", "0"],
    ["--variant", "grbf", "--grbf-sigma", "0"],
])
def test_factorize_zero_flags_are_domain_errors(capsys, flags):
    # 0 is a value, not "unset": it must reach the solver and fail there
    rc = main(["factorize", "--demo-shape", "16,8"] + flags)
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err


def test_factorize_reads_matrix_csv(tmp_path, capsys):
    mat = tmp_path / "mat.csv"
    rng = np.random.default_rng(5)
    rows = rng.random((12, 20))
    mat.write_text("\n".join(",".join(f"{v:.8f}" for v in row) for row in rows) + "\n")
    rc = main(["factorize", "--input", str(mat), "--rank", "2"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["m"] == 12 and report["n"] == 20


# ------------------------------------------------------------------- attend


def test_attend_planted_reports_gap(tmp_path, capsys):
    excited = tmp_path / "excited.npy"
    rc = main(["attend", "--variant", "tsfm", "--noise-sigma", "0.3",
               "--save-excited", str(excited)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["csim_gap"] > 0.1
    assert report["csim_planted_mean"] > report["csim_background_mean"]
    arr = np.load(excited)
    assert arr.shape == (160, 4, 3, 3)


def test_attend_loaded_embedding(tmp_path, capsys):
    src = tmp_path / "eps.npy"
    rng = np.random.default_rng(11)
    np.save(src, rng.random((40, 2, 3, 3)))
    rc = main(["attend", "--input", str(src), "--variant", "fsam", "--seed", "1"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["shape"] == [40, 2, 3, 3]
    assert "csim_gap" not in report  # no target, no similarity block


def test_attend_rejects_wrong_ndim(tmp_path, capsys):
    src = tmp_path / "flat.npy"
    np.save(src, np.random.default_rng(0).random((40, 18)))
    assert main(["attend", "--input", str(src)]) == 1
    capsys.readouterr()


def _write_binary(path):
    path.write_bytes(b"\x93NUMPY\x00\xff\xfe\x80 not text")


def _write_negative_with_minus_inf(path):
    data = -np.random.default_rng(0).random((20, 2, 2, 2))
    data[3, 1, 0, 0] = -np.inf
    np.save(path, data)


@pytest.mark.parametrize("command, write, code", [
    ("factorize", _write_binary, 2),
    ("attend", _write_binary, 2),
    ("attend", lambda p: p.write_bytes(b""), 2),
    ("attend", lambda p: np.save(p, np.array([1.0, "a", None], dtype=object), allow_pickle=True), 2),
    ("attend", lambda p: np.save(p, np.ones((20, 1, 2, 2)) * (1 + 2j)), 1),
    ("attend", lambda p: p.write_bytes(b"PK\x03\x04 not an archive"), 2),
    ("attend", _write_negative_with_minus_inf, 1),
], ids=["factorize-binary", "attend-binary", "attend-empty", "attend-object-array", "attend-complex",
        "attend-zip-magic", "attend-minus-inf"])
def test_input_files_that_are_not_real_arrays_exit_without_traceback(tmp_path, capsys, command, write, code):
    # np.load's ValueError and the CSV reader's UnicodeDecodeError ended
    # in tracebacks, and a complex array was read as its real part; a
    # file starting with a zip archive's magic number raised zipfile's
    # BadZipFile and was left open; an all-negative embedding holding
    # -inf rectifies to 0, and -inf * 0 in the excitation gave numpy's
    # invalid-value warning
    path = tmp_path / "input.npy"
    write(path)
    assert main([command, "--input", str(path)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# -------------------------------------------------------- bench and forward


def _small_model_ini(tmp_path):
    path = tmp_path / "small.ini"
    path.write_text("[model]\nresolution = 9\n")
    return str(path)


def test_bench_reports_timings(tmp_path, capsys):
    rc = main(["bench", "--config", _small_model_ini(tmp_path),
               "--frames", "60", "--repeats", "2"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["repeats"] == 2 and len(report["times_s"]) == 2
    assert report["median_s"] > 0
    assert report["param_count"] > 1000


def test_bench_rejects_zero_repeats(capsys):
    assert main(["bench", "--repeats", "0"]) == 1
    capsys.readouterr()


def test_bench_smaller_model_is_faster(tmp_path, capsys):
    assert main(["bench", "--config", _small_model_ini(tmp_path),
                 "--frames", "160", "--repeats", "2"]) == 0
    small = json.loads(capsys.readouterr().out)
    assert main(["bench", "--frames", "160", "--repeats", "2"]) == 0
    full = json.loads(capsys.readouterr().out)
    assert small["median_s"] < full["median_s"]


def test_demo_forward_rates_and_files(tmp_path, capsys):
    prefix = str(tmp_path / "out")
    rc = main(["demo-forward", "--config", _small_model_ini(tmp_path),
               "--frames", "300", "--save-prefix", prefix])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["bvp_len"] == 300 and report["rsp_len"] == 300
    assert report["hr_bpm"] is not None and report["rr_bpm"] is not None
    assert report["attention"] is True
    assert read_signal_csv(prefix + "_bvp.csv").size == 300
    assert read_signal_csv(prefix + "_rsp.csv").size == 300


def test_demo_forward_one_channel_clip_feeds_both_branches(tmp_path, capsys):
    # a 1-channel model's demo clip is passed as rgb; with one modality
    # both branches read it, so the outputs are those of the clip
    # passed as thermal
    path = tmp_path / "thermal.ini"
    path.write_text("[model]\nresolution = 9\nchannels = 1\n")
    prefix = str(tmp_path / "one")
    assert main(["demo-forward", "--config", str(path), "--frames", "40", "--save-prefix", prefix]) == 0
    capsys.readouterr()
    cfg = load_run_config(str(path))
    pulse, resp = forward_multitask(None, synth.gen_clip(40, 9, 1, seed=cfg.seed), cfg.model_config())
    for wave, suffix in ((pulse, "_bvp.csv"), (resp, "_rsp.csv")):
        write_signal_csv(str(tmp_path / ("want" + suffix)), wave)
        assert Path(prefix + suffix).read_bytes() == (tmp_path / ("want" + suffix)).read_bytes()


def test_demo_forward_rates_take_the_configured_pad_factor(capsys):
    # the rates took the library's default pad factor, 8, with the
    # configured bands: rr_bpm read 12.817 here, where the configured
    # pad factor, 4, gives 12.451
    assert main(["demo-forward", "--config", NONDEFAULT_INI, "--frames", "300"]) == 0
    report = json.loads(capsys.readouterr().out)
    cfg = load_run_config(NONDEFAULT_INI)
    assert cfg.pad_factor == 4
    rgb = synth.gen_clip(300, 9, 3, seed=cfg.seed)
    thermal = synth.gen_clip(300, 9, 1, seed=cfg.seed + 1)
    pulse, resp = forward_multitask(rgb, thermal, cfg.model_config())
    assert report["hr_bpm"] == estimate_rate_fft(pulse, cfg.hr_band, 4)
    assert report["rr_bpm"] == estimate_rate_fft(resp, cfg.rr_band, 4)
    assert report["rr_bpm"] != estimate_rate_fft(resp, cfg.rr_band)


def test_demo_forward_omit_attention(tmp_path, capsys):
    rc = main(["demo-forward", "--config", _small_model_ini(tmp_path),
               "--frames", "60", "--omit-attention"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["attention"] is False
    assert report["hr_bpm"] is None  # 2.4 s clip, too short for a rate


# -------------------------------------------------------------- synth/config


def test_synth_writes_csv(tmp_path, capsys):
    out = tmp_path / "pulse.csv"
    rc = main(["synth", "--kind", "pulse", "--rate", "72", "--duration", "12",
               "--out", str(out)])
    assert rc == 0
    assert read_signal_csv(str(out)).size == 300
    capsys.readouterr()


def test_synth_with_time_column(tmp_path, capsys):
    out = tmp_path / "resp.csv"
    rc = main(["synth", "--kind", "resp", "--rate", "15", "--duration", "10",
               "--with-time", "--out", str(out)])
    assert rc == 0
    first = out.read_text().splitlines()[0]
    assert first.startswith("0.000000,")
    assert read_signal_csv(str(out)).size == 250
    capsys.readouterr()


def test_synth_rejects_out_of_range_rate(tmp_path, capsys):
    rc = main(["synth", "--kind", "resp", "--rate", "72", "--duration", "10",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    capsys.readouterr()


def test_config_print_defaults_parses(tmp_path, capsys):
    assert main(["config", "--print-defaults"]) == 0
    text = capsys.readouterr().out
    check = tmp_path / "defaults.ini"
    check.write_text(text)
    assert main(["config", "--check", str(check)]) == 0
    capsys.readouterr()


def test_config_check_rejects_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[nosuch]\nkey = 1\n")
    assert main(["config", "--check", str(bad)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("ini", [
    "[attention]\nvariant = xx\n",
    "[model]\nattention_index = 7\n",
    "[model]\nbvp_channels =\n",
    "[attention]\nrank = 0\n",
    "[attention]\ngrbf_sigma = -1\n",
    "[attention]\ngrbf_delta_t = 0\n",
    "[metrics]\npad_factor = 0\n",
    "[metrics]\nwindow_s = -5\n",
    "[metrics]\nwindow_s = 5.0\n",
    "[metrics]\nmax_lag_s = nan\n",
], ids=["attention-variant", "attention-index", "bvp-channels-empty", "rank-0", "grbf-sigma-negative",
        "grbf-delta-t-0", "pad-factor-0", "window-s-negative", "window-s-below-10", "max-lag-s-nan"])
def test_config_check_rejects_out_of_domain_values(tmp_path, capsys, ini):
    # each of these passed the check, and every command then failed
    path = tmp_path / "run.ini"
    path.write_text(ini)
    assert main(["config", "--check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    key = ini.split("\n")[1].split("=")[0].strip()
    assert key in err


@pytest.mark.parametrize("ini, message", [
    ("[metrics]\nrr_lo_hz = 0.6\n", "[metrics] rr_hi_hz must be > 0.6, got 0.5"),
    ("[metrics]\nhr_hi_hz = inf\n", "[metrics] hr_hi_hz must be finite, got inf"),
    ("[metrics]\nhr_lo_hz = 0\n", "[metrics] hr_lo_hz must be > 0, got 0.0"),
], ids=["rr-lo-above-hi", "hr-hi-inf", "hr-lo-0"])
def test_config_check_names_the_band_key(tmp_path, capsys, ini, message):
    # these named RateBand's fields ("band hi_hz"), not the INI keys
    path = tmp_path / "band.ini"
    path.write_text(ini)
    assert main(["config", "--check", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_config_requires_an_action(capsys):
    assert main(["config"]) == 2
    capsys.readouterr()


def test_a_usage_error_is_returned_as_exit_2(capsys):
    # argparse's SystemExit left main, so a caller of main got no code
    assert main(["factorize", "--rank", "x"]) == 2
    assert "error: argument --rank" in capsys.readouterr().err


@pytest.mark.parametrize("content, words", [
    (b"\xff\xfe[rng]\nseed = 1\n", "not a text file"),
    (b"[rng]\nseed = 5%\n", "[rng] seed: cannot parse '5%' as int"),
], ids=["not-utf-8", "percent-sign"])
def test_a_config_that_does_not_parse_exits_2(tmp_path, capsys, content, words):
    # the decode error and configparser's interpolation error were not
    # caught: both ended in a traceback
    path = tmp_path / "run.ini"
    path.write_bytes(content)
    assert main(["config", "--check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert words in err


def test_config_refuses_both_actions(tmp_path, capsys):
    # --print-defaults won: the defaults were printed at exit 0 and the
    # file, here a missing one, was never read
    assert main(["config", "--print-defaults", "--check", str(tmp_path / "missing.ini")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument --print-defaults" in captured.err


@pytest.mark.parametrize("argv, ini, words", [
    (["factorize", "--seed", "-1"], None, None),
    (["attend", "--seed", "-2"], None, None),
    (["factorize"], "[rng]\nseed = -1\n", None),
    (["synth", "--fs", "nan"], None, None),
    (["synth", "--fs", "inf"], None, None),
    (["attend", "--fs", "0"], None, None),
    (["metrics", "--fs", "25"], "[metrics]\npad_factor = 0\n", None),
    (["bench", "--repeats", "1", "--frames", "40"], "[model]\nrsp_temporal_strides = 0,2,1,1\n", None),
    (["demo-forward", "--frames", "40"], "[model]\nbvp_channels = 8,0,12,8\n", None),
    (["demo-forward", "--frames", "40"], "[model]\nspatial_kernel = 0\n", None),
    (["demo-forward", "--frames", "40"], "[model]\ntemporal_kernel = 2\n", None),
    (["demo-forward", "--frames", "40"], "[model]\nbvp_channels =\n", None),
    (["factorize"], "[attention]\nvariant = xx\n", None),
    (["factorize"], "[model]\nattention_index = 7\n", None),
    (["factorize", "--demo-shape", "3,-2"], None, None),
    (["attend", "--n-planted", "-1"], None, None),
    (["synth", "--fs", "1", "--rate", "72"], None, None),
    (["synth", "--duration", "1e308"], None, None),
    (["synth", "--noise-sigma", "1e308"], None, None),
    (["attend", "--noise-sigma", "1e308"], None, None),
    (["attend", "--noise-sigma", "1e300", "--variant", "tsfm"], None, "eps * attended overflows"),
    (["attend", "--n-planted", "36"], None, "--n-planted must leave a background voxel"),
    (["attend", "--shape", "160,1,1,1", "--n-planted", "1"], None, "--n-planted must leave a background voxel"),
], ids=["factorize-seed", "attend-seed", "config-seed", "synth-fs-nan", "synth-fs-inf", "attend-fs-0",
        "metrics-pad-factor", "rsp-stride-0", "bvp-channels-0", "spatial-kernel-0", "temporal-kernel-even",
        "bvp-channels-empty", "attention-variant", "attention-index", "demo-shape-negative",
        "n-planted-negative", "synth-aliased-tone", "synth-duration-overflow", "synth-noise-overflow",
        "attend-noise-overflow", "attend-excitation-overflow", "n-planted-every-voxel", "n-planted-one-voxel"])
def test_out_of_domain_arguments_exit_1_without_traceback(tmp_path, capsys, argv, ini, words):
    # each of these ended in a numpy or Python traceback, or exited 0
    # after reinterpreting the argument: --n-planted -1 planted all but
    # one voxel, and a 1.2 Hz tone was written at fs = 1 Hz; the four
    # overflow cases ended in an OverflowError or numpy's overflow
    # warning, an error under this suite's filterwarnings; the
    # excitation overflow named instance_norm's channel maxima; a plant
    # of every voxel left no background, whose mean and gap were NaN
    # after numpy's "Mean of empty slice" warning
    sig = tmp_path / "sig.csv"
    _write_tone_csv(sig, [72.0])
    argv = list(argv)
    if argv[0] == "synth":
        argv += ["--out", str(tmp_path / "out.csv")]
    if argv[0] == "metrics":
        argv += ["--pred", str(sig), "--gt", str(sig)]
    if ini is not None:
        (tmp_path / "run.ini").write_text(ini)
        argv += ["--config", str(tmp_path / "run.ini")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert words is None or words in err


def test_seed_flag_changes_factorization(capsys):
    assert main(["factorize", "--demo-shape", "16,32", "--seed", "1"]) == 0
    r1 = json.loads(capsys.readouterr().out)
    assert main(["factorize", "--demo-shape", "16,32", "--seed", "2"]) == 0
    r2 = json.loads(capsys.readouterr().out)
    assert r1["error_trace"] != r2["error_trace"]
