"""The CLI contract as a property: whatever the arguments and files, a
run of `cli.main` exits 0, 1 or 2; a run that exits 1 or 2 prints
exactly one `error:` line and no traceback; and a JSON report printed
at exit 0 re-serializes byte-identically.

Every drawn size is bounded, so that no draw allocates much memory or
runs long: matrices of at most 40 x 40, planted embeddings of at most
60 frames of 4 x 4 x 4 voxels, clips of at most 300 frames, signals of
at most 800 samples, and synthesized ones of at most 60 s at 50 Hz.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from physfactor.cli import dump_json, main

_JUNK_TOKENS = ("nan", "inf", "-inf", "1e999", "x", "", "1,2,3", "0x10")


@st.composite
def signal_csv(draw):
    """A tone of up to 800 samples, one or two columns, maybe with a
    header, at one of several scales, maybe with one token spoiled."""
    n = draw(st.integers(0, 800))
    t = np.arange(n) / 25.0
    x = draw(st.sampled_from((1.0, 1e-300, 1e300, 0.0))) * np.sin(2 * np.pi * draw(st.floats(0.05, 4.0)) * t)
    x = x + draw(st.sampled_from((0.0, 0.3))) * np.random.default_rng(draw(st.integers(0, 3))).normal(size=n)
    two = draw(st.booleans())
    lines = [f"{ti:.6f},{v:.10g}" if two else f"{v:.10g}" for ti, v in zip(t, x)]
    if n and draw(st.booleans()):
        lines[draw(st.integers(0, n - 1))] = draw(st.sampled_from(_JUNK_TOKENS))
    if draw(st.booleans()):
        lines.insert(0, "time,value" if two else "value")
    return "\n".join(lines) + "\n"


@st.composite
def matrix_csv(draw):
    """Up to 40 x 40 entries drawn at one scale, maybe negative or
    ragged."""
    m, n = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    scale = draw(st.sampled_from((1.0, 1e-300, 1e300, -1.0)))
    a = scale * np.random.default_rng(draw(st.integers(0, 3))).random((m, n))
    rows = [",".join(f"{v:.10g}" for v in row) for row in a]
    if draw(st.booleans()):
        rows[draw(st.integers(0, m - 1))] = draw(st.sampled_from(_JUNK_TOKENS))
    return "\n".join(rows) + "\n"


@st.composite
def small_array(draw):
    """An array of at most 60 x 4 x 4 x 4 entries, 4-D and non-negative
    most of the time, of a drawn dtype."""
    if draw(st.booleans()):
        shape = (draw(st.integers(0, 60)),) + tuple(draw(st.integers(0, 4)) for _ in range(3))
    else:
        shape = tuple(draw(st.lists(st.integers(0, 5), max_size=5)))
    scale = draw(st.sampled_from((1.0, 1e-300, 1e160, 1e300, -1.0)))
    a = np.asarray(scale * np.random.default_rng(draw(st.integers(0, 3))).random(shape))
    if a.size and draw(st.booleans()):
        a.flat[draw(st.integers(0, a.size - 1))] = draw(st.sampled_from((np.nan, np.inf, -np.inf)))
    dtype = draw(st.sampled_from(("float64", "float32", "int64", "bool", "complex128", "object", "<U3")))
    with np.errstate(invalid="ignore", over="ignore"):
        return a.astype(dtype)


_INI_VALUES = {
    "variant": ("fsam", "grbf", "tsfm", "xx"),
    "rank": ("1", "3", "8", "0"),
    "iterations": ("1", "4", "0"),
    "epsilon": ("1e-06", "0", "nan"),
    "grbf_sigma": ("2.0", "1e150", "1e300", "-1"),
    "grbf_delta_t": ("1", "4", "0"),
    "resolution": ("9", "36", "72", "10"),
    "channels": ("1", "3", "4", "2"),
    "bvp_channels": ("8,12,12,8", "2,3", "1", "8,,12"),
    "rsp_channels": ("8,12,12,8", "2,3", "1", "8,12,"),
    "temporal_kernel": ("1", "3", "5", "2"),
    "spatial_kernel": ("1", "3", "0"),
    "rsp_temporal_strides": ("2,2,1,1", "1,1", "2", "0,2,1,1"),
    "attention_index": ("0", "1", "2", "7"),
    "use_attention": ("true", "false", "maybe"),
    "window_s": ("10", "20.0", "30", "5.0", "0"),
    "pad_factor": ("1", "4", "8", "0"),
    "max_lag_s": ("auto", "0", "1.5", "1e308", "-1"),
    "hr_lo_hz": ("0.6", "0.7", "0", "4"),
    "hr_hi_hz": ("3.3", "3.0", "inf"),
    "rr_lo_hz": ("0.1", "0.15", "0.6"),
    "rr_hi_hz": ("0.5", "0.6", "1e400"),
    "seed": ("0", "7", "-1", "5%", "99999999999999999999"),
}
_INI_SECTIONS = {
    "attention": ("variant", "rank", "iterations", "epsilon", "grbf_sigma", "grbf_delta_t"),
    "model": ("resolution", "channels", "bvp_channels", "rsp_channels", "temporal_kernel", "spatial_kernel",
              "rsp_temporal_strides", "attention_index", "use_attention"),
    "metrics": ("window_s", "pad_factor", "max_lag_s", "hr_lo_hz", "hr_hi_hz", "rr_lo_hz", "rr_hi_hz"),
    "rng": ("seed",),
    "extra": ("seed",),
}


@st.composite
def ini_text(draw):
    """A config with a few drawn keys, every value small, or one that
    does not parse."""
    chunks = []
    for section in draw(st.lists(st.sampled_from(sorted(_INI_SECTIONS)), max_size=3)):
        chunks.append(f"[{section}]")
        for key in draw(st.lists(st.sampled_from(_INI_SECTIONS[section]), max_size=3, unique=True)):
            chunks.append(f"{key} = {draw(st.sampled_from(_INI_VALUES[key]))}")
    return draw(st.sampled_from(("", "rank = 3\n", "[rng\n"))) + "\n".join(chunks) + "\n"


def _binary():
    # a corrupt .npy header, a zip archive's magic number, or neither
    return st.builds(bytes.__add__, st.sampled_from((b"", b"\x93NUMPY\x01\x00", b"PK\x03\x04", b"\xff\xfe")),
                     st.binary(max_size=64))


@st.composite
def files(draw):
    """The drawn files' contents, keyed by their names in the run's
    directory."""
    return {
        "sig.csv": draw(signal_csv()),
        "gt.csv": draw(signal_csv()),
        "mat.csv": draw(matrix_csv()),
        "emb.npy": draw(small_array()),
        "arc.npz": draw(small_array()),
        "blob.bin": draw(_binary()),
        "empty": "",
        "run.ini": draw(ini_text()),
    }


# an input names a drawn file, a missing file or a directory; an output
# a new file, a file in a missing directory or a directory (a prefix or
# an .npy path names a file beside it)
_INPUTS = ("sig.csv", "gt.csv", "mat.csv", "emb.npy", "arc.npz", "blob.bin", "empty", "run.ini", "missing", "sub")
_OUTPUTS = ("out", "missing/out", "sub")


def _inputs(likely):
    """The file a flag expects half of the time, else any input."""
    return st.one_of(st.just(likely), st.sampled_from(_INPUTS))


def _flag(flag, values):
    """[flag, value] or nothing."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


def _switch(flag):
    return st.sampled_from(([], [flag]))


def _ints(lo, hi):
    return st.one_of(st.integers(lo, hi), st.just("x"))


def _shape(*his):
    """One comma-separated integer in [-1, hi] per hi, or a malformed list."""
    good = st.tuples(*(st.integers(-1, hi) for hi in his)).map(lambda v: ",".join(map(str, v)))
    return st.one_of(good, st.sampled_from(("3", "a,b", "", "1,,2")))


_FS = st.sampled_from(("25", "1", "5", "50", "0", "-1", "nan", "inf", "1e-300"))
_CONFIG = _flag("--config", _inputs("run.ini"))
_SEED = _flag("--seed", st.sampled_from(("0", "7", "-1", "99999999999999999999", "x")))
_REPORT = _flag("--report", st.sampled_from(_OUTPUTS))
# each subcommand's own flags, then the shared flags it reads
_COMMANDS = {
    "factorize": [
        _flag("--input", _inputs("mat.csv")),
        _flag("--demo-shape", _shape(40, 40)),
        _flag("--variant", st.sampled_from(("fsam", "grbf", "tsfm", "xx"))),
        _flag("--rank", _ints(-1, 12)),
        _flag("--iterations", _ints(-1, 6)),
        _flag("--grbf-sigma", st.sampled_from(("0.5", "2", "1e150", "1e300", "-1", "nan"))),
        _flag("--grbf-delta-t", _ints(-1, 5)),
        _flag("--target", _inputs("sig.csv")),
        _CONFIG, _SEED, _REPORT,
    ],
    "attend": [
        _flag("--input", _inputs("emb.npy")),
        _flag("--target", _inputs("sig.csv")),
        _flag("--shape", _shape(60, 4, 4, 4)),
        _flag("--n-planted", _ints(-2, 80)),
        _flag("--noise-sigma", st.sampled_from(("0", "0.3", "1e300", "1e308", "-1", "nan"))),
        _flag("--rate", st.sampled_from(("72", "0", "300", "-5", "nan"))),
        _flag("--fs", _FS),
        _flag("--variant", st.sampled_from(("fsam", "grbf", "tsfm"))),
        _flag("--save-excited", st.sampled_from(_OUTPUTS)),
        _CONFIG, _SEED, _REPORT,
    ],
    "metrics": [
        _inputs("sig.csv").map(lambda p: ["--pred", p]),
        _inputs("gt.csv").map(lambda p: ["--gt", p]),
        _FS.map(lambda fs: ["--fs", fs]),
        _flag("--kind", st.sampled_from(("hr", "rr"))),
        _flag("--format", st.sampled_from(("table", "json"))),
        _flag("--window-s", st.sampled_from(("10", "20", "30", "5", "0", "1e308", "nan"))),
        _flag("--max-lag-s", st.sampled_from(("0", "1.5", "1e308", "-1", "nan"))),
        _CONFIG, _REPORT,
    ],
    "synth": [
        _flag("--kind", st.sampled_from(("pulse", "resp"))),
        _flag("--fs", st.sampled_from(("25", "1", "5", "50", "0", "-1", "nan", "inf"))),
        _flag("--rate", st.sampled_from(("72", "15", "30", "0", "300", "nan"))),
        _flag("--duration", st.sampled_from(("1", "12", "60", "0.5", "0", "-1", "nan"))),
        _flag("--harmonic-ratio", st.sampled_from(("0", "0.5", "-1", "1e308", "nan"))),
        _flag("--noise-sigma", st.sampled_from(("0", "0.3", "1e300", "1e308", "-1", "nan"))),
        _switch("--with-time"),
        st.sampled_from(_OUTPUTS).map(lambda p: ["--out", p]),
        _CONFIG, _SEED,
    ],
    "bench": [
        _flag("--repeats", _ints(-1, 2)),
        st.one_of(st.integers(-1, 40), st.just("x")).map(lambda f: ["--frames", str(f)]),
        _switch("--omit-attention"),
        _CONFIG, _SEED, _REPORT,
    ],
    "demo-forward": [
        st.one_of(st.integers(-1, 40), st.sampled_from((250, 300, "x"))).map(lambda f: ["--frames", str(f)]),
        _flag("--fs", _FS),
        _switch("--omit-attention"),
        _flag("--save-prefix", st.sampled_from(_OUTPUTS)),
        _CONFIG, _SEED, _REPORT,
    ],
    "config": [
        _switch("--print-defaults"),
        _flag("--check", _inputs("run.ini")),
    ],
}

_PATH_FLAGS = {"--config", "--report", "--input", "--target", "--save-excited", "--pred", "--gt", "--out",
               "--save-prefix", "--check"}


@st.composite
def argv(draw):
    """A subcommand, its drawn flags and now and then a flag it does not
    know, in a drawn order; path values are names in the run's
    directory."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    groups = [draw(flag) for flag in _COMMANDS[command]]
    groups.append(draw(st.sampled_from(([], [], ["--bogus"]))))
    return [command] + [tok for group in draw(st.permutations(groups)) for tok in group]


def _run(argv, directory):
    """main's exit code, stdout and stderr for argv, with path values
    taken in directory."""
    argv = [str(directory / tok) if prev in _PATH_FLAGS else tok for prev, tok in zip([None] + argv, argv)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(argv=argv(), contents=files())
def test_every_run_keeps_the_cli_contract(argv, contents):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        (directory / "sub").mkdir()
        for name, content in contents.items():
            if isinstance(content, np.ndarray):
                (np.savez if name.endswith(".npz") else np.save)(directory / name, content)
            else:
                (directory / name).write_bytes(content if isinstance(content, bytes) else content.encode())
        code, out, err = _run(argv, directory)
    assert code in (0, 1, 2), (code, err)
    if code:
        assert sum("error:" in line for line in err.splitlines()) == 1, err
        assert "Traceback" not in err, err
    elif out.startswith("{"):
        assert dump_json(json.loads(out)) == out
