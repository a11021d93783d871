"""Acceptance gate: one test per release criterion.

Each test prints a single `ACCEPTANCE <name>: PASS|FAIL` line outside
pytest's capture (so the lines always reach the terminal) and then
asserts. Run the whole file with `pytest tests/test_acceptance.py -v`.
"""

import json
import time

import numpy as np
import pytest

from gradcheck import fd_gradient_check
from physfactor import synth
from physfactor.attention import AttentionConfig, compute_attention, csim_map
from physfactor.cli import main as cli_main
from physfactor.factorize import (
    _band_block,
    constrained_nmf_mu,
    grbf_basis,
    nmf_mu,
    target_basis,
)
from physfactor.losses import neg_pearson_loss, smooth_l1_loss
from physfactor.metrics import (
    HR_BAND,
    RR_BAND,
    error_metrics,
    estimate_rate_fft,
    evaluate_windows,
    macc,
    snr,
)
from physfactor.network import ModelConfig, forward_multitask
from physfactor.tensors import Waveform


def _phi(g):
    """The dense bank of a GrbfBasis, built from its band."""
    return _band_block(g, slice(0, g.m), slice(0, g.k))


@pytest.fixture
def record(request):
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def _record(name, ok, detail=""):
        line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  [{detail}]"
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print(line, flush=True)
        else:
            print(line, flush=True)
        assert ok, line

    return _record


# ------------------------------------------------------------------ solvers


def test_mu_monotonicity(record):
    t0 = time.perf_counter()
    ok = True
    for seed in range(100):
        rng = np.random.default_rng(seed)
        v = rng.random((64, 512))
        phi = _phi(grbf_basis(64, 2.0, 4))
        for res in (
            nmf_mu(v, rank=8, iterations=8, seed=seed),
            constrained_nmf_mu(v, phi, rank=8, iterations=8, seed=seed),
        ):
            trace = np.asarray(res.error_trace)
            if not np.all(trace[1:] <= trace[:-1] * (1.0 + 1e-9)):
                ok = False
    elapsed = time.perf_counter() - t0
    record("mu-monotonicity", ok and elapsed < 30.0,
            f"100 seeds, both solvers, {elapsed:.1f}s")


def test_rank1_recovery(record):
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        v = np.outer(0.1 + rng.random(20), 0.1 + rng.random(30))
        res = nmf_mu(v, rank=1, iterations=200, seed=seed)
        rel = np.linalg.norm(v - res.low_rank) / np.linalg.norm(v)
        if rel < 1e-3:
            hits += 1
    record("rank1-recovery", hits >= 99, f"{hits}/100 under 1e-3")


def test_tsfm_span(record):
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(16, 64)), int(rng.integers(8, 40))
        rank = int(rng.integers(1, 5))
        y = rng.random(m)
        basis = target_basis(y, m)
        v = rng.random((m, n))
        res = constrained_nmf_mu(v, basis, rank=rank, iterations=4, seed=seed)
        b = basis[:, 0]
        for j in range(n):
            col = res.low_rank[:, j]
            cos = abs(b @ col) / (np.linalg.norm(b) * np.linalg.norm(col))
            worst = max(worst, abs(cos - 1.0))
    record("tsfm-span", worst <= 1e-6, f"max |cos - 1| = {worst:.2e}")


def test_grbf_basis(record):
    ok = True
    for m in range(2, 42, 2):
        for dt in range(1, 11):
            g = grbf_basis(m, 1.5, dt)
            phi = _phi(g)
            expected_k = (m - 1) // dt + 1
            if g.k != expected_k or phi.shape != (m, expected_k):
                ok = False
            for k in range(g.k):
                if phi[k * dt, k] != 1.0:
                    ok = False
    corner = _phi(grbf_basis(5, 1.0, 2))
    off_center = abs(corner[0, 1] - np.exp(-2.0)) <= 1e-12
    record("grbf-basis", ok and off_center,
            "20x10 size sweep, unit centers, e^-2 off-center value")


# ---------------------------------------------------------------- attention


def test_planted_selectivity(record):
    shape = (160, 4, 3, 3)
    fs, rate = 25.0, 72.0
    gaps = {"tsfm": [], "fsam": []}
    for seed in range(20):
        pulse = synth.gen_pulse(fs, rate, shape[0] / fs, 0.0, 0.0, seed)
        rng = np.random.default_rng(seed)
        coords = [(c, a, b) for c in range(4) for a in range(3) for b in range(3)]
        rng.shuffle(coords)
        eps, mask = synth.gen_planted_embedding(shape, coords[:12], pulse, 0.3, seed)
        for variant in ("tsfm", "fsam"):
            cfg = AttentionConfig(variant=variant, seed=seed)
            out = compute_attention(eps, cfg, pulse.samples)
            cs = csim_map(out.excited, pulse.samples)
            gaps[variant].append(float(cs[mask].mean() - cs[~mask].mean()))
    mean_tsfm = float(np.mean(gaps["tsfm"]))
    mean_fsam = float(np.mean(gaps["fsam"]))
    record("planted-selectivity", mean_tsfm >= 0.2,
            f"tsfm gap {mean_tsfm:.3f} (fsam {mean_fsam:.3f}, reported only)")


# ------------------------------------------------------------------ metrics


def test_rate_estimation(record):
    fs, dur = 25.0, 30.0
    n = int(fs * dur)
    padded = 8 * (1 << (n - 1).bit_length())
    bin_bpm = 60.0 * fs / padded
    worst = 0.0
    for bpm in np.linspace(40.0, 190.0, 50):
        wave = synth.gen_pulse(fs, float(bpm), dur, 0.0, 0.0, 0)
        est = estimate_rate_fft(wave, HR_BAND)
        worst = max(worst, abs(est - bpm))
    hr = estimate_rate_fft(synth.gen_pulse(fs, 72.0, dur), HR_BAND)
    rr = estimate_rate_fft(synth.gen_resp(fs, 15.0, dur), RR_BAND)
    ok = worst <= bin_bpm and abs(hr - 72.0) <= 0.5 and abs(rr - 15.0) <= 0.25
    record("rate-estimation",
            ok, f"sweep max err {worst:.3f} <= bin {bin_bpm:.3f} BPM, "
                f"hr {hr:.2f}, rr {rr:.2f}")


def test_loss_gradients(record):
    rng = np.random.default_rng(123)
    worst = {"neg_pearson": 0.0, "smooth_l1": 0.0}
    for kind, loss in zip(worst, (neg_pearson_loss, smooth_l1_loss)):
        for _ in range(20):
            pred = rng.normal(size=64)
            gt = rng.normal(size=64)
            chk = fd_gradient_check(loss, pred, gt, step=1e-5)
            worst[kind] = max(worst[kind], chk.max_rel_error)
    eps = 1e-13
    below, _ = smooth_l1_loss(np.array([1.0 - eps]), np.array([0.0]))
    above, _ = smooth_l1_loss(np.array([1.0 + eps]), np.array([0.0]))
    cont = abs(above - below) <= 1e-12 and abs(below - 0.5) <= 1e-12
    ok = worst["neg_pearson"] < 1e-5 and worst["smooth_l1"] < 1e-5 and cont
    record("loss-gradients", ok,
            f"max rel err pearson {worst['neg_pearson']:.2e}, "
            f"smooth_l1 {worst['smooth_l1']:.2e}, knee continuity ok={cont}")


def test_smooth_l1_points(record):
    half, _ = smooth_l1_loss(np.array([0.5]), np.array([0.0]))
    two, _ = smooth_l1_loss(np.array([2.0]), np.array([0.0]))
    record("smooth-l1-points", half == 0.125 and two == 1.5,
            f"0.5 -> {half}, 2.0 -> {two}")


# ------------------------------------------------------------------ network


def test_temporal_full_conv(record):
    ok = True
    checked = []
    for res in (9, 36, 72):
        cfg = ModelConfig(input_resolution=res)
        for t in (60, 160, 180, 300):
            clip = synth.gen_clip(t, res, 3, seed=0)
            bvp, rsp = forward_multitask(clip, None, cfg)
            if bvp.samples.size != t or rsp.samples.size != t:
                ok = False
            checked.append((res, t))
    record("temporal-full-conv", ok,
            f"{len(checked)} (resolution, T) combinations, both branches")


def test_metric_oracles(record):
    # SNR against a re-derived spectral integration
    rng = np.random.default_rng(77)
    fs, n = 25.0, 750
    t = np.arange(n) / fs
    worst_snr = 0.0
    for _ in range(20):
        f0 = float(rng.uniform(0.8, 2.0))
        f1 = float(rng.uniform(2.2, 3.1))
        x = np.sin(2 * np.pi * f0 * t) + 0.5 * np.sin(2 * np.pi * f1 * t)
        x += 0.05 * rng.normal(size=n)
        got = snr(Waveform(x, fs), f0 * 60.0, HR_BAND)

        xd = x - x.mean()
        power = np.abs(np.fft.rfft(xd)) ** 2
        freqs = np.fft.rfftfreq(n, 1.0 / fs)
        sig = (np.abs(freqs - f0) <= 0.1) | (np.abs(freqs - 2 * f0) <= 0.2)
        band = (freqs >= 0.6) & (freqs <= 3.3)
        want = 10.0 * np.log10(power[sig].sum() / power[band & ~sig].sum())
        want = float(np.clip(want, -20.0, 40.0))
        worst_snr = max(worst_snr, abs(got - want))

    # MACC of lag-shifted copies
    base = synth.gen_pulse(fs, 66.0, 14.0, 0.3, 0.0, 0).samples
    worst_macc = 0.0
    for lag in (0, 5, 10, 25, 50):
        a = Waveform(base[lag : lag + 250], fs)
        b = Waveform(base[:250], fs)
        worst_macc = max(worst_macc, abs(macc(a, b, max_lag_s=3.0) - 1.0))

    # hand-computed three-element example
    rep = error_metrics([60.0, 62.0, 70.0], [61.0, 61.0, 70.0])
    hand = (
        abs(rep.mae.avg - 2.0 / 3.0) < 1e-12
        and abs(rep.rmse.avg - np.sqrt(2.0 / 3.0)) < 1e-12
        and abs(rep.mape.avg - 200.0 / (3.0 * 61.0)) < 1e-12
        and abs(rep.corr.avg - np.corrcoef([60, 62, 70], [61, 61, 70])[0, 1]) < 1e-12
    )
    ok = worst_snr <= 1e-6 and worst_macc <= 1e-9 and hand
    record("metric-oracles", ok,
            f"snr |diff| {worst_snr:.1e} dB, macc |1 - m| {worst_macc:.1e}, "
            f"hand example ok={hand}")


# -------------------------------------------------------------- determinism


def _battery(tmp_path, tag):
    """One full pass over the stack; returns a JSON-able fingerprint."""
    out = {}
    v = np.random.default_rng(5).random((48, 96))
    res = nmf_mu(v, rank=6, iterations=6, seed=5)
    out["nmf_trace"] = [float(e) for e in res.error_trace]

    pulse = synth.gen_pulse(25.0, 72.0, 4.0, 0.0, 0.0, 3)
    eps, _ = synth.gen_planted_embedding((100, 2, 3, 3), ((0, 0, 0), (1, 2, 2)), pulse, 0.2, 3)
    att = compute_attention(eps, AttentionConfig(variant="tsfm", seed=3), pulse.samples)
    out["excited_sum"] = float(att.excited.data.sum())
    out["excited_digest"] = att.excited.data.tobytes().hex()[:64]

    rates = (66.0, 72.0, 78.0, 84.0)
    pred = Waveform(np.concatenate(
        [synth.gen_pulse(25.0, r, 30.0, 0.0, 0.05, 9 + i).samples
         for i, r in enumerate(rates)]), 25.0)
    gt = Waveform(np.concatenate(
        [synth.gen_pulse(25.0, r, 30.0, 0.0, 0.0, 0).samples
         for r in rates]), 25.0)
    out["windows"] = evaluate_windows(pred, gt).as_dict()

    report = tmp_path / f"fact_{tag}.json"
    assert cli_main(["factorize", "--demo-shape", "24,48",
                     "--report", str(report)]) == 0
    out["cli_report"] = report.read_text()
    return json.dumps(out, sort_keys=True)


def test_determinism_and_bench(record, tmp_path, capsys):
    first = _battery(tmp_path, "a")
    second = _battery(tmp_path, "b")
    same = first == second

    report = tmp_path / "bench.json"
    rc = cli_main(["bench", "--repeats", "3", "--frames", "160",
                   "--report", str(report)])
    capsys.readouterr()
    bench = json.loads(report.read_text())
    median = bench["median_s"]
    ok = same and rc == 0 and bench["resolution"] == 72 and median < 2.0
    record("determinism-and-bench", ok,
            f"repeat runs identical={same}, bench median {median:.3f}s")
