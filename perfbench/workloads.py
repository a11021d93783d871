"""The three benchmark workloads.

Each workload builds its model or evaluation settings from the default
run config (timed as set-up), generates every input from the workload
seed with physfactor.synth (untimed), defines one op, and compares each
op's output with the frozen reference in reference.py.

`scale` shrinks the inputs for the smoke test; the benchmark runs at
scale 1.
"""

import dataclasses
import math

import numpy as np

import reference

FS = 25.0

# Relative L2 distance allowed between a forward output and the
# reference. Loose enough for a float32 or re-associated conv, tight
# enough that any wrong result fails.
FORWARD_RTOL = 1e-4
# Report fields are rates, SNR, MACC and their spreads; reordering a
# sum moves them in the last digits only.
REPORT_RTOL = 1e-9
REPORT_ATOL = 1e-12


def _forward_problems(out, expected, frames):
    problems = []
    for wave, ref, label in zip(out, expected, ("pulse", "respiration")):
        s = np.asarray(wave.samples)
        if s.shape != (frames,):
            problems.append(f"{label} output has shape {s.shape}, expected ({frames},)")
        elif not np.all(np.isfinite(s)):
            problems.append(f"{label} output is not finite")
        else:
            err = float(np.linalg.norm(s - ref) / np.linalg.norm(ref))
            if err > FORWARD_RTOL:
                problems.append(f"{label} output is {err:.3g} from the reference (limit {FORWARD_RTOL})")
    return problems


def _report_problems(report, expected, kind):
    got = report.as_dict()
    problems = []
    if set(got) != set(expected):
        return [f"{kind} report has fields {sorted(got)}, expected {sorted(expected)}"]
    if got["n"] != expected["n"]:
        problems.append(f"{kind} report has n={got['n']}, expected {expected['n']}")
    for field, want in expected.items():
        if field == "n":
            continue
        for part in ("avg", "se"):
            a, b = got[field][part], want[part]
            if not math.isclose(a, b, rel_tol=REPORT_RTOL, abs_tol=REPORT_ATOL):
                problems.append(f"{kind} {field}.{part} = {a!r}, reference {b!r}")
    return problems


@dataclasses.dataclass(frozen=True)
class ForwardRgb72:
    """forward_multitask on one RGB clip at 72 px, default config."""

    name = "forward-rgb72"
    scale: float = 1.0

    @property
    def frames(self):
        return max(32, int(160 * self.scale) // 4 * 4)

    @property
    def signal_s(self):
        return self.frames / FS

    def build(self, pf, cfg):
        return cfg.model_config()

    def make_inputs(self, pf, seed, timed):
        rng = np.random.default_rng([seed, 0])
        rate = float(rng.uniform(55.0, 110.0))
        clip = timed("synth.gen_clip", pf.synth.gen_clip, self.frames, 72, 3, rate_bpm=rate, fs=FS, seed=seed)
        return {"rgb": clip}

    def run(self, pf, model, inputs):
        return pf.network.forward_multitask(inputs["rgb"], None, model, fs=FS)

    def reference(self, model, inputs):
        x = inputs["rgb"].data
        return reference.forward(x, x, "fsam", "fsam", None, None, model.seed)

    def problems(self, out, expected):
        return _forward_problems(out, expected, self.frames)


@dataclasses.dataclass(frozen=True)
class ForwardLong9:
    """forward_multitask on a long 4-channel clip at 9 px: grbf on the
    pulse branch, tsfm with a respiration target on the other."""

    name = "forward-long9"
    scale: float = 1.0

    @property
    def frames(self):
        return max(64, int(3000 * self.scale) // 4 * 4)

    @property
    def signal_s(self):
        return self.frames / FS

    def build(self, pf, cfg):
        return dataclasses.replace(
            cfg.model_config(),
            input_resolution=9,
            input_channels=4,
            bvp_attention=cfg.attention_config("grbf"),
            rsp_attention=cfg.attention_config("tsfm"),
        )

    def make_inputs(self, pf, seed, timed):
        rng = np.random.default_rng([seed, 1])
        hr = float(rng.uniform(55.0, 110.0))
        rr = float(rng.uniform(8.0, 24.0))
        t, dur = self.frames, self.frames / FS
        return {
            "rgb": timed("synth.gen_clip", pf.synth.gen_clip, t, 9, 3, rate_bpm=hr, fs=FS, seed=seed),
            "thermal": timed("synth.gen_clip", pf.synth.gen_clip, t, 9, 1, rate_bpm=hr, fs=FS, seed=seed + 1),
            "pulse": timed("synth.gen_signal", pf.synth.gen_pulse, FS, hr, dur).samples,
            "resp": timed("synth.gen_signal", pf.synth.gen_resp, FS, rr, dur).samples,
        }

    def run(self, pf, model, inputs):
        return pf.network.forward_multitask(
            inputs["rgb"], inputs["thermal"], model, inputs["pulse"], inputs["resp"], fs=FS
        )

    def reference(self, model, inputs):
        return reference.forward(
            inputs["rgb"].data, inputs["thermal"].data, "grbf", "tsfm",
            inputs["pulse"], inputs["resp"], model.seed,
        )

    def problems(self, out, expected):
        return _forward_problems(out, expected, self.frames)


@dataclasses.dataclass(frozen=True)
class Eval10Min:
    """evaluate_windows for HR and for RR on one 10-minute subject:
    30 s windows with a seeded rate each, prediction = ground truth plus
    seeded Gaussian noise."""

    name = "eval-10min"
    scale: float = 1.0

    @property
    def windows(self):
        return max(4, int(20 * self.scale))

    @property
    def signal_s(self):
        return self.windows * reference.WINDOW_S

    def build(self, pf, cfg):
        return {"window_s": cfg.window_s, "pad_factor": cfg.pad_factor, "max_lag_s": cfg.max_lag_s}

    def make_inputs(self, pf, seed, timed):
        rng = np.random.default_rng([seed, 2])
        n = self.windows
        hr = rng.uniform(55.0, 110.0, n)
        rr = rng.uniform(8.0, 24.0, n)
        noise_seeds = rng.integers(0, 2**31, size=(2, n))
        win = reference.WINDOW_S

        def signal(gen, rates, harmonic, sigma, seeds):
            parts = [
                timed("synth.gen_signal", gen, FS, float(r), win, harmonic, sigma, int(s)).samples
                for r, s in zip(rates, seeds)
            ]
            return pf.tensors.Waveform(np.concatenate(parts), FS)

        return {
            "hr_gt": signal(pf.synth.gen_pulse, hr, 0.3, 0.0, noise_seeds[0]),
            "hr_pred": signal(pf.synth.gen_pulse, hr, 0.3, 0.5, noise_seeds[0]),
            "rr_gt": signal(pf.synth.gen_resp, rr, 0.0, 0.0, noise_seeds[1]),
            "rr_pred": signal(pf.synth.gen_resp, rr, 0.0, 0.3, noise_seeds[1]),
        }

    def run(self, pf, settings, inputs):
        ev = pf.metrics.evaluate_windows
        return (
            ev(inputs["hr_pred"], inputs["hr_gt"], "hr", **settings),
            ev(inputs["rr_pred"], inputs["rr_gt"], "rr", **settings),
        )

    def reference(self, settings, inputs):
        return tuple(
            reference.evaluate(inputs[k + "_pred"].samples, inputs[k + "_gt"].samples, FS, k)
            for k in ("hr", "rr")
        )

    def problems(self, out, expected):
        return _report_problems(out[0], expected[0], "hr") + _report_problems(out[1], expected[1], "rr")


WORKLOADS = {w.name: w for w in (ForwardRgb72, ForwardLong9, Eval10Min)}
