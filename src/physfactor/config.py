"""Run configuration: an INI document with four sections mapping onto
the attention, model and metrics knobs plus the RNG seed.

Unknown sections or keys are rejected rather than ignored, so a typo in
a config file fails loudly. `defaults_text()` emits the canonical
document with every supported key and its default.
"""

import configparser
import os
from dataclasses import dataclass

from .attention import AttentionConfig
from .errors import DomainError, InputFormatError
from .metrics import RateBand
from .network import ConvBlockSpec, ModelConfig

ENV_CONFIG_PATH = "PHYSFACTOR_CONFIG"

# Every key with its default (as written in the INI text) and its value
# type. tuple means a comma-separated integer list; a key whose default
# is "auto" also takes "auto", which parses to None.
_DEFAULTS = {
    "attention": {
        "variant": ("fsam", str),
        "rank": ("8", int),
        "iterations": ("4", int),
        # no solver reads epsilon any more; perfbench still reads cfg.epsilon
        "epsilon": ("1e-06", float),
        "grbf_sigma": ("2.0", float),
        "grbf_delta_t": ("4", int),
    },
    "model": {
        "resolution": ("72", int),
        "channels": ("3", int),
        "bvp_channels": ("8,12,12,8", tuple),
        "rsp_channels": ("8,12,12,8", tuple),
        "temporal_kernel": ("3", int),
        "spatial_kernel": ("3", int),
        "rsp_temporal_strides": ("2,2,1,1", tuple),
        "attention_index": ("2", int),
        "use_attention": ("true", bool),
    },
    "metrics": {
        "window_s": ("30.0", float),
        "pad_factor": ("8", int),
        "max_lag_s": ("auto", float),
        "hr_lo_hz": ("0.6", float),
        "hr_hi_hz": ("3.3", float),
        "rr_lo_hz": ("0.1", float),
        "rr_hi_hz": ("0.5", float),
    },
    "rng": {
        "seed": ("0", int),
    },
}


def defaults_text():
    """The canonical INI document with all defaults."""
    chunks = []
    for section, keys in _DEFAULTS.items():
        chunks.append(f"[{section}]")
        for key, (default, _) in keys.items():
            chunks.append(f"{key} = {default}")
        chunks.append("")
    return "\n".join(chunks)


def _parse(section, key, raw):
    default, kind = _DEFAULTS[section][key]
    try:
        if raw == "auto" and default == "auto":
            return None
        if kind is tuple:
            return tuple(int(tok.strip()) for tok in raw.split(",") if tok.strip())
        if kind is bool:
            if raw.lower() in ("true", "yes", "on", "1"):
                return True
            if raw.lower() in ("false", "no", "off", "0"):
                return False
            raise ValueError(raw)
        return kind(raw)
    except ValueError:
        what = "an integer list" if kind is tuple else kind.__name__
        raise InputFormatError(f"[{section}] {key}: cannot parse {raw!r} as {what}") from None


@dataclass(frozen=True)
class RunConfig:
    variant: str
    rank: int
    iterations: int
    epsilon: float
    grbf_sigma: float
    grbf_delta_t: int
    resolution: int
    channels: int
    bvp_channels: tuple
    rsp_channels: tuple
    temporal_kernel: int
    spatial_kernel: int
    rsp_temporal_strides: tuple
    attention_index: int
    use_attention: bool
    window_s: float
    pad_factor: int
    max_lag_s: float | None
    hr_band: RateBand
    rr_band: RateBand
    seed: int

    def band(self, kind):
        if kind == "hr":
            return self.hr_band
        if kind == "rr":
            return self.rr_band
        raise InputFormatError(f"unknown band kind {kind!r}")

    def attention_config(self, variant=None):
        return AttentionConfig(
            variant=variant or self.variant,
            rank=self.rank,
            iterations=self.iterations,
            grbf_sigma=self.grbf_sigma,
            grbf_delta_t=self.grbf_delta_t,
            seed=self.seed,
        )

    def model_config(self, omit_attention=False):
        att = None
        if self.use_attention and not omit_attention:
            att = self.attention_config()
        bvp = tuple(
            ConvBlockSpec(c, self.temporal_kernel, self.spatial_kernel, 1, 2)
            for c in self.bvp_channels
        )
        rsp = tuple(
            ConvBlockSpec(c, self.temporal_kernel, self.spatial_kernel, s, 2)
            for c, s in zip(self.rsp_channels, self.rsp_temporal_strides)
        )
        return ModelConfig(
            input_resolution=self.resolution,
            input_channels=self.channels,
            bvp_blocks=bvp,
            rsp_blocks=rsp,
            attention_index=self.attention_index,
            bvp_attention=att,
            rsp_attention=att,
            seed=self.seed,
        )


def _build(values, seed_override=None):
    parsed = {
        key: _parse(section, key, raw) for section, keys in values.items() for key, raw in keys.items()
    }
    if seed_override is not None:
        parsed["seed"] = int(seed_override)
    if parsed["seed"] < 0:
        raise DomainError(f"seed must be >= 0, got {parsed['seed']}")
    if len(parsed["rsp_channels"]) != len(parsed["rsp_temporal_strides"]):
        raise InputFormatError("[model] rsp_channels and rsp_temporal_strides must have equal length")
    for kind in ("hr", "rr"):
        parsed[f"{kind}_band"] = RateBand(parsed.pop(f"{kind}_lo_hz"), parsed.pop(f"{kind}_hi_hz"), kind)
    return RunConfig(**parsed)


def load_run_config(path=None, seed_override=None):
    """Load a RunConfig from an INI file, the environment-pointed file,
    or pure defaults when neither is given.

    Unknown sections or keys raise InputFormatError, a negative seed
    DomainError.
    """
    if path is None:
        path = os.environ.get(ENV_CONFIG_PATH) or None

    values = {s: {key: default for key, (default, _) in keys.items()} for s, keys in _DEFAULTS.items()}
    if path is not None:
        parser = configparser.ConfigParser()
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except configparser.Error as exc:
            raise InputFormatError(f"{path}: {exc}") from None
        for section in parser.sections():
            if section not in _DEFAULTS:
                raise InputFormatError(f"{path}: unknown section [{section}]")
            for key, raw in parser[section].items():
                if key not in _DEFAULTS[section]:
                    raise InputFormatError(f"{path}: unknown key {key!r} in [{section}]")
                values[section][key] = raw
    return _build(values, seed_override)
