"""Run configuration: an INI document with four sections mapping onto
the attention, model and metrics knobs plus the RNG seed.

Each value is parsed once into the object that uses it: [attention]
into an AttentionConfig, [model] into a ModelConfig and [metrics] into
RunConfig's own fields, with the seed in all three. Unknown sections or
keys are rejected rather than ignored, so a typo in a config file fails
loudly, and a value that the config objects refuse fails when the file
loads. `defaults_text()` emits the canonical document with every
supported key and its default.
"""

import configparser
import os
from dataclasses import dataclass, field, replace
from types import MappingProxyType

from .attention import AttentionConfig
from .errors import InputFormatError, check_int, check_real
from .metrics import BANDS, MIN_DURATION_S, RateBand
from .network import ModelConfig

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
            return tuple(int(tok) for tok in raw.split(",")) if raw else ()
        if kind is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        return kind(raw)
    except (KeyError, ValueError):
        what = "an integer list" if kind is tuple else kind.__name__
        raise InputFormatError(f"[{section}] {key}: cannot parse {raw!r} as {what}") from None


@dataclass(frozen=True)
class RunConfig:
    """A loaded run config.

    attention holds the [attention] keys (less epsilon, which no solver
    reads) and the seed. model holds the [model] keys, with resolution
    as input_resolution and channels as input_channels; both branch
    attentions are `attention`, or None where use_attention is false.
    The [metrics] keys are window_s, pad_factor, max_lag_s and bands,
    the read-only table from "hr" and "rr" to the configured RateBand,
    keyed as metrics.BANDS. seed is the [rng] seed, or its override.
    """

    attention: AttentionConfig
    model: ModelConfig
    epsilon: float
    window_s: float
    pad_factor: int
    max_lag_s: float | None
    bands: MappingProxyType = field(hash=False)    # a mapping has no hash; the config keeps its own
    seed: int

    def __post_init__(self):
        # the metrics keys as estimate_rate_fft, split_windows and macc
        # check them, less what depends on the signal's sampling rate; a
        # window_s below MIN_DURATION_S cuts windows too short for rate
        # estimation, so every metrics run would refuse it
        check_int(self.pad_factor, "[metrics] pad_factor", 1)
        check_real(self.window_s, "[metrics] window_s", ge=MIN_DURATION_S)
        if self.max_lag_s is not None:
            check_real(self.max_lag_s, "[metrics] max_lag_s", ge=0)

    def attention_config(self, variant=None):
        """The attention config, with variant in place of its own if given."""
        return replace(self.attention, variant=variant) if variant else self.attention

    def model_config(self, omit_attention=False):
        """The model config, without attention on either branch if asked."""
        if omit_attention:
            return replace(self.model, bvp_attention=None, rsp_attention=None)
        return self.model


def _build(values, seed_override=None):
    att, model, met, rng = (
        {key: _parse(section, key, raw) for key, raw in values[section].items()}
        for section in ("attention", "model", "metrics", "rng")
    )
    seed = check_int(rng["seed"] if seed_override is None else seed_override, "seed", 0)
    if len(model["rsp_channels"]) != len(model["rsp_temporal_strides"]):
        raise InputFormatError("[model] rsp_channels and rsp_temporal_strides must have equal length")
    epsilon = att.pop("epsilon")
    attention = AttentionConfig(**att, seed=seed)
    branch = attention if model.pop("use_attention") else None
    model = ModelConfig(input_resolution=model.pop("resolution"), input_channels=model.pop("channels"),
                        **model, bvp_attention=branch, rsp_attention=branch, seed=seed)
    bands = {}
    for kind in BANDS:
        lo, hi = met.pop(f"{kind}_lo_hz"), met.pop(f"{kind}_hi_hz")
        # checked here as RateBand checks them, so an error names the INI key
        check_real(hi, f"[metrics] {kind}_hi_hz", gt=check_real(lo, f"[metrics] {kind}_lo_hz", gt=0))
        bands[kind] = RateBand(lo, hi)
    return RunConfig(attention, model, epsilon, **met, bands=MappingProxyType(bands), seed=seed)


def load_run_config(path=None, seed_override=None):
    """Load a RunConfig from an INI file, the environment-pointed file,
    or pure defaults when neither is given.

    Unknown sections or keys raise InputFormatError. A negative or
    non-integer seed, an out-of-domain [metrics] value, or an
    [attention] or [model] value that AttentionConfig or ModelConfig
    refuses, raises DomainError.
    """
    if path is None:
        path = os.environ.get(ENV_CONFIG_PATH) or None

    values = {s: {key: default for key, (default, _) in keys.items()} for s, keys in _DEFAULTS.items()}
    if path is not None:
        # no interpolation: a value is read as written, and a '%' in it
        # fails its parse like any other stray character
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except configparser.Error as exc:
            raise InputFormatError(f"{path}: {exc}") from None
        except UnicodeDecodeError:
            raise InputFormatError(f"{path}: not a text file") from None
        for section in parser.sections():
            if section not in _DEFAULTS:
                raise InputFormatError(f"{path}: unknown section [{section}]")
            for key, raw in parser[section].items():
                if key not in _DEFAULTS[section]:
                    raise InputFormatError(f"{path}: unknown key {key!r} in [{section}]")
                values[section][key] = raw
    return _build(values, seed_override)
