import configparser
from pathlib import Path

import numpy as np
import pytest

from physfactor import config
from physfactor.attention import AttentionConfig
from physfactor.config import defaults_text, load_run_config
from physfactor.errors import DomainError, InputFormatError
from physfactor.metrics import HR_BAND, PAD_FACTOR, RR_BAND, WINDOW_S
from physfactor.network import ModelConfig

DEFAULTS_TEXT = """\
[attention]
variant = fsam
rank = 8
iterations = 4
epsilon = 1e-06
grbf_sigma = 2.0
grbf_delta_t = 4

[model]
resolution = 72
channels = 3
bvp_channels = 8,12,12,8
rsp_channels = 8,12,12,8
temporal_kernel = 3
spatial_kernel = 3
rsp_temporal_strides = 2,2,1,1
attention_index = 2
use_attention = true

[metrics]
window_s = 30.0
pad_factor = 8
max_lag_s = auto
hr_lo_hz = 0.6
hr_hi_hz = 3.3
rr_lo_hz = 0.1
rr_hi_hz = 0.5

[rng]
seed = 0
"""


def test_defaults_load_without_file():
    cfg = load_run_config()
    assert cfg.attention.variant == "fsam"
    assert cfg.attention.rank == 8
    assert cfg.attention.iterations == 4
    assert cfg.model.input_resolution == 72
    assert cfg.model.input_channels == 3
    assert cfg.window_s == 30.0
    assert cfg.pad_factor == 8
    assert cfg.max_lag_s is None
    assert cfg.seed == 0
    assert cfg.hr_band.lo_hz == 0.6 and cfg.hr_band.hi_hz == 3.3
    assert cfg.rr_band.lo_hz == 0.1 and cfg.rr_band.hi_hz == 0.5


def test_defaults_text_round_trips(tmp_path):
    path = tmp_path / "defaults.ini"
    path.write_text(defaults_text())
    assert load_run_config(str(path)) == load_run_config()


def test_partial_override(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[attention]\nvariant = tsfm\nrank = 4\n\n[rng]\nseed = 9\n")
    cfg = load_run_config(str(path))
    assert cfg.attention.variant == "tsfm" and cfg.attention.rank == 4 and cfg.seed == 9
    assert cfg.model.input_resolution == 72  # untouched default


def test_unknown_keys_rejected(tmp_path):
    bad_key = tmp_path / "bad_key.ini"
    bad_key.write_text("[attention]\nvariannt = tsfm\n")
    with pytest.raises(InputFormatError, match="variannt"):
        load_run_config(str(bad_key))

    bad_section = tmp_path / "bad_section.ini"
    bad_section.write_text("[attenshun]\nvariant = tsfm\n")
    with pytest.raises(InputFormatError, match="attenshun"):
        load_run_config(str(bad_section))


def test_bad_values_rejected(tmp_path):
    path = tmp_path / "bad_value.ini"
    path.write_text("[attention]\nrank = eight\n")
    with pytest.raises(InputFormatError, match="rank"):
        load_run_config(str(path))

    path.write_text("[model]\nrsp_channels = 8,12\n")
    with pytest.raises(InputFormatError, match="rsp_channels"):
        load_run_config(str(path))


def test_env_var_pickup(tmp_path, monkeypatch):
    path = tmp_path / "env.ini"
    path.write_text("[rng]\nseed = 123\n")
    monkeypatch.setenv("PHYSFACTOR_CONFIG", str(path))
    assert load_run_config().seed == 123


def test_seed_override():
    assert load_run_config(seed_override=42).seed == 42


@pytest.mark.parametrize("seed", [2.5, True, "3"])
def test_seed_override_must_be_an_integer(seed):
    # 2.5 was truncated to 2 and True read as 1
    with pytest.raises(DomainError, match="seed"):
        load_run_config(seed_override=seed)


def test_library_defaults_match_the_ini_defaults():
    cfg = load_run_config()
    att = AttentionConfig()
    assert cfg.model_config() == ModelConfig(bvp_attention=att, rsp_attention=att)
    assert cfg.window_s == WINDOW_S and cfg.pad_factor == PAD_FACTOR
    assert cfg.hr_band == HR_BAND and cfg.rr_band == RR_BAND
    assert defaults_text() == DEFAULTS_TEXT


def test_model_and_attention_construction():
    cfg = load_run_config()
    model = cfg.model_config()
    assert model.input_resolution == 72
    assert model.rsp_upsample_factor == 4
    assert model.bvp_attention is not None
    assert model.bvp_attention.variant == "fsam"

    bare = cfg.model_config(omit_attention=True)
    assert bare.bvp_attention is None and bare.rsp_attention is None

    att = cfg.attention_config("grbf")
    assert att.variant == "grbf"
    assert att.grbf_sigma == 2.0 and att.grbf_delta_t == 4


def test_max_lag_numeric(tmp_path):
    path = tmp_path / "lag.ini"
    path.write_text("[metrics]\nmax_lag_s = 2.5\n")
    assert load_run_config(str(path)).max_lag_s == 2.5


def test_use_attention_flag(tmp_path):
    path = tmp_path / "noatt.ini"
    path.write_text("[model]\nuse_attention = false\n")
    model = load_run_config(str(path)).model_config()
    assert model.bvp_attention is None


def test_rsp_list_lengths_compared_after_parsing(tmp_path):
    # the parser dropped empty entries, so "8,,12,12,8" read as four
    # channels and "8,12," as two; an empty entry is now refused while
    # the list is parsed, before any lengths are compared
    path = tmp_path / "odd.ini"
    path.write_text("[model]\nrsp_channels = 8,,12,12,8\nrsp_temporal_strides = 2,2,1,1,1\n")
    with pytest.raises(InputFormatError, match=r"rsp_channels: cannot parse '8,,12,12,8' as an integer list"):
        load_run_config(str(path))
    path.write_text("[model]\nbvp_channels = 8,12,\n")
    with pytest.raises(InputFormatError, match=r"bvp_channels: cannot parse '8,12,' as an integer list"):
        load_run_config(str(path))


NONDEFAULT_INI = Path(__file__).parent / "data" / "nondefault.ini"

# where each INI key lands in a loaded RunConfig
FIELD_OF_KEY = {
    ("attention", "variant"): lambda c: c.attention.variant,
    ("attention", "rank"): lambda c: c.attention.rank,
    ("attention", "iterations"): lambda c: c.attention.iterations,
    ("attention", "epsilon"): lambda c: c.epsilon,
    ("attention", "grbf_sigma"): lambda c: c.attention.grbf_sigma,
    ("attention", "grbf_delta_t"): lambda c: c.attention.grbf_delta_t,
    ("model", "resolution"): lambda c: c.model.input_resolution,
    ("model", "channels"): lambda c: c.model.input_channels,
    ("model", "bvp_channels"): lambda c: c.model.bvp_channels,
    ("model", "rsp_channels"): lambda c: c.model.rsp_channels,
    ("model", "temporal_kernel"): lambda c: c.model.temporal_kernel,
    ("model", "spatial_kernel"): lambda c: c.model.spatial_kernel,
    ("model", "rsp_temporal_strides"): lambda c: c.model.rsp_temporal_strides,
    ("model", "attention_index"): lambda c: c.model.attention_index,
    ("model", "use_attention"): lambda c: c.model.bvp_attention is c.attention and c.model.rsp_attention is c.attention,
    ("metrics", "window_s"): lambda c: c.window_s,
    ("metrics", "pad_factor"): lambda c: c.pad_factor,
    ("metrics", "max_lag_s"): lambda c: c.max_lag_s,
    ("metrics", "hr_lo_hz"): lambda c: c.hr_band.lo_hz,
    ("metrics", "hr_hi_hz"): lambda c: c.hr_band.hi_hz,
    ("metrics", "rr_lo_hz"): lambda c: c.rr_band.lo_hz,
    ("metrics", "rr_hi_hz"): lambda c: c.rr_band.hi_hz,
    ("rng", "seed"): lambda c: c.seed,
}


def test_every_key_lands_in_its_config_field():
    parser = configparser.ConfigParser()
    parser.read(NONDEFAULT_INI)
    given = {(section, key): raw for section in parser.sections() for key, raw in parser[section].items()}
    keys = {(section, key) for section, keys in config._DEFAULTS.items() for key in keys}
    assert set(given) == keys == set(FIELD_OF_KEY)

    cfg, default = load_run_config(str(NONDEFAULT_INI)), load_run_config()
    for (section, key), field in FIELD_OF_KEY.items():
        want = config._parse(section, key, given[section, key])
        assert field(cfg) == want, key
        assert field(default) != want, f"{key} is at its default in {NONDEFAULT_INI.name}"
    # the seed reaches both library configs
    assert cfg.attention.seed == cfg.model.seed == cfg.seed
    assert cfg.model.bvp_attention is None and cfg.model.rsp_attention is None
