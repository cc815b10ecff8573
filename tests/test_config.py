import math
import sys
from pathlib import Path

import pytest

from isac_ident.cli import main
from isac_ident.config import (
    ConfigError,
    RunConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    with_seed,
)
from isac_ident.radar_frontend import RadarConfig


def test_defaults_without_file():
    cfg = RunConfig()
    assert cfg.comm.n_beams == 64
    assert cfg.scenario.n_sequences == 20
    assert cfg.training.epochs == 100
    assert cfg.training.batch == 64
    assert cfg.training.lr == 2e-3


def test_load_yaml(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(
        "seed: 9\n"
        "comm:\n  antennas: 16\n  beams: 32\n  noise: 0.01\n"
        "scenario:\n  sequences: 4\n  samples_per_sequence: [10, 20]\n"
        "  candidates: [1, 3]\n  misalignment_deg: 2.5\n"
        "training:\n  epochs: 7\n"
    )
    cfg = load_config(path)
    assert cfg.seed == 9
    assert cfg.comm.n_antennas == 16 and cfg.comm.noise_var == 0.01
    assert cfg.scenario.n_sequences == 4
    assert cfg.scenario.samples_per_sequence == (10, 20)
    assert cfg.scenario.seed == 9  # inherits the run seed
    assert cfg.training.epochs == 7 and cfg.training.seed == 9


def test_example_config_is_the_defaults():
    # a default changed without configs/example.yaml (or the reverse) fails here
    example = Path(__file__).parents[1] / "configs" / "example.yaml"
    assert load_config(example) == RunConfig()


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.yaml")


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        config_from_dict({"comm": {"antenas": 8}})
    with pytest.raises(ConfigError, match="unknown"):
        config_from_dict({"commm": {}})


def test_invalid_values_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"comm": {"antennas": 0}})
    with pytest.raises(ConfigError):
        config_from_dict({"scenario": {"sequences": -3}})


def test_roundtrip_through_dict():
    cfg = config_from_dict({
        "seed": 3,
        "comm": {"antennas": 8, "beams": 16},
        "scenario": {"sequences": 6, "misalignment_deg": 1.0},
    })
    again = config_from_dict(config_to_dict(cfg))
    assert again == cfg


def test_with_seed_rewrites_derived_seeds():
    cfg = config_from_dict({"seed": 1})
    bumped = with_seed(cfg, 42)
    assert bumped.seed == 42
    assert bumped.scenario.seed == 42
    assert bumped.training.seed == 42


# (section, config key, the field name the error message carries)
FLOAT_FIELDS = [
    ("radar", "carrier_hz", "carrier_hz"), ("radar", "slope_hz_per_s", "slope_hz_per_s"),
    ("radar", "chirp_duration_s", "chirp_duration_s"),
    ("radar", "inter_chirp_wait_s", "inter_chirp_wait_s"),
    ("radar", "sample_rate_hz", "sample_rate_hz"), ("radar", "rx_spacing", "rx_spacing"),
    ("radar", "noise_floor", "noise_floor"),
    ("detect", "cfar_pfa", "cfar_pfa"), ("detect", "dbscan_eps", "dbscan_eps"),
    ("detect", "cfar_floor_frac", "cfar_floor_frac"),
    ("scenario", "misalignment_deg", "misalignment_deg"),
    ("scenario", "angle_noise_deg", "angle_noise_deg"),
    ("scenario", "distortion_deg", "distortion_deg"), ("scenario", "frame_rate", "frame_rate_hz"),
    ("comm", "tx_gain", "tx_gain"), ("comm", "noise", "noise_var"),
    ("comm", "spacing", "element_spacing"),
]


@pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
@pytest.mark.parametrize("section,key,name", FLOAT_FIELDS,
                         ids=[f"{section}-{key}" for section, key, _ in FLOAT_FIELDS])
def test_non_finite_float_is_rejected_by_name(tmp_path, section, key, name, value):
    # a NaN passes every range check (its comparisons are all False), so
    # noise_floor: .nan once ran full mode noise-free and exited 0
    path = tmp_path / "run.yaml"
    path.write_text(f"{section}:\n  {key}: {value}\n")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    message = str(info.value)
    assert "\n" not in message
    assert message.startswith(f"invalid {section} section: {name} must be finite, got ")


def test_non_finite_noise_floor_exits_2_in_one_line(tmp_path, capsys):
    path = tmp_path / "run.yaml"
    path.write_text("radar:\n  noise_floor: .nan\n")
    code = main(["simulate", "--mode", "full", "--config", str(path),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2 and err.count("\n") == 1
    assert err == "error: invalid radar section: noise_floor must be finite, got nan\n"
    assert not (tmp_path / "out").exists()


OVERFLOW_PROFILE = ("scenario:\n  sequences: 2\n  samples_per_sequence: [2, 2]\n"
                    "radar:\n  n_chirps: 64\n  n_samples: 128\n  noise_floor: {!r}\n")


def test_overflowing_noise_floor_exits_2_in_one_line(tmp_path, capsys):
    # sigma^2 = noise_floor * 64 * 128 / 2 is inf here: the frame once drew
    # inf * 0 and CFAR subtracted inf from inf, four RuntimeWarnings deep
    path = tmp_path / "run.yaml"
    path.write_text(OVERFLOW_PROFILE.format(1e306))
    code = main(["simulate", "--mode", "full", "--config", str(path),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2 and err.count("\n") == 1
    assert err.startswith("error: invalid radar section: noise_floor 1e+306 ")
    assert not (tmp_path / "out").exists()


def test_largest_accepted_noise_floor_simulates_without_warning(tmp_path, capsys):
    # a CFAR row of the map sums 128 cells of mean noise power 4 * noise_floor
    # * 64 * 128; the largest accepted floor keeps that 2^10 below the
    # largest float, and the next float up is rejected
    largest = sys.float_info.max / 2 ** 10 / (4 * 64 * 128 ** 2)
    assert RadarConfig(n_chirps=64, n_samples=128, noise_floor=largest).noise_floor == largest
    with pytest.raises(ValueError, match="noise_floor"):
        RadarConfig(n_chirps=64, n_samples=128, noise_floor=math.nextafter(largest, math.inf))
    path = tmp_path / "run.yaml"
    path.write_text(OVERFLOW_PROFILE.format(largest))
    code = main(["simulate", "--mode", "full", "--config", str(path),
                 "--out", str(tmp_path / "out")])
    # the noise buries every echo, so no frame matches its user: a clean
    # exit 2 in one line, and no RuntimeWarning (the suite makes them errors)
    assert code == 2
    assert capsys.readouterr().err == "error: sequence 0 produced no usable samples\n"
