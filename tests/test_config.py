from pathlib import Path

import pytest

from isac_ident.config import (
    ConfigError,
    RunConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    with_seed,
)


def test_defaults_without_file():
    cfg = RunConfig()
    assert cfg.comm.n_beams == 64
    assert cfg.scenario.n_sequences == 20
    assert cfg.training.epochs == 100


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
