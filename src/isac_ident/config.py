"""Run configuration: one YAML file drives every pipeline stage.

Top-level keys: seed, comm (antennas, beams, noise, ...), scenario,
radar, detect and training; any other key is an error. Scenes come only
from the scenario generator: there is no section of explicit
trajectories, and a dataset manifest that carries one is read with
`--config` instead.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import yaml

from isac_ident.dataset import FULL_MODE_DETECT, FULL_MODE_RADAR, ScenarioConfig
from isac_ident.radar_detect import DetectConfig
from isac_ident.radar_frontend import RadarConfig
from isac_ident.scene import CommConfig
from isac_ident.solvers import TrainConfig


class ConfigError(ValueError):
    """Configuration file is missing, malformed, or inconsistent."""


def require_radar_axes(radar: RadarConfig) -> None:
    """Refuse a radar profile whose map cannot place an object: one antenna
    gives a flat angle spectrum, and clutter removal leaves one or two chirps
    at most one noisy Doppler row. `RadarConfig` itself accepts both, so full
    mode, `detect` and the detection demo call this first."""
    if radar.n_rx < 2:
        raise ConfigError(f"radar.n_rx must be at least 2 for full mode and detect "
                          f"(one antenna gives no angle), got {radar.n_rx}")
    if radar.n_chirps < 3:
        raise ConfigError(f"radar.n_chirps must be at least 3 for full mode and detect "
                          f"(clutter removal leaves too few Doppler rows), got {radar.n_chirps}")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    comm: CommConfig = field(default_factory=CommConfig)
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    radar: RadarConfig = FULL_MODE_RADAR
    detect: DetectConfig = FULL_MODE_DETECT
    training: TrainConfig = field(default_factory=TrainConfig)


_COMM_KEYS = {
    "antennas": "n_antennas",
    "beams": "n_beams",
    "tx_gain": "tx_gain",
    "noise": "noise_var",
    "paths": "n_paths",
    "spacing": "element_spacing",
}

_SCENARIO_KEYS = {
    "sequences": "n_sequences",
    "samples_per_sequence": "samples_per_sequence",
    "candidates": "candidates_range",
    "misalignment_deg": "misalignment_deg",
    "angle_noise_deg": "angle_noise_deg",
    "distortion_deg": "distortion_deg",
    "frame_rate": "frame_rate_hz",
    "seed": "seed",
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_seed(seed) -> int:
    if not _is_int(seed) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


def _build(cls, raw: dict, key_map: dict | None, section: str):
    key_map = key_map or {f.name: f.name for f in fields(cls)}
    types = {f.name: f.type for f in fields(cls)}
    kwargs = {}
    for key, value in raw.items():
        if key not in key_map:
            raise ConfigError(f"unknown key {section}.{key}")
        kind = types[key_map[key]]
        if isinstance(value, bool):
            raise ConfigError(f"{section}.{key} must be numeric, got {value!r}")
        if isinstance(value, list):
            value = tuple(value)
        if isinstance(value, str):
            # YAML 1.1 reads unsigned exponents like 1.0e13 as strings
            try:
                value = float(value)
            except ValueError:
                raise ConfigError(f"{section}.{key} must be numeric, got {value!r}") from None
        if kind in ("int", "tuple[int, int]") and not all(
                map(_is_int, value if isinstance(value, tuple) else (value,))):
            raise ConfigError(f"{section}.{key} must be an integer, got {value!r}")
        kwargs[key_map[key]] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {section} section: {exc}") from None


def config_from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top level of the config must be a mapping")
    sections = ("comm", "scenario", "radar", "detect", "training")
    unknown = set(raw) - {"seed", *sections}
    if unknown:
        raise ConfigError(f"unknown top-level keys: {', '.join(sorted(map(str, unknown)))}")
    for key in sections:
        if not isinstance(raw.get(key, {}), dict):
            raise ConfigError(f"section {key} must be a mapping, got {type(raw[key]).__name__}")
    seed = _check_seed(raw.get("seed", 0))
    scenario_raw = dict(raw.get("scenario", {}))
    scenario_raw.setdefault("seed", seed)
    training_raw = dict(raw.get("training", {}))
    training_raw.setdefault("seed", seed)
    return RunConfig(
        seed=seed,
        comm=_build(CommConfig, raw.get("comm", {}), _COMM_KEYS, "comm"),
        scenario=_build(ScenarioConfig, scenario_raw, _SCENARIO_KEYS, "scenario"),
        radar=_build(RadarConfig, {**asdict(FULL_MODE_RADAR), **raw.get("radar", {})},
                     None, "radar"),
        detect=_build(DetectConfig, {**asdict(FULL_MODE_DETECT), **raw.get("detect", {})},
                      None, "detect"),
        training=_build(TrainConfig, training_raw, None, "training"),
    )


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        # one line: PyYAML's own message spans several, with a source excerpt
        mark = getattr(exc, "problem_mark", None)
        where = f":{mark.line + 1}:{mark.column + 1}" if mark else ""
        problem = getattr(exc, "problem", None) or " ".join(str(exc).split())
        raise ConfigError(f"{path}{where}: {problem}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return config_from_dict(raw or {})


def config_to_dict(cfg: RunConfig) -> dict:
    """Inverse of config_from_dict: a plain dict in the file schema."""
    def section(obj, key_map=None):
        key_map = key_map or {f.name: f.name for f in fields(obj)}
        out = {}
        for key, attr in key_map.items():
            value = getattr(obj, attr)
            out[key] = list(value) if isinstance(value, tuple) else value
        return out

    return {
        "seed": cfg.seed,
        "comm": section(cfg.comm, _COMM_KEYS),
        "scenario": section(cfg.scenario, _SCENARIO_KEYS),
        "radar": section(cfg.radar),
        "detect": section(cfg.detect),
        "training": section(cfg.training),
    }


def with_seed(cfg: RunConfig, seed: int) -> RunConfig:
    """Copy of the config with the root seed (and derived seeds) replaced."""
    _check_seed(seed)
    return replace(cfg, seed=seed, scenario=replace(cfg.scenario, seed=seed),
                   training=replace(cfg.training, seed=seed))
