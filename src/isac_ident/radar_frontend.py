"""FMCW IF-signal synthesis: the complex ADC cube for a multi-object scene.

The transmit side is a frame of linear up-chirps; mixing with the echo of
an object at range d yields an IF tone whose fast-time frequency encodes
range, whose chirp-to-chirp phase encodes Doppler, and whose antenna-to-
antenna phase encodes azimuth (stop-and-hop approximation).

The echoes of all objects are summed by one complex matrix product, so the
cube passes through BLAS: its values are the closed-form tones up to the
last-bit rounding of BLAS's complex multiply-add. A test checks that the
samples `simulate` derives from them do not depend on the BLAS thread count.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from isac_ident.scene import C0, SceneObject
from isac_ident.seeding import child_rng

_CUBE_MAGIC = b"RCUB"
_CUBE_VERSION = 1


class CubeFormatError(ValueError):
    """Radar cube file is malformed."""


@dataclass(frozen=True)
class RadarConfig:
    """FMCW chirp-frame parameters.

    Defaults give a long-range automotive profile: 10 MHz/us slope over a
    31 us chirp (310 MHz swept), 512 samples at 16.666 MHz for a maximum
    range near 249 m, 250 chirps per frame.
    """

    carrier_hz: float = 77e9
    slope_hz_per_s: float = 1.0e13       # 10 MHz/us
    chirp_duration_s: float = 31e-6
    inter_chirp_wait_s: float = 7e-6
    n_chirps: int = 250
    n_samples: int = 512
    n_rx: int = 4
    sample_rate_hz: float = 16.666e6
    rx_spacing: float = 0.5              # wavelengths
    noise_floor: float = 0.0             # per-sample complex noise power

    def __post_init__(self):
        if min(self.n_chirps, self.n_samples, self.n_rx) < 1:
            raise ValueError("chirp, sample and antenna counts must be >= 1")
        if self.slope_hz_per_s * self.chirp_duration_s <= 0:
            raise ValueError("swept bandwidth must be positive")
        if self.n_samples / self.sample_rate_hz > self.chirp_duration_s * (1 + 1e-9):
            raise ValueError("sampling window exceeds the chirp duration")
        if self.noise_floor < 0:
            raise ValueError("noise_floor must be non-negative")

    @property
    def chirp_interval_s(self) -> float:
        return self.chirp_duration_s + self.inter_chirp_wait_s

    @property
    def range_bin_m(self) -> float:
        return C0 * self.sample_rate_hz / (2.0 * self.slope_hz_per_s * self.n_samples)

    @property
    def doppler_bin_mps(self) -> float:
        return C0 / (2.0 * self.carrier_hz * self.n_chirps * self.chirp_interval_s)


@dataclass(frozen=True)
class RadarCube:
    """Complex ADC samples of one frame, shaped (antennas, chirps, samples)."""

    data: np.ndarray
    config: RadarConfig

    def __post_init__(self):
        expected = (self.config.n_rx, self.config.n_chirps, self.config.n_samples)
        if self.data.shape != expected:
            raise ValueError(f"cube shape {self.data.shape} != config shape {expected}")


def if_tone(obj: SceneObject, cfg: RadarConfig, antenna: int, chirp: int, sample: int) -> complex:
    """IF sample for one object at one (antenna, chirp, sample) cell.

    Fast-time phase 2*pi*(mu*tau*t + fc*tau - mu*tau^2/2) at t = sample/fs
    with round-trip delay tau = 2d/c, times the per-chirp Doppler phasor
    (fD = 2*v_r*fc/c, closing positive) and the per-antenna phasor at the
    object azimuth.
    """
    d = obj.range_m
    if d <= 0:
        raise ValueError("object range must be positive")
    tau = 2.0 * d / C0
    t = sample / cfg.sample_rate_hz
    f_doppler = 2.0 * obj.radial_velocity * cfg.carrier_hz / C0
    phase = (
        2.0 * math.pi * (cfg.slope_hz_per_s * tau * t + cfg.carrier_hz * tau
                         - 0.5 * cfg.slope_hz_per_s * tau * tau)
        + 2.0 * math.pi * f_doppler * chirp * cfg.chirp_interval_s
        + 2.0 * math.pi * cfg.rx_spacing * antenna * math.sin(math.radians(obj.azimuth_deg))
    )
    return obj.reflectivity * complex(math.cos(phase), math.sin(phase))


def synthesize_frame(scene, cfg: RadarConfig, seed: int = 0) -> RadarCube:
    """Sum of per-object IF tones over the full cube plus circular Gaussian noise.

    The phase of `if_tone` is a sum of a fast-time, a chirp and an antenna
    term, so each tone is the outer product of an (antenna, chirp) phasor
    and a fast-time phasor. The K objects' (n_rx * n_chirps, K) and
    (K, n_samples) phasor matrices give the whole echo sum as one matrix
    product, written into the cube.
    """
    if not scene:
        raise ValueError("scene must contain at least one object")
    m = np.arange(cfg.n_rx)
    l = np.arange(cfg.n_chirps)
    i = np.arange(cfg.n_samples)
    # The product is written into a cube allocated before the small phasor
    # matrices. A product with its own output, or this order reversed, made
    # each new frame thread page-fault its first frame's memory in again
    # (about 2,700 minor faults per 8-frame `simulate`, measured).
    data = np.zeros((cfg.n_rx, cfg.n_chirps, cfg.n_samples), dtype=complex)
    slow = np.empty((cfg.n_rx, cfg.n_chirps, len(scene)), dtype=complex)
    fast = np.empty((len(scene), cfg.n_samples), dtype=complex)
    for k, obj in enumerate(scene):
        d = obj.range_m
        if d <= 0:
            raise ValueError("object range must be positive")
        tau = 2.0 * d / C0
        f_doppler = 2.0 * obj.radial_velocity * cfg.carrier_hz / C0
        fast[k] = np.exp(1j * (2.0 * math.pi * (
            cfg.slope_hz_per_s * tau * (i / cfg.sample_rate_hz) + cfg.carrier_hz * tau
            - 0.5 * cfg.slope_hz_per_s * tau * tau)))
        chirp = np.exp(1j * (2.0 * math.pi * f_doppler * l * cfg.chirp_interval_s))
        antenna = obj.reflectivity * np.exp(
            1j * (2.0 * math.pi * cfg.rx_spacing * m * math.sin(math.radians(obj.azimuth_deg))))
        slow[..., k] = np.multiply.outer(antenna, chirp)
    np.matmul(slow.reshape(-1, len(scene)), fast, out=data.reshape(-1, cfg.n_samples))
    if cfg.noise_floor > 0:
        rng = child_rng(seed, "frame-noise")
        scale = math.sqrt(cfg.noise_floor / 2.0)
        data.real += scale * rng.standard_normal(data.shape)
        data.imag += scale * rng.standard_normal(data.shape)
    return RadarCube(data=data, config=cfg)


def save_cube(cube: RadarCube, path) -> None:
    """Write a cube: 'RCUB' magic, version, dims, then float32 re/im pairs."""
    data = np.ascontiguousarray(cube.data)
    header = struct.pack(
        "<4sIIII", _CUBE_MAGIC, _CUBE_VERSION,
        cube.config.n_rx, cube.config.n_chirps, cube.config.n_samples,
    )
    interleaved = np.empty(data.shape + (2,), dtype="<f4")
    interleaved[..., 0] = data.real
    interleaved[..., 1] = data.imag
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(interleaved.tobytes())


def load_cube(path, cfg: RadarConfig) -> RadarCube:
    """Read a cube written by save_cube; dims must match the given config."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 20:
        raise CubeFormatError(f"{path}: truncated header")
    magic, version, n_rx, n_chirps, n_samples = struct.unpack_from("<4sIIII", raw)
    if magic != _CUBE_MAGIC:
        raise CubeFormatError(f"{path}: bad magic {magic!r}")
    if version != _CUBE_VERSION:
        raise CubeFormatError(f"{path}: unsupported version {version}")
    if (n_rx, n_chirps, n_samples) != (cfg.n_rx, cfg.n_chirps, cfg.n_samples):
        raise CubeFormatError(
            f"{path}: cube dims ({n_rx}, {n_chirps}, {n_samples}) do not match config"
        )
    n_values = n_rx * n_chirps * n_samples * 2
    payload = np.frombuffer(raw, dtype="<f4", offset=20)
    if payload.size != n_values:
        raise CubeFormatError(f"{path}: expected {n_values} floats, found {payload.size}")
    n_bad = payload.size - int(np.isfinite(payload).sum())
    if n_bad:
        raise CubeFormatError(f"{path}: {n_bad} non-finite sample values")
    pairs = payload.reshape(n_rx, n_chirps, n_samples, 2).astype(float)
    data = pairs[..., 0] + 1j * pairs[..., 1]
    return RadarCube(data=data, config=cfg)
