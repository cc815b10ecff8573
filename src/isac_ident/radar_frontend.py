"""FMCW IF-signal synthesis: the ADC cube, or its range-Doppler spectra, of a scene.

The transmit side is a frame of linear up-chirps; mixing with the echo of
an object at range d yields an IF tone whose fast-time frequency encodes
range, whose chirp-to-chirp phase encodes Doppler, and whose antenna-to-
antenna phase encodes azimuth (stop-and-hop approximation).

`synthesize_frame` renders the complex ADC cube, which cube files and the
`detect` command carry. `synthesize_spectra` writes the per-antenna
range-Doppler spectra that detection reads straight from per-object
factors, with no cube and no cube-sized FFT; `simulate --mode full` uses
it. Both sum the echoes of all objects by one complex matrix product, so
their values pass through BLAS: they are the closed-form tones (or their
DFTs) up to the last-bit rounding of BLAS's complex multiply-add. A test
checks that the samples `simulate` derives from them do not depend on the
BLAS thread count.
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


def _phasors(scene, cfg: RadarConfig):
    """Per-object antenna, chirp and fast-time phasors of `if_tone`.

    Returns (K, n_rx), (K, n_chirps) and (K, n_samples) arrays; the
    reflectivity rides on the antenna phasor. The phase of `if_tone` is a sum
    of an antenna, a chirp and a fast-time term, so object k's tone at
    (m, l, i) is antenna[k, m] * chirp[k, l] * fast[k, i].
    """
    if not scene:
        raise ValueError("scene must contain at least one object")
    m = np.arange(cfg.n_rx)
    l = np.arange(cfg.n_chirps)
    i = np.arange(cfg.n_samples)
    antenna = np.empty((len(scene), cfg.n_rx), dtype=complex)
    chirp = np.empty((len(scene), cfg.n_chirps), dtype=complex)
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
        chirp[k] = np.exp(1j * (2.0 * math.pi * f_doppler * l * cfg.chirp_interval_s))
        antenna[k] = obj.reflectivity * np.exp(
            1j * (2.0 * math.pi * cfg.rx_spacing * m * math.sin(math.radians(obj.azimuth_deg))))
    return antenna, chirp, fast


def _outer_sum(antenna, chirp, fast, out) -> None:
    """out[m, l, i] = sum_k antenna[k, m] * chirp[k, l] * fast[k, i], as one matrix product.

    The K objects' (n_rx * n_chirps, K) slow-time factors times their
    (K, n_samples) fast-time factors, written into `out`.
    """
    slow = antenna.T[:, None, :] * chirp.T[None, :, :]
    np.matmul(slow.reshape(-1, len(fast)), fast, out=out.reshape(-1, out.shape[-1]))


def _add_noise(x: np.ndarray, power: float, seed: int) -> None:
    """Add circular Gaussian noise of per-cell power `power` to the complex array `x`.

    The real parts of all cells are drawn in C order, then the imaginary
    parts, from `child_rng(seed, "frame-noise")`. They are drawn one
    antenna plane at a time, so the buffer is a plane, not a cube.
    """
    rng = child_rng(seed, "frame-noise")
    scale = math.sqrt(power / 2.0)
    draws = np.empty(x.shape[1:])
    for part in (x.real, x.imag):
        for plane in part:
            rng.standard_normal(out=draws)
            draws *= scale
            plane += draws


def synthesize_frame(scene, cfg: RadarConfig, seed: int = 0) -> RadarCube:
    """Sum of per-object IF tones over the full cube plus circular Gaussian noise.

    Each tone is the outer product of an (antenna, chirp) phasor and a
    fast-time phasor, so the whole echo sum is one matrix product written
    into the cube (`_outer_sum`). The noise has power `noise_floor` per
    sample.
    """
    # The product is written into a cube allocated before the small phasor
    # matrices. A product with its own output, or this order reversed, made
    # each new frame thread page-fault its first frame's memory in again
    # (about 2,700 minor faults per 8-frame `simulate`, measured).
    data = np.zeros((cfg.n_rx, cfg.n_chirps, cfg.n_samples), dtype=complex)
    _outer_sum(*_phasors(scene, cfg), out=data)
    if cfg.noise_floor > 0:
        _add_noise(data, cfg.noise_floor, seed)
    return RadarCube(data=data, config=cfg)


def synthesize_spectra(scene, cfg: RadarConfig, seed: int = 0) -> np.ndarray:
    """Per-antenna range-Doppler spectra of a frame, without rendering its cube.

    Returns what `radar_detect._range_doppler(synthesize_frame(scene, cfg))`
    returns: shape (n_rx, n_chirps, n_samples), Doppler in FFT order, static
    clutter removed. Both FFTs are linear, so each echo's spectrum is the
    outer product of its antenna phasor, the DFT of its mean-removed chirp
    phasor and the DFT of its fast-time phasor, and the echo sum is one
    matrix product of these small factors. White noise stays white under the
    unnormalized DFT, so the noise is drawn straight into the spectra with
    per-cell power `noise_floor * n_chirps * n_samples`. Doppler bin 0 is
    then set to exactly 0, as clutter removal leaves it. The noise draws are
    not those of `synthesize_frame`: the two paths agree in distribution,
    and noise-free to rounding.
    """
    # allocated before the phasors, for the page-fault reason in synthesize_frame
    spectra = np.empty((cfg.n_rx, cfg.n_chirps, cfg.n_samples), dtype=complex)
    antenna, chirp, fast = _phasors(scene, cfg)
    chirp -= chirp.mean(axis=1, keepdims=True)             # static clutter removal
    _outer_sum(antenna, np.fft.fft(chirp, axis=1), np.fft.fft(fast, axis=1), out=spectra)
    if cfg.noise_floor > 0:
        _add_noise(spectra, cfg.noise_floor * cfg.n_chirps * cfg.n_samples, seed)
    spectra[:, 0] = 0.0
    return spectra


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
    if len(raw) - 20 != 4 * n_values:
        raise CubeFormatError(
            f"{path}: expected {4 * n_values} bytes of float32 pairs, found {len(raw) - 20}")
    payload = np.frombuffer(raw, dtype="<f4", offset=20)
    n_bad = payload.size - int(np.isfinite(payload).sum())
    if n_bad:
        raise CubeFormatError(f"{path}: {n_bad} non-finite sample values")
    pairs = payload.reshape(n_rx, n_chirps, n_samples, 2).astype(float)
    data = pairs[..., 0] + 1j * pairs[..., 1]
    return RadarCube(data=data, config=cfg)
