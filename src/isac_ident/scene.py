"""Scene ground truth and communication-side observables.

Mobile objects live in the x-y plane with the basestation array at the
origin and boresight along +y. The communication side is a MISO link:
a ULA at the basestation, a geometric multipath channel to the single
communication user, a DFT beam codebook, and the gain-maximizing beam
index found by sweeping the codebook.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from isac_ident.seeding import child_rng

C0 = 299_792_458.0  # speed of light, m/s


def check_finite_fields(obj) -> None:
    """Raise ValueError naming the first float field of the dataclass `obj` that is NaN or infinite.

    A NaN passes every range check (each comparison is False), so it must be
    rejected by name before them. Fields that are not floats (counts, tuples)
    are left to the caller's own checks.
    """
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class SceneObject:
    """One mobile object, positioned relative to the array origin."""

    id: int
    position: tuple[float, float]               # meters (x, y)
    velocity: tuple[float, float] = (0.0, 0.0)  # m/s
    reflectivity: float = 1.0                   # linear amplitude gain of the radar return
    is_comm_user: bool = False

    def __post_init__(self):
        for name in ("position", "velocity"):
            xy = getattr(self, name)
            if not (isinstance(xy, tuple) and len(xy) == 2 and all(
                    isinstance(c, (int, float)) and not isinstance(c, bool) and math.isfinite(c)
                    for c in xy)):
                raise ValueError(f"{name} must be two finite numbers, got {xy!r}")
        if self.reflectivity <= 0:
            raise ValueError("reflectivity must be positive")
        if math.hypot(*self.position) <= 0:
            raise ValueError("object cannot sit at the array origin")

    @property
    def range_m(self) -> float:
        return math.hypot(*self.position)

    @property
    def azimuth_deg(self) -> float:
        """Azimuth from boresight (+y axis), positive toward +x."""
        return math.degrees(math.atan2(self.position[0], self.position[1]))

    @property
    def radial_velocity(self) -> float:
        """Range rate with the closing direction positive."""
        px, py = self.position
        vx, vy = self.velocity
        return -(px * vx + py * vy) / self.range_m


@dataclass(frozen=True)
class CommConfig:
    """Downlink MISO link parameters."""

    n_antennas: int = 32
    n_beams: int = 64
    tx_gain: float = 1.0          # linear transmit power gain
    noise_var: float = 0.0        # per-sweep complex noise variance
    n_paths: int = 1
    element_spacing: float = 0.5  # wavelengths

    def __post_init__(self):
        check_finite_fields(self)
        if self.n_antennas < 1 or self.n_beams < 1 or self.n_paths < 1:
            raise ValueError("antenna, beam and path counts must be >= 1")
        if self.tx_gain <= 0:
            raise ValueError("tx_gain must be positive")
        if self.noise_var < 0:
            raise ValueError("noise_var must be non-negative")


@dataclass(frozen=True)
class Codebook:
    """Beamforming codebook: unit-norm weight vectors and their pointing angles."""

    vectors: np.ndarray         # (B, N) complex
    pointing_angles: np.ndarray  # (B,) degrees, strictly increasing

    def __post_init__(self):
        norms = np.linalg.norm(self.vectors, axis=1)
        if not np.allclose(norms, 1.0, atol=1e-9):
            raise ValueError("codebook vectors must have unit norm")
        if np.any(np.diff(self.pointing_angles) <= 0):
            raise ValueError("pointing angles must be strictly increasing")


def array_response(theta_deg: float, n_antennas: int, spacing: float = 0.5) -> np.ndarray:
    """ULA response a(theta): element m carries phase 2*pi*spacing*m*sin(theta)."""
    if not -90.0 <= theta_deg <= 90.0:
        raise ValueError(f"azimuth {theta_deg} deg outside [-90, 90]")
    m = np.arange(n_antennas)
    return np.exp(2j * np.pi * spacing * m * math.sin(math.radians(theta_deg)))


def dft_codebook(n_antennas: int, n_beams: int, spacing: float = 0.5) -> Codebook:
    """Directional codebook steering to angles uniform in sin space over [-1, 1).

    Beam b is the normalized array response at its pointing angle, so a
    single-path channel aligned with a beam attains the full array gain.
    """
    if n_antennas < 1 or n_beams < 1:
        raise ValueError("n_antennas and n_beams must be >= 1")
    sin_grid = -1.0 + 2.0 * np.arange(n_beams) / n_beams
    m = np.arange(n_antennas)
    vectors = np.exp(2j * np.pi * spacing * np.outer(sin_grid, m)) / math.sqrt(n_antennas)
    return Codebook(vectors=vectors, pointing_angles=np.degrees(np.arcsin(sin_grid)))


def channel_from_paths(
    alphas, thetas_deg, n_antennas: int, spacing: float = 0.5
) -> np.ndarray:
    """Sum of per-path complex gains times array responses."""
    alphas = np.asarray(alphas, dtype=complex)
    thetas = np.atleast_1d(np.asarray(thetas_deg, dtype=float))
    if alphas.shape != thetas.shape:
        raise ValueError("alphas and thetas must have matching lengths")
    h = np.zeros(n_antennas, dtype=complex)
    for a, t in zip(alphas, thetas):
        h += a * array_response(float(t), n_antennas, spacing)
    return h


def path_loss_amplitude(range_m: float) -> float:
    """Free-space amplitude gain, normalized to 1 at 1 m (power falls as 1/d^2)."""
    if range_m <= 0:
        raise ValueError("range must be positive")
    return 1.0 / range_m


def synthesize_channel(azimuth_deg: float, range_m: float, cfg: CommConfig,
                       seed: int = 0) -> np.ndarray:
    """Geometric channel to the comm user at `azimuth_deg` and `range_m`.

    Path 1 is line of sight: free-space amplitude at the user's range and
    a uniformly random phase. Additional paths (n_paths > 1) are scatter
    paths at random azimuths, 10 dB below the direct path.
    """
    if not -90.0 <= azimuth_deg <= 90.0:
        raise ValueError(f"comm user at azimuth {azimuth_deg:.1f} deg is behind the array")
    rng = child_rng(seed, "channel")
    amp = path_loss_amplitude(range_m)
    alphas = [amp * np.exp(2j * np.pi * rng.random())]
    thetas = [azimuth_deg]
    for _ in range(cfg.n_paths - 1):
        alphas.append(amp * 10 ** (-10 / 20) * np.exp(2j * np.pi * rng.random()))
        thetas.append(rng.uniform(-90.0, 90.0))
    return channel_from_paths(alphas, thetas, cfg.n_antennas, cfg.element_spacing)


def sweep_beams(
    h: np.ndarray, codebook: Codebook, cfg: CommConfig, seed: int = 0
) -> np.ndarray:
    """Measured per-beam receive powers during a beam sweep.

    Each beam's received symbol picks up independent complex Gaussian
    noise before the power measurement; with noise_var = 0 the sweep
    reduces to the beam gains tx_gain * |h^H f_b|^2.
    """
    y = math.sqrt(cfg.tx_gain) * (codebook.vectors @ h.conj())
    if cfg.noise_var > 0:
        rng = child_rng(seed, "sweep")
        scale = math.sqrt(cfg.noise_var / 2.0)
        y = y + scale * (rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape))
    return np.abs(y) ** 2


def optimal_beam(gains) -> int:
    """Index of the gain-maximizing beam; ties break toward the lowest index."""
    gains = np.asarray(gains)
    if gains.size == 0:
        raise ValueError("gains must be non-empty")
    return int(np.argmax(gains))
