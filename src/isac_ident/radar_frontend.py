"""FMCW IF-signal synthesis: the ADC cube of a scene, or its detector statistic.

The transmit side is a frame of linear up-chirps; mixing with the echo of
an object at range d yields an IF tone whose fast-time frequency encodes
range, whose chirp-to-chirp phase encodes Doppler, and whose antenna-to-
antenna phase encodes azimuth (stop-and-hop approximation).

`synthesize_frame` renders the complex ADC cube, which cube files and the
`detect` command carry (no dataset frame builds one); it sums the echoes of
all objects by one complex matrix product, so its values are the
closed-form tones up to the last-bit rounding of BLAS's complex
multiply-add. `sample_frame` draws what
detection reads of a noisy frame and nothing else: the antenna-summed
range-Doppler power map, one exact noncentral chi^2 draw per cell (a
Poisson mixture of central ones built from uniforms where the echo is
weak), and the per-antenna samples of the cells CFAR flags, on demand,
split along and across the echo by a von Mises-Fisher draw given the
map's value. Its echo power is one real matrix product over pairs of
objects, through their Gram matrix over the antennas. `simulate --mode
full` uses it; no cube, and no array of per-antenna spectra, is built: a
frame's map-sized arrays are the map and one plane of uniform draws. A
test checks that the samples `simulate` derives from it do not depend on
the BLAS thread count.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from isac_ident.scene import C0, SceneObject, check_finite_fields
from isac_ident.seeding import child_rng, child_seed

_CUBE_MAGIC = b"RCUB"
_CUBE_VERSION = 1
_CUBE_HEADER = struct.Struct("<4sIIII")                   # magic, version, dims


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
        check_finite_fields(self)
        if min(self.n_chirps, self.n_samples, self.n_rx) < 1:
            raise ValueError("chirp, sample and antenna counts must be >= 1")
        if self.slope_hz_per_s * self.chirp_duration_s <= 0:
            raise ValueError("swept bandwidth must be positive")
        if self.n_samples / self.sample_rate_hz > self.chirp_duration_s * (1 + 1e-9):
            raise ValueError("sampling window exceeds the chirp duration")
        if self.noise_floor < 0:
            raise ValueError("noise_floor must be non-negative")
        # sigma^2 and CFAR's row sums of the map must stay finite: a row sums
        # n_samples cells of mean noise power n_rx * noise_floor * n_chirps *
        # n_samples, which stays 2^10 below the largest float for the draws'
        # tails and the sums after CFAR
        limit = sys.float_info.max / 2 ** 10 / (float(self.n_rx) * self.n_chirps
                                                * self.n_samples * self.n_samples)
        if self.noise_floor > limit:
            raise ValueError(f"noise_floor {self.noise_floor!r} overflows the map's noise power "
                             f"at this profile (at most {limit!r})")

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
    tau = 2.0 * obj.range_m / C0
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
    (m, l, i) is antenna[k, m] * chirp[k, l] * fast[k, i]. Each factor is one
    `np.exp` over all objects, with the per-object scalars computed as
    `if_tone` computes them.
    """
    if not scene:
        raise ValueError("scene must contain at least one object")
    m = np.arange(cfg.n_rx)
    l = np.arange(cfg.n_chirps)
    i = np.arange(cfg.n_samples)
    tau, f_doppler, sin_az, reflectivity = np.array([
        (2.0 * obj.range_m / C0, 2.0 * obj.radial_velocity * cfg.carrier_hz / C0,
         math.sin(math.radians(obj.azimuth_deg)), obj.reflectivity)
        for obj in scene]).T[..., None]
    fast = np.exp(1j * (2.0 * math.pi * (
        cfg.slope_hz_per_s * tau * (i / cfg.sample_rate_hz) + cfg.carrier_hz * tau
        - 0.5 * cfg.slope_hz_per_s * tau * tau)))
    chirp = np.exp(1j * (2.0 * math.pi * f_doppler * l * cfg.chirp_interval_s))
    antenna = reflectivity * np.exp(1j * (2.0 * math.pi * cfg.rx_spacing * m * sin_az))
    return antenna, chirp, fast


def synthesize_frame(scene, cfg: RadarConfig, seed: int = 0) -> RadarCube:
    """Sum of per-object IF tones over the full cube plus circular Gaussian noise.

    The echo is one matrix product, (n_rx * n_chirps, K) slow-time phasors
    times (K, n_samples) fast-time ones. The noise, of power `noise_floor`
    per sample, comes from `child_rng(seed, "frame-noise")` one antenna
    plane at a time: every real part in C order, then every imaginary part.
    """
    antenna, chirp, fast = _phasors(scene, cfg)
    slow = antenna.T[:, None, :] * chirp.T[None, :, :]
    data = (slow.reshape(-1, len(fast)) @ fast).reshape(cfg.n_rx, cfg.n_chirps, cfg.n_samples)
    if cfg.noise_floor > 0:
        rng = child_rng(seed, "frame-noise")
        scale = math.sqrt(cfg.noise_floor / 2.0)
        draws = np.empty(data.shape[1:])
        for plane in (*data.real, *data.imag):
            rng.standard_normal(out=draws)
            draws *= scale
            plane += draws
    return RadarCube(data=data, config=cfg)


def _spectral_factors(scene, cfg: RadarConfig):
    """Per-object antenna, Doppler and range factors of a frame's range-Doppler spectra.

    Both FFTs are linear, so each echo's spectrum at (antenna m, Doppler bin
    d, range bin r) is antenna[k, m] * doppler[k, d] * fast[k, r]: its antenna
    phasor, the DFT of its mean-removed (static clutter removed) chirp
    phasor and the DFT of its fast-time phasor. Doppler is in FFT order.
    """
    antenna, chirp, fast = _phasors(scene, cfg)
    chirp -= chirp.mean(axis=1, keepdims=True)             # static clutter removal
    return antenna, np.fft.fft(chirp, axis=1), np.fft.fft(fast, axis=1)


# A map cell whose echo is at most _WEAK_ECHO sigma^2 is drawn as a Poisson
# mixture of central chi^2 laws, a stronger one as (|s| + sigma z)^2 +
# sigma^2 q. At 2, 2 sigma^2 U0 < 2 sigma^2 for every uniform U0 in [0, 1),
# so the cells whose echo exceeds 2 sigma^2 U0 (those that may need a
# Poisson count above 0) include every strong cell.
_WEAK_ECHO = 2.0
# Up to this many antennas a map cell's central chi^2 is -2 ln of a product
# of n_rx uniforms in (0, 1], no dearer than one `standard_gamma` draw
# (about 0.3 ms a factor against 2.5 ms on a 249 x 512 plane); each factor
# is at least 2^-53, so the product cannot underflow to 0.
_MAX_UNIFORM_FACTORS = 8


def _vmf_cosine(a: np.ndarray, var: float, p: int, rng):
    """Cosines w of von Mises-Fisher directions on the unit sphere of R^p, and 1 - w^2.

    Cell i's concentration is kappa = a[i] / var. Wood's sampler (Commun.
    Stat. Simul. Comput. 23, 1994) proposes W = (1 - (1 + b) Z) / (1 - (1 -
    b) Z) from Z ~ Beta((p - 1) / 2, (p - 1) / 2), with b = (p - 1) / (2
    kappa + sqrt(4 kappa^2 + (p - 1)^2)), and accepts it when kappa (W - x0)
    + (p - 1) ln((1 - x0 W) / (1 - x0^2)) >= ln U, x0 = (1 - b) / (1 + b).
    With Z = X / (X + Y), X and Y ~ Gamma((p - 1) / 2), that is

        W = (Y - b X) / (Y + b X),   1 - W^2 = 4 b X Y / (Y + b X)^2,
        2 kappa b (Y - X) / ((1 + b)(Y + b X))
            + (p - 1) ln((1 + b)(X + Y) / (2 (Y + b X))) >= ln U.

    b and kappa b are taken with var multiplied through, so neither
    overflows at huge kappa (tiny noise floors) nor divides by 0 at kappa =
    0, where b = 1 and W is the cosine of a uniform direction. Each round
    draws X, Y and then U for the cells still pending, in order.
    """
    m = p - 1.0
    den = 2.0 * a + np.hypot(2.0 * a, m * var)
    b, kb = m * var / den, m * a / den
    w, sin2 = np.empty(len(a)), np.empty(len(a))
    pending = np.arange(len(a))
    while pending.size:
        x = rng.standard_gamma(m / 2.0, pending.size)
        y = rng.standard_gamma(m / 2.0, pending.size)
        log_u = np.log1p(-rng.random(pending.size))       # ln U, U in (0, 1]
        bp = b[pending]
        yb = y + bp * x
        ok = (2.0 * kb[pending] * (y - x) / ((1.0 + bp) * yb)
              + m * np.log((1.0 + bp) * (x + y) / (2.0 * yb)) >= log_u)
        w[pending[ok]] = ((y - bp * x) / yb)[ok]
        sin2[pending[ok]] = (4.0 * bp * x * y / yb / yb)[ok]
        pending = pending[~ok]
    return w, sin2


def sample_frame(scene, cfg: RadarConfig, seed: int = 0):
    """A noisy frame as detection reads it: the power map and a reader of its cells.

    Returns (power, read_cells). `power` is the range-Doppler map summed
    over the antennas, shape (n_chirps, n_samples), Doppler in FFT order,
    Doppler bin 0 exactly 0 (as static clutter removal leaves it).
    `read_cells(d, r)` returns the complex antenna samples, shape (n_rx, N),
    at FFT Doppler bins `d` and range bins `r`; call it once, with the cells
    CFAR flags in CFAR order, and with `power` unchanged, since it splits
    the map's values.

    White noise stays white under the unnormalized DFT, so a cell is its
    echo s plus circular Gaussian noise of power P = noise_floor * n_chirps
    * n_samples: a vector x in R^(2 n_rx) ~ N(s, sigma^2 I), sigma^2 = P / 2.
    The map cell |x|^2 / sigma^2 is noncentral chi^2(2 n_rx, lambda), lambda
    = |s|^2 / sigma^2, and each cell takes one exact draw of it:
    - a weak cell, |s|^2 <= 2 sigma^2, as the Poisson mixture
      sigma^2 (chi^2(2 n_rx) + 2 Gamma(J)), J ~ Poisson(lambda / 2). A
      uniform U0 gives J by inversion (J > j exactly when U0 < P(J > j)),
      and chi^2(2 n_rx) is -2 ln of a product of n_rx uniforms in (0, 1]
      (one Gamma(n_rx) draw, doubled, above _MAX_UNIFORM_FACTORS antennas);
    - a strong cell as (|s| + sigma z)^2 + sigma^2 q, z ~ N(0, 1), q ~
      chi^2(2 n_rx - 1).
    The partition reads only the echo, compared with 2 sigma^2 in absolute
    units. `read_cells` splits a read cell of map value M into its part
    along s_hat = s / |s| and across it: given |x| = sqrt(M), the direction
    of x is von Mises-Fisher about s_hat with kappa = |s| sqrt(M) / sigma^2,
    so x = sqrt(M) w s_hat + sqrt(M (1 - w^2)) v, w the direction's cosine
    (`_vmf_cosine`) and v uniform on the unit sphere orthogonal to s_hat.
    Where |s| = 0, s_hat is the first axis (the real part of antenna 0).

    The draws come from an SFC64 generator on `child_seed(seed,
    "frame-noise")`, in this order: U0 over Doppler bins 1 and up in C
    order; the n_rx uniform planes (or the one Gamma(n_rx) plane); Gamma(J)
    at the weak cells with J > 0, z and then q at the strong cells, each in
    C order; and per `read_cells` call the vMF draws, then 2 n_rx normals
    per cell read. With `noise_floor` 0 nothing is drawn: the map is the
    echo power and the cells are the echo.

    The echo power sum_m |sum_k a_km D_kd F_kr|^2 is the real part of
    sum_kk' G_kk' D_kd D*_k'd F_kr F*_k'r with G = A A^H, the objects' Gram
    matrix over the antennas. The sum is Hermitian in (k, k'), so it is
    sum_k G_kk |D_kd|^2 |F_kr|^2 plus 2 Re of the k < k' terms: one real
    (n_chirps - 1, K^2) x (K^2, n_samples) matrix product, clamped at 0
    against rounding. The echo at a cell comes from the per-object factors.
    """
    power = np.empty((cfg.n_chirps, cfg.n_samples))
    power[0] = 0.0                                         # Doppler bin 0 stays 0
    antenna, doppler, fast = _spectral_factors(scene, cfg)
    g = antenna @ antenna.conj().T                         # G = A A^H
    i, j = np.triu_indices(len(antenna), 1)                # the pairs k < k'
    slow = doppler[:, 1:].T
    p = g[i, j] * slow[:, i] * slow[:, j].conj()           # P_kk'(d) = G_kk' D_kd D*_k'd
    q = fast[i] * fast[j].conj()                           # Q_kk'(r) = F_kr F*_k'r
    lhs = np.hstack([g.diagonal().real * (slow.real ** 2 + slow.imag ** 2),
                     2.0 * p.real, -2.0 * p.imag])
    rhs = np.vstack([fast.real ** 2 + fast.imag ** 2, q.real, q.imag])
    echo = power[1:]
    np.matmul(lhs, rhs, out=echo)
    np.maximum(echo, 0.0, out=echo)                        # no rounding-negative cell for sqrt

    def echo_cells(d, r):
        return antenna.T @ (doppler[:, d] * fast[:, r])

    if cfg.noise_floor == 0:
        return power, echo_cells

    rng = np.random.Generator(np.random.SFC64(child_seed(seed, "frame-noise")))
    var = cfg.noise_floor * cfg.n_chirps * cfg.n_samples / 2.0     # sigma^2 per real axis
    # P(J > 0) = 1 - exp(-lambda / 2) < lambda / 2, so J > 0 needs
    # 2 sigma^2 U0 < |s|^2; those few cells hold every strong one too
    u0 = rng.random(echo.shape)
    u0 *= 2.0 * var
    flat = echo.reshape(-1)
    cells = np.flatnonzero(u0 < echo)
    is_strong = flat[cells] > _WEAK_ECHO * var
    weak, strong = cells[~is_strong], cells[is_strong]
    amp = np.sqrt(flat[strong])
    mu = flat[weak] / (2.0 * var)                          # lambda / 2 <= 1
    u = u0.reshape(-1)[weak] / (2.0 * var)
    n_extra = np.zeros(len(weak), dtype=np.int64)          # J, by inversion
    term, tail = np.exp(-mu), -np.expm1(-mu)               # P(J = j), P(J > j) at j = 0
    more = u < tail
    k = 0
    while more.any():
        k += 1
        n_extra += more
        term *= mu / k
        tail -= term
        more &= (u < tail) & (term > 0)
    if cfg.n_rx > _MAX_UNIFORM_FACTORS:
        rng.standard_gamma(cfg.n_rx, out=echo)             # chi^2(2 n_rx) / 2
        echo *= 2.0 * var
    else:
        rng.random(out=echo)
        np.subtract(1.0, echo, out=echo)
        for _ in range(cfg.n_rx - 1):
            rng.random(out=u0)
            np.subtract(1.0, u0, out=u0)
            echo *= u0
        np.log(echo, out=echo)
        echo *= -2.0 * var                                 # sigma^2 chi^2(2 n_rx)
    extra = n_extra > 0
    flat[weak[extra]] += 2.0 * var * rng.standard_gamma(n_extra[extra])
    z = rng.standard_normal(len(strong))
    flat[strong] = (amp + math.sqrt(var) * z) ** 2
    flat[strong] += 2.0 * var * rng.standard_gamma(cfg.n_rx - 0.5, len(strong))

    def read_cells(d, r):
        # (N, 2 n_rx) real vectors: re and im of each antenna in turn
        x = np.ascontiguousarray(echo_cells(d, r).T).view(float)
        norm = np.hypot.reduce(x, axis=1, keepdims=True)   # |s|, without underflow
        s_hat = np.zeros_like(x)
        s_hat[:, 0] = 1.0
        np.divide(x, norm, out=s_hat, where=norm > 0)
        m = power[d, r]
        root = np.sqrt(m)
        w, sin2 = _vmf_cosine(norm[:, 0] * root, var, x.shape[1], rng)
        v = rng.standard_normal(x.shape)
        v -= s_hat * (v * s_hat).sum(axis=1, keepdims=True)
        v /= np.sqrt((v * v).sum(axis=1, keepdims=True))
        v *= np.sqrt(m * sin2)[:, None]
        v += (root * w)[:, None] * s_hat
        return v.view(complex).T

    return power, read_cells


def save_cube(cube: RadarCube, path) -> None:
    """Write a cube: 'RCUB' magic, version, dims, then each sample as one
    complex64, its float32 re/im pair. A value that float32 cannot hold is
    refused before the file is opened, as `load_cube` would refuse it."""
    with np.errstate(over="ignore"):
        data = cube.data.astype("<c8")
    n_bad = data.size * 2 - int(np.isfinite(data.view("<f4")).sum())
    if n_bad:
        raise CubeFormatError(f"{path}: {n_bad} sample values are not finite in float32")
    with open(path, "wb") as fh:
        fh.write(_CUBE_HEADER.pack(_CUBE_MAGIC, _CUBE_VERSION, *data.shape))
        data.tofile(fh)


def load_cube(path, cfg: RadarConfig) -> RadarCube:
    """Read a cube written by save_cube; dims must match the given config."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _CUBE_HEADER.size:
        raise CubeFormatError(f"{path}: truncated header")
    magic, version, n_rx, n_chirps, n_samples = _CUBE_HEADER.unpack_from(raw)
    if magic != _CUBE_MAGIC:
        raise CubeFormatError(f"{path}: bad magic {magic!r}")
    if version != _CUBE_VERSION:
        raise CubeFormatError(f"{path}: unsupported version {version}")
    if (n_rx, n_chirps, n_samples) != (cfg.n_rx, cfg.n_chirps, cfg.n_samples):
        raise CubeFormatError(
            f"{path}: cube dims ({n_rx}, {n_chirps}, {n_samples}) do not match config"
        )
    n_values = n_rx * n_chirps * n_samples * 2
    if len(raw) - _CUBE_HEADER.size != 4 * n_values:
        raise CubeFormatError(f"{path}: expected {4 * n_values} bytes of float32 pairs, "
                              f"found {len(raw) - _CUBE_HEADER.size}")
    payload = np.frombuffer(raw, dtype="<f4", offset=_CUBE_HEADER.size)
    n_bad = payload.size - int(np.isfinite(payload).sum())
    if n_bad:
        raise CubeFormatError(f"{path}: {n_bad} non-finite sample values")
    # each re/im pair is one complex64, widened exactly in one pass
    data = payload.view("<c8").reshape(n_rx, n_chirps, n_samples).astype(complex)
    return RadarCube(data=data, config=cfg)
