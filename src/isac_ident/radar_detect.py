"""Classical detection chain: range-Doppler map, CFAR, angle FFT, DBSCAN.

Processing order is range FFT, clutter cleaning (per-range-bin mean removal
across chirps) and Doppler FFT per antenna, whose bin 0 is then set to
exactly 0, then the squared magnitude summed over the antennas into one
range-Doppler map. `detect_map` runs the chain from that map on, reading
per-antenna samples only at the cells CFAR flags: `detect_objects` feeds it
the map and the spectra of an ADC cube, and full-mode datasets feed it what
`radar_frontend.sample_frame` draws, so that path runs no FFT over a cube.
Cell-averaging CFAR (`cfar_flags`) runs along the range axis of the map,
with its threshold calibrated for a sum of `n_rx` exponentials,
CFAR_BLOCK_ROWS Doppler rows at a time, so no array the size of the map is
allocated beside it. The zero-padded angle FFT runs only at the flagged
cells, over their `n_rx` antenna samples, and each cell keeps the angle
bins of its main lobe. The resulting (angle, Doppler, range) cells are
clustered with DBSCAN in bin units and each cluster becomes one candidate
object summarized by the mean of its members.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from isac_ident.radar_frontend import C0, RadarConfig, RadarCube
from isac_ident.scene import check_finite_fields

MAIN_LOBE_DB = 3.0  # a flagged cell keeps the angle bins within this many dB of its peak
# CFAR thresholds this many range rows per pass, so its arrays stay small
CFAR_BLOCK_ROWS = 32
# DBSCAN pairs this many points with all the others per pass
DBSCAN_CHUNK_ROWS = 64


class DetectConfigError(ValueError):
    """Detection parameters are inconsistent with the data."""


@dataclass(frozen=True)
class DetectConfig:
    """CFAR and clustering parameters.

    cfar_pfa is the false-alarm rate per cell of the range-Doppler map, whose
    noise cells are sums of `n_rx` exponentials (one per antenna); the CFAR
    scale factor is calibrated for that sum. cfar_floor_frac sets a minimum
    noise estimate as a fraction of the map's peak cell power. Without it, a
    noise-free map factorizes and the scale-free CFAR ratio would flag the
    strongest range bins in every Doppler row; the floor keeps detections
    local while preserving invariance to scaling the whole cube.
    """

    cfar_train: int = 8
    cfar_guard: int = 2
    cfar_pfa: float = 1e-3
    dbscan_eps: float = 3.0       # in bin units
    dbscan_min_pts: int = 2
    angle_fft_size: int = 64
    cfar_floor_frac: float = 0.02

    def __post_init__(self):
        check_finite_fields(self)
        if not 0.0 < self.cfar_pfa < 1.0:
            raise ValueError("cfar_pfa must be in (0, 1)")
        if self.cfar_train < 1 or self.cfar_guard < 0:
            raise ValueError("cfar_train must be >= 1 and cfar_guard >= 0")
        if self.dbscan_eps <= 0 or self.dbscan_min_pts < 1:
            raise ValueError("dbscan_eps must be > 0 and dbscan_min_pts >= 1")
        if self.angle_fft_size < 1 or self.cfar_floor_frac < 0:
            raise ValueError("angle_fft_size must be >= 1 and cfar_floor_frac >= 0")


@dataclass(frozen=True, slots=True)
class Candidate:
    """Detected-object summary: range, azimuth and Doppler velocity."""

    range_m: float
    angle_deg: float
    vel_mps: float
    n_points: int = 1
    power: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.range_m < math.inf:
            raise ValueError("candidate range must be finite and non-negative")
        if not -90.0 <= self.angle_deg <= 90.0:
            raise ValueError("candidate angle must be within [-90, 90] deg")
        if not math.isfinite(self.vel_mps):
            raise ValueError("candidate velocity must be finite")


@dataclass(frozen=True)
class PowerCube:
    """Detection power tensor (angle, Doppler, range) with physical axis maps."""

    power: np.ndarray        # (A, D, R) non-negative
    angle_deg: np.ndarray    # (A,)
    velocity_mps: np.ndarray  # (D,)
    range_m: np.ndarray      # (R,)

    def __post_init__(self):
        a, d, r = self.power.shape
        if (len(self.angle_deg), len(self.velocity_mps), len(self.range_m)) != (a, d, r):
            raise ValueError("axis lengths do not match the power tensor")


def _range_doppler(cube: RadarCube, clutter_clean: bool = True) -> np.ndarray:
    """Per-antenna range-Doppler spectra, shape (n_rx, D, R), Doppler not shifted.

    Range FFT over the whole cube, optional static clutter removal
    (per-range-bin mean across chirps) and Doppler FFT in place. Clutter
    removal leaves Doppler bin 0 holding only rounding residue, which an
    unfloored CFAR would flag, so that bin is then set to exactly 0; every
    other bin keeps the bits of the mean-removed FFT.
    """
    x = np.fft.fft(cube.data, axis=2)                      # range
    if clutter_clean:
        x -= x.mean(axis=1, keepdims=True)                 # static clutter removal
    np.fft.fft(x, axis=1, out=x)                           # Doppler
    if clutter_clean:
        x[:, 0] = 0.0
    return x


def _angle_axis(cfg: RadarConfig, angle_fft_size: int) -> np.ndarray:
    """Azimuth in degrees of each shifted bin of the zero-padded angle FFT."""
    u = np.fft.fftshift(np.fft.fftfreq(angle_fft_size)) / cfg.rx_spacing
    return np.degrees(np.arcsin(np.clip(u, -1.0, 1.0)))


def _velocity_axis(cfg: RadarConfig) -> np.ndarray:
    """Radial velocity of each shifted Doppler bin."""
    doppler_hz = np.fft.fftshift(np.fft.fftfreq(cfg.n_chirps, d=cfg.chirp_interval_s))
    return doppler_hz * C0 / (2.0 * cfg.carrier_hz)


@functools.lru_cache(maxsize=16)
def _map_axes(cfg: RadarConfig, angle_fft_size: int):
    """Angle, velocity and range axes of `detect_map`'s points and `process_cube`'s cube.

    Built once per profile: every frame of a dataset asks for the same axes,
    so they are cached, and read-only so that no caller can change them for
    the next.
    """
    axes = (_angle_axis(cfg, angle_fft_size), _velocity_axis(cfg),
            np.arange(cfg.n_samples) * cfg.range_bin_m)
    for axis in axes:
        axis.flags.writeable = False
    return axes


def antenna_power(spectra: np.ndarray) -> np.ndarray:
    """The sum over antennas of |x|^2 of per-antenna spectra (n_rx, D, R), one plane at a time."""
    power = np.zeros(spectra.shape[1:])
    for x in spectra:
        power += x.real ** 2
        power += x.imag ** 2
    return power


def _angle_power(x: np.ndarray, angle_fft_size: int) -> np.ndarray:
    """|zero-padded FFT|^2 along antenna axis 0, angle axis centered.

    An FFT shorter than the antenna count would crop antennas, so it is
    rejected.
    """
    if angle_fft_size < len(x):
        raise DetectConfigError(
            f"angle FFT of {angle_fft_size} points is shorter than the {len(x)} antennas"
        )
    power = np.abs(np.fft.fft(x, n=angle_fft_size, axis=0))
    power *= power
    return np.fft.fftshift(power, axes=0)


def process_cube(cube: RadarCube, angle_fft_size: int = 64, clutter_clean: bool = True) -> PowerCube:
    """FFT pipeline from ADC cube to the whole (angle, Doppler, range) power cube.

    Not in the detection path: `detect_objects` runs the angle FFT only at
    the cells CFAR flags on the range-Doppler map. This cube serves
    inspection and tests only. It is built in one pass, so at the default
    profile its working set peaks at about 200 MB.
    """
    x = np.fft.fftshift(_range_doppler(cube, clutter_clean), axes=1)  # Doppler, zero centered
    return PowerCube(_angle_power(x, angle_fft_size), *_map_axes(cube.config, angle_fft_size))


def _n_look_pfa(r: float, m: int, n: int) -> float:
    """P(X > r S) for independent X ~ Gamma(n, 1) and S ~ Gamma(m n, 1), r > 0.

    X is a noise cell summed over n looks and S the sum of its m training
    cells, so this is the false-alarm rate of CA-CFAR at alpha = m r.
    """
    mn = m * n
    return sum(math.comb(mn + k - 1, k) * math.exp(k * math.log(r) - (mn + k) * math.log1p(r))
               for k in range(n))


@functools.lru_cache(maxsize=64)
def cfar_threshold_factor(n_train: int, pfa: float, n_looks: int = 1) -> float:
    """CA-CFAR scale factor alpha for cells that are sums of `n_looks` exponentials.

    One look has the closed form alpha = N * (pfa^(-1/N) - 1). More looks
    solve pfa = sum_{k<n} C(Nn+k-1, k) r^k / (1+r)^(Nn+k), r = alpha/N, by
    bisection on r; the right side falls monotonically from 1 at r = 0.
    Results are cached, since every frame asks for the same factor.
    """
    if n_looks == 1:
        return n_train * (pfa ** (-1.0 / n_train) - 1.0)
    lo, hi = 0.0, 1.0
    while _n_look_pfa(hi, n_train, n_looks) > pfa:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return n_train * hi
        if _n_look_pfa(mid, n_train, n_looks) > pfa:
            lo = mid
        else:
            hi = mid


def cfar_flags(power: np.ndarray, cfg: DetectConfig, n_looks: int = 1) -> np.ndarray:
    """Flat C-order indices of the cells of `power` above their CA-CFAR threshold.

    CFAR runs along the last (range) axis. A cell's threshold is alpha *
    max(mean of its training cells, cfar_floor_frac * peak of `power`), with
    alpha from `cfar_threshold_factor` for sums of `n_looks` exponentials.
    The training windows are [i-guard-train, i-guard-1] and [i+guard+1,
    i+guard+train], truncated at the edges (one-sided at the extremes). The
    thresholds are computed CFAR_BLOCK_ROWS range rows at a time, so the
    working set stays small however large `power` is.
    """
    train, guard = cfg.cfar_train, cfg.cfar_guard
    n = power.shape[-1]
    pad = train + guard
    if 2 * pad + 1 > n:
        raise DetectConfigError(
            f"CFAR window of {2 * pad + 1} cells exceeds range axis of {n} bins"
        )
    alpha = cfar_threshold_factor(2 * train, cfg.cfar_pfa, n_looks)
    floor = cfg.cfar_floor_frac * power.max()
    rows = power.reshape(-1, n)
    idx = np.arange(n)
    counts = ((np.clip(idx - guard, 0, n) - np.clip(idx - pad, 0, n))
              + (np.clip(idx + pad + 1, 0, n) - np.clip(idx + guard + 1, 0, n)))

    def block_flags(start):
        # one block's arrays are freed before the next block's are made
        block = rows[start:start + CFAR_BLOCK_ROWS]
        # cs[:, pad + k] holds the sum of a row's first k cells, k clamped to
        # [0, n], so each window edge is a shifted slice and truncation needs
        # no clipping
        cs = np.zeros((len(block), n + 1 + 2 * pad))
        np.cumsum(block, axis=-1, out=cs[:, pad + 1:pad + 1 + n])
        cs[:, pad + 1 + n:] = cs[:, pad + n:pad + n + 1]
        lo_a, lo_b, hi_a, hi_b = (cs[:, k:k + n] for k in (0, train, pad + guard + 1, 2 * pad + 1))
        threshold = (lo_b - lo_a) + (hi_b - hi_a)
        threshold /= counts
        np.maximum(threshold, floor, out=threshold)
        threshold *= alpha
        return np.flatnonzero(block > threshold) + start * n

    return np.concatenate([block_flags(start) for start in range(0, len(rows), CFAR_BLOCK_ROWS)])


def cfar_detect(pc: PowerCube, cfg: DetectConfig, n_looks: int = 1) -> np.ndarray:
    """Cell-averaging CFAR along the range axis of every (angle, Doppler) slice.

    The scale factor holds `cfg.cfar_pfa` for noise cells that are sums of
    `n_looks` exponentials (the antenna count for a range-Doppler map); the
    flags are `cfar_flags`'. Returns the flagged cells' (angle, Doppler,
    range) indices, shape (N, 3), in `np.argwhere` order.
    """
    return np.column_stack(np.unravel_index(cfar_flags(pc.power, cfg, n_looks), pc.power.shape))


def dbscan(points, eps: float, min_pts: int) -> np.ndarray:
    """Density clustering under Euclidean distance; returns a label per point.

    Noise is -1. The labels are those of seeding clusters in index order and
    growing them breadth-first, first touch winning:
    - a point is core when it has at least `min_pts` neighbours within
      `eps`, itself included;
    - clusters are the connected components of the core points under the
      `eps` relation, numbered in the order of their lowest core index;
    - a border point, one that is not core but lies within `eps` of a core
      point, takes the lowest cluster id among its core neighbours.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    labels = np.full(n, -1, dtype=int)
    if n == 0:
        return labels

    # Neighbour pairs (i, j), both directions, as flat indices i * n + j,
    # DBSCAN_CHUNK_ROWS rows of i at a time, each chunk's distances freed
    # before the next's are made. The squared differences are summed
    # coordinate by coordinate, in order.
    cols = np.ascontiguousarray(pts.T)

    def chunk_pairs(start):
        d2 = cols[:, start:start + DBSCAN_CHUNK_ROWS, None] - cols[:, None, :]
        d2 *= d2
        return np.flatnonzero(d2.sum(axis=0) <= eps * eps) + start * n

    pairs = np.concatenate([chunk_pairs(start) for start in range(0, n, DBSCAN_CHUNK_ROWS)])
    src, dst = np.divmod(pairs, n)
    core = np.bincount(src, minlength=n) >= min_pts

    # Components of the core-core pairs: hook each root onto the lowest root
    # it is paired with, then jump pointers until every point points at a
    # root. comp[p] <= p throughout, so each root is its component's lowest
    # index.
    both = core[src] & core[dst]
    a, b = src[both], dst[both]
    comp = np.arange(n)
    while True:
        np.minimum.at(comp, comp[a], comp[b])
        while True:
            up = comp[comp]
            if np.array_equal(up, comp):
                break
            comp = up
        if np.array_equal(comp[a], comp[b]):
            break
    roots = np.flatnonzero(core & (comp == np.arange(n)))
    labels[core] = np.searchsorted(roots, comp[core])

    # Border points: the lowest cluster id among their core neighbours.
    reach = ~core[src] & core[dst]
    border = np.full(n, n)
    np.minimum.at(border, src[reach], labels[dst[reach]])
    hit = border < n
    labels[hit] = border[hit]
    return labels


def summarize_clusters(cells, labels, power, angle_deg, velocity_mps,
                       range_m) -> list[Candidate]:
    """One candidate per cluster: unweighted mean of member-cell coordinates.

    `cells` holds (angle, Doppler, range) indices into the three axis arrays
    and `power` each cell's power, one row and one value per label; a
    cluster's power is the sum of its cells' powers. Noise points are
    dropped; output is sorted by descending total power.
    """
    cells = np.asarray(cells, dtype=int)
    labels = np.asarray(labels)
    power = np.asarray(power, dtype=float)
    if not len(labels) == len(cells) == len(power):
        raise ValueError("labels and powers must align with cells")
    out = []
    for cid in sorted(set(int(x) for x in labels) - {-1}):
        members = labels == cid
        a, d, r = cells[members].T
        out.append(
            Candidate(
                range_m=float(range_m[r].mean()),
                angle_deg=float(angle_deg[a].mean()),
                vel_mps=float(velocity_mps[d].mean()),
                n_points=len(a),
                power=float(power[members].sum()),
            )
        )
    out.sort(key=lambda c: -c.power)
    return out


def detect_map(power: np.ndarray, read_cells, radar_cfg: RadarConfig,
               cfg: DetectConfig) -> list[Candidate]:
    """Candidates from a range-Doppler map: CFAR, angle FFT at flagged cells, DBSCAN.

    `power` is the antenna-summed map, shaped (n_chirps, n_samples), Doppler
    in FFT order; `read_cells(d, r)` returns the (n_rx, N) complex antenna
    samples at FFT Doppler bins `d` and range bins `r`, and is called once,
    with the flagged cells in CFAR order: row-major on the map with Doppler
    zero centered.
    CFAR runs along the range axis of the map itself, its threshold
    calibrated for `n_rx` looks (`cfar_flags`). At each flagged cell
    the zero-padded angle FFT of its antenna samples gives an angle
    spectrum, and the bins within MAIN_LOBE_DB of its peak become (angle,
    Doppler, range) points carrying that spectrum's power. Keeping the main
    lobe keeps a cluster several points large; the angle sidelobes, which
    would cluster into ghost objects, are never points.
    """
    expected = (radar_cfg.n_chirps, radar_cfg.n_samples)
    if power.shape != expected:
        raise ValueError(f"map shape {power.shape} != config shape {expected}")
    n_d, n = power.shape
    flags = cfar_flags(power, cfg, radar_cfg.n_rx)
    # CFAR rows are independent, so the flags of the zero-centered map are
    # these; its row-major order is a rotation of theirs that starts at the
    # first flag in row n_d - n_d // 2, Doppler bin 0 once centered
    flags = np.roll(flags, -np.searchsorted(flags, (n_d - n_d // 2) * n))
    d, r = np.divmod(flags, n)
    centered = (d + n_d // 2) % n_d
    spec = _angle_power(read_cells(d, r), cfg.angle_fft_size).T  # (cells, angle bins)
    lobe = spec >= spec.max(axis=1, keepdims=True) * 10.0 ** (-MAIN_LOBE_DB / 10.0)
    k, a = np.divmod(np.flatnonzero(lobe), lobe.shape[1])
    points = np.column_stack((a, centered[k], r[k]))
    labels = dbscan(points, cfg.dbscan_eps, cfg.dbscan_min_pts)
    return summarize_clusters(points, labels, spec[k, a],
                              *_map_axes(radar_cfg, cfg.angle_fft_size))


def detect_objects(cube: RadarCube, cfg: DetectConfig) -> list[Candidate]:
    """Full chain from an ADC cube: range and Doppler FFTs, then `detect_map`."""
    spectra = _range_doppler(cube)
    return detect_map(antenna_power(spectra), lambda d, r: spectra[:, d, r], cube.config, cfg)


def write_candidates(rows, path) -> None:
    """Delimited candidate lists: one line per candidate, keyed by sample id."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("sample_id,k,range_m,angle_deg,vel_mps,power,n_points\n")
        for sample_id, candidates in rows:
            for k, c in enumerate(candidates):
                fh.write(
                    f"{sample_id},{k},{c.range_m!r},{c.angle_deg!r},"
                    f"{c.vel_mps!r},{c.power!r},{c.n_points}\n"
                )
