"""Classical detection chain: FFT power cube, CFAR, DBSCAN, cluster summaries.

Processing order is range FFT, clutter cleaning (per-range-bin mean removal
across chirps), Doppler FFT, zero-padded angle FFT, squared magnitude. Cell
detections come from cell-averaging CFAR along the range axis; detected
cells are clustered with DBSCAN in bin units and each cluster becomes one
candidate object summarized by the mean of its members.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from isac_ident.radar_frontend import C0, RadarCube

DOPPLER_SLAB = 4  # Doppler bins per angle-FFT pass in process_cube


class DetectConfigError(ValueError):
    """Detection parameters are inconsistent with the data."""


@dataclass(frozen=True)
class DetectConfig:
    """CFAR and clustering parameters.

    cfar_floor_frac sets a minimum noise estimate as a fraction of the
    cube's peak cell power. Without it, a noise-free cube factorizes per
    slice and the scale-free CFAR ratio would flag the strongest range
    bins in every (angle, Doppler) slice; the floor keeps detections local
    while preserving invariance to scaling the whole cube.
    """

    cfar_train: int = 8
    cfar_guard: int = 2
    cfar_pfa: float = 1e-3
    dbscan_eps: float = 3.0       # in bin units
    dbscan_min_pts: int = 2
    angle_fft_size: int = 64
    cfar_floor_frac: float = 0.02

    def __post_init__(self):
        if not 0.0 < self.cfar_pfa < 1.0:
            raise ValueError("cfar_pfa must be in (0, 1)")
        if self.cfar_train < 1 or self.cfar_guard < 0:
            raise ValueError("cfar_train must be >= 1 and cfar_guard >= 0")
        if self.dbscan_eps <= 0 or self.dbscan_min_pts < 1:
            raise ValueError("dbscan_eps must be > 0 and dbscan_min_pts >= 1")
        if self.angle_fft_size < 1 or self.cfar_floor_frac < 0:
            raise ValueError("angle_fft_size must be >= 1 and cfar_floor_frac >= 0")


@dataclass(frozen=True)
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


def process_cube(cube: RadarCube, angle_fft_size: int = 64, clutter_clean: bool = True) -> PowerCube:
    """FFT pipeline from ADC cube to (angle, Doppler, range) power.

    The zero-padded angle FFT runs over DOPPLER_SLAB Doppler bins at a time,
    on a copy with the antenna axis last so that each transform reads and
    writes contiguous memory, and each slab's squared magnitude is written,
    angle-shifted, straight into `power`. Every transform and elementwise
    op sees the same numbers as `np.abs(fftshift(fft(x, axis=0)))**2` over
    the whole cube, and the shift is a permutation, so `power` equals that
    bit for bit without its two cube-sized complex intermediates.
    """
    cfg = cube.config
    x = np.fft.fft(cube.data, axis=2)                      # range
    if clutter_clean:
        x = x - x.mean(axis=1, keepdims=True)              # static clutter removal
    x = np.fft.fftshift(np.fft.fft(x, axis=1), axes=1)     # Doppler, zero centered
    x = np.ascontiguousarray(x.transpose(1, 2, 0))         # angle axis last and contiguous
    n_doppler, n_range = x.shape[:2]
    power = np.empty((angle_fft_size, n_doppler, n_range))
    shift = angle_fft_size // 2                            # fftshift along the angle axis
    for d0 in range(0, n_doppler, DOPPLER_SLAB):
        slab = np.abs(np.fft.fft(x[d0:d0 + DOPPLER_SLAB], n=angle_fft_size, axis=-1))
        slab *= slab
        slab = slab.transpose(2, 0, 1)
        power[shift:, d0:d0 + DOPPLER_SLAB] = slab[:angle_fft_size - shift]
        power[:shift, d0:d0 + DOPPLER_SLAB] = slab[angle_fft_size - shift:]

    range_axis = np.arange(cfg.n_samples) * cfg.range_bin_m
    doppler_hz = np.fft.fftshift(np.fft.fftfreq(cfg.n_chirps, d=cfg.chirp_interval_s))
    velocity_axis = doppler_hz * C0 / (2.0 * cfg.carrier_hz)
    u = np.fft.fftshift(np.fft.fftfreq(angle_fft_size)) / cfg.rx_spacing
    angle_axis = np.degrees(np.arcsin(np.clip(u, -1.0, 1.0)))
    return PowerCube(power=power, angle_deg=angle_axis,
                     velocity_mps=velocity_axis, range_m=range_axis)


def _sliding_training_means(power: np.ndarray, train: int, guard: int):
    """Yield, for each plane along the first axis, the mean over its leading
    and lagging training cells along the last axis.

    Windows are [i-guard-train, i-guard-1] and [i+guard+1, i+guard+train],
    truncated at the edges (one-sided at the extremes). The cumulative sum
    is padded with `guard + train` zeros on the left and as many copies of
    its total on the right, so each window edge is a shifted slice of it
    and the truncation needs no index clipping. Every plane is written into
    the same buffer: use each yielded array before asking for the next.
    """
    n = power.shape[-1]
    pad = guard + train
    cs = np.zeros(power.shape[1:-1] + (n + 1 + 2 * pad,))
    # cs[..., pad + k] holds the sum of the first k cells, k clamped to [0, n]
    body, tail = cs[..., pad + 1:pad + 1 + n], cs[..., pad + 1 + n:]
    lo_a, lo_b, hi_a, hi_b = (cs[..., k:k + n] for k in (0, train, pad + guard + 1, 2 * pad + 1))
    idx = np.arange(n)
    counts = ((np.clip(idx - guard, 0, n) - np.clip(idx - pad, 0, n))
              + (np.clip(idx + pad + 1, 0, n) - np.clip(idx + guard + 1, 0, n)))
    mean, upper = np.empty(power.shape[1:]), np.empty(power.shape[1:])
    for plane in power:
        np.cumsum(plane, axis=-1, out=body)
        tail[...] = body[..., -1:]
        np.subtract(lo_b, lo_a, out=mean)
        np.subtract(hi_b, hi_a, out=upper)
        mean += upper
        mean /= counts
        yield mean


def cfar_threshold_factor(n_train: int, pfa: float) -> float:
    """CA-CFAR scale factor alpha = N * (pfa^(-1/N) - 1)."""
    return n_train * (pfa ** (-1.0 / n_train) - 1.0)


def cfar_detect(pc: PowerCube, cfg: DetectConfig) -> np.ndarray:
    """Cell-averaging CFAR along the range axis of every (angle, Doppler) slice.

    Returns the flagged cells' (angle, Doppler, range) indices, shape (N, 3),
    in `np.argwhere` order. Works one angle plane at a time.
    """
    n_range = pc.power.shape[2]
    window = 2 * (cfg.cfar_train + cfg.cfar_guard) + 1
    if window > n_range:
        raise DetectConfigError(
            f"CFAR window of {window} cells exceeds range axis of {n_range} bins"
        )
    alpha = cfar_threshold_factor(2 * cfg.cfar_train, cfg.cfar_pfa)
    floor = cfg.cfar_floor_frac * pc.power.max()
    flagged = np.empty(pc.power.shape[1:], dtype=bool)
    hits = []
    means = _sliding_training_means(pc.power, cfg.cfar_train, cfg.cfar_guard)
    for a, (plane, threshold) in enumerate(zip(pc.power, means)):
        np.maximum(threshold, floor, out=threshold)
        threshold *= alpha
        np.greater(plane, threshold, out=flagged)
        hits.append(np.flatnonzero(flagged) + a * flagged.size)
    return np.column_stack(np.unravel_index(np.concatenate(hits), pc.power.shape))


def dbscan(points, eps: float, min_pts: int) -> np.ndarray:
    """Density clustering under Euclidean distance; returns a label per point.

    Noise is -1. Cluster ids are assigned in first-touch order: points are
    seeded in index order and clusters grow breadth-first, so the labeling
    is deterministic.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    labels = np.full(n, -1, dtype=int)
    if n == 0:
        return labels

    # Neighbor lists in index order, chunked to bound memory.
    neighbors: list[np.ndarray] = []
    chunk = 1024
    for start in range(0, n, chunk):
        block = pts[start:start + chunk]
        d2 = ((block[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        for row in d2:
            neighbors.append(np.flatnonzero(row <= eps * eps))

    visited = np.zeros(n, dtype=bool)
    cluster = 0
    for p in range(n):
        if visited[p]:
            continue
        visited[p] = True
        if len(neighbors[p]) < min_pts:
            continue  # noise unless later reached from a core point
        labels[p] = cluster
        queue = [int(q) for q in neighbors[p]]
        qi = 0
        while qi < len(queue):
            q = queue[qi]
            qi += 1
            if labels[q] == -1:
                labels[q] = cluster  # border or core, first touch wins
            if visited[q]:
                continue
            visited[q] = True
            if len(neighbors[q]) >= min_pts:
                queue.extend(int(x) for x in neighbors[q])
        cluster += 1
    return labels


def summarize_clusters(cells, labels, pc: PowerCube) -> list[Candidate]:
    """One candidate per cluster: unweighted mean of member-cell coordinates.

    `cells` holds (angle, Doppler, range) indices into `pc`, one row per
    label; a cluster's power is the sum of `pc.power` over its cells. Noise
    points are dropped; output is sorted by descending total power.
    """
    cells = np.asarray(cells, dtype=int)
    labels = np.asarray(labels)
    if len(labels) != len(cells):
        raise ValueError("labels must align with cells")
    out = []
    for cid in sorted(set(int(x) for x in labels) - {-1}):
        a, d, r = cells[labels == cid].T
        out.append(
            Candidate(
                range_m=float(pc.range_m[r].mean()),
                angle_deg=float(pc.angle_deg[a].mean()),
                vel_mps=float(pc.velocity_mps[d].mean()),
                n_points=len(a),
                power=float(pc.power[a, d, r].sum()),
            )
        )
    out.sort(key=lambda c: -c.power)
    return out


def detect_objects(cube: RadarCube, cfg: DetectConfig) -> list[Candidate]:
    """Full chain: power cube, CFAR cells, DBSCAN in bin units, summaries."""
    pc = process_cube(cube, angle_fft_size=cfg.angle_fft_size)
    cells = cfar_detect(pc, cfg)
    labels = dbscan(cells, cfg.dbscan_eps, cfg.dbscan_min_pts)
    return summarize_clusters(cells, labels, pc)


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
