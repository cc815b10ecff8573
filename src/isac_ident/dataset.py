"""Synthetic labeled datasets: drive-through sequences of candidate lists.

Each sequence is one pass of the communication user (a vehicle) along a
road in front of the basestation, sampled at a fixed frame rate. Every
sample carries the detected candidate objects, the serving beam found by
sweeping the codebook against the synthesized channel, and the index of
the user among the candidates.

Fast mode synthesizes candidate states directly from the ground-truth
kinematics plus configured angle errors; full mode renders each sample
as an FMCW frame, runs the detection chain, and labels the candidate
nearest the ground truth.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from isac_ident.radar_detect import Candidate, DetectConfig, detect_objects
from isac_ident.radar_frontend import RadarConfig, synthesize_frame
from isac_ident.scene import (
    CommConfig,
    SceneObject,
    dft_codebook,
    optimal_beam,
    sweep_beams,
    synthesize_channel,
)
from isac_ident.seeding import child_rng
from isac_ident.solvers import Sample


class GenerationError(ValueError):
    """Scenario produced no usable samples (e.g. user outside the field of view)."""


class SampleFormatError(ValueError):
    """Sample file is malformed."""


SAMPLE_HEADER = "sample_id,sequence_id,K_t,k,range_m,angle_deg,vel_mps,power,b_star,label_k"


@dataclass(frozen=True)
class ScenarioConfig:
    """Scene-level knobs for synthetic data generation."""

    n_sequences: int = 20
    samples_per_sequence: tuple[int, int] = (80, 120)
    candidates_range: tuple[int, int] = (1, 6)   # K_t min/max, user included
    misalignment_deg: float = 5.0                # radar-vs-comm mount offset
    angle_noise_deg: float = 1.5
    distortion_deg: float = 3.0                  # nonlinear angle distortion amplitude
    frame_rate_hz: float = 9.0
    seed: int = 0

    def __post_init__(self):
        if self.n_sequences < 1:
            raise ValueError("n_sequences must be >= 1")
        lo, hi = self.samples_per_sequence
        if lo < 1 or hi < lo:
            raise ValueError("samples_per_sequence must be a non-empty range")
        kmin, kmax = self.candidates_range
        if kmin < 1 or kmax < kmin:
            raise ValueError("candidates_range must be a non-empty range with min >= 1")
        if self.angle_noise_deg < 0 or self.distortion_deg < 0:
            raise ValueError("noise and distortion amplitudes must be non-negative")
        if self.frame_rate_hz <= 0:
            raise ValueError("frame_rate_hz must be positive")


@dataclass(frozen=True)
class TrafficModel:
    """Kinematic priors for the user and the decoy objects around it.

    The deployment is one road at a fixed standoff in front of the array;
    sequences differ in lane, direction and crossing speed. Decoys keep a
    minimum angular separation from the user so that in a noise-free
    scenario the beam quantization error can never make a decoy the
    angle-nearest candidate.
    """

    road_standoff_m: float = 40.0
    lane_halfwidth_m: float = 4.0
    max_user_azimuth_deg: float = 50.0
    max_user_speed_mps: float = 14.0
    # decoy classes: pedestrians on the sidewalks, static-ish objects off the
    # road corridor, and other vehicles on the road itself. Pedestrians and
    # off-corridor objects may come close in angle (their state gives them
    # away); road vehicles keep a larger angular gap, reflecting along-road
    # vehicle exclusion distances
    p_pedestrian: float = 0.40
    p_off_corridor: float = 0.35
    near_sep_deg: tuple[float, float] = (4.0, 7.0)
    vehicle_sep_deg: tuple[float, float] = (10.0, 18.0)
    sidewalk_offset_m: tuple[float, float] = (6.0, 14.0)
    pedestrian_speed_mps: tuple[float, float] = (0.3, 1.5)
    off_corridor_offset_m: tuple[float, float] = (15.0, 80.0)
    vehicle_speed_mps: tuple[float, float] = (6.0, 14.0)
    range_noise_m: float = 0.3
    vel_noise_mps: float = 0.15
    # share of the angle-error budget that rides on Doppler velocity: the
    # moving-target processing skews angle estimates of fast movers, which
    # state-aware solvers can learn away but angle-only mappings cannot
    angle_noise_vel_coupling: float = 0.6
    vel_coupling_ref_mps: float = 5.0


DEFAULT_TRAFFIC = TrafficModel()


@dataclass(frozen=True)
class DatasetSplit:
    train: list
    test: list


def _angle_distortion(theta_deg: float, amplitude_deg: float) -> float:
    """Smooth nonlinear warp of the azimuth map, one-and-a-half cycles across the FOV."""
    return amplitude_deg * math.sin(math.radians(3.0 * theta_deg))


def _radar_angle(theta_deg: float, radial_vel: float, cfg: ScenarioConfig,
                 traffic: TrafficModel, rng) -> float:
    psi = (
        theta_deg
        + cfg.misalignment_deg
        + _angle_distortion(theta_deg, cfg.distortion_deg)
    )
    if cfg.angle_noise_deg > 0:
        rho = traffic.angle_noise_vel_coupling
        psi += cfg.angle_noise_deg * (
            math.sqrt(1.0 - rho * rho) * rng.normal()
            + rho * radial_vel / traffic.vel_coupling_ref_mps
        )
    return float(np.clip(psi, -90.0, 90.0))


@dataclass(frozen=True)
class _GroundTruth:
    """Per-sample user kinematics in the comm frame."""

    theta_deg: float      # comm-frame azimuth
    range_m: float
    radial_vel: float     # closing positive
    speed: float
    direction: int


def _sequence_truths(cfg: ScenarioConfig, traffic: TrafficModel, rng) -> list[_GroundTruth]:
    n = int(rng.integers(cfg.samples_per_sequence[0], cfg.samples_per_sequence[1] + 1))
    direction = 1 if rng.random() < 0.5 else -1
    standoff = traffic.road_standoff_m + float(
        rng.uniform(-traffic.lane_halfwidth_m, traffic.lane_halfwidth_m))
    # one pass crosses the field of view in n frames; short sequences cover a
    # partial pass centered on boresight instead of driving absurdly fast
    full_span = 2.0 * standoff * math.tan(math.radians(traffic.max_user_azimuth_deg))
    speed = min(full_span * cfg.frame_rate_hz / max(n - 1, 1),
                traffic.max_user_speed_mps)
    span = speed * (n - 1) / cfg.frame_rate_hz
    x0 = -direction * span / 2.0
    truths = []
    for t in range(n):
        x = x0 + direction * speed * t / cfg.frame_rate_hz
        r = math.hypot(x, standoff)
        truths.append(_GroundTruth(
            theta_deg=math.degrees(math.atan2(x, standoff)),
            range_m=r,
            radial_vel=-(x * direction * speed) / r,
            speed=speed,
            direction=direction,
        ))
    return truths


def _decoy_state(gt: _GroundTruth, traffic: TrafficModel, rng):
    """Ground-truth comm-frame state (theta, range, radial velocity) of one decoy."""
    side = 1 if rng.random() < 0.5 else -1
    kind = rng.random()
    if kind < traffic.p_pedestrian:
        # sidewalk walker: close in angle, but off the road corridor and slow
        theta = gt.theta_deg + side * rng.uniform(*traffic.near_sep_deg)
        theta = float(np.clip(theta, -88.0, 88.0))
        standoff = traffic.road_standoff_m + rng.uniform(*traffic.sidewalk_offset_m) * (
            1 if rng.random() < 0.5 else -1)
        r = standoff / max(math.cos(math.radians(theta)), 0.05)
        v = rng.uniform(*traffic.pedestrian_speed_mps) * (1 if rng.random() < 0.5 else -1)
    elif kind < traffic.p_pedestrian + traffic.p_off_corridor:
        # parked lot / cross-street object well off the user's range corridor
        theta = gt.theta_deg + side * rng.uniform(*traffic.near_sep_deg)
        theta = float(np.clip(theta, -88.0, 88.0))
        offset = rng.uniform(*traffic.off_corridor_offset_m)
        r = gt.range_m + (offset if rng.random() < 0.5 else -offset)
        v = rng.uniform(*traffic.vehicle_speed_mps) * (1 if rng.random() < 0.5 else -1)
    else:
        # another vehicle on the road, ahead/behind or oncoming
        theta = gt.theta_deg + side * rng.uniform(*traffic.vehicle_sep_deg)
        theta = float(np.clip(theta, -88.0, 88.0))
        standoff = traffic.road_standoff_m + rng.uniform(-traffic.lane_halfwidth_m,
                                                         traffic.lane_halfwidth_m)
        r = standoff / max(math.cos(math.radians(theta)), 0.05)
        x = standoff * math.tan(math.radians(theta))
        direction = 1 if rng.random() < 0.5 else -1
        speed = rng.uniform(*traffic.vehicle_speed_mps)
        v = -(x * direction * speed) / math.hypot(x, standoff)
    return theta, float(max(r, 5.0)), float(v)


def _serving_beam(gt: _GroundTruth, comm: CommConfig, codebook, seed: int) -> int:
    scene = [SceneObject(
        id=0,
        position=(gt.range_m * math.sin(math.radians(gt.theta_deg)),
                  gt.range_m * math.cos(math.radians(gt.theta_deg))),
        velocity=(0.0, 0.0),
        is_comm_user=True,
    )]
    h = synthesize_channel(scene, comm, seed=seed)
    return optimal_beam(sweep_beams(h, codebook, comm, seed=seed))


def _fast_sample(sample_id, sequence_id, gt, k_t, cfg, traffic, comm, codebook, rng, seed):
    b_star = _serving_beam(gt, comm, codebook, seed)
    entries = []
    user_angle = _radar_angle(gt.theta_deg, gt.radial_vel, cfg, traffic, rng)
    entries.append((
        user_angle,
        gt.range_m + rng.normal(0.0, traffic.range_noise_m),
        gt.radial_vel + rng.normal(0.0, traffic.vel_noise_mps),
        True,
    ))
    for _ in range(k_t - 1):
        theta_d, r_d, v_d = _decoy_state(gt, traffic, rng)
        entries.append((
            _radar_angle(theta_d, v_d, cfg, traffic, rng),
            r_d + rng.normal(0.0, traffic.range_noise_m),
            v_d + rng.normal(0.0, traffic.vel_noise_mps),
            False,
        ))
    powers = rng.lognormal(0.0, 0.5, size=len(entries))
    order = np.argsort(-powers, kind="stable")
    candidates, label = [], None
    for slot, idx in enumerate(order):
        angle, r, v, is_user = entries[idx]
        candidates.append(Candidate(
            range_m=max(float(r), 0.0),
            angle_deg=angle,
            vel_mps=float(v),
            n_points=1,
            power=float(powers[idx]),
        ))
        if is_user:
            label = slot
    return Sample(sample_id=sample_id, sequence_id=sequence_id,
                  candidates=tuple(candidates), b_star=b_star, label=label)


def _full_scene(gt, k_t, cfg, traffic, rng):
    """Physical objects in the radar frame (mount rotated by the misalignment)."""
    def to_xy(theta_deg, r):
        a = math.radians(theta_deg + cfg.misalignment_deg)
        return (r * math.sin(a), r * math.cos(a))

    def radial_to_vxy(pos, v_closing):
        r = math.hypot(*pos)
        return (-v_closing * pos[0] / r, -v_closing * pos[1] / r)

    states = [(gt.theta_deg, gt.range_m, gt.radial_vel, True)]
    tries = 0
    while len(states) < k_t and tries < 50 * k_t:
        tries += 1
        theta_d, r_d, v_d = _decoy_state(gt, traffic, rng)
        # require range or Doppler separation so the detector can resolve the pair
        if all(abs(r_d - r) >= 2.0 or abs(v_d - v) >= 1.0 for _, r, v, _ in states):
            states.append((theta_d, r_d, v_d, False))
    objects = []
    for oid, (theta, r, v, is_user) in enumerate(states):
        pos = to_xy(theta, r)
        objects.append(SceneObject(
            id=oid, position=pos, velocity=radial_to_vxy(pos, v),
            reflectivity=float(rng.uniform(0.7, 1.4)), is_comm_user=is_user,
        ))
    return objects


def _full_sample(sample_id, sequence_id, gt, k_t, cfg, traffic, comm, codebook,
                 radar, detect, rng, seed):
    b_star = _serving_beam(gt, comm, codebook, seed)
    scene = _full_scene(gt, k_t, cfg, traffic, rng)
    cube = synthesize_frame(scene, radar, seed=seed)
    candidates = detect_objects(cube, detect)
    if not candidates:
        return None
    truth = (gt.range_m, gt.theta_deg + cfg.misalignment_deg, gt.radial_vel)
    # local angle-bin width: the FFT grid is uniform in sin space
    angle_bin = math.degrees(2.0 / detect.angle_fft_size) / max(
        math.cos(math.radians(truth[1])), 0.2)
    bins = (radar.range_bin_m, angle_bin, radar.doppler_bin_mps)
    best, best_d = None, None
    for k, c in enumerate(candidates):
        deltas = [abs(c.range_m - truth[0]) / bins[0],
                  abs(c.angle_deg - truth[1]) / bins[1],
                  abs(c.vel_mps - truth[2]) / bins[2]]
        if max(deltas) > 2.0:
            continue
        d = sum(x * x for x in deltas)
        if best_d is None or d < best_d:
            best, best_d = k, d
    if best is None:
        return None  # user not cleanly detected; drop the sample
    return Sample(sample_id=sample_id, sequence_id=sequence_id,
                  candidates=tuple(candidates), b_star=b_star, label=best)


def generate_dataset(
    cfg: ScenarioConfig,
    mode: str = "fast",
    comm: CommConfig | None = None,
    radar: RadarConfig | None = None,
    detect: DetectConfig | None = None,
    traffic: TrafficModel = DEFAULT_TRAFFIC,
) -> list[Sample]:
    """Labeled samples for all sequences; deterministic for a given seed.

    Full mode honours the ISAC_IDENT_THREADS environment variable for
    frame-level parallelism (results are ordered, so output is identical
    regardless of the thread count).
    """
    if mode not in ("fast", "full"):
        raise ValueError("mode must be 'fast' or 'full'")
    comm = comm or CommConfig()
    codebook = dft_codebook(comm.n_antennas, comm.n_beams, comm.element_spacing)
    if mode == "full":
        radar = radar or RadarConfig(noise_floor=1000.0)
        detect = detect or DetectConfig(cfar_pfa=1e-6, dbscan_min_pts=5,
                                        cfar_floor_frac=5e-4)

    samples: list[Sample] = []
    sample_id = 0
    for seq in range(cfg.n_sequences):
        rng = child_rng(cfg.seed, "sequence", seq)
        truths = _sequence_truths(cfg, traffic, rng)
        k_ts = [int(rng.integers(cfg.candidates_range[0], cfg.candidates_range[1] + 1))
                for _ in truths]
        seq_samples: list[Sample | None] = []
        if mode == "fast":
            for t, gt in enumerate(truths):
                seq_samples.append(_fast_sample(
                    sample_id + t, seq, gt, k_ts[t], cfg, traffic, comm, codebook,
                    rng, seed=int(child_rng(cfg.seed, "beam", seq, t).integers(2**31)),
                ))
        else:
            jobs = []
            for t, gt in enumerate(truths):
                job_rng = child_rng(cfg.seed, "frame", seq, t)
                frame_seed = int(child_rng(cfg.seed, "beam", seq, t).integers(2**31))
                jobs.append((sample_id + t, seq, gt, k_ts[t], job_rng, frame_seed))
            workers = max(1, int(os.environ.get("ISAC_IDENT_THREADS", "1")))
            def run(job):
                sid, sq, gt, kt, job_rng, fseed = job
                return _full_sample(sid, sq, gt, kt, cfg, traffic, comm, codebook,
                                    radar, detect, job_rng, fseed)
            if workers > 1:
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    seq_samples = list(pool.map(run, jobs))
            else:
                seq_samples = [run(j) for j in jobs]
        kept = [s for s in seq_samples if s is not None]
        if not kept:
            raise GenerationError(f"sequence {seq} produced no usable samples")
        samples.extend(kept)
        sample_id += len(truths)
    return samples


def split_by_sequence(samples, ratio: float = 0.8, seed: int = 0) -> DatasetSplit:
    """Shuffle sequences and assign greedily to train until the ratio is met."""
    seq_ids = sorted({s.sequence_id for s in samples})
    if len(seq_ids) < 2:
        raise ValueError("need at least two sequences to split")
    rng = child_rng(seed, "split")
    order = [seq_ids[i] for i in rng.permutation(len(seq_ids))]
    counts = {sid: sum(1 for s in samples if s.sequence_id == sid) for sid in seq_ids}
    target = ratio * len(samples)
    train_ids, acc = set(), 0
    for sid in order:
        if acc >= target:
            break
        train_ids.add(sid)
        acc += counts[sid]
    if len(train_ids) == len(seq_ids):  # keep at least one test sequence
        train_ids.discard(order[len(order) - 1])
    train = [s for s in samples if s.sequence_id in train_ids]
    test = [s for s in samples if s.sequence_id not in train_ids]
    return DatasetSplit(train=train, test=test)


def save_samples(samples, path) -> None:
    """Delimited text: header plus one row per candidate."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(SAMPLE_HEADER + "\n")
        for s in samples:
            label = -1 if s.label is None else s.label
            for k, c in enumerate(s.candidates):
                fh.write(
                    f"{s.sample_id},{s.sequence_id},{len(s.candidates)},{k},"
                    f"{c.range_m!r},{c.angle_deg!r},{c.vel_mps!r},{c.power!r},"
                    f"{s.b_star},{label}\n"
                )


def load_samples(path) -> list[Sample]:
    """Parse a sample file written by save_samples; errors carry line numbers."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise SampleFormatError(f"{path}:1: empty file")
    if lines[0] != SAMPLE_HEADER:
        raise SampleFormatError(f"{path}:1: bad header {lines[0]!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 10:
            raise SampleFormatError(f"{path}:{lineno}: expected 10 columns, got {len(parts)}")
        try:
            rows.append((
                int(parts[0]), int(parts[1]), int(parts[2]), int(parts[3]),
                float(parts[4]), float(parts[5]), float(parts[6]), float(parts[7]),
                int(parts[8]), int(parts[9]), lineno,
            ))
        except ValueError as exc:
            raise SampleFormatError(f"{path}:{lineno}: {exc}") from None

    samples: list[Sample] = []
    i = 0
    while i < len(rows):
        sid, seq, k_t, _, _, _, _, _, b_star, label, lineno = rows[i]
        block = rows[i:i + k_t]
        if len(block) < k_t or any(r[0] != sid for r in block):
            raise SampleFormatError(f"{path}:{lineno}: sample {sid} has fewer rows than K_t={k_t}")
        cands = []
        for j, row in enumerate(block):
            if row[3] != j:
                raise SampleFormatError(f"{path}:{row[10]}: candidate index {row[3]} out of order")
            try:
                cands.append(Candidate(range_m=row[4], angle_deg=row[5],
                                       vel_mps=row[6], n_points=1, power=row[7]))
            except ValueError as exc:
                raise SampleFormatError(f"{path}:{row[10]}: {exc}") from None
        try:
            samples.append(Sample(
                sample_id=sid, sequence_id=seq, candidates=tuple(cands),
                b_star=b_star, label=None if label < 0 else label,
            ))
        except ValueError as exc:
            raise SampleFormatError(f"{path}:{lineno}: {exc}") from None
        i += k_t
    return samples
