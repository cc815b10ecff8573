"""Synthetic labeled datasets: drive-through sequences of candidate lists.

Each sequence is one pass of the communication user (a vehicle) along a
road in front of the basestation, sampled at a fixed frame rate. Every
sample carries the detected candidate objects, the serving beam found by
sweeping the codebook against the synthesized channel, and the index of
the user among the candidates.

Fast mode synthesizes candidate states directly from the ground-truth
kinematics plus configured angle errors; full mode draws each sample's
FMCW frame as its detector sees it (`sample_frame`: the antenna-summed
range-Doppler map, and antenna samples only at the cells CFAR flags; no
ADC cube or per-antenna spectra are built), runs the detection chain from
CFAR on (`detect_map`), and labels the candidate nearest the ground truth.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from isac_ident.radar_detect import Candidate, DetectConfig, detect_map
from isac_ident.radar_frontend import RadarConfig, sample_frame
from isac_ident.scene import (
    CommConfig,
    SceneObject,
    check_finite_fields,
    dft_codebook,
    optimal_beam,
    sweep_beams,
    synthesize_channel,
)
from isac_ident.seeding import child_rng
from isac_ident.solvers import Sample


class GenerationError(ValueError):
    """No dataset can be generated: a scenario without usable samples or bad run settings."""


class SampleFormatError(ValueError):
    """Sample file is malformed."""


SAMPLE_HEADER = "sample_id,sequence_id,K_t,k,range_m,angle_deg,vel_mps,power,b_star,label_k"
# the columns every row of a sample repeats from its first row
_SAMPLE_KEY_COLUMNS = ("sample_id", "sequence_id", "K_t", "b_star", "label_k")

# Full-mode defaults: a noisy long-range radar frame and the detection
# profile tuned for it. `DetectConfig()` itself keeps the noise-free profile.
FULL_MODE_RADAR = RadarConfig(noise_floor=1000.0)
FULL_MODE_DETECT = DetectConfig(cfar_pfa=1e-6, dbscan_min_pts=5, cfar_floor_frac=5e-4)

# Why a full-mode frame yields no sample, as counted in generate_dataset's stats.
DROP_REASONS = ("no_candidates", "user_not_matched")


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
        check_finite_fields(self)
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
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


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


def _uniform(rng, lo: float, hi: float) -> float:
    """`rng.uniform(lo, hi)` for scalar bounds, without numpy's per-call overhead.

    numpy draws one double u and returns lo + (hi - lo) * u; this is that
    formula on the same draw, so the value and the stream position match
    bit for bit.
    """
    return lo + (hi - lo) * rng.random()


def _clip(x: float, lo: float, hi: float) -> float:
    """`float(np.clip(x, lo, hi))` for a Python float, -0.0 and NaN included."""
    return min(max(x, lo), hi)


def _radar_angle(theta_deg: float, radial_vel: float, cfg: ScenarioConfig, rng) -> float:
    # smooth nonlinear warp of the azimuth map, one-and-a-half cycles across the FOV
    psi = (theta_deg + cfg.misalignment_deg
           + cfg.distortion_deg * math.sin(math.radians(3.0 * theta_deg)))
    if cfg.angle_noise_deg > 0:
        rho = DEFAULT_TRAFFIC.angle_noise_vel_coupling
        psi += cfg.angle_noise_deg * (
            math.sqrt(1.0 - rho * rho) * rng.normal()
            + rho * radial_vel / DEFAULT_TRAFFIC.vel_coupling_ref_mps
        )
    return _clip(psi, -90.0, 90.0)


class _GroundTruth(NamedTuple):
    """Per-sample user kinematics in the comm frame."""

    theta_deg: float      # comm-frame azimuth
    range_m: float
    radial_vel: float     # closing positive


class _Frame(NamedTuple):
    """One frame of a sequence: what either mode needs to label it."""

    sample_id: int
    sequence_id: int
    t: int
    truth: _GroundTruth
    k_t: int
    seed: int             # the "beam" stream: channel, beam sweep and radar noise


def _sequence_frames(cfg: ScenarioConfig, seq: int, first_id: int, rng) -> list[_Frame]:
    traffic = DEFAULT_TRAFFIC
    n = int(rng.integers(cfg.samples_per_sequence[0], cfg.samples_per_sequence[1] + 1))
    direction = 1 if rng.random() < 0.5 else -1
    standoff = traffic.road_standoff_m + _uniform(
        rng, -traffic.lane_halfwidth_m, traffic.lane_halfwidth_m)
    # one pass crosses the field of view in n frames; short sequences cover a
    # partial pass centered on boresight instead of driving absurdly fast
    full_span = 2.0 * standoff * math.tan(math.radians(traffic.max_user_azimuth_deg))
    speed = min(full_span * cfg.frame_rate_hz / max(n - 1, 1),
                traffic.max_user_speed_mps)
    span = speed * (n - 1) / cfg.frame_rate_hz
    x0 = -direction * span / 2.0
    frames = []
    for t in range(n):
        x = x0 + direction * speed * t / cfg.frame_rate_hz
        r = math.hypot(x, standoff)
        truth = _GroundTruth(theta_deg=math.degrees(math.atan2(x, standoff)), range_m=r,
                             radial_vel=-(x * direction * speed) / r)
        frames.append(_Frame(
            sample_id=first_id + t, sequence_id=seq, t=t, truth=truth,
            k_t=int(rng.integers(cfg.candidates_range[0], cfg.candidates_range[1] + 1)),
            seed=int(child_rng(cfg.seed, "beam", seq, t).integers(2**31)),
        ))
    return frames


def _decoy_state(gt: _GroundTruth, rng):
    """Ground-truth comm-frame state (theta, range, radial velocity) of one decoy."""
    traffic = DEFAULT_TRAFFIC
    side = 1 if rng.random() < 0.5 else -1
    kind = rng.random()
    on_road = kind >= traffic.p_pedestrian + traffic.p_off_corridor
    sep = traffic.vehicle_sep_deg if on_road else traffic.near_sep_deg
    theta = _clip(gt.theta_deg + side * _uniform(rng, *sep), -88.0, 88.0)
    if kind < traffic.p_pedestrian:
        # sidewalk walker: close in angle, but off the road corridor and slow
        standoff = traffic.road_standoff_m + _uniform(rng, *traffic.sidewalk_offset_m) * (
            1 if rng.random() < 0.5 else -1)
        r = standoff / max(math.cos(math.radians(theta)), 0.05)
        v = _uniform(rng, *traffic.pedestrian_speed_mps) * (1 if rng.random() < 0.5 else -1)
    elif not on_road:
        # parked lot / cross-street object well off the user's range corridor
        offset = _uniform(rng, *traffic.off_corridor_offset_m)
        r = gt.range_m + (offset if rng.random() < 0.5 else -offset)
        v = _uniform(rng, *traffic.vehicle_speed_mps) * (1 if rng.random() < 0.5 else -1)
    else:
        # another vehicle on the road, ahead/behind or oncoming
        standoff = traffic.road_standoff_m + _uniform(rng, -traffic.lane_halfwidth_m,
                                                      traffic.lane_halfwidth_m)
        r = standoff / max(math.cos(math.radians(theta)), 0.05)
        x = standoff * math.tan(math.radians(theta))
        direction = 1 if rng.random() < 0.5 else -1
        speed = _uniform(rng, *traffic.vehicle_speed_mps)
        v = -(x * direction * speed) / math.hypot(x, standoff)
    return theta, float(max(r, 5.0)), float(v)


def _serving_beam(gt: _GroundTruth, comm: CommConfig, codebook, seed: int) -> int:
    h = synthesize_channel(gt.theta_deg, gt.range_m, comm, seed=seed)
    return optimal_beam(sweep_beams(h, codebook, comm, seed=seed))


def _fast_sample(frame: _Frame, cfg, comm, codebook, rng) -> Sample:
    """Candidate states drawn around the truth; entry 0 is the user."""
    gt = frame.truth
    b_star = _serving_beam(gt, comm, codebook, frame.seed)
    entries = []
    for k in range(frame.k_t):
        theta, r, v = gt if k == 0 else _decoy_state(gt, rng)
        entries.append((
            _radar_angle(theta, v, cfg, rng),
            r + rng.normal(0.0, DEFAULT_TRAFFIC.range_noise_m),
            v + rng.normal(0.0, DEFAULT_TRAFFIC.vel_noise_mps),
        ))
    powers = rng.lognormal(0.0, 0.5, size=len(entries))
    order = np.argsort(-powers, kind="stable").tolist()
    candidates = tuple(
        Candidate(range_m=max(float(entries[i][1]), 0.0), angle_deg=entries[i][0],
                  vel_mps=float(entries[i][2]), n_points=1, power=float(powers[i]))
        for i in order)
    return Sample(sample_id=frame.sample_id, sequence_id=frame.sequence_id,
                  candidates=candidates, b_star=b_star, label=order.index(0))


def _full_scene(gt, k_t, cfg, rng):
    """Scene objects in the radar frame (mount rotated by the misalignment); 0 is the user."""
    states = [gt]
    tries = 0
    while len(states) < k_t and tries < 50 * k_t:
        tries += 1
        theta_d, r_d, v_d = _decoy_state(gt, rng)
        # require range or Doppler separation so the detector can resolve the pair
        if all(abs(r_d - r) >= 2.0 or abs(v_d - v) >= 1.0 for _, r, v in states):
            states.append((theta_d, r_d, v_d))
    objects = []
    for oid, (theta, r, v) in enumerate(states):
        a = math.radians(theta + cfg.misalignment_deg)
        pos = (r * math.sin(a), r * math.cos(a))
        r = math.hypot(*pos)
        objects.append(SceneObject(
            id=oid, position=pos, velocity=(-v * pos[0] / r, -v * pos[1] / r),
            reflectivity=_uniform(rng, 0.7, 1.4), is_comm_user=oid == 0,
        ))
    return objects


def _full_sample(frame: _Frame, cfg, comm, codebook, radar, detect) -> Sample | str:
    """A labeled sample from one rendered frame, or the DROP_REASONS entry saying why not."""
    gt = frame.truth
    b_star = _serving_beam(gt, comm, codebook, frame.seed)
    rng = child_rng(cfg.seed, "frame", frame.sequence_id, frame.t)
    scene = _full_scene(gt, frame.k_t, cfg, rng)
    power, read_cells = sample_frame(scene, radar, seed=frame.seed)
    # as a sample file reads them back: it stores no n_points
    candidates = tuple(Candidate(c.range_m, c.angle_deg, c.vel_mps, 1, c.power)
                       for c in detect_map(power, read_cells, radar, detect))
    if not candidates:
        return "no_candidates"
    truth = (gt.range_m, gt.theta_deg + cfg.misalignment_deg, gt.radial_vel)
    # local angle-bin width: the FFT grid is uniform in sin space
    angle_bin = math.degrees(1.0 / (detect.angle_fft_size * radar.rx_spacing)) / max(
        math.cos(math.radians(truth[1])), 0.2)
    bins = (radar.range_bin_m, angle_bin, radar.doppler_bin_mps)
    matches = []
    for k, c in enumerate(candidates):
        state = (c.range_m, c.angle_deg, c.vel_mps)
        deltas = [abs(x - y) / b for x, y, b in zip(state, truth, bins)]
        if max(deltas) <= 2.0:
            matches.append((sum(x * x for x in deltas), k))
    if not matches:
        return "user_not_matched"  # user not cleanly detected; drop the sample
    return Sample(sample_id=frame.sample_id, sequence_id=frame.sequence_id,
                  candidates=candidates, b_star=b_star, label=min(matches)[1])


def generate_dataset(
    cfg: ScenarioConfig,
    mode: str = "fast",
    comm: CommConfig | None = None,
    radar: RadarConfig | None = None,
    detect: DetectConfig | None = None,
    stats: dict | None = None,
) -> list[Sample]:
    """Labeled samples for all sequences; deterministic for a given seed.

    Full mode honours the ISAC_IDENT_THREADS environment variable for
    frame-level parallelism (results are ordered, so output is identical
    regardless of the thread count). A `stats` dict, if given, is filled
    with the frames rendered, the samples kept and the frames dropped per
    DROP_REASONS entry (fast mode keeps every frame).
    """
    if mode not in ("fast", "full"):
        raise ValueError("mode must be 'fast' or 'full'")
    comm = comm or CommConfig()
    codebook = dft_codebook(comm.n_antennas, comm.n_beams, comm.element_spacing)
    workers = 1
    if mode == "full":
        radar = radar or FULL_MODE_RADAR
        detect = detect or FULL_MODE_DETECT
        raw = os.environ.get("ISAC_IDENT_THREADS", "1")
        try:
            workers = int(raw)
        except ValueError:
            workers = 0                                    # refused below, as any value under 1
        if workers < 1:
            raise GenerationError(f"ISAC_IDENT_THREADS must be an integer of at least 1, "
                                  f"got {raw!r}")

    samples: list[Sample] = []
    dropped = dict.fromkeys(DROP_REASONS, 0)
    n_frames = 0
    # One pool per call (threads start with the first frame), so that frame
    # threads are not started and stopped once per sequence.
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for seq in range(cfg.n_sequences):
            rng = child_rng(cfg.seed, "sequence", seq)
            frames = _sequence_frames(cfg, seq, n_frames, rng)
            if mode == "fast":
                results = [_fast_sample(f, cfg, comm, codebook, rng) for f in frames]
            else:
                results = list(pool.map(
                    lambda f: _full_sample(f, cfg, comm, codebook, radar, detect), frames))
            kept = [s for s in results if not isinstance(s, str)]
            for reason in DROP_REASONS:
                dropped[reason] += results.count(reason)
            if not kept:
                raise GenerationError(f"sequence {seq} produced no usable samples")
            samples.extend(kept)
            n_frames += len(frames)
    if stats is not None:
        stats.update(frames=n_frames, kept=len(samples), dropped=dropped)
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


def format_sample(s: Sample) -> str:
    """The rows of one sample in a sample file, each ending in a newline."""
    head = f"{s.sample_id},{s.sequence_id},{len(s.candidates)},"
    tail = f",{s.b_star},{s.label}\n"
    return "".join(f"{head}{k},{c.range_m!r},{c.angle_deg!r},{c.vel_mps!r},{c.power!r}{tail}"
                   for k, c in enumerate(s.candidates))


def write_sample_file(rows, path) -> None:
    """The header, then `rows` (strings from format_sample) in order."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(SAMPLE_HEADER + "\n")
        fh.write("".join(rows))


def save_samples(samples, path) -> None:
    """Delimited text: header plus one row per candidate."""
    write_sample_file(map(format_sample, samples), path)


def load_samples(path) -> list[Sample]:
    """Parse a sample file written by save_samples, in one pass; errors carry line numbers.

    A sample's first row opens it and gives its id, sequence, K_t, beam and
    label; every later row of the sample must repeat them, and the sample
    closes when its K_t rows are in. Sample ids must be unique. The first
    faulty line in file order is the one reported.
    """
    path = Path(path)

    def error(lineno, message):
        return SampleFormatError(f"{path}:{lineno}: {message}")

    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise SampleFormatError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    if not lines:
        raise error(1, "empty file")
    if lines[0] != SAMPLE_HEADER:
        raise error(1, f"bad header {lines[0]!r}")
    samples: list[Sample] = []
    seen: set[int] = set()  # ids of the samples opened so far
    first = key = None  # the open sample's first line and its _SAMPLE_KEY_COLUMNS
    cands: list[Candidate] = []  # candidates of the open sample
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 10:
            raise error(lineno, f"expected 10 columns, got {len(parts)}")
        try:
            sid, seq, k_t, k = int(parts[0]), int(parts[1]), int(parts[2]), int(parts[3])
            range_m, angle_deg, vel_mps, power = (float(parts[4]), float(parts[5]),
                                                  float(parts[6]), float(parts[7]))
            b_star, label = int(parts[8]), int(parts[9])
        except ValueError as exc:
            raise error(lineno, exc) from None
        row = (sid, seq, k_t, b_star, label)
        if key is None:
            if k_t < 1:
                raise error(lineno, f"K_t must be >= 1, got {k_t}")
            if sid in seen:
                raise error(lineno, f"sample_id {sid} is repeated")
            seen.add(sid)
            first, key = lineno, row
        elif row != key:
            if sid != key[0]:
                break  # the next sample began before this one had K_t rows
            name, value, want = next(c for c in zip(_SAMPLE_KEY_COLUMNS, row, key) if c[1] != c[2])
            raise error(lineno, f"sample {sid} has {name} {value}, "
                                f"but its first row (line {first}) has {want}")
        if k != len(cands):
            raise error(lineno, f"candidate index {k} out of order")
        try:
            cands.append(Candidate(range_m, angle_deg, vel_mps, 1, power))
        except ValueError as exc:
            raise error(lineno, exc) from None
        if len(cands) == k_t:
            try:
                samples.append(Sample(sample_id=sid, sequence_id=seq, candidates=tuple(cands),
                                      b_star=b_star, label=label))
            except ValueError as exc:
                raise error(first, exc) from None
            key, cands = None, []
    if key is not None:
        raise error(first, f"sample {key[0]} has fewer rows than K_t={key[2]}")
    return samples
