import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isac_ident import dataset
from isac_ident.dataset import (
    GenerationError,
    SampleFormatError,
    ScenarioConfig,
    generate_dataset,
    load_samples,
    save_samples,
    split_by_sequence,
)
from isac_ident.radar_detect import Candidate, DetectConfig
from isac_ident.radar_frontend import RadarConfig
from isac_ident.scene import CommConfig
from isac_ident.solvers import Sample

COMM = CommConfig()


def small_cfg(**kw):
    base = dict(n_sequences=3, samples_per_sequence=(20, 30),
                candidates_range=(1, 4), seed=5)
    base.update(kw)
    return ScenarioConfig(**base)


# ---------------------------------------------------------------- generation

def test_k1_scenes_have_trivial_labels():
    cfg = small_cfg(candidates_range=(1, 1))
    samples = generate_dataset(cfg, comm=COMM)
    assert all(len(s.candidates) == 1 and s.label == 0 for s in samples)


def test_generation_deterministic():
    cfg = small_cfg()
    assert generate_dataset(cfg, comm=COMM) == generate_dataset(cfg, comm=COMM)


def test_default_scale_matches_config_arithmetic():
    samples = generate_dataset(ScenarioConfig(seed=0), comm=COMM)
    n_seq = len({s.sequence_id for s in samples})
    assert n_seq == 20
    # 20 sequences of 80..120 samples each
    assert 20 * 80 <= len(samples) <= 20 * 120


def test_labels_point_at_the_ground_truth_user():
    # the labeled candidate follows the misalignment-shifted user azimuth
    cfg = small_cfg(angle_noise_deg=0.0, distortion_deg=0.0, misalignment_deg=7.0)
    samples = generate_dataset(cfg, comm=COMM)
    for s in samples:
        user = s.candidates[s.label]
        others = [c for i, c in enumerate(s.candidates) if i != s.label]
        # noise-free: every decoy sits further from the shifted track
        assert all(abs(c.angle_deg - user.angle_deg) > 3.0 for c in others)


def test_candidate_lists_sorted_by_power():
    samples = generate_dataset(small_cfg(), comm=COMM)
    for s in samples:
        powers = [c.power for c in s.candidates]
        assert powers == sorted(powers, reverse=True)


def test_labels_are_not_degenerate():
    samples = generate_dataset(small_cfg(candidates_range=(3, 5)), comm=COMM)
    assert len({s.label for s in samples}) > 1


def test_rejects_bad_mode():
    with pytest.raises(ValueError):
        generate_dataset(small_cfg(), mode="turbo", comm=COMM)


def test_full_mode_small_scene_and_thread_independence(monkeypatch):
    cfg = ScenarioConfig(n_sequences=2, samples_per_sequence=(3, 4),
                         candidates_range=(1, 3), seed=1)
    samples = generate_dataset(cfg, mode="full", comm=COMM)
    assert samples, "full mode produced no samples"
    for s in samples:
        assert 0 <= s.label < len(s.candidates)
        user = s.candidates[s.label]
        assert user.n_points >= 1
        assert user.range_m > 0
    # the thread cap changes scheduling only, never the output
    monkeypatch.setenv("ISAC_IDENT_THREADS", "3")
    assert generate_dataset(cfg, mode="full", comm=COMM) == samples


def test_full_mode_stats_count_each_drop_reason(monkeypatch):
    # frames cycle through detecting nothing, detecting only a far-off
    # object, and detecting the real scene
    calls = []
    real_detect = dataset.detect_map

    def detect(power, read_cells, radar_cfg, cfg):
        calls.append(None)
        if len(calls) % 3 == 1:
            return []
        if len(calls) % 3 == 2:
            return [Candidate(range_m=240.0, angle_deg=-80.0, vel_mps=-30.0)]
        return real_detect(power, read_cells, radar_cfg, cfg)

    monkeypatch.setattr(dataset, "detect_map", detect)
    monkeypatch.delenv("ISAC_IDENT_THREADS", raising=False)  # frames in order
    radar = RadarConfig(n_chirps=64, n_samples=256, noise_floor=10.0)
    cfg = ScenarioConfig(n_sequences=2, samples_per_sequence=(3, 3),
                         candidates_range=(1, 2), seed=4)
    stats = {}
    samples = generate_dataset(cfg, mode="full", comm=COMM, radar=radar, stats=stats)
    assert stats == {"frames": 6, "kept": len(samples),
                     "dropped": {"no_candidates": 2, "user_not_matched": 2}}
    assert len(samples) == 2


def test_full_mode_matches_the_user_on_the_detection_angle_grid(monkeypatch):
    # at rx_spacing 0.25 an angle bin is 4 / angle_fft_size wide in sin(theta),
    # so a detection 1.5 bins off the user is within the 2-bin match gate
    scenes = []
    real_sample = dataset.sample_frame

    def sample(scene, radar, seed=None):
        scenes.append(scene)
        return real_sample(scene, radar, seed=seed)

    def detect(power, read_cells, radar_cfg, cfg):
        user = scenes[-1][0]
        sin_off = 1.5 / (cfg.angle_fft_size * radar_cfg.rx_spacing)
        angle = math.degrees(math.asin(math.sin(math.radians(user.azimuth_deg)) + sin_off))
        return [Candidate(range_m=user.range_m, angle_deg=angle, vel_mps=user.radial_velocity)]

    monkeypatch.setattr(dataset, "sample_frame", sample)
    monkeypatch.setattr(dataset, "detect_map", detect)
    monkeypatch.delenv("ISAC_IDENT_THREADS", raising=False)
    radar = RadarConfig(n_chirps=64, n_samples=256, noise_floor=10.0, rx_spacing=0.25)
    cfg = ScenarioConfig(n_sequences=1, samples_per_sequence=(1, 1),
                         candidates_range=(1, 1), seed=0)
    stats = {}
    samples = generate_dataset(cfg, mode="full", comm=COMM, radar=radar, stats=stats)
    assert stats["kept"] == 1 and samples[0].label == 0
    assert scenes[0][0].is_comm_user


def test_fast_mode_stats_keep_every_frame():
    stats = {}
    samples = generate_dataset(small_cfg(), comm=COMM, stats=stats)
    assert stats == {"frames": len(samples), "kept": len(samples),
                     "dropped": {"no_candidates": 0, "user_not_matched": 0}}


def test_full_mode_unusable_scene_raises():
    # drown the scene in noise so nothing is ever detected
    cfg = ScenarioConfig(n_sequences=1, samples_per_sequence=(2, 2),
                         candidates_range=(1, 1), seed=0)
    radar = RadarConfig(noise_floor=1e12)
    with pytest.raises(GenerationError):
        generate_dataset(cfg, mode="full", comm=COMM, radar=radar,
                         detect=DetectConfig(cfar_pfa=1e-6, dbscan_min_pts=5))


# ---------------------------------------------------------------- split

def equal_sequences(n_seq=10, per_seq=50):
    cands = (Candidate(range_m=10.0, angle_deg=0.0, vel_mps=1.0),)
    return [Sample(sample_id=q * per_seq + t, sequence_id=q, candidates=cands,
                   b_star=3, label=0)
            for q in range(n_seq) for t in range(per_seq)]


def test_split_eight_two_on_equal_sequences():
    split = split_by_sequence(equal_sequences(), ratio=0.8, seed=0)
    train_ids = {s.sequence_id for s in split.train}
    test_ids = {s.sequence_id for s in split.test}
    assert len(train_ids) == 8 and len(test_ids) == 2


def test_split_requires_two_sequences():
    with pytest.raises(ValueError):
        split_by_sequence(equal_sequences(n_seq=1), seed=0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_split_sequences_disjoint_for_all_seeds(seed):
    split = split_by_sequence(equal_sequences(), ratio=0.8, seed=seed)
    train_ids = {s.sequence_id for s in split.train}
    test_ids = {s.sequence_id for s in split.test}
    assert not (train_ids & test_ids)
    assert train_ids | test_ids == set(range(10))


def test_split_ratio_within_one_sequence_on_unequal_lengths():
    rng = np.random.default_rng(2)
    cands = (Candidate(range_m=10.0, angle_deg=0.0, vel_mps=1.0),)
    samples, sid = [], 0
    lengths = [int(rng.integers(10, 120)) for _ in range(9)]
    for q, n in enumerate(lengths):
        for _ in range(n):
            samples.append(Sample(sample_id=sid, sequence_id=q, candidates=cands,
                                  b_star=0, label=0))
            sid += 1
    for seed in range(10):
        split = split_by_sequence(samples, ratio=0.8, seed=seed)
        achieved = len(split.train) / len(samples)
        # greedy assignment lands within one sequence's worth of the ratio
        largest = max(lengths)
        assert abs(achieved - 0.8) <= largest / len(samples) + 1e-9
        assert split.test, "test split must not be empty"


# ---------------------------------------------------------------- files

def test_roundtrip_identity(tmp_path):
    samples = generate_dataset(small_cfg(), comm=COMM)
    path = tmp_path / "samples.csv"
    save_samples(samples, path)
    assert load_samples(path) == samples


def test_full_mode_roundtrip_identity(tmp_path):
    # a sample file stores no n_points: a full-mode sample holds its candidates
    # as the file reads them back
    cfg = ScenarioConfig(n_sequences=2, samples_per_sequence=(3, 4), candidates_range=(1, 3),
                         seed=0)
    radar = RadarConfig(n_chirps=64, n_samples=256, noise_floor=10.0)
    samples = generate_dataset(cfg, mode="full", comm=COMM, radar=radar)
    path = tmp_path / "samples.csv"
    save_samples(samples, path)
    assert load_samples(path) == samples


def test_roundtrip_byte_stable(tmp_path):
    samples = generate_dataset(small_cfg(), comm=COMM)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    save_samples(samples, p1)
    save_samples(load_samples(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_empty_file_is_a_parse_error(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(SampleFormatError):
        load_samples(path)


def test_handwritten_fixture_parses(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text(
        "sample_id,sequence_id,K_t,k,range_m,angle_deg,vel_mps,power,b_star,label_k\n"
        "0,0,2,0,50.0,10.0,3.0,2.0,12,1\n"
        "0,0,2,1,80.0,-5.0,-1.0,1.5,12,1\n"
        "7,1,1,0,33.25,4.5,0.0,0.9,30,0\n"
    )
    samples = load_samples(path)
    assert len(samples) == 2
    first, second = samples
    assert first.sample_id == 0 and len(first.candidates) == 2
    assert first.b_star == 12 and first.label == 1
    assert first.candidates[1].range_m == 80.0
    assert second.sample_id == 7 and second.label == 0
    assert second.candidates[0].power == 0.9


def test_malformed_row_reports_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    # range, angle, velocity: unparsable, then values a Candidate rejects
    for bad in ("oops,10.0,3.0", "inf,10.0,3.0", "-1.0,10.0,3.0", "50.0,95.0,3.0",
                "50.0,10.0,nan"):
        path.write_text(
            "sample_id,sequence_id,K_t,k,range_m,angle_deg,vel_mps,power,b_star,label_k\n"
            "0,0,1,0,50.0,10.0,3.0,2.0,12,0\n"
            f"1,0,1,0,{bad},2.0,12,0\n"
        )
        with pytest.raises(SampleFormatError, match=r":3:"):
            load_samples(path)


def test_truncated_sample_block_rejected(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text(
        "sample_id,sequence_id,K_t,k,range_m,angle_deg,vel_mps,power,b_star,label_k\n"
        "0,0,3,0,50.0,10.0,3.0,2.0,12,0\n"
        "0,0,3,1,60.0,12.0,3.0,1.0,12,0\n"
    )
    with pytest.raises(SampleFormatError):
        load_samples(path)


ROW = "0,0,1,0,50.0,10.0,3.0,2.0,12,0"

# single-fault files: (body after the header, the faulty line, a message fragment)
SINGLE_FAULTS = {
    "blank-line-keeps-numbering": (
        [ROW, "", "1,0,1,0,oops,10.0,3.0,2.0,12,0"], 4, "could not convert"),
    "k-out-of-order": (
        ["0,0,2,0,50.0,10.0,3.0,2.0,12,0", "0,0,2,0,60.0,12.0,3.0,1.0,12,0"], 3,
        "candidate index 0 out of order"),
    "short-block-then-next-sample": (
        ["0,0,3,0,50.0,10.0,3.0,2.0,12,0", "0,0,3,1,60.0,12.0,3.0,1.0,12,0",
         "1,0,1,0,50.0,10.0,3.0,2.0,12,0"], 2, "sample 0 has fewer rows than K_t=3"),
    "trailing-short-block": (
        [ROW, "1,0,2,0,50.0,10.0,3.0,2.0,12,0"], 3, "sample 1 has fewer rows than K_t=2"),
    "nine-columns": ([ROW, "1,0,1,0,50.0,10.0,3.0,2.0,12"], 3, "expected 10 columns, got 9"),
    "label-out-of-range": (
        [ROW, "1,0,2,0,50.0,10.0,3.0,2.0,12,2", "1,0,2,1,60.0,12.0,3.0,1.0,12,2"], 3,
        "label must index into the candidate list"),
    "label-minus-one": (
        [ROW, "1,0,2,0,50.0,10.0,3.0,2.0,12,-1", "1,0,2,1,60.0,12.0,3.0,1.0,12,-1"], 3,
        "label must index into the candidate list"),
    "negative-beam": (
        [ROW, "1,0,1,0,50.0,10.0,3.0,2.0,-1,0"], 3, "beam index must be non-negative"),
    "k-t-zero": ([ROW, "1,0,0,0,50.0,10.0,3.0,2.0,12,0"], 3, "K_t must be >= 1, got 0"),
    "k-t-negative": (
        ["0,0,-1,0,50.0,10.0,3.0,2.0,12,0", "1,0,1,0,50.0,10.0,3.0,2.0,12,0"], 2,
        "K_t must be >= 1, got -1"),
    "sequence-disagrees": (
        [ROW, "1,0,2,0,50.0,10.0,3.0,2.0,12,0", "1,5,2,1,60.0,12.0,3.0,1.0,12,0"], 4,
        "sample 1 has sequence_id 5, but its first row (line 3) has 0"),
    "k-t-disagrees": (
        [ROW, "1,0,2,0,50.0,10.0,3.0,2.0,12,0", "1,0,7,1,60.0,12.0,3.0,1.0,12,0"], 4,
        "sample 1 has K_t 7, but its first row (line 3) has 2"),
    "beam-disagrees": (
        [ROW, "1,0,2,0,50.0,10.0,3.0,2.0,12,0", "1,0,2,1,60.0,12.0,3.0,1.0,40,0"], 4,
        "sample 1 has b_star 40, but its first row (line 3) has 12"),
    "label-disagrees": (
        [ROW, "1,0,2,0,50.0,10.0,3.0,2.0,12,1", "1,0,2,1,60.0,12.0,3.0,1.0,12,0"], 4,
        "sample 1 has label_k 0, but its first row (line 3) has 1"),
    "repeated-sample-id": ([ROW, "1,0,1,0,50.0,10.0,3.0,2.0,12,0", ROW], 4,
                           "sample_id 0 is repeated"),
}


@pytest.mark.parametrize("case", SINGLE_FAULTS, ids=list(SINGLE_FAULTS))
def test_single_fault_reports_its_line_and_message(tmp_path, case):
    body, lineno, fragment = SINGLE_FAULTS[case]
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([dataset.SAMPLE_HEADER, *body]) + "\n")
    with pytest.raises(SampleFormatError) as err:
        load_samples(path)
    assert f"{path}:{lineno}: " in str(err.value)
    assert fragment in str(err.value)


def float_bits(x: float) -> bytes:
    return struct.pack("<d", x)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1),
       bounds=st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=2, unique=True))
def test_uniform_helper_matches_numpy_bit_for_bit(seed, bounds):
    lo, hi = sorted(bounds)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        assert float_bits(dataset._uniform(ours, lo, hi)) == float_bits(theirs.uniform(lo, hi))
    assert ours.random() == theirs.random()


SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan]


@settings(max_examples=200, deadline=None)
@given(x=st.sampled_from(SPECIAL) | st.floats(allow_nan=True, allow_infinity=True),
       lo=st.sampled_from([-90.0, -88.0, -1.0]) | st.floats(-1e300, -1e-300),
       hi=st.sampled_from([88.0, 90.0, 1.0]) | st.floats(1e-300, 1e300))
def test_clip_helper_matches_numpy(x, lo, hi):
    ours, theirs = dataset._clip(x, lo, hi), float(np.clip(x, lo, hi))
    if math.isnan(theirs):
        assert math.isnan(ours)
    else:
        assert float_bits(ours) == float_bits(theirs)


def test_every_generated_label_valid_property():
    for seed in range(3):
        samples = generate_dataset(small_cfg(seed=seed), comm=COMM)
        for s in samples:
            assert len(s.candidates) >= 1
            assert 0 <= s.label < len(s.candidates)
