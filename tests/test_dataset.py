import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isac_ident.dataset import (
    DEFAULT_TRAFFIC,
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


def test_every_generated_label_valid_property():
    for seed in range(3):
        samples = generate_dataset(small_cfg(seed=seed), comm=COMM)
        for s in samples:
            assert len(s.candidates) >= 1
            assert 0 <= s.label < len(s.candidates)
