import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isac_ident.radar_detect import (
    Candidate,
    DetectConfig,
    DetectConfigError,
    PowerCube,
    cfar_detect,
    cfar_threshold_factor,
    dbscan,
    detect_objects,
    process_cube,
    summarize_clusters,
)
from isac_ident.radar_frontend import C0, RadarConfig, synthesize_frame
from isac_ident.scene import SceneObject


def moving_obj(oid, d, theta_deg, v_closing, refl=1.0):
    x = d * math.sin(math.radians(theta_deg))
    y = d * math.cos(math.radians(theta_deg))
    return SceneObject(id=oid, position=(x, y),
                       velocity=(-v_closing * x / d, -v_closing * y / d),
                       reflectivity=refl)


def flat_cube(power, n_range=64):
    return PowerCube(
        power=np.full((1, 1, n_range), float(power)),
        angle_deg=np.zeros(1), velocity_mps=np.zeros(1),
        range_m=np.arange(n_range, dtype=float),
    )


# ---------------------------------------------------------------- power cube

def test_static_object_clutter_removed():
    cfg = RadarConfig(n_rx=2, n_chirps=32, n_samples=128,
                      chirp_duration_s=128 / 16.666e6 + 1e-6)
    cube = synthesize_frame([SceneObject(id=0, position=(5.0, 40.0), velocity=(0.0, 0.0))],
                            cfg, seed=0)
    pre = process_cube(cube, clutter_clean=False).power.max()
    post = process_cube(cube, clutter_clean=True).power.max()
    assert post < 1e-10 * pre


def test_clutter_cleaning_idempotent():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 16, 32)) + 1j * rng.standard_normal((2, 16, 32))
    once = x - x.mean(axis=1, keepdims=True)
    twice = once - once.mean(axis=1, keepdims=True)
    assert np.allclose(once, twice, atol=1e-12)


def test_moving_object_lands_on_analytic_bins():
    cfg = RadarConfig()
    d, v, theta = 60.0, -8.0, 10.0
    cube = synthesize_frame([moving_obj(0, d, theta, v)], cfg, seed=0)
    pc = process_cube(cube)
    a, dop, r = np.unravel_index(np.argmax(pc.power), pc.power.shape)

    range_bin = 2.0 * d * cfg.slope_hz_per_s * cfg.n_samples / (C0 * cfg.sample_rate_hz)
    assert abs(r - round(range_bin)) <= 1

    doppler_axis = pc.velocity_mps
    assert abs(doppler_axis[dop] - v) <= cfg.doppler_bin_mps / 2 + 1e-9

    sin_grid = np.sin(np.radians(pc.angle_deg))
    assert abs(sin_grid[a] - math.sin(math.radians(theta))) <= (2 / 64) / 2 + 1e-12


def test_all_zero_cube_gives_zero_power():
    cfg = RadarConfig(n_rx=2, n_chirps=8, n_samples=32,
                      chirp_duration_s=32 / 16.666e6 + 1e-6)
    cube_data = np.zeros((2, 8, 32), dtype=complex)
    from isac_ident.radar_frontend import RadarCube
    pc = process_cube(RadarCube(data=cube_data, config=cfg))
    assert np.all(pc.power == 0)


# ---------------------------------------------------------------- CFAR

def test_cfar_single_impulse_flagged_exactly():
    pc = flat_cube(1e-9, n_range=128)
    pc.power[0, 0, 50] = 1.0
    hits = cfar_detect(pc, DetectConfig())
    assert [cell for cell, _ in hits] == [(0, 0, 50)]


def test_cfar_all_equal_power_no_detections():
    assert cfar_detect(flat_cube(3.7), DetectConfig()) == []


def test_cfar_scale_invariance():
    rng = np.random.default_rng(7)
    power = rng.exponential(1.0, size=(2, 4, 256))
    pc = PowerCube(power=power, angle_deg=np.zeros(2), velocity_mps=np.zeros(4),
                   range_m=np.arange(256, dtype=float))
    scaled = PowerCube(power=power * 773.1, angle_deg=np.zeros(2),
                       velocity_mps=np.zeros(4), range_m=np.arange(256, dtype=float))
    cfg = DetectConfig(cfar_pfa=5e-2)
    assert [c for c, _ in cfar_detect(pc, cfg)] == [c for c, _ in cfar_detect(scaled, cfg)]


def test_cfar_window_must_fit():
    with pytest.raises(DetectConfigError):
        cfar_detect(flat_cube(1.0, n_range=16), DetectConfig(cfar_train=8, cfar_guard=2))


def test_cfar_false_alarm_rate_calibrated():
    # Monte Carlo over the CA-CFAR statistic: iid exponential noise cells
    rng = np.random.default_rng(0)
    n_slices, n_range = 1100, 1024
    power = rng.exponential(1.0, size=(1, n_slices, n_range))
    pc = PowerCube(power=power, angle_deg=np.zeros(1),
                   velocity_mps=np.zeros(n_slices),
                   range_m=np.arange(n_range, dtype=float))
    hits = cfar_detect(pc, DetectConfig(cfar_pfa=1e-3))
    rate = len(hits) / power.size
    assert power.size >= 10**6
    assert 0.5e-3 <= rate <= 2e-3


def test_cfar_threshold_factor_matches_closed_form():
    # alpha chosen so (1 + alpha/N)^-N equals the design pfa for exponential noise
    for n, pfa in [(16, 1e-3), (8, 1e-2), (32, 1e-4)]:
        alpha = cfar_threshold_factor(n, pfa)
        assert (1 + alpha / n) ** (-n) == pytest.approx(pfa, rel=1e-9)


# ---------------------------------------------------------------- DBSCAN

from oracles import canonical_labels as canonical
from oracles import reference_dbscan


def test_dbscan_two_separated_groups():
    pts = np.concatenate([np.zeros((5, 3)), np.full((5, 3), 30.0)])
    pts += np.random.default_rng(0).normal(0, 0.2, pts.shape)
    labels = dbscan(pts, eps=3.0, min_pts=2)
    assert len(set(labels)) == 2
    assert -1 not in labels


def test_dbscan_isolated_point_is_noise():
    labels = dbscan(np.array([[0.0, 0.0, 0.0]]), eps=1.0, min_pts=2)
    assert labels.tolist() == [-1]


def test_dbscan_matches_reference_on_random_instances():
    rng = np.random.default_rng(12)
    for trial in range(100):
        n = int(rng.integers(1, 61))
        pts = rng.uniform(0, 10, size=(n, 3))
        eps = float(rng.uniform(0.5, 3.0))
        min_pts = int(rng.integers(1, 6))
        ours = canonical(dbscan(pts, eps, min_pts).tolist())
        ref = canonical(reference_dbscan(pts, eps, min_pts))
        assert ours == ref, f"trial {trial}: partition mismatch"


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), min_pts=st.integers(1, 5))
def test_dbscan_partition_is_valid(seed, min_pts):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 8, size=(int(rng.integers(1, 50)), 3))
    labels = dbscan(pts, eps=1.5, min_pts=min_pts)
    for cid in set(labels.tolist()) - {-1}:
        members = np.flatnonzero(labels == cid)
        # every cluster contains at least one core point
        has_core = False
        for i in members:
            d2 = ((pts - pts[i]) ** 2).sum(axis=1)
            if (d2 <= 1.5**2).sum() >= min_pts:
                has_core = True
                break
        assert has_core


def test_dbscan_rejects_bad_eps():
    with pytest.raises(ValueError):
        dbscan(np.zeros((3, 3)), eps=0.0, min_pts=2)


# ---------------------------------------------------------------- summaries

def axis_cube():
    return PowerCube(
        power=np.ones((8, 16, 32)),
        angle_deg=np.linspace(-70, 70, 8),
        velocity_mps=np.linspace(-10, 10, 16),
        range_m=np.linspace(0, 62, 32),
    )


def test_summarize_single_cluster_mean():
    pc = axis_cube()
    detections = [((2, 4, 10), 2.0), ((2, 4, 12), 4.0)]
    labels = [0, 0]
    (cand,) = summarize_clusters(detections, labels, pc)
    assert cand.range_m == pytest.approx((pc.range_m[10] + pc.range_m[12]) / 2)
    assert cand.angle_deg == pytest.approx(pc.angle_deg[2])
    assert cand.vel_mps == pytest.approx(pc.velocity_mps[4])
    assert cand.power == pytest.approx(6.0)
    assert cand.n_points == 2


def test_summarize_drops_noise_and_sorts_by_power():
    pc = axis_cube()
    detections = [((0, 0, 5), 1.0), ((3, 3, 20), 9.0), ((5, 5, 25), 4.0)]
    labels = [-1, 1, 0]
    cands = summarize_clusters(detections, labels, pc)
    assert len(cands) == 2
    assert cands[0].power == 9.0 and cands[1].power == 4.0


def test_summarize_count_equals_cluster_count():
    pc = axis_cube()
    rng = np.random.default_rng(4)
    detections = [((int(a), int(d), int(r)), float(p)) for a, d, r, p in
                  zip(rng.integers(0, 8, 30), rng.integers(0, 16, 30),
                      rng.integers(0, 32, 30), rng.uniform(1, 5, 30))]
    labels = rng.integers(-1, 4, 30)
    cands = summarize_clusters(detections, labels.tolist(), pc)
    assert len(cands) == len(set(labels.tolist()) - {-1})


def test_candidate_validation():
    with pytest.raises(ValueError):
        Candidate(range_m=-1.0, angle_deg=0.0, vel_mps=0.0)
    with pytest.raises(ValueError):
        Candidate(range_m=1.0, angle_deg=120.0, vel_mps=0.0)
    for r, v in ((math.inf, 0.0), (math.nan, 0.0), (1.0, math.inf), (1.0, math.nan)):
        with pytest.raises(ValueError):
            Candidate(range_m=r, angle_deg=0.0, vel_mps=v)


# ---------------------------------------------------------------- full chain

def test_three_object_scene_recovered_within_one_bin():
    cfg = RadarConfig()
    scene = [moving_obj(0, 30.0, -20.0, 5.0),
             moving_obj(1, 60.0, 10.0, -8.0),
             moving_obj(2, 90.0, 35.0, 12.0)]
    cube = synthesize_frame(scene, cfg, seed=0)
    cands = detect_objects(cube, DetectConfig())
    assert len(cands) == 3

    angle_bin0 = math.degrees(2.0 / 64)
    for obj in scene:
        best = min(cands, key=lambda c: abs(c.range_m - obj.range_m))
        local_angle_bin = angle_bin0 / math.cos(math.radians(obj.azimuth_deg))
        assert abs(best.range_m - obj.range_m) <= cfg.range_bin_m
        assert abs(best.vel_mps - obj.radial_velocity) <= cfg.doppler_bin_mps
        assert abs(best.angle_deg - obj.azimuth_deg) <= local_angle_bin


def test_detect_objects_empty_on_silent_cube():
    from isac_ident.radar_frontend import RadarCube
    cfg = RadarConfig(n_rx=2, n_chirps=8, n_samples=64,
                      chirp_duration_s=64 / 16.666e6 + 1e-6)
    cube = RadarCube(data=np.zeros((2, 8, 64), dtype=complex), config=cfg)
    assert detect_objects(cube, DetectConfig()) == []
