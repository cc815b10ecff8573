import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isac_ident.dataset import FULL_MODE_DETECT, FULL_MODE_RADAR
from isac_ident.radar_detect import (
    CFAR_BLOCK_ROWS,
    DBSCAN_CHUNK_ROWS,
    Candidate,
    DetectConfig,
    DetectConfigError,
    PowerCube,
    _angle_axis,
    _map_axes,
    _range_doppler,
    _velocity_axis,
    antenna_power,
    cfar_detect,
    cfar_flags,
    cfar_threshold_factor,
    dbscan,
    detect_map,
    detect_objects,
    process_cube,
    summarize_clusters,
)
from isac_ident.radar_frontend import (
    C0,
    RadarConfig,
    RadarCube,
    sample_frame,
    synthesize_frame,
)
from isac_ident.scene import SceneObject

from oracles import (
    reference_cfar,
    reference_cfar_threshold,
    reference_n_look_pfa,
    reference_power,
    reference_spectra,
)


def moving_obj(oid, d, theta_deg, v_closing, refl=1.0):
    x = d * math.sin(math.radians(theta_deg))
    y = d * math.cos(math.radians(theta_deg))
    return SceneObject(id=oid, position=(x, y),
                       velocity=(-v_closing * x / d, -v_closing * y / d),
                       reflectivity=refl)


def small_radar(n_chirps, n_samples, n_rx=4):
    return RadarConfig(n_rx=n_rx, n_chirps=n_chirps, n_samples=n_samples,
                       chirp_duration_s=n_samples / 16.666e6 + 1e-6)


def random_cube(n_chirps, n_samples, seed, n_rx=4):
    rng = np.random.default_rng(seed)
    shape = (n_rx, n_chirps, n_samples)
    return RadarCube(data=rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                     config=small_radar(n_chirps, n_samples, n_rx))


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


SLAB_CHIRPS = [13, 3, 8]


@pytest.mark.parametrize("n_chirps", SLAB_CHIRPS)
@pytest.mark.parametrize("angle_fft_size,clutter_clean", [(64, True), (7, True), (16, False)])
def test_power_matches_whole_cube_reference(n_chirps, angle_fft_size, clutter_clean):
    cube = random_cube(n_chirps, 48, seed=n_chirps + angle_fft_size)
    power = process_cube(cube, angle_fft_size, clutter_clean).power
    assert np.array_equal(power, reference_power(cube.data, angle_fft_size, clutter_clean))


def test_power_matches_reference_on_noise_free_object():
    cfg = small_radar(n_chirps=21, n_samples=128)
    cube = synthesize_frame([moving_obj(0, 40.0, 15.0, 6.0)], cfg, seed=0)
    pc = process_cube(cube)
    assert np.array_equal(pc.power, reference_power(cube.data, 64))
    dcfg = DetectConfig()
    hits = cfar_detect(pc, dcfg)
    assert len(hits) > 0
    assert np.array_equal(hits, reference_cfar(pc.power, dcfg))


# ---------------------------------------------------------------- CFAR

def test_cfar_single_impulse_flagged_exactly():
    pc = flat_cube(1e-9, n_range=128)
    pc.power[0, 0, 50] = 1.0
    hits = cfar_detect(pc, DetectConfig())
    assert hits.tolist() == [[0, 0, 50]]


def test_cfar_all_equal_power_no_detections():
    assert cfar_detect(flat_cube(3.7), DetectConfig()).tolist() == []


def test_cfar_scale_invariance():
    rng = np.random.default_rng(7)
    power = rng.exponential(1.0, size=(2, 4, 256))
    pc = PowerCube(power=power, angle_deg=np.zeros(2), velocity_mps=np.zeros(4),
                   range_m=np.arange(256, dtype=float))
    scaled = PowerCube(power=power * 773.1, angle_deg=np.zeros(2),
                       velocity_mps=np.zeros(4), range_m=np.arange(256, dtype=float))
    cfg = DetectConfig(cfar_pfa=5e-2)
    assert cfar_detect(pc, cfg).tolist() == cfar_detect(scaled, cfg).tolist()


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


@pytest.mark.parametrize("n_chirps", SLAB_CHIRPS + [CFAR_BLOCK_ROWS // 2 + 5])
@pytest.mark.parametrize("n_range,train,guard", [(96, 8, 2), (21, 8, 2), (9, 3, 1)])
def test_cfar_matches_whole_cube_reference(n_chirps, n_range, train, guard):
    # (21, 8, 2) and (9, 3, 1): the window spans the whole range axis. The
    # cube's 8 angle planes give CFAR 8 * n_chirps rows: 3 chirps fit in one
    # row block, 8 fill two, and 13 and the last case end in a partial block
    # after several full ones
    pc = process_cube(random_cube(n_chirps, n_range, seed=n_range), angle_fft_size=8)
    cfg = DetectConfig(cfar_train=train, cfar_guard=guard, cfar_pfa=0.05, cfar_floor_frac=1e-3)
    hits = cfar_detect(pc, cfg)
    ref = reference_cfar(pc.power, cfg)
    assert len(ref) > 0
    assert hits.dtype == ref.dtype and np.array_equal(hits, ref)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), planes=st.integers(1, 4),
       rows=st.integers(1, 40), train=st.integers(1, 8), guard=st.integers(0, 3),
       floor=st.sampled_from([0.0, 1e-3, 0.05]), n_looks=st.sampled_from([1, 4]))
def test_cfar_matches_reference_at_every_look_count(data, seed, planes, rows, train, guard,
                                                     floor, n_looks):
    n_range = data.draw(st.integers(2 * (train + guard) + 1, 300))
    power = np.random.default_rng(seed).exponential(1.0, size=(planes, rows, n_range))
    pc = PowerCube(power=power, angle_deg=np.zeros(planes), velocity_mps=np.zeros(rows),
                   range_m=np.arange(n_range, dtype=float))
    cfg = DetectConfig(cfar_train=train, cfar_guard=guard, cfar_pfa=0.05, cfar_floor_frac=floor)
    hits = cfar_detect(pc, cfg, n_looks=n_looks)
    ref = reference_cfar(power, cfg, n_looks=n_looks)
    assert hits.dtype == ref.dtype and np.array_equal(hits, ref)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1),
       rows=st.integers(1, 2 * CFAR_BLOCK_ROWS + CFAR_BLOCK_ROWS // 2),
       train=st.integers(1, 8), guard=st.integers(0, 3),
       floor=st.sampled_from([0.0, 1e-3, 0.05]), n_looks=st.sampled_from([1, 4]),
       one_ulp_above=st.booleans())
def test_cfar_threshold_matches_the_allocating_reference_bit_for_bit(data, seed, rows, train,
                                                                    guard, floor, n_looks,
                                                                    one_ulp_above):
    # range axes from the shortest window that fits up: every cell's windows
    # are truncated at one edge or both; up to two full row blocks and a
    # partial one. Flags on a random map would hide a threshold one ulp off,
    # so one cell per row is put exactly at its reference threshold, or one
    # ulp above it, where a threshold one ulp higher or lower flips its flag.
    # The row's prefix sums (and the peak, through the floor) tie a cell's
    # threshold to its own value, so the cell is set again until it holds.
    n_range = data.draw(st.integers(2 * (train + guard) + 1, 4 * (train + guard) + 8))
    rng = np.random.default_rng(seed)
    power = rng.exponential(1.0, size=(rows, n_range))
    cells = (np.arange(rows), rng.integers(n_range, size=rows))
    cfg = DetectConfig(cfar_train=train, cfar_guard=guard, cfar_pfa=0.05, cfar_floor_frac=floor)

    def tie():
        threshold = reference_cfar_threshold(power, cfg, n_looks)[cells]
        return np.nextafter(threshold, np.inf) if one_ulp_above else threshold

    for _ in range(20):
        target = tie()
        if np.array_equal(power[cells], target):
            break
        power[cells] = target
    # a row can settle into a cycle of a few ulps instead; a map whose rows
    # all do holds no tie to test
    assume(np.any(power[cells] == tie()))
    want = np.flatnonzero(power > reference_cfar_threshold(power, cfg, n_looks))
    assert np.array_equal(cfar_flags(power, cfg, n_looks), want)


@pytest.mark.parametrize("power", [0.0, 3.7])
def test_cfar_flat_cube_gives_empty_index_array(power):
    pc = PowerCube(power=np.full((3, 5, 64), power), angle_deg=np.zeros(3),
                   velocity_mps=np.zeros(5), range_m=np.arange(64.0))
    hits = cfar_detect(pc, DetectConfig())
    assert hits.shape == (0, 3) and hits.dtype.kind == "i"
    assert np.array_equal(hits, reference_cfar(pc.power, DetectConfig()))


def test_cfar_threshold_factor_matches_closed_form():
    # alpha chosen so (1 + alpha/N)^-N equals the design pfa for exponential noise
    for n, pfa in [(16, 1e-3), (8, 1e-2), (32, 1e-4)]:
        alpha = cfar_threshold_factor(n, pfa)
        assert (1 + alpha / n) ** (-n) == pytest.approx(pfa, rel=1e-9)


@pytest.mark.parametrize("n,pfa", [(16, 1e-6), (16, 1e-3), (8, 1e-2), (32, 1e-4), (1, 0.5)])
def test_cfar_threshold_factor_one_look_is_the_closed_form(n, pfa):
    closed_form = n * (pfa ** (-1.0 / n) - 1.0)
    assert cfar_threshold_factor(n, pfa, n_looks=1) == closed_form
    assert cfar_threshold_factor(n, pfa) == closed_form


@pytest.mark.parametrize("n_looks", [2, 4, 8])
@pytest.mark.parametrize("n,pfa", [(16, 1e-6), (16, 1e-3), (8, 1e-2), (32, 1e-4)])
def test_cfar_threshold_factor_n_looks_meets_pfa(n, pfa, n_looks):
    alpha = cfar_threshold_factor(n, pfa, n_looks)
    assert reference_n_look_pfa(alpha, n, n_looks) == pytest.approx(pfa, rel=1e-9)
    # a sum of looks fluctuates less than one look, so the factor is smaller
    assert alpha < cfar_threshold_factor(n, pfa)


def test_range_doppler_map_is_power_cube_summed_over_angle():
    cube = random_cube(13, 48, seed=5)
    spectra = _range_doppler(cube)
    cfg = cube.config
    # the map as detect_map reads it: FFT Doppler order, velocity from the
    # centered bins of _velocity_axis, and its own range axis
    rd = PowerCube(power=antenna_power(spectra)[None], angle_deg=np.zeros(1),
                   velocity_mps=np.fft.ifftshift(_velocity_axis(cfg)),
                   range_m=np.arange(cfg.n_samples) * cfg.range_bin_m)
    pc = process_cube(cube, angle_fft_size=64)
    assert spectra.shape == cube.data.shape and rd.power.shape == (1, 13, 48)
    # the map keeps FFT Doppler order; process_cube centers it
    assert np.allclose(np.fft.fftshift(rd.power[0], axes=0), pc.power.sum(axis=0) / 64,
                       rtol=1e-12, atol=0)
    assert np.array_equal(np.fft.fftshift(rd.velocity_mps), pc.velocity_mps)
    assert np.array_equal(rd.range_m, pc.range_m)


def test_cfar_on_range_doppler_map_of_noise_is_calibrated():
    pfa = 1e-3
    cfg = DetectConfig(cfar_pfa=pfa)
    hits = single_look_hits = cells = 0
    for seed in (11, 12):
        cube = random_cube(256, 1024, seed=seed)
        power = antenna_power(_range_doppler(cube))
        hits += len(cfar_flags(power, cfg, n_looks=4))
        single_look_hits += len(cfar_flags(power, cfg))
        cells += power.size
    assert cells >= 5 * 10**5
    assert 0.5 * pfa <= hits / cells <= 2.0 * pfa
    # the single-look factor is far too strict on a four-antenna sum
    assert single_look_hits < 0.01 * pfa * cells


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


def detector_like_points(rng, n_cells, n_blobs=4):
    """(angle, Doppler, range) bins in the order detect_objects builds them.

    Flagged (Doppler, range) cells come in np.argwhere order, around a few
    blob centres plus some lone cells, and each cell holds a run of
    main-lobe angle bins near its blob's angle. Integer bins put many
    neighbours at exactly eps.
    """
    centres = np.column_stack([rng.integers(5, 59, n_blobs), rng.integers(0, 250, n_blobs),
                               rng.integers(0, 512, n_blobs)])
    blob = rng.integers(0, n_blobs, n_cells)
    cells = centres[blob, 1:] + rng.integers(-4, 5, (n_cells, 2))
    lone = rng.random(n_cells) < 0.1
    cells[lone] = np.column_stack([rng.integers(0, 250, lone.sum()),
                                   rng.integers(0, 512, lone.sum())])
    rows = {}
    for (d, r), b in zip(cells.tolist(), blob.tolist()):
        a0 = centres[b, 0] + int(rng.integers(-2, 3))
        rows.setdefault((d, r), range(a0, a0 + int(rng.integers(1, 5))))
    return np.array([(a, d, r) for (d, r), angles in sorted(rows.items()) for a in angles],
                    dtype=float)


@pytest.mark.parametrize("min_pts", range(1, 10))
def test_dbscan_labels_equal_the_reference_on_detector_like_points(min_pts):
    rng = np.random.default_rng(100 + min_pts)
    for eps, n_cells in ((3.0, 60), (2.0, 40), (1.5, 80)):
        pts = detector_like_points(rng, n_cells)
        assert np.array_equal(dbscan(pts, eps, min_pts), reference_dbscan(pts, eps, min_pts))


def test_dbscan_neighbours_at_exactly_eps_are_neighbours():
    pts = np.array([[0, 0, 0], [3, 0, 0], [6, 0, 0], [8, 2, 1], [12, 2, 1]], dtype=float)
    labels = dbscan(pts, 3.0, 2)
    assert labels.tolist() == [0, 0, 0, 0, -1]
    assert np.array_equal(labels, reference_dbscan(pts, 3.0, 2))


def test_dbscan_border_point_takes_the_lowest_cluster_id():
    # two 4-point clusters; the border cell at (3, 0, 0) is exactly eps from
    # one core point of each and has only 3 neighbours, so it is not core
    a_far, a_near = [[0, 1, 1], [0, 0, 1], [0, 1, 0]], [[0, 0, 0]]
    b = [[6, 0, 0], [6, 0, 1], [6, 1, 0], [6, 1, 1]]
    border = [[3, 0, 0]]
    # B's near point has a lower index than A's, but A's lowest core index is 0
    pts = np.array(a_far[:1] + b + a_near + a_far[1:] + border, dtype=float)
    labels = dbscan(pts, 3.0, 4)
    assert labels.tolist() == [0, 1, 1, 1, 1, 0, 0, 0, 0]
    assert np.array_equal(labels, reference_dbscan(pts, 3.0, 4))
    pts = np.array(border + b + a_near + a_far, dtype=float)  # border first: noise until reached
    labels = dbscan(pts, 3.0, 4)
    assert labels.tolist() == [0, 0, 0, 0, 0, 1, 1, 1, 1]
    assert np.array_equal(labels, reference_dbscan(pts, 3.0, 4))


def test_dbscan_empty_set():
    labels = dbscan(np.empty((0, 3)), 3.0, 2)
    assert labels.shape == (0,) and labels.dtype.kind == "i"
    assert np.array_equal(labels, reference_dbscan(np.empty((0, 3)), 3.0, 2))


def test_dbscan_labels_equal_the_reference_beyond_one_chunk():
    pts = detector_like_points(np.random.default_rng(7), 700, n_blobs=6)
    assert len(pts) > 1024
    assert np.array_equal(dbscan(pts, 3.0, 5), reference_dbscan(pts, 3.0, 5))


@pytest.mark.parametrize("n", [DBSCAN_CHUNK_ROWS - 1, DBSCAN_CHUNK_ROWS, DBSCAN_CHUNK_ROWS + 1,
                               3 * DBSCAN_CHUNK_ROWS + 7])
def test_dbscan_labels_equal_the_reference_across_chunk_edges(n):
    # neighbour pairs are found DBSCAN_CHUNK_ROWS points at a time; a partial
    # last chunk reuses the first rows of the distance buffer
    pts = detector_like_points(np.random.default_rng(n), 200, n_blobs=3)[:n]
    assert len(pts) == n
    assert np.array_equal(dbscan(pts, 3.0, 5), reference_dbscan(pts, 3.0, 5))


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

AXES = (np.linspace(-70, 70, 8), np.linspace(-10, 10, 16), np.linspace(0, 62, 32))


def with_powers(cells, labels, powers):
    """Summarize cells with the given per-cell powers over the AXES grid."""
    return summarize_clusters(cells, labels, powers, *AXES)


def test_summarize_single_cluster_mean():
    angle, velocity, range_m = AXES
    cells, labels = [(2, 4, 10), (2, 4, 12)], [0, 0]
    (cand,) = with_powers(cells, labels, [2.0, 4.0])
    assert cand.range_m == pytest.approx((range_m[10] + range_m[12]) / 2)
    assert cand.angle_deg == pytest.approx(angle[2])
    assert cand.vel_mps == pytest.approx(velocity[4])
    assert cand.power == pytest.approx(6.0)
    assert cand.n_points == 2


def test_summarize_drops_noise_and_sorts_by_power():
    cells = [(0, 0, 5), (3, 3, 20), (5, 5, 25)]
    labels = [-1, 1, 0]
    cands = with_powers(cells, labels, [1.0, 9.0, 4.0])
    assert len(cands) == 2
    assert cands[0].power == 9.0 and cands[1].power == 4.0


def test_summarize_count_equals_cluster_count():
    rng = np.random.default_rng(4)
    cells = list(zip(rng.integers(0, 8, 30), rng.integers(0, 16, 30), rng.integers(0, 32, 30)))
    powers = rng.uniform(1, 5, 30)
    labels = rng.integers(-1, 4, 30)
    cands = with_powers(cells, labels.tolist(), powers)
    assert len(cands) == len(set(labels.tolist()) - {-1})


def test_summarize_rejects_misaligned_powers():
    with pytest.raises(ValueError):
        with_powers([(0, 0, 0), (1, 1, 1)], [0, 0], [1.0])


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


def test_single_object_gives_one_candidate_without_sidelobe_ghosts():
    # the angle sidelobes at the object's range and Doppler must not cluster
    # into candidates of their own
    cfg = FULL_MODE_RADAR
    obj = moving_obj(0, 60.0, 10.0, -8.0)
    (cand,) = detect_objects(synthesize_frame([obj], cfg, seed=0), FULL_MODE_DETECT)
    local_angle_bin = math.degrees(2.0 / 64) / math.cos(math.radians(obj.azimuth_deg))
    assert abs(cand.range_m - obj.range_m) <= cfg.range_bin_m
    assert abs(cand.vel_mps - obj.radial_velocity) <= cfg.doppler_bin_mps
    assert abs(cand.angle_deg - obj.azimuth_deg) <= local_angle_bin


def noise_frame(n_chirps, n_samples, seed, n_rx=4):
    """A noise-only frame from `sample_frame` (its one echo lies far below the noise)
    as `detect_map`'s first three arguments."""
    cfg = dataclasses.replace(small_radar(n_chirps, n_samples, n_rx), noise_floor=2.0)
    return *sample_frame([moving_obj(0, 40.0, 0.0, 3.0, refl=1e-300)], cfg, seed=seed), cfg


@pytest.mark.parametrize("source", ["cube", "spectra"])
def test_detect_objects_on_noise_follows_the_calibrated_pfa(source):
    # with a 4-point angle FFT every flagged cell of a noise-only map is one
    # cluster, so the candidate count follows the map's false-alarm rate;
    # "spectra" is the statistic `sample_frame` draws without a cube
    pfa = 1e-3
    cfg = DetectConfig(cfar_pfa=pfa, dbscan_min_pts=1, angle_fft_size=4)
    found = cells = 0
    for seed in range(4):
        if source == "cube":
            found += len(detect_objects(random_cube(128, 512, seed=20 + seed), cfg))
        else:
            found += len(detect_map(*noise_frame(128, 512, seed=20 + seed), cfg))
        cells += 128 * 512
    assert 0.5 * pfa * cells <= found <= 2.0 * pfa * cells


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_unfloored_cfar_flags_no_zero_doppler_cell(seed):
    # clutter removal leaves the zero-Doppler row at rounding residue, which
    # CA-CFAR without a floor flagged far above its pfa (0 m/s phantoms)
    cfg = dataclasses.replace(FULL_MODE_DETECT, cfar_floor_frac=0.0)
    cube = synthesize_frame([moving_obj(0, 40.0, 15.0, 6.0)], FULL_MODE_RADAR, seed=seed)
    spectra = _range_doppler(cube)
    rd = antenna_power(spectra)
    assert not spectra[:, 0].any()
    # row 0 of the FFT-ordered map is zero velocity: the flat indices below its length
    assert not (cfar_flags(rd, cfg, n_looks=len(spectra)) < rd.shape[1]).any()
    power, read_cells = sample_frame([moving_obj(0, 40.0, 15.0, 6.0)], FULL_MODE_RADAR, seed=seed)
    assert not power[0].any()
    for cands in (detect_objects(cube, cfg), detect_map(power, read_cells, FULL_MODE_RADAR, cfg)):
        assert cands and all(c.vel_mps != 0.0 for c in cands)


def test_detect_map_rejects_a_map_of_another_shape():
    power, read_cells, cfg = noise_frame(16, 64, seed=0)
    with pytest.raises(ValueError, match="map shape"):
        detect_map(power[:8], read_cells, cfg, DetectConfig())


def flags_read(power, read_cells, radar, cfg):
    """The (Doppler, range) cells that `detect_map` reads, in the order it reads them."""
    seen = []

    def record(d, r):
        seen.append((d, r))
        return read_cells(d, r)

    detect_map(power, record, radar, cfg)
    (cells,) = seen
    return cells


@pytest.mark.parametrize("n_chirps", [249, 16, 1, 2, 3])
def test_detect_map_reads_the_cfar_flags_in_centered_row_major_order(n_chirps):
    # 249 rows are seven 32-row CFAR blocks and a partial one of 25. The
    # centered order starts at FFT row n_chirps - n_chirps // 2: the last
    # row at 2 and 3 rows, past the whole map at 1
    power = np.random.default_rng(3).gamma(4.0, size=(n_chirps, 512))
    radar = small_radar(n_chirps, 512)
    cfg = DetectConfig(cfar_pfa=1e-2)
    d, r = np.nonzero(power > reference_cfar_threshold(power, cfg, radar.n_rx))
    centered = (d + n_chirps // 2) % n_chirps
    order = np.lexsort((r, centered))
    got_d, got_r = flags_read(power, lambda d, r: np.ones((radar.n_rx, len(d)), dtype=complex),
                              radar, cfg)
    assert np.array_equal(got_d, d[order]) and np.array_equal(got_r, r[order])
    split = n_chirps - n_chirps // 2
    assert (d < split).any() and ((d >= split).any() or n_chirps == 1)
    if n_chirps == 249:
        assert (d >= 7 * CFAR_BLOCK_ROWS).sum() >= 5


def test_detect_map_reads_no_cell_of_a_map_without_flags():
    radar = small_radar(249, 128)
    d, r = flags_read(np.zeros((249, 128)), lambda d, r: np.zeros((4, len(d)), dtype=complex),
                      radar, DetectConfig())
    assert d.shape == r.shape == (0,)


def test_detect_map_axes_are_cached_read_only_and_fresh():
    axes = _map_axes(FULL_MODE_RADAR, 64)
    assert _map_axes(dataclasses.replace(FULL_MODE_RADAR), 64) is axes
    for radar, size in ((FULL_MODE_RADAR, 64), (small_radar(249, 128), 16)):
        fresh = (_angle_axis(radar, size), _velocity_axis(radar),
                 np.arange(radar.n_samples) * radar.range_bin_m)
        for cached, want in zip(_map_axes(radar, size), fresh):
            assert not cached.flags.writeable
            assert cached.tobytes() == want.tobytes()


def test_full_mode_frame_working_set_is_one_block():
    # a six-object default-profile frame holds its 2-plane block (2,048,000
    # bytes) and nothing map-sized beside it: CFAR runs in row blocks and
    # DBSCAN pairs points in chunks, so every other buffer is small
    scene = [moving_obj(0, 40.0, -20.0, 8.0, refl=1.1), moving_obj(1, 25.5, 30.0, -5.0, refl=1.3),
             moving_obj(2, 63.4, 8.0, 3.3), moving_obj(3, 64.0, 9.5, 3.1, refl=0.9),
             moving_obj(4, 31.7, -12.0, -6.5), moving_obj(5, 79.9, -50.0, 2.0, refl=0.7)]
    # a first frame fills the caches that outlive it (FFT plans, the CFAR factor)
    detect_map(*sample_frame(scene, FULL_MODE_RADAR, seed=1), FULL_MODE_RADAR, FULL_MODE_DETECT)
    tracemalloc.start()
    try:
        power, read_cells = sample_frame(scene, FULL_MODE_RADAR, seed=1)
        cands = detect_map(power, read_cells, FULL_MODE_RADAR, FULL_MODE_DETECT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert power.nbytes == 1_024_000
    assert len(cands) >= 5
    assert peak <= 3_000_000


def test_one_object_frames_match_the_dense_oracle():
    # frame-level check of the sampled statistic: one object, a full-mode
    # detection profile, candidates per frame and points per candidate from
    # sample_frame against dense per-antenna spectra; bounds are 5 standard
    # errors of the frame count
    radar = RadarConfig(n_chirps=64, n_samples=256, noise_floor=100.0,
                        chirp_duration_s=256 / 16.666e6 + 1e-6)
    obj = moving_obj(0, 45.0, 25.0, 6.0)
    n = 40
    counts, points = {}, {}
    for source in ("sampled", "dense"):
        per_frame, sizes = [], []
        for seed in range(n):
            if source == "sampled":
                cands = detect_map(*sample_frame([obj], radar, seed=seed), radar, FULL_MODE_DETECT)
            else:
                spectra = reference_spectra([obj], radar, seed)
                cands = detect_map(antenna_power(spectra), lambda d, r: spectra[:, d, r],
                                   radar, FULL_MODE_DETECT)
            per_frame.append(len(cands))
            sizes += [c.n_points for c in cands]
            # within the 2-bin gate that labels full-mode samples
            best = min(cands, key=lambda c: abs(c.range_m - obj.range_m))
            assert abs(best.range_m - obj.range_m) <= 2 * radar.range_bin_m
            assert abs(best.vel_mps - obj.radial_velocity) <= 2 * radar.doppler_bin_mps
        counts[source], points[source] = np.array(per_frame), np.array(sizes)
    for got, dense in (counts.values(), points.values()):
        se = math.sqrt(got.var() / len(got) + dense.var() / len(dense))
        assert abs(got.mean() - dense.mean()) <= 5 * se + 1.0 / n


def test_angle_fft_shorter_than_the_antenna_count_is_rejected():
    # a 2-point FFT of 4 antennas would crop two of them and misplace the object
    cube = synthesize_frame([moving_obj(0, 40.0, 30.0, 6.0)], small_radar(32, 128), seed=0)
    with pytest.raises(DetectConfigError, match="2 points is shorter than the 4 antennas"):
        detect_objects(cube, DetectConfig(angle_fft_size=2))
    with pytest.raises(DetectConfigError, match="2 points is shorter than the 4 antennas"):
        process_cube(cube, angle_fft_size=2)
    assert len(detect_objects(cube, DetectConfig(angle_fft_size=4))) == 1
    assert process_cube(cube, angle_fft_size=4).power.shape == (4, 32, 128)


def test_detect_objects_empty_on_silent_cube():
    from isac_ident.radar_frontend import RadarCube
    cfg = RadarConfig(n_rx=2, n_chirps=8, n_samples=64,
                      chirp_duration_s=64 / 16.666e6 + 1e-6)
    cube = RadarCube(data=np.zeros((2, 8, 64), dtype=complex), config=cfg)
    assert detect_objects(cube, DetectConfig()) == []
