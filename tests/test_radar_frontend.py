import cmath
import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from isac_ident import radar_frontend
from isac_ident.radar_detect import _angle_power, _range_doppler, antenna_power
from isac_ident.radar_frontend import (
    C0,
    CubeFormatError,
    RadarConfig,
    RadarCube,
    if_tone,
    load_cube,
    sample_frame,
    save_cube,
    synthesize_frame,
)
from isac_ident.scene import SceneObject
from isac_ident.seeding import child_rng, child_seed

SMALL = RadarConfig(n_chirps=16, n_samples=64, n_rx=2,
                    chirp_duration_s=64 / 16.666e6 + 1e-6)


def static_obj(d, theta_deg=0.0, refl=1.0):
    x = d * math.sin(math.radians(theta_deg))
    y = d * math.cos(math.radians(theta_deg))
    return SceneObject(id=0, position=(x, y), velocity=(0.0, 0.0), reflectivity=refl)


def moving_obj(d, theta_deg, v_closing, refl=1.0):
    x = d * math.sin(math.radians(theta_deg))
    y = d * math.cos(math.radians(theta_deg))
    # velocity pointed at the radar gives a positive (closing) range rate
    return SceneObject(id=0, position=(x, y),
                       velocity=(-v_closing * x / d, -v_closing * y / d),
                       reflectivity=refl)


def range_bin(cfg, d):
    return 2.0 * d * cfg.slope_hz_per_s * cfg.n_samples / (C0 * cfg.sample_rate_hz)


# ---------------------------------------------------------------- config

def test_config_defaults_give_249m_max_range():
    cfg = RadarConfig()
    assert C0 * cfg.sample_rate_hz / (2 * cfg.slope_hz_per_s) == pytest.approx(249.8, abs=0.5)
    assert cfg.slope_hz_per_s * cfg.chirp_duration_s == pytest.approx(310e6)


def test_config_rejects_sampling_longer_than_chirp():
    with pytest.raises(ValueError):
        RadarConfig(n_samples=1024, sample_rate_hz=16.666e6, chirp_duration_s=31e-6)


def test_cube_shape_must_match_config():
    with pytest.raises(ValueError):
        RadarCube(data=np.zeros((1, 2, 3), dtype=complex), config=SMALL)


# ---------------------------------------------------------------- IF tone

def test_if_tone_at_origin_cell():
    d = 30.0
    tau = 2.0 * d / C0
    tone = if_tone(static_obj(d, refl=1.7), SMALL, antenna=0, chirp=0, sample=0)
    expected = 1.7 * cmath.exp(1j * (2 * math.pi * SMALL.carrier_hz * tau
                                     - math.pi * SMALL.slope_hz_per_s * tau ** 2))
    assert abs(tone - expected) < 1e-9


def test_if_tone_beat_frequency_phase_slope():
    # finite-difference phase slope across fast time equals mu * 2d/c
    d = 48.0
    obj = static_obj(d)
    t0 = if_tone(obj, SMALL, 0, 0, 10)
    t1 = if_tone(obj, SMALL, 0, 0, 11)
    slope_hz = np.angle(t1 / t0) * SMALL.sample_rate_hz / (2 * math.pi)
    assert slope_hz == pytest.approx(SMALL.slope_hz_per_s * 2 * d / C0, rel=1e-9)


def test_range_fft_peak_bin_100():
    # 48.83 m with the default profile sits at bin 100 (bin width 0.4883 m)
    cfg = RadarConfig(n_rx=1, n_chirps=1)
    d = 48.83
    tone = np.array([if_tone(static_obj(d), cfg, 0, 0, i) for i in range(cfg.n_samples)])
    peak = int(np.argmax(np.abs(np.fft.fft(tone))))
    assert round(range_bin(cfg, d)) == 100
    assert abs(peak - 100) <= 1


def test_synthesize_frame_matches_per_element_tones():
    obj = moving_obj(40.0, 25.0, 4.0, refl=0.6)
    cube = synthesize_frame([obj], SMALL, seed=0)
    for m, l, i in [(0, 0, 0), (1, 3, 17), (0, 15, 63), (1, 9, 31)]:
        assert cube.data[m, l, i] == pytest.approx(if_tone(obj, SMALL, m, l, i), rel=1e-10)


def test_synthesize_frame_matches_tone_sums_at_default_config():
    # far objects carry ~7.7e5 rad of carrier phase, where one ulp is ~1e-10
    cfg = RadarConfig()
    scene = [moving_obj(240.0, -35.0, 12.0, refl=0.8), moving_obj(5.5, 60.0, -14.0, refl=1.3),
             moving_obj(123.4, 8.0, 3.3), moving_obj(199.9, -70.0, -0.7, refl=0.7)]
    cube = synthesize_frame(scene, cfg, seed=0)
    scale = sum(obj.reflectivity for obj in scene)
    rng = np.random.default_rng(0)
    for _ in range(300):
        m, l, i = (int(rng.integers(n)) for n in (cfg.n_rx, cfg.n_chirps, cfg.n_samples))
        want = sum(if_tone(obj, cfg, m, l, i) for obj in scene)
        assert abs(cube.data[m, l, i] - want) <= 1e-9 * scale


def test_frame_noise_is_the_seeded_draws():
    quiet = RadarConfig(n_chirps=16, n_samples=64, n_rx=3,
                        chirp_duration_s=64 / 16.666e6 + 1e-6)
    noisy = RadarConfig(n_chirps=16, n_samples=64, n_rx=3, noise_floor=50.0,
                        chirp_duration_s=64 / 16.666e6 + 1e-6)
    scene = [moving_obj(30.0, 5.0, -3.0), static_obj(80.0, -20.0)]
    noise = synthesize_frame(scene, noisy, seed=9).data - synthesize_frame(scene, quiet, seed=9).data
    rng = child_rng(9, "frame-noise")
    shape = (3, 16, 64)
    real, imag = rng.standard_normal(shape), rng.standard_normal(shape)
    assert np.allclose(noise.real, 5.0 * real, rtol=0, atol=1e-12)
    assert np.allclose(noise.imag, 5.0 * imag, rtol=0, atol=1e-12)


def test_synthesize_frame_holds_the_cube_and_one_draw_plane():
    # the default profile's cube is 8,192,000 bytes and a draw plane
    # 1,024,000; drawing the whole cube's noise at once peaks above 12 MB
    cfg = RadarConfig(noise_floor=1000.0)
    scene = [moving_obj(30.0, -20.0, 5.0), moving_obj(60.0, 10.0, -8.0), static_obj(90.0, 35.0)]
    # a first frame imports what the noise draws load lazily (about 0.7 MB)
    synthesize_frame(scene, cfg, seed=1)
    tracemalloc.start()
    try:
        synthesize_frame(scene, cfg, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000


def test_superposition_of_objects():
    a = static_obj(25.0, 10.0)
    b = moving_obj(60.0, -30.0, 8.0)
    both = synthesize_frame([a, b], SMALL, seed=1)
    alone = synthesize_frame([a], SMALL, seed=1).data + synthesize_frame([b], SMALL, seed=1).data
    assert np.allclose(both.data, alone, rtol=1e-12, atol=1e-12)


def test_seeded_frame_bit_identical():
    cfg = RadarConfig(n_chirps=8, n_samples=32, n_rx=2, noise_floor=0.5,
                      chirp_duration_s=32 / 16.666e6 + 1e-6)
    scene = [moving_obj(30.0, 5.0, -3.0)]
    c1 = synthesize_frame(scene, cfg, seed=42)
    c2 = synthesize_frame(scene, cfg, seed=42)
    assert np.array_equal(c1.data, c2.data)


def test_empty_scene_rejected():
    with pytest.raises(ValueError):
        synthesize_frame([], SMALL)
    with pytest.raises(ValueError):
        sample_frame([], SMALL)


# ------------------------------------------------- frames without a cube

SPECTRA_CASES = {
    # a static object's echo is all clutter, so only the moving one survives
    "static-object": (RadarConfig(n_chirps=16, n_samples=64, n_rx=4,
                                  chirp_duration_s=64 / 16.666e6 + 1e-6),
                      [static_obj(40.0, 20.0, refl=1.3), moving_obj(25.0, -10.0, 5.0)]),
    "one-antenna": (RadarConfig(n_chirps=16, n_samples=64, n_rx=1,
                                chirp_duration_s=64 / 16.666e6 + 1e-6),
                    [moving_obj(30.0, 5.0, -3.0), moving_obj(70.0, -40.0, 9.0, refl=0.7)]),
    "odd-chirps": (RadarConfig(n_chirps=33, n_samples=96, n_rx=3,
                               chirp_duration_s=96 / 16.666e6 + 1e-6),
                   [moving_obj(50.0, 30.0, 7.0), moving_obj(12.0, -5.0, -2.0)]),
    "default-profile": (RadarConfig(),
                        [moving_obj(240.0, -35.0, 12.0, refl=0.8),
                         moving_obj(5.5, 60.0, -14.0, refl=1.3), moving_obj(123.4, 8.0, 3.3),
                         static_obj(199.9, -70.0, refl=0.7)]),
    # six objects, the most a default scene holds: a 72-column echo product
    "six-objects": (RadarConfig(),
                    [moving_obj(240.0, -35.0, 12.0, refl=0.8),
                     moving_obj(5.5, 60.0, -14.0, refl=1.3), moving_obj(123.4, 8.0, 3.3),
                     moving_obj(124.0, 9.5, 3.1, refl=0.9), moving_obj(61.7, -12.0, -6.5),
                     static_obj(199.9, -70.0, refl=0.7)]),
}


@pytest.mark.parametrize("case", SPECTRA_CASES)
def test_noise_free_spectra_equal_the_cube_path(case):
    # without noise the map is the cube path's antenna-summed power and the
    # cells are its per-antenna spectra, read here at every cell
    cfg, scene = SPECTRA_CASES[case]
    want = _range_doppler(synthesize_frame(scene, cfg, seed=0))
    power, read_cells = sample_frame(scene, cfg, seed=0)
    assert power.shape == (cfg.n_chirps, cfg.n_samples)
    assert not power[0].any()
    want_power = antenna_power(want)
    assert np.abs(power - want_power).max() <= 1e-12 * want_power.max()
    d, r = np.indices(power.shape).reshape(2, -1)
    cells = read_cells(d, r)
    assert cells.shape == (cfg.n_rx, d.size)
    assert np.abs(cells - want[:, d, r]).max() <= 1e-12 * np.abs(want).max()


def test_echo_power_is_clamped_at_zero(monkeypatch):
    # an object and its negated copy cancel exactly, so the true echo is 0
    # everywhere; the pairwise product leaves rounding residue of either sign,
    # which must not reach the map (or the sqrt of a noisy frame) below 0
    cfg = RadarConfig()
    scene = [moving_obj(80.0, 15.0, 6.0, refl=1.2)]
    antenna, doppler, fast = radar_frontend._spectral_factors(scene, cfg)
    peak = sample_frame(scene, cfg)[0].max()
    monkeypatch.setattr(radar_frontend, "_spectral_factors", lambda scene, cfg: (
        np.vstack([antenna, -antenna]), np.vstack([doppler, doppler]), np.vstack([fast, fast])))
    power, _ = sample_frame(scene, cfg)
    assert power.min() >= 0.0
    assert power.max() <= 1e-12 * peak
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        power, _ = sample_frame(scene, dataclasses.replace(cfg, noise_floor=1.0))
    assert np.isfinite(power).all()


@pytest.mark.parametrize("noise_floor", [0.0, 1000.0])
def test_frame_block_needs_no_zeroed_memory(monkeypatch, noise_floor):
    # the frame's block comes from np.empty: every cell that the map or the
    # cell reader reads is written first, so memory full of NaN gives the
    # same bits; the cells read include Doppler bin 0
    cfg, scene = SPECTRA_CASES["six-objects"]
    cfg = dataclasses.replace(cfg, noise_floor=noise_floor)
    d, r = np.array([0, 0, 1, 17, 125, 249]), np.array([0, 511, 3, 200, 64, 511])
    want_power, want_read = sample_frame(scene, cfg, seed=5)
    want_cells = want_read(d, r)
    empty = np.empty

    def nan_empty(*args, **kwargs):
        out = empty(*args, **kwargs)
        if out.dtype.kind in "fc":
            out.fill(np.nan)
        return out

    monkeypatch.setattr(np, "empty", nan_empty)
    power, read_cells = sample_frame(scene, cfg, seed=5)
    cells = read_cells(d, r)
    monkeypatch.undo()
    assert not power[0].any()
    assert np.array_equal(power, want_power)
    assert np.array_equal(cells, want_cells)


def faint_scene():
    # one echo far below any noise draw: its power underflows to 0, so the
    # noisy map holds the noise bits alone
    return [moving_obj(40.0, 10.0, 3.0, refl=1e-300)]


def test_spectra_noise_is_the_seeded_draws():
    # draw order: U0 over Doppler bins 1 and up, then the n_rx uniform
    # planes; per cell read, X, Y and U of the direction's cosine, then 2 n_rx
    # normals. The faint echo reaches no cell's 2 sigma^2 U0, so no cell
    # draws a Poisson count, and its direction is uniform (kappa ~ 0)
    cfg = RadarConfig(n_chirps=16, n_samples=64, n_rx=3, noise_floor=50.0,
                      chirp_duration_s=64 / 16.666e6 + 1e-6)
    power, read_cells = sample_frame(faint_scene(), cfg, seed=9)
    d, r = np.array([3, 15, 1, 3]), np.array([0, 63, 17, 40])
    cells = read_cells(d, r)

    rng = np.random.Generator(np.random.SFC64(child_seed(9, "frame-noise")))
    var = 50.0 * 16 * 64 / 2.0
    rng.random((15, 64))                                   # U0
    base = 1.0 - rng.random((15, 64))
    for _ in range(2):
        base *= 1.0 - rng.random((15, 64))
    want_power = np.zeros((16, 64))
    want_power[1:] = np.log(base) * (-2.0 * var)
    assert np.array_equal(power, want_power)

    _, echo_cells = sample_frame(faint_scene(), dataclasses.replace(cfg, noise_floor=0.0))
    x = np.ascontiguousarray(echo_cells(d, r).T).view(float)
    s_hat = x / np.hypot.reduce(x, axis=1, keepdims=True)
    gx, gy = rng.standard_gamma(2.5, 4), rng.standard_gamma(2.5, 4)
    rng.random(4)                                          # U: at kappa ~ 0 every proposal is kept
    w, sin2 = (gy - gx) / (gy + gx), 4.0 * gx * gy / (gy + gx) ** 2
    v = rng.standard_normal((4, 6))
    v -= s_hat * (v * s_hat).sum(axis=1, keepdims=True)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    m = power[d, r]
    want = (np.sqrt(m) * w)[:, None] * s_hat + np.sqrt(m * sin2)[:, None] * v
    assert np.allclose(cells, want.view(complex).T, rtol=1e-12, atol=1e-12 * math.sqrt(var))


def test_spectra_noise_past_the_uniform_factors_is_one_gamma_draw():
    # above radar_frontend._MAX_UNIFORM_FACTORS antennas the map's noise plane
    # is one standard_gamma(n_rx) draw, chi^2(2 n_rx) / 2, times 2 sigma^2
    cfg = RadarConfig(n_chirps=16, n_samples=64, n_rx=9, noise_floor=50.0,
                      chirp_duration_s=64 / 16.666e6 + 1e-6)
    assert cfg.n_rx > radar_frontend._MAX_UNIFORM_FACTORS
    power, _ = sample_frame(faint_scene(), cfg, seed=9)
    rng = np.random.Generator(np.random.SFC64(child_seed(9, "frame-noise")))
    var = 50.0 * 16 * 64 / 2.0
    rng.random((15, 64))                                   # U0
    want_power = np.zeros((16, 64))
    want_power[1:] = rng.standard_gamma(9, (15, 64)) * (2.0 * var)
    assert np.array_equal(power, want_power)

    for scene in (faint_scene(), [moving_obj(40.0, 10.0, 3.0, refl=1e3)]):
        power, _ = sample_frame(scene, dataclasses.replace(cfg, n_rx=24), seed=9)
        assert np.isfinite(power).all() and (power[1:] > 0).all() and not power[0].any()


def test_spectra_noise_power_per_cell():
    # a noise-only map cell sums 2 n_rx squared N(0, sigma^2) axes, sigma^2 =
    # noise_floor * n_chirps * n_samples / 2: mean 2 n_rx sigma^2, and
    # variance over mean squared 2 / (2 n_rx) (chi^2 with 2 n_rx degrees);
    # Doppler bin 0 is exactly 0
    cfg = RadarConfig(n_chirps=64, n_samples=256, n_rx=4, noise_floor=3.0,
                      chirp_duration_s=256 / 16.666e6 + 1e-6)
    power, _ = sample_frame(faint_scene(), cfg, seed=4)
    assert np.all(power[0] == 0.0)
    mean = 2 * 4 * (3.0 * 64 * 256 / 2.0)
    # 16128 cells of relative spread 1/2: the mean is within 2 % at 5 standard
    # errors, the variance ratio within 10 % at 6.8 (chi^2(8) kurtosis 4.5)
    assert power[1:].mean() == pytest.approx(mean, rel=0.02)
    assert power[1:].var() / mean ** 2 == pytest.approx(2 / 8, rel=0.10)


def dense_cells(s, sigma, n, rng):
    """n draws of echo `s` (n_rx complex) plus white noise of variance sigma^2 per real axis."""
    shape = (len(s), n)
    return s[:, None] + sigma * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def sampled_cells(scene, cfg, cell, seeds):
    """The cell's antenna samples, one frame per seed, shape (n_rx, len(seeds))."""
    d, r = np.array([cell[0]]), np.array([cell[1]])
    return np.hstack([sample_frame(scene, cfg, seed=seed)[1](d, r) for seed in seeds])


@pytest.mark.parametrize("snr", [0.0, 1.0, 12.0])
def test_sampled_cell_matches_the_dense_draws(snr):
    # a read cell is its echo plus white circular noise: the residual over
    # sigma is N(0, I) in R^(2 n_rx), |x|^2 / sigma^2 is noncentral
    # chi^2(2 n_rx, |s|^2 / sigma^2), and the angle-FFT peak lands where the
    # dense draws' does; every bound is 5 standard errors of n draws
    n, n_rx = 1500, 4
    cfg = RadarConfig(n_chirps=16, n_samples=64, n_rx=n_rx, noise_floor=2.0,
                      chirp_duration_s=64 / 16.666e6 + 1e-6)
    sigma = math.sqrt(2.0 * 16 * 64 / 2.0)
    quiet = dataclasses.replace(cfg, noise_floor=0.0)
    if snr == 0.0:
        scene = [static_obj(30.0, 20.0)]                   # all clutter: the echo is exactly 0
        cell = (5, 20)
    else:
        obj = moving_obj(30.0, 20.0, 6.0)
        echo_power, _ = sample_frame([obj], quiet)
        cell = np.unravel_index(np.argmax(echo_power), echo_power.shape)
        refl = snr * sigma / math.sqrt(echo_power[cell])
        scene = [moving_obj(30.0, 20.0, 6.0, refl=refl)]
    s = sample_frame(scene, quiet)[1](np.array([cell[0]]), np.array([cell[1]]))[:, 0]
    assert np.linalg.norm(s) == pytest.approx(snr * sigma, rel=1e-9, abs=0.0)

    got = sampled_cells(scene, cfg, cell, range(n))
    dense = dense_cells(s, sigma, n, np.random.default_rng(99))
    for x in (got, dense):
        resid = np.ascontiguousarray(((x - s[:, None]) / sigma).T).view(float)  # (n, 2 n_rx)
        assert np.abs(resid.mean(axis=0)).max() <= 5 / math.sqrt(n)
        cov = resid.T @ resid / n
        off = cov - np.eye(2 * n_rx)
        assert np.abs(np.diag(off)).max() <= 5 * math.sqrt(2 / n)
        assert np.abs(off - np.diag(np.diag(off))).max() <= 5 / math.sqrt(n)
        energy = (np.abs(x) ** 2).sum(axis=0) / sigma ** 2
        # cumulants of noncentral chi^2(k, lam): 2^(j-1) (j-1)! (k + j lam)
        k, lam = 2 * n_rx, snr ** 2
        var, kappa4 = 2 * (k + 2 * lam), 48 * (k + 4 * lam)
        assert abs(energy.mean() - (k + lam)) <= 5 * math.sqrt(var / n)
        assert abs(energy.var() - var) <= 5 * math.sqrt((kappa4 + 2 * var ** 2) / n)
    peak_got = np.argmax(_angle_power(got, 64), axis=0)
    peak_dense = np.argmax(_angle_power(dense, 64), axis=0)
    if snr > 0:
        # the share of draws whose angle peak sits on the echo's own peak bin
        home = np.argmax(_angle_power(s[:, None], 64)[:, 0])
        p_got, p_dense = np.mean(peak_got == home), np.mean(peak_dense == home)
        p = (p_got + p_dense) / 2
        assert abs(p_got - p_dense) <= 5 * math.sqrt(2 * p * (1 - p) / n) + 1e-12
    # the peak bins spread alike: mean absolute distance to the dense draws' median bin
    med = np.median(peak_dense)
    spread_got, spread_dense = np.abs(peak_got - med), np.abs(peak_dense - med)
    se = math.sqrt((spread_got.var() + spread_dense.var()) / n)
    assert abs(spread_got.mean() - spread_dense.mean()) <= 5 * se + 1e-12


# ------------------------------------------------- the law of a sampled cell

# c(0.01) of the two-sample Kolmogorov-Smirnov test: D > c sqrt((n + m) / (n m))
# rejects equal laws at the 1 % level
KS_C_1PCT = math.sqrt(-math.log(0.01 / 2) / 2)


def ks_distance(a, b):
    """Two-sample Kolmogorov-Smirnov statistic: the largest gap between the empirical CDFs."""
    a, b = np.sort(a), np.sort(b)
    both = np.concatenate([a, b])
    gap = np.searchsorted(a, both, "right") / a.size - np.searchsorted(b, both, "right") / b.size
    return np.abs(gap).max()


def assert_same_law(got, want):
    assert ks_distance(got, want) <= KS_C_1PCT * math.sqrt(2.0 / got.size)


def constant_echo_frame(monkeypatch, lam, n_rx, seed, read=False):
    """A 401 x 500 noisy frame whose 200,000 noisy cells all hold the echo (|s|, 0, ...).

    `_spectral_factors` is one object with flat Doppler and range factors,
    so every cell's echo is its antenna vector, with |s|^2 = lam sigma^2.
    Returns |s| / sigma, the noisy map cells over sigma^2 and, if `read`,
    those cells as read, over sigma, shaped (cells, 2 n_rx).
    """
    n_chirps, n_samples = 401, 500
    cfg = RadarConfig(n_chirps=n_chirps, n_samples=n_samples, n_rx=n_rx, noise_floor=1.0,
                      chirp_duration_s=n_samples / 16.666e6 + 1e-6)
    sigma = math.sqrt(n_chirps * n_samples / 2.0)
    antenna = np.zeros((1, n_rx), dtype=complex)
    antenna[0, 0] = math.sqrt(lam) * sigma
    monkeypatch.setattr(radar_frontend, "_spectral_factors", lambda scene, cfg: (
        antenna, np.ones((1, n_chirps), dtype=complex), np.ones((1, n_samples), dtype=complex)))
    power, read_cells = sample_frame(faint_scene(), cfg, seed=seed)
    cells = power[1:].ravel() / sigma ** 2
    if not read:
        return antenna[0, 0].real / sigma, cells, None
    d, r = np.divmod(np.arange(n_samples, n_chirps * n_samples), n_samples)
    x = np.ascontiguousarray(read_cells(d, r).T).view(float) / sigma
    # a read cell is the map cell split in two: |x|^2 is the map's value
    assert np.allclose((x * x).sum(axis=1), cells, rtol=1e-12, atol=0.0)
    return antenna[0, 0].real / sigma, cells, x


@pytest.mark.parametrize("n_rx,lam", [
    (n_rx, lam) for n_rx in (1, 4) for lam in (0.0, 1e-3, 1.99, 2.01, 400.0, 3000.0)
] + [(9, 0.0), (9, 1.99)])
def test_map_cell_has_the_law_of_the_two_draw_construction(monkeypatch, lam, n_rx):
    # weak cells (lam <= 2) are Poisson mixtures of central chi^2, strong ones
    # (|s| + sigma z)^2 + sigma^2 q: each must be noncentral chi^2(2 n_rx,
    # lam), the law of (a + z)^2 + 2 Gamma(n_rx - 1/2) with a = |s| / sigma;
    # weak cells of nine antennas draw their central part as one Gamma(9)
    a, cells, _ = constant_echo_frame(monkeypatch, lam, n_rx, seed=int(lam) + n_rx)
    rng = np.random.default_rng(25)
    want = (a + rng.standard_normal(cells.size)) ** 2 + 2.0 * rng.standard_gamma(
        n_rx - 0.5, cells.size)
    assert_same_law(cells, want)


@pytest.mark.parametrize("n_rx", [1, 4])
@pytest.mark.parametrize("lam", [0.0, 1.0, 9.0, 144.0, 2000.0])
def test_read_cell_splits_into_a_normal_along_the_echo_and_a_chi2_across(monkeypatch, lam,
                                                                        n_rx):
    # x / sigma ~ N(s / sigma, I): its part along s_hat (the first axis here)
    # is N(a, 1), its squared part across it chi^2(2 n_rx - 1), the two
    # independent, whatever kappa the von Mises-Fisher split ran at
    a, _, x = constant_echo_frame(monkeypatch, lam, n_rx, seed=7 + n_rx, read=True)
    along, across = x[:, 0], (x[:, 1:] ** 2).sum(axis=1)
    rng = np.random.default_rng(26)
    assert_same_law(along, a + rng.standard_normal(along.size))
    assert_same_law(across, rng.chisquare(2 * n_rx - 1, across.size))
    assert abs(np.corrcoef(along, across)[0, 1]) <= 5.0 / math.sqrt(along.size)


# ------------------------------------------------- spectra land on the physics

@pytest.mark.parametrize("d,v,theta", [(35.2, 6.0, 18.0), (80.0, -11.0, -40.0), (140.5, 2.5, 0.0)])
def test_single_object_spectrum_bins(d, v, theta):
    cfg = RadarConfig(n_rx=8, n_chirps=64, n_samples=256,
                      chirp_duration_s=256 / 16.666e6 + 1e-6)
    cube = synthesize_frame([moving_obj(d, theta, v)], cfg, seed=0)

    spec_r = np.abs(np.fft.fft(cube.data, axis=2)).sum(axis=(0, 1))
    assert abs(int(np.argmax(spec_r)) - round(range_bin(cfg, d))) <= 1

    spec_d = np.abs(np.fft.fft(cube.data, axis=1)).sum(axis=(0, 2))
    freqs = np.fft.fftfreq(cfg.n_chirps, d=cfg.chirp_interval_s)
    v_est = freqs[int(np.argmax(spec_d))] * C0 / (2 * cfg.carrier_hz)
    assert abs(v_est - v) <= cfg.doppler_bin_mps / 2 + 1e-9

    spec_a = np.abs(np.fft.fft(cube.data, n=64, axis=0)).sum(axis=(1, 2))
    u = np.fft.fftfreq(64) / cfg.rx_spacing
    sin_est = u[int(np.argmax(spec_a))]
    assert abs(sin_est - math.sin(math.radians(theta))) <= (2 / 64) / 2 + 1e-9


def test_negative_velocity_occupies_distinct_bin():
    cfg = RadarConfig(n_rx=1, n_chirps=64, n_samples=64,
                      chirp_duration_s=64 / 16.666e6 + 1e-6)
    away = synthesize_frame([moving_obj(50.0, 0.0, -6.0)], cfg, seed=0)
    toward = synthesize_frame([moving_obj(50.0, 0.0, 6.0)], cfg, seed=0)
    bin_away = int(np.argmax(np.abs(np.fft.fft(away.data, axis=1)).sum(axis=(0, 2))))
    bin_toward = int(np.argmax(np.abs(np.fft.fft(toward.data, axis=1)).sum(axis=(0, 2))))
    assert bin_away != bin_toward


# ---------------------------------------------------------------- cube files

def test_cube_roundtrip(tmp_path):
    cube = synthesize_frame([static_obj(20.0, -12.0)], SMALL, seed=7)
    path = tmp_path / "frame.rcub"
    save_cube(cube, path)
    loaded = load_cube(path, SMALL)
    # float32 storage: exact to single precision
    assert np.allclose(loaded.data, cube.data, atol=1e-6)


def test_cube_header_layout(tmp_path):
    cube = synthesize_frame([static_obj(20.0)], SMALL, seed=0)
    path = tmp_path / "frame.rcub"
    save_cube(cube, path)
    raw = path.read_bytes()
    assert raw[:4] == b"RCUB"
    assert int.from_bytes(raw[4:8], "little") == 1
    dims = [int.from_bytes(raw[8 + 4 * k:12 + 4 * k], "little") for k in range(3)]
    assert dims == [SMALL.n_rx, SMALL.n_chirps, SMALL.n_samples]
    assert len(raw) == 20 + SMALL.n_rx * SMALL.n_chirps * SMALL.n_samples * 8


def test_load_cube_keeps_every_bit_of_the_file(tmp_path):
    # each float32 of the file widens exactly, signed zeros included (re +
    # 1j * im turned a -0.0 imaginary part into +0.0)
    cube = synthesize_frame([static_obj(20.0)], SMALL, seed=0)
    cube.data[0, 0, :4] = [complex(0.0, -0.0), complex(-0.0, 0.0),
                           complex(1.5, -0.0), complex(-0.0, 3.0e-38)]
    path = tmp_path / "frame.rcub"
    save_cube(cube, path)
    loaded = load_cube(path, SMALL).data
    want = cube.data.astype(np.complex64).astype(complex)
    assert loaded.dtype == complex and loaded.flags.c_contiguous
    assert loaded.tobytes() == want.tobytes()
    assert list(np.signbit(loaded[0, 0, :4].real)) == [False, True, False, True]
    assert list(np.signbit(loaded[0, 0, :4].imag)) == [True, False, True, False]


def test_save_cube_refuses_values_float32_cannot_hold(tmp_path):
    # 1e39 overflows float32 to inf, which load_cube would refuse
    cube = synthesize_frame([static_obj(20.0)], SMALL, seed=0)
    cube.data[0, 0, 0] = 1e39
    cube.data[1, 2, 3] = complex(0.5, math.nan)
    path = tmp_path / "frame.rcub"
    with pytest.raises(CubeFormatError, match="2 sample values"):
        save_cube(cube, path)
    assert not path.exists()


def test_load_cube_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.rcub"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CubeFormatError):
        load_cube(path, SMALL)


def test_load_cube_rejects_truncation(tmp_path):
    cube = synthesize_frame([static_obj(20.0)], SMALL, seed=0)
    path = tmp_path / "frame.rcub"
    save_cube(cube, path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(CubeFormatError):
        load_cube(path, SMALL)
