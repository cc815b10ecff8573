import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isac_ident.scene import (
    CommConfig,
    array_response,
    channel_from_paths,
    dft_codebook,
    optimal_beam,
    path_loss_amplitude,
    sweep_beams,
    synthesize_channel,
)


# ---------------------------------------------------------------- array response

def test_array_response_broadside_is_all_ones():
    a = array_response(0.0, 4)
    assert np.allclose(a, np.ones(4))


def test_array_response_30deg_phase():
    # second element phase is pi * sin(30 deg) = pi/2
    a = array_response(30.0, 2, spacing=0.5)
    assert np.isclose(np.angle(a[1]), math.pi / 2)
    assert np.isclose(a[0], 1.0 + 0.0j)


def test_array_response_matches_per_element_recomputation():
    # oracle: direct scalar evaluation, element by element
    theta, n = 17.0, 8
    a = array_response(theta, n)
    for m in range(n):
        expected = cmath.exp(1j * 2.0 * math.pi * 0.5 * m * math.sin(math.radians(theta)))
        assert abs(a[m] - expected) < 1e-12


@pytest.mark.parametrize("theta", [-90.001, 90.001, 180.0])
def test_array_response_rejects_out_of_range(theta):
    with pytest.raises(ValueError):
        array_response(theta, 4)


def test_array_response_elements_unit_modulus():
    a = array_response(-41.3, 16, spacing=0.7)
    assert np.allclose(np.abs(a), 1.0)


# ---------------------------------------------------------------- codebook

def test_codebook_single_beam():
    cb = dft_codebook(1, 1)
    assert cb.pointing_angles.tolist() == [-90.0]
    assert np.allclose(cb.vectors, [[1.0 + 0.0j]])


def test_codebook_matched_beam_attains_array_gain():
    n, b = 8, 16
    cb = dft_codebook(n, b)
    for i in range(b):
        h = array_response(cb.pointing_angles[i], n)
        assert np.isclose(sweep_beams(h, cb, CommConfig())[i], n)


def test_codebook_angle_grid():
    # oracle: asin of the left-closed uniform grid over [-1, 1)
    cb = dft_codebook(4, 8)
    grid = np.linspace(-1.0, 1.0, 9)[:-1]
    assert np.allclose(cb.pointing_angles, np.degrees(np.arcsin(grid)))


def test_codebook_unit_norm_and_increasing():
    cb = dft_codebook(16, 32)
    assert np.allclose(np.linalg.norm(cb.vectors, axis=1), 1.0)
    assert np.all(np.diff(cb.pointing_angles) > 0)


# ---------------------------------------------------------------- channel

def test_channel_single_path_broadside():
    h = channel_from_paths([1.0], [0.0], 4)
    assert np.allclose(h, np.ones(4))


def test_channel_two_paths_hand_summed():
    # oracle: explicit two-term sum, scalar arithmetic per element
    alphas = [0.8 - 0.2j, 0.1 + 0.3j]
    thetas = [10.0, -25.0]
    h = channel_from_paths(alphas, thetas, 4)
    for m in range(4):
        expected = sum(
            a * cmath.exp(1j * math.pi * m * math.sin(math.radians(t)))
            for a, t in zip(alphas, thetas)
        )
        assert abs(h[m] - expected) < 1e-12


def test_synthesized_channel_free_space_law():
    cfg = CommConfig(n_antennas=8)
    h_near = synthesize_channel(0.0, 25.0, cfg, seed=3)
    h_far = synthesize_channel(0.0, 50.0, cfg, seed=3)
    # amplitude halves when the range doubles, so power gain is quartered
    ratio = np.linalg.norm(h_far) / np.linalg.norm(h_near)
    assert np.isclose(ratio, 0.5)


def test_free_space_amplitude_exact():
    for d in (1.0, 13.7, 200.0):
        assert path_loss_amplitude(2 * d) / path_loss_amplitude(d) == 0.5


@pytest.mark.parametrize("azimuth", [-90.5, 90.5, 180.0])
def test_synthesize_channel_rejects_user_behind_array(azimuth):
    with pytest.raises(ValueError, match="behind the array"):
        synthesize_channel(azimuth, 20.0, CommConfig())


def test_synthesize_channel_deterministic():
    cfg = CommConfig(n_antennas=16, n_paths=3)
    assert np.array_equal(synthesize_channel(14.0, 41.2, cfg, seed=9),
                          synthesize_channel(14.0, 41.2, cfg, seed=9))


# ---------------------------------------------------------------- beam gains

def test_beam_gains_self_beam_wins_in_orthogonal_codebook():
    cb = dft_codebook(64, 64)
    gains = sweep_beams(cb.vectors[28], cb, CommConfig())
    assert optimal_beam(gains) == 28


def test_beam_gains_zero_channel():
    cb = dft_codebook(4, 8)
    assert np.all(sweep_beams(np.zeros(4, dtype=complex), cb, CommConfig()) == 0)


def test_beam_gains_matches_exhaustive_loop():
    # oracle: independent per-beam inner-product loop
    rng = np.random.default_rng(5)
    cb = dft_codebook(16, 64)
    h = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    gains = sweep_beams(h, cb, CommConfig())
    for b in range(64):
        expected = abs(np.sum(np.conj(h) * cb.vectors[b])) ** 2
        assert np.isclose(gains[b], expected)


def test_beam_gains_dimension_mismatch():
    cb = dft_codebook(8, 8)
    with pytest.raises(ValueError):
        sweep_beams(np.ones(4, dtype=complex), cb, CommConfig())


def test_sweep_is_exact_without_noise():
    cfg = CommConfig(n_antennas=8, n_beams=16, tx_gain=2.0, noise_var=0.0)
    cb = dft_codebook(8, 16)
    h = array_response(12.0, 8)
    expected = [2.0 * abs(np.sum(np.conj(h) * f)) ** 2 for f in cb.vectors]
    assert np.allclose(sweep_beams(h, cb, cfg, seed=1), expected)


# ---------------------------------------------------------------- optimal beam

def test_optimal_beam_basic():
    assert optimal_beam([0.1, 0.9, 0.3]) == 1


def test_optimal_beam_tie_breaks_low():
    assert optimal_beam([0.5, 0.5, 0.5]) == 0


def test_optimal_beam_matches_sort_oracle():
    rng = np.random.default_rng(11)
    gains = rng.random(64)
    assert optimal_beam(gains) == sorted(range(64), key=lambda i: (-gains[i], i))[0]


def test_optimal_beam_empty_errors():
    with pytest.raises(ValueError):
        optimal_beam([])


# ---------------------------------------------------------------- properties

@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    scale_re=st.floats(-5, 5, allow_nan=False),
    scale_im=st.floats(-5, 5, allow_nan=False),
)
def test_optimal_beam_invariant_to_channel_scaling(seed, scale_re, scale_im):
    scale = complex(scale_re, scale_im)
    if abs(scale) < 1e-6:
        scale = 1.0 + 1.0j
    rng = np.random.default_rng(seed)
    cb = dft_codebook(8, 32)
    h = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    gains = sweep_beams(h, cb, CommConfig())
    assert optimal_beam(gains) == optimal_beam(sweep_beams(scale * h, cb, CommConfig()))


@settings(max_examples=60, deadline=None)
@given(beam=st.integers(0, 31))
def test_single_path_at_pointing_angle_selects_that_beam(beam):
    # oversampled codebook: a lone path on the beam grid picks that beam
    cb = dft_codebook(16, 32)
    h = channel_from_paths([1.0 + 0.5j], [cb.pointing_angles[beam]], 16)
    assert optimal_beam(sweep_beams(h, cb, CommConfig())) == beam


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), phase=st.floats(0, 2 * math.pi))
def test_beam_gains_invariant_to_global_phase(seed, phase):
    rng = np.random.default_rng(seed)
    cb = dft_codebook(8, 16)
    h = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    rotated = h * np.exp(1j * phase)
    assert np.allclose(sweep_beams(h, cb, CommConfig()), sweep_beams(rotated, cb, CommConfig()),
                       rtol=1e-9, atol=1e-12)
