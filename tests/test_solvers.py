import functools
import struct
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_dnn_fit, reference_expand_to_rows, reference_forward

from isac_ident.dataset import ScenarioConfig, generate_dataset, split_by_sequence
from isac_ident.mlp import (
    ModelWidths,
    NormBounds,
    init_weights,
    load_model,
    save_model,
    score_candidates,
)
from isac_ident.radar_detect import Candidate
from isac_ident.scene import CommConfig, dft_codebook
from isac_ident.solvers import (
    SOLVER_NAMES,
    DnnSolver,
    Sample,
    SolverError,
    TableSolver,
    TrainConfig,
    estimate_offset,
    evaluate,
    expand_to_rows,
    make_solver,
    predict_dnn,
    predict_split,
    segment_argmax,
)

ANGLES = dft_codebook(16, 32).pointing_angles
COMM = CommConfig()
TINY = ModelWidths(radar=(8, 12, 16), beam=(8, 12, 16), head=(16, 8, 4))


def cand(a, r=50.0, v=0.0, power=1.0):
    return Candidate(range_m=r, angle_deg=float(np.clip(a, -90, 90)), vel_mps=v, power=power)


def reference_logits(model, feats, beams):
    """The head's clipped last-layer z of the reference forward pass."""
    _, (_, _, c_head) = reference_forward(model, feats, beams)
    return np.clip(c_head[-1][1][:, 0], -500.0, 500.0)


def fitted(name, train):
    solver = make_solver(name, ANGLES)
    solver.fit(train)
    return solver


def at_beam(b, *angles):
    """One labeled sample per target angle, all served by beam b."""
    return [Sample(sample_id=t, sequence_id=0, candidates=(cand(a),), b_star=b, label=0)
            for t, a in enumerate(angles)]


def offset_samples(psi0, n, rng, noise=0.0, n_decoys=2, decoy_sep=8.0):
    """Samples whose target radar angle is exactly beam angle + psi0 (+ noise)."""
    samples = []
    for t in range(n):
        b = int(rng.integers(4, 28))  # keep beams away from the asin endpoints
        target = ANGLES[b] + psi0 + (rng.normal(0, noise) if noise else 0.0)
        cands = [cand(target)]
        for _ in range(n_decoys):
            sep = decoy_sep * (1 if rng.random() < 0.5 else -1) * rng.uniform(1.0, 2.0)
            cands.append(cand(target + sep))
        order = rng.permutation(len(cands))
        label = int(np.flatnonzero(order == 0)[0])
        samples.append(Sample(sample_id=t, sequence_id=t % 4,
                              candidates=tuple(cands[i] for i in order),
                              b_star=b, label=label))
    return samples


# ---------------------------------------------------------------- offset

def test_estimate_offset_exact_on_shifted_data():
    rng = np.random.default_rng(0)
    train = offset_samples(5.0, 200, rng)
    assert estimate_offset(train, ANGLES) == pytest.approx(5.0, abs=1e-9)


def test_estimate_offset_zero_on_aligned_data():
    rng = np.random.default_rng(1)
    train = offset_samples(0.0, 100, rng)
    assert estimate_offset(train, ANGLES) == pytest.approx(0.0, abs=1e-9)


def test_estimate_offset_under_noise_monte_carlo():
    # mean estimator: |error| < 0.2 deg at sigma=1, T=500 (about 4.5 sigma/sqrt(T))
    rng = np.random.default_rng(2)
    for _ in range(5):
        train = offset_samples(3.0, 500, rng, noise=1.0)
        assert abs(estimate_offset(train, ANGLES) - 3.0) < 0.2


def test_estimate_offset_empty_errors():
    with pytest.raises(ValueError):
        estimate_offset([], ANGLES)


def test_predict_offset_picks_nearest():
    cands = (cand(-10.0), cand(0.5), cand(20.0))
    beam = int(np.argmin(np.abs(ANGLES)))  # beam pointing closest to 0 deg
    solver = fitted("offset", at_beam(beam, 0.0))
    assert solver.params["psi0"] == -float(ANGLES[beam])
    assert solver.predict(cands, beam) == 1


def test_predict_offset_single_candidate():
    solver = fitted("offset", at_beam(3, ANGLES[3]))
    assert solver.params["psi0"] == 0.0
    assert solver.predict((cand(45.0),), 3) == 0


def test_predict_offset_perfect_construction():
    # zero noise and a true offset: nearest-angle matching is exact
    rng = np.random.default_rng(3)
    samples = offset_samples(7.0, 1000, rng, noise=0.0, decoy_sep=6.0)
    solver = fitted("offset", samples)
    hits = sum(solver.predict(s.candidates, s.b_star) == s.label for s in samples)
    assert hits == 1000


def test_nearest_angle_tie_breaks_low():
    solver = fitted("offset", at_beam(12, 10.0))
    cands = (cand(10.0), cand(10.0), cand(50.0))
    assert solver.predict(cands, 12) == 0


# ---------------------------------------------------------------- linear fits

def linear_samples(psi0, alpha, n, rng, noise=0.0):
    samples = []
    for t in range(n):
        b = int(rng.integers(2, 30))
        target = psi0 + alpha * ANGLES[b] + (rng.normal(0, noise) if noise else 0.0)
        cands = (cand(target), cand(target + 15.0))
        samples.append(Sample(sample_id=t, sequence_id=t % 3,
                              candidates=cands, b_star=b, label=0))
    return samples


def test_linreg_angle_recovers_exact_line():
    rng = np.random.default_rng(4)
    train = linear_samples(2.0, 0.95, 300, rng)
    params = fitted("linreg-angle", train).params
    assert params["intercept"] == pytest.approx(2.0, abs=1e-9)
    assert params["slope"] == pytest.approx(0.95, abs=1e-9)


def test_linreg_angle_alpha_one_reduces_to_offset():
    rng = np.random.default_rng(5)
    train = linear_samples(4.0, 1.0, 250, rng, noise=0.5)
    params = fitted("linreg-angle", train).params
    intercept, slope = params["intercept"], params["slope"]
    # with a unit slope the intercept is the plain mean offset
    shifted = estimate_offset(train, ANGLES)
    assert slope == pytest.approx(1.0, abs=0.02)
    assert intercept == pytest.approx(shifted, abs=0.25)


def test_linreg_angle_recovers_alpha_within_ols_error():
    rng = np.random.default_rng(6)
    sigma = 1.0
    train = linear_samples(1.0, 0.9, 400, rng, noise=sigma)
    x = ANGLES[[s.b_star for s in train]]
    se = sigma / np.sqrt(((x - x.mean()) ** 2).sum())  # closed-form OLS slope error
    slope = fitted("linreg-angle", train).params["slope"]
    assert abs(slope - 0.9) < 2 * se + 1e-12


def test_linreg_angle_rejects_degenerate_design():
    # The mean of 10 copies of beam 12's angle is exact; that of 120 copies of
    # beam 5's is not, so its centred design is rounding noise, not zero.
    for beam, n in ((12, 10), (5, 120)):
        samples = at_beam(beam, *[5.0] * n)
        for name in ("linreg-angle", "linreg-3d"):
            with pytest.raises(ValueError):
                fitted(name, samples)


def samples_3d(n, rng, angle_noise=0.0, r_slope=1.2, v_slope=0.1):
    samples = []
    for t in range(n):
        b = int(rng.integers(2, 30))
        phi = ANGLES[b]
        target = cand(phi + (rng.normal(0, angle_noise) if angle_noise else 0.0),
                      r=150.0 + r_slope * phi, v=v_slope * phi)
        decoy = cand(phi + 20.0, r=150.0 + r_slope * phi + 30.0, v=v_slope * phi + 5.0)
        samples.append(Sample(sample_id=t, sequence_id=t % 3,
                              candidates=(target, decoy), b_star=b, label=0))
    return samples


def test_linreg_3d_exact_linear_data_is_perfect():
    rng = np.random.default_rng(8)
    train = samples_3d(200, rng)
    solver = fitted("linreg-3d", train)
    hits = sum(solver.predict(s.candidates, s.b_star) == s.label for s in train)
    assert hits == len(train)


def test_linreg_3d_angle_dominates_when_other_axes_are_noisy():
    # inflate range/velocity residuals: the z-scored distance then follows angle
    rng = np.random.default_rng(9)
    train = []
    for t in range(300):
        b = int(rng.integers(2, 30))
        phi = ANGLES[b]
        target = cand(phi, r=rng.uniform(20, 200), v=rng.uniform(-15, 15))
        decoy = cand(phi + 12.0, r=rng.uniform(20, 200), v=rng.uniform(-15, 15))
        train.append(Sample(sample_id=t, sequence_id=t % 3,
                            candidates=(target, decoy), b_star=b, label=0))
    linreg_3d, linreg_angle = fitted("linreg-3d", train), fitted("linreg-angle", train)
    agree = 0
    for s in train:
        k3 = linreg_3d.predict(s.candidates, s.b_star)
        ka = linreg_angle.predict(s.candidates, s.b_star)
        agree += k3 == ka
    assert agree >= 0.99 * len(train)


# ---------------------------------------------------------------- lookup

def test_lookup_table_stores_per_beam_means():
    samples = at_beam(5, *[12.0] * 60)
    table = fitted("lookup", samples).params["table"]
    assert table[5] == pytest.approx(12.0)
    # unseen beams fall back to beam angle + global offset
    psi0 = estimate_offset(samples, ANGLES)
    assert table[20] == pytest.approx(ANGLES[20] + psi0)


def test_lookup_single_sample_per_beam():
    rng = np.random.default_rng(11)
    samples, want = [], {}
    for t, b in enumerate(range(8, 16)):
        a = float(rng.uniform(-30, 30))
        want[b] = a
        samples.append(Sample(sample_id=t, sequence_id=0,
                              candidates=(cand(a),), b_star=b, label=0))
    table = fitted("lookup", samples).params["table"]
    for b, a in want.items():
        assert table[b] == pytest.approx(a)


def test_predict_lookup_nearest():
    solver = fitted("lookup", at_beam(7, 3.0))
    assert solver.params["table"][7] == 3.0
    cands = (cand(-20.0), cand(2.0), cand(40.0))
    assert solver.predict(cands, 7) == 1


# ---------------------------------------------------------------- dnn

def fit_dnn(train, **hyper):
    """A DnnSolver of TINY widths fitted on `train` with TrainConfig(**hyper)."""
    solver = DnnSolver(ANGLES, TrainConfig(**hyper), TINY)
    solver.fit(train)
    return solver


def toy_train(rng, n=24):
    """Tiny separable task: the user is the candidate near the beam angle."""
    samples = []
    for t in range(n):
        b = int(rng.integers(4, 28))
        phi = ANGLES[b]
        user = cand(phi, r=40.0, v=5.0)
        decoy = cand(phi + 25.0, r=150.0, v=-12.0)
        pair = [user, decoy] if t % 2 == 0 else [decoy, user]
        samples.append(Sample(sample_id=t, sequence_id=t % 2,
                              candidates=tuple(pair), b_star=b, label=t % 2))
    return samples


def test_dnn_memorizes_toy_set():
    rng = np.random.default_rng(12)
    train = toy_train(rng)
    solver = fit_dnn(train, epochs=300, batch=8, seed=0)
    model, losses = solver.model, solver.epoch_losses
    assert losses[-1] < 1e-3
    for s in train:
        assert predict_dnn(s.candidates, s.b_star, model) == s.label


def test_dnn_loss_decreases_early():
    rng = np.random.default_rng(13)
    train = toy_train(rng, n=60)
    losses = fit_dnn(train, epochs=5, batch=8, seed=1).epoch_losses
    assert len(losses) == 5
    assert all(np.isfinite(losses))
    assert losses[-1] < losses[0]


def test_dnn_training_deterministic():
    rng = np.random.default_rng(14)
    train = toy_train(rng)
    m1 = fit_dnn(train, epochs=20, batch=8, seed=3).model
    m2 = fit_dnn(train, epochs=20, batch=8, seed=3).model
    assert np.array_equal(m1.theta, m2.theta)


@pytest.mark.parametrize("batch, epochs", [
    # 6 batches of 16 rows per epoch, the last one 10 rows; 70 epochs make 420
    # Adam steps, past step 356, from which the first moment's bias correction
    # 1 - 0.9**t rounds to 1.0
    (16, 70),
    (1, 3),     # one row per step
    (128, 40),  # one batch larger than the 90 rows: every step sees the whole epoch
    (30, 20),   # three batches of exactly 30 rows, none of them short
], ids=["batch-16", "one-row", "larger-than-rows", "exact-divisor"])
def test_dnn_fit_matches_the_reference_loop(batch, epochs):
    # fit slices each epoch's permuted rows, while the reference gathers each
    # batch by index, so a slip at a batch boundary shows in the bits
    train = offset_samples(2.0, 30, np.random.default_rng(31), noise=1.0)
    hyper = TrainConfig(epochs=epochs, batch=batch, seed=4)
    solver = DnnSolver(ANGLES, hyper, TINY)
    solver.fit(train)
    theta, epoch_losses = reference_dnn_fit(train, ANGLES, hyper, TINY)
    assert sum(len(s.candidates) for s in train) == 90
    assert solver.model.theta.tobytes() == theta.tobytes()
    assert solver.epoch_losses == epoch_losses


def test_dnn_layers_stay_views_into_theta(tmp_path):
    rng = np.random.default_rng(17)
    model = fit_dnn(toy_train(rng), epochs=3, batch=8, seed=2).model
    save_model(model, tmp_path / "model.ckpt")
    loaded = load_model(tmp_path / "model.ckpt")
    assert np.array_equal(loaded.theta, model.theta)
    for m in (model, loaded):
        for layer in m.layers():
            assert np.shares_memory(layer.weights, m.theta)
            assert np.shares_memory(layer.bias, m.theta)
        with pytest.raises(FrozenInstanceError):
            m.head[0].weights = np.zeros_like(m.head[0].weights)


def test_candidates_and_samples_are_slotted_frozen_values():
    c = Candidate(range_m=50.0, angle_deg=10.0, vel_mps=3.0, power=2.0)
    s = Sample(sample_id=1, sequence_id=0, candidates=(c,), b_star=4, label=0)
    for record, field in ((c, "range_m"), (s, "label")):
        assert not hasattr(record, "__dict__")
        with pytest.raises(FrozenInstanceError):
            setattr(record, field, 0)
    twin = Sample(sample_id=1, sequence_id=0, b_star=4, label=0,
                  candidates=(Candidate(range_m=50.0, angle_deg=10.0, vel_mps=3.0, power=2.0),))
    assert twin == s and hash(twin) == hash(s)
    assert replace(s, b_star=5) != s
    assert replace(c, power=1.0) != c
    with pytest.raises(ValueError):
        replace(c, angle_deg=95.0)


def test_predict_dnn_single_candidate():
    rng = np.random.default_rng(15)
    model = fit_dnn(toy_train(rng), epochs=5, batch=8, seed=0).model
    assert predict_dnn((cand(0.0),), 8, model) == 0


def test_predict_dnn_duplicate_candidates_pick_lowest():
    rng = np.random.default_rng(16)
    model = fit_dnn(toy_train(rng), epochs=5, batch=8, seed=0).model
    c = cand(10.0, r=45.0, v=4.0)
    assert predict_dnn((c, c, c), 10, model) == 0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_predict_dnn_permutation_invariant(seed):
    rng = np.random.default_rng(17)
    model = fit_dnn(toy_train(rng), epochs=10, batch=8, seed=0).model
    draw = np.random.default_rng(seed)
    k = int(draw.integers(2, 7))
    cands = tuple(cand(a=draw.uniform(-60, 60), r=draw.uniform(10, 180),
                       v=draw.uniform(-15, 15)) for _ in range(k))
    b = int(draw.integers(0, len(ANGLES)))
    from isac_ident.mlp import score_candidates
    scores = score_candidates(model, [(c.range_m, c.angle_deg, c.vel_mps) for c in cands],
                              [b] * k)
    if len(np.unique(scores)) < k:
        return  # invariance is only claimed for distinct scores
    perm = draw.permutation(k)
    permuted = tuple(cands[i] for i in perm)
    chosen = cands[predict_dnn(cands, b, model)]
    chosen_perm = permuted[predict_dnn(permuted, b, model)]
    assert chosen == chosen_perm


# ---------------------------------------------------------------- evaluate

class ConstantSolver:
    """Scores every row alike, so it predicts the first candidate of every sample."""

    name = "constant"

    def fit(self, train):
        pass

    def score_rows(self, feats, beams):
        return np.zeros(len(feats))


def test_evaluate_perfect_predictor():
    rng = np.random.default_rng(18)
    samples = offset_samples(2.0, 50, rng)

    class Oracle:
        """Scores each row by its target, so the labeled candidate always wins."""

        name = "oracle"

        def fit(self, train):
            pass

        def score_rows(self, feats, beams):
            rows, row_beams, targets = expand_to_rows(samples)
            assert np.array_equal(feats, rows) and np.array_equal(beams, row_beams)
            return targets

    assert evaluate(Oracle(), samples) == 1.0


def test_evaluate_constant_on_all_zero_labels():
    cands = (cand(0.0), cand(30.0))
    samples = [Sample(sample_id=t, sequence_id=0, candidates=cands, b_star=1, label=0)
               for t in range(20)]
    assert evaluate(ConstantSolver(), samples) == 1.0


def test_evaluate_order_invariant():
    rng = np.random.default_rng(19)
    samples = offset_samples(2.0, 80, rng, noise=2.0)
    solver = make_solver("offset", ANGLES)
    solver.fit(samples)
    a = evaluate(solver, samples)
    b = evaluate(solver, list(reversed(samples)))
    assert a == b


def test_evaluate_empty_errors():
    with pytest.raises(ValueError):
        evaluate(ConstantSolver(), [])


# ---------------------------------------------------------------- split scoring

@pytest.mark.parametrize("scores, sizes, expected", [
    ([0.3, -1.0, 7.0], [1, 1, 1], [0, 0, 0]),                  # single-candidate samples
    ([0.5, 0.9, 0.9, 0.1, 2.0, 2.0, 2.0], [4, 3], [1, 0]),     # duplicates: lowest index
    ([1.0, 2.0, 0.0, 0.0, 0.0, 5.0], [2, 4], [1, 3]),          # maximum in the last segment
    ([1.0, 3.0, 3.0, 3.0, 1.0], [2, 3], [1, 0]),               # equal scores across a boundary
    ([3.0, 3.0, 3.0, 3.0], [2, 2], [0, 0]),
    ([-np.inf, -np.inf, 0.0, -0.0], [2, 2], [0, 0]),
], ids=["singles", "duplicates", "last-segment", "across-boundary", "all-equal", "inf-and-signed-zero"])
def test_segment_argmax_matches_per_sample_argmax(scores, sizes, expected):
    got = segment_argmax(scores, sizes)
    assert got.tolist() == expected
    bounds = np.cumsum([0, *sizes])
    assert expected == [int(np.argmax(scores[a:b])) for a, b in zip(bounds[:-1], bounds[1:])]


@pytest.mark.parametrize("scores, sizes", [
    ([1.0, np.nan, 0.0], [2, 1]),
    ([1.0, 2.0, 0.0], [2, 2]),
    ([1.0, 2.0], [2, 0]),
], ids=["nan", "sizes-too-long", "empty-segment"])
def test_segment_argmax_rejects_bad_input(scores, sizes):
    with pytest.raises(ValueError):
        segment_argmax(scores, sizes)


def test_split_of_no_samples_is_no_predictions():
    train = offset_samples(2.0, 40, np.random.default_rng(29))
    solvers = [make_solver(name, ANGLES, hyper=TrainConfig(epochs=2)) for name in SOLVER_NAMES]
    for solver in solvers:
        solver.fit(train)
    predictions = predict_split(solvers, [])
    assert len(predictions) == len(SOLVER_NAMES)
    for name, got in zip(SOLVER_NAMES, predictions):
        assert got.shape == (0,) and got.dtype.kind == "i", name


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_expand_to_rows_matches_reference(seed):
    samples = generate_dataset(ScenarioConfig(seed=seed), comm=COMM)
    for subset in (samples, samples[:1], []):
        for got, want in zip(expand_to_rows(subset), reference_expand_to_rows(subset)):
            assert np.array_equal(got, want) and got.dtype == want.dtype and got.shape == want.shape


def assert_split_matches_per_sample(solver, samples):
    """`solver`'s split predictions equal its per-sample `predict`; the DNN's may
    differ only at a near-tie of its logits, since its batched scores differ from
    per-sample ones in the last bits."""
    (split,) = predict_split([solver], samples)
    split = split.tolist()
    single = [solver.predict(s.candidates, s.b_star) for s in samples]
    if solver.name != "dnn":
        assert split == single, solver.name
        return
    for s, a, b in zip(samples, split, single):
        if a != b:
            feats = [(c.range_m, c.angle_deg, c.vel_mps) for c in s.candidates]
            scores = reference_logits(solver.model, feats, [s.b_star] * len(feats))
            assert abs(scores[a] - scores[b]) <= 1e-12, (s.sample_id, a, b)


def assert_splits_match_per_sample(train, samples):
    """`assert_split_matches_per_sample` for each solver fitted on `train`."""
    angles = dft_codebook(COMM.n_antennas, COMM.n_beams).pointing_angles
    for name in SOLVER_NAMES:
        solver = make_solver(name, angles, hyper=TrainConfig(epochs=2))
        solver.fit(train)
        assert_split_matches_per_sample(solver, samples)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_split_predictions_match_per_sample_fast(seed):
    samples = generate_dataset(ScenarioConfig(seed=seed), comm=COMM)
    assert_splits_match_per_sample(split_by_sequence(samples, 0.8, seed=seed).train, samples)


def test_split_predictions_match_per_sample_full():
    samples = generate_dataset(ScenarioConfig(n_sequences=3, samples_per_sequence=(10, 12),
                                              seed=0), mode="full", comm=COMM)
    assert_splits_match_per_sample(samples, samples)


# offsets x whose glibc pow(x, 2), Python's `x ** 2`, differs from x * x in the last bit
POW_IS_NOT_MUL = (0.001296915399800524, 0.0011693778929448716, 1.2291748224027053,
                  435.6794121681341)
# (angle, range, velocity) offsets of a candidate from a beam's table row; drawing
# the same offsets twice gives exact ties, opposite signs mirror them
OFFSETS = st.tuples(*[st.sampled_from((0.0, *POW_IS_NOT_MUL)) | st.floats(0.0, 20.0)] * 3)
SIGNS = st.tuples(*[st.sampled_from((1.0, -1.0))] * 3)


@functools.cache
def table_solvers():
    train = generate_dataset(ScenarioConfig(n_sequences=4, seed=3), comm=COMM)
    angles = dft_codebook(COMM.n_antennas, COMM.n_beams).pointing_angles
    solvers = [make_solver(name, angles) for name in SOLVER_NAMES if name != "dnn"]
    for solver in solvers:
        solver.fit(train)
    return solvers


@st.composite
def tie_prone_samples(draw):
    """(beam, [(offsets, signs), ...]) per sample, the candidates drawn from a
    small pool of offsets so that duplicates and mirrored pairs are common."""
    pool = draw(st.lists(OFFSETS, min_size=1, max_size=3))
    candidate = st.tuples(st.sampled_from(pool), SIGNS)
    return draw(st.lists(st.tuples(st.integers(0, COMM.n_beams - 1),
                                   st.lists(candidate, min_size=1, max_size=6)),
                         min_size=1, max_size=8))


@settings(max_examples=60, deadline=None)
@given(draws=tie_prone_samples())
def test_table_predict_equals_split_at_ties(draws):
    for solver in table_solvers():
        samples = []
        for i, (b, offsets) in enumerate(draws):
            pr, pa, pv = solver.table[b].tolist()
            cands = tuple(Candidate(range_m=max(pr + sr * dr, 0.0),
                                    angle_deg=min(max(pa + sa * da, -90.0), 90.0),
                                    vel_mps=pv + sv * dv)
                          for (da, dr, dv), (sa, sr, sv) in offsets)
            samples.append(Sample(sample_id=i, sequence_id=0, candidates=cands, b_star=b,
                                  label=0))
        (split,) = predict_split([solver], samples)
        assert split.tolist() == [solver.predict(s.candidates, s.b_star) for s in samples], \
            solver.name


# (x, p, q): glibc pow gives x ** 2 == p ** 2 + q ** 2 exactly, but x * x != p * p + q * q
POW_TIES = [(1.261550184130407, 1.2615501841304058, 5.960464477539063e-08),
            (1.370893206324854, 1.3708932063248527, 5.960464477539063e-08)]


@pytest.mark.parametrize("x, p, q", POW_TIES)
def test_table_distance_squares_by_multiplication(x, p, q):
    assert x * x != p * p + q * q
    # a zero table with unit sigma: a candidate's distances are its own coordinates
    solver = TableSolver("unit", lambda train, angles: (
        {}, np.zeros((len(angles), 3)), (1.0, 1.0, 1.0)), ANGLES)
    solver.fit([])
    # the farther candidate under x * x first: pow would tie them and pick it
    cands = sorted([cand(0.0, r=x), cand(0.0, r=p, v=q)],
                   key=lambda c: -(c.range_m * c.range_m + c.vel_mps * c.vel_mps))
    sample = Sample(sample_id=0, sequence_id=0, candidates=tuple(cands), b_star=0, label=0)
    assert solver.predict(sample.candidates, 0) == 1
    assert predict_split([solver], [sample])[0].tolist() == [1]


@pytest.fixture(scope="module")
def fast_split():
    return split_by_sequence(generate_dataset(ScenarioConfig(seed=0), comm=COMM), 0.8, seed=0)


def fast_dnn(train, seed):
    angles = dft_codebook(COMM.n_antennas, COMM.n_beams).pointing_angles
    solver = DnnSolver(angles, TrainConfig(epochs=2, seed=seed))
    solver.fit(train)
    return solver


def test_dnn_scores_match_the_reference_forward(fast_split):
    solver = fast_dnn(fast_split.train, seed=0)
    feats, beams, _ = expand_to_rows(fast_split.test)
    np.testing.assert_allclose(solver.score_rows(feats, beams),
                               reference_logits(solver.model, feats, beams), rtol=0, atol=1e-12)
    for s in fast_split.test:  # the row counts of per-sample `predict`
        feats, beams, _ = expand_to_rows([s])
        np.testing.assert_allclose(solver.score_rows(feats, beams),
                                   reference_logits(solver.model, feats, beams), rtol=0, atol=1e-12)


def test_reassigned_dnn_model_is_the_one_scored(fast_split, tmp_path):
    solver = fast_dnn(fast_split.train, seed=0)
    save_model(fast_dnn(fast_split.train, seed=1).model, tmp_path / "other.ckpt")
    other = load_model(tmp_path / "other.ckpt")
    test = fast_split.test
    expected = [predict_dnn(s.candidates, s.b_star, other) for s in test]
    assert [solver.predict(s.candidates, s.b_star) for s in test] != expected  # models differ
    solver.model = other
    assert [solver.predict(s.candidates, s.b_star) for s in test] == expected
    feats, beams, _ = expand_to_rows(test)
    np.testing.assert_allclose(solver.score_rows(feats, beams),
                               reference_logits(other, feats, beams), rtol=0, atol=1e-12)
    assert predict_split([solver], test)[0].tolist() == expected


# the shallowest models `ModelWidths` allows: a head of just the logit layer, and
# one-layer branches, whose first layer is also their last
EDGE_WIDTHS = {"head-of-one-layer": ModelWidths(head=()),
               "one-layer-branches": ModelWidths(radar=(16,), beam=(8,))}


@pytest.mark.parametrize("widths", EDGE_WIDTHS.values(), ids=EDGE_WIDTHS)
def test_dnn_scores_shallow_models_like_the_reference(fast_split, widths, tmp_path):
    angles = dft_codebook(COMM.n_antennas, COMM.n_beams).pointing_angles
    solver = DnnSolver(angles, TrainConfig(epochs=2), widths=widths)
    solver.fit(fast_split.train)
    feats, beams, _ = expand_to_rows(fast_split.test)
    scores = solver.score_rows(feats, beams)
    np.testing.assert_allclose(scores, reference_logits(solver.model, feats, beams),
                               rtol=0, atol=1e-12)
    assert_split_matches_per_sample(solver, fast_split.test)
    save_model(solver.model, tmp_path / "model.ckpt")
    solver.model = load_model(tmp_path / "model.ckpt")
    assert solver.model.widths == widths
    assert np.array_equal(solver.score_rows(feats, beams), scores)


def default_model(n_beams):
    norm = NormBounds(range_max=200.0, angle_span=180.0, vel_max=20.0, n_beams=n_beams)
    return init_weights(ModelWidths(), norm, seed=0)


def test_dnn_ranks_by_logit_where_every_sigmoid_is_one():
    model = default_model(len(ANGLES))
    model.head[-1].bias[:] = 60.0
    cands = (cand(-20.0, r=50.0, v=3.0), cand(10.0, r=120.0, v=-5.0),
             cand(40.0, r=30.0, v=8.0), cand(-60.0, r=90.0, v=0.0))
    feats = [(c.range_m, c.angle_deg, c.vel_mps) for c in cands]
    logits = reference_logits(model, feats, [12] * len(cands))
    assert (logits > 37.0).all() and len(np.unique(logits)) == len(cands)
    assert (score_candidates(model, feats, [12] * len(cands)) == 1.0).all()
    best = int(np.argmax(logits))
    assert best != 0  # a sigmoid tie would pick candidate 0
    solver = DnnSolver(ANGLES)
    solver.model = model
    assert solver.predict(cands, 12) == best
    sample = Sample(sample_id=0, sequence_id=0, candidates=cands, b_star=12, label=0)
    assert predict_split([solver], [sample])[0].tolist() == [best]


def test_dnn_ranks_a_row_whose_activations_overflow_last():
    # velocity weights of the first layer scaled by 100 take a velocity of
    # -1.7e308 past the largest double, and a later layer to inf - inf = NaN;
    # the logit of that row is -500, with no warning, and the other rows keep
    # their bits
    model = default_model(len(ANGLES))
    model.radar_branch[0].weights[:, 2] *= 100.0
    cands = (cand(-20.0, r=50.0, v=-1.7e308), cand(10.0, r=120.0, v=-5.0),
             cand(40.0, r=30.0, v=8.0))
    feats = np.array([(c.range_m, c.angle_deg, c.vel_mps) for c in cands])
    solver = DnnSolver(ANGLES)
    solver.model = model
    with np.errstate(all="ignore"):
        assert np.isnan(reference_logits(model, feats[:1], [12])).all()
    scores = solver.score_rows(feats, np.full(3, 12))
    assert scores[0] == -500.0
    assert scores[1:].tolist() == solver.score_rows(feats[1:], np.full(2, 12)).tolist()
    sample = Sample(sample_id=0, sequence_id=0, candidates=cands, b_star=12, label=1)
    best = 1 + int(np.argmax(scores[1:]))
    assert predict_split([solver], [sample])[0].tolist() == [best]
    assert solver.predict(cands, 12) == best


def test_reference_scorer_ranks_a_row_whose_activations_overflow_last():
    # the overflowing model above through score_candidates: the NaN logit
    # of the huge row clips to -500, with no warning (the suite makes them
    # errors), so predict_dnn agrees with DnnSolver
    model = default_model(len(ANGLES))
    model.radar_branch[0].weights[:, 2] *= 100.0
    cands = (cand(10.0, r=120.0, v=-5.0), cand(-20.0, r=50.0, v=-1.7e308))
    feats = [(c.range_m, c.angle_deg, c.vel_mps) for c in cands]
    scores = score_candidates(model, feats, [12, 12])
    assert scores[1] == 1.0 / (1.0 + np.exp(500.0))
    assert scores[0] == pytest.approx(score_candidates(model, feats[:1], [12])[0], rel=1e-12)
    assert predict_dnn(cands, 12, model) == 0
    solver = DnnSolver(ANGLES)
    solver.model = model
    assert solver.predict(cands, 12) == 0


def test_dnn_model_for_another_codebook_is_refused(tmp_path):
    solver = DnnSolver(ANGLES)
    own = default_model(len(ANGLES))
    solver.model = own
    with pytest.raises(SolverError, match=f"64-beam codebook, not the solver's {len(ANGLES)}"):
        solver.model = default_model(64)
    save_model(own, tmp_path / "model.ckpt")
    raw = bytearray((tmp_path / "model.ckpt").read_bytes())
    raw[32:40] = struct.pack("<d", 1e18)  # the checkpoint's n_beams
    (tmp_path / "model.ckpt").write_bytes(bytes(raw))
    with pytest.raises(SolverError, match="1000000000000000000-beam codebook"):
        solver.model = load_model(tmp_path / "model.ckpt")
    assert solver.model is own
    assert solver.predict((cand(0.0), cand(10.0)), 3) in (0, 1)


@pytest.mark.parametrize("name", SOLVER_NAMES)
def test_score_rows_of_no_rows_is_no_scores(name):
    solver = make_solver(name, ANGLES, hyper=TrainConfig(epochs=2))
    solver.fit(offset_samples(2.0, 40, np.random.default_rng(23)))
    scores = solver.score_rows(np.zeros((0, 3)), np.zeros(0, dtype=int))
    assert scores.shape == (0,) and scores.dtype == float


@pytest.mark.parametrize("name", SOLVER_NAMES)
def test_fit_on_a_beam_outside_the_codebook_raises_solver_error(name):
    train = [*offset_samples(2.0, 40, np.random.default_rng(23)), *at_beam(40, 0.0)]
    solver = make_solver(name, ANGLES, hyper=TrainConfig(epochs=2))
    with pytest.raises(SolverError, match=f"beam 40 is outside the {len(ANGLES)}-beam codebook"):
        solver.fit(train)


@pytest.mark.parametrize("name", SOLVER_NAMES)
def test_out_of_codebook_beam_raises_solver_error(name):
    solver = make_solver(name, ANGLES, hyper=TrainConfig(epochs=2))
    solver.fit(offset_samples(2.0, 40, np.random.default_rng(23)))
    cands = (cand(0.0), cand(10.0))
    assert solver.predict(cands, len(ANGLES) - 1) in (0, 1)
    beyond = Sample(sample_id=99, sequence_id=0, candidates=cands, b_star=len(ANGLES) + 3, label=0)
    message = f"beam {len(ANGLES) + 3} is outside the {len(ANGLES)}-beam codebook"
    with pytest.raises(SolverError, match=message):
        solver.predict(cands, beyond.b_star)
    with pytest.raises(SolverError, match=message):
        evaluate(solver, [*at_beam(3, 0.0, 5.0), beyond])


# ---------------------------------------------------------------- interface

def test_make_solver_rejects_unknown():
    with pytest.raises(ValueError):
        make_solver("nope", ANGLES)


@pytest.mark.parametrize("name", ["offset", "linreg-angle", "linreg-3d", "lookup"])
def test_solvers_return_valid_index_on_k1(name):
    rng = np.random.default_rng(20)
    train = offset_samples(4.0, 120, rng, noise=1.0)
    solver = make_solver(name, ANGLES)
    solver.fit(train)
    assert solver.predict((cand(33.3),), 9) == 0


@pytest.mark.parametrize("name", ["offset", "linreg-angle", "linreg-3d", "lookup"])
def test_classical_solvers_invariant_to_uniform_angle_shift(name):
    # shifting every radar angle is absorbed by the fitted offset/intercept/table
    rng = np.random.default_rng(21)
    train = offset_samples(3.0, 150, rng, noise=1.2)
    test = offset_samples(3.0, 60, np.random.default_rng(22), noise=1.2)

    def shift(samples, delta):
        out = []
        for s in samples:
            cands = tuple(cand(c.angle_deg + delta, r=c.range_m, v=c.vel_mps)
                          for c in s.candidates)
            out.append(Sample(sample_id=s.sample_id, sequence_id=s.sequence_id,
                              candidates=cands, b_star=s.b_star, label=s.label))
        return out

    delta = 6.5
    base, shifted = make_solver(name, ANGLES), make_solver(name, ANGLES)
    base.fit(train)
    shifted.fit(shift(train, delta))
    for s, s_shift in zip(test, shift(test, delta)):
        assert base.predict(s.candidates, s.b_star) == \
            shifted.predict(s_shift.candidates, s_shift.b_star)


def test_sample_validation():
    with pytest.raises(ValueError):
        Sample(sample_id=0, sequence_id=0, candidates=(), b_star=0, label=0)
    for label in (-1, 1, 3):
        with pytest.raises(ValueError, match="label must index into the candidate list"):
            Sample(sample_id=0, sequence_id=0, candidates=(cand(0.0),), b_star=0, label=label)
