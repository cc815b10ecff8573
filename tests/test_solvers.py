import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isac_ident.mlp import ModelWidths
from isac_ident.radar_detect import Candidate
from isac_ident.scene import dft_codebook
from isac_ident.solvers import (
    Sample,
    Solver,
    TrainConfig,
    estimate_offset,
    evaluate,
    make_solver,
    predict_dnn,
    train_dnn,
)

ANGLES = dft_codebook(16, 32).pointing_angles
TINY = ModelWidths(radar=(8, 12, 16), beam=(8, 12, 16), head=(16, 8, 4))


def cand(a, r=50.0, v=0.0, power=1.0):
    return Candidate(range_m=r, angle_deg=float(np.clip(a, -90, 90)), vel_mps=v, power=power)


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
    losses = []
    model = train_dnn(train, n_beams=len(ANGLES), widths=TINY,
                      hyper=TrainConfig(epochs=300, batch=8, seed=0),
                      epoch_losses=losses)
    assert losses[-1] < 1e-3
    for s in train:
        assert predict_dnn(s.candidates, s.b_star, model) == s.label


def test_dnn_loss_decreases_early():
    rng = np.random.default_rng(13)
    train = toy_train(rng, n=60)
    losses = []
    train_dnn(train, n_beams=len(ANGLES), widths=TINY,
              hyper=TrainConfig(epochs=5, batch=8, seed=1), epoch_losses=losses)
    assert len(losses) == 5
    assert all(np.isfinite(losses))
    assert losses[-1] < losses[0]


def test_dnn_training_deterministic():
    rng = np.random.default_rng(14)
    train = toy_train(rng)
    kw = dict(n_beams=len(ANGLES), widths=TINY, hyper=TrainConfig(epochs=20, batch=8, seed=3))
    m1 = train_dnn(train, **kw)
    m2 = train_dnn(train, **kw)
    assert all(np.array_equal(a, b) for a, b in zip(m1.parameters(), m2.parameters()))


def test_predict_dnn_single_candidate():
    rng = np.random.default_rng(15)
    model = train_dnn(toy_train(rng), n_beams=len(ANGLES), widths=TINY,
                      hyper=TrainConfig(epochs=5, batch=8, seed=0))
    assert predict_dnn((cand(0.0),), 8, model) == 0


def test_predict_dnn_duplicate_candidates_pick_lowest():
    rng = np.random.default_rng(16)
    model = train_dnn(toy_train(rng), n_beams=len(ANGLES), widths=TINY,
                      hyper=TrainConfig(epochs=5, batch=8, seed=0))
    c = cand(10.0, r=45.0, v=4.0)
    assert predict_dnn((c, c, c), 10, model) == 0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_predict_dnn_permutation_invariant(seed):
    rng = np.random.default_rng(17)
    model = train_dnn(toy_train(rng), n_beams=len(ANGLES), widths=TINY,
                      hyper=TrainConfig(epochs=10, batch=8, seed=0))
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

class ConstantSolver(Solver):
    name = "constant"

    def __init__(self, k):
        self.k = k

    def fit(self, train):
        pass

    def predict(self, candidates, b_star):
        return self.k


def test_evaluate_perfect_predictor():
    rng = np.random.default_rng(18)
    samples = offset_samples(2.0, 50, rng)

    class Oracle(Solver):
        name = "oracle"
        lookup = {s.sample_id: s.label for s in samples}
        it = iter(samples)

        def fit(self, train):
            pass

        def predict(self, candidates, b_star):
            return next(self.it).label

    assert evaluate(Oracle(), samples) == 1.0


def test_evaluate_constant_on_all_zero_labels():
    cands = (cand(0.0), cand(30.0))
    samples = [Sample(sample_id=t, sequence_id=0, candidates=cands, b_star=1, label=0)
               for t in range(20)]
    assert evaluate(ConstantSolver(0), samples) == 1.0


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
        evaluate(ConstantSolver(0), [])


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
        Sample(sample_id=0, sequence_id=0, candidates=(), b_star=0, label=None)
    with pytest.raises(ValueError):
        Sample(sample_id=0, sequence_id=0, candidates=(cand(0.0),), b_star=0, label=3)
