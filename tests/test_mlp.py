import math
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from isac_ident.mlp import (
    AdamState,
    CheckpointError,
    ModelWidths,
    NormBounds,
    adam_step,
    init_weights,
    load_model,
    loss_and_grad_arrays,
    save_model,
    score_candidates,
)

NORM = NormBounds(range_max=100.0, angle_span=180.0, vel_max=20.0, n_beams=16)
TINY = ModelWidths(radar=(4, 6, 8), beam=(4, 6, 8), head=(8, 6, 4))


def feat(r=40.0, a=10.0, v=-3.0):
    """One (range, angle, velocity) input row."""
    return [(r, a, v)]


def zeroed(model):
    model.theta[:] = 0
    return model


# ---------------------------------------------------------------- forward

def test_zero_model_scores_half():
    model = zeroed(init_weights(TINY, NORM, seed=0))
    assert score_candidates(model, feat(), [3]) == pytest.approx([0.5])


def test_forward_deterministic():
    model = init_weights(TINY, NORM, seed=1)
    assert np.array_equal(score_candidates(model, feat(), [5]),
                          score_candidates(model, feat(), [5]))


def test_forward_matches_hand_rolled_recomputation():
    # oracle: per-neuron python loops, no matrix ops
    model = init_weights(TINY, NORM, seed=7)
    (r, a, v), beam = (72.3, -28.0, 11.5), 9

    x_radar = [r / 100.0, (a + 90.0) / 180.0, (v + 20.0) / 40.0]
    x_beam = [beam / 15.0]

    def run_layers(layers, x):
        for layer in layers:
            out = []
            for i in range(layer.weights.shape[0]):
                z = layer.bias[i] + sum(
                    layer.weights[i, j] * x[j] for j in range(layer.weights.shape[1]))
                if layer.activation == "relu":
                    out.append(max(z, 0.0))
                elif layer.activation == "sigmoid":
                    out.append(1.0 / (1.0 + math.exp(-z)))
                else:
                    out.append(z)
            x = out
        return x

    hidden = run_layers(model.radar_branch, x_radar) + run_layers(model.beam_branch, x_beam)
    expected = run_layers(model.head, hidden)[0]
    assert score_candidates(model, feat(r, a, v), [beam]) == pytest.approx([expected], abs=1e-6)


def test_forward_rejects_non_finite():
    model = init_weights(TINY, NORM, seed=0)
    with pytest.raises(ValueError):
        score_candidates(model, feat(r=float("nan")), [0])
    # training refuses the same inputs instead of returning a NaN loss and gradient
    for feats, beams in ((feat(r=float("nan")), [0]), (feat(v=float("inf")), [0]),
                         (feat(), [float("inf")])):
        with pytest.raises(ValueError, match="finite"):
            loss_and_grad_arrays(model, feats, beams, [1.0])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), r=st.floats(0, 100), a=st.floats(-90, 90),
       v=st.floats(-20, 20), beam=st.integers(0, 15))
def test_scores_stay_in_unit_interval(seed, r, a, v, beam):
    model = init_weights(TINY, NORM, seed=seed)
    (s,) = score_candidates(model, feat(r, a, v), [beam])
    assert 0.0 < s < 1.0


# ---------------------------------------------------------------- loss

def test_loss_zero_when_scores_match():
    # drive the sigmoid to saturation with a huge bias: score == 1.0 in float,
    # and the logit clipped at 500 leaves the loss log1p(exp(-500))
    model = zeroed(init_weights(TINY, NORM, seed=0))
    model.head[-1].bias[:] = 600.0
    loss, grad = loss_and_grad_arrays(model, feat(), [1], [1.0])
    assert loss == math.log1p(math.exp(-500.0)) > 0.0
    assert np.all(grad == 0)


def test_loss_half_score_quarter():
    # a zero logit scores 0.5, whose cross-entropy is ln 2 for either target
    model = zeroed(init_weights(TINY, NORM, seed=0))
    for target in (0.0, 1.0):
        loss, _ = loss_and_grad_arrays(model, feat(), [0], [target])
        assert loss == pytest.approx(math.log(2.0))


def test_saturated_head_recovers_under_cross_entropy():
    # an output bias of -50 scores every row about 2e-22, where the sigmoid's
    # derivative vanishes; the cross-entropy's logit gradient does not, so
    # Adam brings the scores of a half-positive batch back up
    model = init_weights(TINY, NORM, seed=3)
    model.head[-1].bias[:] = -50.0
    rng = np.random.default_rng(4)
    feats = np.column_stack([rng.uniform(5, 95, 32), rng.uniform(-80, 80, 32),
                             rng.uniform(-18, 18, 32)])
    beams = rng.integers(0, 16, 32)
    targets = (np.arange(32) % 2).astype(float)
    assert score_candidates(model, feats, beams).mean() < 1e-20
    state = AdamState(lr=0.1)
    for _ in range(200):
        _, grad = loss_and_grad_arrays(model, feats, beams, targets)
        adam_step(state, model.theta, grad)
    assert score_candidates(model, feats, beams).mean() > 0.1


def test_loss_rejects_empty_and_bad_targets():
    model = init_weights(TINY, NORM, seed=0)
    with pytest.raises(ValueError):
        loss_and_grad_arrays(model, np.empty((0, 3)), [], [])
    with pytest.raises(ValueError):
        loss_and_grad_arrays(model, feat(), [0], [0.5])


@pytest.mark.parametrize("head_bias", [600.0, -600.0])
def test_loss_and_grad_equal_the_reference_bit_for_bit(head_bias):
    # dead relus (units biased far below zero) and a sigmoid pre-activation
    # beyond the +-500 clip, where the clip decides the score's bits
    from oracles import reference_forward, reference_loss_and_grad

    model = init_weights(TINY, NORM, seed=5)
    model.radar_branch[1].bias[:2] = -1e3
    model.head[0].bias[:3] = -1e3
    model.head[-1].bias[:] = head_bias
    rng = np.random.default_rng(8)
    feats = np.column_stack([rng.uniform(5, 95, 12), rng.uniform(-80, 80, 12),
                             rng.uniform(-18, 18, 12)])
    beams = rng.integers(0, 16, 12)
    targets = (np.arange(12) % 3 == 0).astype(float)
    _, (c_radar, _, c_head) = reference_forward(model, feats, beams)
    assert (c_radar[1][2][:, :2] == 0).all() and (c_head[0][2][:, :3] == 0).all()
    assert (np.abs(c_head[-1][1]) > 500).all()
    loss, grad = loss_and_grad_arrays(model, feats, beams, targets)
    ref_loss, ref_grad = reference_loss_and_grad(model, feats, beams, targets)
    assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
    assert grad.tobytes() == ref_grad.tobytes()
    # a saturated head still gets a gradient from the rows it scores wrongly
    # (the targets hold zeros and ones), and the clip at 500 bounds the loss
    assert grad[-1] != 0 and 100.0 < loss < 500.0


def test_gradients_match_central_differences():
    # central differences need the loss differentiable within +-h of every
    # parameter, so draws whose relu pre-activations sit near a kink are
    # redrawn (the kink breaks the oracle, not the backprop under test)
    from oracles import draw_grad_check_case, finite_difference_grads, min_relu_preactivation

    checked = 0
    seed = 0
    while checked < 10:
        model, feats, beams, y = draw_grad_check_case(seed)
        seed += 1
        if min_relu_preactivation(model, feats, beams) < 1e-3:
            continue
        _, grad = loss_and_grad_arrays(model, feats, beams, y)
        numeric = finite_difference_grads(model, feats, beams, y)
        assert grad.shape == numeric.shape == model.theta.shape
        rel = np.abs(grad - numeric) / np.maximum(np.abs(grad) + np.abs(numeric), 1e-6)
        assert rel.max() < 1e-4
        checked += 1


# ---------------------------------------------------------------- Adam

def test_adam_zero_gradient_keeps_params():
    theta = np.array([1.0])
    adam_step(AdamState(lr=0.1), theta, np.array([0.0]))
    assert theta[0] == pytest.approx(1.0)


def test_adam_first_step_is_lr_times_sign():
    for g in (3.7, -0.002):
        theta = np.array([1.0])
        adam_step(AdamState(lr=0.05), theta, np.array([g]))
        assert theta[0] == pytest.approx(1.0 - 0.05 * np.sign(g), abs=1e-6)


def test_adam_shape_mismatch():
    theta = np.array([1.0])
    with pytest.raises(ValueError):
        adam_step(AdamState(), theta, np.zeros(2))


def test_adam_trajectory_matches_scratch_implementation():
    # oracle: plain-float Adam on f(w) = sum((w - c)^2), written independently
    # in the code's operation order and compared exactly over 400 steps; from
    # step 356 on the first moment's bias correction is exactly 1.0
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    assert 1.0 - b1 ** 355 != 1.0 and 1.0 - b1 ** 356 == 1.0
    centers = [0.3, -2.0, 7.5, 0.0]
    w = [1.0, 1.0, -4.0, 0.25]
    m, v = [0.0] * 4, [0.0] * 4
    theta = np.array(w)
    state = AdamState(lr=lr)
    for t in range(1, 401):
        for i, c in enumerate(centers):
            g = 2.0 * (w[i] - c)
            m[i] = b1 * m[i] + (1.0 - b1) * g
            v[i] = b2 * v[i] + (1.0 - b2) * (g * g)
            w[i] -= lr * (m[i] / (1.0 - b1 ** t)) / (math.sqrt(v[i] / (1.0 - b2 ** t)) + eps)
        adam_step(state, theta, 2.0 * (theta - np.array(centers)))
        assert theta.tolist() == w, t


@pytest.mark.parametrize("built_on, used_on", [(1, 2), (2, 3)])
def test_adam_state_rejects_theta_of_another_shape(built_on, used_on):
    state = AdamState()
    adam_step(state, np.ones(built_on), np.ones(built_on))
    theta = np.ones(used_on)
    message = f"parameter shape ({used_on},) != shape ({built_on},) this Adam state was built on"
    with pytest.raises(ValueError, match=re.escape(message)):
        adam_step(state, theta, np.ones(used_on))
    assert theta.tolist() == [1.0] * used_on and state.step == 1


# ---------------------------------------------------------------- init

def test_init_deterministic_per_seed():
    a = init_weights(TINY, NORM, seed=5)
    b = init_weights(TINY, NORM, seed=5)
    c = init_weights(TINY, NORM, seed=6)
    assert np.array_equal(a.theta, b.theta)
    assert not np.array_equal(a.theta, c.theta)


def test_init_weight_variance_tracks_fan_in():
    widths = ModelWidths(radar=(4000,), beam=(4,), head=(4,))
    model = init_weights(widths, NORM, seed=2)
    w = model.radar_branch[0].weights  # (4000, 3): 12000 draws with fan_in 3
    assert w.size >= 10**4
    assert np.var(w) == pytest.approx(2.0 / 3.0, rel=0.1)


def test_branch_widths_wire_up():
    model = init_weights(ModelWidths(), NORM, seed=0)
    assert [l.weights.shape for l in model.radar_branch] == [(16, 3), (32, 16), (64, 32)]
    assert [l.weights.shape for l in model.beam_branch] == [(16, 1), (32, 16), (64, 32)]
    assert [l.weights.shape for l in model.head] == [(64, 128), (32, 64), (16, 32), (1, 16)]
    assert model.head[-1].activation == "sigmoid"


# ---------------------------------------------------------------- checkpoint

def test_checkpoint_roundtrip_bit_exact(tmp_path):
    model = init_weights(TINY, NORM, seed=3)
    path = tmp_path / "model.ckpt"
    save_model(model, path, hyper={"lr": 0.001, "epochs": 100})
    loaded = load_model(path)
    assert np.array_equal(model.theta, loaded.theta)
    assert loaded.norm == model.norm
    assert [l.activation for l in loaded.layers()] == [l.activation for l in model.layers()]

    sidecar = (tmp_path / "model.ckpt.json").read_text()
    assert "normalization" in sidecar and "hyperparameters" in sidecar


def pack_checkpoint(bounds, counts, table, theta):
    """Checkpoint bytes in save_model's layout, built from their parts."""
    return b"".join([struct.pack("<4sI", b"MLPC", 1), struct.pack("<dddd", *bounds),
                     struct.pack("<III", *counts),
                     *(struct.pack("<IIB", *entry) for entry in table),
                     np.asarray(theta, dtype="<f8").tobytes()])


def checkpoint_parts(model):
    norm = model.norm
    bounds = (norm.range_max, norm.angle_span, norm.vel_max, float(norm.n_beams))
    counts = (len(model.radar_branch), len(model.beam_branch), len(model.head))
    table = [(*l.weights.shape, {"relu": 0, "sigmoid": 1}[l.activation])
             for l in model.layers()]
    return bounds, counts, table, model.theta


def test_checkpoint_rejects_garbage(tmp_path):
    model = init_weights(TINY, NORM, seed=3)
    good = tmp_path / "good.ckpt"
    save_model(model, good)
    raw = good.read_bytes()
    bounds, counts, table, theta = checkpoint_parts(model)
    assert pack_checkpoint(bounds, counts, table, theta) == raw

    def with_layer(k, entry):
        return pack_checkpoint(bounds, counts, [*table[:k], entry, *table[k + 1:]], theta)

    n_radar_params = sum(l.weights.size + l.bias.size for l in model.radar_branch)
    bad = {
        "magic": b"XXXX" + b"\x00" * 32,
        "nan-weight": raw[:-8] + struct.pack("<d", math.nan),
        "trailing-bytes": raw + b"garbage",
        "nan-range-max": raw[:8] + struct.pack("<d", math.nan) + raw[16:],
        "zero-range-max": raw[:8] + struct.pack("<d", 0.0) + raw[16:],
        # the second head layer (6, 8) declared (9, 5): same parameter count
        "unchained-layers": with_layer(7, (9, 5, 0)),
        "identity-final-layer": with_layer(9, (1, 4, 2)),
        "sigmoid-hidden-layer": with_layer(0, (4, 3, 1)),
        "zero-radar-layers": pack_checkpoint(bounds, (0, *counts[1:]), table[3:],
                                             theta[n_radar_params:]),
        "fractional-n-beams": pack_checkpoint((*bounds[:3], 3.5), counts, table, theta),
    }
    for name, data in bad.items():
        path = tmp_path / f"{name}.ckpt"
        path.write_bytes(data)
        with pytest.raises(CheckpointError, match=re.escape(str(path))):
            load_model(path)


def test_score_candidates_batches_match_singles():
    model = init_weights(TINY, NORM, seed=9)
    feats = [(30.0, 5.0, 2.0), (60.0, -40.0, -7.0), (90.0, 60.0, 14.0)]
    batch = score_candidates(model, feats, [1, 2, 3])
    singles = [score_candidates(model, [f], [b])[0] for f, b in zip(feats, [1, 2, 3])]
    assert np.allclose(batch, singles)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cut=st.one_of(st.integers(0, 2**20), st.none()),
       pos=st.integers(0, 2**20), value=st.integers(0, 255))
def test_fuzzed_checkpoint_is_rejected_or_scores(tmp_path, cut, pos, value):
    # truncate a good checkpoint at any length, or overwrite any byte with any value
    raw = bytearray(pack_checkpoint(*checkpoint_parts(init_weights(TINY, NORM, seed=3))))
    if cut is not None:
        raw = raw[:cut % len(raw)]
    else:
        raw[pos % len(raw)] = value
    path = tmp_path / "fuzz.ckpt"
    path.write_bytes(bytes(raw))
    try:
        model = load_model(path)
    except CheckpointError as exc:
        assert str(path) in str(exc)
        return
    widths = ModelWidths(radar=tuple(l.weights.shape[0] for l in model.radar_branch),
                         beam=tuple(l.weights.shape[0] for l in model.beam_branch),
                         head=tuple(l.weights.shape[0] for l in model.head[:-1]))
    assert [(*l.weights.shape, l.activation) for l in model.layers()] == widths.shapes()
    with np.errstate(over="ignore", invalid="ignore"):  # an overwritten weight may be huge
        score_candidates(model, feat(), [3])
