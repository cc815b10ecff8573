"""Minimal deterministic feed-forward network for per-candidate scoring.

Two input branches (radar state and beam index) expand separately through
three dense layers each, are concatenated, and a four-layer head reduces
to a single sigmoid likelihood (`ModelWidths.shapes()`). Everything is
plain numpy float64 with hand-written backpropagation and Adam, so
training (`solvers.DnnSolver.fit`) is bit-reproducible for a fixed seed
on a given platform. The loss is binary cross-entropy on the head's
clipped pre-activation (its logit), so a saturated head still gets a
gradient. Training normalizes its inputs once per fit, writes each
batch's gradient in place into a vector laid out like `theta`
(`_loss_and_grad`) and updates Adam's moments in place (`adam_step`);
`loss_and_grad_arrays` is the same loss on raw rows. The beam branch
sees only the serving-beam index, so inference reads its output from a
per-beam table (`beam_table`, `score_with_beam_table`) and runs only the
radar branch and the head per row; `score_candidates` is the reference
forward pass over both branches.

On 6-row samples and 64-row batches numpy's per-call dispatch sets much
of the cost. A layer is `a.dot(W.T)` on the transposed view, then `z += b`
and the activation in place: `ndarray.dot` has the bits of `a @ W.T`, and
a (32, 3) by (3, 16) product takes 1.4 us through it against 2.4 us
through `matmul` (2-vCPU Xeon, numpy 2.4.6, one OpenBLAS thread); a
contiguous copy of `W.T` would change the bits. Training caches each
layer's (input, output), the sigmoid layer's output being its clipped
logit; relu's gradient mask is `output > 0`, equal to z > 0 even for NaN.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from isac_ident.seeding import child_rng

_CKPT_MAGIC = b"MLPC"
_CKPT_VERSION = 1
_ACT_CODES = {"relu": 0, "sigmoid": 1}
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


class CheckpointError(ValueError):
    """Model checkpoint file is malformed."""


@dataclass(frozen=True)
class DenseLayer:
    weights: np.ndarray  # (out, in), a view into MlpModel.theta
    bias: np.ndarray     # (out,), a view into MlpModel.theta
    activation: str      # "relu" or "sigmoid"


@dataclass(frozen=True)
class NormBounds:
    """Input normalization constants mapping raw features into [0, 1]."""

    range_max: float
    angle_span: float
    vel_max: float
    n_beams: int
    shift: np.ndarray = field(init=False, repr=False, compare=False)  # a radar row maps
    scale: np.ndarray = field(init=False, repr=False, compare=False)  # to (row + shift) / scale

    def __post_init__(self):
        spans = (self.range_max, self.angle_span, self.vel_max)
        if (not all(0.0 < x < math.inf for x in spans) or not 1 <= self.n_beams < math.inf
                or self.n_beams != int(self.n_beams)):
            raise ValueError("normalization constants must be finite and positive and "
                             f"n_beams whole, got {self}")
        object.__setattr__(self, "n_beams", int(self.n_beams))  # a checkpoint stores a float
        object.__setattr__(self, "shift", np.array([0.0, self.angle_span / 2.0, self.vel_max]))
        object.__setattr__(self, "scale", np.array([self.range_max, self.angle_span,
                                                    2.0 * self.vel_max]))


@dataclass(frozen=True)
class ModelWidths:
    """Hidden widths per branch; the head ends in a single sigmoid unit."""

    radar: tuple[int, ...] = (16, 32, 64)
    beam: tuple[int, ...] = (16, 32, 64)
    head: tuple[int, ...] = (64, 32, 16)

    def shapes(self) -> list[tuple[int, int, str]]:
        """(out, in, activation) per layer in theta's order: radar, beam, head;
        all relu except the head's final single sigmoid unit."""
        concat = self.radar[-1] + self.beam[-1]
        branches = [(3, *self.radar), (1, *self.beam), (concat, *self.head, 1)]
        shapes = [(fan_out, fan_in, "relu")
                  for dims in branches for fan_in, fan_out in zip(dims, dims[1:])]
        shapes[-1] = (1, shapes[-1][1], "sigmoid")
        return shapes

    def n_params(self) -> int:
        return sum(out_dim * (in_dim + 1) for out_dim, in_dim, _ in self.shapes())


@dataclass(frozen=True)
class MlpModel:
    """`theta` holds every parameter: per layer its weights (row-major), then
    its bias, layers in radar, beam, head order. Layers hold views into it."""

    radar_branch: list[DenseLayer]
    beam_branch: list[DenseLayer]
    head: list[DenseLayer]
    norm: NormBounds
    theta: np.ndarray
    widths: ModelWidths

    def layers(self) -> list[DenseLayer]:
        return [*self.radar_branch, *self.beam_branch, *self.head]


def _model_on(widths: ModelWidths, norm: NormBounds,
              theta: np.ndarray | None = None) -> MlpModel:
    """Lay the layers of `widths` over `theta` (zeros if None) as views."""
    if theta is None:
        theta = np.zeros(widths.n_params())
    layers, off = [], 0
    for out_dim, in_dim, act in widths.shapes():
        end = off + out_dim * in_dim
        layers.append(DenseLayer(weights=theta[off:end].reshape(out_dim, in_dim),
                                 bias=theta[end:end + out_dim], activation=act))
        off = end + out_dim
    r, b = len(widths.radar), len(widths.radar) + len(widths.beam)
    return MlpModel(layers[:r], layers[r:b], layers[b:], norm, theta, widths)


def init_weights(widths: ModelWidths, norm: NormBounds, seed: int = 0) -> MlpModel:
    """He-style uniform initialization: weights ~ U[-sqrt(6/fan_in), +sqrt(6/fan_in)]."""
    rng = child_rng(seed, "init")
    model = _model_on(widths, norm)
    for layer in model.layers():
        bound = np.sqrt(6.0 / layer.weights.shape[1])
        layer.weights[:] = rng.uniform(-bound, bound, size=layer.weights.shape)
    return model


def _forward_layers(layers, x, caches: list | None = None):
    """Run `x` through `layers`. Training passes `caches`, which gets each
    layer's (input, output) for backprop, and a sigmoid layer then stops at
    its logit clip(z, -500, 500), which the loss reads; inference keeps no
    caches and applies the sigmoid."""
    a = x
    for layer in layers:
        z = a.dot(layer.weights.T)
        z += layer.bias
        if layer.activation == "relu":
            np.maximum(z, 0.0, out=z)
        else:  # 1 / (1 + exp(-clip(z, -500, 500))), one operation at a time
            np.minimum(np.maximum(z, -500.0, out=z), 500.0, out=z)
            if caches is None:
                np.exp(np.negative(z, out=z), out=z)
                z += 1.0
                np.divide(1.0, z, out=z)
        if caches is not None:
            caches.append((a, z))
        a = z
    return a


def _backward_layers(layers, caches, d_out, grads, input_grad=True):
    """Write each layer's gradient into its view in `grads` (layers laid out
    like `layers`) and return the gradient of the input, or None when
    `input_grad` is False: a branch's first layer needs none. At a sigmoid
    layer, the head's last, `d_out` is already the loss's gradient in its
    logit, so no sigmoid derivative multiplies it."""
    d = d_out
    for k in reversed(range(len(layers))):
        layer, g, (a_in, a_out) = layers[k], grads[k], caches[k]
        dz = d * (a_out > 0) if layer.activation == "relu" else d
        np.add.reduce(dz, axis=0, out=g.bias)
        np.dot(dz.T, a_in, out=g.weights)
        d = dz.dot(layer.weights) if k or input_grad else None
    return d


def _normalize_radar(norm: NormBounds, feats: np.ndarray) -> np.ndarray:
    return (feats + norm.shift) / norm.scale


def _normalize_beams(norm: NormBounds, beams) -> np.ndarray:
    return (np.asarray(beams, dtype=float) / max(norm.n_beams - 1, 1))[:, None]


def normalize_inputs(norm: NormBounds, feats: np.ndarray, beams: np.ndarray):
    """Map raw (range, angle, velocity) rows and beam indices into [0, 1]."""
    return _normalize_radar(norm, feats), _normalize_beams(norm, beams)


def _score_batch(model: MlpModel, x_radar: np.ndarray, a_beam: np.ndarray, caches=(None, None)):
    """Scores of normalized radar rows beside their beam-branch activations;
    `caches` is (radar, head) lists when training, which returns the
    clipped logits instead (`_forward_layers`)."""
    c_radar, c_head = caches
    h = np.concatenate([_forward_layers(model.radar_branch, x_radar, c_radar), a_beam], axis=1)
    return _forward_layers(model.head, h, c_head)[:, 0]


def _require_finite(*arrays: np.ndarray) -> None:
    for x in arrays:
        if not np.isfinite(x).all():
            raise ValueError("model inputs must be finite")


def score_candidates(model: MlpModel, feats, beams) -> np.ndarray:
    """Likelihood scores for raw (range, angle, velocity) rows and beam indices.

    The reference forward pass: both branches run on every row.
    """
    feats = np.atleast_2d(np.asarray(feats, dtype=float))
    beams = np.atleast_1d(np.asarray(beams, dtype=float))
    _require_finite(feats, beams)
    x_radar, x_beam = normalize_inputs(model.norm, feats, beams)
    return _score_batch(model, x_radar, _forward_layers(model.beam_branch, x_beam))


def beam_table(model: MlpModel) -> np.ndarray:
    """Beam-branch activations of every codebook beam, row b for beam index b.

    The branch sees only the beam index, so inference reads these rows
    (`score_with_beam_table`) instead of running the branch per candidate.
    The table is valid until `model.theta` changes.
    """
    x_beam = _normalize_beams(model.norm, np.arange(model.norm.n_beams))
    return _forward_layers(model.beam_branch, x_beam)


def score_with_beam_table(model: MlpModel, table: np.ndarray, feats, beam_rows) -> np.ndarray:
    """`score_candidates` for raw rows whose beam-branch activations are
    `table[beam_rows]`, `table` being `beam_table(model)`."""
    feats = np.asarray(feats, dtype=float)
    _require_finite(feats)
    return _score_batch(model, _normalize_radar(model.norm, feats), table[beam_rows])


def _loss_and_grad(model: MlpModel, x_radar, x_beam, y, grads: MlpModel) -> float:
    """Binary cross-entropy of normalized rows; their gradient is written into
    `grads`, a model laid over the gradient vector (`_model_on`).

    With z the head's logit clipped to [-500, 500], the loss is
    mean(max(z, 0) - y z + log1p(exp(-|z|))), which never takes the log of a
    rounded score, and the logit's gradient is (sigmoid(z) - y) / n: no
    sigmoid derivative, so a saturated head still learns.
    """
    c_radar, c_beam, c_head = [], [], []
    a_beam = _forward_layers(model.beam_branch, x_beam, c_beam)
    z = _score_batch(model, x_radar, a_beam, (c_radar, c_head))
    n = len(y)
    loss = float(np.add.reduce(np.maximum(z, 0.0) - y * z + np.log1p(np.exp(-np.abs(z)))) / n)

    d_z = ((1.0 / (1.0 + np.exp(-z)) - y) / n)[:, None]
    d_h = _backward_layers(model.head, c_head, d_z, grads.head)
    radar_width = len(model.radar_branch[-1].bias)
    _backward_layers(model.radar_branch, c_radar, d_h[:, :radar_width], grads.radar_branch,
                     input_grad=False)
    _backward_layers(model.beam_branch, c_beam, d_h[:, radar_width:], grads.beam_branch,
                     input_grad=False)
    return loss


def loss_and_grad_arrays(model: MlpModel, feats, beams, targets):
    """`_loss_and_grad`'s binary cross-entropy over a batch of raw rows and its
    backprop gradient, one vector aligned with model.theta."""
    feats = np.asarray(feats, dtype=float)
    beams = np.asarray(beams, dtype=float)
    y = np.asarray(targets, dtype=float)
    if len(y) == 0:
        raise ValueError("batch must be non-empty")
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("targets must be 0 or 1")
    _require_finite(feats, beams)
    x_radar, x_beam = normalize_inputs(model.norm, feats, beams)
    grads = _model_on(model.widths, model.norm)
    return _loss_and_grad(model, x_radar, x_beam, y, grads), grads.theta


@dataclass
class AdamState:
    """Adam's step count and moment estimates. The first `adam_step`
    allocates `m`, `v` and two work buffers shaped like its theta; later
    steps update them in place and reject a theta of any other shape."""

    lr: float = 1e-3
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    work: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)


def adam_step(state: AdamState, theta: np.ndarray, grad: np.ndarray) -> None:
    """One bias-corrected Adam update of `theta`, in place (Kingma & Ba,
    arXiv:1412.6980).

    Each elementwise operation of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g)
    and theta -= lr*(m/c1) / (sqrt(v/c2) + eps) runs in that order into the
    state's buffers, so the update has the bits of the allocating formula.
    """
    if theta.shape != grad.shape:
        raise ValueError(f"gradient shape {grad.shape} != parameter shape {theta.shape}")
    if state.m is None:
        state.m, state.v = np.zeros(theta.shape), np.zeros(theta.shape)
        state.work = np.empty(theta.shape), np.empty(theta.shape)
    elif state.m.shape != theta.shape:
        raise ValueError(f"parameter shape {theta.shape} != shape {state.m.shape} "
                         "this Adam state was built on")
    state.step += 1
    m, v, (t, u) = state.m, state.v, state.work
    m *= _BETA1
    np.multiply(grad, 1.0 - _BETA1, out=t)
    m += t
    v *= _BETA2
    np.multiply(grad, grad, out=t)
    t *= 1.0 - _BETA2
    v += t
    c1 = 1.0 - _BETA1 ** state.step
    # c1 rounds to 1.0 from step 356 on, and m / 1.0 is m bit for bit.
    m_hat = m if c1 == 1.0 else np.divide(m, c1, out=t)
    np.multiply(m_hat, state.lr, out=t)
    np.divide(v, 1.0 - _BETA2 ** state.step, out=u)
    np.sqrt(u, out=u)
    u += _EPS
    t /= u
    theta -= t


def save_model(model: MlpModel, path, hyper: dict | None = None) -> None:
    """Versioned binary checkpoint plus a human-readable JSON sidecar."""
    layers = model.layers()
    norm = {k: getattr(model.norm, k) for k in ("range_max", "angle_span", "vel_max", "n_beams")}
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sI", _CKPT_MAGIC, _CKPT_VERSION))
        fh.write(struct.pack("<dddd", *map(float, norm.values())))
        fh.write(struct.pack("<III", len(model.radar_branch),
                             len(model.beam_branch), len(model.head)))
        for layer in layers:
            fh.write(struct.pack("<IIB", layer.weights.shape[0],
                                 layer.weights.shape[1], _ACT_CODES[layer.activation]))
        fh.write(model.theta.astype("<f8").tobytes())
    sidecar = {
        "format_version": _CKPT_VERSION,
        "normalization": norm,
        "layers": [{"out": int(l.weights.shape[0]), "in": int(l.weights.shape[1]),
                    "activation": l.activation} for l in layers],
        "hyperparameters": hyper or {},
    }
    Path(str(path) + ".json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_model(path) -> MlpModel:
    """Read a `save_model` checkpoint; its layer table must be `shapes()` of
    the widths its out-dims give, or it is a CheckpointError."""
    path = Path(path)
    raw = path.read_bytes()
    off = 0

    def take(fmt):
        nonlocal off
        size = struct.calcsize(fmt)
        if off + size > len(raw):
            raise CheckpointError(f"{path}: truncated checkpoint")
        vals = struct.unpack_from(fmt, raw, off)
        off += size
        return vals

    magic, version = take("<4sI")
    if magic != _CKPT_MAGIC:
        raise CheckpointError(f"{path}: bad magic {magic!r}")
    if version != _CKPT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    bounds = take("<dddd")
    try:
        norm = NormBounds(*bounds)
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    counts = take("<III")
    if 0 in counts:
        raise CheckpointError(f"{path}: radar, beam and head need a layer each, got {counts}")
    table = [take("<IIB") for _ in range(sum(counts))]
    outs = tuple(out_dim for out_dim, _, _ in table)
    n_radar, n_beam, _ = counts
    widths = ModelWidths(radar=outs[:n_radar], beam=outs[n_radar:n_radar + n_beam],
                         head=outs[n_radar + n_beam:-1])
    if table != [(o, i, _ACT_CODES[act]) for o, i, act in widths.shapes()]:
        raise CheckpointError(f"{path}: layer table {table} is not the scorer's for {widths}")
    n = widths.n_params()
    if len(raw) - off != 8 * n:
        raise CheckpointError(f"{path}: {len(raw) - off} bytes of weight data, expected {8 * n}")
    theta = np.frombuffer(raw, dtype="<f8", count=n, offset=off).astype(np.float64)
    if not np.isfinite(theta).all():
        raise CheckpointError(f"{path}: non-finite weights")
    return _model_on(widths, norm, theta)
