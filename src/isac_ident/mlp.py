"""Minimal deterministic feed-forward network for per-candidate scoring.

Two input branches (radar state and beam index) expand separately through
three dense layers each, are concatenated, and a four-layer head reduces
to a single sigmoid unit (`ModelWidths.shapes()`). Training and inference
both stop at its clipped pre-activation, the logit: the loss is binary
cross-entropy on it, so a saturated head still gets a gradient, and only
`score_candidates`, the reference forward pass, applies the sigmoid.
Everything is plain numpy float64 with hand-written backpropagation and
Adam, so training (`solvers.DnnSolver.fit`) is bit-reproducible for a
fixed seed on a given platform. Training normalizes its inputs once per
fit, writes each batch's gradient in place into a vector laid out like
`theta` (`_loss_and_grad`) and updates Adam's moments in place, kept
pre-scaled so that a step is ten elementwise passes over the parameters
(`adam_step`); `loss_and_grad_arrays` is the same loss on raw rows.
Inference runs through a `ScoringPlan` built once per model
(`scoring_plan`, `plan_logits`): the beam branch sees only the
serving-beam index, so it and the beam half of the head's first layer are
read from a per-beam table.

On 6-row samples and 64-row batches numpy's per-call dispatch sets much
of the cost. A training layer is `a.dot(W.T)` on the transposed view, then
`z += b` and the activation in place: `ndarray.dot` has the bits of
`a @ W.T`, and a (32, 3) by (3, 16) product takes 1.4 us through it against
2.4 us through `matmul` (2-vCPU Xeon, numpy 2.4.6, one OpenBLAS thread); a
contiguous copy of `W.T` would change the bits. The plan holds such copies
and folds the input scaling into its first layer, so its logits differ from
`score_candidates`' in the last bits. Training caches each layer's (input,
output); relu's gradient mask is `output > 0`, equal to z > 0 even for NaN.
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
_FLUSH_EVERY = 32  # Adam steps between flushes of the first moment's subnormals


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
    """Run `x` through `layers`; a sigmoid layer stops at its logit
    clip(z, -500, 500), -500 for a NaN z. Training passes `caches`, which
    gets each layer's (input, output) for backprop."""
    a = x
    for layer in layers:
        z = a.dot(layer.weights.T)
        z += layer.bias
        if layer.activation == "relu":
            np.maximum(z, 0.0, out=z)
        else:  # the logit: the sigmoid is score_candidates' and the loss's
            np.fmin(np.fmax(z, -500.0, out=z), 500.0, out=z)
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
    """Clipped logits of normalized radar rows beside their beam-branch
    activations; `caches` is (radar, head) lists when training."""
    c_radar, c_head = caches
    h = np.concatenate([_forward_layers(model.radar_branch, x_radar, c_radar), a_beam], axis=1)
    return _forward_layers(model.head, h, c_head)[:, 0]


def _require_finite(*arrays: np.ndarray) -> None:
    for x in arrays:
        if not np.isfinite(x).all():
            raise ValueError("model inputs must be finite")


def score_candidates(model: MlpModel, feats, beams) -> np.ndarray:
    """Likelihood scores for raw (range, angle, velocity) rows and beam indices.

    The reference forward pass: both branches run on every row, and the
    sigmoid 1 / (1 + exp(-z)) of the clipped logit z is the score. A row whose
    layers overflow into a NaN logit scores last, without a warning.
    """
    feats = np.atleast_2d(np.asarray(feats, dtype=float))
    beams = np.atleast_1d(np.asarray(beams, dtype=float))
    _require_finite(feats, beams)
    x_radar, x_beam = normalize_inputs(model.norm, feats, beams)
    with np.errstate(over="ignore", invalid="ignore"):
        z = _score_batch(model, x_radar, _forward_layers(model.beam_branch, x_beam))
    return 1.0 / (1.0 + np.exp(-z))


@dataclass(frozen=True)
class ScoringPlan:
    """`scoring_plan`'s inference weights: (contiguous W.T, bias, activation)
    per layer, radar branch then head. The first layer reads raw rows (W0 /
    scale, b0 + W0 (shift / scale)); the head's first layer, at `beam_layer`,
    keeps the radar columns, and its bias is the (n_beams, out) per-beam table
    of the beam columns times the beam branch's output, plus the layer's bias."""

    layers: tuple[tuple[np.ndarray, np.ndarray, str], ...]
    beam_layer: int


def scoring_plan(model: MlpModel) -> ScoringPlan:
    """The `ScoringPlan` of `model`, copied out of `theta`, whose later changes
    it does not see."""
    norm, (first, *radar), (head_in, *head) = model.norm, model.radar_branch, model.head
    width = len(model.radar_branch[-1].bias)
    a_beam = _forward_layers(model.beam_branch, _normalize_beams(norm, np.arange(norm.n_beams)))
    layers = [(first.weights / norm.scale, first.bias + first.weights.dot(norm.shift / norm.scale),
               first.activation),
              *((l.weights, l.bias, l.activation) for l in radar),
              (head_in.weights[:, :width],
               a_beam.dot(head_in.weights[:, width:].T) + head_in.bias, head_in.activation),
              *((l.weights, l.bias, l.activation) for l in head)]
    return ScoringPlan(tuple((np.ascontiguousarray(w.T), np.array(b), act) for w, b, act in layers),
                       beam_layer=len(model.radar_branch))


def plan_logits(plan: ScoringPlan, feats, beams) -> np.ndarray:
    """`score_candidates`' logits, before its sigmoid, of raw rows through
    `plan`; `beams` is each row's beam index, or one index for every row.

    A finite but huge row can overflow a layer, and inf - inf is NaN: this
    warns about neither, and its final clip takes a NaN logit to -500, so
    such a row ranks last, as an infinite table distance does."""
    a = np.asarray(feats, dtype=float)
    _require_finite(a)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (w_t, bias, activation) in enumerate(plan.layers):
            z = a.dot(w_t)
            z += bias[beams] if k == plan.beam_layer else bias
            if activation == "relu":
                np.maximum(z, 0.0, out=z)
            else:
                np.fmin(np.fmax(z, -500.0, out=z), 500.0, out=z)
            a = z
    return a[:, 0]


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
    """Adam's step count and its moments, kept pre-scaled: `m` is the first
    moment over (1 - beta1) and `v` the second over (1 - beta2). The first
    `adam_step` allocates `m`, `v` and one work buffer shaped like its theta;
    later steps update them in place and reject a theta of any other shape."""

    lr: float = 1e-3
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    work: np.ndarray | None = field(default=None, repr=False)


def adam_step(state: AdamState, theta: np.ndarray, grad: np.ndarray) -> None:
    """One bias-corrected Adam update of `theta`, in place (Kingma & Ba,
    arXiv:1412.6980), with its moments pre-scaled as `AdamState` keeps them.

    With m~ = m / (1-b1) and v~ = v / (1-b2) the moments update as
    m~ = b1*m~ + g and v~ = b2*v~ + g*g, and with r = sqrt(c2 / (1-b2)) the
    textbook step lr*(m/c1) / (sqrt(v/c2) + eps) is
    (lr*(1-b1)/c1*r) * m~ / (sqrt(v~) + eps*r): the same update with the
    same eps, exact in algebra, in ten elementwise passes and one work buffer.
    Every 32 steps, entries of m~ below the smallest normal float are set to
    0: a parameter whose gradient stays 0 would otherwise keep a first moment
    decaying through the subnormals, where float arithmetic is slow.
    """
    if theta.shape != grad.shape:
        raise ValueError(f"gradient shape {grad.shape} != parameter shape {theta.shape}")
    if state.m is None:
        state.m, state.v, state.work = (np.zeros(theta.shape), np.zeros(theta.shape),
                                        np.empty(theta.shape))
    elif state.m.shape != theta.shape:
        raise ValueError(f"parameter shape {theta.shape} != shape {state.m.shape} "
                         "this Adam state was built on")
    state.step += 1
    m, v, u = state.m, state.v, state.work
    m *= _BETA1
    m += grad
    v *= _BETA2
    np.multiply(grad, grad, out=u)
    v += u
    r = math.sqrt((1.0 - _BETA2 ** state.step) / (1.0 - _BETA2))
    np.sqrt(v, out=u)
    u += _EPS * r
    np.divide(m, u, out=u)
    u *= state.lr * (1.0 - _BETA1) / (1.0 - _BETA1 ** state.step) * r
    theta -= u
    if state.step % _FLUSH_EVERY == 0:
        m[np.abs(m) < np.finfo(float).tiny] = 0.0


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
