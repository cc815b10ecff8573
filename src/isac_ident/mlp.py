"""Minimal deterministic feed-forward network for per-candidate scoring.

Two input branches (radar state and beam index) expand separately through
three dense layers each, are concatenated, and a four-layer head reduces
to a single sigmoid likelihood. Everything is plain numpy float64 with
hand-written backpropagation and Adam, so training is bit-reproducible
for a fixed seed on a given platform.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from isac_ident.seeding import child_rng

_CKPT_MAGIC = b"MLPC"
_CKPT_VERSION = 1
_ACT_CODES = {"relu": 0, "sigmoid": 1, "identity": 2}
_ACT_NAMES = {v: k for k, v in _ACT_CODES.items()}


class CheckpointError(ValueError):
    """Model checkpoint file is malformed."""


@dataclass(frozen=True)
class DenseLayer:
    weights: np.ndarray  # (out, in), a view into MlpModel.theta
    bias: np.ndarray     # (out,), a view into MlpModel.theta
    activation: str = "relu"

    def __post_init__(self):
        if self.activation not in _ACT_CODES:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise ValueError("weight/bias shapes are inconsistent")


@dataclass(frozen=True)
class NormBounds:
    """Input normalization constants mapping raw features into [0, 1]."""

    range_max: float
    angle_span: float
    vel_max: float
    n_beams: int

    def __post_init__(self):
        spans = (self.range_max, self.angle_span, self.vel_max)
        if not all(0.0 < x < math.inf for x in spans) or self.n_beams < 1:
            raise ValueError("normalization constants must be finite and positive")


@dataclass(frozen=True)
class ModelWidths:
    """Hidden widths per branch; the head ends in a single sigmoid unit."""

    radar: tuple[int, ...] = (16, 32, 64)
    beam: tuple[int, ...] = (16, 32, 64)
    head: tuple[int, ...] = (64, 32, 16)


@dataclass(frozen=True)
class MlpModel:
    """`theta` holds every parameter: per layer its weights (row-major), then
    its bias, layers in radar, beam, head order. Layers hold views into it."""

    radar_branch: list[DenseLayer]
    beam_branch: list[DenseLayer]
    head: list[DenseLayer]
    norm: NormBounds
    theta: np.ndarray

    def layers(self) -> list[DenseLayer]:
        return [*self.radar_branch, *self.beam_branch, *self.head]


def _model_on(shapes, n_radar: int, n_beam: int, norm: NormBounds,
              theta: np.ndarray | None = None) -> MlpModel:
    """Lay (out, in, activation) layers over `theta` (zeros if None) as views."""
    if theta is None:
        theta = np.zeros(sum(out_dim * (in_dim + 1) for out_dim, in_dim, _ in shapes))
    layers, off = [], 0
    for out_dim, in_dim, act in shapes:
        end = off + out_dim * in_dim
        layers.append(DenseLayer(weights=theta[off:end].reshape(out_dim, in_dim),
                                 bias=theta[end:end + out_dim], activation=act))
        off = end + out_dim
    return MlpModel(radar_branch=layers[:n_radar],
                    beam_branch=layers[n_radar:n_radar + n_beam],
                    head=layers[n_radar + n_beam:], norm=norm, theta=theta)


def init_weights(widths: ModelWidths, norm: NormBounds, seed: int = 0) -> MlpModel:
    """He-style uniform initialization: weights ~ U[-sqrt(6/fan_in), +sqrt(6/fan_in)]."""
    rng = child_rng(seed, "init")
    concat = widths.radar[-1] + widths.beam[-1]
    branches = [(3, *widths.radar), (1, *widths.beam), (concat, *widths.head, 1)]
    shapes = [(fan_out, fan_in, "relu")
              for dims in branches for fan_in, fan_out in zip(dims, dims[1:])]
    shapes[-1] = (1, shapes[-1][1], "sigmoid")
    model = _model_on(shapes, len(widths.radar), len(widths.beam), norm)
    for layer in model.layers():
        bound = np.sqrt(6.0 / layer.weights.shape[1])
        layer.weights[:] = rng.uniform(-bound, bound, size=layer.weights.shape)
    return model


def _apply_activation(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "sigmoid":
        return 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))
    return z


def _activation_grad(z: np.ndarray, a: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return (z > 0).astype(float)
    if kind == "sigmoid":
        return a * (1.0 - a)
    return np.ones_like(z)


def _forward_layers(layers, x):
    caches = []
    a = x
    for layer in layers:
        z = a @ layer.weights.T + layer.bias
        out = _apply_activation(z, layer.activation)
        caches.append((a, z, out))
        a = out
    return a, caches


def _backward_layers(layers, caches, d_out):
    """Per-layer gradients in theta's order, plus the gradient of the input."""
    grads: list[np.ndarray] = []
    d = d_out
    for layer, (a_in, z, a_out) in zip(reversed(layers), reversed(caches)):
        dz = d * _activation_grad(z, a_out, layer.activation)
        grads.append(dz.sum(axis=0))        # bias
        grads.append((dz.T @ a_in).ravel())  # weights
        d = dz @ layer.weights
    grads.reverse()  # now (dW, db) per layer in forward order
    return grads, d


def normalize_inputs(norm: NormBounds, feats: np.ndarray, beams: np.ndarray):
    """Map raw (range, angle, velocity) rows and beam indices into [0, 1]."""
    feats = np.asarray(feats, dtype=float)
    beams = np.asarray(beams, dtype=float)
    x_radar = np.column_stack([
        feats[:, 0] / norm.range_max,
        (feats[:, 1] + norm.angle_span / 2.0) / norm.angle_span,
        (feats[:, 2] + norm.vel_max) / (2.0 * norm.vel_max),
    ])
    denom = max(norm.n_beams - 1, 1)
    x_beam = (beams / denom)[:, None]
    return x_radar, x_beam


def _score_batch(model: MlpModel, feats: np.ndarray, beams: np.ndarray):
    x_radar, x_beam = normalize_inputs(model.norm, feats, beams)
    a_radar, c_radar = _forward_layers(model.radar_branch, x_radar)
    a_beam, c_beam = _forward_layers(model.beam_branch, x_beam)
    h = np.concatenate([a_radar, a_beam], axis=1)
    s, c_head = _forward_layers(model.head, h)
    return s[:, 0], (c_radar, c_beam, c_head, a_radar.shape[1])


def score_candidates(model: MlpModel, feats, beams) -> np.ndarray:
    """Likelihood scores for raw (range, angle, velocity) rows and beam indices."""
    feats = np.atleast_2d(np.asarray(feats, dtype=float))
    beams = np.atleast_1d(np.asarray(beams, dtype=float))
    if not (np.isfinite(feats).all() and np.isfinite(beams).all()):
        raise ValueError("model inputs must be finite")
    scores, _ = _score_batch(model, feats, beams)
    return scores


def loss_and_grad_arrays(model: MlpModel, feats, beams, targets):
    """Mean squared error over a batch plus backprop gradients.

    The gradient comes back as one vector aligned with model.theta.
    """
    feats = np.asarray(feats, dtype=float)
    beams = np.asarray(beams, dtype=float)
    y = np.asarray(targets, dtype=float)
    if len(y) == 0:
        raise ValueError("batch must be non-empty")
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("targets must be 0 or 1")
    scores, (c_radar, c_beam, c_head, radar_width) = _score_batch(model, feats, beams)
    err = scores - y
    loss = float(np.mean(err ** 2))

    d_scores = (2.0 / len(y)) * err[:, None]
    g_head, d_h = _backward_layers(model.head, c_head, d_scores)
    g_radar, _ = _backward_layers(model.radar_branch, c_radar, d_h[:, :radar_width])
    g_beam, _ = _backward_layers(model.beam_branch, c_beam, d_h[:, radar_width:])
    return loss, np.concatenate([*g_radar, *g_beam, *g_head])


@dataclass
class AdamState:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: np.ndarray | float = 0.0  # shaped like theta after the first step
    v: np.ndarray | float = 0.0


def adam_step(state: AdamState, theta: np.ndarray, grad: np.ndarray) -> None:
    """One bias-corrected Adam update of `theta`, in place."""
    if theta.shape != grad.shape:
        raise ValueError(f"gradient shape {grad.shape} != parameter shape {theta.shape}")
    state.step += 1
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * (grad * grad)
    m_hat = state.m / (1.0 - state.beta1 ** state.step)
    v_hat = state.v / (1.0 - state.beta2 ** state.step)
    theta -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


def save_model(model: MlpModel, path, hyper: dict | None = None) -> None:
    """Versioned binary checkpoint plus a human-readable JSON sidecar."""
    layers = model.layers()
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sI", _CKPT_MAGIC, _CKPT_VERSION))
        fh.write(struct.pack("<dddd", model.norm.range_max, model.norm.angle_span,
                             model.norm.vel_max, float(model.norm.n_beams)))
        fh.write(struct.pack("<III", len(model.radar_branch),
                             len(model.beam_branch), len(model.head)))
        for layer in layers:
            fh.write(struct.pack("<IIB", layer.weights.shape[0],
                                 layer.weights.shape[1], _ACT_CODES[layer.activation]))
        fh.write(model.theta.astype("<f8").tobytes())
    sidecar = {
        "format_version": _CKPT_VERSION,
        "normalization": {
            "range_max": model.norm.range_max,
            "angle_span": model.norm.angle_span,
            "vel_max": model.norm.vel_max,
            "n_beams": model.norm.n_beams,
        },
        "layers": [
            {"out": int(l.weights.shape[0]), "in": int(l.weights.shape[1]),
             "activation": l.activation}
            for l in layers
        ],
        "hyperparameters": hyper or {},
    }
    Path(str(path) + ".json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_model(path) -> MlpModel:
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
    r_max, a_span, v_max, n_beams = take("<dddd")
    if not all(0.0 < x < math.inf for x in (r_max, a_span, v_max)) or not 1 <= n_beams < math.inf:
        raise CheckpointError(
            f"{path}: normalization constants must be finite and positive, got "
            f"range_max={r_max!r}, angle_span={a_span!r}, vel_max={v_max!r}, n_beams={n_beams!r}")
    n_radar, n_beam, n_head = take("<III")
    shapes = []
    for _ in range(n_radar + n_beam + n_head):
        out_dim, in_dim, act = take("<IIB")
        if act not in _ACT_NAMES:
            raise CheckpointError(f"{path}: unknown activation code {act}")
        shapes.append((out_dim, in_dim, _ACT_NAMES[act]))
    n = sum(out_dim * (in_dim + 1) for out_dim, in_dim, _ in shapes)
    if off + 8 * n > len(raw):
        raise CheckpointError(f"{path}: truncated weight data")
    if off + 8 * n < len(raw):
        raise CheckpointError(f"{path}: {len(raw) - off - 8 * n} bytes after the weight data")
    theta = np.frombuffer(raw, dtype="<f8", count=n, offset=off).astype(np.float64)
    if not np.isfinite(theta).all():
        raise CheckpointError(f"{path}: non-finite weights")
    norm = NormBounds(range_max=r_max, angle_span=a_span, vel_max=v_max,
                      n_beams=int(n_beams))
    return _model_on(shapes, n_radar, n_beam, norm, theta)
