"""User-identification solvers: pick which candidate object is the comm user.

Every solver fits on labeled samples and predicts a candidate index from
the candidate list plus the serving beam index. Model-based baselines map
the beam pointing angle into the radar frame (constant offset, linear
regression on angle, linear regression on the full state, per-beam lookup
table); the learned solver (`DnnSolver`, whose `fit` is the training
loop) scores each candidate independently with the feed-forward network
and returns the argmax.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from isac_ident.mlp import (
    AdamState,
    MlpModel,
    ModelWidths,
    NormBounds,
    adam_step,
    init_weights,
    loss_and_grad_arrays,
    score_candidates,
)
from isac_ident.radar_detect import Candidate
from isac_ident.seeding import child_rng


class SolverError(ValueError):
    """Training or test data from which a solver cannot be fitted or scored."""


@dataclass(frozen=True)
class Sample:
    """One dataset row: candidate list, serving beam, and the user's index."""

    sample_id: int
    sequence_id: int
    candidates: tuple[Candidate, ...]
    b_star: int
    label: int | None = None

    def __post_init__(self):
        if len(self.candidates) < 1:
            raise ValueError("sample must contain at least one candidate")
        if self.b_star < 0:
            raise ValueError("beam index must be non-negative")
        if self.label is not None and not 0 <= self.label < len(self.candidates):
            raise ValueError("label must index into the candidate list")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for the learned solver."""

    lr: float = 1e-3
    epochs: int = 100
    batch: int = 32
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.lr < math.inf:
            raise ValueError("lr must be finite and > 0")
        if self.epochs < 1 or self.batch < 1:
            raise ValueError("epochs and batch must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def _require_labeled(samples, what: str) -> None:
    if not samples:
        raise SolverError(f"{what} set must be non-empty")
    if any(s.label is None for s in samples):
        raise SolverError(f"{what} set must be fully labeled")


def _beam_angles(train, pointing_angles) -> np.ndarray:
    """Serving-beam angle of every sample of a labeled train set."""
    _require_labeled(train, "train")
    return np.asarray(pointing_angles)[[s.b_star for s in train]]


def _target_angles(train) -> np.ndarray:
    return np.array([s.candidates[s.label].angle_deg for s in train])


def estimate_offset(train, pointing_angles) -> float:
    """Mean residual between target radar angles and serving-beam angles.

    This is the squared-error-minimizing constant for the radar angle
    model psi_r = psi_0 + beam angle.
    """
    x = _beam_angles(train, pointing_angles)
    return float((_target_angles(train) - x).mean())


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares intercept and slope for y = a + b*x."""
    # Not sxx == 0: the mean of identical floats is inexact, so sxx is noise.
    if np.ptp(x) == 0:
        raise SolverError("degenerate design: all beam angles are equal")
    sxx = float(((x - x.mean()) ** 2).sum())
    slope = float(((x - x.mean()) * (y - y.mean())).sum()) / sxx
    return float(y.mean() - slope * x.mean()), slope


# The fit rules of TableSolver follow; see its docstring for what they return.
_ANGLE_ONLY = (math.inf, 1.0, math.inf)


def _angle_table(angles: np.ndarray) -> np.ndarray:
    table = np.zeros((len(angles), 3))
    table[:, 1] = angles
    return table


def _fit_offset(train, pointing_angles):
    psi0 = estimate_offset(train, pointing_angles)
    return {"psi0": psi0}, _angle_table(pointing_angles + psi0), _ANGLE_ONLY


def _fit_linreg_angle(train, pointing_angles):
    x = _beam_angles(train, pointing_angles)
    intercept, slope = _ols(x, _target_angles(train))
    table = _angle_table(intercept + slope * pointing_angles)
    return {"intercept": intercept, "slope": slope}, table, _ANGLE_ONLY


def _fit_linreg_3d(train, pointing_angles):
    """Per-axis linear fits of the target state from the serving-beam angle.

    `fits` holds [intercept, slope, residual_sigma] for range, angle and
    velocity; residual sigmas are floored so no axis degenerates in the
    z-scored distance used at prediction time.
    """
    x = _beam_angles(train, pointing_angles)
    fits = []
    for axis in ("range_m", "angle_deg", "vel_mps"):
        y = np.array([getattr(s.candidates[s.label], axis) for s in train])
        intercept, slope = _ols(x, y)
        sigma = float(np.sqrt(np.mean((y - intercept - slope * x) ** 2)))
        fits.append([intercept, slope, max(sigma, 1e-6)])
    table = np.stack([a + b * pointing_angles for a, b, _ in fits], axis=1)
    return {"fits": fits}, table, tuple(s for _, _, s in fits)


def _fit_lookup(train, pointing_angles):
    """Per-beam mean target radar angle; unseen beams fall back to phi_b + offset."""
    table = pointing_angles + estimate_offset(train, pointing_angles)
    targets = _target_angles(train)
    beams = np.array([s.b_star for s in train])
    for b in np.unique(beams):
        table[b] = targets[beams == b].mean()
    return {"table": table.tolist()}, _angle_table(table), _ANGLE_ONLY


_FIT_RULES = {
    "offset": _fit_offset,
    "linreg-angle": _fit_linreg_angle,
    "linreg-3d": _fit_linreg_3d,
    "lookup": _fit_lookup,
}
SOLVER_NAMES = (*_FIT_RULES, "dnn")


def expand_to_rows(samples):
    """Flatten samples into per-candidate training rows.

    Each candidate becomes one row of raw features (range, angle,
    velocity), the sample's beam index, and a 0/1 target marking the
    communication user.
    """
    feats, beams, targets = [], [], []
    for s in samples:
        for k, c in enumerate(s.candidates):
            feats.append((c.range_m, c.angle_deg, c.vel_mps))
            beams.append(s.b_star)
            targets.append(1.0 if k == s.label else 0.0)
    return np.array(feats), np.array(beams, dtype=float), np.array(targets)


def predict_dnn(candidates, b_star: int, model: MlpModel) -> int:
    """Highest-scoring candidate; ties take the lowest index."""
    if not candidates:
        raise ValueError("candidate list must be non-empty")
    feats = [(c.range_m, c.angle_deg, c.vel_mps) for c in candidates]
    scores = score_candidates(model, feats, [b_star] * len(candidates))
    return int(np.argmax(scores))


class TableSolver:
    """Model-based baseline: a predicted (range, angle, velocity) per beam.

    `fit_rule(train, pointing_angles)` returns `params` (the fitted values
    written to params.json), the (n_beams, 3) `table` and the per-axis
    `sigma`; angle-only rules give range and velocity an infinite sigma.
    `predict` picks the candidate minimizing
    sum(((table[b_star] - state) / sigma) ** 2), ties to the lowest index.
    """

    def __init__(self, name: str, fit_rule, pointing_angles):
        self.name = name
        self.fit_rule = fit_rule
        self.pointing_angles = np.asarray(pointing_angles, dtype=float)

    def fit(self, train) -> None:
        self.params, self.table, self.sigma = self.fit_rule(train, self.pointing_angles)

    def predict(self, candidates, b_star: int) -> int:
        if not candidates:
            raise ValueError("candidate list must be non-empty")
        # Python floats: numpy arithmetic per candidate is several times slower.
        pr, pa, pv = self.table[b_star].tolist()
        sr, sa, sv = self.sigma
        best, best_d = 0, math.inf
        for k, c in enumerate(candidates):
            d = (((pr - c.range_m) / sr) ** 2 + ((pa - c.angle_deg) / sa) ** 2
                 + ((pv - c.vel_mps) / sv) ** 2)
            if d < best_d:
                best, best_d = k, d
        return best


class DnnSolver:
    """The learned solver: `fit` trains the per-candidate scorer, `predict` is its argmax."""

    name = "dnn"

    def __init__(self, pointing_angles, hyper: TrainConfig = TrainConfig(),
                 widths: ModelWidths = ModelWidths()):
        self.pointing_angles = np.asarray(pointing_angles, dtype=float)
        self.hyper = hyper
        self.widths = widths
        self.model: MlpModel | None = None
        self.epoch_losses: list[float] = []

    def fit(self, train) -> None:
        """Adam on the expanded rows, reshuffled every epoch by a seeded generator;
        keeps the final weights (no early stopping) and each epoch's mean loss."""
        _require_labeled(train, "train")
        feats, beams, targets = expand_to_rows(train)
        norm = NormBounds(range_max=max(float(feats[:, 0].max()), 1.0),
                          angle_span=max(2.0 * float(np.abs(feats[:, 1]).max()), 10.0),
                          vel_max=max(float(np.abs(feats[:, 2]).max()), 1.0),
                          n_beams=len(self.pointing_angles))
        hyper, n = self.hyper, len(feats)
        model = init_weights(self.widths, norm, seed=hyper.seed)
        state = AdamState(lr=hyper.lr)
        rng = child_rng(hyper.seed, "shuffle")
        self.epoch_losses = []
        for _ in range(hyper.epochs):
            order = rng.permutation(n)
            total = 0.0
            for start in range(0, n, hyper.batch):
                idx = order[start:start + hyper.batch]
                loss, grad = loss_and_grad_arrays(model, feats[idx], beams[idx], targets[idx])
                adam_step(state, model.theta, grad)
                total += loss * len(idx)
            self.epoch_losses.append(total / n)
        self.model = model

    def predict(self, candidates, b_star: int) -> int:
        return predict_dnn(candidates, b_star, self.model)


def make_solver(name: str, pointing_angles,
                hyper: TrainConfig | None = None) -> TableSolver | DnnSolver:
    if name == "dnn":
        return DnnSolver(pointing_angles, hyper or TrainConfig())
    if name not in _FIT_RULES:
        raise ValueError(f"unknown solver {name!r}; valid names: {', '.join(SOLVER_NAMES)}")
    return TableSolver(name, _FIT_RULES[name], pointing_angles)


def evaluate(solver, test) -> float:
    """Fraction of samples whose predicted index matches the label.

    `solver` is any object with `predict(candidates, b_star)`.
    """
    _require_labeled(test, "test")
    hits = sum(
        1 for s in test if solver.predict(s.candidates, s.b_star) == s.label
    )
    return hits / len(test)
