"""User-identification solvers: pick which candidate object is the comm user.

Every solver fits on labeled samples and rates candidates one row at a
time: `score_rows(feats, beams)` scores the rows of `expand_to_rows`, and
the prediction is the highest-scoring candidate of a sample, ties to the
lowest index. `predict_split` applies that rule to a whole split at once
(the split expanded once for every solver, one `segment_argmax` over every
row); `predict(candidates, b_star)` applies it to one sample. A serving
beam outside the codebook is a `SolverError`. Model-based baselines map
the beam pointing angle into the radar frame (constant offset, linear
regression on angle, linear regression on the full state, per-beam lookup
table); the learned solver (`DnnSolver`, whose `fit` is the training loop)
scores each candidate with the feed-forward network.
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
    _loss_and_grad,
    _model_on,
    adam_step,
    beam_table,
    init_weights,
    normalize_inputs,
    score_candidates,
    score_with_beam_table,
)
from isac_ident.radar_detect import Candidate
from isac_ident.seeding import child_rng


class SolverError(ValueError):
    """Training or test data from which a solver cannot be fitted or scored."""


@dataclass(frozen=True, slots=True)
class Sample:
    """One dataset row: candidate list, serving beam, and the user's index."""

    sample_id: int
    sequence_id: int
    candidates: tuple[Candidate, ...]
    b_star: int
    label: int

    def __post_init__(self):
        if len(self.candidates) < 1:
            raise ValueError("sample must contain at least one candidate")
        if self.b_star < 0:
            raise ValueError("beam index must be non-negative")
        if not 0 <= self.label < len(self.candidates):
            raise ValueError("label must index into the candidate list")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for the learned solver; `lr` is the peak of the cosine
    schedule `DnnSolver.fit` decays it by."""

    lr: float = 2e-3
    epochs: int = 100
    batch: int = 64
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.lr < math.inf:
            raise ValueError("lr must be finite and > 0")
        if self.epochs < 1 or self.batch < 1:
            raise ValueError("epochs and batch must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def _require_nonempty(samples, what: str) -> None:
    if not samples:
        raise SolverError(f"{what} set must be non-empty")


def _beam_angles(train, pointing_angles) -> np.ndarray:
    """Serving-beam angle of every sample of a non-empty train set."""
    _require_nonempty(train, "train")
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
# Rows per scorer call when a split is scored: over a 17k-row split, 256-row
# calls take as long in all as 1024-row ones (about 23 ms) and hold a quarter
# of the activations; 1024-row calls raised the peak memory of `eval` by 2.5 MB.
SCORE_CHUNK = 256


def expand_to_rows(samples):
    """Flatten samples into per-candidate training rows.

    Each candidate becomes one row of raw features (range, angle,
    velocity; an (N, 3) float array), the sample's integer beam index, and
    a 0/1 target marking the communication user.
    """
    feats = np.fromiter((x for s in samples for c in s.candidates
                         for x in (c.range_m, c.angle_deg, c.vel_mps)), dtype=float)
    sizes = _sizes(samples)
    beams = np.repeat(np.array([s.b_star for s in samples], dtype=int), sizes)
    targets = np.zeros(len(beams))
    targets[np.cumsum(sizes) - sizes + np.array([s.label for s in samples], dtype=int)] = 1.0
    return feats.reshape(-1, 3), beams, targets


def _sizes(samples) -> np.ndarray:
    return np.array([len(s.candidates) for s in samples], dtype=int)


def segment_argmax(scores, sizes) -> np.ndarray:
    """Index of the highest score within each run of `sizes` consecutive rows.

    Ties take the lowest index, as `np.argmax` does within one sample.
    """
    scores = np.asarray(scores, dtype=float)
    sizes = np.asarray(sizes, dtype=int)
    if len(scores) != sizes.sum() or (sizes < 1).any():
        raise ValueError("sizes must be positive and sum to the number of scores")
    if np.isnan(scores).any():
        raise ValueError("scores must not be NaN")
    starts = np.cumsum(sizes) - sizes
    best = np.maximum.reduceat(scores, starts)
    hits = np.flatnonzero(scores == np.repeat(best, sizes))
    return hits[np.searchsorted(hits, starts)] - starts


def predict_split(solvers, samples) -> list[np.ndarray]:
    """Predicted candidate index of every sample, one array per solver.

    The split is expanded once; each of `solvers` (objects with
    `score_rows(feats, beams)`) scores all its rows in one call, and each
    sample's prediction is its highest-scoring row, ties to the lowest index.
    """
    if not samples:
        return [np.zeros(0, dtype=int) for _ in solvers]
    feats, beams, _ = expand_to_rows(samples)
    sizes = _sizes(samples)
    return [segment_argmax(solver.score_rows(feats, beams), sizes) for solver in solvers]


def _require_in_codebook(beams, n_beams: int) -> None:
    """Raise SolverError unless every beam index in `beams` (an int or an
    array) names one of the `n_beams` codebook beams."""
    lo, hi = ((beams.min(initial=0), beams.max(initial=0)) if isinstance(beams, np.ndarray)
              else (beams, beams))
    if not 0 <= lo <= hi < n_beams:
        raise SolverError(f"beam {int(lo if lo < 0 else hi)} is outside "
                          f"the {n_beams}-beam codebook")


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
    `predict` picks the candidate minimizing the sum over the axes of d * d,
    d = (table[b_star] - state) / sigma, ties to the lowest index.
    """

    def __init__(self, name: str, fit_rule, pointing_angles):
        self.name = name
        self.fit_rule = fit_rule
        self.pointing_angles = np.asarray(pointing_angles, dtype=float)

    def fit(self, train) -> None:
        self.params, self.table, self.sigma = self.fit_rule(train, self.pointing_angles)

    def score_rows(self, feats, beams) -> np.ndarray:
        """Minus `predict`'s distance of every row, by the same IEEE operations."""
        _require_in_codebook(beams, len(self.table))
        expected = self.table[beams]
        with np.errstate(over="ignore"):  # a square past the largest double is inf
            r, a, v = ((expected[:, j] - feats[:, j]) / sigma for j, sigma in enumerate(self.sigma))
            return -(r * r + a * a + v * v)

    def predict(self, candidates, b_star: int) -> int:
        if not candidates:
            raise ValueError("candidate list must be non-empty")
        _require_in_codebook(b_star, len(self.table))
        # Python floats: numpy arithmetic per candidate is several times slower.
        pr, pa, pv = self.table[b_star].tolist()
        sr, sa, sv = self.sigma
        best, best_d = 0, math.inf
        for k, c in enumerate(candidates):
            r, a, v = (pr - c.range_m) / sr, (pa - c.angle_deg) / sa, (pv - c.vel_mps) / sv
            d = r * r + a * a + v * v
            if d < best_d:
                best, best_d = k, d
        return best


class DnnSolver:
    """The learned solver: `fit` trains the per-candidate scorer, `predict` is its argmax.

    Inference reads the beam branch from a per-beam table (`mlp.beam_table`)
    built whenever `model` is fitted or assigned, and runs only the radar
    branch and the head per row; `mlp.score_candidates` is the reference
    forward pass it matches.
    """

    name = "dnn"

    def __init__(self, pointing_angles, hyper: TrainConfig = TrainConfig(),
                 widths: ModelWidths = ModelWidths()):
        self.pointing_angles = np.asarray(pointing_angles, dtype=float)
        self.hyper = hyper
        self.widths = widths
        self.model = None
        self.epoch_losses: list[float] = []

    @property
    def model(self) -> MlpModel | None:
        return self._model

    @model.setter
    def model(self, model: MlpModel | None) -> None:
        self._model = model
        self._beam_table = None if model is None else beam_table(model)

    def fit(self, train) -> None:
        """Adam on the binary cross-entropy of the expanded rows (see
        `mlp._loss_and_grad`), reshuffled every epoch by a seeded generator;
        keeps the final weights (no early stopping) and each epoch's mean loss.

        The step size decays over the run's T = epochs * ceil(rows / batch)
        steps by a cosine (Loshchilov & Hutter, arXiv:1608.03983): step t
        uses lr * (1 + cos(pi (t - 1) / T)) / 2, so the last steps are small
        and Adam cannot throw a nearly fitted model off course late. The rows
        are normalized once per fit and permuted once per epoch; a batch is a
        slice of them, and its gradient goes into one vector that `adam_step`
        reads in place, so a step pays for arithmetic, not gathers. The
        weights are those of `mlp.loss_and_grad_arrays` per batch followed by
        the allocating Adam formula, bit for bit.
        """
        _require_nonempty(train, "train")
        feats, beams, targets = expand_to_rows(train)
        norm = NormBounds(range_max=max(float(feats[:, 0].max()), 1.0),
                          angle_span=max(2.0 * float(np.abs(feats[:, 1]).max()), 10.0),
                          vel_max=max(float(np.abs(feats[:, 2]).max()), 1.0),
                          n_beams=len(self.pointing_angles))
        hyper, n = self.hyper, len(feats)
        model = init_weights(self.widths, norm, seed=hyper.seed)
        grads = _model_on(self.widths, norm)
        x_radar, x_beam = normalize_inputs(norm, feats, beams)
        state = AdamState()
        total_steps = hyper.epochs * math.ceil(n / hyper.batch)
        rng = child_rng(hyper.seed, "shuffle")
        self.epoch_losses = []
        for _ in range(hyper.epochs):
            order = rng.permutation(n)
            xr = xb = y = None  # free the last epoch's rows before the next copy
            xr, xb, y = x_radar[order], x_beam[order], targets[order]
            total = 0.0
            for start in range(0, n, hyper.batch):
                batch = slice(start, start + hyper.batch)
                loss = _loss_and_grad(model, xr[batch], xb[batch], y[batch], grads)
                state.lr = hyper.lr * 0.5 * (1.0 + math.cos(math.pi * state.step / total_steps))
                adam_step(state, model.theta, grads.theta)
                total += loss * len(y[batch])
            self.epoch_losses.append(total / n)
        self.model = model

    def score_rows(self, feats, beams) -> np.ndarray:
        """The scorer's likelihood of every row, `SCORE_CHUNK` rows per call."""
        _require_in_codebook(beams, len(self._beam_table))
        return np.concatenate([
            score_with_beam_table(self.model, self._beam_table, feats[i:i + SCORE_CHUNK],
                                  beams[i:i + SCORE_CHUNK])
            for i in range(0, len(feats), SCORE_CHUNK)])

    def predict(self, candidates, b_star: int) -> int:
        if not candidates:
            raise ValueError("candidate list must be non-empty")
        _require_in_codebook(b_star, len(self._beam_table))
        feats = [(c.range_m, c.angle_deg, c.vel_mps) for c in candidates]
        return int(score_with_beam_table(self.model, self._beam_table, feats,
                                         [b_star] * len(feats)).argmax())


def make_solver(name: str, pointing_angles,
                hyper: TrainConfig | None = None) -> TableSolver | DnnSolver:
    if name == "dnn":
        return DnnSolver(pointing_angles, hyper or TrainConfig())
    if name not in _FIT_RULES:
        raise ValueError(f"unknown solver {name!r}; valid names: {', '.join(SOLVER_NAMES)}")
    return TableSolver(name, _FIT_RULES[name], pointing_angles)


def evaluate(solver, test) -> float:
    """Fraction of samples whose predicted index matches the label.

    `solver` is any object with `score_rows(feats, beams)`; the split is
    scored in one pass by `predict_split`.
    """
    _require_nonempty(test, "test")
    (predictions,) = predict_split([solver], test)
    hits = predictions == [s.label for s in test]
    return int(np.count_nonzero(hits)) / len(test)
