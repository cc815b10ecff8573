"""Command-line pipeline: simulate, detect, train, eval, report.

Every command writes a manifest (config snapshot, seed, command, library
versions, planned outputs, wall clock) atomically before its results, so
a run can be reproduced bit-exactly from the manifest alone. Exit codes:
0 success, 2 usage or configuration error, 3 data error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

import isac_ident
from isac_ident.config import ConfigError, RunConfig, config_from_dict, config_to_dict, load_config, with_seed
from isac_ident.dataset import (
    GenerationError,
    SampleFormatError,
    generate_dataset,
    load_samples,
    save_samples,
    split_by_sequence,
)
from isac_ident.mlp import save_model
from isac_ident.radar_detect import DetectConfigError, detect_objects, write_candidates
from isac_ident.radar_frontend import CubeFormatError, load_cube
from isac_ident.scene import dft_codebook
from isac_ident.solvers import SOLVER_NAMES, DnnSolver, SolverError, make_solver

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3


class DataError(ValueError):
    """Input data is missing or unreadable."""


@dataclass
class RunManifest:
    command: str
    argv: list[str]
    seed: int
    config: dict
    outputs: list[str]
    versions: dict = field(default_factory=dict)
    started_utc: str = ""
    elapsed_s: float | None = None
    stats: dict = field(default_factory=dict)  # counts a command reports about its run

    def write(self, out_dir: Path) -> None:
        tmp = out_dir / "manifest.json.tmp"
        tmp.write_text(json.dumps(asdict(self), indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
        os.replace(tmp, out_dir / "manifest.json")


def _versions() -> dict:
    """Library versions, numpy's BLAS and the BLAS thread variables as numpy loaded them."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):                          # numpy without build info
        blas = "unknown"
    return {
        "isac_ident": isac_ident.__version__,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "blas": blas,
        "blas_threads": dict(isac_ident.BLAS_THREADS),
    }


def _start_manifest(args, cfg: RunConfig, outputs: list[str]) -> tuple[RunManifest, float]:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        command=args.command,
        argv=sys.argv[1:],
        seed=cfg.seed,
        config=config_to_dict(cfg),
        outputs=outputs,
        versions=_versions(),
        started_utc=datetime.now(timezone.utc).isoformat(),
    )
    manifest.write(out_dir)
    return manifest, time.monotonic()


def _finish_manifest(manifest: RunManifest, t0: float, out_dir: Path) -> None:
    manifest.elapsed_s = round(time.monotonic() - t0, 3)
    manifest.write(out_dir)


def _resolve_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg = with_seed(cfg, args.seed)
    return cfg


def _dataset_config(data_dir: Path, args) -> RunConfig:
    """Config for solver commands: --config wins, else the dataset's manifest."""
    if args.config:
        cfg = load_config(args.config)
    else:
        manifest_path = data_dir / "manifest.json"
        if manifest_path.exists():
            try:
                snapshot = json.loads(manifest_path.read_text(encoding="utf-8"))["config"]
            except (ValueError, TypeError, KeyError) as exc:
                raise DataError(f"{manifest_path}: not a dataset manifest ({exc!r})") from None
            cfg = config_from_dict(snapshot)
        else:
            cfg = RunConfig()
    if args.seed is not None:
        cfg = with_seed(cfg, args.seed)
    return cfg


def _load_split(data_dir: Path, n_beams: int):
    """Train and test samples; every one must be labeled and served by a codebook beam."""
    paths = (data_dir / "train.csv", data_dir / "test.csv")
    if not all(path.exists() for path in paths):
        raise DataError(f"{data_dir} does not contain train.csv and test.csv")
    split = []
    for path in paths:
        samples = load_samples(path)
        for s in samples:
            if s.label is None:
                raise DataError(f"{path}: sample {s.sample_id} is unlabeled")
            if s.b_star >= n_beams:
                raise DataError(f"{path}: sample {s.sample_id} has beam {s.b_star}, "
                                f"outside the {n_beams}-beam codebook")
        split.append(samples)
    return split


def cmd_simulate(args) -> int:
    cfg = _resolve_config(args)
    out_dir = Path(args.out)
    manifest, t0 = _start_manifest(args, cfg, ["samples.csv", "train.csv", "test.csv"])
    samples = generate_dataset(cfg.scenario, mode=args.mode, comm=cfg.comm,
                               radar=cfg.radar, detect=cfg.detect, stats=manifest.stats)
    split = split_by_sequence(samples, ratio=0.8, seed=cfg.seed)
    save_samples(samples, out_dir / "samples.csv")
    save_samples(split.train, out_dir / "train.csv")
    save_samples(split.test, out_dir / "test.csv")
    _finish_manifest(manifest, t0, out_dir)
    n_seq = len({s.sequence_id for s in samples})
    print(f"generated {len(samples)} samples across {n_seq} sequences "
          f"({len(split.train)} train / {len(split.test)} test) -> {out_dir}")
    return EXIT_OK


def cmd_detect(args) -> int:
    cfg = _resolve_config(args)
    cube_dir = Path(args.cube_dir)
    cube_paths = sorted(cube_dir.glob("*.rcub"))
    if not cube_paths:
        raise DataError(f"no .rcub cubes found in {cube_dir}")
    out_dir = Path(args.out)
    manifest, t0 = _start_manifest(args, cfg, ["candidates.csv"])
    rows = []
    for path in cube_paths:
        cube = load_cube(path, cfg.radar)
        rows.append((path.stem, detect_objects(cube, cfg.detect)))
    write_candidates(rows, out_dir / "candidates.csv")
    _finish_manifest(manifest, t0, out_dir)
    total = sum(len(c) for _, c in rows)
    print(f"detected {total} candidates across {len(rows)} frames -> {out_dir}")
    return EXIT_OK


def _fit_solvers(names, cfg: RunConfig, train, stats: dict):
    """Fitted solvers; a DNN fit records its per-epoch train loss in `stats`."""
    codebook = dft_codebook(cfg.comm.n_antennas, cfg.comm.n_beams,
                            cfg.comm.element_spacing)
    solvers = []
    for name in names:
        solver = make_solver(name, codebook.pointing_angles, hyper=cfg.training)
        solver.fit(train)
        if isinstance(solver, DnnSolver):
            stats["dnn_epoch_losses"] = solver.epoch_losses
        solvers.append(solver)
    return solvers


def _score_test(solvers, test, out_dir: Path) -> list[tuple[str, float]]:
    """Predict each test sample once per solver; write accuracy.csv and predictions.csv."""
    columns = [[sv.predict(s.candidates, s.b_star) for s in test] for sv in solvers]
    rows = [(sv.name, sum(p == s.label for p, s in zip(col, test)) / len(test))
            for sv, col in zip(solvers, columns)]
    with open(out_dir / "accuracy.csv", "w", encoding="utf-8") as fh:
        fh.write("solver,accuracy\n")
        for name, acc in rows:
            fh.write(f"{name},{acc:.6f}\n")
    with open(out_dir / "predictions.csv", "w", encoding="utf-8") as fh:
        fh.write("sample_id,label," + ",".join(sv.name for sv in solvers) + "\n")
        for s, *preds in zip(test, *columns):
            fh.write(f"{s.sample_id},{s.label},{','.join(map(str, preds))}\n")
    return rows


def _save_solver_params(solver, out_dir: Path, cfg: RunConfig) -> None:
    if isinstance(solver, DnnSolver):
        save_model(solver.model, out_dir / "model.ckpt", hyper=asdict(cfg.training))
        return
    params = {"solver": solver.name, **solver.params}
    (out_dir / "params.json").write_text(
        json.dumps(params, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def cmd_train(args) -> int:
    data_dir = Path(args.dataset)
    cfg = _dataset_config(data_dir, args)
    train, test = _load_split(data_dir, cfg.comm.n_beams)
    if not test:
        raise DataError(f"{data_dir / 'test.csv'}: test set must be non-empty")
    out_dir = Path(args.out)
    outputs = ["accuracy.csv", "predictions.csv"]
    outputs.append("model.ckpt" if args.solver == "dnn" else "params.json")
    manifest, t0 = _start_manifest(args, cfg, outputs)
    (solver,) = _fit_solvers([args.solver], cfg, train, manifest.stats)
    _save_solver_params(solver, out_dir, cfg)
    ((_, acc),) = _score_test([solver], test, out_dir)
    _finish_manifest(manifest, t0, out_dir)
    print(f"{solver.name}: test accuracy {acc:.4f} "
          f"({len(train)} train / {len(test)} test samples)")
    return EXIT_OK


def cmd_eval(args) -> int:
    data_dir = Path(args.dataset)
    cfg = _dataset_config(data_dir, args)
    train, test = _load_split(data_dir, cfg.comm.n_beams)
    if not test:
        raise DataError(f"{data_dir / 'test.csv'}: test set must be non-empty")
    names = list(SOLVER_NAMES) if args.solver == "all" else [args.solver]
    out_dir = Path(args.out)
    manifest, t0 = _start_manifest(args, cfg, ["accuracy.csv", "predictions.csv"])
    rows = _score_test(_fit_solvers(names, cfg, train, manifest.stats), test, out_dir)
    _finish_manifest(manifest, t0, out_dir)
    width = max(len(n) for n, _ in rows)
    for name, acc in rows:
        print(f"{name:<{width}}  {acc:.4f}")
    return EXIT_OK


def cmd_report(args) -> int:
    data_dir = Path(args.dataset)
    cfg = _dataset_config(data_dir, args)
    train, test = _load_split(data_dir, cfg.comm.n_beams)
    samples = train + test
    out_dir = Path(args.out)
    manifest, t0 = _start_manifest(args, cfg, ["report.csv"])
    solvers = _fit_solvers(["offset", "linreg-angle", "lookup"], cfg, train, manifest.stats)
    angles = solvers[0].pointing_angles
    with open(out_dir / "report.csv", "w", encoding="utf-8") as fh:
        fh.write("beam_angle_deg,target_angle_deg,offset_deg,linreg_deg,lookup_deg\n")
        for s in samples:
            curves = [float(sv.table[s.b_star, 1]) for sv in solvers]
            row = [float(angles[s.b_star]), s.candidates[s.label].angle_deg, *curves]
            fh.write(",".join(map(repr, row)) + "\n")
    _finish_manifest(manifest, t0, out_dir)
    print(f"wrote scatter and fitted curves for {len(samples)} samples -> {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isac-ident",
        description="Synthesize scenes, detect radar objects, and identify the "
                    "communication user from its serving beam.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, mode=False, solver=None):
        p.add_argument("--config", help="YAML run configuration")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", required=True, help="output directory")
        if mode:
            p.add_argument("--mode", choices=("fast", "full"), default="fast",
                           help="state-level (fast) or waveform-level (full) generation")
        if solver is not None:
            choices = SOLVER_NAMES + (("all",) if solver == "many" else ())
            default = "all" if solver == "many" else None
            p.add_argument("--solver", choices=choices, default=default,
                           required=(solver == "one"),
                           help="identification solver")

    p = sub.add_parser("simulate", help="generate a labeled synthetic dataset")
    common(p, mode=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("detect", help="run the detection chain over stored cubes")
    p.add_argument("cube_dir", help="directory of .rcub files")
    common(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("train", help="fit one solver and report its test accuracy")
    p.add_argument("dataset", help="dataset directory from `simulate`")
    common(p, solver="one")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="fit and score solvers on the test split")
    p.add_argument("dataset", help="dataset directory from `simulate`")
    common(p, solver="many")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="emit beam-vs-radar-angle scatter data")
    p.add_argument("dataset", help="dataset directory from `simulate`")
    common(p)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, GenerationError, DetectConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, SampleFormatError, CubeFormatError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
