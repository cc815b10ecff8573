"""Command-line pipeline: simulate, detect, train, eval, report.

Each command resolves its config, checks its inputs, does its work and
writes its results; `main` then writes a manifest (config snapshot, seed,
command, library versions with the hash of the package's sources, outputs,
wall clock, stats) atomically, last,
so a run can be reproduced bit-exactly from the manifest alone. A run that
fails writes no manifest, and a command creates `--out` just before its
first write, so one that fails before then leaves the directory as it
was. Exit codes: 0 success, 2 usage or configuration error, 3 data error
(an unreadable input or an unusable `--out`).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

import isac_ident
from isac_ident.config import ConfigError, RunConfig, config_from_dict, config_to_dict, load_config, with_seed
from isac_ident.dataset import (
    GenerationError,
    SampleFormatError,
    format_sample,
    generate_dataset,
    load_samples,
    split_by_sequence,
    write_sample_file,
)
from isac_ident.mlp import save_model
from isac_ident.radar_detect import DetectConfigError, detect_objects, write_candidates
from isac_ident.radar_frontend import CubeFormatError, RadarConfig, load_cube
from isac_ident.scene import dft_codebook
from isac_ident.solvers import SOLVER_NAMES, DnnSolver, SolverError, make_solver, predict_split

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3


class DataError(ValueError):
    """Input data is missing or unreadable."""


# every error a user can trigger: settings exit 2, inputs and outputs exit 3
USAGE_ERRORS = (ConfigError, GenerationError, DetectConfigError)
DATA_ERRORS = (DataError, SampleFormatError, CubeFormatError, SolverError, OSError)


@functools.cache
def _source_sha256() -> str:
    """SHA-256 over the package's `.py` sources, each file's path relative to
    the package, then its bytes, in sorted path order: which code made a run."""
    package = Path(isac_ident.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _versions() -> dict:
    """Library versions, numpy's BLAS, the BLAS thread variables as numpy
    loaded them and the hash of the package's sources."""
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
        "source_sha256": _source_sha256(),
    }


def _config(args, data_dir: Path | None = None) -> RunConfig:
    """--config, else the dataset's manifest.json, else the defaults; then --seed."""
    manifest = data_dir / "manifest.json" if data_dir else None
    if args.config:
        cfg = load_config(args.config)
    elif manifest and manifest.exists():
        try:
            cfg = config_from_dict(json.loads(manifest.read_text(encoding="utf-8"))["config"])
        except (ValueError, TypeError, KeyError) as exc:   # ConfigError included
            raise DataError(f"{manifest}: not a dataset manifest ({exc!r})") from None
    else:
        cfg = RunConfig()
    if args.seed is not None:
        cfg = with_seed(cfg, args.seed)
    return cfg


def _require_radar_axes(radar: RadarConfig) -> None:
    """Refuse a radar profile whose map cannot place an object: one antenna
    gives a flat angle spectrum, and clutter removal leaves one or two chirps
    at most one noisy Doppler row. `RadarConfig` itself accepts both."""
    if radar.n_rx < 2:
        raise ConfigError(f"radar.n_rx must be at least 2 for full mode and detect "
                          f"(one antenna gives no angle), got {radar.n_rx}")
    if radar.n_chirps < 3:
        raise ConfigError(f"radar.n_chirps must be at least 3 for full mode and detect "
                          f"(clutter removal leaves too few Doppler rows), got {radar.n_chirps}")


def _out_dir(args) -> Path:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _load_split(args):
    """Config, train and test samples; every one served by a codebook beam.

    No sequence may be in both splits.
    """
    data_dir = Path(args.dataset)
    cfg = _config(args, data_dir)
    paths = (data_dir / "train.csv", data_dir / "test.csv")
    if not all(path.exists() for path in paths):
        raise DataError(f"{data_dir} does not contain train.csv and test.csv")
    split = []
    for path in paths:
        samples = load_samples(path)
        for s in samples:
            if s.b_star >= cfg.comm.n_beams:
                raise DataError(f"{path}: sample {s.sample_id} has beam {s.b_star}, "
                                f"outside the {cfg.comm.n_beams}-beam codebook")
        split.append(samples)
    shared = {s.sequence_id for s in split[0]} & {s.sequence_id for s in split[1]}
    if shared:
        raise DataError(f"{data_dir}: sequence {min(shared)} is in both train.csv and test.csv")
    return cfg, *split


def cmd_simulate(args):
    cfg = _config(args)
    if args.mode == "full":
        _require_radar_axes(cfg.radar)
    stats = {}
    samples = generate_dataset(cfg.scenario, mode=args.mode, comm=cfg.comm,
                               radar=cfg.radar, detect=cfg.detect, stats=stats)
    split = split_by_sequence(samples, ratio=0.8, seed=cfg.seed)
    # each sample is formatted once; the split files reuse its rows
    rows = {id(s): format_sample(s) for s in samples}
    files = {"samples.csv": samples, "train.csv": split.train, "test.csv": split.test}
    out_dir = _out_dir(args)
    for name, part in files.items():
        write_sample_file((rows[id(s)] for s in part), out_dir / name)
    n_seq = len({s.sequence_id for s in samples})
    print(f"generated {len(samples)} samples across {n_seq} sequences "
          f"({len(split.train)} train / {len(split.test)} test) -> {out_dir}")
    return cfg, list(files), stats


def cmd_detect(args):
    cfg = _config(args)
    _require_radar_axes(cfg.radar)
    cube_dir = Path(args.cube_dir)
    cube_paths = sorted(cube_dir.glob("*.rcub"))
    if not cube_paths:
        raise DataError(f"no .rcub cubes found in {cube_dir}")
    rows = [(path.stem, detect_objects(load_cube(path, cfg.radar), cfg.detect))
            for path in cube_paths]
    out_dir = _out_dir(args)
    write_candidates(rows, out_dir / "candidates.csv")
    total = sum(len(c) for _, c in rows)
    print(f"detected {total} candidates across {len(rows)} frames -> {out_dir}")
    return cfg, ["candidates.csv"], {}


def _fit_solvers(names, cfg: RunConfig, train):
    """Fitted solvers and their stats: a DNN fit records its per-epoch train loss."""
    codebook = dft_codebook(cfg.comm.n_antennas, cfg.comm.n_beams,
                            cfg.comm.element_spacing)
    solvers, stats = [], {}
    for name in names:
        solver = make_solver(name, codebook.pointing_angles, hyper=cfg.training)
        solver.fit(train)
        if isinstance(solver, DnnSolver):
            stats["dnn_epoch_losses"] = solver.epoch_losses
        solvers.append(solver)
    return solvers, stats


def _score_test(solvers, test, out_dir: Path):
    """Score the test split with every solver; write accuracy.csv and predictions.csv.

    Returns the (name, accuracy) rows and, per candidate count K, the number
    of samples and each solver's hits.
    """
    labels = np.array([s.label for s in test])
    sizes = np.array([len(s.candidates) for s in test])
    columns = predict_split(solvers, test)
    correct = [col == labels for col in columns]
    rows = [(sv.name, int(c.sum()) / len(test)) for sv, c in zip(solvers, correct)]
    with open(out_dir / "accuracy.csv", "w", encoding="utf-8") as fh:
        fh.write("solver,accuracy\n")
        for name, acc in rows:
            fh.write(f"{name},{acc:.6f}\n")
    with open(out_dir / "predictions.csv", "w", encoding="utf-8") as fh:
        fh.write("sample_id,label," + ",".join(sv.name for sv in solvers) + "\n")
        for s, *preds in zip(test, *(col.tolist() for col in columns)):
            fh.write(f"{s.sample_id},{s.label},{','.join(map(str, preds))}\n")
    samples_per_k = np.bincount(sizes)
    hits_per_k = [np.bincount(sizes[c], minlength=len(samples_per_k)) for c in correct]
    by_candidates = [{"candidates": k, "samples": int(n),
                      "hits": {sv.name: int(h[k]) for sv, h in zip(solvers, hits_per_k)}}
                     for k, n in enumerate(samples_per_k) if n]
    return rows, by_candidates


def _fit_and_score(args, names):
    """Fit `names` on the train split and score them on the test split, which must be non-empty."""
    cfg, train, test = _load_split(args)
    if not test:
        raise DataError(f"{Path(args.dataset) / 'test.csv'}: test set must be non-empty")
    solvers, stats = _fit_solvers(names, cfg, train)
    rows, stats["accuracy_by_candidates"] = _score_test(solvers, test, _out_dir(args))
    return cfg, solvers, stats, rows


def cmd_eval(args):
    names = list(SOLVER_NAMES) if args.solver == "all" else [args.solver]
    cfg, _, stats, rows = _fit_and_score(args, names)
    width = max(len(n) for n, _ in rows)
    for name, acc in rows:
        print(f"{name:<{width}}  {acc:.4f}")
    return cfg, ["accuracy.csv", "predictions.csv"], stats


def cmd_train(args):
    cfg, (solver,), stats, ((name, acc),) = _fit_and_score(args, [args.solver])
    out_dir = Path(args.out)
    if isinstance(solver, DnnSolver):
        params_file = "model.ckpt"
        save_model(solver.model, out_dir / params_file, hyper=asdict(cfg.training))
    else:
        params_file = "params.json"
        (out_dir / params_file).write_text(json.dumps(
            {"solver": name, **solver.params}, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{name}: test accuracy {acc:.4f}")
    return cfg, ["accuracy.csv", "predictions.csv", params_file], stats


def cmd_report(args):
    cfg, train, test = _load_split(args)
    samples = train + test
    solvers, stats = _fit_solvers(["offset", "linreg-angle", "lookup"], cfg, train)
    angles = solvers[0].pointing_angles
    out_dir = _out_dir(args)
    with open(out_dir / "report.csv", "w", encoding="utf-8") as fh:
        fh.write("beam_angle_deg,target_angle_deg,offset_deg,linreg_deg,lookup_deg\n")
        for s in samples:
            curves = [float(sv.table[s.b_star, 1]) for sv in solvers]
            row = [float(angles[s.b_star]), s.candidates[s.label].angle_deg, *curves]
            fh.write(",".join(map(repr, row)) + "\n")
    print(f"wrote scatter and fitted curves for {len(samples)} samples -> {out_dir}")
    return cfg, ["report.csv"], stats


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isac-ident",
        description="Synthesize scenes, detect radar objects, and identify the "
                    "communication user from its serving beam.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, positional=None):
        p = sub.add_parser(name, help=help)
        if positional:
            p.add_argument(positional[0], help=positional[1])
        p.add_argument("--config", help="YAML run configuration")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", required=True, help="output directory")
        p.set_defaults(func=func)
        return p

    dataset = ("dataset", "dataset directory from `simulate`")
    command("simulate", cmd_simulate, "generate a labeled synthetic dataset").add_argument(
        "--mode", choices=("fast", "full"), default="fast",
        help="state-level (fast) or waveform-level (full) generation")
    command("detect", cmd_detect, "run the detection chain over stored cubes",
            ("cube_dir", "directory of .rcub files"))
    command("train", cmd_train, "fit one solver and report its test accuracy",
            dataset).add_argument("--solver", choices=SOLVER_NAMES, required=True,
                                  help="identification solver")
    command("eval", cmd_eval, "fit and score solvers on the test split",
            dataset).add_argument("--solver", choices=(*SOLVER_NAMES, "all"), default="all",
                                  help="identification solver")
    command("report", cmd_report, "emit beam-vs-radar-angle scatter data", dataset)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started_utc = datetime.now(timezone.utc).isoformat()
    t0 = time.monotonic()
    try:
        cfg, outputs, stats = args.func(args)
        manifest = {"command": args.command, "argv": sys.argv[1:] if argv is None else argv,
                    "seed": cfg.seed, "config": config_to_dict(cfg), "outputs": outputs,
                    "versions": _versions(), "started_utc": started_utc,
                    "elapsed_s": round(time.monotonic() - t0, 3), "stats": stats}
        tmp = Path(args.out) / "manifest.json.tmp"
        tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        os.replace(tmp, Path(args.out) / "manifest.json")
    except USAGE_ERRORS + DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, USAGE_ERRORS) else EXIT_DATA
    except MemoryError as exc:
        print(f"error: the run's arrays do not fit in memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
