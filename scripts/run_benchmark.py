#!/usr/bin/env python3
"""Accuracy table over several seeds of the default synthetic scene.

For each seed, runs the CLI's `simulate` and `eval --solver all` into a
temporary directory and reads back the split, its `accuracy.csv` and the
`dnn_epoch_losses` of its manifest; prints per-seed accuracies with the
train/test sample counts and mean candidates per sample, the DNN's loss
spikes (epoch-to-epoch rises of more than 3x, and the last epoch loss over
the lowest), then, from the `simulate` manifest, the frames, the samples
kept and the frames dropped per reason, with the count of test samples that
hold more candidates than a scene has objects and `simulate`'s speed (its
frames over the manifest's `elapsed_s`); last, the mean accuracy of every
solver.

Usage:
    python scripts/run_benchmark.py [--seeds 0 1 2] [--epochs 100] [--mode fast|full]
"""

import argparse
import contextlib
import io
import json
import math
import sys
import tempfile
import time
from pathlib import Path

from isac_ident import cli
from isac_ident.dataset import ScenarioConfig, load_samples


def loss_spikes(losses):
    """Count of epoch-to-epoch rises of more than 3x, and the last loss over the lowest."""
    jumps = sum(later > 3.0 * earlier for earlier, later in zip(losses, losses[1:]))
    lowest = min(losses)
    if lowest == 0.0:  # a run that reached zero loss ends there or above it
        return jumps, 1.0 if losses[-1] == 0.0 else math.inf
    return jumps, losses[-1] / lowest


MAX_OBJECTS = ScenarioConfig().candidates_range[1]  # objects in a default scene, at most


def run_seed(seed: int, mode: str, epochs: int, work: Path):
    """Sample counts, candidates per sample, (solver, accuracy) rows, the
    DNN's epoch losses and the `simulate` stats line of one seed."""
    config = work / "run.yaml"
    config.write_text(f"training: {{epochs: {epochs}}}\n", encoding="utf-8")
    common = ["--config", str(config), "--seed", str(seed)]
    data, scores = work / "data", work / "eval"
    for argv in (["simulate", "--mode", mode, *common, "--out", str(data)],
                 ["eval", str(data), "--solver", "all", *common, "--out", str(scores)]):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code:
            sys.exit(code)
    train, test = (load_samples(data / name) for name in ("train.csv", "test.csv"))
    per_sample = sum(len(s.candidates) for s in train + test) / (len(train) + len(test))
    lines = (scores / "accuracy.csv").read_text(encoding="utf-8").splitlines()[1:]
    rows = [(name, float(acc)) for name, acc in (line.split(",") for line in lines)]
    manifest = json.loads((scores / "manifest.json").read_text(encoding="utf-8"))
    sim_manifest = json.loads((data / "manifest.json").read_text(encoding="utf-8"))
    sim = sim_manifest["stats"]
    crowded = sum(len(s.candidates) > MAX_OBJECTS for s in test)
    dropped = " ".join(f"{reason}={n}" for reason, n in sim["dropped"].items())
    sim_line = (f"  frames {sim['frames']}, kept {sim['kept']}, dropped {dropped}, "
                f"test samples with > {MAX_OBJECTS} candidates {crowded}/{len(test)}, "
                f"simulate {sim['frames'] / sim_manifest['elapsed_s']:.1f} frames/s")
    return ((len(train), len(test)), per_sample, rows, manifest["stats"]["dnn_epoch_losses"],
            sim_line)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--epochs", type=int, default=100)
    ap.add_argument("--mode", choices=("fast", "full"), default="fast")
    args = ap.parse_args()

    results = {}
    for seed in args.seeds:
        t0 = time.time()
        with tempfile.TemporaryDirectory() as work:
            (n_train, n_test), per_sample, rows, losses, sim_line = run_seed(
                seed, args.mode, args.epochs, Path(work))
        line = [f"seed {seed} ({n_train}/{n_test} samples, "
                f"{per_sample:.2f} candidates per sample):"]
        for name, acc in rows:
            results.setdefault(name, []).append(acc)
            line.append(f"{name}={acc:.4f}")
        jumps, last_over_min = loss_spikes(losses)
        line.append(f"dnn loss: {jumps} jumps >3x, last/min {last_over_min:.3g}")
        line.append(f"[{time.time() - t0:.0f}s]")
        print(" ".join(line))
        print(sim_line)

    print("\nsolver          mean accuracy")
    for name, accs in results.items():
        print(f"{name:<15} {sum(accs) / len(accs):.4f}")


if __name__ == "__main__":
    main()
