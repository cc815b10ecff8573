#!/usr/bin/env python3
"""Accuracy table over several seeds of the default synthetic scene.

For each dataset seed, runs the CLI's `simulate` once and `eval --solver
all` once per training seed (`training.seed`; by default the dataset seed)
into a temporary directory, and reads back the split, its `accuracy.csv`
and the `dnn_epoch_losses` of its manifest. Each run prints its accuracies
with the train/test sample counts and mean candidates per sample, dnn minus
lookup, and the DNN's loss spikes: epoch-to-epoch rises of more than 3x, in
all and in the last quarter of the epochs, and the last epoch loss over the
lowest. Each dataset seed then prints, from the `simulate` manifest, the
frames, the samples kept and the frames dropped per reason, with the count
of test samples that hold more candidates than a scene has objects and
`simulate`'s speed (its frames over the manifest's `elapsed_s`); last, the
mean accuracy of every solver over all runs.

With `--train-seeds`, every run is also held to the training gate: dnn at
least lookup, no rise of more than 3x in the last quarter of the epochs and
a last loss at most 1.1x the lowest. The script exits 1 if any run fails it.

Usage:
    python scripts/run_benchmark.py [--seeds 0 1 2] [--epochs 100] [--mode fast|full]
                                    [--train-seeds 0 10 20]
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
from isac_ident.solvers import TrainConfig

LAST_OVER_MIN_LIMIT = 1.1  # the gate's bound on the last epoch loss over the lowest


def loss_spikes(losses):
    """Count of epoch-to-epoch rises of more than 3x, the count of those into
    the last quarter of the epochs, and the last loss over the lowest."""
    rises = [later > 3.0 * earlier for earlier, later in zip(losses, losses[1:])]
    late = sum(rises[len(rises) - len(losses) // 4:])
    lowest = min(losses)
    if lowest == 0.0:  # a run that reached zero loss ends there or above it
        return sum(rises), late, 1.0 if losses[-1] == 0.0 else math.inf
    return sum(rises), late, losses[-1] / lowest


MAX_OBJECTS = ScenarioConfig().candidates_range[1]  # objects in a default scene, at most


def run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code:
        sys.exit(code)


def simulate(seed: int, mode: str, work: Path):
    """The dataset directory of one seed, and its `simulate` stats line."""
    data = work / "data"
    run_cli(["simulate", "--mode", mode, "--seed", str(seed), "--out", str(data)])
    test = load_samples(data / "test.csv")
    sim_manifest = json.loads((data / "manifest.json").read_text(encoding="utf-8"))
    sim = sim_manifest["stats"]
    crowded = sum(len(s.candidates) > MAX_OBJECTS for s in test)
    dropped = " ".join(f"{reason}={n}" for reason, n in sim["dropped"].items())
    return data, (f"  frames {sim['frames']}, kept {sim['kept']}, dropped {dropped}, "
                  f"test samples with > {MAX_OBJECTS} candidates {crowded}/{len(test)}, "
                  f"simulate {sim['frames'] / sim_manifest['elapsed_s']:.1f} frames/s")


def evaluate(data: Path, seed: int, epochs: int, train_seed: int, work: Path):
    """(solver, accuracy) rows and the DNN's epoch losses of one training seed."""
    scores = work / f"eval{train_seed}"
    config = work / f"eval{train_seed}.yaml"
    config.write_text(f"seed: {seed}\ntraining: {{epochs: {epochs}, seed: {train_seed}}}\n",
                      encoding="utf-8")
    run_cli(["eval", str(data), "--solver", "all", "--config", str(config),
             "--out", str(scores)])
    lines = (scores / "accuracy.csv").read_text(encoding="utf-8").splitlines()[1:]
    rows = [(name, float(acc)) for name, acc in (line.split(",") for line in lines)]
    manifest = json.loads((scores / "manifest.json").read_text(encoding="utf-8"))
    return rows, manifest["stats"]["dnn_epoch_losses"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--epochs", type=int, default=TrainConfig().epochs)
    ap.add_argument("--mode", choices=("fast", "full"), default="fast")
    ap.add_argument("--train-seeds", type=int, nargs="+",
                    help="training seeds per dataset seed, each run held to the gate "
                         "(default: the dataset seed, no gate)")
    args = ap.parse_args()

    results, failed, runs = {}, 0, 0
    for seed in args.seeds:
        with tempfile.TemporaryDirectory() as work:
            work = Path(work)
            data, sim_line = simulate(seed, args.mode, work)
            train, test = (load_samples(data / name) for name in ("train.csv", "test.csv"))
            per_sample = sum(len(s.candidates) for s in train + test) / (len(train) + len(test))
            for train_seed in args.train_seeds or [seed]:
                t0 = time.time()
                rows, losses = evaluate(data, seed, args.epochs, train_seed, work)
                acc = dict(rows)
                line = [f"seed {seed} train {train_seed} ({len(train)}/{len(test)} samples, "
                        f"{per_sample:.2f} candidates per sample):"]
                for name, value in rows:
                    results.setdefault(name, []).append(value)
                    line.append(f"{name}={value:.4f}")
                jumps, late, last_over_min = loss_spikes(losses)
                line.append(f"dnn-lookup {acc['dnn'] - acc['lookup']:+.4f}; dnn loss: "
                            f"{jumps} jumps >3x ({late} in the last quarter), "
                            f"last/min {last_over_min:.3g}")
                if args.train_seeds:
                    ok = (acc["dnn"] >= acc["lookup"] and late == 0
                          and last_over_min <= LAST_OVER_MIN_LIMIT)
                    failed += not ok
                    runs += 1
                    line.append("pass" if ok else "FAIL")
                line.append(f"[{time.time() - t0:.0f}s]")
                print(" ".join(line), flush=True)
        print(sim_line, flush=True)

    print("\nsolver          mean accuracy")
    for name, accs in results.items():
        print(f"{name:<15} {sum(accs) / len(accs):.4f}")
    if args.train_seeds:
        print(f"\ngate: {runs - failed}/{runs} runs pass (dnn >= lookup, no rise >3x in the "
              f"last quarter, last/min <= {LAST_OVER_MIN_LIMIT})")
        if failed:
            sys.exit(1)


if __name__ == "__main__":
    main()
