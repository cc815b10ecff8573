#!/usr/bin/env python3
"""Accuracy table over several seeds of the default synthetic scene.

Fits all five solvers on each seed's train split and reports per-seed and
mean test accuracies, mirroring the solver comparison the CLI `eval`
command produces for a single dataset.

Usage:
    python scripts/run_benchmark.py [--seeds 0 1 2] [--epochs 100]
"""

import argparse
import time

import numpy as np

from isac_ident.dataset import ScenarioConfig, generate_dataset, split_by_sequence
from isac_ident.scene import CommConfig, dft_codebook
from isac_ident.solvers import SOLVER_NAMES, TrainConfig, evaluate, make_solver


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--epochs", type=int, default=100)
    ap.add_argument("--mode", choices=("fast", "full"), default="fast")
    args = ap.parse_args()

    comm = CommConfig()
    angles = dft_codebook(comm.n_antennas, comm.n_beams).pointing_angles
    results = {name: [] for name in SOLVER_NAMES}

    for seed in args.seeds:
        t0 = time.time()
        samples = generate_dataset(ScenarioConfig(seed=seed), mode=args.mode, comm=comm)
        split = split_by_sequence(samples, ratio=0.8, seed=seed)
        n_cands = sum(len(s.candidates) for s in samples)
        line = [f"seed {seed} ({len(split.train)}/{len(split.test)} samples, "
                f"{n_cands / len(samples):.2f} candidates per sample):"]
        for name in SOLVER_NAMES:
            solver = make_solver(name, angles,
                                 hyper=TrainConfig(seed=seed, epochs=args.epochs))
            solver.fit(split.train)
            acc = evaluate(solver, split.test)
            results[name].append(acc)
            line.append(f"{name}={acc:.4f}")
        line.append(f"[{time.time() - t0:.0f}s]")
        print(" ".join(line))

    print("\nsolver          mean accuracy")
    for name in SOLVER_NAMES:
        print(f"{name:<15} {np.mean(results[name]):.4f}")


if __name__ == "__main__":
    main()
