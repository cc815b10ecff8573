#!/usr/bin/env python3
"""Run one fixed recipe under two source trees and say which outputs moved.

PARENT_SRC and CHILD_SRC are checkouts of this repository, for example a
`git worktree` of the parent commit and the working tree. The recipe runs
once under each tree, into OUT/parent and OUT/child, every command in a
subprocess with PYTHONPATH=<tree>/src, ISAC_IDENT_THREADS=1, BLAS pinned to
one thread and numpy's RuntimeWarnings as errors:

- fast seed 0 `simulate`, then `eval --solver all` at 5 epochs;
- `train --solver dnn` at 5 epochs, keeping `model.ckpt` and its `.json`;
- `train --solver linreg-3d`, whose fit is `params.json`, and `report`;
- `simulate --mode full` on CI's six-sample config, then `eval --solver all`
  at 5 epochs, so DNN predictions on full-mode candidates are compared too;
- the tree's own `scripts/detect_demo.py --seed 0/1/2` cubes, and `detect`
  on each;
- the SHA-256 of `synthesize_frame`'s float64 cube of the demo scene at
  seeds 0/1/2 and a noise floor of 1000. A cube file, the demo's too,
  rounds each value to float32, so a change in the last bits of the
  synthesis would show nowhere else.

It prints "same" or "moved" for each output file. `manifest.json` is left
out, because it holds wall-clock times and the source hash. CHILD_SRC's
`REBASELINE.txt` lists the outputs a change moves on purpose, one path
under OUT/<side> a line (`#` starts a comment). The script exits 1 when an
output moved that the file does not list, or a listed output did not move.

Usage:
    python scripts/compare_outputs.py PARENT_SRC CHILD_SRC OUT
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

FAST_YAML = "training:\n  epochs: 5\n"
FULL6_YAML = ("scenario:\n  sequences: 2\n  samples_per_sequence: [6, 6]\n  candidates: [4, 6]\n"
              "training:\n  epochs: 5\n")
DEMO_SEEDS = (0, 1, 2)
CUBE_DIGESTS = """\
import hashlib, sys
sys.path.insert(0, sys.argv[1])
from detect_demo import default_scene
from isac_ident.radar_frontend import RadarConfig, synthesize_frame
with open(sys.argv[2], "w", encoding="utf-8") as fh:
    for seed in (0, 1, 2):
        cube = synthesize_frame(default_scene(), RadarConfig(noise_floor=1000.0), seed=seed)
        fh.write(f"{seed} {hashlib.sha256(cube.data.tobytes()).hexdigest()}\\n")
"""
PINNED = dict.fromkeys(("ISAC_IDENT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS"), "1")


def recipe(tree: Path, inputs: Path, out: Path):
    """The recipe's commands under `tree`, each an argv after the interpreter."""
    cli = ["-m", "isac_ident"]
    steps = [
        [*cli, "simulate", "--seed", "0", "--config", str(inputs / "fast.yaml"),
         "--out", str(out / "fast")],
        [*cli, "eval", str(out / "fast"), "--solver", "all", "--out", str(out / "eval")],
        [*cli, "train", str(out / "fast"), "--solver", "dnn", "--out", str(out / "train")],
        [*cli, "train", str(out / "fast"), "--solver", "linreg-3d",
         "--out", str(out / "train-linreg-3d")],
        [*cli, "report", str(out / "fast"), "--out", str(out / "report")],
        [*cli, "simulate", "--mode", "full", "--config", str(inputs / "full6.yaml"),
         "--out", str(out / "full6")],
        [*cli, "eval", str(out / "full6"), "--solver", "all", "--out", str(out / "eval-full6")],
    ]
    for seed in DEMO_SEEDS:
        steps += [[str(tree / "scripts" / "detect_demo.py"), "--seed", str(seed),
                   "--out", str(out / f"demo{seed}")],
                  [*cli, "detect", str(out / f"demo{seed}"), "--out", str(out / f"detect{seed}")]]
    return steps + [["-c", CUBE_DIGESTS, str(tree / "scripts"), str(out / "cube64.sha256")]]


def run_tree(tree: Path, inputs: Path, out: Path) -> None:
    """Run the recipe under `tree` into `out`; exit 1 on a failed command."""
    env = {**os.environ, **PINNED, "PYTHONPATH": str(tree / "src")}
    # a package imported from anywhere else would compare a tree with itself
    where = subprocess.run([sys.executable, "-c", "import isac_ident; print(isac_ident.__file__)"],
                           env=env, capture_output=True, text=True)
    if not Path(where.stdout.strip()).resolve().is_relative_to((tree / "src").resolve()):
        sys.exit(f"error: isac_ident does not import from {tree / 'src'}: {where.stdout}{where.stderr}")
    out.mkdir(parents=True)
    for argv in recipe(tree, inputs, out):
        run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *argv], env=env,
                             cwd=out, capture_output=True, text=True)
        if run.returncode:
            sys.exit(f"error: {' '.join(argv)} exited {run.returncode} under {tree}:\n{run.stderr}")


def output_files(side: Path) -> set:
    return {p.relative_to(side).as_posix() for p in side.rglob("*")
            if p.is_file() and p.name != "manifest.json"}


def read_listed(path: Path) -> set:
    """The outputs REBASELINE.txt lists; none when it does not exist."""
    lines = path.read_text(encoding="utf-8").splitlines() if path.exists() else []
    return {line.split("#", 1)[0].strip() for line in lines} - {""}


def verdict(moved: set, listed: set) -> list:
    """What fails the check: outputs that moved unlisted, and listed ones that did not move."""
    return ([f"{name} moved, and REBASELINE.txt does not list it" for name in sorted(moved - listed)]
            + [f"{name} is listed in REBASELINE.txt, and did not move"
               for name in sorted(listed - moved)])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", metavar="PARENT_SRC", help="checkout of the parent commit")
    ap.add_argument("child", metavar="CHILD_SRC", help="checkout of the change")
    ap.add_argument("out", metavar="OUT", help="empty or new directory for both runs")
    args = ap.parse_args()
    # absolute, since each command runs in its own output directory
    parent, child, out = (Path(a).resolve() for a in (args.parent, args.child, args.out))
    if out.exists() and any(out.iterdir()):
        ap.error(f"{out} is not empty")
    inputs = out / "inputs"
    inputs.mkdir(parents=True)
    (inputs / "fast.yaml").write_text(FAST_YAML, encoding="utf-8")
    (inputs / "full6.yaml").write_text(FULL6_YAML, encoding="utf-8")
    for name, tree in (("parent", parent), ("child", child)):
        run_tree(tree, inputs, out / name)

    moved = set()
    for name in sorted(output_files(out / "parent") | output_files(out / "child")):
        files = [out / side / name for side in ("parent", "child")]
        same = all(f.exists() for f in files) and files[0].read_bytes() == files[1].read_bytes()
        print(f"{'same' if same else 'moved':<5}  {name}")
        if not same:
            moved.add(name)
    problems = verdict(moved, read_listed(child / "REBASELINE.txt"))
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
