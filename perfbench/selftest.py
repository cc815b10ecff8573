#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny size, in both trace modes.

    python3 perfbench/selftest.py

Each workload runs once untraced and twice traced with the same seed. Every
run must exit 0 and end with a JSON line holding exactly ``correct``,
``attempted``, ``failed`` and ``metrics``, report no failed operation, and
report exactly the metrics BENCHMARK.json lists for its trace mode, with their
units. The second traced run repeats the first one's seed, so the benchmark's
own count check compares the two. Last, the benchmark must exit non-zero
without a result in a directory holding only BENCHMARK.json and perfbench/.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600, check=False)


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_run(workload: str, trace: int) -> list[str]:
    where = f"{workload} --trace {trace}"
    proc = bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr}"]
    result = last_json(proc.stdout)
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return [f"{where}: last line is not a result object"]
    problems = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}\n{proc.stdout}{proc.stderr}")
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != expected:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(expected) - set(got))}, "
                        f"extra {sorted(set(got) - set(expected))}, "
                        f"units {[k for k in got if k in expected and got[k] != expected[k]]}")
    for name, entry in result["metrics"].items():
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} = {value!r} is not a finite number")
    return problems


def check_bare_directory() -> list[str]:
    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(bare, "--workload", SPEC["workloads"][0]["name"], "--seed", "0",
                 "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or last_json(proc.stdout) is not None:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    problems = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1, 1):
            found = check_run(workload, trace)
            print(f"{workload:<12} --trace {trace}  {'FAIL' if found else 'ok'}", flush=True)
            problems += found
    found = check_bare_directory()
    print(f"bare directory exits non-zero  {'FAIL' if found else 'ok'}")
    problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
