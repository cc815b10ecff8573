#!/usr/bin/env python3
"""Benchmark of the isac-ident pipeline: one workload per run, closed loop.

Run from the repository root; the package is imported from ``src/`` of the
same checkout, never from an installed copy:

    python3 perfbench/run.py --workload waveform --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One run sets the workload up five times (``setup_s`` is the median), then
repeats the workload's operation, one at a time, until ``--seconds`` have
passed and at least two operations have run, checking every operation's
outputs. Times are reported at the host's reference speed (see
``HostSpeed``); the raw wall times are kept in ``result.json``. With
``--trace 0`` it reports the end-to-end metrics. With ``--trace 1`` it
wraps the package's public functions, traces every other operation (at least
two), and reports per-layer metrics and the tracing overhead instead.
``--workload all`` runs every workload both ways, each in a fresh process.
The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

import os
import sys

# Pinned before numpy loads: BLAS thread pools read these once, at start-up.
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "ISAC_IDENT_THREADS": "1",
}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("waveform", "train_eval", "bulk_eval")
SETUP_REPS = 5
# Seconds each probe takes on an uncontended core of the reference host (Intel
# Xeon KVM guest, 2 vCPUs, 105 MB L3, one OpenBLAS thread): the fastest seen
# over several minutes of probing.
PROBE_REF_S = {"compute": 0.0195, "memory": 0.052}
# Every run completes at least this many (traced) operations; per-layer counts
# cover exactly these, so they repeat on every run of a seed.
COUNT_OPS = 2


def import_package():
    """Import isac_ident from this checkout's src/, or exit non-zero if it is not there."""
    if not (SRC / "isac_ident" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {SRC / 'isac_ident'}; "
                 "run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import isac_ident
    if Path(isac_ident.__file__).resolve().parent != SRC / "isac_ident":
        sys.exit(f"perfbench: imported isac_ident from {isac_ident.__file__}, not {SRC}")


def sha256_of(*dirs: Path) -> str:
    """Hash of the Python sources under the given directories."""
    digest = hashlib.sha256()
    for path in sorted(p for d in dirs for p in d.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: os.environ.get(k) for k in PINNED_THREADS},
        "git_commit": git_commit(),
        "source_sha256": sha256_of(SRC / "isac_ident"),
    }


def probe(kind: str) -> float:
    """Seconds a fixed numpy kernel takes now.

    ``compute``: the small matmuls and tanh of a DNN layer, in cache.
    ``memory``: passes over 64 MB arrays, which like a radar cube miss cache.
    """
    if kind == "compute":
        rng = np.random.default_rng(0)
        x, w = rng.standard_normal((32, 64)), rng.standard_normal((64, 64))
        t0 = time.perf_counter()
        for _ in range(1500):
            np.tanh(x @ w).sum()
        return time.perf_counter() - t0
    x = np.ones(8_000_000)
    y = np.empty_like(x)
    t0 = time.perf_counter()
    for _ in range(4):
        np.multiply(x, 1.0001, out=y)
    return time.perf_counter() - t0


class HostSpeed:
    """Scales wall times to the reference host speed.

    On a shared host other tenants slow this core by up to 1.8x, in spells of
    seconds to minutes, so the same code's wall time follows the host more
    than the program. A probe runs before the first timed interval and after
    each one; an interval's wall time is scaled by the reference probe time
    over the mean of the probes around it. Each workload names the probe
    that slows down with it: cache-bound work and memory-bound work suffer
    from different neighbours. The probe is the benchmark's own numpy code, so
    a change to the package does not move it.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.last = probe(kind)

    def scale(self) -> float:
        """Factor for the interval since the previous call (below 1 on a slow host)."""
        before, self.last = self.last, probe(self.kind)
        return PROBE_REF_S[self.kind] / ((before + self.last) / 2)


def check_counts_repeat(args, layer: dict, repeating) -> list[str]:
    """Compare this run's counts with the first run of the same seed and code.

    The key covers the package and the benchmark, so changing either starts afresh.
    """
    code = sha256_of(SRC / "isac_ident", Path(__file__).resolve().parent)
    store = WORK_ROOT / "counts" / f"{args.workload}-{args.size}-seed{args.seed}-{code[:16]}.json"
    counts = {k: layer[k][0] for k in repeating}
    if not store.exists():
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(counts, indent=2) + "\n", encoding="utf-8")
        return []
    first = json.loads(store.read_text(encoding="utf-8"))
    return [f"{k}: {counts[k]!r} here, {first.get(k)!r} on the first run of this seed"
            for k in counts if counts[k] != first.get(k)]


def run_workload(args) -> dict:
    import tracer as tracing
    from workloads import WORKLOADS

    workdir = WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tr = tracing.Tracer() if args.trace else None
    if tr:
        tracing.install(tr)
    workload = WORKLOADS[args.workload](workdir, args.seed, args.size)

    host = HostSpeed(workload.probe)
    setup_s, setup_wall = [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        workload.setup()
        setup_wall.append(time.perf_counter() - t0)
        setup_s.append(setup_wall[-1] * host.scale())
    if tr:
        tr.enabled = False
    workload.after_setup()

    # A traced run traces every other operation only, so the untraced ones
    # between them give the tracing overhead under the same machine load.
    rates, traced_rates, wall_rates, failures = [], [], [], []
    min_ops = 2 * COUNT_OPS if tr else COUNT_OPS
    host.scale()  # the probe after set-up brackets the first operation
    index, start = 0, time.perf_counter()
    while index < min_ops or time.perf_counter() - start < args.seconds:
        traced = tr is not None and index % 2 == 0
        if tr:
            tr.run, tr.enabled = index, traced
        try:
            t0 = time.perf_counter()
            work = workload.run(index)
            wall = time.perf_counter() - t0
            scale = host.scale()
            if tr:
                tr.enabled = False
            workload.check(index)
            (traced_rates if traced else rates).append(work / (wall * scale))
            if not traced:
                wall_rates.append(work / wall)
        except Exception as exc:  # a failed operation is counted; the run goes on
            failures.append(f"operation {index}: {type(exc).__name__}: {exc}")
            print(f"perfbench: {failures[-1]}", file=sys.stderr)
        index += 1
    if tr:
        tr.unwrap_all()

    throughput = statistics.median(rates) if rates else 0.0
    quality = workload.quality() if rates or traced_rates else {}
    named = {
        "setup_s": (statistics.median(setup_s), "s"),
        workload.throughput[0]: (throughput, workload.throughput[1]),
        **{k: (v, "ratio") for k, v in quality.items()},
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "failed_frac": (len(failures) / index, "ratio"),
    }
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "environment": environment(),
        "operations": index, "failures": failures, "probe": workload.probe,
        "probe_ref_s": PROBE_REF_S[workload.probe],
        "setup_s_runs": setup_s, "setup_wall_s_runs": setup_wall,
        "throughput_runs": rates, "traced_throughput_runs": traced_rates,
        "wall_throughput_runs": wall_rates,
        "named_metrics": named, "absent": [],
        "count_mismatches": [],
    }
    if tr:
        layer, result["absent"] = tracing.layer_metrics(tr, range(0, 2 * COUNT_OPS, 2))
        traced_throughput = statistics.median(traced_rates) if traced_rates else 0.0
        layer["trace.throughput_per_s"] = (traced_throughput, "1/s")
        layer["trace.overhead_frac"] = (
            throughput / traced_throughput - 1.0 if traced_throughput else 0.0, "ratio")
        repeating = [k for k in tracing.REPEATING_COUNTS if k not in result["absent"]]
        result["count_mismatches"] = check_counts_repeat(args, layer, repeating)
        tr.write_spans(workdir / "spans.csv")
        metrics = layer
    else:
        metrics = {
            "setup_s": named["setup_s"],
            "throughput_per_s": (throughput, "1/s"),
            "peak_rss_mb": named["peak_rss_mb"],
        }
    result["metrics"] = metrics
    (workdir / "result.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"operations {index}  failed {len(failures)}")
    env = result["environment"]
    print(f"environment  nproc {env['nproc']}  numpy {env['numpy']}  blas {env['blas']}  "
          f"threads {env['threads']}  commit {env['git_commit']}")
    shown = metrics if tr else named
    for name, (value, unit) in shown.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    if result["absent"]:
        print("absent (reads -1): " + ", ".join(result["absent"]))
    for line in result["count_mismatches"]:
        print(f"count differs between runs of seed {args.seed}: {line}")
    print(f"result file: {workdir / 'result.json'}")
    return {
        "correct": not failures and not result["count_mismatches"],
        "attempted": index,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload untraced and traced, each run in a fresh process."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        results = {}
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace), "--size", args.size]
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  timeout=900 + 20 * args.seconds, check=False)
            sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"perfbench: {name} --trace {trace} exited {proc.returncode}")
            results[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
            correct &= results[trace]["correct"]
            attempted += results[trace]["attempted"]
            failed += results[trace]["failed"]
        overhead = results[1]["metrics"]["trace.overhead_frac"]
        print(f"tracing overhead on {name}: {overhead['value']:+.1%}\n")
        for key, value in results[0]["metrics"].items():
            metrics[f"{name}.{key}"] = value
        metrics[f"{name}.trace.overhead_frac"] = overhead
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="isac-ident benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed; the same seed gives the same inputs")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long the measured loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics from spans")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the self-test only")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    import_package()
    summary = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
