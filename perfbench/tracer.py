"""Span tracing from outside the package.

The tracer replaces module attributes with timing wrappers at the place the
caller looks them up (``isac_ident.dataset.detect_objects`` is the name
``generate_dataset`` calls, so that is the attribute wrapped). The package
itself is never edited. A target that no longer exists is recorded as absent
instead of raising, so the traced run survives refactors of the package.

Every span records its name, start, end, parent span and the run id (``setup``
or the operation index). Spans stay in memory until the run ends. While
``enabled`` is false the wrappers only pass calls through, so one process can
time operations with and without tracing side by side.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

import numpy as np

from workloads import SOLVERS

class Tracer:
    def __init__(self):
        self.spans: list = []           # (name, start_ns, end_ns, parent, run)
        self.counts = defaultdict(float)  # (run, key) -> value
        self.run = "setup"
        self.enabled = True
        self.absent: set[str] = set()   # wrap targets that do not exist
        self._stack: list[int] = []
        self._patched: list = []

    def wrap(self, owner, attr: str, name, observe=None, target: str | None = None) -> None:
        """Replace ``owner.attr`` with a wrapper that records one span per call.

        ``name`` is a span name or a function of the call's (args, kwargs).
        ``observe(tracer, args, kwargs, result)`` runs after the span closes,
        so the counts it derives cost no span time.
        """
        target = target or f"{getattr(owner, '__name__', owner)}.{attr}"
        original = getattr(owner, attr, None)
        if not callable(original):
            self.absent.add(target)
            return
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            span_name = name(args, kwargs) if callable(name) else name
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (span_name, start, end, parent, self.run)
            if observe is not None:
                try:
                    observe(self, args, kwargs, result)
                except (AttributeError, TypeError, ValueError):
                    # the call's arguments or result changed shape: its counts
                    # are no longer meaningful, so report them as absent
                    self.absent.add(target)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def add(self, key: str, value: float = 1.0) -> None:
        self.counts[(self.run, key)] += value

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,parent,run,name,start_ns,end_ns\n")
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(f"{i},{parent},{run},{name},{start},{end}\n")


# --- observers: counts taken where the work happens -------------------------

def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs.get(key)


def _rows(samples) -> int:
    return sum(len(s.candidates) for s in samples)


def _on_frame(tr, args, kwargs, result):
    tr.add("frames")
    tr.add("objects", len(_arg(args, kwargs, 0, "scene")))


def _on_detect(tr, args, kwargs, result):
    tr.add("detect_frames")
    tr.add("candidates", len(result))


def _on_process_cube(tr, args, kwargs, result):
    tr.add("process_cube_calls")
    tr.add("power_cube_bytes", result.power.nbytes)


def _on_cfar(tr, args, kwargs, result):
    tr.add("cfar_cells", np.size(_arg(args, kwargs, 0, "pc").power))
    tr.add("cfar_hits", len(result))


def _on_dbscan(tr, args, kwargs, result):
    labels = np.asarray(result)
    tr.add("dbscan_points", labels.size)
    tr.add("dbscan_noise", int((labels < 0).sum()))
    tr.add("clusters", len(np.unique(labels[labels >= 0])))


def _on_generate(tr, args, kwargs, result):
    if _generate_name(args, kwargs) == "dataset.generate_full":
        tr.add("samples_kept", len(result))


def _on_save(tr, args, kwargs, result):
    tr.add("save_rows", _rows(_arg(args, kwargs, 0, "samples")))


def _on_load(tr, args, kwargs, result):
    tr.add("load_rows", _rows(result))


def _on_score(tr, args, kwargs, result):
    tr.add("score_rows", len(np.atleast_2d(_arg(args, kwargs, 1, "feats"))))


def _on_make_solver(tr, args, kwargs, result):
    name = getattr(result, "name", "unknown")
    tr.wrap(result, "fit", f"solvers.fit.{name}", target=f"solvers.{name}.fit")
    tr.wrap(result, "predict", f"solvers.predict.{name}", target=f"solvers.{name}.predict")


def _generate_name(args, kwargs) -> str:
    return "dataset.generate_" + str(_arg(args, kwargs, 1, "mode") or "fast")


# (module, attribute, span name, observer). Each attribute is wrapped in the
# module whose code calls it, because ``from x import f`` binds a private name.
WRAPS = [
    ("cli", "main", "cli.main", None),
    ("cli", "generate_dataset", _generate_name, _on_generate),
    ("cli", "split_by_sequence", "dataset.split_by_sequence", None),
    ("cli", "save_samples", "dataset.save_samples", _on_save),
    ("cli", "load_samples", "dataset.load_samples", _on_load),
    ("cli", "make_solver", "solvers.make_solver", _on_make_solver),
    ("cli", "evaluate", "solvers.evaluate", None),
    ("cli", "save_model", "mlp.save_model", None),
    ("dataset", "save_samples", "dataset.save_samples", _on_save),
    ("dataset", "load_samples", "dataset.load_samples", _on_load),
    ("dataset", "synthesize_frame", "radar_frontend.synthesize_frame", _on_frame),
    ("dataset", "detect_objects", "radar_detect.detect_objects", _on_detect),
    ("dataset", "synthesize_channel", "scene.synthesize_channel", None),
    ("dataset", "sweep_beams", "scene.sweep_beams", None),
    ("dataset", "optimal_beam", "scene.optimal_beam", None),
    ("radar_detect", "process_cube", "radar_detect.process_cube", _on_process_cube),
    ("radar_detect", "cfar_detect", "radar_detect.cfar_detect", _on_cfar),
    ("radar_detect", "dbscan", "radar_detect.dbscan", _on_dbscan),
    ("radar_detect", "summarize_clusters", "radar_detect.summarize_clusters", None),
    ("solvers", "loss_and_grad_arrays", "mlp.loss_and_grad", None),
    ("solvers", "adam_step", "mlp.adam_step", None),
    ("solvers", "score_candidates", "mlp.score_candidates", _on_score),
    ("solvers", "make_solver", "solvers.make_solver", _on_make_solver),
    ("solvers", "evaluate", "solvers.evaluate", None),
    ("mlp", "save_model", "mlp.save_model", None),
    ("mlp", "load_model", "mlp.load_model", None),
]


def install(tracer: Tracer) -> None:
    for module, attr, name, observe in WRAPS:
        target = f"{module}.{attr}"
        try:
            owner = importlib.import_module(f"isac_ident.{module}")
        except ImportError:
            tracer.absent.add(target)
            continue
        tracer.wrap(owner, attr, name, observe, target=target)


# --- per-layer metrics ------------------------------------------------------


class SpanStats:
    """Durations and self times by span name, plus counts over the count ops."""

    def __init__(self, tracer: Tracer, count_runs):
        count_runs = set(count_runs)
        self.n_count_ops = max(len(count_runs), 1)
        child_ns = [0] * len(tracer.spans)
        for name, start, end, parent, run in tracer.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self.dur = defaultdict(list)
        self.self_ = defaultdict(list)
        self.calls_in_count_ops = defaultdict(int)
        self.spans_in_count_ops = 0
        for i, (name, start, end, parent, run) in enumerate(tracer.spans):
            self.dur[name].append(end - start)
            self.self_[name].append(end - start - child_ns[i])
            if run in count_runs:
                self.calls_in_count_ops[name] += 1
                self.spans_in_count_ops += 1
        self.total = defaultdict(float)
        self.in_count_ops = defaultdict(float)
        for (run, key), value in tracer.counts.items():
            self.total[key] += value
            if run in count_runs:
                self.in_count_ops[key] += value

    def mean_self(self, name, scale):
        values = self.self_.get(name)
        return float(np.mean(values)) / scale if values else 0.0

    def mean_dur(self, name, scale):
        values = self.dur.get(name)
        return float(np.mean(values)) / scale if values else 0.0

    def ratio(self, num, den):
        d = self.in_count_ops[den]
        return self.in_count_ops[num] / d if d else 0.0

    def per_op(self, value):
        return value / self.n_count_ops

    def rows_per_s(self, span, rows_key):
        seconds = sum(self.dur.get(span, ())) / 1e9
        return self.total[rows_key] / seconds if seconds else 0.0

    def serving_beam_us(self):
        parts = ("scene.synthesize_channel", "scene.sweep_beams", "scene.optimal_beam")
        n = len(self.self_.get("scene.optimal_beam", ()))
        total = sum(sum(self.self_.get(p, ())) for p in parts)
        return total / n / 1e3 if n else 0.0


MS, US = 1e6, 1e3

# name -> (unit, wrap targets it needs, value). Times are per call over every
# traced call, set-up included; counts cover the first operations only, so a
# seed gives the same counts on every run.
LAYER_METRICS = {
    "radar_frontend.synthesize_frame.self_ms": (
        "ms", ["dataset.synthesize_frame"],
        lambda s: s.mean_self("radar_frontend.synthesize_frame", MS)),
    "radar_frontend.objects_per_frame": (
        "count", ["dataset.synthesize_frame"], lambda s: s.ratio("objects", "frames")),
    "radar_detect.process_cube.self_ms": (
        "ms", ["radar_detect.process_cube"],
        lambda s: s.mean_self("radar_detect.process_cube", MS)),
    "radar_detect.cfar_detect.self_ms": (
        "ms", ["radar_detect.cfar_detect"], lambda s: s.mean_self("radar_detect.cfar_detect", MS)),
    "radar_detect.dbscan.self_ms": (
        "ms", ["radar_detect.dbscan"], lambda s: s.mean_self("radar_detect.dbscan", MS)),
    "radar_detect.summarize_clusters.self_ms": (
        "ms", ["radar_detect.summarize_clusters"],
        lambda s: s.mean_self("radar_detect.summarize_clusters", MS)),
    "radar_detect.cfar_cells_scanned": (
        "count", ["radar_detect.cfar_detect", "dataset.detect_objects"],
        lambda s: s.ratio("cfar_cells", "detect_frames")),
    "radar_detect.power_cube_mb": (
        "MB", ["radar_detect.process_cube"],
        lambda s: s.ratio("power_cube_bytes", "process_cube_calls") / 1e6),
    "radar_detect.cfar_hits_per_frame": (
        "count", ["radar_detect.cfar_detect", "dataset.detect_objects"],
        lambda s: s.ratio("cfar_hits", "detect_frames")),
    "radar_detect.clusters_per_frame": (
        "count", ["radar_detect.dbscan", "dataset.detect_objects"],
        lambda s: s.ratio("clusters", "detect_frames")),
    "radar_detect.candidates_per_frame": (
        "count", ["dataset.detect_objects"], lambda s: s.ratio("candidates", "detect_frames")),
    "radar_detect.dbscan_noise_frac": (
        "ratio", ["radar_detect.dbscan"], lambda s: s.ratio("dbscan_noise", "dbscan_points")),
    "dataset.frames_attempted": (
        "count", ["dataset.synthesize_frame"], lambda s: s.per_op(s.in_count_ops["frames"])),
    "dataset.samples_kept": (
        "count", ["cli.generate_dataset"], lambda s: s.per_op(s.in_count_ops["samples_kept"])),
    "scene.serving_beam.self_us": (
        "us", ["dataset.synthesize_channel", "dataset.sweep_beams", "dataset.optimal_beam"],
        lambda s: s.serving_beam_us()),
    "dataset.generate_fast.self_ms": (
        "ms", ["cli.generate_dataset"], lambda s: s.mean_self("dataset.generate_fast", MS)),
    "dataset.save_samples.rows_per_s": (
        "rows/s", ["dataset.save_samples"],
        lambda s: s.rows_per_s("dataset.save_samples", "save_rows")),
    "dataset.load_samples.rows_per_s": (
        "rows/s", ["dataset.load_samples"],
        lambda s: s.rows_per_s("dataset.load_samples", "load_rows")),
    "mlp.loss_and_grad.self_us": (
        "us", ["solvers.loss_and_grad_arrays"], lambda s: s.mean_self("mlp.loss_and_grad", US)),
    "mlp.adam_step.self_us": (
        "us", ["solvers.adam_step"], lambda s: s.mean_self("mlp.adam_step", US)),
    "mlp.adam_steps": (
        "count", ["solvers.adam_step"],
        lambda s: s.per_op(s.calls_in_count_ops["mlp.adam_step"])),
    "mlp.score_candidates.self_us": (
        "us", ["solvers.score_candidates"], lambda s: s.mean_self("mlp.score_candidates", US)),
    "mlp.score_calls": (
        "count", ["solvers.score_candidates"],
        lambda s: s.per_op(s.calls_in_count_ops["mlp.score_candidates"])),
    "mlp.rows_per_score_call": (
        "count", ["solvers.score_candidates"],
        lambda s: (s.in_count_ops["score_rows"] / s.calls_in_count_ops["mlp.score_candidates"]
                   if s.calls_in_count_ops["mlp.score_candidates"] else 0.0)),
    "mlp.save_model_ms": ("ms", ["mlp.save_model"], lambda s: s.mean_dur("mlp.save_model", MS)),
    "mlp.load_model_ms": ("ms", ["mlp.load_model"], lambda s: s.mean_dur("mlp.load_model", MS)),
    **{f"solvers.fit_ms.{n}": ("ms", ["solvers.make_solver", f"solvers.{n}.fit"],
                               lambda s, n=n: s.mean_dur(f"solvers.fit.{n}", MS))
       for n in SOLVERS},
    **{f"solvers.predict_us.{n}": ("us", ["solvers.make_solver", f"solvers.{n}.predict"],
                                   lambda s, n=n: s.mean_dur(f"solvers.predict.{n}", US))
       for n in SOLVERS},
    "cli.self_ms": ("ms", ["cli.main"], lambda s: s.mean_self("cli.main", MS)),
    "trace.spans_per_op": ("count", [], lambda s: s.per_op(s.spans_in_count_ops)),
}

# Counts that must read the same on every run of one seed.
REPEATING_COUNTS = (
    "dataset.frames_attempted",
    "radar_frontend.objects_per_frame",
    "radar_detect.cfar_cells_scanned",
    "radar_detect.cfar_hits_per_frame",
    "radar_detect.clusters_per_frame",
    "mlp.adam_steps",
    "mlp.score_calls",
    "mlp.rows_per_score_call",
)

ABSENT = -1.0


def layer_metrics(tracer: Tracer, count_runs) -> tuple[dict, list[str]]:
    """Per-layer values by name, and the names whose wrap target is absent.

    An absent metric reads -1; a layer the workload never called reads 0.
    """
    stats = SpanStats(tracer, count_runs)
    values, absent = {}, []
    for name, (unit, needs, value) in LAYER_METRICS.items():
        if any(t in tracer.absent for t in needs):
            values[name] = (ABSENT, unit)
            absent.append(name)
        else:
            values[name] = (value(stats), unit)
    return values, absent
