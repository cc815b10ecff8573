"""The three benchmark workloads.

Each workload has a set-up that builds its inputs from the workload seed, one
measured operation that drives the package through its public entry points,
and checks on that operation's outputs. The checks test properties any
correct version of the program keeps (labels valid, files read back to the
same samples, predictions reproduce the reported accuracy), never byte
digests of one version's outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

from isac_ident import cli, config, dataset, mlp, radar_detect, radar_frontend, scene, solvers

SOLVERS = ("offset", "linreg-angle", "linreg-3d", "lookup", "dnn")

# Workload sizes. "full" is the benchmark; "tiny" only exercises every code
# path quickly for the self-test.
SIZES = {
    "full": {
        # two passes of four frames each. At 0.5 frames/s the frames sit at
        # about +-19 and +-46 deg with a clear Doppler shift and about 93 % are
        # kept; four frames per pass make a pass with no kept frame (which
        # `simulate` rejects) too rare to fail a run
        "waveform": {"sequences": 2, "frames": 4, "frame_rate": 0.5, "radar": {}},
        "train_eval": {"sequences": 20, "samples_per_sequence": [80, 120], "epochs": 10},
        "bulk_eval": {"train_sequences": 6, "test_sequences": 30,
                      "samples_per_sequence": [80, 120], "candidates": [2, 10], "epochs": 10},
    },
    "tiny": {
        "waveform": {"sequences": 2, "frames": 2, "frame_rate": 0.25,
                     "radar": {"n_chirps": 64, "n_samples": 128, "noise_floor": 10.0}},
        "train_eval": {"sequences": 3, "samples_per_sequence": [20, 20], "epochs": 20},
        "bulk_eval": {"train_sequences": 3, "test_sequences": 3,
                      "samples_per_sequence": [20, 20], "candidates": [2, 10], "epochs": 20},
    },
}


class CheckFailed(Exception):
    """An operation's output broke a property every correct version keeps."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def derive_seed(seed: int, *path: int) -> int:
    """A seed in [0, 2**31) for one input of the workload, fixed by the path."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0] >> 1)


def run_cli(argv: list[str]) -> None:
    """Run one CLI command in this process; its console output is discarded."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    check(code == 0, f"`{argv[0]}` exited {code}: {err.getvalue().strip()}")


def write_config(path: Path, cfg: dict) -> Path:
    path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")  # JSON is YAML
    return path


def chance_accuracy(samples) -> float:
    return float(np.mean([1.0 / len(s.candidates) for s in samples]))


def read_accuracy_csv(path: Path) -> dict[str, float]:
    lines = path.read_text(encoding="utf-8").splitlines()
    check(lines[0] == "solver,accuracy", f"{path.name}: bad header {lines[0]!r}")
    return {name: float(acc) for name, acc in (line.split(",") for line in lines[1:])}


def read_predictions_csv(path: Path):
    """(sample ids, labels, {solver: predictions}) from a predictions file."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    check(header[:2] == ["sample_id", "label"], f"{path.name}: bad header {lines[0]!r}")
    table = np.array([[int(v) for v in line.split(",")] for line in lines[1:]], dtype=int)
    table = table.reshape(len(lines) - 1, len(header))
    return table[:, 0], table[:, 1], {n: table[:, 2 + k] for k, n in enumerate(header[2:])}


def check_predictions(path: Path, samples, accuracy: dict[str, float], tol: float) -> None:
    """Predictions are valid indices and reproduce the reported accuracies."""
    ids, labels, preds = read_predictions_csv(path)
    check(ids.tolist() == [s.sample_id for s in samples], f"{path.name}: sample ids differ")
    check(labels.tolist() == [s.label for s in samples], f"{path.name}: labels differ")
    check(sorted(preds) == sorted(SOLVERS), f"{path.name}: solvers {sorted(preds)}")
    sizes = np.array([len(s.candidates) for s in samples])
    chance = chance_accuracy(samples)
    for name, p in preds.items():
        check(bool(((p >= 0) & (p < sizes)).all()), f"{name}: prediction out of range")
        acc = float(np.mean(p == labels))
        check(abs(acc - accuracy[name]) <= tol,
              f"{name}: predictions give accuracy {acc:.6f}, reported {accuracy[name]:.6f}")
        check(acc > chance, f"{name}: accuracy {acc:.4f} not above chance {chance:.4f}")


class Waveform:
    """`simulate --mode full`: FMCW synthesis, FFT/CFAR/DBSCAN, labeling, files.

    Every operation of a run simulates the same scene, so operations differ
    only in how busy the machine was, and each must keep the same samples.
    """

    name = "waveform"
    throughput = ("frames_per_s", "frames/s")
    probe = "memory"  # FFTs and CFAR over a 131 MB cube

    def __init__(self, workdir: Path, seed: int, size: str):
        self.p = SIZES[size]["waveform"]
        self.dir, self.seed = workdir, seed
        self.frames_per_op = self.p["sequences"] * self.p["frames"]
        self.kept = self.attempted = 0
        self.first_samples = None

    def setup(self) -> None:
        """Write the run config and push one frame through the detection chain.

        The warm-up frame is what a user pays before the first frame of a
        dataset: config parsing and first use of the FFT and detection code.
        """
        frames = self.p["frames"]
        self.config = write_config(self.dir / "config.yaml", {
            "seed": self.seed,
            "scenario": {"sequences": self.p["sequences"],
                         "samples_per_sequence": [frames, frames],
                         "frame_rate": self.p["frame_rate"]},
            "radar": self.p["radar"],
        })
        run_cfg = config.load_config(self.config)
        rng = np.random.default_rng(self.seed)
        objects = []
        for oid in range(2):
            r, theta = rng.uniform(20.0, 60.0), np.radians(rng.uniform(-40.0, 40.0))
            pos = (float(r * np.sin(theta)), float(r * np.cos(theta)))
            v = rng.uniform(2.0, 10.0)
            objects.append(scene.SceneObject(
                id=oid, position=pos, velocity=(-v * pos[0] / r, -v * pos[1] / r),
                is_comm_user=oid == 0))
        cube = radar_frontend.synthesize_frame(objects, run_cfg.radar, seed=self.seed)
        radar_detect.detect_objects(cube, run_cfg.detect)

    def after_setup(self) -> None:
        pass

    def run(self, index: int) -> float:
        out = self.dir / "simulate"
        run_cli(["simulate", "--mode", "full", "--config", str(self.config),
                 "--seed", str(derive_seed(self.seed, 0)), "--out", str(out)])
        return float(self.frames_per_op)

    def check(self, index: int) -> None:
        out = self.dir / "simulate"
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        check(manifest.get("command") == "simulate", "manifest does not record the command")
        samples = dataset.load_samples(out / "samples.csv")
        ids = [s.sample_id for s in samples]
        check(len(set(ids)) == len(ids), "duplicate sample ids")
        check(all(0 <= i < self.frames_per_op for i in ids), "sample id beyond the frames")
        for s in samples:
            check(s.label is not None and 0 <= s.label < len(s.candidates),
                  f"sample {s.sample_id}: invalid label {s.label}")
        train = dataset.load_samples(out / "train.csv")
        test = dataset.load_samples(out / "test.csv")
        check(sorted(s.sample_id for s in train + test) == sorted(ids),
              "train and test do not partition the samples")
        if self.first_samples is None:
            self.first_samples = samples
        check(samples == self.first_samples, "samples differ between runs of the same scene")
        self.kept += len(samples)
        self.attempted += self.frames_per_op

    def quality(self) -> dict[str, float]:
        return {"kept_frac": self.kept / self.attempted if self.attempted else 0.0}


class TrainEval:
    """`eval --solver all`: fit all five solvers, score the test split, write CSVs."""

    name = "train_eval"
    throughput = ("train_rows_per_s", "rows/s")  # candidate rows x epochs
    probe = "compute"  # small DNN matmuls

    def __init__(self, workdir: Path, seed: int, size: str):
        self.p = SIZES[size]["train_eval"]
        self.dir, self.seed = workdir, seed
        self.accuracy: dict[str, float] | None = None

    def setup(self) -> None:
        self.config = write_config(self.dir / "config.yaml", {
            "seed": self.seed,
            "scenario": {"sequences": self.p["sequences"],
                         "samples_per_sequence": self.p["samples_per_sequence"]},
            "training": {"epochs": self.p["epochs"]},
        })
        self.data = self.dir / "data"
        run_cli(["simulate", "--config", str(self.config), "--out", str(self.data)])

    def after_setup(self) -> None:
        self.test = dataset.load_samples(self.data / "test.csv")
        train = dataset.load_samples(self.data / "train.csv")
        self.rows = sum(len(s.candidates) for s in train)

    def run(self, index: int) -> float:
        run_cli(["eval", str(self.data), "--solver", "all", "--config", str(self.config),
                 "--out", str(self.dir / "eval")])
        return float(self.rows * self.p["epochs"])

    def check(self, index: int) -> None:
        out = self.dir / "eval"
        accuracy = read_accuracy_csv(out / "accuracy.csv")
        check(sorted(accuracy) == sorted(SOLVERS), f"accuracy.csv lists {sorted(accuracy)}")
        # accuracy.csv rounds to six decimals
        check_predictions(out / "predictions.csv", self.test, accuracy, tol=5e-7)
        if self.accuracy is None:
            self.accuracy = accuracy
        check(accuracy == self.accuracy, "accuracies differ between runs of the same input")

    def quality(self) -> dict[str, float]:
        return {f"acc_{n.replace('-', '_')}": self.accuracy[n] for n in SOLVERS}


class BulkEval:
    """Read, checkpoint-load, five-solver scoring and prediction writes of a big set."""

    name = "bulk_eval"
    throughput = ("scored_samples_per_s", "samples/s")
    probe = "compute"  # per-sample DNN forward passes and Python loops

    def __init__(self, workdir: Path, seed: int, size: str):
        self.p = SIZES[size]["bulk_eval"]
        self.dir, self.seed = workdir, seed
        self.accuracy: dict[str, float] | None = None

    def setup(self) -> None:
        """Simulate a train and a larger held-out set, fit all five, checkpoint the DNN."""
        per_sequence = self.p["samples_per_sequence"]
        self.config = write_config(self.dir / "train.yaml", {
            "seed": self.seed,
            "scenario": {"sequences": self.p["train_sequences"],
                         "samples_per_sequence": per_sequence},
            "training": {"epochs": self.p["epochs"]},
        })
        test_config = write_config(self.dir / "test.yaml", {
            "seed": derive_seed(self.seed, 1),
            "scenario": {"sequences": self.p["test_sequences"],
                         "samples_per_sequence": per_sequence,
                         "candidates": self.p["candidates"]},
        })
        run_cli(["simulate", "--config", str(self.config), "--out", str(self.dir / "train")])
        run_cli(["simulate", "--config", str(test_config), "--out", str(self.dir / "test")])
        run_cfg = config.load_config(self.config)
        self.training = run_cfg.training
        self.angles = scene.dft_codebook(run_cfg.comm.n_antennas, run_cfg.comm.n_beams,
                                         run_cfg.comm.element_spacing).pointing_angles
        train = dataset.load_samples(self.dir / "train" / "train.csv")
        self.fitted = {}
        for name in SOLVERS:
            self.fitted[name] = solvers.make_solver(name, self.angles, hyper=self.training)
            self.fitted[name].fit(train)
        self.checkpoint = self.dir / "model.ckpt"
        mlp.save_model(self.fitted["dnn"].model, self.checkpoint)
        self.samples = dataset.load_samples(self.dir / "test" / "samples.csv")

    def after_setup(self) -> None:
        self.expected = {name: [s.predict(x.candidates, x.b_star) for x in self.samples]
                         for name, s in self.fitted.items()}
        self.checkpoint_bytes = self.checkpoint.read_bytes()

    def run(self, index: int) -> float:
        path = self.dir / "bulk.csv"
        dataset.save_samples(self.samples, path)
        self.loaded = dataset.load_samples(path)
        dnn = solvers.make_solver("dnn", self.angles, hyper=self.training)
        dnn.model = mlp.load_model(self.checkpoint)
        active = {**self.fitted, "dnn": dnn}
        self.op_accuracy = {n: solvers.evaluate(active[n], self.loaded) for n in SOLVERS}
        self.dnn_model = dnn.model
        with open(self.dir / "predictions.csv", "w", encoding="utf-8") as fh:
            fh.write("sample_id,label," + ",".join(SOLVERS) + "\n")
            for s in self.loaded:
                preds = ",".join(str(active[n].predict(s.candidates, s.b_star)) for n in SOLVERS)
                fh.write(f"{s.sample_id},{s.label},{preds}\n")
        return float(len(self.samples))

    def check(self, index: int) -> None:
        check(self.loaded == self.samples, "load_samples(save_samples(x)) != x")
        resaved = self.dir / "resaved.ckpt"
        mlp.save_model(self.dnn_model, resaved)
        check(resaved.read_bytes() == self.checkpoint_bytes,
              "checkpoint does not round-trip through load_model/save_model")
        check_predictions(self.dir / "predictions.csv", self.samples, self.op_accuracy, tol=0.0)
        _, _, preds = read_predictions_csv(self.dir / "predictions.csv")
        for name in SOLVERS:
            check(preds[name].tolist() == self.expected[name],
                  f"{name}: predictions differ from the solver fitted in set-up")
        if self.accuracy is None:
            self.accuracy = self.op_accuracy
        check(self.op_accuracy == self.accuracy, "accuracies differ between runs of the same input")

    def quality(self) -> dict[str, float]:
        return {f"acc_{n.replace('-', '_')}": self.accuracy[n] for n in SOLVERS}


WORKLOADS = {w.name: w for w in (Waveform, TrainEval, BulkEval)}
