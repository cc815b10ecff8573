import collections
import dataclasses
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import isac_ident
from isac_ident import cli, solvers
from isac_ident.cli import main
from isac_ident.config import config_from_dict
from isac_ident.dataset import (SAMPLE_HEADER, format_sample, load_samples, save_samples,
                                 write_sample_file)
from isac_ident.radar_detect import Candidate
from isac_ident.radar_frontend import RadarConfig, synthesize_frame, save_cube
from isac_ident.scene import SceneObject, dft_codebook
from isac_ident.solvers import SOLVER_NAMES, DnnSolver, Sample, TableSolver

SMALL_YAML = """
seed: 11
scenario:
  sequences: 4
  samples_per_sequence: [12, 16]
  candidates: [1, 3]
training:
  epochs: 8
"""


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(SMALL_YAML)
    return path


@pytest.fixture()
def dataset_dir(tmp_path, small_config):
    out = tmp_path / "data"
    assert main(["simulate", "--config", str(small_config), "--out", str(out)]) == 0
    return out


def read_accuracy(path):
    rows = path.read_text().strip().splitlines()[1:]
    return {line.split(",")[0]: float(line.split(",")[1]) for line in rows}


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


# ---------------------------------------------------------------- simulate

def test_simulate_writes_dataset_and_manifest(dataset_dir):
    for name in ("manifest.json", "samples.csv", "train.csv", "test.csv"):
        assert (dataset_dir / name).exists()
    manifest = json.loads((dataset_dir / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 11
    assert manifest["config"]["scenario"]["sequences"] == 4
    assert manifest["elapsed_s"] is not None
    samples = load_samples(dataset_dir / "samples.csv")
    train = load_samples(dataset_dir / "train.csv")
    test = load_samples(dataset_dir / "test.csv")
    assert len(samples) == len(train) + len(test)
    assert not ({s.sequence_id for s in train} & {s.sequence_id for s in test})


def test_simulate_missing_config_exits_2(tmp_path):
    rc = main(["simulate", "--config", str(tmp_path / "missing.yaml"),
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_simulate_same_seed_identical_files(tmp_path, small_config):
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    assert main(["simulate", "--config", str(small_config), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(small_config), "--out", str(out2)]) == 0
    for name in ("samples.csv", "train.csv", "test.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_simulate_seed_override_changes_data(tmp_path, small_config):
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    assert main(["simulate", "--config", str(small_config), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(small_config), "--seed", "99",
                 "--out", str(out2)]) == 0
    assert (out1 / "samples.csv").read_bytes() != (out2 / "samples.csv").read_bytes()
    manifest = json.loads((out2 / "manifest.json").read_text())
    assert manifest["seed"] == 99


def test_manifest_argv_is_the_list_main_was_given(tmp_path, small_config, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["host-program", "extra-host-arg"])
    argv = ["simulate", "--config", str(small_config), "--seed", "1", "--out", str(tmp_path / "d")]
    assert main(argv) == 0
    assert json.loads((tmp_path / "d" / "manifest.json").read_text())["argv"] == argv


SMALL_FULL_YAML = """
seed: 4
scenario:
  sequences: 3
  samples_per_sequence: [3, 4]
  candidates: [1, 3]
radar:
  n_chirps: 64
  n_samples: 256
  noise_floor: 10.0
"""


def test_simulate_full_identical_for_any_thread_count(tmp_path, monkeypatch):
    cfg = tmp_path / "full.yaml"
    cfg.write_text(SMALL_FULL_YAML)
    outs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("ISAC_IDENT_THREADS", threads)
        outs.append(tmp_path / f"threads{threads}")
        assert main(["simulate", "--mode", "full", "--config", str(cfg),
                     "--out", str(outs[-1])]) == 0
    assert len(load_samples(outs[0] / "test.csv")) > 0
    for name in ("samples.csv", "train.csv", "test.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


# (noise_floor, n_rx, n_chirps) at the edges of the frame sampler, and the
# field a run is refused for, or None: tiny floors make kappa of the read
# cells' direction huge; one antenna gives no angle, and one or two chirps
# leave the map no or one noisy Doppler row, so those are refused up front
SAMPLER_EDGES = {
    "floor-1e-300": (1e-300, 4, 64, None),
    "floor-1e-30": (1e-30, 4, 64, None),
    "one-antenna": (10.0, 1, 64, "radar.n_rx must be at least 2"),
    "one-chirp": (10.0, 4, 1, "radar.n_chirps must be at least 3"),
    "two-chirps": (10.0, 4, 2, "radar.n_chirps must be at least 3"),
    "noise-free": (0.0, 4, 64, None),
}


@pytest.mark.parametrize("case", SAMPLER_EDGES)
def test_full_mode_at_the_sampler_edges_ends_cleanly(tmp_path, capsys, case):
    # no RuntimeWarning (the suite makes them errors): exit 0, or exit 2 in
    # one line that names the refused field
    noise_floor, n_rx, n_chirps, refused = SAMPLER_EDGES[case]
    cfg = tmp_path / "full.yaml"
    cfg.write_text(SMALL_FULL_YAML.replace("noise_floor: 10.0", f"noise_floor: {noise_floor!r}")
                   .replace("n_chirps: 64", f"n_chirps: {n_chirps}\n  n_rx: {n_rx}"))
    code = main(["simulate", "--mode", "full", "--config", str(cfg), "--out", str(tmp_path / "o")])
    if refused:
        assert code == 2
        assert refused in assert_one_line_error(capsys)
        assert not (tmp_path / "o").exists()
    else:
        assert code == 0
        assert len(load_samples(tmp_path / "o" / "samples.csv")) > 0


@pytest.mark.parametrize("radar, field", [("n_rx: 1", "radar.n_rx"),
                                          ("n_chirps: 2", "radar.n_chirps")])
def test_detect_refuses_a_profile_without_angle_or_doppler(tmp_path, capsys, radar, field):
    # the same refusal as full mode, before any cube is read; fast mode
    # never renders a frame, so it still runs
    cube_dir = tmp_path / "cubes"
    cube_dir.mkdir()
    save_cube(synthesize_frame([moving_obj(0, 30.0, 0.0, 5.0)], RadarConfig(), seed=0),
              cube_dir / "frame000.rcub")
    cfg = tmp_path / "radar.yaml"
    cfg.write_text(f"scenario:\n  sequences: 2\n  samples_per_sequence: [3, 3]\n"
                   f"radar:\n  {radar}\n")
    assert main(["detect", str(cube_dir), "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert field in assert_one_line_error(capsys)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "fast")]) == 0


def test_failed_simulate_leaves_the_output_directory_unchanged(tmp_path, capsys, monkeypatch):
    out = tmp_path / "data"
    assert main(["simulate", "--seed", "3", "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    monkeypatch.setenv("ISAC_IDENT_THREADS", "two")
    assert main(["simulate", "--mode", "full", "--out", str(out)]) == 2
    assert_one_line_error(capsys)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_simulate_full_manifest_records_kept_and_dropped_frames(tmp_path):
    cfg = tmp_path / "full.yaml"
    cfg.write_text(SMALL_FULL_YAML)
    out = tmp_path / "full"
    assert main(["simulate", "--mode", "full", "--config", str(cfg), "--out", str(out)]) == 0
    stats = json.loads((out / "manifest.json").read_text())["stats"]
    assert set(stats) == {"frames", "kept", "dropped"}
    assert set(stats["dropped"]) == {"no_candidates", "user_not_matched"}
    assert stats["kept"] == len(load_samples(out / "samples.csv"))
    assert stats["frames"] == stats["kept"] + sum(stats["dropped"].values())


# ---------------------------------------------------------------- detect

def moving_obj(oid, d, theta_deg, v_closing):
    x = d * math.sin(math.radians(theta_deg))
    y = d * math.cos(math.radians(theta_deg))
    return SceneObject(id=oid, position=(x, y),
                       velocity=(-v_closing * x / d, -v_closing * y / d))


def test_detect_over_cube_dir(tmp_path):
    cube_dir = tmp_path / "cubes"
    cube_dir.mkdir()
    cfg = RadarConfig()
    scene = [moving_obj(0, 30.0, -15.0, 5.0), moving_obj(1, 70.0, 20.0, -9.0),
             moving_obj(2, 110.0, 5.0, 14.0)]
    save_cube(synthesize_frame(scene, cfg, seed=0), cube_dir / "frame000.rcub")
    # noise-free cubes call for the tighter noise-free detection profile
    det_cfg = tmp_path / "detect.yaml"
    det_cfg.write_text(
        "detect:\n  cfar_pfa: 1.0e-03\n  dbscan_min_pts: 2\n  cfar_floor_frac: 0.02\n")
    out = tmp_path / "det"
    assert main(["detect", str(cube_dir), "--config", str(det_cfg),
                 "--out", str(out)]) == 0
    lines = (out / "candidates.csv").read_text().strip().splitlines()
    assert lines[0] == "sample_id,k,range_m,angle_deg,vel_mps,power,n_points"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 3
    assert all(r[0] == "frame000" for r in rows)
    ranges = sorted(float(r[2]) for r in rows)
    assert np.allclose(ranges, [30.0, 70.0, 110.0], atol=1.0)


def test_detect_empty_dir_exits_3(tmp_path):
    cube_dir = tmp_path / "cubes"
    cube_dir.mkdir()
    assert main(["detect", str(cube_dir), "--out", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize("command", ["detect", "simulate-full"])
def test_cfar_window_wider_than_range_axis_exits_2(tmp_path, capsys, command):
    cfg = tmp_path / "wide.yaml"
    cfg.write_text("scenario:\n  sequences: 1\n  samples_per_sequence: [1, 1]\n"
                   "detect:\n  cfar_train: 200\n  cfar_guard: 100\n")
    if command == "detect":
        cube_dir = tmp_path / "cubes"
        cube_dir.mkdir()
        save_cube(synthesize_frame([moving_obj(0, 30.0, 0.0, 5.0)], RadarConfig(), seed=0),
                  cube_dir / "frame000.rcub")
        argv = ["detect", str(cube_dir)]
    else:
        argv = ["simulate", "--mode", "full"]
    assert main([*argv, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "CFAR window of 601 cells" in assert_one_line_error(capsys)


@pytest.mark.parametrize("command", ["detect", "simulate-full"])
def test_angle_fft_shorter_than_antenna_count_exits_2(tmp_path, capsys, command):
    cfg = tmp_path / "short.yaml"
    cfg.write_text("scenario:\n  sequences: 1\n  samples_per_sequence: [1, 1]\n"
                   "detect:\n  angle_fft_size: 2\n")
    if command == "detect":
        cube_dir = tmp_path / "cubes"
        cube_dir.mkdir()
        save_cube(synthesize_frame([moving_obj(0, 30.0, 30.0, 5.0)], RadarConfig(), seed=0),
                  cube_dir / "frame000.rcub")
        argv = ["detect", str(cube_dir)]
    else:
        argv = ["simulate", "--mode", "full"]
    assert main([*argv, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "angle FFT of 2 points" in assert_one_line_error(capsys)


@pytest.mark.parametrize("command, setting", [
    ("detect", "detect:\n  angle_fft_size: 1125899906842624\n"),   # 2^50-point angle FFT
    ("simulate-full", "radar:\n  n_chirps: 1099511627776\n"),        # a 2^53-byte frame block
])
def test_a_profile_too_large_to_allocate_exits_2(tmp_path, capsys, command, setting):
    # each first large array is bigger than a 2^47-byte address space, so
    # the allocation fails at once on any host
    cfg = tmp_path / "huge.yaml"
    cfg.write_text("scenario:\n  sequences: 1\n  samples_per_sequence: [1, 1]\n" + setting)
    if command == "detect":
        cube_dir = tmp_path / "cubes"
        cube_dir.mkdir()
        save_cube(synthesize_frame([moving_obj(0, 30.0, 0.0, 5.0)], RadarConfig(), seed=0),
                  cube_dir / "frame000.rcub")
        argv = ["detect", str(cube_dir)]
    else:
        argv = ["simulate", "--mode", "full"]
    assert main([*argv, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = assert_one_line_error(capsys)
    assert "do not fit in memory" in err and "Unable to allocate" in err
    assert not (tmp_path / "o").exists()


def test_detect_corrupt_header_exits_3(tmp_path, capsys):
    cube_dir = tmp_path / "cubes"
    cube_dir.mkdir()
    (cube_dir / "bad.rcub").write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNK")
    assert main(["detect", str(cube_dir), "--out", str(tmp_path / "o")]) == 3
    assert "bad.rcub" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_detect_non_finite_cube_exits_3(tmp_path, capsys, bad):
    cube_dir = tmp_path / "cubes"
    cube_dir.mkdir()
    cube = synthesize_frame([moving_obj(0, 30.0, 0.0, 5.0)], RadarConfig(), seed=0)
    cube.data[1, 2, 3] = complex(bad, 0.0)
    save_cube(cube, cube_dir / "frame000.rcub")
    assert main(["detect", str(cube_dir), "--out", str(tmp_path / "o")]) == 3
    assert "frame000.rcub" in assert_one_line_error(capsys)


# ---------------------------------------------------------------- train/eval

def test_train_offset_solver(dataset_dir, tmp_path):
    out = tmp_path / "fit"
    assert main(["train", str(dataset_dir), "--solver", "offset",
                 "--out", str(out)]) == 0
    acc = read_accuracy(out / "accuracy.csv")
    assert set(acc) == {"offset"}
    assert 0.0 <= acc["offset"] <= 1.0
    params = json.loads((out / "params.json").read_text())
    assert params["solver"] == "offset"
    assert np.isfinite(params["psi0"])


@pytest.mark.parametrize("solver", ["offset", "linreg-angle", "linreg-3d", "lookup"])
def test_train_params_reproduce_predictions(dataset_dir, tmp_path, solver):
    out = tmp_path / "fit"
    assert main(["train", str(dataset_dir), "--solver", solver, "--out", str(out)]) == 0
    params = json.loads((out / "params.json").read_text())
    assert params["solver"] == solver
    comm = config_from_dict(json.loads((dataset_dir / "manifest.json").read_text())["config"]).comm
    angles = dft_codebook(comm.n_antennas, comm.n_beams, comm.element_spacing).pointing_angles
    rows = (out / "predictions.csv").read_text().strip().splitlines()[1:]
    test = load_samples(dataset_dir / "test.csv")
    assert len(rows) == len(test)
    for s, row in zip(test, rows):
        phi = float(angles[s.b_star])
        dists = []
        for c in s.candidates:
            if solver == "linreg-3d":
                state = (c.range_m, c.angle_deg, c.vel_mps)
                dists.append(sum(((a + b * phi - v) / sigma) ** 2
                                 for (a, b, sigma), v in zip(params["fits"], state)))
                continue
            if solver == "offset":
                target = phi + params["psi0"]
            elif solver == "linreg-angle":
                target = params["intercept"] + params["slope"] * phi
            else:
                target = params["table"][s.b_star]
            dists.append(abs(c.angle_deg - target))
        assert int(row.split(",")[2]) == dists.index(min(dists))


def test_train_unknown_solver_exits_2(dataset_dir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["train", str(dataset_dir), "--solver", "magic",
              "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


def test_train_dnn_writes_checkpoint_and_is_deterministic(dataset_dir, tmp_path):
    out1, out2 = tmp_path / "m1", tmp_path / "m2"
    assert main(["train", str(dataset_dir), "--solver", "dnn", "--out", str(out1)]) == 0
    assert main(["train", str(dataset_dir), "--solver", "dnn", "--out", str(out2)]) == 0
    assert (out1 / "model.ckpt").read_bytes() == (out2 / "model.ckpt").read_bytes()
    assert (out1 / "accuracy.csv").read_bytes() == (out2 / "accuracy.csv").read_bytes()
    assert (out1 / "predictions.csv").read_bytes() == (out2 / "predictions.csv").read_bytes()
    sidecar = json.loads((out1 / "model.ckpt.json").read_text())
    assert sidecar["hyperparameters"]["epochs"] == 8
    losses = [json.loads((out / "manifest.json").read_text())["stats"]["dnn_epoch_losses"]
              for out in (out1, out2)]
    assert len(losses[0]) == 8 and all(math.isfinite(x) for x in losses[0])
    assert losses[0] == losses[1]


def test_eval_all_solvers_writes_five_rows(dataset_dir, tmp_path):
    out = tmp_path / "eval"
    assert main(["eval", str(dataset_dir), "--out", str(out)]) == 0
    acc = read_accuracy(out / "accuracy.csv")
    assert list(acc) == ["offset", "linreg-angle", "linreg-3d", "lookup", "dnn"]
    preds = (out / "predictions.csv").read_text().strip().splitlines()
    test = load_samples(dataset_dir / "test.csv")
    assert len(preds) == len(test) + 1
    assert preds[0] == "sample_id,label,offset,linreg-angle,linreg-3d,lookup,dnn"
    stats = json.loads((out / "manifest.json").read_text())["stats"]
    assert len(stats["dnn_epoch_losses"]) == 8


def test_eval_predicts_each_test_sample_once(dataset_dir, tmp_path, monkeypatch):
    expanded = []

    def counted_expand(samples, original=solvers.expand_to_rows):
        expanded.append([s.sample_id for s in samples])
        return original(samples)
    monkeypatch.setattr(solvers, "expand_to_rows", counted_expand)
    rows = collections.Counter()
    for cls in (TableSolver, DnnSolver):
        def counted(self, feats, beams, original=cls.score_rows):
            rows[self.name] += len(feats)
            return original(self, feats, beams)
        monkeypatch.setattr(cls, "score_rows", counted)
        monkeypatch.setattr(cls, "predict", None)
    assert main(["eval", str(dataset_dir), "--out", str(tmp_path / "eval")]) == 0
    test = load_samples(dataset_dir / "test.csv")
    assert rows == {name: sum(len(s.candidates) for s in test) for name in SOLVER_NAMES}
    assert expanded.count([s.sample_id for s in test]) == 1  # one expansion for all five


@pytest.mark.parametrize("argv", [["eval"], ["train", "--solver", "dnn"],
                                  ["train", "--solver", "lookup"]], ids=["eval", "train-dnn", "train-lookup"])
def test_accuracy_by_candidates_adds_up_to_the_accuracy_table(dataset_dir, tmp_path, argv):
    out = tmp_path / "run"
    assert main([argv[0], str(dataset_dir), *argv[1:], "--out", str(out)]) == 0
    test = load_samples(dataset_dir / "test.csv")
    by_k = json.loads((out / "manifest.json").read_text())["stats"]["accuracy_by_candidates"]
    sizes = collections.Counter(len(s.candidates) for s in test)
    assert {row["candidates"]: row["samples"] for row in by_k} == sizes
    for name, acc in read_accuracy(out / "accuracy.csv").items():
        hits = [row["hits"][name] for row in by_k]
        assert all(0 <= h <= row["samples"] for h, row in zip(hits, by_k))
        assert sum(hits) == round(acc * len(test))


def test_manifest_records_the_hash_of_the_package_sources(dataset_dir, tmp_path, monkeypatch):
    package = Path(isac_ident.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(package.glob("*.py")):  # the package is flat
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    versions = json.loads((dataset_dir / "manifest.json").read_text())["versions"]
    assert versions["source_sha256"] == digest.hexdigest()
    # a copy of the package hashes alike, other files aside, until a source changes
    copy = tmp_path / "isac_ident"
    shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
    (copy / "notes.txt").write_text("not a source\n")
    monkeypatch.setattr(isac_ident, "__file__", str(copy / "__init__.py"))
    rehash = cli._source_sha256.__wrapped__  # the process's hash is computed once
    assert rehash() == digest.hexdigest()
    (copy / "mlp.py").write_bytes((package / "mlp.py").read_bytes() + b"\n")
    assert rehash() != digest.hexdigest()


def test_train_dnn_checkpoint_independent_of_blas_thread_variables(tmp_path):
    # a batch of 512 makes the backward matmuls large enough for OpenBLAS to
    # split them over threads, which it does by default on a multi-core host
    data = tmp_path / "data"
    assert main(["simulate", "--seed", "0", "--out", str(data)]) == 0
    cfg = tmp_path / "big_batch.yaml"
    cfg.write_text("training:\n  epochs: 3\n  batch: 512\n")
    blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    src = str(Path(isac_ident.__file__).parents[1])
    base = {k: v for k, v in os.environ.items() if k not in blas_vars}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))
    # a caller that loads numpy before isac_ident gets the BLAS default
    numpy_first = "import sys, numpy; from isac_ident.cli import main; sys.exit(main())"
    runs = {"unset": (["-m", "isac_ident"], base),
            "one": (["-m", "isac_ident"], {**base, **dict.fromkeys(blas_vars, "1")}),
            "numpy_first": (["-c", numpy_first], base)}
    for name, (entry, env) in runs.items():
        subprocess.run([sys.executable, *entry, "train", str(data), "--solver", "dnn",
                        "--config", str(cfg), "--seed", "0", "--out", str(tmp_path / name)],
                       env=env, check=True, capture_output=True, timeout=300)
    ckpts = [(tmp_path / name / "model.ckpt").read_bytes() for name in ("unset", "one")]
    assert ckpts[0] == ckpts[1]
    versions = {name: json.loads((tmp_path / name / "manifest.json").read_text())["versions"]
                for name in runs}
    assert versions["unset"]["blas_threads"] == dict.fromkeys(blas_vars, "1")
    assert versions["numpy_first"]["blas_threads"] == dict.fromkeys(blas_vars)
    assert versions["unset"]["blas"]


# scenes of 4 to 6 objects: six of the 12 frames hold 6, the most a default scene has
SIX_OBJECT_FULL_YAML = SMALL_FULL_YAML.replace("seed: 4", "seed: 7").replace(
    "candidates: [1, 3]", "candidates: [4, 6]")


def test_simulate_full_identical_for_any_blas_thread_count(tmp_path):
    # each frame's echo power is one BLAS matrix product over pairs of
    # objects; BLAS reads the variable when numpy loads, so each count needs
    # its own process
    cfg = tmp_path / "full.yaml"
    cfg.write_text(SIX_OBJECT_FULL_YAML)
    src = str(Path(isac_ident.__file__).parents[1])
    base = {k: v for k, v in os.environ.items() if k not in isac_ident.BLAS_THREADS}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))
    for threads in ("1", "2"):
        subprocess.run([sys.executable, "-m", "isac_ident", "simulate", "--mode", "full",
                        "--config", str(cfg), "--out", str(tmp_path / threads)],
                       env={**base, "OPENBLAS_NUM_THREADS": threads}, check=True,
                       capture_output=True, timeout=300)
        manifest = json.loads((tmp_path / threads / "manifest.json").read_text())
        assert manifest["versions"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == threads
    assert len(load_samples(tmp_path / "1" / "samples.csv")) > 0
    files = [(tmp_path / threads / "samples.csv").read_bytes() for threads in ("1", "2")]
    assert files[0] == files[1]


# (command line, config file, environment) of settings that must be refused
# before they crash the run or let it finish with wrong or unusable results
BAD_SETTINGS = {
    "batch-zero": (["train", "--solver", "dnn"], "training: {batch: 0}\n", {}),
    "batch-fraction": (["train", "--solver", "dnn"], "training: {batch: 2.5}\n", {}),
    "lr-nan": (["train", "--solver", "dnn"], "training: {lr: .nan}\n", {}),
    "epochs-zero": (["train", "--solver", "dnn"], "training: {epochs: 0}\n", {}),
    "sequences-fraction": (["simulate"], "scenario: {sequences: 2.5}\n", {}),
    "frames-fraction": (["simulate"], "scenario: {samples_per_sequence: [2.5, 3]}\n", {}),
    "beams-fraction": (["simulate"], "comm: {beams: 16.5}\n", {}),
    "seed-flag-negative": (["simulate", "--seed", "-3"], "", {}),
    "seed-key-negative": (["simulate"], "seed: -2\n", {}),
    "threads-not-integer": (["simulate", "--mode", "full"], SMALL_FULL_YAML,
                            {"ISAC_IDENT_THREADS": "two"}),
    "comm-list": (["simulate"], "comm: [1, 2]\n", {}),
    "radar-number": (["simulate"], "radar: 5\n", {}),
    "scenario-number": (["simulate"], "scenario: 5\n", {}),
    "objects-section": (["simulate"], "objects: []\n", {}),
    "training-list": (["simulate"], "training: [1]\n", {}),
    "detect-string": (["simulate"], "detect: abc\n", {}),
    "noise-bool": (["simulate"], "comm: {noise: true}\n", {}),
    "key-int": (["simulate"], "1: 2\n", {}),
    "key-null": (["simulate"], "null: 1\n", {}),
}


@pytest.mark.parametrize("argv,config,env", BAD_SETTINGS.values(), ids=BAD_SETTINGS.keys())
def test_bad_setting_exits_2(request, tmp_path, capsys, monkeypatch, argv, config, env):
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(config)
    if argv[0] == "train":
        argv = ["train", str(request.getfixturevalue("dataset_dir")), *argv[1:]]
    out = tmp_path / "o"
    assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 2
    assert_one_line_error(capsys)
    assert not (out / "model.ckpt").exists()


@pytest.mark.parametrize("argv", [["train", "--solver", "dnn"], ["eval"]],
                         ids=["train-dnn", "eval"])
def test_empty_test_split_exits_3_before_fit(dataset_dir, tmp_path, capsys, argv):
    (dataset_dir / "test.csv").write_text(SAMPLE_HEADER + "\n")
    out = tmp_path / "o"
    assert main([argv[0], str(dataset_dir), *argv[1:], "--out", str(out)]) == 3
    assert "test set must be non-empty" in assert_one_line_error(capsys)
    assert not (out / "model.ckpt").exists()
    assert not out.exists()  # rejected before the manifest is written
    assert main(["report", str(dataset_dir), "--out", str(tmp_path / "rep")]) == 0


def single_beam_dataset(path, beam=5, n=120):
    """Train and test sets served by one beam: no line can be fitted to them."""
    path.mkdir()
    samples = [Sample(sample_id=t, sequence_id=t % 2,
                      candidates=(Candidate(range_m=40.0, angle_deg=-50.0 + t % 3, vel_mps=1.0),),
                      b_star=beam, label=0) for t in range(n)]
    save_samples(samples, path / "train.csv")
    save_samples([dataclasses.replace(s, sequence_id=2) for s in samples[:10]], path / "test.csv")
    return path


@pytest.mark.parametrize("argv", [["train", "--solver", "linreg-angle"],
                                  ["train", "--solver", "linreg-3d"],
                                  ["eval"], ["report"]],
                         ids=["train-linreg-angle", "train-linreg-3d", "eval", "report"])
def test_degenerate_design_exits_3(tmp_path, capsys, argv):
    data = single_beam_dataset(tmp_path / "data")
    out = tmp_path / "o"
    assert main([argv[0], str(data), *argv[1:], "--out", str(out)]) == 3
    assert_one_line_error(capsys)
    assert not out.exists()  # the fit fails before any output is written


def dataset_with_bad_test_sample(path, label_k=None, **bad):
    """A fittable labeled dataset whose last test sample is changed by `bad`.

    `label_k` overwrites that sample's label column in the file, for values a
    Sample refuses to hold.
    """
    path.mkdir()
    samples = [Sample(sample_id=t, sequence_id=t % 2,
                      candidates=(Candidate(range_m=40.0, angle_deg=-40.0 + 10.0 * (t % 4),
                                            vel_mps=1.0),
                                  Candidate(range_m=80.0, angle_deg=30.0, vel_mps=-2.0)),
                      b_star=10 + 10 * (t % 4), label=0) for t in range(12)]
    save_samples(samples, path / "train.csv")
    test = [dataclasses.replace(s, sequence_id=2) for s in samples[:4]]
    last = format_sample(dataclasses.replace(test[3], **bad))
    if label_k is not None:
        last = "".join(row.rsplit(",", 1)[0] + f",{label_k}\n" for row in last.splitlines())
    write_sample_file([*map(format_sample, test[:3]), last], path / "test.csv")
    return path


@pytest.mark.parametrize("argv", [["eval", "--solver", "offset"], ["eval", "--solver", "dnn"],
                                  ["report"]],
                         ids=["eval-offset", "eval-dnn", "report"])
@pytest.mark.parametrize("bad, fragment",
                         [({"label_k": -1}, "test.csv:8: label must index into the candidate list"),
                          ({"b_star": 99}, "test.csv: sample 3 ")],
                         ids=["unlabeled", "beam-outside-codebook"])
def test_bad_test_sample_exits_3(tmp_path, capsys, argv, bad, fragment):
    data = dataset_with_bad_test_sample(tmp_path / "data", **bad)
    assert main([argv[0], str(data), *argv[1:], "--out", str(tmp_path / "o")]) == 3
    assert fragment in assert_one_line_error(capsys)


def test_absurd_but_finite_state_scores_silently(dataset_dir, tmp_path, capsys):
    # a range of 1e300 squares past the largest double: the distance is inf,
    # which is the right answer, and the run warns about nothing
    path = dataset_dir / "test.csv"
    header, first, *rest = path.read_text().splitlines()
    fields = first.split(",")
    fields[4] = "1e300"
    path.write_text("\n".join([header, ",".join(fields), *rest]) + "\n")
    out = tmp_path / "eval"
    capsys.readouterr()
    assert main(["eval", str(dataset_dir), "--solver", "linreg-3d", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    comm = config_from_dict(json.loads((dataset_dir / "manifest.json").read_text())["config"]).comm
    angles = dft_codebook(comm.n_antennas, comm.n_beams, comm.element_spacing).pointing_angles
    solver = solvers.make_solver("linreg-3d", angles)
    solver.fit(load_samples(dataset_dir / "train.csv"))
    test = load_samples(path)
    assert test[0].candidates[0].range_m == 1e300
    rows = (out / "predictions.csv").read_text().strip().splitlines()[1:]
    assert [int(row.split(",")[2]) for row in rows] == [
        solver.predict(s.candidates, s.b_star) for s in test]


# test.csv bodies after the header that the loader or the split check must refuse, with
# a fragment of the one-line error; sequence 9 is in no train.csv of `dataset_dir`
BAD_TEST_FILES = {
    "sequence-disagrees": (["0,9,2,0,50.0,10.0,3.0,2.0,12,0", "0,8,2,1,60.0,12.0,3.0,1.0,12,0"],
                           "test.csv:3: sample 0 has sequence_id 8"),
    "k-t-disagrees": (["0,9,2,0,50.0,10.0,3.0,2.0,12,0", "0,9,3,1,60.0,12.0,3.0,1.0,12,0"],
                      "test.csv:3: sample 0 has K_t 3"),
    "beam-disagrees": (["0,9,2,0,50.0,10.0,3.0,2.0,12,0", "0,9,2,1,60.0,12.0,3.0,1.0,13,0"],
                       "test.csv:3: sample 0 has b_star 13"),
    "label-disagrees": (["0,9,2,0,50.0,10.0,3.0,2.0,12,0", "0,9,2,1,60.0,12.0,3.0,1.0,12,1"],
                        "test.csv:3: sample 0 has label_k 1"),
    "repeated-sample-id": (["0,9,1,0,50.0,10.0,3.0,2.0,12,0", "0,9,1,0,60.0,12.0,3.0,1.0,12,0"],
                           "test.csv:3: sample_id 0 is repeated"),
    "label-minus-one": (["0,9,2,0,50.0,10.0,3.0,2.0,12,-1", "0,9,2,1,60.0,12.0,3.0,1.0,12,-1"],
                        "test.csv:2: label must index into the candidate list"),
    "sequence-in-both-splits": (["0,0,1,0,50.0,10.0,3.0,2.0,12,0"],
                                "sequence 0 is in both train.csv and test.csv"),
}


@pytest.mark.parametrize("case", BAD_TEST_FILES, ids=list(BAD_TEST_FILES))
def test_malformed_test_file_exits_3(dataset_dir, tmp_path, capsys, case):
    body, fragment = BAD_TEST_FILES[case]
    (dataset_dir / "test.csv").write_text("\n".join([SAMPLE_HEADER, *body]) + "\n")
    out = tmp_path / "o"
    assert main(["eval", str(dataset_dir), "--out", str(out)]) == 3
    assert fragment in assert_one_line_error(capsys)
    assert not out.exists()


def test_non_utf8_test_file_exits_3(dataset_dir, tmp_path, capsys):
    path = dataset_dir / "test.csv"
    path.write_bytes(path.read_bytes() + b"\xff\xfe")
    assert main(["eval", str(dataset_dir), "--out", str(tmp_path / "o")]) == 3
    assert f"error: {path}: not UTF-8 text" in assert_one_line_error(capsys)


def test_non_utf8_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_bytes(b"seed: 3\n\xff\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"error: {cfg}: not UTF-8 text" in assert_one_line_error(capsys)


@pytest.mark.parametrize("manifest", ["{oops", "[]", "{}", '{"config": 5}',
                                      '{"config": {"comm": {"beams": "x"}}}',
                                      '{"config": {"objects": []}}'])
def test_malformed_dataset_manifest_exits_3(dataset_dir, tmp_path, capsys, manifest):
    (dataset_dir / "manifest.json").write_text(manifest)
    assert main(["train", str(dataset_dir), "--solver", "offset",
                 "--out", str(tmp_path / "o")]) == 3
    assert "manifest.json" in assert_one_line_error(capsys)


@pytest.mark.parametrize("command", ["simulate", "eval"])
def test_out_at_a_regular_file_exits_3(dataset_dir, tmp_path, capsys, command):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    argv = ["simulate"] if command == "simulate" else ["eval", str(dataset_dir), "--solver", "offset"]
    assert main([*argv, "--out", str(out)]) == 3
    assert_one_line_error(capsys)
    assert out.read_text() == "not a directory\n"


# ---------------------------------------------------------------- parser

@pytest.mark.parametrize("command", ["simulate", "detect", "train", "eval", "report"])
def test_help_lists_the_options_of_each_command(command):
    src = str(Path(isac_ident.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-m", "isac_ident", command, "--help"], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    wanted = {"--config", "--seed", "--out"}
    wanted |= {"simulate": {"--mode"}, "train": {"--solver"}, "eval": {"--solver"}}.get(command, set())
    assert all(option in run.stdout for option in wanted), run.stdout


# ---------------------------------------------------------------- report

def test_report_columns_and_row_count(dataset_dir, tmp_path):
    out = tmp_path / "rep"
    assert main(["report", str(dataset_dir), "--out", str(out)]) == 0
    lines = (out / "report.csv").read_text().strip().splitlines()
    assert lines[0] == "beam_angle_deg,target_angle_deg,offset_deg,linreg_deg,lookup_deg"
    samples = load_samples(dataset_dir / "samples.csv")
    assert len(lines) - 1 == len(samples)
    # offset column is a constant shift of the beam column
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    shifts = rows[:, 2] - rows[:, 0]
    assert np.allclose(shifts, shifts[0])
    # lookup column is constant per beam angle
    by_beam = {}
    for beam, lut in zip(rows[:, 0], rows[:, 4]):
        by_beam.setdefault(beam, set()).add(round(lut, 9))
    assert all(len(v) == 1 for v in by_beam.values())


def test_report_on_clean_linear_data_matches_regression(tmp_path):
    cfg = tmp_path / "clean.yaml"
    cfg.write_text(
        "seed: 2\n"
        "scenario:\n  sequences: 3\n  samples_per_sequence: [15, 20]\n"
        "  candidates: [1, 2]\n  angle_noise_deg: 0.0\n  distortion_deg: 0.0\n"
    )
    data = tmp_path / "data"
    assert main(["simulate", "--config", str(cfg), "--out", str(data)]) == 0
    out = tmp_path / "rep"
    assert main(["report", str(data), "--out", str(out)]) == 0
    lines = (out / "report.csv").read_text().strip().splitlines()
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    # scatter differs from the fitted line only through beam quantization
    assert np.abs(rows[:, 1] - rows[:, 3]).max() < 2.0
