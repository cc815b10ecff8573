import json
import math

import numpy as np
import pytest

from isac_ident.cli import main
from isac_ident.config import config_from_dict
from isac_ident.dataset import load_samples, save_samples
from isac_ident.radar_detect import Candidate
from isac_ident.radar_frontend import RadarConfig, synthesize_frame, save_cube
from isac_ident.scene import SceneObject, dft_codebook
from isac_ident.solvers import Sample

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
    main(["simulate", "--config", str(small_config), "--out", str(out1)])
    main(["simulate", "--config", str(small_config), "--seed", "99", "--out", str(out2)])
    assert (out1 / "samples.csv").read_bytes() != (out2 / "samples.csv").read_bytes()
    manifest = json.loads((out2 / "manifest.json").read_text())
    assert manifest["seed"] == 99


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


def test_detect_corrupt_header_exits_3(tmp_path, capsys):
    cube_dir = tmp_path / "cubes"
    cube_dir.mkdir()
    (cube_dir / "bad.rcub").write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNK")
    assert main(["detect", str(cube_dir), "--out", str(tmp_path / "o")]) == 3
    assert "bad.rcub" in capsys.readouterr().err


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


def test_eval_all_solvers_writes_five_rows(dataset_dir, tmp_path):
    out = tmp_path / "eval"
    assert main(["eval", str(dataset_dir), "--out", str(out)]) == 0
    acc = read_accuracy(out / "accuracy.csv")
    assert list(acc) == ["offset", "linreg-angle", "linreg-3d", "lookup", "dnn"]
    preds = (out / "predictions.csv").read_text().strip().splitlines()
    test = load_samples(dataset_dir / "test.csv")
    assert len(preds) == len(test) + 1
    assert preds[0] == "sample_id,label,offset,linreg-angle,linreg-3d,lookup,dnn"


def single_beam_dataset(path, beam=5, n=120):
    """Train and test sets served by one beam: no line can be fitted to them."""
    path.mkdir()
    samples = [Sample(sample_id=t, sequence_id=t % 2,
                      candidates=(Candidate(range_m=40.0, angle_deg=-50.0 + t % 3, vel_mps=1.0),),
                      b_star=beam, label=0) for t in range(n)]
    save_samples(samples, path / "train.csv")
    save_samples(samples[:10], path / "test.csv")
    return path


@pytest.mark.parametrize("argv", [["train", "--solver", "linreg-angle"],
                                  ["train", "--solver", "linreg-3d"],
                                  ["eval"], ["report"]],
                         ids=["train-linreg-angle", "train-linreg-3d", "eval", "report"])
def test_degenerate_design_exits_3(tmp_path, capsys, argv):
    data = single_beam_dataset(tmp_path / "data")
    assert main([argv[0], str(data), *argv[1:], "--out", str(tmp_path / "o")]) == 3
    assert_one_line_error(capsys)


@pytest.mark.parametrize("manifest", ["{oops", "[]", "{}"])
def test_malformed_dataset_manifest_exits_3(dataset_dir, tmp_path, capsys, manifest):
    (dataset_dir / "manifest.json").write_text(manifest)
    assert main(["train", str(dataset_dir), "--solver", "offset",
                 "--out", str(tmp_path / "o")]) == 3
    assert_one_line_error(capsys)


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
    main(["simulate", "--config", str(cfg), "--out", str(data)])
    out = tmp_path / "rep"
    main(["report", str(data), "--out", str(out)])
    lines = (out / "rep.csv" if (out / "rep.csv").exists() else out / "report.csv"
             ).read_text().strip().splitlines()
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    # scatter differs from the fitted line only through beam quantization
    assert np.abs(rows[:, 1] - rows[:, 3]).max() < 2.0
