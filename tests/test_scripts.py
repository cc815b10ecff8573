import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest


def load_script(name):
    path = Path(__file__).parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("losses, want", [
    ([1.0] * 8, (0, 0, 1.0)),
    # 8 epochs: the last quarter is epochs 6 and 7 (from 0), so a rise into
    # epoch 5 is early and a rise into epoch 6 is late
    ([1.0, 1.0, 1.0, 1.0, 1.0, 4.0, 4.0, 4.0], (1, 0, 4.0)),
    ([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 4.0, 4.0], (1, 1, 4.0)),
    ([8.0, 1.0, 3.5, 0.5, 0.5, 0.5, 0.5, 1.6], (2, 1, 3.2)),
    ([1.0, 0.5, 2.0], (1, 0, 4.0)),  # under four epochs no epoch is late
    ([1.0, 0.0, 0.0], (0, 0, 1.0)),
    ([1.0, 0.0, 0.5], (1, 0, math.inf)),  # any rise from zero is more than 3x
])
def test_loss_spikes_counts_rises_and_the_late_ones(losses, want):
    assert load_script("run_benchmark").loss_spikes(losses) == want


class FixedScores:
    """A solver whose `score_rows` returns the same scores for any rows."""

    def __init__(self, scores):
        self.scores = scores

    def score_rows(self, feats, beams):
        assert len(feats) == len(beams) == len(self.scores)
        return np.array(self.scores)


def test_smallest_margin_skips_samples_of_one_candidate():
    from isac_ident.radar_detect import Candidate
    from isac_ident.solvers import Sample

    def sample(k, label):
        cands = tuple(Candidate(range_m=10.0 + i, angle_deg=0.0, vel_mps=0.0, power=1.0)
                      for i in range(k))
        return Sample(sample_id=0, sequence_id=0, candidates=cands, b_star=0, label=label)

    smallest_margin = load_script("run_benchmark").smallest_margin
    # margins 3 - 2.5 = 0.5 and 4 - 5 = -1; the one-candidate sample is left out
    test = [sample(3, 1), sample(1, 0), sample(2, 0)]
    assert smallest_margin(FixedScores([1.0, 3.0, 2.5, 4.0, 5.0]), test[::2]) == -1.0
    assert smallest_margin(FixedScores([1.0, 3.0, 2.5]), test[:2]) == 0.5
    assert smallest_margin(FixedScores([]), [test[1]]) == math.inf


@pytest.mark.parametrize("moved, listed, fails", [
    ({"fast/samples.csv"}, set(), True),      # moved, and not listed
    (set(), {"train/model.ckpt"}, True),      # listed, and did not move
    (set(), set(), False),
    ({"train/model.ckpt"}, {"train/model.ckpt"}, False),
])
def test_compare_outputs_fails_on_unlisted_moves_and_stale_entries(moved, listed, fails):
    assert bool(load_script("compare_outputs").verdict(moved, listed)) == fails


def run_detect_demo(tmp_path, config):
    """detect_demo.py under `-W error::RuntimeWarning` with `config` as its --config."""
    cfg = tmp_path / "demo.yaml"
    cfg.write_text(config)
    root = Path(__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           str(root / "scripts" / "detect_demo.py"), "--config", str(cfg),
                           "--out", str(tmp_path / "cubes")],
                          env=env, capture_output=True, text=True, timeout=120)


def test_detect_demo_refuses_a_cube_float32_cannot_hold(tmp_path):
    # noise of power 1e80 per sample puts most cube values beyond float32
    run = run_detect_demo(tmp_path, "radar:\n  noise_floor: 1.0e+80\n")
    assert run.returncode == 2, run.stderr
    assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1, run.stderr
    assert "not finite in float32" in run.stderr
    assert not (tmp_path / "cubes" / "frame000.rcub").exists()


@pytest.mark.parametrize("radar, fragment", [
    ("{n_rx: 0}", "invalid radar section"),         # RadarConfig refuses it
    ("{n_rx: 1}", "radar.n_rx must be at least 2"),  # detect refuses it
    ("{n_chirps: 2}", "radar.n_chirps must be at least 3"),
], ids=["n_rx-0", "n_rx-1", "n_chirps-2"])
def test_detect_demo_refuses_a_profile_as_detect_does(tmp_path, radar, fragment):
    run = run_detect_demo(tmp_path, f"radar: {radar}\n")
    assert run.returncode == 2, run.stderr
    assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1, run.stderr
    assert fragment in run.stderr
    assert not list(tmp_path.glob("cubes/*.rcub"))
