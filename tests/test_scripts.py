import importlib.util
import math
from pathlib import Path

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
