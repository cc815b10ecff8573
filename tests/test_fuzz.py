"""Every input a CLI command reads, mutated: the command exits 0, 2 or 3, and a
failure prints exactly one `error:` line, never a traceback.

The seed config holds its single-digit sizes on its first line, and no
mutation inserts a digit, so a mutated config asks for no larger run than its
seed, except an empty one, which asks for the defaults.
"""

import contextlib
import io
import shutil
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from isac_ident.cli import main
from isac_ident.config import load_config
from isac_ident.radar_frontend import save_cube, synthesize_frame
from isac_ident.scene import SceneObject

SEED_YAML = """\
scenario: {sequences: 3, samples_per_sequence: [4, 6], candidates: [1, 3]}
seed: 3
radar: {n_chirps: 8, n_samples: 8}
detect: {cfar_train: 2, cfar_guard: 1, angle_fft_size: 8}
"""

# the mutated file -> the command that reads it (paths relative to the work dir)
TARGETS = {
    "data/test.csv": ["eval", "data", "--solver", "offset"],
    "data/manifest.json": ["eval", "data", "--solver", "offset"],
    "run.yaml": ["simulate", "--config", "run.yaml"],
    "cubes/frame.rcub": ["detect", "cubes", "--config", "run.yaml"],
}
FUZZ = settings(max_examples=40, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def seed_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "run.yaml").write_text(SEED_YAML)
    assert main(["simulate", "--config", str(root / "run.yaml"), "--out", str(root / "data")]) == 0
    (root / "cubes").mkdir()
    user = SceneObject(id=0, position=(20.0, 60.0), velocity=(0.0, -3.0), is_comm_user=True)
    radar = load_config(root / "run.yaml").radar
    save_cube(synthesize_frame([user], radar, seed=0), root / "cubes" / "frame.rcub")
    return root


@st.composite
def mutated(draw, data: bytes, text: bool):
    """Truncated, with up to four bytes replaced by non-digits, with `\\xff\\xfe`
    appended, or (text only) re-encoded as UTF-16."""
    kind = draw(st.sampled_from(["truncate", "replace", "append"] + ["utf-16"] * text))
    if kind == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if kind == "append":
        return data + b"\xff\xfe"
    if kind == "utf-16":
        return data.decode("utf-8").encode("utf-16")
    out = bytearray(data)
    # half the positions in the first 64 bytes, where the headers are
    position = st.integers(0, min(len(data), 64) - 1) | st.integers(0, len(data) - 1)
    for i in draw(st.lists(position, min_size=1, max_size=4)):
        out[i] = draw(st.integers(0, 255).filter(lambda b: not 0x30 <= b <= 0x39))
    return bytes(out)


def run_in_copy(seed_dir, argv, name=None, content=None):
    """Run `argv` on a copy of the seed files in which `name` holds `content`
    (an argument naming a file or directory of the copy becomes its path);
    assert the exit code and the error line, and return the exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "work"
        shutil.copytree(seed_dir, work)
        if name is not None:
            (work / name).write_bytes(content)
        args = [str(work / a) if (work / a).exists() else a for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*args, "--out", str(work / "out")])
    assert code in (0, 2, 3)
    if code:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, \
            err.getvalue()
    return code


@pytest.mark.parametrize("name", TARGETS)
@FUZZ
@given(data=st.data())
def test_mutated_input_ends_in_one_line_or_success(seed_dir, name, data):
    seed = (seed_dir / name).read_bytes()
    content = data.draw(mutated(seed, text=not name.endswith(".rcub")))
    event(f"exit {run_in_copy(seed_dir, TARGETS[name], name, content)}")


def test_unmutated_seed_files_succeed(seed_dir):
    for argv in TARGETS.values():
        assert run_in_copy(seed_dir, argv) == 0


SECTIONS = ["seed", "comm", "scenario", "radar", "detect", "training"]
KEYS = (st.sampled_from([*SECTIONS, "beams", "sequences", "candidates", "epochs", "n_chirps"])
        | st.integers(-1, 9) | st.none() | st.booleans())
VALUES = st.recursive(st.none() | st.booleans() | st.integers(0, 9) | st.just("x"),
                      lambda inner: st.lists(inner, max_size=2)
                      | st.dictionaries(KEYS, inner, max_size=2), max_leaves=4)


@FUZZ
@given(overrides=st.dictionaries(st.sampled_from(SECTIONS) | KEYS, VALUES, min_size=1,
                                 max_size=3))
def test_config_with_any_keys_ends_in_one_line_or_success(seed_dir, overrides):
    """The seed config with top-level keys (ints, null and booleans among them)
    added or replaced; a section given as a mapping is merged into the seed's."""
    raw = yaml.safe_load(SEED_YAML)
    for key, value in overrides.items():
        both_maps = isinstance(value, dict) and isinstance(raw.get(key), dict)
        raw[key] = {**raw[key], **value} if both_maps else value
    content = yaml.safe_dump(raw).encode("utf-8")
    event(f"exit {run_in_copy(seed_dir, TARGETS['run.yaml'], 'run.yaml', content)}")
