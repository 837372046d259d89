"""The package root: ``__version__`` and the modules, and no other name."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import femtoq

SRC = Path(femtoq.__file__).parents[1]
MODULES = ("channel", "config", "coordinator", "oracle", "reward", "topology")

# run in a fresh interpreter, so no other test's imports show
_PROBE = """
import json, sys
import femtoq
print(json.dumps({
    "version": femtoq.__version__,
    "public": sorted(n for n in vars(femtoq) if not n.startswith("_")),
    "loaded": sorted(m for m in sys.modules if m.split(".")[0] == "femtoq"),
}))
"""


@pytest.fixture(scope="module")
def fresh_import():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(done.stdout)


def test_root_exposes_the_version_and_the_modules_only(fresh_import):
    assert isinstance(fresh_import["version"], str)
    assert fresh_import["public"] == sorted(MODULES)


def test_import_loads_the_modules_but_not_the_cli(fresh_import):
    # the benchmark's untimed ``import femtoq`` must leave its timed set-up
    # nothing to import, and its tracer patches only modules already loaded
    assert fresh_import["loaded"] == sorted(["femtoq", *(f"femtoq.{m}" for m in MODULES)])


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    with open(SRC.parent / "pyproject.toml", "rb") as fh:
        assert femtoq.__version__ == tomllib.load(fh)["project"]["version"]
