"""The benchmark's hooks into the package still resolve.

``perfbench/micro.py`` times public calls and ``perfbench/tracing.py``
wraps public callables; both report a callable they cannot find instead
of failing, so a rename would blank their metrics without a word. These
tests load the two files as they are and fail on such a rename.
"""

import importlib.util
from pathlib import Path

import pytest

from femtoq.config import ScenarioConfig
from femtoq.coordinator import Simulation

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_micro_variants_all_build():
    micro = load("micro")
    sim = Simulation(ScenarioConfig(m_max=15, max_iterations=100))
    variants, missing = micro.build_variants(sim)
    assert missing == []
    assert len(variants) == 6


TRACING = load("tracing")


@pytest.mark.parametrize(
    "target", [*TRACING.SPAN_TARGETS, TRACING.STEP_TARGET], ids=lambda target: target[0]
)
def test_traced_callable_resolves(target):
    _, module_name, path = target
    assert callable(TRACING._resolve(module_name, path)[2])
