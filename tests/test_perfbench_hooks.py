"""The benchmark's hooks into the package still resolve.

``perfbench/micro.py`` times public calls and ``perfbench/tracing.py``
wraps public callables; both report a callable they cannot find instead
of failing, so a rename would blank their metrics without a word.
``perfbench/workloads.py`` drives the package through its public API.
These tests load the files as they are and fail on such a rename or on a
changed signature.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from femtoq.config import ScenarioConfig
from femtoq.coordinator import Simulation

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_micro_variants_all_build():
    micro = load("micro")
    sim = Simulation(ScenarioConfig(m_max=15, max_iterations=100))
    variants, missing = micro.build_variants(sim)
    assert missing == []
    assert len(variants) == 6


def test_workload_operation_runs_on_a_tiny_scenario(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads.py imports metronome
    workloads = load("workloads")
    # oracle_m < m_max: the oracle runs on a layout pinned to the first admitted stations
    tiny = workloads.Workload("tiny", dict(m_max=4, seed_agents=2, n_power=5), oracle_m=3)
    result = workloads.run_operation(tiny, 1, tmp_path / "out", max_iterations=60)
    assert result["errors"] == []
    assert result["n_enumerated"] == 5**3
    assert 0.0 <= result["qos_sat_frac"] <= 1.0


TRACING = load("tracing")


@pytest.mark.parametrize(
    "target", [*TRACING.SPAN_TARGETS, TRACING.STEP_TARGET], ids=lambda target: target[0]
)
def test_traced_callable_resolves(target):
    _, module_name, path = target
    assert callable(TRACING._resolve(module_name, path)[2])
