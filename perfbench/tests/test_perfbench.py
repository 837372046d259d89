"""Tests of the benchmark itself: python3 -m pytest perfbench/tests

The smoke runs use a tiny per-step budget so each workload finishes in
seconds; they check the output contract, not the numbers.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import metronome  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = 200
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            str(BENCH / "run.py"),
            "--workload", workload,
            "--seed", "3",
            "--seconds", "0.5",
            "--trace", str(trace),
            "--max-iterations", str(TINY),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def femtoq():
    package = child.import_femtoq()
    import femtoq.cli  # noqa: F401 - not imported by the package itself

    return package


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }


def test_declared_workloads_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def tiny_operation(tmp_path, name="sweep_coop"):
    workload = workloads.WORKLOADS[name]
    return workloads.run_operation(workload, 3, tmp_path / "out", TINY)


def test_operation_writes_what_run_experiment_writes(femtoq, tmp_path):
    result = tiny_operation(tmp_path)
    assert result["errors"] == []
    config = workloads.make_config(
        workloads.WORKLOADS["sweep_coop"], 3, tmp_path / "cli", TINY
    )
    femtoq.cli.run_experiment(config, quiet=True)
    for name, digest in result["digests"].items():
        if name != "oracle_result.csv":
            data = (tmp_path / "cli" / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, name


def test_tampered_artifact_counts_as_failed_run(femtoq, tmp_path, monkeypatch):
    original = femtoq.cli.write_run_artifacts

    def tampering(config, trace, out_dir):
        manifest = original(config, trace, out_dir)
        path = Path(out_dir) / "summary.csv"
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[1] = "nan"
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        return manifest

    good = tiny_operation(tmp_path / "good")
    monkeypatch.setattr(femtoq.cli, "write_run_artifacts", tampering)
    bad = tiny_operation(tmp_path / "bad")
    assert good["errors"] == []
    assert any("non-finite" in e for e in bad["errors"])

    # a timed child adds the set-up loop's figure to the operation's
    reps = [dict(good, mode="timed", setup_s=1e-3), dict(bad, mode="timed", setup_s=1e-3)]
    run.judge(reps, "sweep_coop", 3, TINY)
    metrics, _ = run.summarize({"micro": None, "reps": reps}, trace=False)
    assert metrics["error_rate"] == 0.5


def test_metronome_scales_by_the_reference_kernel_and_leaves_bursts_out(monkeypatch):
    # a burst takes 2 ms against a nominal 1 ms: the machine runs at half speed
    monkeypatch.setitem(metronome.KERNELS, "half", (lambda: time.sleep(0.002), 0.001))
    start = time.perf_counter()
    with metronome.Metronome("half", period_s=0.01) as clock:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    elapsed = time.perf_counter() - start
    assert len(clock.bursts) >= 5
    assert clock.wall_s + sum(clock.bursts) == pytest.approx(elapsed, rel=0.02)
    assert clock.scaled_s == pytest.approx(clock.wall_s / 2, rel=0.25)
    with metronome.Metronome("half"):
        with pytest.raises(RuntimeError):
            metronome.Metronome("half").__enter__()


def test_digest_mismatch_fails_the_repetition():
    reps = [
        {"mode": "timed", "errors": [], "digests": {"summary.csv": "a"}},
        {"mode": "timed", "errors": [], "digests": {"summary.csv": "b"}},
    ]
    run.judge(reps, "sweep_coop", 3, None)
    assert reps[0]["errors"] == [] and reps[1]["errors"]
    assert workloads.check_golden({"summary.csv": "a"}, {"summary.csv": "b"})
    assert not workloads.check_golden({"summary.csv": "a"}, {"summary.csv": "a"})


def test_missing_traced_callable_is_reported_not_raised(femtoq, tmp_path, monkeypatch):
    monkeypatch.setattr(
        tracing,
        "SPAN_TARGETS",
        tracing.SPAN_TARGETS + (("coordinator.renamed", "femtoq.coordinator", "Gone.run"),),
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = tiny_operation(tmp_path)
    finally:
        tracer.uninstall()
    assert result["errors"] == []
    exported = tracer.export()
    assert exported["missing"] == ["coordinator.renamed"]
    names = {s["name"] for s in exported["spans"]}
    assert {"coordinator.Simulation.run", "oracle.exhaustive_search"} <= names
    assert sum(s["count"] for s in exported["steps"]) == result["iterations"]
    assert all(s["self_ns"] >= 0 for s in exported["spans"])
    # patches are undone
    assert femtoq.coordinator.Simulation.run.__module__ == "femtoq.coordinator"
    assert not hasattr(femtoq.coordinator.Simulation.run, "__wrapped__")


def test_refuses_to_run_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "sweep_coop", "--seconds", "1"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
