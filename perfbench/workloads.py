"""The benchmark's workloads and the one operation each repetition times.

Every workload runs the same operation on its own scenario: build a
``Simulation`` (set-up), run the density sweep, write the run artifacts,
then run the exhaustive oracle on the first ``oracle_m`` admitted stations
and compare it with the policy learned at that density. The package is
driven only through its public API; the calls are resolved on the modules
at call time, so the tracer's patches are seen.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re
import resource
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

from metronome import Metronome, Stopwatch

DEFAULT_SEED = 1  # ScenarioConfig's own default, the seed the golden digests cover
DIGESTED = re.compile(r"^(summary|density_\d+|oracle_result)\.csv$")
# repr() of a non-finite float, the only way one reaches a CSV cell
NON_FINITE = (b"nan", b"inf")
SETUP_REPEATS = 300  # set-ups timed before the operation, about 1 ms each
ORACLE_MIN_S = 1.5  # oracle wall time each untraced repetition measures
# pinned to one thread in every child process
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


@dataclass(frozen=True)
class Workload:
    """A scenario (``ScenarioConfig`` overrides) and the density the oracle checks.

    Why each workload exists is recorded in BENCHMARK.json and README.md.
    """

    name: str
    overrides: dict
    oracle_m: int = 4  # the last step of the individual phase: 31^4 joint actions


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep_coop", dict(sharing_enabled=True, trace_stride=50, max_iterations=5000)),
        Workload(
            "sweep_indep_trace", dict(sharing_enabled=False, trace_stride=1, max_iterations=5000)
        ),
        Workload("oracle_m5", dict(m_max=5, n_power=25, max_iterations=5000), oracle_m=5),
    )
}


def make_config(workload: Workload, seed: int, out_dir: Path, max_iterations: int | None):
    from femtoq import config as fq_config

    overrides = dict(workload.overrides)
    if max_iterations is not None:
        overrides["max_iterations"] = max_iterations
    return fq_config.ScenarioConfig(
        seed=seed, output_dir=str(out_dir), reward_name="proposed", **overrides
    )


def oracle_config(config, sim, oracle_m: int):
    """The run's own config, or its layout cut down to the first admitted stations."""
    from femtoq import config as fq_config
    from femtoq import topology as fq_topology

    if oracle_m == config.m_max:
        return config
    topo = sim.topology
    admitted = sim.admission_order[:oracle_m]
    sub = fq_topology.Topology(
        mbs=topo.mbs,
        mue=topo.mue,
        fbs=tuple(topo.fbs[i] for i in admitted),
        fue=tuple(topo.fue[i] for i in admitted),
    )
    return fq_config.with_pinned_layout(config, sub)


def build_simulation(workload: Workload, seed: int, out_dir: Path, max_iterations: int | None):
    """The set-up: config, topology, gains and agents up to a ready ``Simulation``."""
    from femtoq import coordinator

    config = make_config(workload, seed, out_dir, max_iterations)
    return config, coordinator.Simulation(config)


def run_operation(
    workload: Workload,
    seed: int,
    out_dir: Path,
    max_iterations: int | None,
    oracle_min_s: float = 0.0,
    clock=Stopwatch,
) -> dict:
    """One repetition of the workload; returns timings, counts and checks.

    ``run_s`` is the operation: set-up, sweep, artifacts and the first
    oracle call, each phase timed by a ``clock`` (``Metronome`` or
    ``Stopwatch``) of its kind. After the operation, ``cli.run_oracle`` is
    called again until its calls add up to ``oracle_min_s`` of wall time:
    on the sweeps one call takes about 0.2 s.
    """
    from femtoq import cli, config as fq_config, coordinator

    out_dir.mkdir(parents=True, exist_ok=True)
    with clock("learning") as setup:
        config, sim = build_simulation(workload, seed, out_dir, max_iterations)
    with clock("learning") as sweep:
        trace = sim.run()
    with clock("learning") as artifacts:
        cli.write_run_artifacts(config, trace, out_dir)
        o_config = oracle_config(config, sim, workload.oracle_m)
    oracle_calls = []
    while not oracle_calls or sum(c.wall_s for c in oracle_calls) < oracle_min_s:
        with clock("oracle") as call:
            cli.run_oracle(o_config, quiet=True)
        oracle_calls.append(call)
    phases = (setup, sweep, artifacts, oracle_calls[0])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    summaries = trace.summaries
    iterations = sum(s.iterations_to_converge for s in summaries)
    satisfied = [
        coordinator.check_constraints(s, sim.thresholds, config.p_max_dbm).all_satisfied
        for s in summaries
    ]
    checks = check_artifacts(
        out_dir,
        config,
        oracle_m=workload.oracle_m,
        learned_feasible=len(satisfied) >= workload.oracle_m and satisfied[workload.oracle_m - 1],
        oracle_is_run_config=o_config is config,
    )
    return {
        "config_hash": fq_config.config_hash(config),
        "errors": checks["errors"],
        "digests": checks["digests"],
        "run_s": sum(p.scaled_s for p in phases),
        "run_wall_s": sum(p.wall_s for p in phases),
        "sweep_s": sweep.scaled_s,
        "sweep_wall_s": sweep.wall_s,
        "oracle_s": [c.scaled_s for c in oracle_calls],
        "bursts_s": {
            kind: [b for c in cs for b in c.bursts]
            for kind, cs in (("learning", phases[:3]), ("oracle", oracle_calls))
        },
        "iterations": iterations,
        "agent_iterations": sum(s.iterations_to_converge * s.m for s in summaries),
        "converged_frac": sum(s.converged for s in summaries) / len(summaries),
        "records_kept": sum(len(r) for r in trace.records.values()),
        "peak_rss_mb": peak_rss_mb,
        "n_enumerated": checks["n_enumerated"],
        "c_mue_min": checks["c_mue_min"],
        "qos_sat_frac": sum(satisfied) / len(satisfied),
        "oracle_gap": checks["oracle_gap"],
        "artifact_bytes": checks["artifact_bytes"],
        "csv_rows": checks["csv_rows"],
    }


def setup_loop(workload: Workload, seed: int, out_dir: Path, max_iterations: int | None) -> float:
    """Scaled seconds per set-up, over ``SETUP_REPEATS`` set-ups under one metronome."""
    with Metronome("learning") as clock:
        for _ in range(SETUP_REPEATS):
            build_simulation(workload, seed, out_dir, max_iterations)
    return clock.scaled_s / SETUP_REPEATS


def oracle_peak_alloc_mb(workload: Workload, seed: int, out_dir: Path, max_iterations) -> float:
    """Most memory one ``cli.run_oracle`` call holds at once, as tracemalloc sees it.

    numpy reports its array buffers to tracemalloc, so this is the batched
    kernel's chunk arrays plus a few kilobytes of topology and gains.
    """
    from femtoq import cli

    config, sim = build_simulation(workload, seed, out_dir, max_iterations)
    o_config = oracle_config(config, sim, workload.oracle_m)
    tracemalloc.start()
    try:
        cli.run_oracle(o_config, quiet=True)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


# -- output checks -------------------------------------------------------------


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_artifacts(
    out_dir: Path, config, *, oracle_m: int, learned_feasible: bool, oracle_is_run_config: bool
) -> dict:
    """Seed-independent invariants of a run's artifacts, plus their digests.

    Never raises on bad content: every violation becomes an entry in
    ``errors``, so a tampered or wrong artifact counts as a failed run.
    """
    errors: list[str] = []
    digests: dict[str, str] = {}
    artifact_bytes = csv_rows = 0
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        artifact_bytes += len(data)
        if path.suffix == ".csv":
            _, _, body = data.partition(b"\n")
            csv_rows += body.count(b"\n")
            if any(token in body for token in NON_FINITE):
                errors.append(f"{path.name}: non-finite value")
        if DIGESTED.match(path.name):
            digests[path.name] = hashlib.sha256(data).hexdigest()
    result = {
        "errors": errors,
        "digests": digests,
        "artifact_bytes": artifact_bytes,
        "csv_rows": csv_rows,
        "n_enumerated": 0,
        "c_mue_min": math.nan,
        "oracle_gap": math.nan,
    }
    try:
        summary = _read_rows(out_dir / "summary.csv")
        oracle = _read_rows(out_dir / "oracle_result.csv")[0]
        ms = [int(r["m"]) for r in summary]
        if ms != list(range(1, config.m_max + 1)):
            errors.append(f"summary.csv: density steps {ms}, expected 1..{config.m_max}")
        for r in summary:
            if not int(r["iterations_to_converge"]) <= config.max_iterations:
                errors.append(f"summary.csv m={r['m']}: iterations_to_converge over budget")
            if not 0.0 < float(r["jain"]) <= 1.0 + 1e-12:
                errors.append(f"summary.csv m={r['m']}: jain {r['jain']} outside (0, 1]")
            values = [float(r[k]) for k in r if k != "m"]
            if not all(math.isfinite(v) for v in values):
                errors.append(f"summary.csv m={r['m']}: non-finite value")
        result["c_mue_min"] = min(float(r["c_mue_final"]) for r in summary)
        if missing := [f"density_{m:02d}.csv" for m in ms if f"density_{m:02d}.csv" not in digests]:
            errors.append(f"missing artifacts: {missing}")

        n_power = int(oracle["n_power"])
        result["n_enumerated"] = n_enumerated = int(oracle["n_enumerated"])
        if int(oracle["m"]) != oracle_m or n_enumerated != n_power**oracle_m:
            errors.append(f"oracle_result.csv: enumerated {n_enumerated} for m={oracle['m']}")
        best = float(oracle["best_objective"])
        learned = float(summary[oracle_m - 1]["sum_capacity"])
        gap = (best - learned) / best
        result["oracle_gap"] = gap
        if learned_feasible and best < learned * (1.0 - 1e-12):
            errors.append(f"oracle best {best!r} below feasible learned sum {learned!r}")
        if oracle_is_run_config:
            reported = oracle["optimality_gap"]
            if not reported or not math.isclose(float(reported), gap, rel_tol=1e-12):
                errors.append(f"oracle_result.csv: optimality_gap {reported!r}, expected {gap!r}")
    except (OSError, KeyError, IndexError, ValueError, ZeroDivisionError) as exc:
        errors.append(f"unreadable artifacts: {type(exc).__name__}: {exc}")
    return result


def check_golden(digests: dict, golden: dict) -> list[str]:
    """Byte-identity against committed digests of the default-seed artifacts."""
    errors = []
    for name, expected in sorted(golden.items()):
        got = digests.get(name)
        if got != expected:
            errors.append(f"{name}: digest {got} differs from golden {expected}")
    return errors
