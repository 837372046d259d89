"""One benchmark repetition in a fresh process; prints one JSON line.

Usage: python3 perfbench/child.py '<json spec>'

The spec names the ``mode``: ``timed`` runs the workload operation with no
instrumentation, ``traced`` runs it with spans recorded around femtoq's
public callables, and ``micro`` times the isolated hot-loop stages. The
package is imported from ``src/`` of the checkout holding this file and
nowhere else.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

import numpy as np
import numpy.random  # numpy imports it lazily; keep that out of the timed set-up

from workloads import THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_femtoq():
    """Import the package from this checkout's ``src/`` or fail."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import femtoq

    if not Path(femtoq.__file__).resolve().is_relative_to(src):
        raise ImportError(f"femtoq imported from {femtoq.__file__}, not from {src}")
    return femtoq


def environment(femtoq) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "femtoq": femtoq.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def run_timed(spec: dict) -> dict:
    from metronome import Metronome
    from workloads import ORACLE_MIN_S, WORKLOADS, run_operation, setup_loop

    workload = WORKLOADS[spec["workload"]]
    args = (workload, spec["seed"], Path(spec["out_dir"]), spec["max_iterations"])
    # before the operation, while the heap is small, as it is for a user's set-up
    setup_s = setup_loop(*args)
    result = run_operation(*args, oracle_min_s=ORACLE_MIN_S, clock=Metronome)
    result["setup_s"] = setup_s
    return result


def run_traced(spec: dict) -> dict:
    from tracing import Tracer
    from workloads import WORKLOADS, oracle_peak_alloc_mb, run_operation

    workload = WORKLOADS[spec["workload"]]
    args = (workload, spec["seed"], Path(spec["out_dir"]), spec["max_iterations"])
    tracer = Tracer()
    tracer.install()
    try:
        result = run_operation(*args)
    finally:
        tracer.uninstall()
    trace = tracer.export()
    result["trace"] = trace
    result["missing"] = trace["missing"]
    result["layer"] = layer_metrics(tracer, trace, result)
    result["layer"]["oracle.peak_alloc_mb"] = oracle_peak_alloc_mb(*args)
    return result


def layer_metrics(tracer, trace: dict, op: dict) -> dict:
    """Per-layer numbers of one traced repetition; absent spans are left out."""
    spans = trace["spans"]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def first(name, key):
        found = named(name)
        return found[0][key] if found else None

    def total(name, key):
        found = named(name)
        return sum(s[key] for s in found) if found else None

    out = {
        "coordinator.iterations": op["iterations"],
        "coordinator.agent_iterations": op["agent_iterations"],
        "coordinator.converged_frac": op["converged_frac"],
        "coordinator.records_kept": op["records_kept"],
        "oracle.n_enumerated": op["n_enumerated"],
        "cli.artifact_bytes": op["artifact_bytes"],
        "cli.csv_rows": op["csv_rows"],
        "oracle.learned_gap": op["oracle_gap"],
    }
    steps_us = tracer.step_samples_ns() / 1000.0
    if steps_us.size:
        out["coordinator.step_us.p50"] = float(np.percentile(steps_us, 50))
        out["coordinator.step_us.p99"] = float(np.percentile(steps_us, 99))
        out["coordinator.step_us.n"] = int(steps_us.size)
    scaled = {
        "coordinator.density_step_self_s": (total("coordinator.DensityStep.run", "self_ns"), 1e9),
        "coordinator.sweep_self_s": (total("coordinator.Simulation.run", "self_ns"), 1e9),
        "coordinator.sim_init_ms": (first("coordinator.Simulation.__init__", "self_ns"), 1e6),
        "config.build_topology_ms": (first("config.build_topology", "self_ns"), 1e6),
        "topology.generate_layout_ms": (first("topology.generate_layout", "dur_ns"), 1e6),
        "channel.build_gain_matrix_ms": (first("channel.build_gain_matrix", "dur_ns"), 1e6),
        "oracle.search_s": (total("oracle.exhaustive_search", "dur_ns"), 1e9),
        "cli.write_artifacts_s": (total("cli.write_run_artifacts", "dur_ns"), 1e9),
        "cli.run_oracle_self_s": (total("cli.run_oracle", "self_ns"), 1e9),
    }
    for name, (value, scale) in scaled.items():
        if value is not None:
            out[name] = value / scale
    return out


def run_micro(spec: dict) -> dict:
    import micro
    from workloads import WORKLOADS, build_simulation

    # the M=15 stages need the 15-station scenario whatever the workload
    _, sim = build_simulation(WORKLOADS["sweep_coop"], spec["seed"], Path(spec["out_dir"]), None)
    variants, missing = micro.build_variants(sim)
    samples = micro.sample(variants, spec["seconds"])
    return {"errors": [], "layer": micro.metrics(samples), "missing": missing}


MODES = {"timed": run_timed, "traced": run_traced, "micro": run_micro}


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    try:
        femtoq = import_femtoq()
    except ImportError as exc:
        print(f"cannot import femtoq: {exc}", file=sys.stderr)
        return 3
    result = MODES[spec["mode"]](spec)
    result["env"] = environment(femtoq)
    print(json.dumps(result), flush=True)
    # skip tearing down the sweep's records: the result is out
    os._exit(0)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
