"""Command-line interface: run experiments, invoke the oracle, validate configs.

Exit codes: 0 success, 1 configuration error, 2 runtime error, 3 oracle
enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import platform
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .config import (
    ConfigError,
    ScenarioConfig,
    build_topology,
    config_hash,
    config_to_dict,
    load_config,
    save_config,
)
from .coordinator import RunTrace, Simulation
from .oracle import EnumerationCapExceeded, exhaustive_search
from .channel import build_gain_matrix, dbm_to_mw
from .reward import QosThresholds, available_rewards
from .learning import make_action_set

SUMMARY_COLUMNS = (
    "m",
    "c_mue_final",
    "min_fue_capacity",
    "sum_capacity",
    "jain",
    "iterations_to_converge",
)
DENSITY_COLUMNS = (
    "iteration",
    "agent_id",
    "action_dbm",
    "c_mue",
    "c_fue_i",
    "reward",
    "max_q_delta",
)
ORACLE_COLUMNS = (
    "m",
    "n_power",
    "n_enumerated",
    "feasible",
    "best_objective",
    "c_mue",
    "min_fue_capacity",
    "best_action_dbm",
    "learned_sum",
    "optimality_gap",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="femtoq",
        description="Cooperative Q-learning power allocation simulator for dense femtocell networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("run", "run the density-sweep learning experiment and write CSV artifacts"),
        ("oracle", "exhaustively search the joint action space of the configured scenario"),
        ("validate-config", "load, validate, and echo the effective configuration"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", type=Path, default=None, help="YAML scenario file")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.add_argument("--m-max", type=int, default=None, help="override the density sweep size")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def _effective_config(args) -> ScenarioConfig:
    config = load_config(args.config) if args.config else ScenarioConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.m_max is not None:
        overrides["m_max"] = args.m_max
    if args.out is not None:
        overrides["output_dir"] = str(args.out)
    if overrides:
        config = replace(config, **overrides)
    if config.reward_name not in available_rewards():
        raise ConfigError(
            f"reward.name {config.reward_name!r} is not registered; "
            f"available: {', '.join(available_rewards())}"
        )
    return config


def _write_csv(path: Path, columns, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def _fmt(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def write_run_artifacts(config: ScenarioConfig, trace: RunTrace, out_dir: Path) -> dict:
    """Write summary, per-density traces, plot data, and the manifest."""
    out_dir.mkdir(parents=True, exist_ok=True)
    save_config(config, out_dir / "effective_config.yaml")

    _write_csv(
        out_dir / "summary.csv",
        SUMMARY_COLUMNS,
        [
            (
                s.m,
                _fmt(s.c_mue_final),
                _fmt(s.min_fue_capacity),
                _fmt(s.sum_capacity),
                _fmt(s.jain),
                s.iterations_to_converge,
            )
            for s in trace.summaries
        ],
    )

    for m, records in trace.records.items():
        rows = []
        for rec in records:
            for aid, p_dbm, c_fue, rwd in zip(
                rec.agent_ids, rec.powers_dbm, rec.fue_capacities, rec.rewards
            ):
                rows.append(
                    (
                        rec.iteration,
                        aid,
                        _fmt(p_dbm),
                        _fmt(rec.c_mue),
                        _fmt(c_fue),
                        _fmt(rwd),
                        _fmt(rec.max_q_delta),
                    )
                )
        _write_csv(out_dir / f"density_{m:02d}.csv", DENSITY_COLUMNS, rows)

    _write_csv(
        out_dir / "plot_mue_capacity.csv",
        ("m", "c_mue"),
        [(s.m, _fmt(s.c_mue_final)) for s in trace.summaries],
    )
    fue_rows = []
    for s in trace.summaries:
        for aid, c in zip(s.agent_ids, s.fue_capacities):
            fue_rows.append((s.m, aid, _fmt(c)))
    _write_csv(out_dir / "plot_fue_capacities.csv", ("m", "agent_id", "c_fue"), fue_rows)
    _write_csv(
        out_dir / "plot_sum_capacity.csv",
        ("m", "sum_capacity"),
        [(s.m, _fmt(s.sum_capacity)) for s in trace.summaries],
    )
    _write_csv(
        out_dir / "plot_convergence_iterations.csv",
        ("m", "iterations_to_converge"),
        [(s.m, s.iterations_to_converge) for s in trace.summaries],
    )
    _write_csv(
        out_dir / "plot_jain_index.csv",
        ("m", "jain"),
        [(s.m, _fmt(s.jain)) for s in trace.summaries],
    )

    manifest = {
        "seed": config.seed,
        "config_hash": config_hash(config),
        "m_max": config.m_max,
        "admission_order": list(trace.admission_order),
        "femtoq_version": __version__,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def run_experiment(config: ScenarioConfig, *, quiet: bool = False) -> Path:
    out_dir = Path(config.output_dir)
    sim = Simulation(config)
    trace = sim.run()
    manifest = write_run_artifacts(config, trace, out_dir)
    if not quiet:
        print(f"run complete: {len(trace.summaries)} density steps -> {out_dir}")
        for key in ("seed", "config_hash", "femtoq_version", "numpy_version", "python_version"):
            print(f"  {key}: {manifest[key]}")
    return out_dir


def run_oracle(config: ScenarioConfig, *, quiet: bool = False) -> Path:
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    topology = build_topology(config)
    gains = build_gain_matrix(
        topology,
        pl0=config.pl0_db,
        exponent=config.pathloss_exponent,
        d0=config.d0_m,
        f_ghz=config.f_ghz,
    )
    actions = make_action_set(config.p_min_dbm, config.p_max_dbm, config.n_power)
    thresholds = QosThresholds(mue=config.mue_min_capacity, fue=config.fue_thresholds())
    result = exhaustive_search(
        gains,
        actions,
        thresholds,
        p_bs_mw=dbm_to_mw(config.p_bs_dbm),
        noise_mw=dbm_to_mw(config.noise_dbm),
        enumeration_cap=config.oracle_cap,
    )

    learned_sum = ""
    gap = ""
    summary_path = out_dir / "summary.csv"
    manifest_path = out_dir / "manifest.json"
    if summary_path.exists() and manifest_path.exists():
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        if manifest.get("config_hash") == config_hash(config):
            with open(summary_path, newline="", encoding="utf-8") as fh:
                for row in csv.DictReader(fh):
                    if int(row["m"]) == config.m_max:
                        learned = float(row["sum_capacity"])
                        learned_sum = repr(learned)
                        gap = repr((result.best_objective - learned) / result.best_objective)
        else:
            print(
                f"oracle: {manifest_path} is from another configuration "
                f"(config_hash {manifest.get('config_hash')}); "
                "learned_sum and optimality_gap left blank",
                file=sys.stderr,
            )

    _write_csv(
        out_dir / "oracle_result.csv",
        ORACLE_COLUMNS,
        [
            (
                gains.m,
                len(actions),
                result.n_enumerated,
                int(result.feasible),
                _fmt(result.best_objective),
                _fmt(result.c_mue),
                _fmt(min(result.fue_capacities)),
                ";".join(_fmt(p) for p in result.best_powers_dbm),
                learned_sum,
                gap,
            )
        ],
    )
    if not quiet:
        print(
            f"oracle: enumerated {result.n_enumerated} joint actions, "
            f"best sum capacity {result.best_objective:.6f} b/s/Hz "
            f"({'feasible' if result.feasible else 'infeasible'})"
        )
        if gap:
            print(f"  learned sum {learned_sum}, optimality gap {gap}")
    return out_dir


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _effective_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate-config":
        print(f"config ok (hash {config_hash(config)})")
        if not args.quiet:
            print(yaml.safe_dump(config_to_dict(config), sort_keys=True), end="")
        return 0

    if args.command == "run":
        try:
            run_experiment(config, quiet=args.quiet)
            return 0
        except Exception as exc:  # noqa: BLE001 - CLI boundary
            print(f"runtime error: {exc}", file=sys.stderr)
            return 2

    if args.command == "oracle":
        try:
            run_oracle(config, quiet=args.quiet)
            return 0
        except EnumerationCapExceeded as exc:
            print(f"oracle refused: {exc}", file=sys.stderr)
            return 3
        except Exception as exc:  # noqa: BLE001 - CLI boundary
            print(f"runtime error: {exc}", file=sys.stderr)
            return 2

    return 2  # pragma: no cover - argparse enforces the command set


def entry_point() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())
