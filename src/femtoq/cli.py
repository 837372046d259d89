"""Command-line interface: run experiments, invoke the oracle, validate configs.

Exit codes: 0 success, 1 bad input (configuration or command line), 2
runtime error, 3 oracle enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import platform
import re
import sys
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .config import (
    ConfigError,
    ScenarioConfig,
    config_from_dict,
    config_hash,
    config_to_dict,
    load_yaml,
    save_config,
)
from .coordinator import RunTrace, Simulation
from .oracle import EnumerationCapExceeded, exhaustive_search

# DensitySummary fields, in the order summary.csv lists them
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
_WRITE_BLOCK = 512  # kept iterations formatted and written at once
_STALE = re.compile(r"density_[0-9]{2,}\.csv|oracle_result\.csv")  # what a run replaces
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a malformed command line is bad input: exit 1, not 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="femtoq",
        description="Cooperative Q-learning power allocation simulator for dense femtocell networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("run", "run the density sweep and write its CSVs, replacing earlier density/oracle CSVs"),
        ("oracle", "exhaustively search the joint action space of the configured scenario"),
        ("validate-config", "load, validate, and echo the effective configuration"),
    ):
        p = sub.add_parser(name, help=text, description=text)
        p.add_argument("--config", type=Path, default=None, help="YAML scenario file")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.add_argument("--m-max", type=int, default=None, help="override the density sweep size")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def _effective_config(args) -> ScenarioConfig:
    """The YAML with the command line's values written into it, validated once."""
    data = load_yaml(args.config) if args.config else None
    data = {} if data is None else data
    for section, key, value in (
        ("run", "seed", args.seed),
        ("phases", "m_max", args.m_max),
        ("run", "output_dir", None if args.out is None else str(args.out)),
    ):
        # a root or section that is no mapping is left for config_from_dict to reject
        if value is not None and isinstance(data, dict):
            if data.get(section) is None:
                data[section] = {}
            if isinstance(data[section], dict):
                data[section][key] = value
    return config_from_dict(data)


def _write_csv(path: Path, columns, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def _fmt(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def _texts(values: np.ndarray) -> list[str]:
    """``repr`` of every value, in C order, cut from the repr of one list."""
    return repr(values.ravel().tolist())[1:-1].split(", ")


def _write_density_csv(path: Path, density: np.recarray, agent_ids, dbm_text) -> None:
    """One line per agent per kept iteration; ``dbm_text[a]`` is level a's text.

    Each column is formatted at once, the per-iteration ones repeated
    across the agents, ``_WRITE_BLOCK`` kept iterations at a time, so no
    file is held in memory whole. The lines are those ``csv.writer``
    writes: every field is a number, so none is quoted, and each line
    ends in ``\r\n``.
    """
    m = len(agent_ids)
    agent_text = [str(a) for a in agent_ids]
    line = "{},{},{},{},{},{},{}\r\n".format
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(DENSITY_COLUMNS) + "\r\n")
        for start in range(0, len(density), _WRITE_BLOCK):
            block = density[start : start + _WRITE_BLOCK]
            iteration, c_mue, delta = (
                np.repeat(np.array(_texts(c), dtype=object), m)
                for c in (block.iteration, block.c_mue, block.max_q_delta)
            )
            lines = map(
                line,
                iteration,
                agent_text * len(block),
                dbm_text[block.actions.ravel()],
                c_mue,
                _texts(block.c_fue),
                _texts(block.rewards),
                delta,
            )
            fh.write("".join(lines))


def write_run_artifacts(config: ScenarioConfig, trace: RunTrace, out_dir: Path) -> dict:
    """Write the summary, per-density traces, per-station plot data and manifest.

    Earlier ``density_<digits>.csv`` and ``oracle_result.csv`` files in ``out_dir`` are
    deleted first, and no other file. Each density CSV is formatted a column at a time.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    for stale in out_dir.glob("*.csv"):
        if _STALE.fullmatch(stale.name):
            stale.unlink()
    dbm_text = np.array(_texts(trace.levels_dbm), dtype=object)
    save_config(config, out_dir / "effective_config.yaml")

    _write_csv(
        out_dir / "summary.csv",
        SUMMARY_COLUMNS,
        ([_fmt(getattr(s, name)) for name in SUMMARY_COLUMNS] for s in trace.summaries),
    )

    for m, density in trace.records.items():
        agent_ids = trace.admission_order[:m]
        _write_density_csv(out_dir / f"density_{m:02d}.csv", density, agent_ids, dbm_text)

    _write_csv(
        out_dir / "plot_fue_capacities.csv",
        ("m", "agent_id", "c_fue"),
        (
            (s.m, aid, _fmt(c))
            for s in trace.summaries
            for aid, c in zip(s.agent_ids, s.fue_capacities)
        ),
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


def _output_dir(config: ScenarioConfig) -> Path:
    """``config.output_dir``, refused before any work if it or an ancestor is a file."""
    out_dir = Path(config.output_dir)
    # a link is there even when it leads nowhere, dangling or in a loop, and is refused
    existing = next(p for p in (out_dir, *out_dir.parents) if p.is_symlink() or p.exists())
    if not existing.is_dir():
        raise ConfigError(f"run.output_dir {out_dir}: {existing} exists and is not a directory")
    return out_dir


def run_experiment(config: ScenarioConfig, *, quiet: bool = False) -> Path:
    out_dir = _output_dir(config)
    sim = Simulation(config)
    trace = sim.run()
    manifest = write_run_artifacts(config, trace, out_dir)
    if not quiet:
        print(f"run complete: {len(trace.summaries)} density steps -> {out_dir}")
        for key in ("seed", "config_hash", "femtoq_version", "numpy_version", "python_version"):
            print(f"  {key}: {manifest[key]}")
    return out_dir


def _learned_sum(config: ScenarioConfig, out_dir: Path) -> float | None:
    """The sum capacity at ``m_max`` of the run in ``out_dir``, if it has this config.

    A manifest of another config, or a file that cannot be read, is one line on stderr.
    """
    path, summary_path = out_dir / "manifest.json", out_dir / "summary.csv"
    if not (path.exists() and summary_path.exists()):
        return None
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(manifest, dict):
            raise ValueError(f"a JSON {type(manifest).__name__}, not an object")
        run_hash = manifest.get("config_hash")
        if run_hash != config_hash(config):
            problem = f"{path} is from another configuration (config_hash {run_hash})"
        else:
            path = summary_path
            with open(path, newline="", encoding="utf-8") as fh:
                rows = [r for r in csv.DictReader(fh, restval="") if int(r["m"]) == config.m_max]
            return float(rows[-1]["sum_capacity"]) if rows else None
    except (OSError, ValueError, KeyError) as exc:
        problem = f"cannot read {path} ({exc!r})"
    print(f"oracle: {problem}; learned_sum and optimality_gap left blank", file=sys.stderr)
    return None


def run_oracle(config: ScenarioConfig, *, quiet: bool = False) -> Path:
    out_dir = _output_dir(config)
    sim = Simulation(config)  # the scenario, built as a run builds it
    result = exhaustive_search(
        sim.gains,
        sim.actions,
        sim.thresholds,
        p_bs_mw=sim.p_bs_mw,
        noise_mw=sim.noise_mw,
        enumeration_cap=config.oracle_cap,
    )

    learned_sum = gap = ""
    learned = _learned_sum(config, out_dir)
    if learned is not None:
        learned_sum = repr(learned)
        gap = repr((result.best_objective - learned) / result.best_objective)

    # made only now, so a refused search leaves no directory behind
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out_dir / "oracle_result.csv",
        ORACLE_COLUMNS,
        [
            (
                config.m_max,
                config.n_power,
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
            f"oracle: searched {result.n_enumerated} joint actions, "
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
        if args.command == "validate-config":
            # the output path and the scenario too, so whatever run rejects is rejected here
            _output_dir(config)
            Simulation(config)
            print(f"config ok (hash {config_hash(config)})")
            if not args.quiet:
                print(yaml.safe_dump(config_to_dict(config), sort_keys=True), end="")
        elif args.command == "run":
            run_experiment(config, quiet=args.quiet)
        else:
            run_oracle(config, quiet=args.quiet)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except EnumerationCapExceeded as exc:
        print(f"oracle refused: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
