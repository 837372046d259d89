"""Scenario configuration: defaults, YAML loading, validation, hashing."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from typing import Any

import numpy as np
import yaml

from .topology import Position, Topology, generate_layout

# Independent random streams derived from the master seed.
LAYOUT_STREAM = 0
ADMISSION_STREAM = 1
AGENT_STREAM = 2


class ConfigError(ValueError):
    """Raised for malformed or inconsistent scenario configuration."""


@dataclass(frozen=True)
class ScenarioConfig:
    """All scenario parameters; defaults reproduce the reference dense-network setup."""

    # action set
    p_min_dbm: float = -20.0
    p_max_dbm: float = 25.0
    n_power: int = 31
    # ring geometry
    mbs_radii: tuple[float, ...] = (50.0, 150.0, 400.0)
    mue_radii: tuple[float, ...] = (15.0, 50.0, 125.0)
    d_th_m: float = 25.0
    # path loss
    pl0_db: float = 62.3
    pathloss_exponent: float = 4.0
    d0_m: float = 5.0
    f_ghz: float = 2.4
    # radio
    p_bs_dbm: float = 43.0
    noise_dbm: float = -104.0
    # QoS
    mue_min_capacity: float = 1.0
    fue_min_capacity: float | tuple[float, ...] = 1.0
    # learning
    alpha: float = 0.5
    gamma: float = 0.9
    epsilon: float = 0.1
    explore_fraction: float = 0.8
    max_iterations: int = 50_000
    # reward
    reward_name: str = "proposed"
    mue_capacity_exponent: int = 2
    # phases
    seed_agents: int = 4
    m_max: int = 15
    sharing_enabled: bool = True
    # convergence detection
    convergence_window: int = 500
    convergence_tolerance: float = 1e-3
    # layout
    fbs_spacing_m: float = 35.0
    fue_radius_m: float = 10.0
    fue_min_distance_m: float = 0.5
    mbs_position: tuple[float, float] = (-150.0, 0.0)
    mue_position: tuple[float, float] = (3.5, 3.5)
    fbs_positions: tuple[tuple[float, float], ...] | None = None
    fue_positions: tuple[tuple[float, float], ...] | None = None
    # run control
    seed: int = 1
    trace_stride: int = 50
    output_dir: str = "runs"
    oracle_cap: int = 10_000_000

    def __post_init__(self):
        self._validate()

    def _validate(self) -> None:
        if self.n_power < 2:
            raise ConfigError(f"actions.n_power must be >= 2, got {self.n_power}")
        if not self.p_min_dbm < self.p_max_dbm:
            raise ConfigError("actions.p_min_dbm must be below actions.p_max_dbm")
        for name, radii in (("mbs_radii", self.mbs_radii), ("mue_radii", self.mue_radii)):
            if len(radii) == 0 or any(r <= 0 for r in radii):
                raise ConfigError(f"rings.{name} must be nonempty and positive")
            if any(a >= b for a, b in zip(radii, radii[1:])):
                raise ConfigError(f"rings.{name} not ascending")
        if self.d_th_m <= 0:
            raise ConfigError("rings.d_th_m must be positive")
        for key, value in (
            ("pathloss.exponent", self.pathloss_exponent),
            ("pathloss.d0_m", self.d0_m),
            ("pathloss.f_ghz", self.f_ghz),
        ):
            if value <= 0:
                raise ConfigError(f"{key} must be positive, got {value}")
        if self.mue_min_capacity <= 0:
            raise ConfigError("qos.mue_min_capacity must be positive")
        fue_q = self.fue_min_capacity
        if isinstance(fue_q, (int, float)):
            if fue_q <= 0:
                raise ConfigError("qos.fue_min_capacity must be positive")
        else:
            if len(fue_q) != self.m_max or any(q <= 0 for q in fue_q):
                raise ConfigError(
                    "qos.fue_min_capacity list must be positive with one entry per station"
                )
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"learning.alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError(f"learning.gamma must be in [0, 1], got {self.gamma}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigError(f"learning.epsilon must be in [0, 1], got {self.epsilon}")
        if not 0.0 <= self.explore_fraction <= 1.0:
            raise ConfigError("learning.explore_fraction must be in [0, 1]")
        if self.max_iterations < 1:
            raise ConfigError("learning.max_iterations must be >= 1")
        if self.mue_capacity_exponent < 0:
            raise ConfigError("reward.mue_capacity_exponent must be >= 0")
        if self.seed_agents < 1:
            raise ConfigError("phases.seed_agents must be >= 1")
        if self.m_max < 1:
            raise ConfigError("phases.m_max must be >= 1")
        if self.convergence_window < 1:
            raise ConfigError("convergence.window must be >= 1")
        if self.convergence_tolerance <= 0:
            raise ConfigError("convergence.tolerance must be positive")
        if self.fbs_spacing_m <= 0 or self.fue_radius_m <= 0:
            raise ConfigError("layout spacing and user radius must be positive")
        if not 0 < self.fue_min_distance_m < self.fue_radius_m:
            raise ConfigError("layout.fue_min_distance_m must lie in (0, fue_radius_m)")
        if (self.fbs_positions is None) != (self.fue_positions is None):
            raise ConfigError(
                "layout.fbs_positions and layout.fue_positions must be given together"
            )
        if self.fbs_positions is not None:
            if len(self.fbs_positions) != self.m_max or len(self.fue_positions) != self.m_max:
                raise ConfigError(
                    "explicit layout lists must each have phases.m_max entries"
                )
        if self.trace_stride < 1:
            raise ConfigError("run.trace_stride must be >= 1")
        if self.oracle_cap < 1:
            raise ConfigError("run.oracle_cap must be >= 1")

    def fue_thresholds(self) -> tuple[float, ...]:
        """Per-station QoS thresholds, broadcasting a scalar config value."""
        if isinstance(self.fue_min_capacity, (int, float)):
            return (float(self.fue_min_capacity),) * self.m_max
        return tuple(float(q) for q in self.fue_min_capacity)


# YAML section -> {yaml key: dataclass field}
_SCHEMA: dict[str, dict[str, str]] = {
    "actions": {"p_min_dbm": "p_min_dbm", "p_max_dbm": "p_max_dbm", "n_power": "n_power"},
    "rings": {"mbs_radii": "mbs_radii", "mue_radii": "mue_radii", "d_th_m": "d_th_m"},
    "pathloss": {
        "pl0_db": "pl0_db",
        "exponent": "pathloss_exponent",
        "d0_m": "d0_m",
        "f_ghz": "f_ghz",
    },
    "radio": {"p_bs_dbm": "p_bs_dbm", "noise_dbm": "noise_dbm"},
    "qos": {"mue_min_capacity": "mue_min_capacity", "fue_min_capacity": "fue_min_capacity"},
    "learning": {
        "alpha": "alpha",
        "gamma": "gamma",
        "epsilon": "epsilon",
        "explore_fraction": "explore_fraction",
        "max_iterations": "max_iterations",
    },
    "reward": {"name": "reward_name", "mue_capacity_exponent": "mue_capacity_exponent"},
    "phases": {
        "seed_agents": "seed_agents",
        "m_max": "m_max",
        "sharing_enabled": "sharing_enabled",
    },
    "convergence": {"window": "convergence_window", "tolerance": "convergence_tolerance"},
    "layout": {
        "fbs_spacing_m": "fbs_spacing_m",
        "fue_radius_m": "fue_radius_m",
        "fue_min_distance_m": "fue_min_distance_m",
        "mbs_position": "mbs_position",
        "mue_position": "mue_position",
        "fbs_positions": "fbs_positions",
        "fue_positions": "fue_positions",
    },
    "run": {
        "seed": "seed",
        "trace_stride": "trace_stride",
        "output_dir": "output_dir",
        "oracle_cap": "oracle_cap",
    },
}

_TUPLE_FIELDS = {"mbs_radii", "mue_radii", "mbs_position", "mue_position"}
_POSITION_LIST_FIELDS = {"fbs_positions", "fue_positions"}


def config_from_dict(data: dict[str, Any]) -> ScenarioConfig:
    """Build a validated config from a nested mapping; unknown keys are rejected."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be a mapping, got {type(data).__name__}")
    kwargs: dict[str, Any] = {}
    for section, entries in data.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section: {section}")
        if entries is None:
            continue
        if not isinstance(entries, dict):
            raise ConfigError(f"config section {section} must be a mapping")
        for key, value in entries.items():
            field_name = _SCHEMA[section].get(key)
            if field_name is None:
                raise ConfigError(f"unknown config key: {section}.{key}")
            kwargs[field_name] = _coerce(field_name, value, f"{section}.{key}")
    try:
        return ScenarioConfig(**kwargs)
    except TypeError as exc:  # pragma: no cover - schema guards against this
        raise ConfigError(str(exc)) from exc


def _coerce(field_name: str, value: Any, where: str) -> Any:
    if value is None:
        if field_name in _POSITION_LIST_FIELDS:
            return None
        raise ConfigError(f"{where} must not be null")
    if field_name in _TUPLE_FIELDS:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where} must be a list")
        return tuple(float(v) for v in value)
    if field_name in _POSITION_LIST_FIELDS:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where} must be a list of [x, y] pairs")
        out = []
        for item in value:
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                raise ConfigError(f"{where} entries must be [x, y] pairs")
            out.append((float(item[0]), float(item[1])))
        return tuple(out)
    if field_name == "fue_min_capacity" and isinstance(value, (list, tuple)):
        return tuple(float(v) for v in value)
    return value


def config_to_dict(config: ScenarioConfig) -> dict[str, Any]:
    """Nested, JSON/YAML-serializable view of the effective configuration."""
    by_field = {f.name: getattr(config, f.name) for f in fields(config)}
    out: dict[str, Any] = {}
    for section, entries in _SCHEMA.items():
        sec: dict[str, Any] = {}
        for key, field_name in entries.items():
            value = by_field[field_name]
            if isinstance(value, tuple):
                value = [list(v) if isinstance(v, tuple) else v for v in value]
            sec[key] = value
        out[section] = sec
    return out


def load_config(path) -> ScenarioConfig:
    """Load and validate a YAML scenario file; an empty file yields pure defaults."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML in {path}: {exc}") from exc
    return config_from_dict(data)


def save_config(config: ScenarioConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(config_to_dict(config), fh, sort_keys=True)


# where artifacts go and how far the oracle may enumerate change no result
_UNHASHED = (("run", "output_dir"), ("run", "oracle_cap"))


def config_hash(config: ScenarioConfig) -> str:
    """Stable hash of the effective configuration; changes iff a parameter does.

    Fields in ``_UNHASHED`` are left out, so a run and a later oracle call
    that differ only there still match.
    """
    data = config_to_dict(config)
    for section, key in _UNHASHED:
        del data[section][key]
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def build_topology(config: ScenarioConfig) -> Topology:
    """Topology from explicit pinned positions or the seeded grid generator."""
    if config.fbs_positions is not None:
        return Topology(
            mbs=Position(*config.mbs_position),
            mue=Position(*config.mue_position),
            fbs=tuple(Position(*p) for p in config.fbs_positions),
            fue=tuple(Position(*p) for p in config.fue_positions),
        )
    return generate_layout(
        config.m_max,
        config.fbs_spacing_m,
        config.fue_radius_m,
        Position(*config.mbs_position),
        Position(*config.mue_position),
        np.random.SeedSequence((config.seed, LAYOUT_STREAM)),
        min_fue_distance=config.fue_min_distance_m,
    )


def with_pinned_layout(config: ScenarioConfig, topology: Topology) -> ScenarioConfig:
    """Copy of the config with the topology written out as explicit positions."""
    return replace(
        config,
        mbs_position=(topology.mbs.x, topology.mbs.y),
        mue_position=(topology.mue.x, topology.mue.y),
        fbs_positions=tuple((p.x, p.y) for p in topology.fbs),
        fue_positions=tuple((p.x, p.y) for p in topology.fue),
        m_max=topology.m,
    )
