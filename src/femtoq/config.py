"""Scenario configuration: defaults, YAML loading, validation, hashing.

Every value is normalised to its field's type, so equal configs hash equally.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from dataclasses import dataclass, fields, replace
from functools import partial
from typing import Any, Callable

import numpy as np
import yaml

from .channel import dbm_to_mw
from .reward import REWARDS
from .topology import Position, Topology, generate_layout

# Independent random streams derived from the master seed.
LAYOUT_STREAM = 0
ADMISSION_STREAM = 1
AGENT_STREAM = 2


class ConfigError(ValueError):
    """Raised for malformed or inconsistent scenario configuration."""


@dataclass(frozen=True)
class ScenarioConfig:
    """All scenario parameters; defaults reproduce the reference dense-network setup.

    Construction normalises each value to its field's type (an integer in a
    float field becomes a float, a list a tuple), then checks the rules. A
    value of another type, or one breaking a rule, is a ``ConfigError``.
    """

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
        """Normalise every field, then check every rule: the one place config rules live."""
        for name, key, normalise, wanted in _NORMALISERS:
            value = getattr(self, name)
            try:
                normal = normalise(value)
            except (TypeError, OverflowError):
                raise ConfigError(f"{key} {wanted}, got {value!r}") from None
            if normal is not value:
                object.__setattr__(self, name, normal)
        keys = _YAML_KEYS
        for name, low in (
            ("n_power", 2),
            ("max_iterations", 1),
            ("mue_capacity_exponent", 0),
            ("seed_agents", 1),
            ("m_max", 1),
            ("convergence_window", 1),
            ("seed", 0),
            ("trace_stride", 1),
            ("oracle_cap", 1),
        ):
            if getattr(self, name) < low:
                raise ConfigError(f"{keys[name]} must be >= {low}, got {getattr(self, name)}")
        for name in (
            "d_th_m",
            "pathloss_exponent",
            "d0_m",
            "f_ghz",
            "mue_min_capacity",
            "convergence_tolerance",
            "fbs_spacing_m",
            "fue_radius_m",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{keys[name]} must be positive, got {getattr(self, name)}")
        for name in ("alpha", "gamma", "epsilon", "explore_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{keys[name]} must be in [0, 1], got {getattr(self, name)}")
        for name in ("p_min_dbm", "p_max_dbm", "p_bs_dbm", "noise_dbm"):
            # the power levels lie between the two ends of the action range
            try:
                mw = dbm_to_mw(getattr(self, name))
            except OverflowError:
                mw = math.inf
            if not 0.0 < mw < math.inf:
                raise ConfigError(f"{keys[name]} must be a positive, finite power in mW")
        if not self.p_min_dbm < self.p_max_dbm:
            raise ConfigError("actions.p_min_dbm must be below actions.p_max_dbm")
        for name, radii in (("mbs_radii", self.mbs_radii), ("mue_radii", self.mue_radii)):
            if len(radii) == 0 or any(r <= 0 for r in radii):
                raise ConfigError(f"rings.{name} must be nonempty and positive")
            if any(a >= b for a, b in zip(radii, radii[1:])):
                raise ConfigError(f"rings.{name} not ascending")
        fue_q = self.fue_thresholds()
        if len(fue_q) != self.m_max:
            raise ConfigError(
                f"qos.fue_min_capacity has {len(fue_q)} values for phases.m_max = {self.m_max}"
                " stations: give one value or one per station"
            )
        if any(q <= 0 for q in fue_q):
            raise ConfigError(f"qos.fue_min_capacity must be positive, got {self.fue_min_capacity}")
        if self.reward_name not in REWARDS:
            raise ConfigError(
                f"reward.name {self.reward_name!r} is not registered; "
                f"available: {', '.join(REWARDS)}"
            )
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

    def fue_thresholds(self) -> tuple[float, ...]:
        """Per-station QoS thresholds, broadcasting a scalar config value."""
        if isinstance(self.fue_min_capacity, tuple):
            return self.fue_min_capacity
        return (self.fue_min_capacity,) * self.m_max


# YAML section -> its keys
_SECTIONS = {
    "actions": ("p_min_dbm", "p_max_dbm", "n_power"),
    "rings": ("mbs_radii", "mue_radii", "d_th_m"),
    "pathloss": ("pl0_db", "exponent", "d0_m", "f_ghz"),
    "radio": ("p_bs_dbm", "noise_dbm"),
    "qos": ("mue_min_capacity", "fue_min_capacity"),
    "learning": ("alpha", "gamma", "epsilon", "explore_fraction", "max_iterations"),
    "reward": ("name", "mue_capacity_exponent"),
    "phases": ("seed_agents", "m_max", "sharing_enabled"),
    "convergence": ("window", "tolerance"),
    "layout": (
        "fbs_spacing_m",
        "fue_radius_m",
        "fue_min_distance_m",
        "mbs_position",
        "mue_position",
        "fbs_positions",
        "fue_positions",
    ),
    "run": ("seed", "trace_stride", "output_dir", "oracle_cap"),
}
_FIELD_NAMES = {f.name for f in fields(ScenarioConfig)}
# YAML section -> {yaml key: dataclass field}: the field of the key's name, or
# else of "<section>_<key>" (pathloss.exponent is pathloss_exponent)
_SCHEMA: dict[str, dict[str, str]] = {
    section: {key: key if key in _FIELD_NAMES else f"{section}_{key}" for key in keys}
    for section, keys in _SECTIONS.items()
}

_YAML_KEYS = {
    field_name: f"{section}.{key}"
    for section, entries in _SCHEMA.items()
    for key, field_name in entries.items()
}


def _of_kind(kind: type, value: Any) -> Any:
    """``value`` if it is a ``kind``; a bool is no integer."""
    if not isinstance(value, kind) or isinstance(value, bool) is not (kind is bool):
        raise TypeError
    return value


def _finite_float(value: Any) -> float:
    """``value`` as a float; ``math.isfinite`` overflows on an integer past float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise TypeError
    return value if type(value) is float else float(value)


def _tuple_of(item: Callable[[Any], Any], value: Any, length: int | None = None) -> tuple:
    """``value`` as a tuple of ``item(v)``; ``value`` itself when that changes nothing."""
    if not isinstance(value, (list, tuple)) or length is not None and len(value) != length:
        raise TypeError
    out = tuple(map(item, value))
    return value if type(value) is tuple and all(map(operator.is_, out, value)) else out


_floats = partial(_tuple_of, _finite_float)
_pair = partial(_tuple_of, _finite_float, length=2)


def _normaliser(name: str, default: Any) -> tuple[Callable[[Any], Any], str]:
    """The normaliser of a field, and what it asks for.

    A field takes the type of its default: a bool, an integer (not a bool),
    a string, a finite float (an integer becomes a float) or a tuple of
    finite floats (a list becomes a tuple). The two positions are ``[x, y]``
    pairs, the explicit layout lists None or lists of pairs, and
    ``fue_min_capacity`` a number or a list. Other types raise ``TypeError``.
    """
    if isinstance(default, bool):
        return partial(_of_kind, bool), "must be true or false"
    if isinstance(default, int):
        return partial(_of_kind, int), "must be an integer"
    if isinstance(default, str):
        return partial(_of_kind, str), "must be a string"
    if name in ("mbs_position", "mue_position"):
        return _pair, "must be an [x, y] pair of finite numbers"
    if name in ("fbs_positions", "fue_positions"):
        return (
            lambda v: v if v is None else _tuple_of(_pair, v)
        ), "must be a list of [x, y] pairs of finite numbers"
    if name == "fue_min_capacity":
        return (
            lambda v: _floats(v) if isinstance(v, (list, tuple)) else _finite_float(v)
        ), "must be a finite number or list"
    if isinstance(default, tuple):
        return _floats, "must be a list of finite numbers"
    return _finite_float, "must be a finite number"


# (field, YAML key, normaliser, what it asks for) for every field
_NORMALISERS = tuple(
    (f.name, _YAML_KEYS[f.name], *_normaliser(f.name, f.default))
    for f in fields(ScenarioConfig)
)


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
            kwargs[field_name] = value
    return ScenarioConfig(**kwargs)


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


def load_yaml(path) -> Any:
    """The parsed YAML of a scenario file, for ``config_from_dict``; an empty file is None."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML in {path}: {exc}") from exc

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
    """Topology from explicit pinned positions or the seeded grid generator.

    Positions that ``Topology`` rejects are a ``ConfigError`` naming the layout keys.
    """
    try:
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
    except ValueError as exc:
        raise geometry_error(config, str(exc)) from exc


def geometry_error(config: ScenarioConfig, message: str, *, pathloss: bool = False) -> ConfigError:
    """``message`` after the YAML keys that place the nodes and, with ``pathloss``, set gains."""
    layout = (
        ("fbs_positions", "fue_positions")
        if config.fbs_positions is not None
        else ("fbs_spacing_m", "fue_radius_m", "fue_min_distance_m")
    )
    gains = ("pl0_db", "pathloss_exponent", "d0_m", "f_ghz") if pathloss else ()
    names = (*gains, "mbs_position", "mue_position", *layout)
    return ConfigError(f"{', '.join(_YAML_KEYS[name] for name in names)}: {message}")


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
