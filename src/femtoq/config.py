"""Scenario configuration: defaults, YAML loading, validation, hashing.

Every value is normalised to its field's type, so equal configs hash equally.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from dataclasses import dataclass, field, fields, replace
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

# the oracle numbers joint actions by int64 flat index, and np.unravel_index
# refuses a space larger than intp ((2,)*64: "dimensions are too large");
# 10**9 stays far inside both
_ORACLE_CAP_MAX = 10**9


class ConfigError(ValueError):
    """Raised for malformed or inconsistent scenario configuration."""


def _key(section: str, default: Any, rule: Callable[[Any], str | None] | None = None):
    """A field in YAML section ``section``, checked by ``rule`` once normalised."""
    return field(default=default, metadata={"section": section, "rule": rule})


# A rule takes a field's normalised value and returns what is wrong with it, the
# end of a message that starts with the field's YAML key, or None when it is fine.
def _at_least(low: int, high: float = math.inf) -> Callable[[int], str | None]:
    """The rule ``low <= value <= high``."""

    def rule(value: int) -> str | None:
        if value < low:
            return f"must be >= {low}, got {value}"
        return f"must be <= {high}, got {value}" if value > high else None

    return rule


def _positive(value: float) -> str | None:
    return None if value > 0 else f"must be positive, got {value}"


def _unit(value: float) -> str | None:
    return None if 0.0 <= value <= 1.0 else f"must be in [0, 1], got {value}"


def _power(dbm: float) -> str | None:
    # the power levels lie between the two ends of the action range, which this checks
    try:
        mw = dbm_to_mw(dbm)
    except OverflowError:
        mw = math.inf
    return None if 0.0 < mw < math.inf else "must be a positive, finite power in mW"


@dataclass(frozen=True)
class ScenarioConfig:
    """All scenario parameters; defaults reproduce the reference dense-network setup.

    Each field is the YAML key ``<section>.<name less a "<section>_" prefix>``,
    so ``pathloss_exponent`` is ``pathloss.exponent``. Construction normalises
    each value to its field's type (an integer in a float field becomes a
    float, a list a tuple), then checks each field's rule in declaration
    order, then the rules across fields. A value of another type, or one
    breaking a rule, is a ``ConfigError``.
    """

    p_min_dbm: float = _key("actions", -20.0, _power)
    p_max_dbm: float = _key("actions", 25.0, _power)
    n_power: int = _key("actions", 31, _at_least(2))
    mbs_radii: tuple[float, ...] = _key("rings", (50.0, 150.0, 400.0))
    mue_radii: tuple[float, ...] = _key("rings", (15.0, 50.0, 125.0))
    d_th_m: float = _key("rings", 25.0, _positive)
    pl0_db: float = _key("pathloss", 62.3)
    pathloss_exponent: float = _key("pathloss", 4.0, _positive)
    d0_m: float = _key("pathloss", 5.0, _positive)
    f_ghz: float = _key("pathloss", 2.4, _positive)
    p_bs_dbm: float = _key("radio", 43.0, _power)
    noise_dbm: float = _key("radio", -104.0, _power)
    mue_min_capacity: float = _key("qos", 1.0, _positive)
    fue_min_capacity: float | tuple[float, ...] = _key("qos", 1.0)
    alpha: float = _key("learning", 0.5, _unit)
    gamma: float = _key("learning", 0.9, _unit)
    epsilon: float = _key("learning", 0.1, _unit)
    explore_fraction: float = _key("learning", 0.8, _unit)
    max_iterations: int = _key("learning", 50_000, _at_least(1))
    reward_name: str = _key("reward", "proposed")
    mue_capacity_exponent: int = _key("reward", 2, _at_least(0))
    seed_agents: int = _key("phases", 4, _at_least(1))
    m_max: int = _key("phases", 15, _at_least(1))
    sharing_enabled: bool = _key("phases", True)
    convergence_window: int = _key("convergence", 500, _at_least(1))
    convergence_tolerance: float = _key("convergence", 1e-3, _positive)
    fbs_spacing_m: float = _key("layout", 35.0, _positive)
    fue_radius_m: float = _key("layout", 10.0, _positive)
    fue_min_distance_m: float = _key("layout", 0.5)
    mbs_position: tuple[float, float] = _key("layout", (-150.0, 0.0))
    mue_position: tuple[float, float] = _key("layout", (3.5, 3.5))
    fbs_positions: tuple[tuple[float, float], ...] | None = _key("layout", None)
    fue_positions: tuple[tuple[float, float], ...] | None = _key("layout", None)
    seed: int = _key("run", 1, _at_least(0))
    trace_stride: int = _key("run", 50, _at_least(1))
    output_dir: str = _key("run", "runs")
    oracle_cap: int = _key("run", 10_000_000, _at_least(1, _ORACLE_CAP_MAX))

    def __post_init__(self):
        """Normalise every field, then check every rule: the one place config rules live."""
        for name, key, normalise, wanted, _ in _FIELDS:
            value = getattr(self, name)
            try:
                normal = normalise(value)
            except (TypeError, OverflowError):
                raise ConfigError(f"{key} {wanted}, got {value!r}") from None
            if normal is not value:
                object.__setattr__(self, name, normal)
        for name, key, _, _, rule in _FIELDS:
            broken = rule and rule(getattr(self, name))
            if broken:
                raise ConfigError(f"{key} {broken}")
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


# YAML section -> {YAML key: field}, by the key rule of ScenarioConfig's docstring
_SCHEMA: dict[str, dict[str, str]] = {}
for _field in fields(ScenarioConfig):
    _section = _field.metadata["section"]
    _SCHEMA.setdefault(_section, {})[_field.name.removeprefix(f"{_section}_")] = _field.name

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


# (field, YAML key, normaliser, what it asks for, rule or None) for every field
_FIELDS = tuple(
    (f.name, _YAML_KEYS[f.name], *_normaliser(f.name, f.default), f.metadata["rule"])
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


# libyaml's loader and dumper read and write the same text as the pure
# Python classes, several times faster; a pyyaml built without it has only those
_LOADER, _DUMPER = (
    (yaml.CSafeLoader, yaml.CSafeDumper)
    if yaml.__with_libyaml__
    else (yaml.SafeLoader, yaml.SafeDumper)
)


def load_yaml(path) -> Any:
    """The parsed YAML of a scenario file, for ``config_from_dict``; an empty file is None."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return yaml.load(fh, Loader=_LOADER)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML in {path}: {exc}") from exc


def dump_config(config: ScenarioConfig, stream=None) -> str | None:
    """The config as YAML with sorted keys, written to ``stream`` or else returned."""
    return yaml.dump(config_to_dict(config), stream, Dumper=_DUMPER, sort_keys=True)


def save_config(config: ScenarioConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        dump_config(config, fh)


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
