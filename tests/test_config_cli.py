"""Tests for config loading/validation/hashing and the command-line interface."""

import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import femtoq
from femtoq.cli import main, run_experiment, write_run_artifacts
from femtoq.config import (
    ConfigError,
    ScenarioConfig,
    build_topology,
    config_from_dict,
    config_hash,
    config_to_dict,
    load_yaml,
    save_config,
    with_pinned_layout,
)
from femtoq.coordinator import RunTrace, Simulation, trace_block
from femtoq.topology import Topology
from reference import density_csv

# config_hash(ScenarioConfig()): it must not move when the hashing code does
DEFAULT_HASH = "c3a46e82b89de648058c88807e75123ec7b646f1216da2820a76dec161666add"

FAST_RUN = {
    "phases": {"m_max": 2, "seed_agents": 1},
    "learning": {"max_iterations": 200},
    "convergence": {"window": 40},
    "run": {"trace_stride": 20},
}


# configs that ScenarioConfig accepts but whose scenario cannot be built or
# leaves float range, with the YAML keys the error must name
SCENARIO_ERRORS = {
    "user_on_its_station": (
        {
            "layout": {"fbs_positions": [[0.0, 0.0]], "fue_positions": [[0.0, 0.0]]},
            "phases": {"m_max": 1, "seed_agents": 1},
        },
        ["layout.fue_positions"],
    ),
    "serving_gain_above_one": (
        {"layout": {"fue_min_distance_m": 0.01, "fue_radius_m": 0.05}},
        ["layout.fue_min_distance_m"],
    ),
    "negative_pl0": ({"pathloss": {"pl0_db": -5.0}}, ["pathloss.pl0_db"]),
    "gain_past_float_range": ({"pathloss": {"pl0_db": -5000.0}}, ["pathloss.pl0_db"]),
    "sinr_overflows": (
        {
            "radio": {"noise_dbm": -3236},
            "actions": {"p_min_dbm": -3236, "p_max_dbm": -3235},
            "phases": {"m_max": 3},
        },
        ["radio.noise_dbm", "radio.p_bs_dbm", "actions.p_min_dbm", "actions.p_max_dbm"],
    ),
    "reward_gain_overflows": (
        {
            "reward": {"mue_capacity_exponent": 400},
            "phases": {"m_max": 3},
            "learning": {"max_iterations": 200},
        },
        ["reward.mue_capacity_exponent"],
    ),
    # the reward's gain term stays in range, but a Q-value grows to about
    # reward / (1 - gamma): learning used to overflow after 376 iterations
    "q_values_overflow": (
        {
            "reward": {"mue_capacity_exponent": 357},
            "learning": {"gamma": 0.999, "max_iterations": 20000},
            "convergence": {"window": 20000},
            "phases": {"m_max": 1, "seed_agents": 1},
            "actions": {"p_max_dbm": -19.999, "n_power": 2},
        },
        ["learning.gamma", "reward.mue_capacity_exponent"],
    ),
}


# the dBm fields, as (YAML section, key)
DBM_KEYS = [
    ("actions", "p_min_dbm"),
    ("actions", "p_max_dbm"),
    ("radio", "p_bs_dbm"),
    ("radio", "noise_dbm"),
]

FLOAT_FIELDS = [f.name for f in fields(ScenarioConfig) if isinstance(f.default, float)]

# one broken value of each field with a range rule, and the whole message it gives
RANGE_ERRORS = [
    ("actions", "p_min_dbm", 4000.0, "actions.p_min_dbm must be a positive, finite power in mW"),
    ("actions", "p_max_dbm", -4000.0, "actions.p_max_dbm must be a positive, finite power in mW"),
    ("actions", "n_power", 1, "actions.n_power must be >= 2, got 1"),
    ("rings", "d_th_m", 0.0, "rings.d_th_m must be positive, got 0.0"),
    ("pathloss", "exponent", -1, "pathloss.exponent must be positive, got -1.0"),
    ("pathloss", "d0_m", 0.0, "pathloss.d0_m must be positive, got 0.0"),
    ("pathloss", "f_ghz", -2.4, "pathloss.f_ghz must be positive, got -2.4"),
    ("radio", "p_bs_dbm", 4000.0, "radio.p_bs_dbm must be a positive, finite power in mW"),
    ("radio", "noise_dbm", -4000.0, "radio.noise_dbm must be a positive, finite power in mW"),
    ("qos", "mue_min_capacity", 0.0, "qos.mue_min_capacity must be positive, got 0.0"),
    ("learning", "alpha", 1.5, "learning.alpha must be in [0, 1], got 1.5"),
    ("learning", "gamma", 1.1, "learning.gamma must be in [0, 1], got 1.1"),
    ("learning", "epsilon", -0.5, "learning.epsilon must be in [0, 1], got -0.5"),
    ("learning", "explore_fraction", 2, "learning.explore_fraction must be in [0, 1], got 2.0"),
    ("learning", "max_iterations", 0, "learning.max_iterations must be >= 1, got 0"),
    ("reward", "mue_capacity_exponent", -1, "reward.mue_capacity_exponent must be >= 0, got -1"),
    ("phases", "seed_agents", 0, "phases.seed_agents must be >= 1, got 0"),
    ("phases", "m_max", 0, "phases.m_max must be >= 1, got 0"),
    ("convergence", "window", 0, "convergence.window must be >= 1, got 0"),
    ("convergence", "tolerance", 0.0, "convergence.tolerance must be positive, got 0.0"),
    ("layout", "fbs_spacing_m", 0.0, "layout.fbs_spacing_m must be positive, got 0.0"),
    ("layout", "fue_radius_m", 0.0, "layout.fue_radius_m must be positive, got 0.0"),
    ("run", "seed", -1, "run.seed must be >= 0, got -1"),
    ("run", "trace_stride", 0, "run.trace_stride must be >= 1, got 0"),
    ("run", "oracle_cap", 0, "run.oracle_cap must be >= 1, got 0"),
    ("run", "oracle_cap", 10**9 + 1, "run.oracle_cap must be <= 1000000000, got 1000000001"),
]


def number(low, high):
    """An int or a float in [low, high], as a Python caller may pass either."""
    return st.one_of(st.integers(math.ceil(low), math.floor(high)), st.floats(low, high))


def ascending(low, high):
    return st.lists(number(low, high), min_size=1, max_size=4, unique=True).map(sorted)


@st.composite
def scenario_kwargs(draw):
    """Valid ``ScenarioConfig`` keywords, with lists where the fields hold tuples."""
    m = draw(st.integers(1, 5))
    pair = st.lists(number(-500, 500), min_size=2, max_size=2)
    kwargs = {
        "m_max": m,
        "seed_agents": draw(st.integers(1, 5)),
        "n_power": draw(st.integers(2, 40)),
        "p_min_dbm": draw(number(-40, 0)),
        "p_max_dbm": draw(number(1, 40)),
        "mbs_radii": draw(ascending(1, 1000)),
        "mue_radii": draw(ascending(1, 1000)),
        "d_th_m": draw(number(1, 100)),
        "pl0_db": draw(number(-100, 100)),
        "f_ghz": draw(number(0.5, 6)),
        "noise_dbm": draw(number(-150, -50)),
        "alpha": draw(number(0, 1)),
        "gamma": draw(number(0, 1)),
        "convergence_tolerance": draw(number(1e-9, 10)),
        "fue_radius_m": draw(number(2, 50)),
        "fue_min_distance_m": draw(number(0.01, 1.5)),
        "mue_position": draw(pair),
        "fue_min_capacity": draw(
            st.one_of(number(0.1, 10), st.lists(number(0.1, 10), min_size=m, max_size=m))
        ),
        "seed": draw(st.integers(0, 2**32)),
    }
    if draw(st.booleans()):
        kwargs["fbs_positions"] = draw(st.lists(pair, min_size=m, max_size=m))
        kwargs["fue_positions"] = draw(st.lists(pair, min_size=m, max_size=m))
    return kwargs


def write_yaml(path, data):
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return str(path)


class TestConfigDefaults:
    def test_empty_file_gives_reference_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("", encoding="utf-8")
        config = config_from_dict(load_yaml(path))
        assert config.p_min_dbm == -20.0
        assert config.p_max_dbm == 25.0
        assert config.n_power == 31
        assert config.mbs_radii == (50.0, 150.0, 400.0)
        assert config.mue_radii == (15.0, 50.0, 125.0)
        assert config.d_th_m == 25.0
        assert config.pl0_db == 62.3
        assert config.pathloss_exponent == 4.0
        assert config.d0_m == 5.0
        assert config.f_ghz == 2.4
        assert config.alpha == 0.5
        assert config.gamma == 0.9
        assert config.epsilon == 0.1
        assert config.explore_fraction == 0.8
        assert config.max_iterations == 50_000
        assert config.mue_min_capacity == 1.0
        assert config.m_max == 15
        assert config.seed_agents == 4

    def test_step_size_consistency(self):
        config = ScenarioConfig()
        step = (config.p_max_dbm - config.p_min_dbm) / (config.n_power - 1)
        assert step == pytest.approx(1.5)


class TestConfigValidation:
    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown config section"):
            config_from_dict({"nope": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key: rings.bogus"):
            config_from_dict({"rings": {"bogus": 1}})

    def test_non_ascending_radii_rejected(self):
        with pytest.raises(ConfigError, match="mbs_radii not ascending"):
            config_from_dict({"rings": {"mbs_radii": [150.0, 50.0, 400.0]}})

    def test_table_step_accepted(self):
        config = config_from_dict(
            {"actions": {"p_min_dbm": -20.0, "p_max_dbm": 25.0, "n_power": 31}}
        )
        assert config.n_power == 31

    @pytest.mark.parametrize(
        "section,key,value,fragment",
        [
            ("actions", "n_power", 1, "n_power"),
            ("learning", "alpha", 1.5, "alpha"),
            ("learning", "explore_fraction", -0.1, "explore_fraction"),
            ("qos", "mue_min_capacity", 0.0, "mue_min_capacity"),
            ("convergence", "tolerance", 0.0, "tolerance"),
            ("phases", "m_max", 0, "m_max"),
            ("run", "trace_stride", 0, "trace_stride"),
            ("learning", "gamma", 1.1, "gamma"),
            ("learning", "epsilon", 2.0, "epsilon"),
            ("learning", "max_iterations", 0, "max_iterations"),
            ("rings", "mue_radii", [50.0, 15.0, 125.0], "mue_radii"),
            ("rings", "d_th_m", 0.0, "d_th_m"),
            ("actions", "p_min_dbm", 25.0, "p_min_dbm"),
            ("qos", "fue_min_capacity", 0.0, "fue_min_capacity"),
            ("layout", "fbs_spacing_m", 0.0, "layout.fbs_spacing_m"),
            ("layout", "fue_radius_m", 0.0, "layout.fue_radius_m"),
            ("layout", "fue_min_distance_m", 0.0, "fue_min_distance_m"),
            ("convergence", "window", 0, "convergence.window"),
            ("pathloss", "d0_m", 0.0, "pathloss.d0_m must be positive"),
            ("pathloss", "exponent", 0.0, "pathloss.exponent must be positive"),
            ("pathloss", "f_ghz", 0.0, "pathloss.f_ghz must be positive"),
            # wrong types and non-finite numbers
            ("actions", "n_power", 3.5, "actions.n_power must be an integer"),
            ("phases", "m_max", 2.5, "phases.m_max must be an integer"),
            ("learning", "max_iterations", 10.5, "learning.max_iterations must be an integer"),
            ("run", "seed", 1.5, "run.seed must be an integer"),
            ("run", "seed", -1, "run.seed must be >= 0"),
            ("run", "oracle_cap", 0, "run.oracle_cap must be >= 1"),
            ("run", "oracle_cap", 10**9 + 1, "run.oracle_cap must be <= 1000000000"),
            ("run", "trace_stride", 2.5, "run.trace_stride must be an integer"),
            ("phases", "seed_agents", True, "phases.seed_agents must be an integer"),
            ("phases", "sharing_enabled", "false", "phases.sharing_enabled must be true or false"),
            ("learning", "alpha", True, "learning.alpha must be a finite number"),
            ("radio", "p_bs_dbm", float("nan"), "radio.p_bs_dbm must be a finite number"),
            ("rings", "d_th_m", float("nan"), "rings.d_th_m must be a finite number"),
            ("qos", "mue_min_capacity", float("inf"), "qos.mue_min_capacity must be a finite"),
            ("layout", "mue_position", [1.0, 2.0, 3.0], "layout.mue_position must be an"),
            ("layout", "mbs_position", [1.0], "layout.mbs_position must be an"),
            ("phases", "m_max", None, "phases.m_max must be an integer, got None"),
        ],
    )
    def test_invariant_violations_name_the_key(self, section, key, value, fragment):
        with pytest.raises(ConfigError, match=fragment):
            config_from_dict({section: {key: value}})

    @pytest.mark.parametrize(
        "section,key,value,message",
        RANGE_ERRORS,
        ids=[f"{section}.{key}={value!r}" for section, key, value, _ in RANGE_ERRORS],
    )
    def test_range_errors_give_the_whole_message(self, section, key, value, message):
        with pytest.raises(ConfigError) as info:
            config_from_dict({section: {key: value}})
        assert str(info.value) == message

    def test_the_first_field_to_break_its_rule_is_named(self):
        # in declaration order, whatever the kind of rule
        data = {"run": {"seed": -1}, "learning": {"alpha": 2.0}, "actions": {"p_min_dbm": 4000}}
        with pytest.raises(ConfigError, match=r"^actions\.p_min_dbm "):
            config_from_dict(data)
        del data["actions"]
        with pytest.raises(ConfigError, match=r"^learning\.alpha "):
            config_from_dict(data)

    @pytest.mark.parametrize("section,key", DBM_KEYS)
    @pytest.mark.parametrize("dbm", [4000.0, 3082.6, -3237.0, -4000.0])
    def test_dbm_without_a_finite_positive_mw_power_names_the_key(self, section, key, dbm):
        # 10 ** (dBm / 10) overflows above about 3082.55 dBm and is 0 below -3236.07
        fragment = f"{section}.{key} must be a positive, finite power in mW"
        with pytest.raises(ConfigError, match=fragment):
            config_from_dict({section: {key: dbm}})

    @pytest.mark.parametrize("section,key", DBM_KEYS)
    @pytest.mark.parametrize("dbm", [3082.5, -3236.0])
    def test_dbm_with_a_finite_positive_mw_power_accepted(self, section, key, dbm):
        data = {section: {key: dbm}}
        if key == "p_min_dbm":
            data[section]["p_max_dbm"] = dbm + 0.01
        if key == "p_max_dbm":
            data[section]["p_min_dbm"] = dbm - 0.01
        assert getattr(config_from_dict(data), key) == dbm

    def test_yaml_integers_fill_float_fields(self):
        config = config_from_dict({"learning": {"alpha": 1}, "rings": {"mue_radii": [15, 50]}})
        assert config.alpha == 1
        assert config.mue_radii == (15.0, 50.0)

    def test_unknown_reward_rejected(self):
        with pytest.raises(ConfigError, match="reward.name 'mystery' is not registered"):
            config_from_dict({"reward": {"name": "mystery"}})

    def test_explicit_layout_must_be_paired(self):
        with pytest.raises(ConfigError, match="given together"):
            config_from_dict({"layout": {"fbs_positions": [[0.0, 0.0]]}, "phases": {"m_max": 1}})

    def test_per_station_thresholds_validated(self):
        count = r"qos.fue_min_capacity has 2 values for phases.m_max = 3 stations"
        with pytest.raises(ConfigError, match=count):
            config_from_dict({"qos": {"fue_min_capacity": [1.0, 1.0]}, "phases": {"m_max": 3}})
        with pytest.raises(ConfigError, match="qos.fue_min_capacity must be positive"):
            config_from_dict({"qos": {"fue_min_capacity": [1.0, -1.0]}, "phases": {"m_max": 2}})
        ok = config_from_dict({"qos": {"fue_min_capacity": [1.0, 2.0]}, "phases": {"m_max": 2}})
        assert ok.fue_thresholds() == (1.0, 2.0)

    def test_malformed_yaml_reported(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("rings: [unclosed", encoding="utf-8")
        with pytest.raises(ConfigError, match="malformed YAML"):
            load_yaml(path)

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_yaml(tmp_path / "missing.yaml")


class TestConfigRoundTrip:
    def test_dict_round_trip_is_hash_stable(self, tmp_path):
        config = ScenarioConfig(seed=7, m_max=5)
        path = tmp_path / "out.yaml"
        write_yaml(path, config_to_dict(config))
        reloaded = config_from_dict(load_yaml(path))
        assert reloaded == config
        assert config_hash(reloaded) == config_hash(config)

    def test_hash_changes_iff_parameters_change(self):
        base = ScenarioConfig()
        assert config_hash(base) == config_hash(ScenarioConfig())
        for change in ({"seed": 2}, {"m_max": 5}, {"alpha": 0.4}, {"d_th_m": 30.0}):
            assert config_hash(replace(base, **change)) != config_hash(base)

    def test_hash_ignores_how_yaml_spells_a_float(self):
        assert config_hash(ScenarioConfig()) == DEFAULT_HASH
        for section, key, value in (
            ("rings", "d_th_m", 25),
            ("qos", "fue_min_capacity", 1),
            ("learning", "alpha", 0),
            ("radio", "p_bs_dbm", 43),
        ):
            as_int = config_from_dict({section: {key: value}})
            as_float = config_from_dict({section: {key: float(value)}})
            assert as_int == as_float
            assert config_hash(as_int) == config_hash(as_float)
        assert config_hash(config_from_dict({"rings": {"d_th_m": 25}})) == DEFAULT_HASH
        assert config_from_dict({"reward": {"mue_capacity_exponent": 2}}).mue_capacity_exponent == 2

    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    def test_python_integers_fill_float_fields(self, name):
        value = math.ceil(getattr(ScenarioConfig(), name))
        as_int = ScenarioConfig(**{name: value})
        as_float = ScenarioConfig(**{name: float(value)})
        assert type(getattr(as_int, name)) is float
        assert as_int == as_float
        assert config_hash(as_int) == config_hash(as_float)

    def test_python_lists_become_tuples(self):
        as_lists = ScenarioConfig(
            mbs_radii=[50, 150.0, 400],
            mue_position=[3.5, 3],
            fue_min_capacity=[1, 2.0],
            fbs_positions=[[0, 0], [35.0, 0]],
            fue_positions=[[4, 0], [39.0, 1]],
            m_max=2,
        )
        as_tuples = ScenarioConfig(
            mbs_radii=(50.0, 150.0, 400.0),
            mue_position=(3.5, 3.0),
            fue_min_capacity=(1.0, 2.0),
            fbs_positions=((0.0, 0.0), (35.0, 0.0)),
            fue_positions=((4.0, 0.0), (39.0, 1.0)),
            m_max=2,
        )
        assert as_lists == as_tuples
        assert config_hash(as_lists) == config_hash(as_tuples)
        assert isinstance(as_lists.fbs_positions, tuple)
        assert all(isinstance(p, tuple) for p in as_lists.fbs_positions)
        assert as_lists.fue_thresholds() == (1.0, 2.0)

    @given(scenario_kwargs())
    @settings(max_examples=60, deadline=None)
    def test_python_config_survives_save_and_load(self, tmp_path_factory, kwargs):
        config = ScenarioConfig(**kwargs)
        path = tmp_path_factory.getbasetemp() / "round_trip.yaml"
        save_config(config, path)
        reloaded = config_from_dict(load_yaml(path))
        assert reloaded == config
        assert config_hash(reloaded) == config_hash(config)

    def test_integer_beyond_float_range_is_a_config_error(self):
        for value in (10**400, [10**400]):
            with pytest.raises(ConfigError, match="rings.d_th_m must be a finite number"):
                config_from_dict({"rings": {"d_th_m": value}})

    def test_hash_ignores_fields_that_change_no_result(self):
        base = ScenarioConfig()
        for change in ({"output_dir": "elsewhere"}, {"oracle_cap": 5}):
            assert config_hash(replace(base, **change)) == config_hash(base)

    def test_pinned_layout_round_trip(self, tmp_path):
        config = ScenarioConfig(m_max=4, seed=3)
        topo = build_topology(config)
        pinned = with_pinned_layout(config, topo)
        path = tmp_path / "pinned.yaml"
        write_yaml(path, config_to_dict(pinned))
        reloaded = config_from_dict(load_yaml(path))
        assert build_topology(reloaded) == topo

    def test_pinned_full_layout_keeps_per_station_thresholds(self):
        config = ScenarioConfig(m_max=5, fue_min_capacity=(1.0, 2.0, 3.0, 4.0, 5.0))
        pinned = with_pinned_layout(config, build_topology(config))
        assert pinned.fue_min_capacity == config.fue_min_capacity
        assert pinned.fue_thresholds() == config.fue_thresholds()

    def test_pinned_sub_layout_names_the_threshold_count(self):
        # positive per-station thresholds for 5 stations cannot follow a 4-station layout
        config = ScenarioConfig(m_max=5, fue_min_capacity=(1.0,) * 5)
        topo = build_topology(config)
        sub = Topology(mbs=topo.mbs, mue=topo.mue, fbs=topo.fbs[:4], fue=topo.fue[:4])
        count = r"qos.fue_min_capacity has 5 values for phases.m_max = 4 stations"
        with pytest.raises(ConfigError, match=count):
            with_pinned_layout(config, sub)


class TestCli:
    def test_validate_config_ok(self, tmp_path, capsys):
        path = write_yaml(tmp_path / "c.yaml", FAST_RUN)
        assert main(["validate-config", "--config", path, "--quiet"]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_validate_config_error_exit_1(self, tmp_path, capsys):
        path = write_yaml(tmp_path / "c.yaml", {"rings": {"mbs_radii": [3, 2, 1]}})
        assert main(["validate-config", "--config", path]) == 1
        assert "not ascending" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate-config", "run", "oracle"])
    @pytest.mark.parametrize("case", SCENARIO_ERRORS)
    def test_scenario_errors_exit_1_naming_the_key(self, tmp_path, capsys, case, command):
        data, keys = SCENARIO_ERRORS[case]
        path = write_yaml(tmp_path / "c.yaml", data)
        assert main([command, "--config", path, "--out", str(tmp_path / "out"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert all(key in err for key in keys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "data",
        [
            {"radio": {"noise_dbm": -3236}},  # station 0's interference keeps the SINR finite
            {"reward": {"mue_capacity_exponent": 300}},
        ],
        ids=["subnormal_noise", "exponent_300"],
    )
    def test_values_short_of_overflow_run(self, tmp_path, data):
        steps = {"phases": {"m_max": 3}, "learning": {"max_iterations": 200}}
        path = write_yaml(tmp_path / "c.yaml", {**steps, **data})
        assert main(["run", "--config", path, "--out", str(tmp_path / "out"), "--quiet"]) == 0
        assert (tmp_path / "out" / "density_03.csv").exists()

    def test_largest_exponent_the_q_bound_accepts_runs(self, tmp_path, capsys):
        # the overflowing settings above at a tenth of the budget: the Q-value
        # bound refuses exponent 356 and lets 355 learn without overflow
        data, _ = SCENARIO_ERRORS["q_values_overflow"]
        data = {**data, "learning": {"gamma": 0.999, "max_iterations": 2000}}
        data["convergence"] = {"window": 2000}
        for exponent, code in ((356, 1), (355, 0)):
            data["reward"] = {"mue_capacity_exponent": exponent}
            path = write_yaml(tmp_path / "c.yaml", data)
            out = tmp_path / f"out{exponent}"
            assert main(["run", "--config", path, "--out", str(out), "--quiet"]) == code
            assert (out / "density_01.csv").exists() == (code == 0)
        assert "learning.gamma" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data",
        [
            {"radio": {"noise_dbm": 4000.0}},
            {"actions": {"p_max_dbm": 4000.0}},
            {
                "radio": {"noise_dbm": -4000.0},
                "actions": {"p_min_dbm": -4000.0, "p_max_dbm": -3999.0},
            },
        ],
        ids=["noise_overflows", "level_overflows", "noise_underflows"],
    )
    def test_dbm_past_float_range_exits_1_naming_the_key(self, tmp_path, capsys, data):
        path = write_yaml(tmp_path / "c.yaml", {**FAST_RUN, **data})
        assert main(["run", "--config", path, "--out", str(tmp_path / "out"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "must be a positive, finite power in mW" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "data",
        [
            {
                "layout": {
                    "fbs_positions": [[0.0, 0.0], [35.0, 0.0]],
                    "fue_positions": [[4.0, 3.0], [31.0, 6.5]],
                }
            },
            {"qos": {"fue_min_capacity": [1.0, 2.0]}},
        ],
        ids=["explicit_layout", "per_station_thresholds"],
    )
    def test_overrides_are_validated_with_the_yaml(self, tmp_path, capsys, data):
        # --m-max 2 meets a YAML whose lists need m_max = 2: valid together,
        # and the same config as the YAML that says so itself
        path = write_yaml(tmp_path / "c.yaml", data)
        twin = write_yaml(
            tmp_path / "twin.yaml",
            {**data, "phases": {"m_max": 2}, "run": {"seed": 3, "output_dir": "elsewhere"}},
        )
        args = ["--seed", "3", "--m-max", "2", "--out", "elsewhere"]
        assert main(["validate-config", "--config", path, *args]) == 0
        overridden = capsys.readouterr().out
        assert main(["validate-config", "--config", twin]) == 0
        assert capsys.readouterr().out == overridden
        assert config_hash(config_from_dict(load_yaml(twin))) in overridden

    def test_module_entry_point(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(Path(femtoq.__file__).parents[1])}

        def cli(*args):
            return subprocess.run(
                [sys.executable, "-m", "femtoq.cli", *args], env=env, capture_output=True, text=True
            )

        bad = tmp_path / "bad.yaml"
        bad.write_text("radio: {p_bs_dbm: .nan}", encoding="utf-8")
        refused = cli("validate-config", "--config", str(bad))
        assert refused.returncode == 1
        assert "radio.p_bs_dbm must be a finite number" in refused.stderr
        out = tmp_path / "out"
        config = write_yaml(tmp_path / "c.yaml", FAST_RUN)
        assert cli("run", "--config", config, "--out", str(out), "--quiet").returncode == 0
        assert (out / "summary.csv").exists()

    def test_run_writes_artifacts(self, tmp_path):
        config_path = write_yaml(tmp_path / "c.yaml", FAST_RUN)
        out = tmp_path / "out"
        assert main(["run", "--config", config_path, "--out", str(out), "--quiet"]) == 0
        expected = [
            "summary.csv",
            "density_01.csv",
            "density_02.csv",
            "plot_fue_capacities.csv",
            "manifest.json",
            "effective_config.yaml",
        ]
        assert sorted(p.name for p in out.iterdir()) == sorted(expected)

        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["m"]) for r in rows] == [1, 2]
        assert all(0.0 < float(r["jain"]) <= 1.0 for r in rows)

        with open(out / "manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["seed"] == 1
        assert set(manifest) >= {"config_hash", "femtoq_version", "numpy_version"}

    def test_writing_a_long_trace_holds_no_file_in_memory(self, tmp_path):
        config = ScenarioConfig(
            m_max=6,
            seed_agents=2,
            n_power=11,
            max_iterations=2000,
            convergence_window=5000,
            trace_stride=1,
            seed=1,
        )
        trace = Simulation(config).run()
        # every iteration of every step is kept: 42,000 rows across the density CSVs
        assert sum(s.iterations_to_converge * s.m for s in trace.summaries) == 42_000
        tracemalloc.start()
        try:
            write_run_artifacts(config, trace, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000, f"peak {peak / 1e6:.2f} MB while writing the artifacts"

    def test_reruns_byte_identical(self, tmp_path):
        config_path = write_yaml(tmp_path / "c.yaml", FAST_RUN)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", config_path, "--out", str(out_a), "--quiet"]) == 0
        assert main(["run", "--config", config_path, "--out", str(out_b), "--quiet"]) == 0
        for name in ("summary.csv", "density_01.csv", "density_02.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_seed_override_changes_hash_and_results(self, tmp_path):
        config_path = write_yaml(tmp_path / "c.yaml", FAST_RUN)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", config_path, "--out", str(out_a), "--quiet"]) == 0
        assert (
            main(["run", "--config", config_path, "--out", str(out_b), "--seed", "9", "--quiet"])
            == 0
        )
        manifest_a = json.loads((out_a / "manifest.json").read_text())
        manifest_b = json.loads((out_b / "manifest.json").read_text())
        assert manifest_a["config_hash"] != manifest_b["config_hash"]

    def test_oracle_cap_exit_3(self, tmp_path, capsys, monkeypatch):
        # default scenario: 31^15 joint actions is far past the cap
        monkeypatch.chdir(tmp_path)
        assert main(["oracle", "--quiet"]) == 3
        assert "31^15" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # not even the default output directory

    @pytest.mark.parametrize("command", ["validate-config", "oracle"])
    def test_oracle_cap_past_its_limit_exits_1_naming_the_key(self, tmp_path, capsys, command):
        # the pruned search's bound tables for 20 stations would pass numpy's 64 dimensions
        path = write_yaml(tmp_path / "c.yaml", {"run": {"oracle_cap": 10**40}})
        out = tmp_path / "out"
        args = ["--config", path, "--m-max", "20", "--out", str(out), "--quiet"]
        assert main([command, *args]) == 1
        assert capsys.readouterr().err.startswith("config error: run.oracle_cap must be <= ")
        assert not out.exists()

    @pytest.mark.parametrize("refusal, code", [("cap", 3), ("scenario", 1)])
    def test_refused_oracle_leaves_out_absent(self, tmp_path, refusal, code):
        if refusal == "cap":
            config = {}  # the default 31^15 joint actions
        else:
            config = SCENARIO_ERRORS["user_on_its_station"][0]
        path = write_yaml(tmp_path / "c.yaml", config)
        out = tmp_path / "out"
        assert main(["oracle", "--config", path, "--out", str(out), "--quiet"]) == code
        assert not out.exists()

    def test_oracle_writes_result_and_gap(self, tmp_path):
        data = dict(FAST_RUN)
        data = {
            **FAST_RUN,
            "actions": {"p_min_dbm": -20.0, "p_max_dbm": 25.0, "n_power": 4},
            "phases": {"m_max": 3, "seed_agents": 3},
        }
        config_path = write_yaml(tmp_path / "c.yaml", data)
        out = tmp_path / "out"
        assert main(["run", "--config", config_path, "--out", str(out), "--quiet"]) == 0
        assert main(["oracle", "--config", config_path, "--out", str(out), "--quiet"]) == 0

        with open(out / "oracle_result.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        assert int(row["n_enumerated"]) == 4**3
        with open(out / "summary.csv", newline="") as fh:
            learned = {int(r["m"]): float(r["sum_capacity"]) for r in csv.DictReader(fh)}
        # gap recomputed by hand from the two CSVs
        expected_gap = (float(row["best_objective"]) - learned[3]) / float(row["best_objective"])
        assert float(row["optimality_gap"]) == pytest.approx(expected_gap, rel=1e-12)
        assert float(row["learned_sum"]) == pytest.approx(learned[3], rel=1e-12)

    def test_oracle_cap_change_keeps_gap(self, tmp_path):
        data = {
            **FAST_RUN,
            "actions": {"p_min_dbm": -20.0, "p_max_dbm": 25.0, "n_power": 3},
            "phases": {"m_max": 2, "seed_agents": 2},
        }
        run_path = write_yaml(tmp_path / "run.yaml", data)
        oracle_path = write_yaml(
            tmp_path / "oracle.yaml", {**data, "run": {**data["run"], "oracle_cap": 1000}}
        )
        out = tmp_path / "out"
        assert main(["run", "--config", run_path, "--out", str(out), "--quiet"]) == 0
        assert main(["oracle", "--config", oracle_path, "--out", str(out), "--quiet"]) == 0
        with open(out / "oracle_result.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        assert row["optimality_gap"] != ""
        assert row["learned_sum"] != ""

    def test_oracle_without_matching_run_leaves_gap_blank(self, tmp_path):
        data = {
            **FAST_RUN,
            "actions": {"p_min_dbm": -20.0, "p_max_dbm": 25.0, "n_power": 3},
            "phases": {"m_max": 2, "seed_agents": 2},
        }
        config_path = write_yaml(tmp_path / "c.yaml", data)
        out = tmp_path / "fresh"
        assert main(["oracle", "--config", config_path, "--out", str(out), "--quiet"]) == 0
        with open(out / "oracle_result.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        assert row["optimality_gap"] == ""

    def test_oracle_with_mismatched_run_says_why_gap_is_blank(self, tmp_path, capsys):
        data = {
            **FAST_RUN,
            "actions": {"p_min_dbm": -20.0, "p_max_dbm": 25.0, "n_power": 3},
            "phases": {"m_max": 2, "seed_agents": 2},
        }
        config_path = write_yaml(tmp_path / "c.yaml", data)
        out = tmp_path / "out"
        assert main(["run", "--config", config_path, "--out", str(out), "--quiet"]) == 0
        capsys.readouterr()
        args = ["oracle", "--config", config_path, "--out", str(out), "--seed", "9", "--quiet"]
        assert main(args) == 0
        assert "from another configuration" in capsys.readouterr().err
        with open(out / "oracle_result.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        assert row["optimality_gap"] == ""

    @pytest.mark.parametrize(
        "name,text",
        [
            ("manifest.json", "[1, 2]\n"),
            ("manifest.json", "{bad\n"),
            ("summary.csv", "m,c_mue_final\r\n2,1.0\r\n"),
            ("summary.csv", "m,sum_capacity\r\nx,1.0\r\n"),
        ],
        ids=["manifest_list", "manifest_not_json", "summary_no_sum", "summary_bad_m"],
    )
    def test_oracle_with_unreadable_run_files_says_which(self, tmp_path, capsys, name, text):
        data = {
            **FAST_RUN,
            "actions": {"p_min_dbm": -20.0, "p_max_dbm": 25.0, "n_power": 3},
            "phases": {"m_max": 2, "seed_agents": 2},
        }
        config_path = write_yaml(tmp_path / "c.yaml", data)
        out = tmp_path / "out"
        assert main(["run", "--config", config_path, "--out", str(out), "--quiet"]) == 0
        (out / name).write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert main(["oracle", "--config", config_path, "--out", str(out), "--quiet"]) == 0
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"oracle: cannot read {out / name} ")
        with open(out / "oracle_result.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        assert row["learned_sum"] == "" and row["optimality_gap"] == ""
        assert float(row["best_objective"]) > 0

    def test_oracle_matches_a_run_configured_in_python(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = ScenarioConfig(
            m_max=3, seed_agents=2, n_power=5, max_iterations=200, d_th_m=25, output_dir=str(out)
        )
        run_experiment(config, quiet=True)
        args = ["oracle", "--config", str(out / "effective_config.yaml"), "--out", str(out)]
        assert main([*args, "--quiet"]) == 0
        assert capsys.readouterr().err == ""
        with open(out / "oracle_result.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        assert row["learned_sum"] != ""
        assert row["optimality_gap"] != ""

    def test_rerun_replaces_earlier_density_and_oracle_files(self, tmp_path):
        config_path = write_yaml(tmp_path / "c.yaml", {**FAST_RUN, "actions": {"n_power": 4}})
        out = tmp_path / "out"
        common = ["--config", config_path, "--out", str(out), "--quiet"]
        assert main(["run", *common, "--m-max", "4"]) == 0
        assert main(["oracle", *common, "--m-max", "4"]) == 0
        assert (out / "density_04.csv").exists() and (out / "oracle_result.csv").exists()
        (out / "notes.txt").write_text("not an artifact", encoding="utf-8")
        assert main(["run", *common, "--m-max", "2"]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "density_01.csv",
            "density_02.csv",
            "effective_config.yaml",
            "manifest.json",
            "notes.txt",
            "plot_fue_capacities.csv",
            "summary.csv",
        ]

    def test_run_deletes_only_the_files_it_writes(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        kept = ("density_notes.csv", "density_plan.csv", "density_.csv", "density_01.csv.bak")
        for name in (*kept, "density_100.csv", "density_07.csv"):
            (out / name).write_text("x", encoding="utf-8")
        config_path = write_yaml(tmp_path / "c.yaml", FAST_RUN)
        assert main(["run", "--config", config_path, "--out", str(out), "--quiet"]) == 0
        names = {p.name for p in out.iterdir()}
        assert set(kept) <= names
        assert not names & {"density_100.csv", "density_07.csv"}

    @pytest.mark.parametrize(
        "argv, code, text",
        [
            (["run", "--m-max", "1.5"], 1, "invalid int value: '1.5'"),
            (["oracle", "--seed", "x"], 1, "invalid int value: 'x'"),
            (["run", "--bogus"], 1, "unrecognized arguments: --bogus"),
            (["run", "--m-max", "0"], 1, "config error: phases.m_max"),
            (["--help"], 0, ""),
        ],
        ids=["float-m-max", "text-seed", "unknown-option", "zero-m-max", "help"],
    )
    def test_command_line_exit_codes(self, tmp_path, monkeypatch, capsys, argv, code, text):
        monkeypatch.chdir(tmp_path)  # a stray write would land here, not in the checkout
        try:
            result = main(argv)
        except SystemExit as exc:  # argparse exits itself
            result = exc.code
        captured = capsys.readouterr()
        assert result == code
        assert text in captured.err
        if code == 0:
            assert captured.out.startswith("usage: femtoq") and captured.err == ""
        elif "config error" not in text:
            assert captured.err.startswith("usage: femtoq")
        assert list(tmp_path.iterdir()) == []

    # a file, a link to nowhere and a link to itself, and paths under each
    @pytest.mark.parametrize("out", ["file", "file/sub", "dangling", "dangling/sub", "loop"])
    @pytest.mark.parametrize("command", ["validate-config", "run", "oracle"])
    def test_out_on_a_file_exits_1_before_any_work(
        self, tmp_path, capsys, monkeypatch, command, out
    ):
        def no_simulation(*args, **kwargs):
            raise AssertionError("a Simulation was built")

        monkeypatch.setattr("femtoq.cli.Simulation", no_simulation)
        target = tmp_path / "file"
        target.write_text("not a directory", encoding="utf-8")
        (tmp_path / "dangling").symlink_to("nowhere")
        (tmp_path / "loop").symlink_to("loop")
        path = write_yaml(tmp_path / "c.yaml", FAST_RUN)
        assert main([command, "--config", path, "--out", str(tmp_path / out), "--quiet"]) == 1
        assert capsys.readouterr().err.startswith("config error: run.output_dir ")
        assert target.read_text(encoding="utf-8") == "not a directory"
        assert os.readlink(tmp_path / "dangling") == "nowhere"
        assert os.readlink(tmp_path / "loop") == "loop"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.yaml", "dangling", "file", "loop"]

    @pytest.mark.parametrize(
        "text",
        [b"run:\n  seed: 1  # caf\xe9\n", b"\xff\xfer\x00u\x00n\x00:\x00"],
        ids=["latin-1", "utf-16"],
    )
    def test_config_file_not_in_utf8_exits_1(self, tmp_path, capsys, text):
        path = tmp_path / "c.yaml"
        path.write_bytes(text)
        assert main(["validate-config", "--config", str(path), "--quiet"]) == 1
        assert capsys.readouterr().err.startswith(f"config error: cannot read config file {path}: ")

    def test_unknown_reward_is_config_error(self, tmp_path, capsys):
        path = write_yaml(tmp_path / "c.yaml", {"reward": {"name": "mystery"}})
        assert main(["run", "--config", path]) == 1
        assert "not registered" in capsys.readouterr().err


def assert_density_csvs_match(trace, out_dir):
    write_run_artifacts(ScenarioConfig(), trace, out_dir)
    for m, density in trace.records.items():
        expected = density_csv(density, trace.admission_order[:m], trace.levels_dbm)
        assert (out_dir / f"density_{m:02d}.csv").read_bytes() == expected, f"density {m}"


class TestDensityCsv:
    """The density CSVs byte for byte against ``csv.writer`` over ``reference.density_rows``."""

    @pytest.mark.parametrize("stride", [1, 7])
    def test_runs(self, tmp_path, stride):
        config = ScenarioConfig(
            m_max=3, seed_agents=1, n_power=7, max_iterations=700, trace_stride=stride, seed=2
        )
        assert_density_csvs_match(Simulation(config).run(), tmp_path)

    def test_agent_ids_follow_the_admission_order(self, tmp_path):
        config = ScenarioConfig(
            m_max=5, seed_agents=1, n_power=5, max_iterations=100, trace_stride=7, seed=4
        )
        trace = Simulation(config).run()
        assert list(trace.admission_order) != sorted(trace.admission_order)
        write_run_artifacts(config, trace, tmp_path)
        for m, density in trace.records.items():
            with open(tmp_path / f"density_{m:02d}.csv", newline="", encoding="utf-8") as fh:
                ids = [int(row["agent_id"]) for row in csv.DictReader(fh)]
            assert ids == list(trace.admission_order[:m]) * len(density), m

    def test_odd_floats_single_rows_and_blocks(self, tmp_path):
        odd = np.array([1e-05, 1e16, -0.0, 0.1, -2.5e-300, 123456789.125, np.nan, -np.inf])
        levels = np.array([-20.0, 1e-05, -0.0, 1e16])
        rng = np.random.default_rng(5)

        def trace(m, n):
            t = trace_block(m, n)
            t.iteration = np.arange(n) * 3
            t.actions = rng.integers(0, len(levels), size=(n, m))
            t.c_mue = rng.choice(odd, size=n)
            t.c_fue = rng.choice(odd, size=(n, m))
            t.rewards = rng.uniform(-1.0, 1.0, size=(n, m)) * 10.0 ** rng.integers(-20, 20, (n, m))
            t.max_q_delta = rng.choice(odd, size=n)
            return t

        # step m's agents are the first m of the admission order
        records = {
            1: trace(1, 1),  # one station, one kept row
            2: trace(2, 1),
            3: trace(3, 1100),  # several write blocks
            4: trace(4, 1025),
        }
        assert_density_csvs_match(RunTrace((4, 0, 7, 2), levels, [], records), tmp_path)
