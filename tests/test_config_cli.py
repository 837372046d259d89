"""Tests for config loading/validation/hashing and the command-line interface."""

import csv
import json
from dataclasses import replace

import pytest
import yaml

from femtoq.cli import main
from femtoq.config import (
    ConfigError,
    ScenarioConfig,
    build_topology,
    config_from_dict,
    config_hash,
    config_to_dict,
    load_config,
    with_pinned_layout,
)

FAST_RUN = {
    "phases": {"m_max": 2, "seed_agents": 1},
    "learning": {"max_iterations": 200},
    "convergence": {"window": 40},
    "run": {"trace_stride": 20},
}


def write_yaml(path, data):
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return str(path)


class TestConfigDefaults:
    def test_empty_file_gives_reference_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("", encoding="utf-8")
        config = load_config(path)
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
        ],
    )
    def test_invariant_violations_name_the_key(self, section, key, value, fragment):
        with pytest.raises(ConfigError, match=fragment):
            config_from_dict({section: {key: value}})

    def test_explicit_layout_must_be_paired(self):
        with pytest.raises(ConfigError, match="given together"):
            config_from_dict({"layout": {"fbs_positions": [[0.0, 0.0]]}, "phases": {"m_max": 1}})

    def test_per_station_thresholds_validated(self):
        with pytest.raises(ConfigError, match="fue_min_capacity"):
            config_from_dict({"qos": {"fue_min_capacity": [1.0, 1.0]}, "phases": {"m_max": 3}})
        ok = config_from_dict({"qos": {"fue_min_capacity": [1.0, 2.0]}, "phases": {"m_max": 2}})
        assert ok.fue_thresholds() == (1.0, 2.0)

    def test_malformed_yaml_reported(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("rings: [unclosed", encoding="utf-8")
        with pytest.raises(ConfigError, match="malformed YAML"):
            load_config(path)

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "missing.yaml")


class TestConfigRoundTrip:
    def test_dict_round_trip_is_hash_stable(self, tmp_path):
        config = ScenarioConfig(seed=7, m_max=5)
        path = tmp_path / "out.yaml"
        write_yaml(path, config_to_dict(config))
        reloaded = load_config(path)
        assert reloaded == config
        assert config_hash(reloaded) == config_hash(config)

    def test_hash_changes_iff_parameters_change(self):
        base = ScenarioConfig()
        assert config_hash(base) == config_hash(ScenarioConfig())
        for change in ({"seed": 2}, {"m_max": 5}, {"alpha": 0.4}, {"d_th_m": 30.0}):
            assert config_hash(replace(base, **change)) != config_hash(base)

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
        reloaded = load_config(path)
        assert build_topology(reloaded) == topo


class TestCli:
    def test_validate_config_ok(self, tmp_path, capsys):
        path = write_yaml(tmp_path / "c.yaml", FAST_RUN)
        assert main(["validate-config", "--config", path, "--quiet"]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_validate_config_error_exit_1(self, tmp_path, capsys):
        path = write_yaml(tmp_path / "c.yaml", {"rings": {"mbs_radii": [3, 2, 1]}})
        assert main(["validate-config", "--config", path]) == 1
        assert "not ascending" in capsys.readouterr().err

    def test_run_writes_artifacts(self, tmp_path):
        config_path = write_yaml(tmp_path / "c.yaml", FAST_RUN)
        out = tmp_path / "out"
        assert main(["run", "--config", config_path, "--out", str(out), "--quiet"]) == 0
        expected = [
            "summary.csv",
            "density_01.csv",
            "density_02.csv",
            "plot_mue_capacity.csv",
            "plot_fue_capacities.csv",
            "plot_sum_capacity.csv",
            "plot_convergence_iterations.csv",
            "plot_jain_index.csv",
            "manifest.json",
            "effective_config.yaml",
        ]
        for name in expected:
            assert (out / name).exists(), name

        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["m"]) for r in rows] == [1, 2]
        assert all(0.0 < float(r["jain"]) <= 1.0 for r in rows)

        with open(out / "manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["seed"] == 1
        assert set(manifest) >= {"config_hash", "femtoq_version", "numpy_version"}

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

    def test_oracle_cap_exit_3(self, tmp_path, capsys):
        # default scenario: 31^15 joint actions is far past the cap
        assert main(["oracle", "--quiet"]) == 3
        assert "31^15" in capsys.readouterr().err

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

    def test_unknown_reward_is_config_error(self, tmp_path, capsys):
        path = write_yaml(tmp_path / "c.yaml", {"reward": {"name": "mystery"}})
        assert main(["run", "--config", path]) == 1
        assert "not registered" in capsys.readouterr().err
