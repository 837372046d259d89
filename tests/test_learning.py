"""Tests for the action set, exploration horizon, update rule and learning constants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from femtoq.channel import ActionSet
from femtoq.config import ConfigError, ScenarioConfig
from femtoq.coordinator import explore_until
from reference import q_update, select_action

REL = 1e-9


class TestActionSet:
    def test_table_defaults(self):
        actions = ActionSet(-20.0, 25.0, 31)
        assert len(actions) == 31
        assert actions.levels_dbm[1] - actions.levels_dbm[0] == pytest.approx(1.5, rel=REL)
        assert actions.levels_dbm[0] == -20.0
        assert actions.levels_dbm[-1] == 25.0
        assert actions.levels_dbm[13] == pytest.approx(-0.5, rel=REL)

    def test_two_point_set(self):
        actions = ActionSet(0.0, 1.0, 2)
        assert list(actions.levels_dbm) == [0.0, 1.0]

    def test_uniform_steps(self):
        actions = ActionSet(-20.0, 25.0, 31)
        steps = np.diff(actions.levels_dbm)
        assert np.allclose(steps, steps[0], rtol=REL)

    def test_rejects_small_or_inverted(self):
        # the config refuses the sets ActionSet does not check itself
        with pytest.raises(ConfigError, match="actions.n_power must be >= 2"):
            ScenarioConfig(n_power=1)
        with pytest.raises(ConfigError, match="p_min_dbm must be below"):
            ScenarioConfig(p_min_dbm=1.0, p_max_dbm=0.0)

    def test_mw_levels_match_conversion(self):
        actions = ActionSet(-20.0, 25.0, 31)
        assert actions.levels_mw[0] == pytest.approx(0.01, rel=REL)
        assert actions.levels_mw[-1] == pytest.approx(10 ** 2.5, rel=REL)


class TestEpsilonSchedule:
    # iteration i explores with probability epsilon while i < explore_until
    def test_constant_during_exploration(self):
        horizon = explore_until(0.1, 0.8, 50_000)
        assert 0 < horizon and 39_999 < horizon

    def test_zero_after_cutoff(self):
        horizon = explore_until(0.1, 0.8, 50_000)
        assert not 40_000 < horizon and not 49_999 < horizon

    def test_disabled_schedule(self):
        assert 49_999 < explore_until(0.1, 1.0, 50_000)

    @pytest.mark.parametrize(
        "epsilon, explore_fraction, max_iterations",
        [(0.1, 0.33, 7), (0.1, 0.1, 3), (0.5, 1.0, 9), (0.5, 0.0, 9), (0.0, 0.5, 9), (1.0, 0.8, 1)],
    )
    def test_horizon_equals_the_float_compare(self, epsilon, explore_fraction, max_iterations):
        # 0.33 * 7 = 2.31 and 0.1 * 3 = 0.30000000000000004 are not integers
        horizon = explore_until(epsilon, explore_fraction, max_iterations)
        for i in range(max_iterations + 2):
            explores = epsilon > 0.0 and i < explore_fraction * max_iterations
            assert (i < horizon) == explores


class TestSelectAction:
    def test_greedy_argmax(self):
        rng = np.random.default_rng(0)
        assert select_action(np.array([1.0, 3.0, 2.0]), 0.0, rng) == 1

    def test_tie_breaks_to_lowest_index(self):
        rng = np.random.default_rng(0)
        assert select_action(np.zeros(5), 0.0, rng) == 0

    def test_full_exploration_is_uniform(self):
        rng = np.random.default_rng(123)
        qrow = np.array([0.0, 10.0, -5.0])
        n = 100_000
        counts = np.bincount(
            [select_action(qrow, 1.0, rng) for _ in range(n)], minlength=3
        )
        p = 1.0 / 3.0
        sigma = np.sqrt(n * p * (1 - p))
        assert np.all(np.abs(counts - n * p) < 3 * sigma)

    @given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=10),
           st.integers(min_value=-100, max_value=100))
    @settings(max_examples=50)
    def test_greedy_invariant_to_constant_shift(self, values, shift):
        # integer-valued rows keep the shifted comparison exact in floats
        rng = np.random.default_rng(1)
        row = np.array(values, dtype=float)
        assert select_action(row, 0.0, rng) == select_action(row + float(shift), 0.0, rng)

    def test_rejects_empty_row_and_bad_eps(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            select_action(np.array([]), 0.0, rng)
        with pytest.raises(ValueError):
            select_action(np.array([1.0]), 1.5, rng)

    def test_deterministic_given_seed(self):
        qrow = np.arange(5.0)
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        seq_a = [select_action(qrow, 0.3, rng_a) for _ in range(200)]
        seq_b = [select_action(qrow, 0.3, rng_b) for _ in range(200)]
        assert seq_a == seq_b


class TestQUpdate:
    def test_full_overwrite(self):
        row = np.array([5.0, 6.0, 7.0, 8.0])
        assert q_update(row, 2, -3.5, alpha=1.0, gamma=0.0) == pytest.approx(-3.5)

    def test_alpha_zero_is_identity(self):
        row = np.array([1.0, 2.0, 3.0, 4.0])
        before = row.copy()
        q_update(row, 1, 100.0, alpha=0.0, gamma=0.9)
        assert np.array_equal(row, before)

    def test_hand_computed_update(self):
        # 0.5 * 2 + 0.5 * (1 + 0.9 * 4) = 3.3
        row = np.array([2.0, 4.0, 1.0, 2.0])
        assert q_update(row, 0, 1.0, alpha=0.5, gamma=0.9) == pytest.approx(3.3, rel=REL)

    def test_exactly_one_entry_changes(self):
        row = np.zeros(4)
        q_update(row, 3, 1.0, alpha=0.5, gamma=0.9)
        assert np.flatnonzero(row).tolist() == [3]

    def test_out_of_range_indices_rejected(self):
        with pytest.raises(IndexError):
            q_update(np.zeros(4), 7, 1.0, alpha=0.5, gamma=0.9)

    def test_fixed_point_constant_reward(self):
        # repeated updates of one action with a constant reward contract
        # to R / (1 - gamma)
        row = np.zeros(1)
        reward = 2.5
        for _ in range(2000):
            q_update(row, 0, reward, alpha=0.5, gamma=0.9)
        assert row[0] == pytest.approx(reward / (1 - 0.9), abs=1e-6)

    @given(st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=300))
    @settings(max_examples=40)
    def test_bounded_by_reward_scale(self, rewards):
        row = np.zeros(3)
        rng = np.random.default_rng(0)
        for r in rewards:
            q_update(row, int(rng.integers(3)), r, alpha=0.5, gamma=0.9)
        bound = max(abs(r) for r in rewards) / (1 - 0.9) + 1e-9
        assert np.all(np.abs(row) <= bound)


class TestLearningParams:
    # the learner reads alpha, gamma, epsilon and the schedule from the config, which checks them
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": -0.1},
            {"alpha": 1.5},
            {"gamma": -0.1},
            {"gamma": 1.1},
            {"epsilon": 2.0},
            {"explore_fraction": 1.2},
            {"max_iterations": 0},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ConfigError, match=f"learning.{next(iter(kwargs))}"):
            ScenarioConfig(**kwargs)
