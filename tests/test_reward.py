"""Tests for the QoS-aware reward function and the table of reward names."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from femtoq.config import ConfigError, ScenarioConfig
from femtoq.reward import REWARDS, proposed_reward_vector
from reference import proposed_reward

REL = 1e-9


def reward(c_fue=1.0, c_mue=1.0, proximity=1.0, q_fue=1.0, q_mue=1.0, **kwargs):
    """The proposed reward of one agent, through the array function."""
    rewards = proposed_reward_vector(
        np.array([c_fue]), c_mue, np.array([proximity]), np.array([q_fue]), q_mue, **kwargs
    )
    return float(rewards[0])


class TestProposedReward:
    def test_all_targets_met_exactly(self):
        assert reward() == pytest.approx(1.0, rel=REL)

    def test_everything_at_zero(self):
        assert reward(c_fue=0.0, c_mue=0.0) == pytest.approx(-2.0, rel=REL)

    def test_half_proximity_case(self):
        assert reward(c_fue=2.0, c_mue=1.0, proximity=0.5) == pytest.approx(0.0, abs=1e-12)

    def test_qos_point_value(self):
        # at the QoS-satisfying point the reward is proximity * q_fue * q_mue^2
        for prox, qf, qm in [(0.5, 1.0, 1.0), (2.0, 1.5, 0.7), (3.7, 0.4, 2.0)]:
            value = reward(c_fue=qf, c_mue=qm, proximity=prox, q_fue=qf, q_mue=qm)
            assert value == pytest.approx(prox * qf * qm**2, rel=REL)

    @given(
        st.floats(min_value=0.1, max_value=8.0),
        st.floats(min_value=0.0, max_value=8.0),
        st.floats(min_value=0.2, max_value=5.0),
    )
    @settings(max_examples=100)
    def test_partial_derivative_in_fue_capacity(self, c_fue, c_mue, prox):
        # dR/dC_fue = prox * C_mue^2 - 2 (C_fue - q) checked by central differences
        h = 1e-5
        up = reward(c_fue=c_fue + h, c_mue=c_mue, proximity=prox)
        down = reward(c_fue=c_fue - h, c_mue=c_mue, proximity=prox)
        numeric = (up - down) / (2 * h)
        analytic = prox * c_mue**2 - 2.0 * (c_fue - 1.0)
        assert numeric == pytest.approx(analytic, abs=1e-6)

    def test_distant_stations_penalized_less_below_threshold(self):
        # same capacities, macro user below threshold: reward strictly
        # increases with the proximity ratio
        values = [reward(c_fue=1.0, c_mue=0.5, proximity=p) for p in (0.25, 0.5, 1.0, 2.0, 4.0)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_gain_term_degrees(self):
        # after adding back the two penalty terms, the gain term is linear in
        # the femto capacity and quadratic in the macro capacity
        prox, q = 1.7, 1.0
        c_mue = 1.3

        def gain(c_fue, c_mue):
            r = reward(c_fue=c_fue, c_mue=c_mue, proximity=prox)
            return r + (c_mue - q) ** 2 / prox + (c_fue - q) ** 2

        xs = np.linspace(0.0, 6.0, 13)
        fit = np.polyfit(xs, [gain(x, c_mue) for x in xs], deg=2)
        assert fit[0] == pytest.approx(0.0, abs=1e-8)            # no quadratic part
        assert fit[1] == pytest.approx(prox * c_mue**2, rel=1e-6)
        c_fue = 2.0
        fit = np.polyfit(xs, [gain(c_fue, x) for x in xs], deg=3)
        assert fit[0] == pytest.approx(0.0, abs=1e-8)            # no cubic part
        assert fit[1] == pytest.approx(prox * c_fue, rel=1e-6)   # quadratic coefficient

    def test_exponent_override(self):
        linear = reward(c_fue=2.0, c_mue=3.0, proximity=1.0, mue_capacity_exponent=1)
        assert linear == pytest.approx(2.0 * 3.0 - 4.0 - 1.0, rel=REL)


class TestVectorizedReward:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_scalar(self, seed):
        rng = np.random.default_rng(seed)
        m = 6
        c_fue = rng.uniform(0, 8, m)
        prox = rng.uniform(0.3, 4, m)
        q_fue = rng.uniform(0.5, 2, m)
        c_mue, q_mue = 1.7, 1.0
        vec = proposed_reward_vector(c_fue, c_mue, prox, q_fue, q_mue)
        for i in range(m):
            scalar = proposed_reward(float(c_fue[i]), c_mue, float(prox[i]), float(q_fue[i]), q_mue)
            assert vec[i] == pytest.approx(scalar, rel=1e-12)



class TestRegistry:
    def test_builtin_is_available(self):
        assert dict(REWARDS) == {"proposed": proposed_reward_vector}

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="reward.name 'nope' is not registered"):
            ScenarioConfig(reward_name="nope")

    def test_custom_registration(self):
        # a custom reward goes to Simulation(reward_fn=...), never into the shared table
        with pytest.raises(TypeError):
            REWARDS["constant_for_test"] = lambda *args: 4.2
        assert "constant_for_test" not in REWARDS


class TestQosThresholds:
    def test_rejects_nonpositive(self):
        # QosThresholds carries what ScenarioConfig has checked
        with pytest.raises(ConfigError, match="qos.mue_min_capacity"):
            ScenarioConfig(mue_min_capacity=0.0)
        with pytest.raises(ConfigError, match="qos.fue_min_capacity"):
            ScenarioConfig(m_max=2, fue_min_capacity=(1.0, -1.0))
