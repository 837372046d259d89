"""Tests for the simulation loop, row sharing, convergence, and metrics."""

import copy
from dataclasses import replace
from functools import cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from femtoq import coordinator
from femtoq.channel import dbm_to_mw
from femtoq.cli import write_run_artifacts
from femtoq.config import ScenarioConfig
from femtoq.coordinator import (
    DensityStep,
    DensitySummary,
    Simulation,
    check_constraints,
    jain_index,
)
from femtoq.reward import QosThresholds
from femtoq.topology import AgentState
from reference import (
    LoopDensityStep,
    capacity_bps_hz,
    detect_convergence,
    explore_action,
    fue_sinr,
    mue_sinr,
    q_update,
    share_active_rows,
)


def tiny_config(**overrides):
    defaults = dict(
        m_max=3,
        seed_agents=2,
        max_iterations=300,
        convergence_window=50,
        trace_stride=25,
        seed=11,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def generator_states(sim):
    return [a.rng.bit_generator.state for a in sim.agents]


def draw_scalar(config, agent, count):
    """``agent``'s next ``count`` per-iteration explore draws, 0 where it does not explore."""
    return [explore_action(config.epsilon, config.n_power, agent.rng) or 0 for _ in range(count)]


def step_row(step, iteration):
    """Run one iteration of ``step`` and return what it reports, by trace column."""
    actions, c_mue, c_fue, rewards, delta = step.step(iteration)
    return SimpleNamespace(
        actions=actions.tolist(),
        c_mue=c_mue,
        c_fue=c_fue.tolist(),
        rewards=rewards.tolist(),
        max_q_delta=delta,
    )


class TestJainIndex:
    def test_equal_values_give_one(self):
        assert jain_index([3.0, 3.0, 3.0]) == pytest.approx(1.0)

    def test_single_winner(self):
        assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_hand_computed(self):
        assert jain_index([1.0, 2.0, 3.0]) == pytest.approx(6.0 / 7.0, rel=1e-9)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            jain_index([0.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            jain_index([])

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=20))
    @settings(max_examples=100)
    def test_range(self, values):
        if sum(v * v for v in values) == 0:
            return
        assert 0.0 < jain_index(values) <= 1.0 + 1e-12


class TestShareActiveRows:
    def test_same_state_pair_averages(self):
        rows = [np.array([0.0, 2.0]), np.array([2.0, 0.0])]
        share_active_rows(rows, [AgentState(1, 1), AgentState(1, 1)])
        assert np.array_equal(rows[0], [1.0, 1.0])
        assert np.array_equal(rows[1], [1.0, 1.0])

    def test_distinct_states_untouched(self):
        rows = [np.array([0.0, 2.0]), np.array([2.0, 0.0])]
        share_active_rows(rows, [AgentState(0, 0), AgentState(1, 1)])
        assert np.array_equal(rows[0], [0.0, 2.0])
        assert np.array_equal(rows[1], [2.0, 0.0])

    def test_idempotent(self):
        rows = [np.array([0.0, 4.0]), np.array([2.0, 2.0]), np.array([1.0, 0.0])]
        states = [AgentState(0, 0), AgentState(0, 0), AgentState(0, 0)]
        share_active_rows(rows, states)
        snapshot = [r.copy() for r in rows]
        share_active_rows(rows, states)
        for before, after in zip(snapshot, rows):
            assert np.array_equal(before, after)

    @given(
        st.lists(
            st.lists(st.floats(min_value=-50, max_value=50), min_size=4, max_size=4),
            min_size=2,
            max_size=6,
        )
    )
    @settings(max_examples=50)
    def test_group_mean_preserved(self, raw_rows):
        rows = [np.array(r) for r in raw_rows]
        states = [AgentState(0, 0)] * len(rows)
        before = np.mean(rows, axis=0)
        share_active_rows(rows, states)
        assert np.allclose(np.mean(rows, axis=0), before, atol=1e-9)

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ValueError):
            share_active_rows([np.zeros(2)], [])


@cache
def sharing_sim(n_power: int) -> Simulation:
    # alpha = 0 leaves every updated entry as it was, so only sharing moves a row
    return Simulation(tiny_config(m_max=42, n_power=n_power, alpha=0.0))


class TestSharingGroups:
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=6),
        n=st.integers(min_value=2, max_value=9),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_group_means_equal_np_mean(self, sizes, n, seed):
        # group g has sizes[g] members (size 1 is a singleton), shuffled
        rng = np.random.default_rng(seed)
        states = [AgentState(g, 0) for g, k in enumerate(sizes) for _ in range(k)]
        states = [states[i] for i in rng.permutation(len(states))]
        rows = rng.normal(scale=rng.choice([1e-3, 1.0, 1e6]), size=(len(states), n))
        sim = copy.copy(sharing_sim(n))  # with its own Q matrix
        sim.q = np.zeros_like(sim.q)
        sim.q[: len(states)] = rows
        agents = [replace(a, state=state) for a, state in zip(sim.agents, states)]

        expected = [r.copy() for r in rows]
        share_active_rows(expected, states)
        step = DensityStep(sim, agents, sharing=True)
        step.step(step._explore_until)  # a greedy iteration draws nothing

        assert np.array_equal(step.q, np.array(expected))
        singles = [i for i, state in enumerate(states) if states.count(state) == 1]
        assert np.array_equal(step.q[singles], rows[singles])
        padding = np.setdiff1d(np.arange(len(step._buf)), step._row)
        assert not step._buf[padding].any()

    def test_buffer_holds_padded_groups_then_singletons(self):
        sim = Simulation(tiny_config(m_max=6, seed_agents=6))
        a, b, c = AgentState(0, 0), AgentState(1, 0), AgentState(2, 0)
        agents = [replace(x, state=s) for x, s in zip(sim.agents, [a, b, a, c, b, a])]
        step = DensityStep(sim, agents, sharing=True)
        # a's three members, b's two and a zero row, then the singleton c
        assert step._row.tolist() == [0, 3, 1, 6, 4, 2]
        assert step._buf.shape == (7, sim.config.n_power)
        assert step._counts.ravel().tolist() == [3.0, 2.0]
        step = DensityStep(sim, agents, sharing=False)
        assert step._row.tolist() == list(range(6))
        assert step._buf.shape == (6, sim.config.n_power)


class TestDetectConvergence:
    CRIT = dict(window=5, tolerance=1e-3)

    def test_all_zero_deltas(self):
        assert detect_convergence([0.0] * 5, **self.CRIT)

    def test_any_large_delta_blocks(self):
        assert not detect_convergence([0.0, 0.0, 1e-3, 0.0, 0.0], **self.CRIT)

    def test_insufficient_history(self):
        assert not detect_convergence([0.0] * 4, **self.CRIT)

    def test_only_trailing_window_counts(self):
        assert detect_convergence([5.0, 0.0, 0.0, 0.0, 0.0, 0.0], **self.CRIT)

    def test_streak_counter_equivalence(self):
        # the simulation's O(1) streak counter must fire exactly when the
        # windowed detector would
        rng = np.random.default_rng(3)
        deltas = list(rng.choice([0.0, 1e-4, 5e-3], size=200, p=[0.5, 0.3, 0.2]))
        window, tolerance = 7, 1e-3
        streak, fired_streak = 0, None
        for i, d in enumerate(deltas):
            streak = streak + 1 if d < tolerance else 0
            if fired_streak is None and streak >= window:
                fired_streak = i
        fired_window = None
        for i in range(len(deltas)):
            if fired_window is None and detect_convergence(deltas[: i + 1], window, tolerance):
                fired_window = i
        assert fired_streak == fired_window

    def test_alpha_zero_run_converges_at_window(self):
        config = tiny_config(
            alpha=0.0, m_max=1, seed_agents=1, max_iterations=500, convergence_window=50
        )
        summary = Simulation(config).run().summaries[0]
        assert summary.iterations_to_converge == 50
        assert summary.converged

    def test_early_stop_leaves_generators_at_its_draws(self):
        # every step converges after 50 of its 400 exploring iterations; the
        # station admitted at position p takes part in m_max - p steps
        config = tiny_config(
            alpha=0.0, m_max=3, seed_agents=3, max_iterations=500, convergence_window=50
        )
        sim, twin = Simulation(config), Simulation(config)
        summaries = sim.run().summaries
        assert [s.iterations_to_converge for s in summaries] == [50, 50, 50]
        for position, aid in enumerate(twin.admission_order):
            draw_scalar(config, twin.agents[aid], 50 * (config.m_max - position))
        assert generator_states(sim) == generator_states(twin)


class TestDensityStep:
    def test_single_agent_greedy_first_step(self):
        config = tiny_config(m_max=1, seed_agents=1, explore_fraction=0.0)
        sim = Simulation(config)
        step = DensityStep(sim, [sim.agents[0]], sharing=False)
        record = step_row(step, 0)
        assert record.actions == [0]  # zero Q-row ties break to lowest power
        assert sim.actions.levels_dbm[record.actions].tolist() == [config.p_min_dbm]
        assert record.rewards[0] != 0.0

    def test_update_equals_reference_q_update(self):
        config = tiny_config(m_max=4, seed_agents=4)
        sim = Simulation(config)
        sim.q[:] = np.random.default_rng(0).normal(size=sim.q.shape)
        step = DensityStep(sim, list(sim.agents), sharing=False)
        before = step.q
        record = step_row(step, 0)
        for i, (action, reward) in enumerate(zip(record.actions, record.rewards)):
            row = before[i].copy()
            q_update(row, action, reward, config.alpha, config.gamma)
            assert np.array_equal(step.q[i], row)

    def test_run_writes_rows_back(self):
        config = tiny_config(m_max=3, seed_agents=3)
        sim = Simulation(config)
        assert sim.q.shape == (3, config.n_power) and not sim.q.any()
        step = DensityStep(sim, [sim.agents[2], sim.agents[0]], sharing=False)
        step.run()
        assert np.array_equal(sim.q[[2, 0]], step.q)
        assert not sim.q[1].any()

    def test_one_update_per_agent_per_step(self):
        config = tiny_config(m_max=3, seed_agents=3)
        sim = Simulation(config)
        step = DensityStep(sim, list(sim.agents), sharing=False)
        before = step.q
        step.step(0)
        changed_per_agent = (step.q != before).sum(axis=1)
        assert np.all(changed_per_agent == 1)

    def test_capacities_match_recomputation_from_powers(self):
        config = tiny_config(m_max=3, seed_agents=3, trace_stride=1)
        sim = Simulation(config)
        step = DensityStep(sim, list(sim.agents), sharing=False)
        noise = sim.noise_mw
        for it in range(20):
            rec = step_row(step, it)
            powers_mw = np.array([dbm_to_mw(p) for p in sim.actions.levels_dbm[rec.actions]])
            c_mue = capacity_bps_hz(mue_sinr(sim.p_bs_mw, powers_mw, sim.gains, noise))
            assert rec.c_mue == pytest.approx(c_mue, rel=1e-12)
            for i in range(3):
                c = capacity_bps_hz(fue_sinr(i, sim.p_bs_mw, powers_mw, sim.gains, noise))
                assert rec.c_fue[i] == pytest.approx(c, rel=1e-12)

    @pytest.mark.parametrize("sharing", [True, False])
    def test_q_delta_is_full_matrix_change(self, sharing):
        config = tiny_config(m_max=6, seed_agents=1, seed=3, trace_stride=1)
        sim = Simulation(config)
        step = DensityStep(sim, list(sim.agents), sharing=sharing)
        assert len(step._counts) == (2 if sharing else 0)
        for it in range(30):
            before = step.q
            delta = step_row(step, it).max_q_delta
            assert delta == float(np.abs(step.q - before).max())

    def test_non_finite_row_rejected_at_construction(self):
        config = tiny_config(m_max=3, seed_agents=3, explore_fraction=0.0)
        sim = Simulation(config)
        sim.q[1, -1] = -np.inf
        with pytest.raises(FloatingPointError, match=r"agent 1 .* m=3 after 0 iterations"):
            DensityStep(sim, list(sim.agents), sharing=False)
        DensityStep(sim, [sim.agents[0], sim.agents[2]], sharing=False)  # other rows are fine

    def test_non_finite_entry_raises_on_its_iteration(self):
        calls = iter(range(10))

        def reward_fn(c_fue, *_):
            return np.full_like(c_fue, np.inf if next(calls) == 4 else 1.0)

        sim = Simulation(tiny_config(), reward_fn=reward_fn)
        step = DensityStep(sim, [sim.agents[0]], sharing=False)
        for it in range(4):
            step.step(it)
        with pytest.raises(FloatingPointError, match=r"agent 0 .* m=1 after 5 iterations"):
            step.step(4)

    def test_no_draws_from_the_exploration_horizon_on(self):
        config = tiny_config(epsilon=1.0, explore_fraction=0.33, max_iterations=7)
        sim, twin = Simulation(config), Simulation(config)
        step = DensityStep(sim, list(sim.agents), sharing=False)
        assert step._explore_until == 3  # ceil(0.33 * 7)

        # construction draws the whole horizon, and no step moves a generator
        for agent in twin.agents:
            draw_scalar(config, agent, 3)
        assert generator_states(sim) == generator_states(twin)
        for it in (3, 2, 6, 0):
            step.step(it)
        assert generator_states(sim) == generator_states(twin)

    @pytest.mark.parametrize("sharing", [True, False])
    def test_step_applies_its_own_iterations_draws(self, sharing):
        # alpha = 0 keeps every Q-row zero, so the greedy action is 0 and a
        # step's actions are its iteration's explore draws, in any call order
        config = tiny_config(
            alpha=0.0, m_max=4, seed_agents=4, epsilon=0.5, explore_fraction=0.5, max_iterations=80
        )
        sim, twin = Simulation(config), Simulation(config)
        step = DensityStep(sim, list(sim.agents), sharing=sharing)
        drawn = np.array([draw_scalar(config, agent, 40) for agent in twin.agents]).T
        assert drawn.any(axis=1).sum() > 20  # most iterations explore
        states = generator_states(sim)
        order = np.random.default_rng(0).permutation(80).tolist()
        for it in order + order[:10]:
            expected = drawn[it].tolist() if it < 40 else [0] * 4
            assert step.step(it)[0].tolist() == expected, it
        assert generator_states(sim) == states

    def test_default_reward_takes_the_config_exponent(self):
        sim = Simulation(tiny_config(mue_capacity_exponent=1))
        one = np.array([1.0])
        rewards = sim.reward_fn(np.array([2.0]), 3.0, one, one, 1.0)
        assert rewards.tolist() == [2.0 * 3.0 - 4.0 - 1.0]

    def test_non_finite_q_value_raises_after_density_step(self):
        sim = Simulation(tiny_config(), reward_fn=lambda c_fue, *_: np.full_like(c_fue, np.nan))
        with pytest.raises(FloatingPointError, match=r"agent 0 .* m=1 after 1 iterations"):
            sim.run()

    def test_sharing_groups_act_identically_when_greedy(self):
        config = tiny_config(m_max=4, seed_agents=1, explore_fraction=0.0, seed=5)
        sim = Simulation(config)
        same_state = [a for a in sim.agents if a.state == sim.agents[1].state]
        if len(same_state) < 2:
            pytest.skip("layout did not produce a shared state group")
        step = DensityStep(sim, same_state, sharing=True)
        step.step(0)
        second = step_row(step, 1)
        assert len(set(second.actions)) == 1


class TestSimulationProtocol:
    def test_summary_per_density(self):
        config = tiny_config()
        trace = Simulation(config).run()
        assert [s.m for s in trace.summaries] == [1, 2, 3]

    def test_admission_order_seeds_first(self):
        config = tiny_config(m_max=6, seed_agents=4)
        sim = Simulation(config)
        assert sim.admission_order[:4] == (0, 1, 2, 3)
        assert sorted(sim.admission_order) == list(range(6))

    def test_seed_agents_beyond_m_max_stay_individual(self):
        # what ``femtoq run --m-max 3`` does under the default seed_agents=4
        config = tiny_config(m_max=3, seed_agents=5, max_iterations=100, seed=4)
        sim = Simulation(config)
        assert sim.admission_order == (0, 1, 2)
        states = [a.state for a in sim.agents]
        sim.run()
        same = [a for a in sim.agents if states.count(a.state) > 1]
        if len(same) < 2:
            pytest.skip("no shared state in this layout")
        # neither a warm start nor sharing: same-state rows diverge
        rows = [sim.q[a.agent_id] for a in same]
        assert not all(np.array_equal(rows[0], r) for r in rows[1:])

    def test_second_run_returns_the_same_trace(self):
        config = tiny_config(trace_stride=1)
        sim = Simulation(config)
        trace = sim.run()
        summaries = list(trace.summaries)
        records = dict(trace.records)
        q = sim.q.copy()
        assert sim.run() is trace
        assert len(trace.summaries) == config.m_max
        assert trace.summaries == summaries
        assert trace.records.keys() == records.keys()
        assert all(trace.records[m] is records[m] for m in records)
        assert np.array_equal(sim.q, q)

    def test_warm_start_copies_single_peer_row(self):
        config = tiny_config(m_max=4, seed_agents=2, seed=2)
        sim = Simulation(config)
        veteran = sim.agents[0]
        newcomer = next(a for a in sim.agents[1:] if a.state == veteran.state)
        sim.q[veteran.agent_id] = np.arange(config.n_power, dtype=float)
        sim._warm_start(newcomer, [veteran])
        assert np.array_equal(sim.q[newcomer.agent_id], sim.q[veteran.agent_id])

    def test_warm_start_without_peer_leaves_zeros(self):
        config = tiny_config(m_max=4, seed_agents=2, seed=2)
        sim = Simulation(config)
        loner = sim.agents[1]
        others = [a for a in sim.agents if a is not loner and a.state != loner.state]
        sim._warm_start(loner, others)
        assert np.all(sim.q[loner.agent_id] == 0.0)

    def test_individual_phase_never_shares(self):
        # force all seed agents into one state; without sharing their rows
        # must diverge (different rewards), with sharing they would be equal
        config = tiny_config(m_max=3, seed_agents=3, max_iterations=100, seed=4)
        sim = Simulation(config)
        states = [a.state for a in sim.agents]
        if len(set(states)) == len(states):
            pytest.skip("no shared state in this layout")
        sim.run()
        same = [a for a in sim.agents if states.count(a.state) > 1]
        rows = [sim.q[a.agent_id] for a in same]
        assert not all(np.array_equal(rows[0], r) for r in rows[1:])

    def test_full_run_deterministic(self):
        config = tiny_config(trace_stride=1)
        trace_a = Simulation(config).run()
        trace_b = Simulation(config).run()
        assert trace_a.admission_order == trace_b.admission_order
        assert trace_a.summaries == trace_b.summaries
        assert trace_a.records.keys() == trace_b.records.keys()
        for m, a in trace_a.records.items():
            b = trace_b.records[m]
            for name in a.dtype.names:
                assert np.array_equal(a[name], b[name]), (m, name)

    def test_runs_on_one_config_object_leave_no_state_behind(self, tmp_path):
        # the learning constants are read from the config object itself, so two
        # simulations built on it, run out of order, must each write what a run
        # on its own writes, byte for byte
        config = tiny_config(m_max=4, trace_stride=10)
        write_run_artifacts(config, Simulation(config).run(), tmp_path / "fresh")
        sim_a, sim_b = Simulation(config), Simulation(config)
        sim_b.run()
        write_run_artifacts(config, sim_a.run(), tmp_path / "a")
        for name in ["summary.csv", *(f"density_{m:02d}.csv" for m in range(1, 5))]:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()

    def test_seed_changes_trajectory(self):
        trace_a = Simulation(tiny_config(seed=1)).run()
        trace_b = Simulation(tiny_config(seed=2)).run()
        assert trace_a.summaries != trace_b.summaries

    def test_sharing_flag_off_disables_groups(self):
        config = tiny_config(m_max=4, seed_agents=1, sharing_enabled=False, seed=5)
        sim = Simulation(config)
        trace = sim.run()
        states = [a.state for a in sim.agents]
        same = [a for a in sim.agents if states.count(a.state) > 1]
        if len(same) < 2:
            pytest.skip("no shared state in this layout")
        rows = [sim.q[a.agent_id] for a in same]
        assert not all(np.array_equal(rows[0], r) for r in rows[1:])

    def test_record_budget_respected(self):
        config = tiny_config(trace_stride=1)
        trace = Simulation(config).run()
        for m, records in trace.records.items():
            assert len(records) <= config.max_iterations

    @pytest.mark.parametrize(
        "max_iterations, stride",
        [(7, 3), (8, 3), (9, 3), (5, 1), (1, 1), (1, 4), (10, 10), (11, 10)],
    )
    def test_kept_rows_follow_the_stride_rule(self, max_iterations, stride):
        config = tiny_config(
            m_max=1,
            seed_agents=1,
            max_iterations=max_iterations,
            convergence_window=max_iterations + 1,
            trace_stride=stride,
        )
        sim = Simulation(config)
        summary, trace = DensityStep(sim, [sim.agents[0]], sharing=False).run()
        assert not summary.converged
        kept = sorted(set(range(0, max_iterations, stride)) | {max_iterations - 1})
        assert trace.iteration.tolist() == kept
        assert len(trace) == len(kept) <= -(-max_iterations // stride) + 1
        assert trace.actions.shape == trace.c_fue.shape == trace.rewards.shape == (len(kept), 1)

    def test_returned_traces_own_their_rows(self):
        # steps that converge and steps that run out, with and without sharing
        config = tiny_config(m_max=4, seed_agents=2, trace_stride=7, convergence_window=10)
        trace = Simulation(config).run()
        assert {s.converged for s in trace.summaries} == {False, True}
        bound = -(-config.max_iterations // config.trace_stride) + 1
        for m, density in trace.records.items():
            assert density.base is None, m
            assert 1 <= len(density) <= bound
            assert density.dtype.names == (
                "iteration", "actions", "c_mue", "c_fue", "rewards", "max_q_delta"
            )
            assert density.actions.shape == density.rewards.shape == (len(density), m)

    def test_run_keeps_the_rows_step_returns(self):
        config = tiny_config(m_max=4, seed_agents=1, trace_stride=7, seed=3)
        sim, twin = Simulation(config), Simulation(config)
        summary, trace = DensityStep(sim, list(sim.agents), sharing=True).run()
        step = DensityStep(twin, list(twin.agents), sharing=True)
        rows = [step.step(it) for it in range(summary.iterations_to_converge)]
        for k, it in enumerate(trace.iteration):
            actions, c_mue, c_fue, rewards, delta = rows[it]
            assert trace.actions[k].tolist() == actions.tolist()
            assert (trace.c_mue[k], trace.max_q_delta[k]) == (c_mue, delta)
            assert trace.c_fue[k].tolist() == c_fue.tolist()
            assert trace.rewards[k].tolist() == rewards.tolist()

    def test_step_alone_keeps_nothing(self):
        config = tiny_config(max_iterations=20, trace_stride=1)
        sim = Simulation(config)
        step = DensityStep(sim, list(sim.agents), sharing=True)
        q = sim.q.copy()
        for iteration in range(3 * config.max_iterations):
            step.step(iteration)
        assert np.array_equal(sim.q, q)


class TestConstraints:
    THRESHOLDS = QosThresholds(mue=1.0, fue=(1.0, 1.0, 1.0))

    def _summary(self, c_mue, fue, powers):
        return DensitySummary(
            m=len(fue),
            agent_ids=tuple(range(len(fue))),
            powers_dbm=tuple(powers),
            c_mue_final=c_mue,
            fue_capacities=tuple(fue),
            min_fue_capacity=min(fue),
            sum_capacity=sum(fue),
            jain=jain_index(fue),
            iterations_to_converge=1,
            converged=True,
        )

    def test_boundary_is_inclusive(self):
        summary = self._summary(1.0, [1.0, 1.0, 1.0], [25.0, 0.0, -20.0])
        report = check_constraints(summary, self.THRESHOLDS, p_max_dbm=25.0)
        assert report.all_satisfied

    def test_violations_reported_per_user(self):
        summary = self._summary(0.5, [2.0, 0.2, 1.5], [25.0, 26.0, 0.0])
        report = check_constraints(summary, self.THRESHOLDS, p_max_dbm=25.0)
        assert not report.mue_satisfied
        assert report.fue_satisfied == (True, False, True)
        assert report.power_satisfied == (True, False, True)
        assert not report.all_satisfied

    def test_action_set_powers_always_within_limit(self):
        config = tiny_config()
        trace = Simulation(config).run()
        for density in trace.records.values():
            assert np.all(trace.levels_dbm[density.actions] <= config.p_max_dbm)
        for summary in trace.summaries:
            report = check_constraints(
                summary,
                QosThresholds(mue=1.0, fue=(1.0,) * config.m_max),
                p_max_dbm=config.p_max_dbm,
            )
            assert all(report.power_satisfied)


def assert_runs_like_the_loop_reference(config, monkeypatch):
    sim, ref = Simulation(config), Simulation(config)
    trace = sim.run()
    with monkeypatch.context() as patch:
        patch.setattr(coordinator, "DensityStep", LoopDensityStep)
        expected = ref.run()
    assert repr(trace.summaries) == repr(expected.summaries)
    assert trace.records.keys() == expected.records.keys()
    for m, density in trace.records.items():
        assert density.tobytes() == expected.records[m].tobytes(), m
    assert sim.q.tobytes() == ref.q.tobytes()
    states = [a.rng.bit_generator.state for a in sim.agents]
    assert states == [a.rng.bit_generator.state for a in ref.agents]


@pytest.mark.slow
class TestLoopReference:
    """Horizon draws and the grouped buffer against per-iteration draws and a padded gather."""

    @pytest.mark.parametrize("sharing", [True, False])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_default_layout(self, seed, sharing, monkeypatch):
        # 1,600 exploring iterations of 2,000, all drawn at construction
        config = ScenarioConfig(seed=seed, sharing_enabled=sharing, max_iterations=2000)
        assert_runs_like_the_loop_reference(config, monkeypatch)

    def test_convergence_inside_a_block(self, monkeypatch):
        # with alpha = 0 every step converges after its 50-iteration window
        config = ScenarioConfig(alpha=0.0, max_iterations=2000, convergence_window=50)
        assert_runs_like_the_loop_reference(config, monkeypatch)

    def test_horizon_off_the_block_grid(self, monkeypatch):
        # every one of the 700 iterations explores
        config = ScenarioConfig(
            seed=4, epsilon=0.5, explore_fraction=1.0, max_iterations=700, trace_stride=1
        )
        assert_runs_like_the_loop_reference(config, monkeypatch)
