"""Tests for the exhaustive joint-action search baseline."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from femtoq import oracle
from femtoq.channel import ActionSet, Links, evaluate_capacities
from femtoq.config import ScenarioConfig, with_pinned_layout
from femtoq.coordinator import Simulation
from femtoq.oracle import (
    _CHUNK,
    EnumerationCapExceeded,
    _block_bounds,
    _row_sums,
    exhaustive_search,
)
from femtoq.reward import QosThresholds
from femtoq.topology import Topology
from reference import batch_capacities, block_oracle, capacity_bps_hz, one_shot_oracle

NOISE = 1.0


def random_gain_matrix(m, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(1e-6, 1.0, size=(m + 1, m + 1))


class TestExhaustiveSearch:
    def test_single_station_monotone_corner(self):
        # no macro transmit power: the femto capacity is monotone in own
        # power, so the top level wins (macro capacity is zero, hence the
        # unconstrained branch reports infeasible)
        gains = np.full((2, 2), 0.5)
        actions = ActionSet(-20.0, 25.0, 5)
        thresholds = QosThresholds(mue=1e-9, fue=(1e-9,))
        result = exhaustive_search(
            gains, actions, thresholds, p_bs_mw=0.0, noise_mw=NOISE
        )
        assert result.best_action == (4,)
        assert not result.feasible
        assert result.n_enumerated == 5

    def test_single_station_feasible_corner(self):
        # weak femto-to-macro coupling keeps the macro constraint satisfied
        # at every level, so the constrained optimum is still the top level
        gains = np.array([[0.5, 0.9], [1e-6, 0.5]])
        actions = ActionSet(-20.0, 25.0, 5)
        thresholds = QosThresholds(mue=0.5, fue=(0.5,))
        result = exhaustive_search(
            gains, actions, thresholds, p_bs_mw=100.0, noise_mw=NOISE
        )
        assert result.feasible
        assert result.best_action == (4,)

    def test_two_station_hand_enumeration(self):
        # symmetric unit gains, two power levels: enumerate the four joint
        # actions by hand with the scalar formulas
        gains = np.ones((3, 3))
        actions = ActionSet(0.0, 10.0, 2)  # 1 mW and 10 mW
        thresholds = QosThresholds(mue=1e-9, fue=(1e-9, 1e-9))
        p_bs = 1.0

        def sum_capacity(p1, p2):
            c1 = capacity_bps_hz(p1 / (p_bs + p2 + NOISE))
            c2 = capacity_bps_hz(p2 / (p_bs + p1 + NOISE))
            return c1 + c2

        joint = {
            (0, 0): sum_capacity(1.0, 1.0),
            (0, 1): sum_capacity(1.0, 10.0),
            (1, 0): sum_capacity(10.0, 1.0),
            (1, 1): sum_capacity(10.0, 10.0),
        }
        expected_action = max(sorted(joint), key=lambda k: joint[k])
        result = exhaustive_search(
            gains, actions, thresholds, p_bs_mw=p_bs, noise_mw=NOISE
        )
        assert result.best_action == expected_action
        assert result.best_objective == pytest.approx(joint[expected_action], rel=1e-12)
        assert result.n_enumerated == 4

    def test_lexicographic_tie_break(self):
        # perfectly symmetric two-agent instance: (0, 1) and (1, 0) tie, the
        # lexicographically smaller vector must win
        gains = np.ones((3, 3))
        actions = ActionSet(0.0, 10.0, 2)
        thresholds = QosThresholds(mue=1e-9, fue=(1e-9, 1e-9))
        result = exhaustive_search(gains, actions, thresholds, p_bs_mw=0.0, noise_mw=NOISE)
        candidates = {(0, 1), (1, 0), (1, 1), (0, 0)}
        assert result.best_action in candidates
        sums = {}
        for a1 in range(2):
            for a2 in range(2):
                p = actions.levels_mw[np.array([a1, a2])]
                _, c = evaluate_capacities(0.0, p, gains, NOISE)
                sums[(a1, a2)] = float(c.sum())
        best = max(sums.values())
        tied = sorted(k for k, v in sums.items() if v == pytest.approx(best, rel=1e-12))
        assert result.best_action == tied[0]

    def test_infeasible_returns_unconstrained_max(self):
        gains = random_gain_matrix(2, seed=0)
        actions = ActionSet(-20.0, 25.0, 4)
        impossible = QosThresholds(mue=1e6, fue=(1e6, 1e6))
        result = exhaustive_search(
            gains, actions, impossible, p_bs_mw=100.0, noise_mw=NOISE
        )
        assert not result.feasible
        relaxed = QosThresholds(mue=1e-12, fue=(1e-12, 1e-12))
        unconstrained = exhaustive_search(
            gains, actions, relaxed, p_bs_mw=100.0, noise_mw=NOISE
        )
        assert result.best_action == unconstrained.best_action
        assert result.best_objective == pytest.approx(unconstrained.best_objective)

    def test_feasible_flag_recomputation(self):
        for seed in range(5):
            gains = random_gain_matrix(2, seed=seed)
            actions = ActionSet(-20.0, 25.0, 4)
            thresholds = QosThresholds(mue=0.5, fue=(0.5, 0.5))
            result = exhaustive_search(
                gains, actions, thresholds, p_bs_mw=10.0, noise_mw=NOISE
            )
            powers = actions.levels_mw[np.array(result.best_action)]
            c_mue, c_fue = evaluate_capacities(10.0, powers, gains, NOISE)
            recomputed = bool(c_mue >= 0.5 and np.all(c_fue >= 0.5))
            assert result.feasible == recomputed
            assert result.c_mue == pytest.approx(c_mue, rel=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(42)
        m = 3
        g = rng.uniform(1e-5, 1.0, size=(m + 1, m + 1))
        actions = ActionSet(-20.0, 25.0, 3)
        thresholds = QosThresholds(mue=1e-9, fue=tuple(rng.uniform(0.1, 0.3, m)))
        base = exhaustive_search(g, actions, thresholds, p_bs_mw=5.0, noise_mw=NOISE)

        perm = [2, 0, 1]  # new index i holds old agent perm[i]
        permuted = np.empty_like(g)
        permuted[0, 0] = g[0, 0]
        for i, pi in enumerate(perm):
            permuted[0, 1 + i] = g[0, 1 + pi]
            permuted[1 + i, 0] = g[1 + pi, 0]
            for j, pj in enumerate(perm):
                permuted[1 + j, 1 + i] = g[1 + pj, 1 + pi]
        thresholds_p = QosThresholds(mue=thresholds.mue, fue=tuple(thresholds.fue[p] for p in perm))
        result_p = exhaustive_search(permuted, actions, thresholds_p, p_bs_mw=5.0, noise_mw=NOISE)
        assert result_p.best_action == tuple(base.best_action[p] for p in perm)
        assert result_p.best_objective == pytest.approx(base.best_objective, rel=1e-12)

    def test_oracle_dominates_random_joint_actions(self):
        rng = np.random.default_rng(1)
        gains = random_gain_matrix(3, seed=9)
        actions = ActionSet(-20.0, 25.0, 5)
        thresholds = QosThresholds(mue=1e-9, fue=(1e-9,) * 3)
        result = exhaustive_search(gains, actions, thresholds, p_bs_mw=2.0, noise_mw=NOISE)
        for _ in range(50):
            joint = rng.integers(0, 5, size=3)
            powers = actions.levels_mw[joint]
            _, c_fue = evaluate_capacities(2.0, powers, gains, NOISE)
            assert c_fue.sum() <= result.best_objective + 1e-12

    def test_enumeration_cap_enforced(self):
        gains = random_gain_matrix(15, seed=3)
        actions = ActionSet(-20.0, 25.0, 31)
        thresholds = QosThresholds(mue=1.0, fue=(1.0,) * 15)
        with pytest.raises(EnumerationCapExceeded, match="31\\^15"):
            exhaustive_search(gains, actions, thresholds, p_bs_mw=1.0, noise_mw=NOISE)

    def test_cap_counts_exactly(self):
        gains = random_gain_matrix(3, seed=4)
        actions = ActionSet(-20.0, 25.0, 5)
        thresholds = QosThresholds(mue=1e-9, fue=(1e-9,) * 3)
        result = exhaustive_search(
            gains, actions, thresholds, p_bs_mw=1.0, noise_mw=NOISE, enumeration_cap=125
        )
        assert result.n_enumerated == 125
        with pytest.raises(EnumerationCapExceeded):
            exhaustive_search(
                gains, actions, thresholds, p_bs_mw=1.0, noise_mw=NOISE, enumeration_cap=124
            )

    def test_threshold_count_must_match(self):
        gains = random_gain_matrix(3, seed=5)
        actions = ActionSet(-20.0, 25.0, 3)
        with pytest.raises(ValueError):
            exhaustive_search(
                gains,
                actions,
                QosThresholds(mue=1.0, fue=(1.0, 1.0)),
                p_bs_mw=1.0,
                noise_mw=NOISE,
            )


def assert_same_result(result, expected):
    """Every field equal, the floats compared as their bytes."""
    assert (result.best_action, result.feasible, result.n_enumerated) == (
        expected.best_action,
        expected.feasible,
        expected.n_enumerated,
    )

    def float_bytes(r):
        return np.array([r.best_objective, r.c_mue, *r.fue_capacities, *r.best_powers_dbm]).tobytes()

    assert float_bytes(result) == float_bytes(expected)


def search_and_reference(gains, actions, thresholds, p_bs_mw):
    result = exhaustive_search(gains, actions, thresholds, p_bs_mw=p_bs_mw, noise_mw=NOISE)
    expected = one_shot_oracle(gains, actions, thresholds, p_bs_mw=p_bs_mw, noise_mw=NOISE)
    assert_same_result(result, expected)
    return result


class TestBlockEnumeration:
    # at m >= 8 a left-to-right femto sum changes the objective's last bit
    # in about a third of these instances, so three seeds catch it
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("level", ["loose", "mid", "impossible"])
    @pytest.mark.parametrize(
        "m, n", [(1, 5), (2, 7), (3, 40), (4, 14), (5, 9), (6, 6), (7, 5), (8, 4), (9, 3)]
    )
    def test_matches_one_shot_reference(self, m, n, level, seed):
        gains = random_gain_matrix(m, seed=seed)
        actions = ActionSet(-20.0, 25.0, n)
        if level == "loose":
            thresholds = QosThresholds(mue=1e-9, fue=(1e-9,) * m)
        elif level == "impossible":
            thresholds = QosThresholds(mue=1e6, fue=(1e6,) * m)
        else:
            # just under what one random joint action achieves, so that
            # action at least is feasible
            joint = np.random.default_rng(m + n).integers(0, n, size=m)
            c_mue, c_fue = evaluate_capacities(10.0, actions.levels_mw[joint], gains, NOISE)
            thresholds = QosThresholds(mue=0.9 * c_mue, fue=tuple(0.9 * c_fue))
        result = search_and_reference(gains, actions, thresholds, p_bs_mw=10.0)
        assert result.feasible == (level != "impossible")

    @pytest.mark.parametrize("m", range(1, 21))
    def test_row_sums_follow_numpy_order(self, m):
        # magnitudes spread over 16 decades make every change of order
        # show in the last bits
        rng = np.random.default_rng(m)
        c = rng.uniform(0.0, 10.0, size=(257, m)) * 10.0 ** rng.uniform(-8, 8, size=(257, m))
        assert np.array_equal(_row_sums(np.ascontiguousarray(c.T)), c.sum(axis=1))

    @pytest.mark.parametrize("mue", [1e-9, 1e6], ids=["feasible", "infeasible"])
    def test_ties_across_blocks_go_to_the_smallest_action(self, mue):
        # 15^3 <= 2^15 < 15^4: one block per level of the first station
        assert 15**3 <= _CHUNK < 15**4
        gains = np.ones((5, 5))
        actions = ActionSet(-20.0, 25.0, 15)
        thresholds = QosThresholds(mue=mue, fue=(1e-9,) * 4)

        # unit symmetric gains: permutations of the optimum tie exactly,
        # and the tied actions fall in more than one block
        digits = np.indices((15,) * 4).reshape(4, -1).T
        _, c_fue = batch_capacities(gains, 1.0, NOISE, actions.levels_mw[digits])
        sums = c_fue.sum(axis=1)
        tied = sorted(tuple(int(d) for d in row) for row in digits[sums == sums.max()])
        assert len({action[0] for action in tied}) > 1

        result = search_and_reference(gains, actions, thresholds, p_bs_mw=1.0)
        assert result.best_action == tied[0]

    def test_levels_beyond_one_chunk_form_one_block(self):
        # m=1 with more levels than _CHUNK: k=1, one block of n rows; the
        # femto capacity rises with its own power, so the last level wins
        n = _CHUNK + 5
        gains = random_gain_matrix(1, seed=11)
        actions = ActionSet(-20.0, 25.0, n)
        thresholds = QosThresholds(mue=1e-9, fue=(1e-9,))
        result = search_and_reference(gains, actions, thresholds, p_bs_mw=1.0)
        assert result.best_action == (n - 1,)
        assert result.n_enumerated == n

    @pytest.mark.parametrize("m, n", [(3, 20), (2, 181), (2, 182)])
    def test_space_around_one_chunk(self, m, n):
        # 20^3 and 181^2 fit _CHUNK (one block, no prefix column); 182^2
        # does not (k=1, a block per level of the first station)
        gains = random_gain_matrix(m, seed=m * n)
        actions = ActionSet(-20.0, 25.0, n)
        thresholds = QosThresholds(mue=0.5, fue=(0.5,) * m)
        search_and_reference(gains, actions, thresholds, p_bs_mw=10.0)

    def test_cap_raised_before_any_block(self):
        # a 31^3-row block over 15 stations would take 3.6 MB
        gains = random_gain_matrix(15, seed=3)
        actions = ActionSet(-20.0, 25.0, 31)
        thresholds = QosThresholds(mue=1.0, fue=(1.0,) * 15)
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationCapExceeded):
                exhaustive_search(gains, actions, thresholds, p_bs_mw=1.0, noise_mw=NOISE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


def count_batches(monkeypatch) -> list:
    """Count the batch ``Links.capacities`` calls, one per evaluated block, from now on."""
    calls = []
    capacities = Links.capacities

    def counted(self, powers_mw, out=None):
        if powers_mw.ndim == 2:
            calls.append(len(powers_mw))
        return capacities(self, powers_mw, out)

    monkeypatch.setattr(Links, "capacities", counted)
    return calls


def within(values, bounds):
    """Each value is at or below its bound, or the bound is +inf (NaN values only then)."""
    return bool(np.all((values <= bounds) | (bounds == np.inf)))


class TestBlockBounds:
    @settings(max_examples=50, deadline=None)
    @given(
        m=st.integers(2, 4),
        n=st.integers(2, 5),
        data=st.data(),
    )
    def test_every_capacity_in_a_block_is_at_most_its_bound(self, m, n, data):
        # gains over 15 decades and noise down to 1e-15 mW, with strong
        # serving links: a user's own signal often outweighs the rest it
        # receives by more than the kernel's subtraction of it resolves
        gains = 10.0 ** data.draw(arrays(float, (m + 1, m + 1), elements=st.floats(-15.0, 0.0)))
        gains[1:, 1:][np.diag_indices(m)] = 10.0 ** data.draw(
            arrays(float, m, elements=st.floats(-3.0, 0.0))
        )
        low = data.draw(st.floats(-40.0, 20.0))
        levels = ActionSet(low, low + data.draw(st.floats(0.01, 40.0)), n).levels_mw
        p_bs_mw = 10.0 ** data.draw(st.floats(-6.0, 4.0))
        noise_mw = 10.0 ** data.draw(st.floats(-15.0, 0.0))

        digits = np.indices((n,) * m).reshape(m, -1).T
        with np.errstate(divide="ignore", invalid="ignore"):
            c_mue, c_fue = Links(gains, p_bs_mw, noise_mw).capacities(levels[digits])
            sums = _row_sums(c_fue)
        for p in range(m):
            prefixes, station, macro = _block_bounds(gains, levels, p, p_bs_mw, noise_mw)
            block = np.arange(n**m) // n ** (m - p)
            assert np.array_equal(prefixes[block], levels[digits[:, :p]])
            assert within(c_fue.T, station[block])
            assert within(sums, station.sum(axis=1)[block])
            assert within(c_mue, macro[block])

    def test_bound_holds_where_the_kernel_cancels(self):
        # the first femto user hears its own 1-2 mW at gain 1, 1.5e-16 mW of
        # interference and nothing else: the kernel adds the signal and the
        # interference, then subtracts the signal, and loses the interference
        levels = ActionSet(0.0, 10.0 * math.log10(2.0), 2).levels_mw
        gains = np.array([[1.0, 1e-30, 1e-30], [1e-30, 1.0, 1.5e-16], [1e-30, 1.5e-16, 1.0]])
        digits = np.indices((2, 2)).reshape(2, -1).T
        with np.errstate(divide="ignore"):
            _, c_fue = Links(gains, 1e-15, 1e-30).capacities(levels[digits])
        assert c_fue[0, 2] > capacity_bps_hz(levels[1] / (levels[0] * 1.5e-16 + 1e-30))
        for p in range(2):
            _, station, _ = _block_bounds(gains, levels, p, 1e-15, 1e-30)
            assert within(c_fue.T, station[np.arange(4) // 2 ** (2 - p)])


class TestPruning:
    # 40^2 <= _CHUNK < 40^3: one block per level of the first station
    def test_optimum_in_the_first_block(self, monkeypatch):
        # station 0 serves its own user badly and drowns the others
        gains = weakly_coupled(3, seed=0)
        gains[1, 1], gains[1, 2:] = 1e-6, 1.0
        calls = count_batches(monkeypatch)
        result = search_and_reference(gains, ActionSet(-20.0, 25.0, 40), loose(3), p_bs_mw=10.0)
        assert result.best_action == (0, 39, 39)
        assert len(calls) < 40

    def test_optimum_in_the_last_block(self, monkeypatch):
        calls = count_batches(monkeypatch)
        result = search_and_reference(
            weakly_coupled(3, seed=0), ActionSet(-20.0, 25.0, 40), loose(3), p_bs_mw=10.0
        )
        assert result.best_action == (39, 39, 39)
        assert len(calls) < 40

    @pytest.mark.parametrize("mue", [1e-9, 1e6], ids=["feasible", "infeasible"])
    def test_a_tie_in_a_block_whose_bound_equals_the_incumbent(self, monkeypatch, mue):
        # symmetric unit gains, as in the tie test above; the block holding
        # the smallest tied action gets a bound equal to its best sum, so it
        # is visited after later tied blocks, whose bounds are above it, and
        # only a search that still visits a bound equal to the incumbent finds it
        gains = np.ones((5, 5))
        actions = ActionSet(-20.0, 25.0, 15)
        thresholds = QosThresholds(mue=mue, fue=(0.0,) * 4)
        digits = np.indices((15,) * 4).reshape(4, -1).T
        _, c_fue = batch_capacities(gains, 1.0, NOISE, actions.levels_mw[digits])
        sums = c_fue.sum(axis=1)
        first = int(np.argmax(sums)) // 15**3
        assert np.any(sums[(first + 1) * 15**3 :] == sums.max())

        def tight(*args):
            prefixes, station, macro = _block_bounds(*args)
            station[first] = (sums.max(), 0.0, 0.0, 0.0)
            return prefixes, station, macro

        monkeypatch.setattr(oracle, "_block_bounds", tight)
        result = search_and_reference(gains, actions, thresholds, p_bs_mw=1.0)
        assert result.best_action[0] == first

    @pytest.mark.parametrize("seed", range(3))
    def test_thresholds_at_an_action_s_capacities(self, seed):
        # every threshold exactly at what one action reaches: that action is
        # feasible, and no bound may fall below it
        gains = random_gain_matrix(4, seed=seed)
        actions = ActionSet(-20.0, 25.0, 14)
        digits = np.indices((14,) * 4).reshape(4, -1).T
        c_mue, c_fue = batch_capacities(gains, 10.0, NOISE, actions.levels_mw[digits])
        row = int(np.random.default_rng(seed).integers(14**4))
        thresholds = QosThresholds(mue=float(c_mue[row]), fue=tuple(c_fue[row].tolist()))
        assert search_and_reference(gains, actions, thresholds, p_bs_mw=10.0).feasible

    def test_oracle_m5_scenario_evaluates_a_quarter_of_the_blocks(self, monkeypatch):
        # the benchmark's 25^5-action scenario: 625 blocks of 25^3 actions
        sim = Simulation(ScenarioConfig(m_max=5, n_power=25))
        calls = count_batches(monkeypatch)
        result = exhaustive_search(
            sim.gains, sim.actions, sim.thresholds, p_bs_mw=sim.p_bs_mw, noise_mw=sim.noise_mw
        )
        assert result.feasible and result.n_enumerated == 25**5
        assert set(calls) == {25**3}
        assert len(calls) <= 625 // 4


def loose(m):
    return QosThresholds(mue=1e-9, fue=(1e-9,) * m)


def weakly_coupled(m, seed):
    """``random_gain_matrix`` with every link between femto stations 1000 times weaker."""
    gains = random_gain_matrix(m, seed)
    gains[1:, 1:] *= np.where(np.eye(m, dtype=bool), 1.0, 1e-3)
    return gains


def first_admitted(config: ScenarioConfig, k: int) -> ScenarioConfig:
    """The config's layout cut down to its first k admitted stations."""
    sim = Simulation(config)
    topology, admitted = sim.topology, sim.admission_order[:k]
    sub = Topology(
        mbs=topology.mbs,
        mue=topology.mue,
        fbs=tuple(topology.fbs[i] for i in admitted),
        fue=tuple(topology.fue[i] for i in admitted),
    )
    return with_pinned_layout(config, sub)


def assert_matches_block_reference(config: ScenarioConfig):
    sim = Simulation(config)
    args = (sim.gains, sim.actions, sim.thresholds)
    kwargs = dict(p_bs_mw=sim.p_bs_mw, noise_mw=sim.noise_mw)
    result = exhaustive_search(*args, **kwargs)
    assert repr(result) == repr(block_oracle(*args, **kwargs))
    return result


@pytest.mark.slow
class TestBlockReference:
    """The pruned search against every block evaluated, on the benchmark's scenarios."""

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_five_stations_25_levels(self, seed):
        assert_matches_block_reference(ScenarioConfig(seed=seed, m_max=5, n_power=25))

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_first_four_of_the_default_layout(self, seed):
        assert_matches_block_reference(first_admitted(ScenarioConfig(seed=seed), 4))

    @pytest.mark.parametrize("seed", [2, 3])
    def test_layouts_without_a_feasible_action(self, seed):
        # at m_max=8, station 4 sits 1.2 m from the macro user
        config = first_admitted(ScenarioConfig(seed=seed, m_max=8, n_power=25), 5)
        assert not assert_matches_block_reference(config).feasible
