"""Tests for the exhaustive joint-action search baseline."""

import math
import sys
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
    _Bounds,
    _row_sums,
    exhaustive_search,
    min_levels,
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


# at m >= 8 a left-to-right femto sum changes the objective's last bit in
# about a third of these instances, so three seeds catch it
GRID = pytest.mark.parametrize(
    "m, n, level, seed",
    [
        (m, n, level, seed)
        for m, n in [(1, 5), (2, 7), (3, 40), (4, 14), (5, 9), (6, 6), (7, 5), (8, 4), (9, 3)]
        for level in ["loose", "mid", "impossible"]
        for seed in range(3)
    ],
)


def grid_instance(m, n, level, seed):
    """The gains, levels and thresholds of one grid case, searched at ``p_bs_mw=10``."""
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
    return gains, actions, thresholds


class TestBlockEnumeration:
    @GRID
    def test_matches_one_shot_reference(self, m, n, level, seed):
        gains, actions, thresholds = grid_instance(m, n, level, seed)
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
        # 15^3 <= 2^15 < 15^4: batches of at most 225 leaves of 15 actions
        assert 15**3 <= _CHUNK < 15**4
        gains = np.ones((5, 5))
        actions = ActionSet(-20.0, 25.0, 15)
        thresholds = QosThresholds(mue=mue, fue=(1e-9,) * 4)

        # unit symmetric gains: permutations of the optimum tie exactly,
        # and the tied actions fall under more than one first-station prefix
        digits = np.indices((15,) * 4).reshape(4, -1).T
        _, c_fue = batch_capacities(gains, 1.0, NOISE, actions.levels_mw[digits])
        sums = c_fue.sum(axis=1)
        tied = sorted(tuple(int(d) for d in row) for row in digits[sums == sums.max()])
        assert len({action[0] for action in tied}) > 1

        result = search_and_reference(gains, actions, thresholds, p_bs_mw=1.0)
        assert result.best_action == tied[0]

    def test_levels_beyond_one_chunk_form_one_block(self):
        # m=1 with more levels than _CHUNK: k=1, one leaf of n rows; the
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
        # 20^3 and 181^2 fit _CHUNK (one batch holds every leaf); 182^2
        # does not (k=1, one leaf of 182 rows a batch)
        gains = random_gain_matrix(m, seed=m * n)
        actions = ActionSet(-20.0, 25.0, n)
        thresholds = QosThresholds(mue=0.5, fue=(0.5,) * m)
        search_and_reference(gains, actions, thresholds, p_bs_mw=10.0)

    @pytest.mark.parametrize("level", ["loose", "mid", "impossible"])
    @pytest.mark.parametrize("m", [3, 4])
    def test_a_beam_wider_than_a_piece(self, monkeypatch, m, level):
        # 5^2 > 8: batches of one leaf, and pieces of one prefix, while the
        # beam expands up to _BEAM prefixes at once
        monkeypatch.setattr(oracle, "_CHUNK", 8)
        gains, actions, thresholds = grid_instance(m, 5, level, seed=0)
        search_and_reference(gains, actions, thresholds, p_bs_mw=10.0)

    def test_cap_raised_before_any_block(self):
        # a 31^3-row batch over 15 stations would take 3.6 MB
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


def traced_peak(search_call):
    """The result of ``search_call()`` and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = search_call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestMemory:
    """Peak traced memory of one search, against the batch workspace the search keeps.

    The workspace is ``(3m + 1) n**k`` floats, k the largest with
    ``n**k <= _CHUNK``: a batch, its femto capacities and scratch, and its
    macro capacities.
    """

    MARGIN = 1 << 20

    @staticmethod
    def workspace(m, n):
        k = max(k for k in range(1, m + 1) if k == 1 or n**k <= _CHUNK)
        return (3 * m + 1) * n**k * 8

    def test_oracle_m5_scenario(self):
        # the pruned search holds few prefixes beside the workspace
        sim = Simulation(ScenarioConfig(m_max=5, n_power=25))
        result, peak = traced_peak(lambda: search(sim))
        assert result.feasible
        assert peak < self.workspace(5, 25) + self.MARGIN

    def test_an_instance_where_nothing_prunes(self, monkeypatch):
        # levels 1e-9 dB apart: every capacity lies within the bounds'
        # 1e-9 relative margin of every other, so no bound falls below an
        # incumbent, and no action meets the thresholds; 6^7 actions, so
        # both the prefixes of 5 stations (6^5 = 7776) and the leaves are
        # expanded and evaluated in pieces of at most 6^5
        m, n = 7, 6
        gains = np.ones((m + 1, m + 1))
        thresholds = QosThresholds(mue=1e6, fue=(1e6,) * m)
        calls, _ = count_batches(monkeypatch)
        result, peak = traced_peak(
            lambda: exhaustive_search(
                gains, ActionSet(0.0, 1e-9, n), thresholds, p_bs_mw=1.0, noise_mw=NOISE
            )
        )
        assert not result.feasible
        assert sum(calls) >= n**m
        assert peak < self.workspace(m, n) + self.MARGIN


def enumerate_capacities(links, actions, m):
    """Every joint action's digits ``(n**m, m)`` and capacities, as one row-major ``Links`` batch.

    Row-major as the search's batches are: over a column-major batch the
    macro user's capacities round differently in the last bit.
    """
    digits = np.indices((len(actions),) * m).reshape(m, -1).T
    return (digits, *links.capacities(np.ascontiguousarray(actions.levels_mw[digits])))


class TestCertificate:
    """``min_levels`` against enumeration and the search."""

    @GRID
    def test_agrees_with_the_search(self, m, n, level, seed):
        gains, actions, thresholds = grid_instance(m, n, level, seed)
        links = Links(gains, 10.0, NOISE)
        least = min_levels(links, actions.levels_mw, np.asarray(thresholds.fue), thresholds.mue)
        result = exhaustive_search(gains, actions, thresholds, p_bs_mw=10.0, noise_mw=NOISE)
        assert (least is not None) == result.feasible

    @pytest.mark.parametrize("ulps", [0, 1])
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize(
        "m, n",
        [
            (3, 12),
            (4, 8),
            pytest.param(
                9,
                3,
                marks=pytest.mark.xfail(
                    reason="from 8 stations BLAS rounds the macro user's product for the last "
                    "(rows mod 4) rows of a batch differently, so the certificate's 3-row "
                    "batches can read c_mue(a*) one ulp below the search's batches",
                    strict=False,
                ),
            ),
        ],
    )
    def test_thresholds_at_a_level_s_capacity(self, m, n, seed, ulps):
        # the femto thresholds exactly at what one action reaches, the macro
        # threshold exactly at what the least action meeting them leaves;
        # then each one ulp higher, where that action no longer meets them
        gains = random_gain_matrix(m, seed=seed)
        actions = ActionSet(-20.0, 25.0, n)
        links = Links(gains, 10.0, NOISE)
        digits, c_mue, c_fue = enumerate_capacities(links, actions, m)
        q_fue = c_fue[:, np.random.default_rng(seed).integers(n**m)]
        least = min_levels(links, actions.levels_mw, q_fue, 0.0)
        q_mue = c_mue[np.ravel_multi_index(least, (n,) * m)]
        for _ in range(ulps):
            q_fue, q_mue = np.nextafter(q_fue, np.inf), np.nextafter(q_mue, np.inf)
        thresholds = QosThresholds(mue=float(q_mue), fue=tuple(q_fue.tolist()))
        result = exhaustive_search(gains, actions, thresholds, p_bs_mw=10.0, noise_mw=NOISE)
        certified = min_levels(links, actions.levels_mw, q_fue, q_mue) is not None
        assert certified == result.feasible
        assert result.feasible or ulps
        if ulps:
            # the relaxed certificate passes and no action meets QoS, so the
            # pass without the QoS test gives the result
            expected = one_shot_oracle(gains, actions, thresholds, p_bs_mw=10.0, noise_mw=NOISE)
            assert_same_result(result, expected)

    @pytest.mark.parametrize("share", [0.5, 0.9, 1.0])
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("m, n", [(1, 9), (2, 15), (3, 12), (4, 8)])
    def test_lies_below_every_feasible_action(self, m, n, seed, share):
        # thresholds at a share of what one random action reaches
        gains = random_gain_matrix(m, seed=seed)
        actions = ActionSet(-20.0, 25.0, n)
        links = Links(gains, 10.0, NOISE)
        digits, c_mue, c_fue = enumerate_capacities(links, actions, m)
        row = np.random.default_rng(seed).integers(n**m)
        q_mue, q_fue = share * c_mue[row], share * c_fue[:, row]
        feasible = digits[(c_mue >= q_mue) & (c_fue.T >= q_fue).all(axis=1)]
        least = min_levels(links, actions.levels_mw, q_fue, q_mue)
        assert least is not None and tuple(least) in set(map(tuple, feasible.tolist()))
        assert np.all(feasible >= least)


def count_batches(monkeypatch) -> tuple[list, list]:
    """The rows of each batch ``Links.capacities`` call from now on, as (search, certificate).

    The search makes one call per batch of leaves its bounds leave, n
    rows each; the calls of ``min_levels`` are counted apart.
    """
    search, certificate = [], []
    capacities = Links.capacities

    def counted(self, powers_mw, out=None):
        if powers_mw.ndim == 2:
            caller = sys._getframe(1).f_code.co_name
            (certificate if caller == "min_levels" else search).append(len(powers_mw))
        return capacities(self, powers_mw, out)

    monkeypatch.setattr(Links, "capacities", counted)
    return search, certificate


def within(values, bounds):
    """Each value is at or below its bound, or the bound is +inf (NaN values only then)."""
    return bool(np.all((values <= bounds) | (bounds == np.inf)))


def children_at_every_depth(gains, levels, p_bs_mw, noise_mw):
    """``_Bounds.children`` of every prefix of d - 1 stations, for d = 1..m, by depth d.

    The children of depth d are every prefix of d stations in lexicographic
    order, so joint action i lies under child ``i // n**(m - d)``.
    """
    m, n = len(gains) - 1, len(levels)
    bounds = _Bounds(gains, levels, p_bs_mw, noise_mw)
    digits = np.indices((n,) * m).reshape(m, -1).T
    for d in range(1, m + 1):
        station, macro = bounds.children(levels[digits[:: n ** (m - d + 1), : d - 1]])
        yield np.arange(n**m) // n ** (m - d), station, macro


class TestBlockBounds:
    """The bounds over each block of actions sharing a prefix, one depth below its parent."""

    @settings(max_examples=50, deadline=None)
    @given(
        m=st.integers(2, 5),
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
        # depth m bounds single actions, one station below the leaves
        for block, station, macro in children_at_every_depth(gains, levels, p_bs_mw, noise_mw):
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
        for block, station, _ in children_at_every_depth(gains, levels, 1e-15, 1e-30):
            assert within(c_fue.T, station[block])


class TestPruning:
    # 40^2 <= _CHUNK < 40^3: batches of at most 40 leaves of 40 actions
    def test_optimum_in_the_first_block(self, monkeypatch):
        # station 0 serves its own user badly and drowns the others
        gains = weakly_coupled(3, seed=0)
        gains[1, 1], gains[1, 2:] = 1e-6, 1.0
        calls, _ = count_batches(monkeypatch)
        result = search_and_reference(gains, ActionSet(-20.0, 25.0, 40), loose(3), p_bs_mw=10.0)
        assert result.best_action == (0, 39, 39)
        assert len(calls) < 40

    def test_optimum_in_the_last_block(self, monkeypatch):
        calls, _ = count_batches(monkeypatch)
        result = search_and_reference(
            weakly_coupled(3, seed=0), ActionSet(-20.0, 25.0, 40), loose(3), p_bs_mw=10.0
        )
        assert result.best_action == (39, 39, 39)
        assert len(calls) < 40

    @pytest.mark.parametrize("mue", [1e-9, 1e6], ids=["feasible", "infeasible"])
    def test_a_tie_in_a_block_whose_bound_equals_the_incumbent(self, monkeypatch, mue):
        # symmetric unit gains, as in the tie test above; every prefix of the
        # smallest tied action gets a bound equal to its sum, below the
        # bounds of the other tied actions' prefixes, so the search meets a
        # tied action first, and only a search that still expands and
        # evaluates a bound equal to the incumbent finds the smallest
        gains = np.ones((5, 5))
        actions = ActionSet(-20.0, 25.0, 15)
        thresholds = QosThresholds(mue=mue, fue=(0.0,) * 4)
        digits = np.indices((15,) * 4).reshape(4, -1).T
        _, c_fue = batch_capacities(gains, 1.0, NOISE, actions.levels_mw[digits])
        sums = c_fue.sum(axis=1)
        smallest = actions.levels_mw[digits[np.argmax(sums)]]
        first = int(np.argmax(sums)) // 15**3
        assert np.any(sums[(first + 1) * 15**3 :] == sums.max())
        children = _Bounds.children

        def tight(self, prefixes, out=None):
            station, macro = children(self, prefixes, out)
            r, d = prefixes.shape
            child = np.hstack((np.repeat(prefixes, 15, axis=0), np.tile(self.levels, r)[:, None]))
            station[(child == smallest[: d + 1]).all(axis=1)] = (sums.max(), 0.0, 0.0, 0.0)
            return station, macro

        monkeypatch.setattr(_Bounds, "children", tight)
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

    def test_oracle_m5_scenario_evaluates_within_a_row_budget(self, monkeypatch):
        # the benchmark's 25^5-action scenario: leaves of 25 actions, in
        # batches of at most 25^3 rows, the beam's 16 leaves first
        sim = Simulation(ScenarioConfig(m_max=5, n_power=25))
        calls, certificate = count_batches(monkeypatch)
        result = search(sim)
        assert result.feasible and result.n_enumerated == 25**5
        assert all(rows % 25 == 0 and rows <= 25**3 for rows in calls)
        assert calls[0] == 16 * 25
        assert len(calls) <= 4
        assert sum(calls) <= 20_000
        # the beam holds a feasible action, so the certificate never runs
        assert certificate == []

    @pytest.mark.parametrize("seed", [2, 3])
    def test_a_layout_without_a_feasible_action_prunes_on_the_bound_alone(self, monkeypatch, seed):
        # finding E: at m_max=8, station 4 sits 1.2 m from the macro user
        sim = Simulation(first_admitted(ScenarioConfig(seed=seed, m_max=8, n_power=25), 5))
        calls, certificate = count_batches(monkeypatch)
        bounded = []
        children = _Bounds.children

        def counted(self, prefixes, out=None):
            bounded.append(len(prefixes))
            return children(self, prefixes, out)

        monkeypatch.setattr(_Bounds, "children", counted)
        assert not search(sim).feasible
        assert len(calls) <= 8
        # one (n, m) batch per station in each sweep, after the QoS pass's
        # beam, which holds no feasible action and so ends that pass
        assert set(certificate) == {25}
        # in each pass, one call per depth of the beam, then one per piece
        # expanded: the pass without the QoS test stops once no bound
        # reaches the best action
        assert len(bounded) <= 16

    def test_an_infeasible_instance_finds_its_best_action_in_a_hopeless_block(self):
        # no action meets QoS, and the best action lies under a prefix that
        # fails the QoS bound test while others pass it: the QoS pass drops
        # that prefix, and the pass without the QoS test finds the action there
        gains = random_gain_matrix(3, seed=12)
        thresholds = QosThresholds(mue=0.2, fue=(0.06, 0.01, 0.18))
        result = search_and_reference(gains, ActionSet(-20.0, 25.0, 40), thresholds, p_bs_mw=10.0)
        assert not result.feasible and result.best_action == (0, 0, 39)

    def test_a_feasible_action_under_an_infeasible_certificate_is_an_error(self, monkeypatch):
        # thresholds at 0.9 of the unconstrained optimum's capacities: the
        # beam holds no action meeting them, so the search asks the
        # certificate, here one that answers wrongly; the pass without the
        # QoS test then evaluates the optimum, which meets them
        gains, actions = random_gain_matrix(4, seed=17), ActionSet(-20.0, 25.0, 8)
        best = one_shot_oracle(gains, actions, loose(4), p_bs_mw=10.0, noise_mw=NOISE)
        thresholds = QosThresholds(
            mue=0.9 * best.c_mue, fue=tuple(0.9 * c for c in best.fue_capacities)
        )
        asked = []
        monkeypatch.setattr(oracle, "min_levels", lambda *args: asked.append(args))
        with pytest.raises(RuntimeError, match="certified infeasible"):
            exhaustive_search(gains, actions, thresholds, p_bs_mw=10.0, noise_mw=NOISE)
        assert len(asked) == 1


def search(sim):
    """``exhaustive_search`` over a built simulation's stations."""
    return exhaustive_search(
        sim.gains, sim.actions, sim.thresholds, p_bs_mw=sim.p_bs_mw, noise_mw=sim.noise_mw
    )


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

    # the other layouts the search's speed is measured on: stations packed
    # closer or spread wider than the default 35 m, twice the default QoS
    # thresholds, 7 stations in blocks of 9^4 rows and 6 in blocks of 14^3
    @pytest.mark.parametrize("seed", range(1, 11))
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(m_max=5, n_power=25, fbs_spacing_m=20.0),
            dict(m_max=5, n_power=25, fbs_spacing_m=60.0),
            dict(m_max=5, n_power=25, mue_min_capacity=2.0, fue_min_capacity=2.0),
            dict(m_max=7, n_power=9),
            dict(m_max=6, n_power=14),
        ],
        ids=["spacing_20m", "spacing_60m", "qos_2", "m7_n9", "m6_n14"],
    )
    def test_timed_layouts(self, overrides, seed):
        assert_matches_block_reference(ScenarioConfig(seed=seed, **overrides))
