"""Unit and property tests for the propagation / SINR / capacity layer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from femtoq.channel import (
    Links,
    build_gain_matrix,
    dbm_to_mw,
    evaluate_capacities,
)
from femtoq.config import ScenarioConfig, build_topology
from femtoq.coordinator import Simulation
from femtoq.topology import Position, Topology
from reference import (
    batch_capacities,
    capacity_bps_hz,
    fbs_to_fue,
    fbs_to_mue,
    fue_sinr,
    gain_array,
    gain_from_pathloss_db,
    indoor_to_outdoor_pathloss_db,
    mbs_to_fue,
    mbs_to_mue,
    mue_sinr,
    mw_to_dbm,
    one_action_capacities,
    residential_pathloss_db,
)

REL = 1e-9


def unit_gain_matrix(m):
    return np.ones((m + 1, m + 1))


class TestConversions:
    def test_dbm_to_mw_basics(self):
        assert dbm_to_mw(0.0) == pytest.approx(1.0, rel=REL)
        assert dbm_to_mw(10.0) == pytest.approx(10.0, rel=REL)
        assert dbm_to_mw(-20.0) == pytest.approx(0.01, rel=REL)

    @given(st.floats(min_value=-200.0, max_value=200.0))
    def test_round_trip(self, dbm):
        assert mw_to_dbm(dbm_to_mw(dbm)) == pytest.approx(dbm, abs=1e-9)

    def test_mw_to_dbm_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            mw_to_dbm(0.0)


class TestResidentialPathloss:
    def test_reference_distance_gives_pl0(self):
        assert residential_pathloss_db(5.0, 62.3, 4.0, 5.0) == 62.3

    def test_decade_beyond_reference(self):
        assert residential_pathloss_db(50.0, 62.3, 4.0, 5.0) == pytest.approx(102.3, rel=REL)

    @given(
        st.floats(min_value=0.1, max_value=1e4),
        st.floats(min_value=0.1, max_value=1e4),
    )
    def test_monotone_in_distance(self, d1, d2):
        lo, hi = sorted((d1, d2))
        assert residential_pathloss_db(lo) <= residential_pathloss_db(hi) + 1e-12


class TestIndoorOutdoorPathloss:
    def test_frequency_term_at_2p4ghz(self):
        # at the 5 m anchor only the frequency term remains above 62.3
        assert indoor_to_outdoor_pathloss_db(5.0, 2.4) == pytest.approx(
            62.3 + 21.172, rel=REL
        )

    def test_matches_term_decomposition(self):
        d, f = 40.0, 2.4
        expected = (-1.8 * f**2 + 10.6 * f + 6.1) + (62.3 + 32.0 * math.log10(d / 5.0))
        assert indoor_to_outdoor_pathloss_db(d, f) == pytest.approx(expected, rel=REL)


class TestGainFromPathloss:
    @pytest.mark.parametrize(
        "pl,expected",
        [(0.0, 1.0), (10.0, 0.1), (102.3, 5.888436553555884e-11)],
    )
    def test_values(self, pl, expected):
        assert gain_from_pathloss_db(pl) == pytest.approx(expected, rel=REL)

    @given(st.floats(min_value=-50.0, max_value=200.0))
    def test_strictly_decreasing(self, pl):
        assert gain_from_pathloss_db(pl + 1.0) < gain_from_pathloss_db(pl)


class TestGainMatrix:
    def test_single_station_all_links_at_5m(self):
        topo = Topology(
            mbs=Position(0.0, 0.0),
            mue=Position(5.0, 0.0),
            fbs=(Position(5.0, 5.0),),
            fue=(Position(0.0, 5.0),),
        )
        gm = build_gain_matrix(topo, **link_constants(ScenarioConfig()))
        assert mbs_to_mue(gm) == pytest.approx(10 ** (-6.23), rel=REL)
        assert fbs_to_fue(gm, 0, 0) == pytest.approx(10 ** (-6.23), rel=REL)
        assert mbs_to_fue(gm, 0) == pytest.approx(10 ** (-6.23), rel=REL)
        assert fbs_to_mue(gm, 0) == pytest.approx(10 ** (-8.3472), rel=REL)

    @pytest.mark.parametrize("m", [1, 3, 7])
    def test_completeness_and_range(self, m):
        rng = np.random.default_rng(m)
        fbs = tuple(Position(60 + 40 * i, 10 * rng.random()) for i in range(m))
        fue = tuple(Position(p.x + 4 + i, p.y + 3) for i, p in enumerate(fbs))
        topo = Topology(Position(-200, 0), Position(10, 5), fbs, fue)
        arr = build_gain_matrix(topo, **link_constants(ScenarioConfig()))
        assert arr.shape == (m + 1, m + 1)
        assert np.all(arr > 0) and np.all(arr <= 1)

    def test_rejects_out_of_range_gain(self):
        # 0.1 m from its station, each user's residential path loss is
        # negative: a gain above 1
        topo = Topology(
            mbs=Position(0.0, 0.0),
            mue=Position(0.1, 0.0),
            fbs=(Position(50.0, 0.0),),
            fue=(Position(50.0, 0.1),),
        )
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            build_gain_matrix(topo, **link_constants(ScenarioConfig()))

    def test_immutable_after_construction(self):
        topo = Topology(
            mbs=Position(0.0, 0.0),
            mue=Position(5.0, 0.0),
            fbs=(Position(5.0, 5.0),),
            fue=(Position(0.0, 5.0),),
        )
        gains = build_gain_matrix(topo, **link_constants(ScenarioConfig()))
        assert not gains.flags.writeable
        with pytest.raises(ValueError):
            gains[0, 0] = 0.5


# propagation constants as config fields; the first entry is the default
PROPAGATION = {
    "default": {},
    "custom": {"pl0_db": 55.0, "pathloss_exponent": 3.3, "d0_m": 2.5, "f_ghz": 3.1},
    "low_band": {"pl0_db": 70.0, "pathloss_exponent": 2.7, "d0_m": 8.0, "f_ghz": 0.9},
}

PINNED = {
    "mbs_position": (-120.0, 7.5),
    "mue_position": (12.25, -3.0),
    "fbs_positions": ((0.0, 0.0), (35.0, 0.0), (17.5, 30.3)),
    "fue_positions": ((4.1, -2.2), (31.0, 6.5), (20.0, 22.0)),
    "m_max": 3,
    "seed_agents": 3,
}


def link_constants(config):
    return {
        "pl0": config.pl0_db,
        "exponent": config.pathloss_exponent,
        "d0": config.d0_m,
        "f_ghz": config.f_ghz,
    }


class TestGainMatrixMatchesReference:
    """``build_gain_matrix`` is ``reference.link_gain`` on every link, to the last bit."""

    @pytest.mark.parametrize("name", PROPAGATION)
    @pytest.mark.parametrize("seed", [1, 4, 9])
    def test_generated_layouts(self, name, seed):
        config = ScenarioConfig(seed=seed, **PROPAGATION[name])
        expected = gain_array(build_topology(config), **link_constants(config))
        assert Simulation(config).gains.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", PROPAGATION)
    def test_pinned_layout(self, name):
        config = ScenarioConfig(**PINNED, **PROPAGATION[name])
        expected = gain_array(build_topology(config), **link_constants(config))
        assert Simulation(config).gains.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", range(5))
    def test_random_layouts(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 8))
        fbs = tuple(Position(60 + 40 * i, 10 * rng.random()) for i in range(m))
        fue = tuple(Position(p.x + 1 + 5 * rng.random(), p.y + 3) for p in fbs)
        topo = Topology(Position(-200 * rng.random(), 0), Position(10, 5), fbs, fue)
        constants = {
            "pl0": 50 + 20 * rng.random(),
            "exponent": 2 + 2 * rng.random(),
            "d0": 1 + 4 * rng.random(),
            "f_ghz": 0.5 + 4 * rng.random(),
        }
        got = build_gain_matrix(topo, **constants)
        assert got.tobytes() == gain_array(topo, **constants).tobytes()


class TestSinr:
    def test_mue_no_interference(self):
        gm = unit_gain_matrix(2)
        assert mue_sinr(2.0, [0.0, 0.0], gm, 0.5) == pytest.approx(4.0, rel=REL)

    def test_mue_zero_signal(self):
        gm = unit_gain_matrix(2)
        assert mue_sinr(0.0, [1.0, 1.0], gm, 1.0) == 0.0

    def test_mue_two_interferers_unit_gains(self):
        gm = unit_gain_matrix(2)
        assert mue_sinr(1.0, [1.0, 1.0], gm, 1.0) == pytest.approx(1.0 / 3.0, rel=REL)

    def test_fue_single_station_no_macro(self):
        gm = unit_gain_matrix(1)
        assert fue_sinr(0, 0.0, [2.0], gm, 0.5) == pytest.approx(4.0, rel=REL)

    def test_fue_zero_power(self):
        gm = unit_gain_matrix(2)
        assert fue_sinr(0, 1.0, [0.0, 1.0], gm, 1.0) == 0.0

    def test_fue_symmetric_thirds(self):
        gm = unit_gain_matrix(2)
        for i in range(2):
            assert fue_sinr(i, 1.0, [1.0, 1.0], gm, 1.0) == pytest.approx(1 / 3, rel=REL)

    def test_fue_index_out_of_range(self):
        gm = unit_gain_matrix(2)
        with pytest.raises(IndexError):
            fue_sinr(2, 1.0, [1.0, 1.0], gm, 1.0)

    @given(st.floats(min_value=0.01, max_value=100.0), st.integers(min_value=0, max_value=2))
    @settings(max_examples=50)
    def test_interferer_power_strictly_degrades_victims(self, bump, which):
        rng = np.random.default_rng(7)
        g = rng.uniform(1e-9, 1.0, size=(4, 4))
        base = np.array([1.0, 2.0, 0.5])
        bumped = base.copy()
        bumped[which] += bump
        assert mue_sinr(5.0, bumped, g, 1e-3) < mue_sinr(5.0, base, g, 1e-3)
        victim = (which + 1) % 3
        assert fue_sinr(victim, 5.0, bumped, g, 1e-3) < fue_sinr(victim, 5.0, base, g, 1e-3)


class TestCapacity:
    @pytest.mark.parametrize("sinr,expected", [(0.0, 0.0), (1.0, 1.0), (3.0, 2.0)])
    def test_values(self, sinr, expected):
        assert capacity_bps_hz(sinr) == pytest.approx(expected, rel=REL, abs=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            capacity_bps_hz(-0.1)

    @given(st.floats(min_value=0.0, max_value=1e6))
    def test_strictly_increasing(self, sinr):
        assert capacity_bps_hz(sinr + 0.1) > capacity_bps_hz(sinr)


class TestVectorizedEvaluation:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scalar_chain(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 6))
        g = rng.uniform(1e-10, 1.0, size=(m + 1, m + 1))
        powers = rng.uniform(0.0, 300.0, size=m)
        p_bs, noise = 1e4, 3.98e-11
        c_mue, c_fue = evaluate_capacities(p_bs, powers, g, noise)
        assert c_mue == pytest.approx(
            capacity_bps_hz(mue_sinr(p_bs, powers, g, noise)), rel=1e-12
        )
        for i in range(m):
            expected = capacity_bps_hz(fue_sinr(i, p_bs, powers, g, noise))
            assert c_fue[i] == pytest.approx(expected, rel=1e-12)


class TestLinks:
    @pytest.mark.parametrize("seed", range(5))
    def test_batch_matches_rows_and_scalar_chain(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 8))
        g = rng.uniform(1e-10, 1.0, size=(m + 1, m + 1))
        p_bs, noise = 1e4, 3.98e-11
        batch = rng.uniform(0.0, 300.0, size=(6, m))
        c_mue, c_fue = Links(g, p_bs, noise).capacities(batch)
        assert c_mue.shape == (6,) and c_fue.shape == (m, 6)
        for k, powers in enumerate(batch):
            row_mue, row_fue = Links(g, p_bs, noise).capacities(powers)
            assert c_mue[k] == pytest.approx(row_mue, rel=1e-12)
            assert c_fue[:, k] == pytest.approx(row_fue, rel=1e-12)
            assert c_mue[k] == pytest.approx(
                capacity_bps_hz(mue_sinr(p_bs, powers, g, noise)), rel=1e-12
            )
            for i in range(m):
                expected = capacity_bps_hz(fue_sinr(i, p_bs, powers, g, noise))
                assert c_fue[i, k] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("ids", [None, [3, 0, 5]])
    def test_batch_into_buffers_is_bit_identical(self, ids):
        rng = np.random.default_rng(7)
        g = rng.uniform(1e-10, 1.0, size=(7, 7))
        m = 6 if ids is None else len(ids)
        batch = rng.uniform(0.0, 300.0, size=(500, m))
        links = Links(g, 1e4, 3.98e-11, ids=ids)
        c_mue, c_fue = links.capacities(batch)
        # contiguous slices of one workspace, as the oracle passes them
        work = np.full(500 * (2 * m + 1), np.nan)
        c_buf, s_buf = work[500:].reshape(2, m, 500)
        out = (work[:500], c_buf, s_buf)
        got_mue, got_fue = links.capacities(batch, out=out)
        assert got_mue is out[0] and got_fue is out[1]
        assert got_mue.tobytes() == c_mue.tobytes()
        assert got_fue.tobytes() == c_fue.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_one_action_over_views_is_pinned(self, seed):
        # the full set's gains are views into the matrix: over contiguous
        # copies the one-action products round differently in 15-50% of
        # such instances at every m from 4 to 40
        rng = np.random.default_rng(seed)
        for m in range(1, 41):
            g = 10.0 ** rng.uniform(-12.0, 0.0, size=(m + 1, m + 1))
            powers = 10.0 ** rng.uniform(-2.0, 2.5, size=m)
            c_mue, c_fue = Links(g, 1e4, 3.98e-11).capacities(powers)
            expected_mue, expected_fue = one_action_capacities(g, 1e4, 3.98e-11, powers)
            assert np.float64(c_mue).tobytes() == np.float64(expected_mue).tobytes()
            assert c_fue.tobytes() == expected_fue.tobytes()

    # (m, rows): batches the oracle evaluates. A batch holds at most n**k
    # rows, k the most stations, at most m, whose n**k is at most 2**15:
    # 31 levels at m <= 4 (and 15, as in the golden oracle digest), 25 at
    # m=5, then 9, 6, 5, 4 and 3. It holds whole leaves of n actions, so
    # any multiple of n up to n**k. The feasibility certificate evaluates
    # (n, m) batches.
    @pytest.mark.parametrize(
        "m, rows",
        [(1, 31), (2, 961), (3, 29791), (4, 29791), (4, 3375), (5, 15625), (6, 6561),
         (6, 7776), (7, 15625), (8, 16384), (9, 19683),
         (1, 1), (1, 7), (2, 155), (3, 961 * 17), (4, 961), (4, 961 * 13), (5, 625),
         (5, 625 * 7), (6, 729 * 4), (8, 4096 * 3), (9, 6561 * 2),
         (4, 31), (5, 25), (9, 3)],
    )
    @pytest.mark.parametrize("subset", [False, True], ids=["all", "subset"])
    def test_station_major_batch_is_the_row_major_one_transposed(self, m, rows, subset):
        # gains and powers spread over decades, so a change in rounding
        # shows in the last bits of some of the rows * m capacities
        rng = np.random.default_rng(m * rows)
        total = m + 3 if subset else m
        g = 10.0 ** rng.uniform(-10.0, 0.0, size=(total + 1, total + 1))
        ids = rng.permutation(total)[:m].tolist() if subset else None
        batch = 10.0 ** rng.uniform(-2.0, 2.5, size=(rows, m))
        expected_mue, expected_fue = batch_capacities(g, 1e4, 3.98e-11, batch, ids=ids)

        links = Links(g, 1e4, 3.98e-11, ids=ids)
        c_mue, c_fue = links.capacities(batch)
        assert c_fue.shape == (m, rows)
        assert c_mue.tobytes() == expected_mue.tobytes()
        assert c_fue.T.tobytes() == expected_fue.tobytes()

        # into one workspace laid out as the oracle lays it out
        work = np.full((3 * m + 1) * rows, np.nan)
        block = work[: rows * m].reshape(rows, m)
        block[:] = batch
        c_buf, s_buf = work[rows * m : 3 * rows * m].reshape(2, m, rows)
        got_mue, got_fue = links.capacities(block, out=(work[3 * rows * m :], c_buf, s_buf))
        assert got_mue.tobytes() == expected_mue.tobytes()
        assert got_fue.T.tobytes() == expected_fue.tobytes()

    @pytest.mark.parametrize("m, rows", [(1, 31), (3, 29791), (5, 15625), (9, 19683)])
    @pytest.mark.parametrize("subset", [False, True], ids=["all", "subset"])
    def test_blas_rounds_the_transposed_product_alike(self, m, rows, subset):
        # the station-major kernel rests on this: BLAS computes
        # g_cross.T @ powers.T exactly as the transpose of powers @ g_cross,
        # over the strided view of the gain matrix and over a copy
        rng = np.random.default_rng(rows)
        g = 10.0 ** rng.uniform(-10.0, 0.0, size=(m + 1, m + 1))
        g_cross = np.ascontiguousarray(g[1:, 1:]) if subset else g[1:, 1:]
        powers = 10.0 ** rng.uniform(-2.0, 2.5, size=(rows, m))
        station_major = np.matmul(g_cross.T, powers.T, out=np.empty((m, rows)))
        assert station_major.T.tobytes() == (powers @ g_cross).tobytes()

    def test_subset_matches_its_own_gain_matrix(self):
        # stations [2, 0] of a 3-station matrix are the 2-station matrix of
        # exactly those links, in that order
        rng = np.random.default_rng(11)
        g = rng.uniform(1e-10, 1.0, size=(4, 4))
        ids = [2, 0]
        keep = [0] + [1 + i for i in ids]
        sub = g[np.ix_(keep, keep)]
        powers = rng.uniform(0.0, 300.0, size=2)
        c_mue, c_fue = Links(g, 1e4, 3.98e-11, ids=ids).capacities(powers)
        expected_mue, expected_fue = Links(sub, 1e4, 3.98e-11).capacities(powers)
        assert c_mue == pytest.approx(expected_mue, rel=1e-12)
        assert c_fue == pytest.approx(expected_fue, rel=1e-12)
