"""Tests for layout generation, ring-state encoding, and proximity geometry."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from femtoq.config import ConfigError, ScenarioConfig, build_topology
from femtoq.coordinator import Simulation
from femtoq.topology import AgentState, Position, Topology, distance, generate_layout
from reference import agent_state, proximity_ratio, ring_index

MBS_RADII = (50.0, 150.0, 400.0)
MUE_RADII = (15.0, 50.0, 125.0)


class TestRingIndex:
    @pytest.mark.parametrize(
        "d,expected",
        [(10.0, 0), (50.0, 0), (50.1, 1), (150.0, 1), (400.0, 2), (401.0, 3)],
    )
    def test_binning(self, d, expected):
        assert ring_index(d, [50.0, 150.0, 400.0]) == expected

    def test_empty_radii_rejected(self):
        # ring radii reach the ring index from ScenarioConfig
        with pytest.raises(ConfigError, match="rings.mbs_radii must be nonempty"):
            ScenarioConfig(mbs_radii=())

    @given(st.floats(min_value=0.0, max_value=1e4), st.floats(min_value=0.0, max_value=1e4))
    def test_monotone(self, d1, d2):
        lo, hi = sorted((d1, d2))
        radii = [50.0, 150.0, 400.0]
        assert ring_index(lo, radii) <= ring_index(hi, radii)

    def test_surjective_over_distances(self):
        radii = [50.0, 150.0, 400.0]
        seen = {ring_index(d, radii) for d in (1.0, 100.0, 300.0, 500.0)}
        assert seen == {0, 1, 2, 3}


class TestAgentState:
    def test_innermost_rings(self):
        mue = Position(0.0, 0.0)
        fbs = Position(0.0, 10.0)  # 10 m to both reference points
        mbs = Position(0.0, 20.0)
        assert agent_state(fbs, mbs, mue, MBS_RADII, MUE_RADII) == AgentState(0, 0)

    def test_beyond_all_rings(self):
        fbs, origin = Position(500.0, 0.0), Position(0.0, 0.0)
        assert agent_state(fbs, origin, origin, MBS_RADII, MUE_RADII) == AgentState(3, 3)

    def test_state_space_size(self):
        # three rings around each reference point give 4 x 4 = 16 states
        assert (len(MBS_RADII) + 1) * (len(MUE_RADII) + 1) == 16

    def test_radii_must_ascend(self):
        # ring radii reach the ring state as ScenarioConfig has checked them
        with pytest.raises(ConfigError, match="rings.mbs_radii not ascending"):
            ScenarioConfig(mbs_radii=(150.0, 50.0, 400.0))


class TestProximityRatio:
    def test_at_threshold(self):
        assert proximity_ratio(Position(25.0, 0.0), Position(0.0, 0.0), 25.0) == 1.0

    def test_halfway(self):
        assert proximity_ratio(Position(12.5, 0.0), Position(0.0, 0.0), 25.0) == 0.5

    def test_zero_distance_rejected(self):
        # a femto station on the macro user never reaches the proximity ratio
        with pytest.raises(ValueError, match="coincident nodes"):
            Topology(
                mbs=Position(0.0, 0.0),
                mue=Position(1.0, 1.0),
                fbs=(Position(1.0, 1.0),),
                fue=(Position(2.0, 2.0),),
            )

    def test_nonpositive_threshold_rejected(self):
        # the vicinity threshold reaches the proximity ratio from ScenarioConfig
        with pytest.raises(ConfigError, match="rings.d_th_m must be positive"):
            ScenarioConfig(d_th_m=0.0)

    @given(st.floats(min_value=0.1, max_value=1000.0))
    def test_inside_vicinity_iff_below_one(self, d):
        ratio = proximity_ratio(Position(d, 0.0), Position(0.0, 0.0), 25.0)
        assert (ratio < 1.0) == (d < 25.0)


class TestGenerateLayout:
    def test_single_station_at_grid_origin(self):
        topo = generate_layout(
            1, 35.0, 10.0, Position(-150, 0), Position(3.5, 3.5), seed=0, min_fue_distance=0.5
        )
        assert topo.fbs == (Position(0.0, 0.0),)
        assert distance(topo.fbs[0], topo.fue[0]) <= 10.0

    def test_grid_spacing(self):
        topo = generate_layout(
            4, 35.0, 10.0, Position(-150, 0), Position(3.5, 3.5), seed=1, min_fue_distance=0.5
        )
        dists = [
            distance(a, b)
            for i, a in enumerate(topo.fbs)
            for b in topo.fbs[i + 1 :]
        ]
        assert min(dists) == pytest.approx(35.0)

    def test_deterministic_for_fixed_seed(self):
        kwargs = dict(
            m=6, spacing=35.0, fue_radius=10.0,
            mbs_pos=Position(-150, 0), mue_pos=Position(3.5, 3.5), min_fue_distance=0.5,
        )
        assert generate_layout(seed=42, **kwargs) == generate_layout(seed=42, **kwargs)
        assert generate_layout(seed=42, **kwargs) != generate_layout(seed=43, **kwargs)

    @pytest.mark.parametrize("m", [1, 2, 5, 15])
    def test_users_within_radius(self, m):
        topo = generate_layout(
            m, 35.0, 10.0, Position(-150, 0), Position(3.5, 3.5), seed=m, min_fue_distance=0.5
        )
        for station, user in zip(topo.fbs, topo.fue):
            assert 0.5 <= distance(station, user) <= 10.0

    def test_grid_centered_near_macro_user(self):
        topo = generate_layout(
            15, 35.0, 10.0, Position(-150, 0), Position(3.5, 3.5), seed=9, min_fue_distance=0.5
        )
        cx = sum(p.x for p in topo.fbs) / 15
        cy = sum(p.y for p in topo.fbs) / 15
        assert math.hypot(cx - topo.mue.x, cy - topo.mue.y) < 35.0

    @given(st.integers(min_value=1, max_value=15), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30)
    def test_layout_always_valid(self, m, seed):
        topo = generate_layout(
            m, 35.0, 10.0, Position(-150, 0), Position(3.5, 3.5), seed=seed, min_fue_distance=0.5
        )
        assert topo.m == m  # Topology validation ran in the constructor

    def test_state_constant_for_fixed_layout(self):
        config = ScenarioConfig(m_max=5, seed=3)
        states = [a.state for a in Simulation(config).agents]
        assert states == [a.state for a in Simulation(config).agents]


class TestTopologyValidation:
    def test_rejects_coincident_nodes(self):
        with pytest.raises(ValueError):
            Topology(
                mbs=Position(0, 0),
                mue=Position(0, 0),
                fbs=(Position(1, 1),),
                fue=(Position(2, 2),),
            )

    def test_rejects_count_mismatch(self):
        with pytest.raises(ValueError):
            Topology(
                mbs=Position(0, 0),
                mue=Position(1, 0),
                fbs=(Position(1, 1), Position(2, 2)),
                fue=(Position(3, 3),),
            )


# one station exactly 50.0 m from the macro station, one 50.1 m from it and
# one exactly d_th_m = 25 m from the macro user
BOUNDARY_LAYOUT = {
    "mbs_position": (0.0, 0.0),
    "mue_position": (100.0, 0.0),
    "fbs_positions": ((50.0, 0.0), (0.0, 50.1), (100.0, 25.0)),
    "fue_positions": ((53.0, 4.0), (3.0, 54.1), (103.0, 29.0)),
    "m_max": 3,
    "seed_agents": 3,
}


class TestSimulationGeometry:
    """Each agent's ring state and proximity, as ``Simulation`` computes them."""

    def test_ring_boundary_belongs_to_the_inner_ring(self):
        sim = Simulation(ScenarioConfig(**BOUNDARY_LAYOUT))
        assert [a.state.mbs_ring for a in sim.agents[:2]] == [0, 1]

    def test_proximity_one_at_the_vicinity_threshold(self):
        sim = Simulation(ScenarioConfig(**BOUNDARY_LAYOUT))
        assert sim.agents[2].proximity == 1.0
        assert sim.agents[2].state.mue_ring == 1

    @pytest.mark.parametrize("seed", range(1, 11))
    @pytest.mark.parametrize(
        "rings",
        [{}, {"mbs_radii": (40.0, 120.0, 300.0), "mue_radii": (10.0, 35.0), "d_th_m": 17.5}],
        ids=["default", "custom"],
    )
    def test_states_and_proximity_equal_reference(self, seed, rings):
        config = ScenarioConfig(seed=seed, **rings)
        topo = build_topology(config)
        sim = Simulation(config)
        for agent, fbs in zip(sim.agents, topo.fbs, strict=True):
            expected = agent_state(fbs, topo.mbs, topo.mue, config.mbs_radii, config.mue_radii)
            assert agent.state == expected
            assert agent.proximity == proximity_ratio(fbs, topo.mue, config.d_th_m)
