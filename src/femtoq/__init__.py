"""Cooperative tabular Q-learning for downlink power allocation in dense femtocell networks."""

__version__ = "0.1.0"

from .channel import (
    GainMatrix,
    Links,
    build_gain_matrix,
    dbm_to_mw,
    evaluate_capacities,
    gain_from_pathloss_db,
    indoor_to_outdoor_pathloss_db,
    residential_pathloss_db,
)
from .config import (
    ConfigError,
    ScenarioConfig,
    build_topology,
    config_from_dict,
    config_hash,
    config_to_dict,
    load_config,
    save_config,
    with_pinned_layout,
)
from .coordinator import (
    Agent,
    ConstraintReport,
    DensityStep,
    DensitySummary,
    DensityTrace,
    RunTrace,
    Simulation,
    check_constraints,
    jain_index,
)
from .learning import ActionSet, LearningParams, epsilon_at, make_action_set
from .oracle import EnumerationCapExceeded, OracleResult, exhaustive_search
from .reward import QosThresholds
from .topology import (
    AgentState,
    Position,
    RingRadii,
    Topology,
    agent_state,
    distance,
    generate_layout,
    proximity_ratio,
    ring_index,
)
