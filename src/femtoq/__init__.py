"""Cooperative tabular Q-learning for downlink power allocation in dense femtocell networks."""

__version__ = "0.1.0"

from .channel import (
    GainMatrix,
    Links,
    build_gain_matrix,
    dbm_to_mw,
    evaluate_capacities,
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
from .learning import ActionSet, LearningParams
from .oracle import EnumerationCapExceeded, OracleResult, exhaustive_search
from .reward import QosThresholds
from .topology import (
    AgentState,
    Position,
    Topology,
    distance,
    generate_layout,
)
