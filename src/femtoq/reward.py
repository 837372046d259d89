"""QoS- and proximity-aware reward shaping for the power-control agents.

The proposed reward trades the served user's capacity against quadratic
deviations from the QoS targets, weighted by how close the station sits
to the macro user. It is computed for all agents of one iteration at once.
``REWARDS`` is the read-only table of the names ``reward.name`` may take;
a run that needs another reward passes its own ``reward_fn`` to
``Simulation``.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class QosThresholds:
    """Minimum normalized capacities (b/s/Hz) required per user, as checked by config."""

    mue: float
    fue: tuple[float, ...]


# (c_fue, c_mue, proximity, q_fue, q_mue) -> one reward per agent
RewardFunction = Callable[[np.ndarray, float, np.ndarray, np.ndarray, float], np.ndarray]


def proposed_reward_vector(
    c_fue: np.ndarray,
    c_mue: float,
    proximity: np.ndarray,
    q_fue: np.ndarray,
    q_mue: float,
    mue_capacity_exponent: int = 2,
) -> np.ndarray:
    """Capacity gain minus quadratic QoS deviations, proximity weighted, per agent.

    ``c_fue``, ``proximity`` and ``q_fue`` hold one entry per agent; the
    macro capacity ``c_mue`` and threshold ``q_mue`` are shared. Stations
    near the macro user (proximity < 1) see their capacity gain shrunk and
    the macro deviation penalty amplified; distant stations the reverse.
    The macro capacity enters the gain term raised to
    ``mue_capacity_exponent`` (squared by default) to prioritize it.
    """
    gain = proximity * c_fue * c_mue**mue_capacity_exponent
    mue_penalty = (c_mue - q_mue) ** 2 / proximity
    fue_penalty = (c_fue - q_fue) ** 2
    return gain - mue_penalty - fue_penalty


REWARDS = MappingProxyType({"proposed": proposed_reward_vector})
