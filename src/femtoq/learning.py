"""Q-learning parameters, the discrete power action set and the exploration horizon."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import dbm_to_mw


@dataclass(frozen=True)
class LearningParams:
    """Hyperparameters for the per-agent Q-learning loop, as checked by config."""

    alpha: float
    gamma: float
    epsilon: float
    explore_fraction: float
    max_iterations: int


class ActionSet:
    """``n`` transmit power levels, uniformly spaced in dBm, both endpoints included.

    ``ScenarioConfig`` checks that ``n >= 2`` and ``p_min_dbm < p_max_dbm``.
    """

    __slots__ = ("levels_dbm", "levels_mw")

    def __init__(self, p_min_dbm: float, p_max_dbm: float, n: int):
        levels = np.linspace(p_min_dbm, p_max_dbm, n)
        levels.setflags(write=False)
        self.levels_dbm = levels
        mw = dbm_to_mw(levels)
        mw.setflags(write=False)
        self.levels_mw = mw

    def __len__(self) -> int:
        return self.levels_dbm.size


def explore_until(epsilon: float, explore_fraction: float, max_iterations: int) -> int:
    """The first greedy iteration: ceil(explore_fraction * max_iterations), 0 if epsilon is 0.

    Iterations below it explore with probability ``epsilon``. For an
    integer i, ``i < ceil(x)`` holds exactly when ``i < x``.
    """
    return math.ceil(explore_fraction * max_iterations) if epsilon > 0.0 else 0
