"""Q-learning parameters, the discrete power action set and the exploration schedule."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LearningParams:
    """Hyperparameters for the per-agent Q-learning loop, as checked by config."""

    alpha: float = 0.5
    gamma: float = 0.9
    epsilon: float = 0.1
    explore_fraction: float = 0.8
    max_iterations: int = 50_000


class ActionSet:
    """Discrete transmit power levels, uniformly spaced in dBm."""

    __slots__ = ("levels_dbm", "levels_mw")

    def __init__(self, levels_dbm: np.ndarray):
        levels = np.asarray(levels_dbm, dtype=float)
        if levels.ndim != 1 or levels.size < 2:
            raise ValueError("an action set needs at least two power levels")
        if np.any(np.diff(levels) <= 0):
            raise ValueError("power levels must be strictly ascending")
        levels = levels.copy()
        levels.setflags(write=False)
        self.levels_dbm = levels
        mw = 10.0 ** (levels / 10.0)
        mw.setflags(write=False)
        self.levels_mw = mw

    def __len__(self) -> int:
        return self.levels_dbm.size


def make_action_set(p_min_dbm: float, p_max_dbm: float, n: int) -> ActionSet:
    """Build ``n`` uniformly spaced power levels inclusive of both endpoints."""
    return ActionSet(np.linspace(p_min_dbm, p_max_dbm, n))


def epsilon_at(iteration: int, params: LearningParams) -> float:
    """Exploration rate at an iteration: constant early, zero afterwards."""
    if iteration < params.explore_fraction * params.max_iterations:
        return params.epsilon
    return 0.0
