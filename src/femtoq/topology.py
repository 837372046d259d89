"""Node placement; the distances between nodes set ring states, proximities and gains."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class Position(NamedTuple):
    x: float
    y: float


def distance(a: Position, b: Position) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


@dataclass(frozen=True)
class Topology:
    """Fixed placement of the macro station, macro user, femto stations and users."""

    mbs: Position
    mue: Position
    fbs: tuple[Position, ...]
    fue: tuple[Position, ...]

    def __post_init__(self):
        if len(self.fbs) < 1:
            raise ValueError("at least one femto base station is required")
        if len(self.fbs) != len(self.fue):
            raise ValueError(
                f"femto station/user counts differ: {len(self.fbs)} vs {len(self.fue)}"
            )
        nodes = [self.mbs, self.mue, *self.fbs, *self.fue]
        for i in range(len(nodes)):
            for j in range(i + 1, len(nodes)):
                if nodes[i] == nodes[j]:
                    raise ValueError(f"coincident nodes at {nodes[i]}")

    @property
    def m(self) -> int:
        return len(self.fbs)


class AgentState(NamedTuple):
    """Discretized location: ring index around the macro station and the macro user."""

    mbs_ring: int
    mue_ring: int


def generate_layout(
    m: int,
    spacing: float,
    fue_radius: float,
    mbs_pos: Position,
    mue_pos: Position,
    seed,
    *,
    min_fue_distance: float,
) -> Topology:
    """Place ``m`` femto stations on a square grid and drop one user near each.

    The grid is filled row-major and shifted so its centroid sits at the
    origin, which keeps the macro user (placed near the origin by default)
    among the stations. Users are uniform over a disk of ``fue_radius``
    around their station, re-drawn until at least ``min_fue_distance``
    away so serving links keep a physical (sub-unity) gain. Deterministic
    for a fixed seed. The arguments are taken as ``ScenarioConfig`` checks
    them: ``0 < min_fue_distance < fue_radius``, or the draw never ends.
    """
    cols = math.ceil(math.sqrt(m))
    grid = [( (i % cols) * spacing, (i // cols) * spacing ) for i in range(m)]
    cx = sum(p[0] for p in grid) / m
    cy = sum(p[1] for p in grid) / m
    fbs = tuple(Position(x - cx, y - cy) for x, y in grid)

    rng = np.random.default_rng(seed)
    fue = []
    for station in fbs:
        while True:
            u_r, u_theta = rng.random(2)
            r = fue_radius * math.sqrt(u_r)
            if r >= min_fue_distance:
                break
        theta = 2.0 * math.pi * u_theta
        fue.append(Position(station.x + r * math.cos(theta), station.y + r * math.sin(theta)))
    return Topology(mbs=Position(*mbs_pos), mue=Position(*mue_pos), fbs=fbs, fue=tuple(fue))
