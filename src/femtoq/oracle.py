"""Exhaustive search over the joint discrete action space for small instances.

Ground truth for near-optimality tests: enumerates every joint power
assignment, evaluates the same link model as the simulator, and returns
the feasible maximizer of the femto sum capacity (or the unconstrained
maximizer, flagged infeasible, when no assignment meets the QoS).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import GainMatrix, Links
from .learning import ActionSet
from .reward import QosThresholds

_CHUNK = 1 << 15


class EnumerationCapExceeded(RuntimeError):
    """The joint action space is too large to enumerate safely."""


@dataclass(frozen=True)
class OracleResult:
    """Best joint action found by exhaustive enumeration."""

    best_action: tuple[int, ...]
    best_powers_dbm: tuple[float, ...]
    best_objective: float
    feasible: bool
    c_mue: float
    fue_capacities: tuple[float, ...]
    n_enumerated: int


def exhaustive_search(
    gains: GainMatrix,
    actions: ActionSet,
    thresholds: QosThresholds,
    *,
    p_bs_mw: float,
    noise_mw: float,
    enumeration_cap: int = 10_000_000,
) -> OracleResult:
    """Enumerate all joint power assignments and maximize femto sum capacity.

    Ties break to the lexicographically smallest action-index vector.
    Raises :class:`EnumerationCapExceeded` when ``n_power ** M`` exceeds
    the cap.
    """
    m = gains.m
    n = len(actions)
    if len(thresholds.fue) != m:
        raise ValueError(f"expected {m} femto thresholds, got {len(thresholds.fue)}")
    total = n**m
    if total > enumeration_cap:
        raise EnumerationCapExceeded(
            f"joint action space {n}^{m} = {total} exceeds the enumeration cap "
            f"{enumeration_cap}"
        )

    links = Links(gains, p_bs_mw, noise_mw)
    q_fue = np.asarray(thresholds.fue)
    # digit weights: agent 0 is the most significant digit, so ascending
    # enumeration order is lexicographic in the index vector
    weights = n ** np.arange(m - 1, -1, -1, dtype=np.int64)

    best_any = (-np.inf, None)
    best_feasible = (-np.inf, None)
    for start in range(0, total, _CHUNK):
        flat = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        digits = (flat[:, None] // weights[None, :]) % n
        c_mue, c_fue = links.capacities(actions.levels_mw[digits])
        sums = c_fue.sum(axis=1)

        k = int(np.argmax(sums))
        if sums[k] > best_any[0]:
            best_any = (float(sums[k]), start + k)
        feasible = (c_fue >= q_fue).all(axis=1) & (c_mue >= thresholds.mue)
        if feasible.any():
            masked = np.where(feasible, sums, -np.inf)
            k = int(np.argmax(masked))
            if masked[k] > best_feasible[0]:
                best_feasible = (float(masked[k]), start + k)

    feasible_found = best_feasible[1] is not None
    objective, flat_index = best_feasible if feasible_found else best_any
    indices = tuple(int(d) for d in (flat_index // weights) % n)
    c_mue, c_fue = links.capacities(actions.levels_mw[np.array(indices)])

    return OracleResult(
        best_action=indices,
        best_powers_dbm=tuple(float(actions.levels_dbm[i]) for i in indices),
        best_objective=objective,
        feasible=feasible_found,
        c_mue=c_mue,
        fue_capacities=tuple(float(c) for c in c_fue),
        n_enumerated=total,
    )
