"""Exhaustive search over the joint discrete action space for small instances.

Ground truth for near-optimality tests: enumerates every joint power
assignment, evaluates the same link model as the simulator, and returns
the feasible maximizer of the femto sum capacity (or the unconstrained
maximizer, flagged infeasible, when no assignment meets the QoS).

The enumeration runs in blocks. One ``(n**k, m)`` power block is built
once: its last k columns hold every level combination of the last k
agents, in lexicographic order, with k the largest count for which
``n**k`` fits ``_CHUNK`` rows (at least 1, at most m). Each block then
fixes the first ``m - k`` agents (the prefix) by filling only their
columns, prefix after prefix in lexicographic order, so the blocks
together walk the joint actions in ascending lexicographic order.

The block stays row-major, one joint action a row, as the macro user's
matrix-vector product needs it; the femto-user capacities come back
station-major, ``(m, n**k)`` (see ``channel.Links``), so each station's
capacities over the block are one contiguous row. The femto sum capacity
of each joint action is added station row by station row, in the order
numpy's ``sum(axis=1)`` adds a row of the row-major layout (see
:func:`_row_sums`), and the QoS mask is built a station row at a time:
the objective, and so the maximizer and every tie, is the same to the
last bit as a single ``sum(axis=1)`` over the whole enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import Links
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
    gains: np.ndarray,
    actions: ActionSet,
    thresholds: QosThresholds,
    *,
    p_bs_mw: float,
    noise_mw: float,
    enumeration_cap: int = 10_000_000,
) -> OracleResult:
    """Enumerate all joint power assignments and maximize femto sum capacity.

    The assignments are evaluated one block of ``n**k`` rows at a time
    (see the module docstring); a block with ``k = 1`` is larger than
    ``_CHUNK`` when ``n_power`` is. Ties break to the lexicographically
    smallest action-index vector: within a block by the first-index
    argmax, across blocks by keeping the earlier block unless a later one
    is strictly better. Raises :class:`EnumerationCapExceeded` when
    ``n_power ** M`` exceeds the cap, before anything is allocated.
    """
    m = len(gains) - 1
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
    levels = actions.levels_mw

    # the last k agents vary inside a block, the first p = m - k are fixed
    # per block; agent 0 is the most significant digit throughout
    k = 1
    while k < m and n ** (k + 1) <= _CHUNK:
        k += 1
    p = m - k
    # one workspace for the block and the capacities written from it, so
    # the block loop allocates no large array: glibc's malloc raises its
    # mmap and trim thresholds to the largest chunk it has unmapped, and
    # once it has unmapped this one, every later call and every smaller
    # temporary reuses pages already mapped instead of faulting fresh ones
    rows = n**k
    work = np.empty((3 * m + 1) * rows)
    size = rows * m
    block = work[:size].reshape(rows, m)
    c_fue, signal = (work[i * size : (i + 1) * size].reshape(m, rows) for i in (1, 2))
    c_mue = work[3 * size :]
    block[:, p:] = levels[np.indices((n,) * k).reshape(k, -1).T]

    best_any = (-np.inf, None)
    best_feasible = (-np.inf, None)
    for b, prefix in enumerate(np.ndindex((n,) * p)):
        start = b * len(block)
        # one scalar fill per column: a (p,) row broadcast into the strided
        # prefix columns costs several times more
        for j, d in enumerate(prefix):
            block[:, j] = levels[d]
        links.capacities(block, out=(c_mue, c_fue, signal))
        sums = _row_sums(c_fue)

        i = int(np.argmax(sums))
        if sums[i] > best_any[0]:
            best_any = (float(sums[i]), start + i)
        # the femto comparisons only matter where the macro user is served
        feasible = c_mue >= thresholds.mue
        if feasible.any():
            for j in range(m):
                feasible &= c_fue[j] >= q_fue[j]
        if feasible.any():
            masked = np.where(feasible, sums, -np.inf)
            i = int(np.argmax(masked))
            if masked[i] > best_feasible[0]:
                best_feasible = (float(masked[i]), start + i)

    feasible_found = best_feasible[1] is not None
    objective, flat_index = best_feasible if feasible_found else best_any
    indices = tuple(int(d) for d in np.unravel_index(flat_index, (n,) * m))
    c_mue, c_fue = links.capacities(levels[np.array(indices)])

    return OracleResult(
        best_action=indices,
        best_powers_dbm=tuple(float(actions.levels_dbm[i]) for i in indices),
        best_objective=objective,
        feasible=feasible_found,
        c_mue=c_mue,
        fue_capacities=tuple(float(c) for c in c_fue),
        n_enumerated=total,
    )


def _row_sums(c: np.ndarray) -> np.ndarray:
    """``c.T.sum(axis=1)`` of a station-major ``(m, k)`` array, added row by row.

    Each of the k sums is one joint action's femto sum, and it rounds as
    numpy's pairwise sum of that action's m capacities in a contiguous
    row would: left to right below 8 stations; from 8 on, 8 running sums
    combined as ((0+1)+(2+3))+((4+5)+(6+7)) before the tail. Only the sign
    of an all-zero sum can differ (numpy starts from +0.0). Above 128
    stations, at least 2**129 joint actions that no search finishes, the
    sums come from a row-major copy.
    """
    n = c.shape[0]
    if n < 8:
        total = c[0].copy()
        for j in range(1, n):
            total += c[j]
        return total
    if n <= 128:
        body = n - n % 8
        r = [c[j] for j in range(8)]
        for i in range(8, body, 8):
            r = [r[j] + c[i + j] for j in range(8)]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for j in range(body, n):
            total += c[j]
        return total
    return c.T.copy().sum(axis=1)
