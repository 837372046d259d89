"""Exhaustive search over the joint discrete action space for small instances.

Ground truth for near-optimality tests: enumerates every joint power
assignment, evaluates the same link model as the simulator, and returns
the feasible maximizer of the femto sum capacity (or the unconstrained
maximizer, flagged infeasible, when no assignment meets the QoS).

The enumeration runs in blocks. One ``(n**k, m)`` power block is built
once: its last k columns hold every level combination of the last k
agents, in lexicographic order, with k the largest count for which
``n**k`` fits ``_CHUNK`` rows (at least 1, at most m). Each block then
fixes the first ``m - k`` agents (the prefix) by filling only their columns.

The block stays row-major, one joint action a row, as the macro user's
matrix-vector product needs it; the femto-user capacities come back
station-major, ``(m, n**k)`` (see ``channel.Links``), so each station's
capacities over the block are one contiguous row. The femto sum capacity
of each joint action is added station row by station row, in the order
numpy's ``sum(axis=1)`` adds a row of the row-major layout (see
:func:`_row_sums`), and the QoS mask is built a station row at a time:
the objective, and so the maximizer and every tie, is the same to the
last bit as a single ``sum(axis=1)`` over the whole enumeration.

Most blocks are never evaluated. One loop runs at most twice. The QoS
pass bounds each block (:func:`_block_bounds`), gives -inf to one whose
macro or station bound falls below its threshold, and visits the rest by
descending bound until none left reaches the best feasible action. A
visited block is refined by one station first: its n children, its first
suffix station fixed at each level, are bounded and tested the same way,
and only the survivors' rows are evaluated, in one batch, in flat-index
order. If the first block evaluated holds no feasible action,
:func:`min_levels` is asked whether thresholds relaxed by ``_MARGIN`` can
be met; if not, the QoS pass ends. Asked up front, it would cost about a
quarter of the search where the first block holds the optimum. Only if
the QoS pass finds nothing does the loop run again without the QoS test.

The result is full enumeration's to the last bit; ``n_enumerated`` counts
the space searched. Only the macro user's capacity depends on the batch an
action is evaluated in: from 8 stations on, OpenBLAS rounds the last
``rows mod 4`` rows of a batch differently in the last bit, which can
matter only where an action's macro capacity is within that bit of its
threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import _LN2, ActionSet, Links
from .reward import QosThresholds

_CHUNK = 1 << 15
_MARGIN = 1.0 + 1e-9  # covers the last-bit roundings of the kernel and the bounds


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

    The assignments are evaluated one block of ``n**k`` rows at a time,
    in a QoS pass and, if it finds no feasible action, a pass without
    (see the module docstring); a block with ``k = 1`` is larger than
    ``_CHUNK`` when ``n_power`` is. Ties break to the lexicographically
    smallest action-index vector: within a block by the first-index
    argmax, across blocks by the smaller flat index. Raises
    :class:`EnumerationCapExceeded` when ``n_power ** M`` exceeds the
    cap, before anything is allocated.
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

    def bound(prefixes, qos):
        """The femto-sum bounds of ``(r, p)`` prefixes' blocks; with ``qos``, -inf if hopeless."""
        station, macro = _block_bounds(gains, levels, prefixes, p_bs_mw, noise_mw)
        upper = station.sum(axis=1)
        if qos:
            upper[(macro < thresholds.mue) | (station < q_fue).any(axis=1)] = -np.inf
        return upper

    # the last k agents vary inside a block, the first p = m - k are fixed
    # per block; agent 0 is the most significant digit throughout
    k = 1
    while k < m and n ** (k + 1) <= _CHUNK:
        k += 1
    p = m - k
    prefixes = levels[np.indices((n,) * p).reshape(p, n**p).T]
    # one workspace for the block and the capacities written from it, so
    # the block loop allocates no large array: glibc's malloc raises its
    # mmap and trim thresholds to the largest chunk it has unmapped, and
    # once it has unmapped this one, every later call and every smaller
    # temporary reuses pages already mapped instead of faulting fresh ones
    rows = n**k
    child_rows = rows // n
    work = np.empty((3 * m + 1) * rows)
    full = rows * m
    block = work[:full].reshape(rows, m)
    block[:, p:] = levels[np.indices((n,) * k).reshape(k, -1).T]
    children = np.empty((n, p + 1))  # a visited block's prefix, then each level
    children[:, p] = levels

    def best(values, starts):
        """The largest value and minus its flat index, the first of a tie.

        ``starts`` holds the flat index of each evaluated child's first row.
        """
        i = int(np.argmax(values))
        return float(values[i]), -int(starts[i // child_rows] + i % child_rows)

    def search(qos):
        """One pass's best action as ``(objective, -flat index)``, a tie to the smaller index.

        With ``qos``, the best meeting QoS, or ``None``. Without, the best
        of all; it runs only when the QoS pass has found none, so one
        meeting QoS is an error. The incumbent starts below every objective
        and above every hopeless bound.
        """
        upper = bound(prefixes, qos)
        incumbent = (-np.finfo(float).max, 1)  # 1: no action yet
        certify = qos
        for b in np.argsort(-upper, kind="stable").tolist():
            if upper[b] < incumbent[0]:
                break
            # the block's n children, its first suffix station at each level,
            # face the same test; the survivors' rows are evaluated together,
            # in flat-index order, so a tie still goes to the smaller index
            children[:, :p] = prefixes[b]
            kept = np.flatnonzero(bound(children, qos) >= incumbent[0])
            if not kept.size:
                continue
            size = kept.size * child_rows
            # one scalar fill per prefix column: a (p,) row broadcast into the
            # strided prefix columns costs several times more
            for j in range(p):
                block[:size, j] = prefixes[b, j]
            block[:size, p].reshape(kept.size, child_rows)[:] = levels[kept, None]
            c_fue, signal = (work[i * full : i * full + size * m].reshape(m, size) for i in (1, 2))
            c_mue = work[3 * full : 3 * full + size]
            links.capacities(block[:size], out=(c_mue, c_fue, signal))
            sums = _row_sums(c_fue)

            starts = b * rows + kept * child_rows
            # the femto comparisons only matter where the macro user is served
            feasible = c_mue >= thresholds.mue
            if feasible.any():
                for j in range(m):
                    feasible &= c_fue[j] >= q_fue[j]
            if not qos:
                if feasible.any():
                    raise RuntimeError("an action meets QoS that the QoS pass certified infeasible")
                incumbent = max(incumbent, best(sums, starts))
            elif feasible.any():
                incumbent = max(incumbent, best(np.where(feasible, sums, -np.inf), starts))
            elif certify and (
                min_levels(links, levels, q_fue / _MARGIN, thresholds.mue / _MARGIN) is None
            ):
                return None  # not even thresholds relaxed by _MARGIN can be met
            certify = False
        return incumbent if incumbent[1] <= 0 else None

    found = search(qos=True)
    objective, flat_index = found or search(qos=False)
    indices = tuple(int(d) for d in np.unravel_index(-flat_index, (n,) * m))
    c_mue, c_fue = links.capacities(levels[np.array(indices)])

    return OracleResult(
        best_action=indices,
        best_powers_dbm=tuple(float(actions.levels_dbm[i]) for i in indices),
        best_objective=objective,
        feasible=found is not None,
        c_mue=c_mue,
        fue_capacities=tuple(float(c) for c in c_fue),
        n_enumerated=total,
    )


def min_levels(
    links: Links, levels: np.ndarray, q_fue: np.ndarray, q_mue: float
) -> tuple[int, ...] | None:
    """The least joint action meeting every femto threshold, or ``None`` when QoS cannot be met.

    A femto user's capacity rises with its own station's power and falls
    with every other femto power; the macro user's falls with every femto
    power (Yates, IEEE JSAC 1995). So, from every station at level 0, each
    station is raised to its smallest level that meets its own threshold
    with the others fixed, read from one ``(n, m)`` batch, and never
    lowered, until nothing changes. Every raise is forced, so the result
    a* lies below every action meeting the femto thresholds, componentwise;
    QoS can be met exactly when a* exists and ``c_mue(a*) >= q_mue``.
    """
    m, n = len(q_fue), len(levels)
    action = np.zeros(m, dtype=np.intp)
    batch = np.empty((n, m))
    raised = True
    while raised:
        raised = False
        for j in range(m):
            batch[:] = levels[action]
            batch[:, j] = levels
            c_mue, c_fue = links.capacities(batch)
            met = np.flatnonzero(c_fue[j, action[j] :] >= q_fue[j])
            if not met.size:
                return None
            if met[0]:
                action[j] += met[0]
                raised = True
    # a* is row a*[-1] of the last batch, which raised nothing; a one-row
    # batch would round the macro capacity differently in the last bit
    return tuple(action.tolist()) if c_mue[action[-1]] >= q_mue else None


def _block_bounds(
    gains: np.ndarray, levels: np.ndarray, prefixes: np.ndarray, p_bs_mw: float, noise_mw: float
):
    """Capacity bounds ``(r, m)`` and ``(r,)`` over the blocks of ``r`` prefixes ``(r, p)``.

    A block holds every action whose first p stations are at its prefix's
    levels, given in mW. Capacities are monotone in the femto powers (Yates,
    IEEE JSAC 1995): a bound puts a suffix station's own power at the top
    level and the suffix interferers at the bottom. It adds only
    non-negative products, less the few roundings by which the kernel's
    subtraction of the own signal can read the interference low; if it
    cannot be computed, or p is 0, it is +inf.
    """
    m, (r, p) = len(gains) - 1, prefixes.shape
    if p == 0:  # the whole space, which nothing can prune
        return np.full((r, m), np.inf), np.full(r, np.inf)
    g, low, top = gains[1:, 1:], levels[0], levels[-1]
    cross = g * (1.0 - np.eye(m))
    signal = np.hstack((prefixes, np.full((r, m - p), top))) * np.diag(g)
    rest = p_bs_mw * gains[0, 1:] + noise_mw
    with np.errstate(all="ignore"):
        den = prefixes @ cross[:p] + low * cross[p:].sum(axis=0) + rest
        den -= 2 * (m + 5) * np.finfo(float).eps * (top * g.sum(axis=0) + rest)
        station = np.where(den > 0.0, np.log1p(signal / den) / _LN2, np.inf) * _MARGIN
        den = prefixes @ gains[1 : p + 1, 0] + low * gains[p + 1 :, 0].sum() + noise_mw
        macro = np.log1p(p_bs_mw * gains[0, 0] / den) / _LN2 * _MARGIN
    return station, macro


def _row_sums(c: np.ndarray) -> np.ndarray:
    """``c.T.sum(axis=1)`` of a station-major ``(m, k)`` array, added row by row.

    Each of the k sums is one joint action's femto sum, and it rounds as
    numpy's pairwise sum of that action's m capacities in a contiguous
    row would: left to right below 8 stations; from 8 on, 8 running sums
    combined as ((0+1)+(2+3))+((4+5)+(6+7)) before the tail. Only the sign
    of an all-zero sum can differ (numpy starts from +0.0). Numpy splits a
    row of more than 128 in halves, but no search gets there: at least
    2**129 joint actions pass any allowed cap, and their prefix table would
    need more than 64 dimensions.
    """
    n = c.shape[0]
    if n < 8:
        total = c[0].copy()
        for j in range(1, n):
            total += c[j]
        return total
    body = n - n % 8
    r = [c[j] for j in range(8)]
    for i in range(8, body, 8):
        r = [r[j] + c[i + j] for j in range(8)]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for j in range(body, n):
        total += c[j]
    return total
