"""Exhaustive search over the joint discrete action space for small instances.

Ground truth for near-optimality tests: searches every joint power
assignment, evaluates the same link model as the simulator, and returns
the feasible maximizer of the femto sum capacity (or the unconstrained
maximizer, flagged infeasible, when no assignment meets the QoS).

The search is a branch-and-bound over prefixes. A prefix fixes the
levels of stations 0 to d-1, and its n children fix station d at each
level, down to leaves that fix every station but the last: a leaf holds n
joint actions. Capacities are monotone in the femto powers (Yates, IEEE
JSAC 1995), so every prefix has upper bounds on each capacity under it,
and on their femto sum, updated from its parent's (:class:`_Bounds`).

One pass runs at most twice: for QoS and then, only if no action meets
QoS, without it. With QoS, a prefix whose macro or station bound falls
below its threshold gets the bound -inf. A pass first descends a beam,
the ``_BEAM`` prefixes with the best bounds at each depth, and evaluates
their leaves; the best row, or with QoS the best row meeting it, is the
incumbent. If the beam holds no such row, :func:`min_levels` is asked
whether thresholds relaxed by ``_MARGIN`` can be met; if not, the QoS
pass ends. Then the pass expands, from the root, every prefix whose bound
reaches the incumbent: depth first, in pieces of at most ``n**k``
children, k the largest with ``n**k <= _CHUNK`` (at least 1, at most m),
by descending bound. The surviving leaves are evaluated in batches of at
most ``n**k`` rows, each pruned again against the incumbent first.

The batch is row-major, one joint action a row, as the macro user's
matrix-vector product needs it; the femto-user capacities come back
station-major, ``(m, rows)`` (see ``channel.Links``), so each station's
capacities over the batch are one contiguous row. The femto sum capacity
of each joint action is added station row by station row, in the order
numpy's ``sum(axis=1)`` adds a row of the row-major layout (see
:func:`_row_sums`), and the QoS mask is built a station row at a time:
the objective, and so the maximizer and every tie, is the same to the
last bit as a single ``sum(axis=1)`` over the whole enumeration.

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
_BEAM = 16  # prefixes kept per depth while the first incumbent is sought
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
    """Search all joint power assignments and maximize femto sum capacity.

    A QoS pass and, if it finds no feasible action, a pass without, each
    a beam and then a branch-and-bound over prefixes (see the module
    docstring); a leaf of more than ``_CHUNK`` actions, when ``n_power``
    is that large, is one batch. Ties break to the lexicographically
    smallest action-index vector: in a batch, the smallest flat index
    among the rows reaching the largest objective, and across batches the
    incumbent ``(objective, -flat index)``, which a prefix whose bound
    equals it can still beat. Raises :class:`EnumerationCapExceeded` when
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
    bounds = _Bounds(gains, levels, p_bs_mw, noise_mw)

    # a piece of prefixes has at most `rows` children, and a piece of
    # leaves at most `rows` joint actions
    k = 1
    while k < m and n ** (k + 1) <= _CHUNK:
        k += 1
    rows = n**k
    piece = rows // n
    # one workspace for the batch and the capacities written from it, so
    # the search allocates no large array per batch: glibc's malloc raises
    # its mmap and trim thresholds to the largest chunk it has unmapped,
    # and once it has unmapped this one, every later call and every smaller
    # temporary reuses pages already mapped instead of faulting fresh ones
    work = np.empty((3 * m + 1) * rows)
    full = rows * m

    def digits(flat, d):
        """The ``(r, d)`` level indices of prefixes of d stations, given by flat index."""
        return (flat[:, None] // n ** np.arange(d - 1, -1, -1)) % n

    def expand(d, flat, qos):
        """The flat indices and femto-sum bounds of the children of prefixes of d stations.

        With ``qos``, a child whose macro or station bound falls below its
        threshold gets -inf.
        """
        # a piece's children fit the workspace; the beam's need not, when
        # a piece holds fewer than _BEAM prefixes
        out = work if flat.size <= piece else None
        station, macro = bounds.children(levels[digits(flat, d)], out=out)
        upper = station.sum(axis=1)
        if qos:
            upper[(macro < thresholds.mue) | (station < q_fue).any(axis=1)] = -np.inf
        return (flat[:, None] * n + np.arange(n)).ravel(), upper

    def evaluate(flat, qos, incumbent):
        """The incumbent after the rows of the leaves at ``flat``, in one batch.

        With ``qos``, a row counts only if it meets QoS. Without, it runs
        only when the QoS pass has found none, so one meeting QoS is an error.
        """
        size = flat.size * n
        block = work[: size * m].reshape(flat.size, n, m)
        block[:, :, :-1] = levels[digits(flat, m - 1)][:, None]
        block[:, :, -1] = levels
        c_fue, signal = (work[i * full : i * full + size * m].reshape(m, size) for i in (1, 2))
        c_mue = work[3 * full : 3 * full + size]
        links.capacities(block.reshape(size, m), out=(c_mue, c_fue, signal))
        values = _row_sums(c_fue)
        # the femto comparisons only matter where the macro user is served
        feasible = c_mue >= thresholds.mue
        if feasible.any():
            for j in range(m):
                feasible &= c_fue[j] >= q_fue[j]
        if not qos:
            if feasible.any():
                raise RuntimeError("an action meets QoS that the QoS pass certified infeasible")
        elif feasible.any():
            values = np.where(feasible, values, -np.inf)
        else:
            return incumbent
        # the largest value, and of the rows reaching it the smallest flat index
        index = (flat[:, None] * n + np.arange(n)).ravel()
        tied = np.flatnonzero(values == values.max())
        i = tied[np.argmin(index[tied])]
        return max(incumbent, (float(values[i]), -int(index[i])))

    def search(qos):
        """One pass's best action as ``(objective, -flat index)``, a tie to the smaller index.

        With ``qos``, the best meeting QoS, or ``None``. The incumbent
        starts below every objective and above every hopeless bound.
        """
        incumbent = (-np.finfo(float).max, 1)  # 1: no action yet
        flat = np.zeros(1, dtype=np.int64)
        for d in range(m - 1):
            flat, upper = expand(d, flat, qos)
            beam = np.argsort(-upper)[:_BEAM]
            flat = flat[beam[upper[beam] > -np.inf]]
        for i in range(0, flat.size, piece):
            incumbent = evaluate(flat[i : i + piece], qos, incumbent)
        if qos and incumbent[1] > 0:
            if min_levels(links, levels, q_fue / _MARGIN, thresholds.mue / _MARGIN) is None:
                return None  # not even thresholds relaxed by _MARGIN can be met
        # depth first from the root, the best piece of each expansion first
        stack = [(0, np.zeros(1, dtype=np.int64), np.full(1, np.inf))]
        while stack:
            d, flat, upper = stack.pop()
            flat = flat[upper >= incumbent[0]]
            if not flat.size:
                continue
            if d == m - 1:
                incumbent = evaluate(flat, qos, incumbent)
                continue
            flat, upper = expand(d, flat, qos)
            order = np.argsort(-upper)
            flat, upper = flat[order], upper[order]
            for i in reversed(range(0, flat.size, piece)):
                stack.append((d + 1, flat[i : i + piece], upper[i : i + piece]))
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


class _Bounds:
    """Capacity bounds over the joint actions under each prefix, from its parent's sums.

    A prefix fixes the first d stations at given levels, in mW.
    Capacities are monotone in the femto powers (Yates, IEEE JSAC 1995): a
    bound puts a free station's own power at the top level and the free
    interferers at the bottom. It adds only non-negative products, less the
    few roundings by which the kernel's subtraction of the own signal can
    read the interference low; if it cannot be computed, it is +inf. What
    does not depend on the prefix is computed once, here: for each depth,
    the free stations' interference at the bottom level, plus the macro
    station's and the noise, less that slack.
    """

    def __init__(self, gains: np.ndarray, levels: np.ndarray, p_bs_mw: float, noise_mw: float):
        m = len(gains) - 1
        g, low, top = gains[1:, 1:], levels[0], levels[-1]
        self.levels = levels
        self.cross = g * (1.0 - np.eye(m))
        self.serve = np.diag(g)
        self.to_mue = gains[1:, 0]
        self.top_signal = top * self.serve
        self.mue_signal = p_bs_mw * gains[0, 0]
        rest = p_bs_mw * gains[0, 1:] + noise_mw
        with np.errstate(all="ignore"):
            slack = 2 * (m + 5) * np.finfo(float).eps * (top * g.sum(axis=0) + rest)
            # row d: stations d to m-1 at the bottom level, row m: none
            free = np.vstack((np.cumsum(self.cross[::-1], axis=0)[::-1], np.zeros(m)))
            self.femto_rest = low * free + rest - slack
            free = np.append(np.cumsum(self.to_mue[::-1])[::-1], 0.0)
            self.macro_rest = low * free + noise_mw

    def children(self, prefixes: np.ndarray, out: np.ndarray | None = None) -> tuple:
        """Station bounds ``(r*n, m)`` and macro bounds ``(r*n,)`` of the children of prefixes.

        ``prefixes`` is ``(r, d)``, d < m; child ``i*n + l`` adds station d
        at level l to prefix i. A child's partial interference is its
        parent's plus that one station's, so each bound is one elementwise
        pass over the children. ``out``, a contiguous buffer of at least
        ``r*n*m`` floats, holds the station bounds instead of a new array.
        """
        (r, d), n, m = prefixes.shape, len(self.levels), len(self.serve)
        signal = np.empty((r, m))
        signal[:, :d] = prefixes * self.serve[:d]
        signal[:, d:] = self.top_signal[d:]
        den = np.empty((r, n, m)) if out is None else out[: r * n * m].reshape(r, n, m)
        with np.errstate(all="ignore"):
            femto = prefixes @ self.cross[:d]
            femto += self.femto_rest[d + 1]
            np.add(femto[:, None], self.levels[:, None] * self.cross[d], out=den)
            lost = ~(den > 0.0)
            own = self.levels * self.serve[d] / den[:, :, d]
            station = np.divide(signal[:, None], den, out=den)
            station[:, :, d] = own
            np.log1p(station, out=station)
            station /= _LN2
            station[lost] = np.inf
            station *= _MARGIN
            macro = (prefixes @ self.to_mue[:d] + self.macro_rest[d + 1])[:, None]
            macro = np.log1p(self.mue_signal / (macro + self.levels * self.to_mue[d])) / _LN2
        return station.reshape(r * n, m), macro.ravel() * _MARGIN


def _row_sums(c: np.ndarray) -> np.ndarray:
    """``c.T.sum(axis=1)`` of a station-major ``(m, k)`` array, added row by row.

    Each of the k sums is one joint action's femto sum, and it rounds as
    numpy's pairwise sum of that action's m capacities in a contiguous
    row would: left to right below 8 stations; from 8 on, 8 running sums
    combined as ((0+1)+(2+3))+((4+5)+(6+7)) before the tail. Only the sign
    of an all-zero sum can differ (numpy starts from +0.0). Numpy splits a
    row of more than 128 in halves, but no search gets there: 129 stations
    have at least 2**129 joint actions, far past any allowed cap.
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
