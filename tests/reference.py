"""Scalar reference implementations that the tests hold the simulator to.

Each function restates one idea the package computes in batched form, one
link, one agent or one group at a time, so a test can compare the two.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Sequence

import numpy as np

from femtoq.channel import ActionSet, Links, _check_powers, evaluate_capacities
from femtoq.cli import DENSITY_COLUMNS
from femtoq.coordinator import Agent, DensitySummary, explore_until, jain_index, trace_block
from femtoq.oracle import _CHUNK, OracleResult, _row_sums
from femtoq.reward import QosThresholds
from femtoq.topology import AgentState, Position, Topology, distance

_LN2 = math.log(2.0)


# -- units ---------------------------------------------------------------


def mw_to_dbm(mw: float) -> float:
    """Convert a power in milliwatts to dBm; the inverse of ``channel.dbm_to_mw``."""
    if mw <= 0.0:
        raise ValueError(f"power must be positive to express in dBm, got {mw}")
    return 10.0 * math.log10(mw)


# -- geometry ------------------------------------------------------------


def ring_index(d: float, radii: Sequence[float]) -> int:
    """Ring of distance ``d``: the number of boundaries strictly below it.

    A distance on a boundary belongs to the inner ring.
    """
    return sum(1 for r in radii if r < d)


def agent_state(
    fbs: Position, mbs: Position, mue: Position, mbs_radii, mue_radii
) -> AgentState:
    """Ring state of a femto station around the macro station and the macro user."""
    return AgentState(
        ring_index(distance(fbs, mbs), mbs_radii), ring_index(distance(fbs, mue), mue_radii)
    )


def proximity_ratio(fbs: Position, mue: Position, d_th: float) -> float:
    """Femto-to-macro-user distance over the vicinity threshold; below 1 inside it."""
    return distance(fbs, mue) / d_th


# -- link model ----------------------------------------------------------


def residential_pathloss_db(
    d: float, pl0: float = 62.3, exponent: float = 4.0, d0: float = 5.0
) -> float:
    """Log-distance path loss (dB) of an outdoor residential link."""
    return pl0 + 10.0 * exponent * math.log10(d / d0)


def indoor_to_outdoor_pathloss_db(d: float, f_ghz: float) -> float:
    """Femtocell indoor-to-outdoor path loss (dB): a wall term plus log-distance from 5 m."""
    frequency_term = -1.8 * f_ghz * f_ghz + 10.6 * f_ghz + 6.1
    distance_term = 62.3 + 32.0 * math.log10(d / 5.0)
    return frequency_term + distance_term


def gain_from_pathloss_db(pl_db: float) -> float:
    """Linear power gain of a path loss in dB."""
    return 10.0 ** (-pl_db / 10.0)


def link_gain(
    topology: Topology,
    t: int,
    r: int,
    *,
    pl0: float = 62.3,
    exponent: float = 4.0,
    d0: float = 5.0,
    f_ghz: float = 2.4,
) -> float:
    """Gain from transmitter ``t`` to receiver ``r``, numbered as in ``build_gain_matrix``.

    Transmitter 0 is the macro station and 1 + j femto station j; receiver
    0 is the macro user and 1 + i femto user i. The macro station's links
    and each femto station's link to its own user are residential; a femto
    station's links to the macro user and to other users are
    indoor-to-outdoor.
    """
    tx = topology.mbs if t == 0 else topology.fbs[t - 1]
    rx = topology.mue if r == 0 else topology.fue[r - 1]
    d = distance(tx, rx)
    if t == 0 or t == r:
        return gain_from_pathloss_db(residential_pathloss_db(d, pl0, exponent, d0))
    return gain_from_pathloss_db(indoor_to_outdoor_pathloss_db(d, f_ghz))


def gain_array(topology: Topology, **constants) -> np.ndarray:
    """Every ``link_gain`` of the topology, transmitter-major."""
    n = topology.m + 1
    return np.array([[link_gain(topology, t, r, **constants) for r in range(n)] for t in range(n)])


# -- per-link gains ------------------------------------------------------


def _check_index(gains: np.ndarray, i: int) -> None:
    if not 0 <= i < len(gains) - 1:
        raise IndexError(f"femto index {i} out of range for M={len(gains) - 1}")


def mbs_to_mue(gains: np.ndarray) -> float:
    return float(gains[0, 0])


def fbs_to_mue(gains: np.ndarray, i: int) -> float:
    _check_index(gains, i)
    return float(gains[1 + i, 0])


def mbs_to_fue(gains: np.ndarray, i: int) -> float:
    _check_index(gains, i)
    return float(gains[0, 1 + i])


def fbs_to_fue(gains: np.ndarray, j: int, i: int) -> float:
    """Gain from femto station ``j`` to the user served by station ``i``."""
    _check_index(gains, j)
    _check_index(gains, i)
    return float(gains[1 + j, 1 + i])


# -- SINR and capacity ---------------------------------------------------


def mue_sinr(p_bs_mw: float, fbs_powers_mw, gains: np.ndarray, noise_mw: float) -> float:
    """SINR at the macro user under the given joint transmit powers."""
    powers = np.asarray(fbs_powers_mw, dtype=float)
    _check_powers(p_bs_mw, powers, gains, noise_mw)
    interference = sum(powers[j] * fbs_to_mue(gains, j) for j in range(len(gains) - 1))
    return p_bs_mw * mbs_to_mue(gains) / (interference + noise_mw)


def fue_sinr(i: int, p_bs_mw: float, fbs_powers_mw, gains: np.ndarray, noise_mw: float) -> float:
    """SINR at femto user ``i`` under the given joint transmit powers."""
    powers = np.asarray(fbs_powers_mw, dtype=float)
    _check_powers(p_bs_mw, powers, gains, noise_mw)
    _check_index(gains, i)
    signal = powers[i] * fbs_to_fue(gains, i, i)
    cross = sum(powers[j] * fbs_to_fue(gains, j, i) for j in range(len(gains) - 1) if j != i)
    return signal / (p_bs_mw * mbs_to_fue(gains, i) + cross + noise_mw)


def capacity_bps_hz(sinr: float) -> float:
    """Normalized Shannon capacity log2(1 + SINR) in b/s/Hz."""
    if sinr < 0.0:
        raise ValueError(f"SINR must be nonnegative, got {sinr}")
    return math.log1p(sinr) / _LN2


# -- learning ------------------------------------------------------------


def select_action(qrow: np.ndarray, eps: float, rng: np.random.Generator) -> int:
    """Epsilon-greedy pick over one Q-row; greedy ties go to the lowest index."""
    if len(qrow) == 0:
        raise ValueError("empty Q-row")
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {eps}")
    if eps > 0.0:
        action = explore_action(eps, len(qrow), rng)
        if action is not None:
            return action
    return int(np.argmax(qrow))


def explore_action(eps: float, n: int, rng: np.random.Generator) -> int | None:
    """``select_action``'s draws: one of ``n`` actions with probability ``eps``, else None."""
    if rng.random() < eps:
        return int(rng.integers(n))
    return None


def q_update(row: np.ndarray, action: int, reward: float, alpha: float, gamma: float) -> float:
    """One-step temporal-difference update of an agent's Q-row; returns the new entry.

    Q(a) <- (1 - alpha) Q(a) + alpha (R + gamma max_a' Q(a')). An agent
    never leaves its ring state, so the next state's row is this row.
    """
    if not 0 <= action < len(row):
        raise IndexError(f"action {action} out of range for {len(row)} levels")
    target = reward + gamma * float(row.max())
    new_value = (1.0 - alpha) * float(row[action]) + alpha * target
    row[action] = new_value
    return new_value


def share_active_rows(rows: Sequence[np.ndarray], states: Sequence[AgentState]) -> None:
    """Average the Q-rows in place across agents with identical state.

    Agents whose state is unique are untouched; within a group, every
    member's row becomes the group mean (idempotent, mean preserving).
    """
    if len(rows) != len(states):
        raise ValueError("rows and states must align")
    groups: dict[AgentState, list[int]] = {}
    for idx, state in enumerate(states):
        groups.setdefault(state, []).append(idx)
    for members in groups.values():
        if len(members) < 2:
            continue
        mean = np.mean([rows[i] for i in members], axis=0)
        for i in members:
            rows[i][:] = mean


def detect_convergence(recent_deltas: Sequence[float], window: int, tolerance: float) -> bool:
    """True iff a full window of history exists and stays under tolerance."""
    if len(recent_deltas) < window:
        return False
    tail = recent_deltas[-window:]
    return max(tail) < tolerance


# -- density step --------------------------------------------------------


class SharingGroups:
    """The agents of one density step that average their Q-rows, as index arrays.

    Agents in the same ring state form a group; singletons are left out.
    The groups are padded into a ``(G, k_max)`` index array whose spare
    slots point at row ``m`` of the Q buffer, which stays zero. So one
    gather, ``sum(axis=1)`` and a division by the group sizes give every
    group mean. numpy adds the gathered rows in the same order as
    ``np.mean`` over the group's rows, and adding +0.0 changes no sum but
    -0.0, so the means are those of ``share_active_rows`` except that a
    column which is -0.0 in every member comes out +0.0.
    """

    def __init__(self, states: Sequence[AgentState]):
        by_state: dict[AgentState, list[int]] = {}
        for i, state in enumerate(states):
            by_state.setdefault(state, []).append(i)
        groups = [v for v in by_state.values() if len(v) >= 2]
        sizes = [len(v) for v in groups]
        self.index = np.full((len(groups), max(sizes, default=0)), len(states), dtype=np.intp)
        for g, members in enumerate(groups):
            self.index[g, : len(members)] = members
        self.counts = np.array(sizes, dtype=float)[:, None]
        self.members = np.array([i for v in groups for i in v], dtype=np.intp)
        self.member_group = np.repeat(np.arange(len(groups)), sizes)

    def __len__(self) -> int:
        return len(self.counts)

    def share(self, buf: np.ndarray) -> np.ndarray:
        """Set each member's row of ``buf`` to its group mean; return the new member rows.

        ``buf`` holds one row per agent plus a trailing zero row.
        """
        means = buf[self.index].sum(axis=1) / self.counts
        shared = means[self.member_group]
        buf[self.members] = shared
        return shared


class LoopDensityStep:
    """``coordinator.DensityStep`` drawing per iteration and sharing by a padded gather.

    The learning loop before the horizon's draws moved to construction and
    the grouped buffer layout, kept as the oracle those must equal bit for
    bit.

    The agents' rows of ``Simulation.q`` are gathered into an
    ``(m + 1, n_power)`` buffer whose last row stays zero (the padding
    target of ``SharingGroups``); ``_qmat`` is a view of its first ``m``
    rows. ``run`` scatters them back into ``Simulation.q`` when the step
    finishes; ``step`` alone leaves ``Simulation.q`` untouched.

    Each iteration takes one ``argmax`` per row: it is the greedy action
    and, read before the update, its entry is the row maximum of the TD
    target. On iterations below the exploration horizon (``explore_until``)
    the agents then draw from their own generators, in agent order. After
    the update, each sharing group's rows are replaced by their mean (see
    ``SharingGroups``).

    The per-iteration Q-delta is the largest absolute entry change across
    the whole iteration (update plus sharing), which is what the
    convergence detector consumes. A row outside a sharing group changes
    only at its updated entry, so only group rows are compared in full.
    The gathered rows must be finite, or the constructor raises
    ``FloatingPointError``. A finite entry can only turn NaN or infinite
    through a non-finite change, so ``step`` checks the rows when the delta
    is not finite and raises on the iteration an entry turns.

    The delta stays at the size of the exploration noise until the horizon,
    so ``iterations_to_converge`` comes out near ``explore_until + window``
    for every non-trivial step: it measures the schedule, not how fast
    learning settled.

    ``step`` writes no trace and counts nothing; it returns the iteration's
    ``actions, c_mue, c_fue, rewards, delta``. ``run`` counts consecutive
    deltas below the tolerance and writes each kept iteration as one row of
    a ``trace_block``.
    """

    def __init__(self, sim: "Simulation", agents: list[Agent], *, sharing: bool):
        self._sim = sim
        self._agent_ids = tuple(a.agent_id for a in agents)
        self.m = m = len(agents)
        self._ids = np.array(self._agent_ids, dtype=np.intp)
        self._capacities = Links(sim.gains, sim.p_bs_mw, sim.noise_mw, ids=self._ids).capacities
        self._proximity = np.array([a.proximity for a in agents])
        self._fue_thresholds = np.array([a.fue_threshold for a in agents])
        n_actions = len(sim.actions)
        self._buf = np.zeros((m + 1, n_actions))
        self._buf[:m] = sim.q[self._ids]
        self._qmat = self._buf[:m]
        self._check_finite(0)
        self._flat = self._qmat.reshape(-1)  # a view: the rows are contiguous
        self._row_start = np.arange(m) * n_actions
        self._groups = SharingGroups([a.state for a in agents] if sharing else [])
        self._draws = [(a.rng.random, a.rng.integers) for a in agents]
        config = sim.config
        self._explore_until = explore_until(
            config.epsilon, config.explore_fraction, config.max_iterations
        )

    def step(self, iteration: int) -> tuple[np.ndarray, float, np.ndarray, np.ndarray, float]:
        """Run one synchronous iteration: select, evaluate, reward, update, share.

        Returns the iteration's ``actions, c_mue, c_fue, rewards, delta``.
        """
        sim = self._sim
        config = sim.config
        qmat, flat, groups = self._qmat, self._flat, self._groups

        actions = qmat.argmax(axis=1)
        row_max = flat[self._row_start + actions]
        if iteration < self._explore_until:
            eps, n_actions = config.epsilon, qmat.shape[1]
            for i, (random, integers) in enumerate(self._draws):
                if random() < eps:
                    actions[i] = integers(n_actions)

        c_mue, c_fue = self._capacities(sim.actions.levels_mw[actions])
        rewards = sim.reward_fn(
            c_fue, c_mue, self._proximity, self._fue_thresholds, sim.thresholds.mue
        )

        pos = self._row_start + actions
        old = flat[pos]
        new = (1.0 - config.alpha) * old + config.alpha * (rewards + config.gamma * row_max)
        change = np.abs(new - old)  # a row outside a sharing group changes only here
        if len(groups):
            before = qmat[groups.members]
            flat[pos] = new
            change[groups.members] = np.abs(groups.share(self._buf) - before).max(axis=1)
        else:
            flat[pos] = new
        delta = float(change.max())
        if not math.isfinite(delta):
            self._check_finite(iteration + 1)
        return actions, c_mue, c_fue, rewards, delta

    def run(self) -> tuple[DensitySummary, np.recarray]:
        """Iterate to convergence or the budget, then write back and summarize.

        Of k iterations, 0, s, 2s, ... below k (``trace_stride`` s) and k - 1
        are kept: at most ceil(max_iterations / s) + 1 rows, returned as a copy.
        """
        sim, config = self._sim, self._sim.config
        stride, window = config.trace_stride, config.convergence_window
        tolerance = config.convergence_tolerance
        last = config.max_iterations - 1
        t = trace_block(self.m, -(-config.max_iterations // stride) + 1)
        step, k, streak = self.step, 0, 0
        for iteration in range(last + 1):
            actions, c_mue, c_fue, rewards, delta = step(iteration)
            streak = streak + 1 if delta < tolerance else 0
            converged = streak >= window
            if iteration % stride == 0 or converged or iteration == last:
                t[k] = iteration, actions, c_mue, c_fue, rewards, delta
                k += 1
            if converged:
                break
        sim.q[self._ids] = self._qmat
        return self._summary(iteration + 1, converged), t[:k].copy()

    def _check_finite(self, iterations: int) -> None:
        bad = ~np.isfinite(self._qmat).all(axis=1)
        if bad.any():
            agent_id = self._agent_ids[int(bad.argmax())]
            raise FloatingPointError(
                f"agent {agent_id} has a non-finite Q-value at density m={self.m} "
                f"after {iterations} iterations"
            )

    def _summary(self, iterations: int, converged: bool) -> DensitySummary:
        sim = self._sim
        actions = self._qmat.argmax(axis=1)
        powers_mw = sim.actions.levels_mw[actions]
        c_mue, c_fue = self._capacities(powers_mw)
        return DensitySummary(
            m=self.m,
            agent_ids=self._agent_ids,
            powers_dbm=tuple(float(sim.actions.levels_dbm[a]) for a in actions),
            c_mue_final=c_mue,
            fue_capacities=tuple(float(c) for c in c_fue),
            min_fue_capacity=float(c_fue.min()),
            sum_capacity=float(c_fue.sum()),
            jain=jain_index(c_fue),
            iterations_to_converge=iterations,
            converged=converged,
        )


# -- reward --------------------------------------------------------------


def proposed_reward(
    c_fue: float,
    c_mue: float,
    proximity: float,
    q_fue: float,
    q_mue: float,
    mue_capacity_exponent: int = 2,
) -> float:
    """The proposed reward of one agent: proximity-weighted gain minus QoS deviations."""
    gain = proximity * c_fue * c_mue**mue_capacity_exponent
    mue_penalty = (c_mue - q_mue) ** 2 / proximity
    fue_penalty = (c_fue - q_fue) ** 2
    return gain - mue_penalty - fue_penalty


# -- capacity batches ----------------------------------------------------


def one_action_capacities(
    gains: np.ndarray, p_bs_mw: float, noise_mw: float, powers_mw: np.ndarray
) -> tuple[float, np.ndarray]:
    """Capacities of one ``(m,)`` joint action of every station, step by step.

    The arithmetic of ``channel.Links`` on one action, frozen, with the
    gains held as views into the gain matrix as ``Links`` holds them for
    the full set: the macro user as one dot product and ``math.log1p``,
    the femto users as one ``powers_mw @ g_cross``.
    """
    g_fbs_mue, g_cross = gains[1:, 0], gains[1:, 1:]
    sinr_mue = p_bs_mw * gains[0, 0] / (powers_mw @ g_fbs_mue + noise_mw)
    c_mue = math.log1p(sinr_mue) / _LN2
    signal = powers_mw * np.diag(g_cross)
    c_fue = powers_mw @ g_cross
    c_fue -= signal
    c_fue += p_bs_mw * gains[0, 1:]
    c_fue += noise_mw
    np.divide(signal, c_fue, out=c_fue)
    np.log1p(c_fue, out=c_fue)
    c_fue /= _LN2
    return c_mue, c_fue


def batch_capacities(
    gains: np.ndarray, p_bs_mw: float, noise_mw: float, powers_mw: np.ndarray, ids=None
) -> tuple[np.ndarray, np.ndarray]:
    """Capacities of a ``(k, m)`` batch of joint actions, one row per action.

    Returns a ``(k,)`` macro-user and a ``(k, m)`` femto-user array, with
    the row-major batch arithmetic step by step: the gains held
    as views into the gain matrix for the full set and as fancy-indexed
    copies for the subset ``ids``, the macro user as one matrix-vector
    product, the femto users as one ``powers_mw @ g_cross``.
    """
    if ids is None:
        g_fbs_mue, g_cross, mbs_fue = gains[1:, 0], gains[1:, 1:], p_bs_mw * gains[0, 1:]
    else:
        idx = 1 + np.asarray(ids, dtype=np.intp)
        g_fbs_mue, g_cross = gains[idx, 0], gains[np.ix_(idx, idx)]
        mbs_fue = p_bs_mw * gains[0, idx]
    c_mue = powers_mw @ g_fbs_mue
    c_mue += noise_mw
    np.divide(p_bs_mw * gains[0, 0], c_mue, out=c_mue)
    np.log1p(c_mue, out=c_mue)
    c_mue /= _LN2
    signal = powers_mw * np.diag(g_cross)
    c_fue = powers_mw @ g_cross
    c_fue -= signal
    c_fue += mbs_fue
    c_fue += noise_mw
    np.divide(signal, c_fue, out=c_fue)
    np.log1p(c_fue, out=c_fue)
    c_fue /= _LN2
    return c_mue, c_fue


# -- oracle --------------------------------------------------------------


def one_shot_oracle(
    gains: np.ndarray,
    actions: ActionSet,
    thresholds: QosThresholds,
    *,
    p_bs_mw: float,
    noise_mw: float,
) -> OracleResult:
    """``oracle.exhaustive_search`` as one batch over the whole enumeration.

    Every joint action, in lexicographic order, goes through one
    ``batch_capacities`` call; the objective is ``c_fue.sum(axis=1)`` and
    the winner the first index of the maximum, over the feasible rows when
    there are any and over all rows otherwise. The winner's capacities come
    from the one-action path, as the search reports them.
    """
    m, n = len(gains) - 1, len(actions)
    digits = np.indices((n,) * m).reshape(m, -1).T
    c_mue, c_fue = batch_capacities(gains, p_bs_mw, noise_mw, actions.levels_mw[digits])
    sums = c_fue.sum(axis=1)
    feasible = (c_fue >= np.asarray(thresholds.fue)).all(axis=1) & (c_mue >= thresholds.mue)
    best = int(np.argmax(np.where(feasible, sums, -np.inf) if feasible.any() else sums))

    indices = tuple(int(d) for d in digits[best])
    c_mue_best, c_fue_best = evaluate_capacities(
        p_bs_mw, actions.levels_mw[digits[best]], gains, noise_mw
    )
    return OracleResult(
        best_action=indices,
        best_powers_dbm=tuple(float(actions.levels_dbm[i]) for i in indices),
        best_objective=float(sums[best]),
        feasible=bool(feasible.any()),
        c_mue=c_mue_best,
        fue_capacities=tuple(float(c) for c in c_fue_best),
        n_enumerated=n**m,
    )


def block_oracle(
    gains: np.ndarray,
    actions: ActionSet,
    thresholds: QosThresholds,
    *,
    p_bs_mw: float,
    noise_mw: float,
) -> OracleResult:
    """``oracle.exhaustive_search`` evaluating every block, in lexicographic order.

    The search before it pruned: the same ``(n**k, m)`` blocks through the
    same ``Links.capacities`` and ``_row_sums``, all of them, prefix after
    prefix, a later block winning only when strictly better. Unlike
    ``one_shot_oracle`` it holds one block at a time, so it fits the
    benchmark's 25^5-action space in memory.
    """
    m = len(gains) - 1
    n = len(actions)
    total = n**m

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


# -- artifacts -----------------------------------------------------------


def density_rows(density: np.recarray, agent_ids, dbm_text: list[str]):
    """One CSV row per agent per kept iteration; ``dbm_text[a]`` is level a's text."""
    columns = (density[name].tolist() for name in density.dtype.names)
    for iteration, actions, c_mue, c_fue, rewards, delta in zip(*columns):
        c_mue, delta = repr(c_mue), repr(delta)
        for aid, a, c, r in zip(agent_ids, actions, c_fue, rewards):
            yield iteration, aid, dbm_text[a], c_mue, repr(c), repr(r), delta


def density_csv(density: np.recarray, agent_ids, levels_dbm: np.ndarray) -> bytes:
    """The bytes of a density CSV, its rows written by ``csv.writer``."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(DENSITY_COLUMNS)
    writer.writerows(density_rows(density, agent_ids, [repr(p) for p in levels_dbm.tolist()]))
    return buf.getvalue().encode("utf-8")
