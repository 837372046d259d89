"""Multi-agent simulation loop: admission, row sharing, convergence, metrics.

``Simulation.run`` admits one station per density step, m = 1 ... m_max.
Agents never move, so each one only ever uses the Q-row of its own ring
state: row ``agent_id`` of ``Simulation.q``. Steps with m up to
``seed_agents`` are individual: the newcomer starts from a zero row and
no rows are shared. Later steps are cooperative: the newcomer copies the
mean row of same-state veterans and all same-state agents average their
rows after every iteration. Each density step runs until the convergence
detector fires or the iteration budget is exhausted.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import numpy as np

from .channel import ActionSet, Links, build_gain_matrix, dbm_to_mw
from .config import (
    ADMISSION_STREAM,
    AGENT_STREAM,
    ConfigError,
    ScenarioConfig,
    build_topology,
    geometry_error,
)
from .reward import REWARDS, QosThresholds, RewardFunction
from .topology import AgentState, distance


def explore_until(epsilon: float, explore_fraction: float, max_iterations: int) -> int:
    """The first greedy iteration: ceil(explore_fraction * max_iterations), 0 if epsilon is 0.

    Iterations below it explore with probability ``epsilon``. For an
    integer i, ``i < ceil(x)`` holds exactly when ``i < x``.
    """
    return math.ceil(explore_fraction * max_iterations) if epsilon > 0.0 else 0


def jain_index(values) -> float:
    """Jain fairness index (sum x)^2 / (n sum x^2); 1 iff all values equal."""
    arr = np.asarray(values, dtype=float)
    if arr.size < 1:
        raise ValueError("at least one value is required")
    square_sum = float((arr * arr).sum())
    if square_sum == 0.0:
        raise ValueError("fairness index undefined for all-zero input")
    total = float(arr.sum())
    return total * total / (arr.size * square_sum)


@dataclass
class Agent:
    """One femto station: fixed ring state, proximity weight and own RNG.

    Its Q-row is row ``agent_id`` of ``Simulation.q``.
    """

    agent_id: int
    state: AgentState
    proximity: float
    fue_threshold: float
    rng: np.random.Generator


@dataclass(frozen=True)
class DensitySummary:
    """Greedy-policy outcome of one density step after its learning run."""

    m: int
    agent_ids: tuple[int, ...]
    powers_dbm: tuple[float, ...]
    c_mue_final: float
    fue_capacities: tuple[float, ...]
    min_fue_capacity: float
    sum_capacity: float
    jain: float
    iterations_to_converge: int
    converged: bool


def trace_block(m: int, n: int) -> np.recarray:
    """``n`` uninitialised rows, one per kept iteration of a density step of ``m`` agents."""
    return np.recarray(
        n,
        [
            ("iteration", np.intp),
            ("actions", np.intp, (m,)),
            ("c_mue", float),
            ("c_fue", float, (m,)),
            ("rewards", float, (m,)),
            ("max_q_delta", float),
        ],
    )


@dataclass
class RunTrace:
    """Everything recorded over a full density sweep; step m ran ``admission_order[:m]``."""

    admission_order: tuple[int, ...]
    levels_dbm: np.ndarray  # action a is levels_dbm[a] dBm
    summaries: list[DensitySummary] = field(default_factory=list)
    records: dict[int, np.recarray] = field(default_factory=dict)


@dataclass(frozen=True)
class ConstraintReport:
    """Satisfaction of the QoS and power constraints for one density step."""

    mue_satisfied: bool
    fue_satisfied: tuple[bool, ...]
    power_satisfied: tuple[bool, ...]

    @property
    def all_satisfied(self) -> bool:
        return self.mue_satisfied and all(self.fue_satisfied) and all(self.power_satisfied)


def check_constraints(
    summary: DensitySummary, thresholds: QosThresholds, p_max_dbm: float
) -> ConstraintReport:
    """Evaluate the QoS/power constraints for the greedy outcome of a density step."""
    fue_ok = tuple(
        c >= thresholds.fue[aid]
        for aid, c in zip(summary.agent_ids, summary.fue_capacities)
    )
    power_ok = tuple(p <= p_max_dbm for p in summary.powers_dbm)
    return ConstraintReport(
        mue_satisfied=summary.c_mue_final >= thresholds.mue,
        fue_satisfied=fue_ok,
        power_satisfied=power_ok,
    )


class SharingGroups:
    """The agents of one density step that average their Q-rows, as index arrays.

    Agents in the same ring state form a group; singletons are left out.
    The groups are padded into a ``(G, k_max)`` index array whose spare
    slots point at row ``m`` of the Q buffer, which stays zero. So one
    gather, ``sum(axis=1)`` and a division by the group sizes give every
    group mean. Adding a zero changes no sum, and numpy adds the gathered
    rows in the same order as ``np.mean`` over the group's rows, so the
    means are bit-for-bit those of the per-group ``np.mean`` oracle,
    ``tests/reference.share_active_rows``.
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


class DensityStep:
    """Learning loop for one fixed set of active agents.

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


class Simulation:
    """Full experiment: build the scenario, then sweep density with admission.

    A config whose scenario cannot be built (two nodes on one spot, a link
    gain outside (0, 1]) or whose largest SINR or Q-value can pass float
    range raises a ``ConfigError`` naming its YAML keys.

    ``reward_fn`` is called once per iteration as ``reward_fn(c_fue, c_mue,
    proximity, q_fue, q_mue)``: the active agents' femto capacities, the
    macro capacity, the agents' proximity ratios and femto QoS thresholds
    as ``(m,)`` arrays in agent order, then the macro threshold. It returns
    the ``(m,)`` float array of rewards. It belongs to this run only; by
    default it is ``REWARDS[config.reward_name]`` with the config's
    ``mue_capacity_exponent``.
    """

    def __init__(self, config: ScenarioConfig, *, reward_fn: RewardFunction | None = None):
        self.config = config
        self.topology = build_topology(config)
        self.actions = ActionSet(config.p_min_dbm, config.p_max_dbm, config.n_power)
        self.params = config  # the same object; perfbench/micro.py still reads sim.params
        try:
            self.gains = build_gain_matrix(
                self.topology,
                pl0=config.pl0_db,
                exponent=config.pathloss_exponent,
                d0=config.d0_m,
                f_ghz=config.f_ghz,
            )
        except (ValueError, OverflowError) as exc:  # 10.0 ** x overflows past float range
            message = "link gains must lie in (0, 1]; check node separations and path loss"
            raise geometry_error(config, message, pathloss=True) from exc
        self.p_bs_mw = dbm_to_mw(config.p_bs_dbm)
        self.noise_mw = dbm_to_mw(config.noise_dbm)
        self.thresholds = QosThresholds(
            mue=config.mue_min_capacity, fue=config.fue_thresholds()
        )
        self.mue_capacity_exponent = config.mue_capacity_exponent
        # one Q-row per agent, indexed by agent id: the row of its ring state
        self.q = np.zeros((config.m_max, config.n_power))
        if reward_fn is None:
            reward_fn = partial(
                REWARDS[config.reward_name], mue_capacity_exponent=config.mue_capacity_exponent
            )
        self.reward_fn = reward_fn

        # a ring index counts the ring boundaries strictly below the distance,
        # so a station on a boundary is in the inner ring
        mbs, mue = self.topology.mbs, self.topology.mue
        self.agents: list[Agent] = []
        for aid, fbs in enumerate(self.topology.fbs):
            d_mue = distance(fbs, mue)
            self.agents.append(
                Agent(
                    agent_id=aid,
                    state=AgentState(
                        bisect_left(config.mbs_radii, distance(fbs, mbs)),
                        bisect_left(config.mue_radii, d_mue),
                    ),
                    proximity=d_mue / config.d_th_m,
                    fue_threshold=self.thresholds.fue[aid],
                    rng=np.random.default_rng(
                        np.random.SeedSequence((config.seed, AGENT_STREAM, aid))
                    ),
                )
            )

        # the largest values any step meets: the macro user's SINR with station 0
        # (admitted first) alone at p_min, femto user j's with station j alone at
        # p_max, |reward| with each term at its largest, and |Q| after T updates
        g, levels, gamma = self.gains, self.actions.levels_mw, config.gamma
        with np.errstate(over="ignore", invalid="ignore"):
            sinr_mue = self.p_bs_mw * g[0, 0] / (levels[0] * g[1, 0] + self.noise_mw)
            sinr_fue = levels[-1] * np.diag(g)[1:] / (self.p_bs_mw * g[0, 1:] + self.noise_mw)
            c_fue, c_mue = np.log2(1.0 + sinr_fue), np.log2(1.0 + sinr_mue)
            proximity = [a.proximity for a in self.agents]
            q_fue, q_mue = np.array(self.thresholds.fue), self.thresholds.mue
            reward = max(proximity) * c_fue.max() * c_mue**config.mue_capacity_exponent
            reward += max(q_mue, c_mue - q_mue) ** 2 / min(proximity)
            reward += (np.maximum(q_fue, c_fue - q_fue) ** 2).max()
            t = config.m_max * config.max_iterations
            horizon = t if gamma == 1.0 else (1.0 - gamma**t) / (1.0 - gamma)
            q_sum = reward * horizon * max(2, config.m_max)  # a group sum or a Q-change
        powers = "radio.noise_dbm, radio.p_bs_dbm, actions.p_min_dbm, actions.p_max_dbm"
        if not (math.isfinite(sinr_mue) and np.isfinite(sinr_fue).all()):
            raise ConfigError(f"{powers}: a user's largest SINR is past float range")
        if not math.isfinite(q_sum):
            raise ConfigError("learning.gamma, reward.mue_capacity_exponent: Q-values may overflow")

        n_seed = min(config.seed_agents, config.m_max)
        admission_rng = np.random.default_rng(
            np.random.SeedSequence((config.seed, ADMISSION_STREAM))
        )
        rest = list(range(n_seed, config.m_max))
        admission_rng.shuffle(rest)
        self.admission_order = tuple(range(n_seed)) + tuple(rest)

        self.trace = RunTrace(self.admission_order, self.actions.levels_dbm)

    def run(self) -> RunTrace:
        """Admit one station per density step, learn, and return the trace.

        Step m runs the first m stations of ``admission_order``. From
        m = ``seed_agents`` + 1 on, the newcomer is warm-started from its
        same-state veterans and, if ``sharing_enabled``, same-state rows are
        shared. The trace is the only progress state: a second call finds
        every step done and returns the same trace.
        """
        config = self.config
        for m in range(len(self.trace.summaries) + 1, config.m_max + 1):
            active = [self.agents[i] for i in self.admission_order[:m]]
            cooperative = m > config.seed_agents
            if cooperative:
                self._warm_start(active[-1], active[:-1])
            step = DensityStep(self, active, sharing=cooperative and config.sharing_enabled)
            summary, self.trace.records[m] = step.run()
            self.trace.summaries.append(summary)
        return self.trace

    def _warm_start(self, newcomer: Agent, experienced: list[Agent]) -> None:
        """Seed the newcomer's Q-row with the mean row of same-state veterans."""
        peers = [a.agent_id for a in experienced if a.state == newcomer.state]
        if peers:
            self.q[newcomer.agent_id] = np.mean(self.q[peers], axis=0)
