"""Multi-agent simulation loop: phased admission, row sharing, convergence, metrics.

The run admits stations one per density step. The first ``seed_agents``
steps form the individual phase (zero-initialized tables, no sharing);
later steps are cooperative: the newcomer copies the mean active row of
same-state veterans and all same-state agents average their active rows
after every iteration. Each density step runs until the convergence
detector fires or the iteration budget is exhausted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .channel import build_gain_matrix, dbm_to_mw
from .config import ADMISSION_STREAM, AGENT_STREAM, ScenarioConfig, build_topology
from .learning import (
    ActionSet,
    LearningParams,
    QTable,
    epsilon_at,
    make_action_set,
)
from .reward import (
    QosThresholds,
    RewardFunction,
    RewardInputs,
    proposed_reward_vector,
    resolve_reward,
)
from .topology import AgentState, RingRadii, Topology, agent_state, proximity_ratio

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class ConvergenceCriterion:
    """Declare convergence when every Q change in a trailing window is small."""

    window: int = 500
    tolerance: float = 1e-3

    def __post_init__(self):
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")


def detect_convergence(recent_deltas: Sequence[float], criterion: ConvergenceCriterion) -> bool:
    """True iff a full window of history exists and stays under tolerance."""
    if len(recent_deltas) < criterion.window:
        return False
    tail = recent_deltas[-criterion.window :]
    return max(tail) < criterion.tolerance


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


def share_active_rows(rows: Sequence[np.ndarray], states: Sequence[AgentState]) -> None:
    """Average the active Q-row in place across agents with identical state.

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


@dataclass
class Agent:
    """One femto station: fixed ring state, proximity weight, own Q-table and RNG."""

    agent_id: int
    state: AgentState
    proximity: float
    fue_threshold: float
    qtable: QTable
    rng: np.random.Generator

    def active_row(self) -> np.ndarray:
        return self.qtable.row(self.state)


@dataclass(frozen=True)
class IterationRecord:
    """Joint outcome of one simulation iteration."""

    iteration: int
    agent_ids: tuple[int, ...]
    actions: tuple[int, ...]
    powers_dbm: tuple[float, ...]
    c_mue: float
    fue_capacities: tuple[float, ...]
    rewards: tuple[float, ...]
    max_q_delta: float


@dataclass(frozen=True)
class DensitySummary:
    """Greedy-policy outcome of one density step after its learning run."""

    m: int
    phase: str
    agent_ids: tuple[int, ...]
    actions: tuple[int, ...]
    powers_dbm: tuple[float, ...]
    c_mue_final: float
    fue_capacities: tuple[float, ...]
    min_fue_capacity: float
    sum_capacity: float
    jain: float
    iterations_to_converge: int
    converged: bool


@dataclass
class RunTrace:
    """Everything recorded over a full density sweep."""

    admission_order: tuple[int, ...]
    summaries: list[DensitySummary] = field(default_factory=list)
    records: dict[int, list[IterationRecord]] = field(default_factory=dict)


@dataclass(frozen=True)
class ConstraintReport:
    """Satisfaction of the QoS and power constraints for one record."""

    mue_satisfied: bool
    fue_satisfied: tuple[bool, ...]
    power_satisfied: tuple[bool, ...]

    @property
    def all_satisfied(self) -> bool:
        return self.mue_satisfied and all(self.fue_satisfied) and all(self.power_satisfied)


def check_constraints(
    record, thresholds: QosThresholds, p_max_dbm: float
) -> ConstraintReport:
    """Evaluate the QoS/power constraints for an iteration record or summary."""
    c_mue = record.c_mue if hasattr(record, "c_mue") else record.c_mue_final
    fue_ok = tuple(
        c >= thresholds.fue[aid]
        for aid, c in zip(record.agent_ids, record.fue_capacities)
    )
    power_ok = tuple(p <= p_max_dbm for p in record.powers_dbm)
    return ConstraintReport(
        mue_satisfied=c_mue >= thresholds.mue,
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
    means are bit-for-bit those of ``share_active_rows``.
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

    The active Q-rows live in an ``(m + 1, n_power)`` buffer whose last
    row stays zero (the padding target of ``SharingGroups``); ``_qmat`` is
    a view of its first ``m`` rows. The per-agent tables are synced back
    when the step finishes.

    Each iteration takes one ``argmax`` per row: it is the greedy action
    and, read before the update, its entry is the row maximum of the TD
    target. Exploring agents then draw from their own generators, in agent
    order. After the update, each sharing group's rows are replaced by
    their mean (see ``SharingGroups``).

    The per-iteration Q-delta is the largest absolute entry change across
    the whole iteration (update plus sharing), which is what the
    convergence detector consumes. A row outside a sharing group changes
    only at its updated entry, so only group rows are compared in full.
    Once the matrix holds a NaN or an infinity the full diff is NaN on
    every later iteration (an unchanged infinity gives inf - inf, and no
    update turns a non-finite entry finite again), so the delta is NaN
    from then on without comparing anything.

    The delta stays at the size of the exploration noise until the
    epsilon-schedule stops exploring, so ``iterations_to_converge`` comes
    out near ``explore_fraction * max_iterations + window`` for every
    non-trivial step: it measures the schedule, not how fast learning
    settled.

    ``step`` keeps the arrays of the last iteration; ``record`` turns them
    into an ``IterationRecord``, which ``run`` does only for the iterations
    it keeps.
    """

    def __init__(self, sim: "Simulation", agents: list[Agent], *, sharing: bool):
        self._sim = sim
        self._agents = list(agents)
        self._agent_ids = tuple(a.agent_id for a in agents)
        m = len(agents)
        ids = np.array(self._agent_ids)
        g = sim.gains.as_array()
        self._g_fbs_mue = g[1 + ids, 0].copy()
        cross = g[np.ix_(1 + ids, 1 + ids)].copy()
        self._g_serve = np.diag(cross).copy()
        self._g_cross = cross
        self._mbs_fue = sim.p_bs_mw * g[0, 1 + ids]
        self._signal_mue = sim.p_bs_mw * g[0, 0]
        self._proximity = np.array([a.proximity for a in agents])
        self._fue_thresholds = np.array([a.fue_threshold for a in agents])
        n_actions = len(sim.actions)
        self._buf = np.zeros((m + 1, n_actions))
        self._buf[:m] = [a.active_row() for a in agents]
        self._qmat = self._buf[:m]
        self._flat = self._qmat.reshape(-1)  # a view: the rows are contiguous
        self._row_start = np.arange(m) * n_actions
        self._groups = SharingGroups([a.state for a in agents] if sharing else [])
        self._draws = [(a.rng.random, a.rng.integers) for a in agents]
        self._finite = bool(np.isfinite(self._qmat).all())
        self._streak = 0
        self.iterations_run = 0
        self.converged = False
        # (iteration, actions, c_mue, c_fue, rewards, delta) of the last iteration
        self._last: tuple | None = None

    @property
    def m(self) -> int:
        return len(self._agents)

    def _capacities(self, powers_mw: np.ndarray) -> tuple[float, np.ndarray]:
        noise = self._sim.noise_mw
        interference = float(powers_mw @ self._g_fbs_mue)
        c_mue = math.log1p(self._signal_mue / (interference + noise)) / _LN2
        received = powers_mw @ self._g_cross
        signal = powers_mw * self._g_serve
        denom = received - signal + self._mbs_fue + noise
        c_fue = np.log1p(signal / denom) / _LN2
        return c_mue, c_fue

    def _rewards(self, c_mue: float, c_fue: np.ndarray) -> np.ndarray:
        sim = self._sim
        if sim.vectorized_reward:
            return proposed_reward_vector(
                c_fue,
                c_mue,
                self._proximity,
                self._fue_thresholds,
                sim.thresholds.mue,
                sim.mue_capacity_exponent,
            )
        return np.array(
            [
                sim.reward_fn(
                    RewardInputs(
                        fue_capacity=float(c),
                        mue_capacity=c_mue,
                        proximity=float(p),
                        fue_threshold=float(q),
                        mue_threshold=sim.thresholds.mue,
                    )
                )
                for c, p, q in zip(c_fue, self._proximity, self._fue_thresholds)
            ],
            dtype=float,
        )

    def step(self, iteration: int) -> None:
        """Run one synchronous iteration: select, evaluate, reward, update, share."""
        sim = self._sim
        params = sim.params
        qmat, flat, groups = self._qmat, self._flat, self._groups

        actions = qmat.argmax(axis=1)
        row_max = flat[self._row_start + actions]
        eps = epsilon_at(iteration, params)
        if eps > 0.0:
            n_actions = qmat.shape[1]
            for i, (random, integers) in enumerate(self._draws):
                if random() < eps:
                    actions[i] = integers(n_actions)

        c_mue, c_fue = self._capacities(sim.actions.levels_mw[actions])
        rewards = self._rewards(c_mue, c_fue)

        pos = self._row_start + actions
        old = flat[pos]
        new = (1.0 - params.alpha) * old + params.alpha * (rewards + params.gamma * row_max)
        change = np.abs(new - old)  # a row outside a sharing group changes only here
        if len(groups):
            before = qmat[groups.members]
            flat[pos] = new
            change[groups.members] = np.abs(groups.share(self._buf) - before).max(axis=1)
        else:
            flat[pos] = new
        delta = float(change.max()) if self._finite else math.nan
        self._finite = math.isfinite(delta)
        self._streak = self._streak + 1 if delta < sim.criterion.tolerance else 0

        self._last = (iteration, actions, c_mue, c_fue, rewards, delta)

    def record(self) -> IterationRecord:
        """The joint outcome of the last iteration ``step`` ran."""
        if self._last is None:
            raise RuntimeError("no iteration has run yet")
        iteration, actions, c_mue, c_fue, rewards, delta = self._last
        return IterationRecord(
            iteration=iteration,
            agent_ids=self._agent_ids,
            actions=tuple(actions.tolist()),
            powers_dbm=tuple(self._sim.actions.levels_dbm[actions].tolist()),
            c_mue=c_mue,
            fue_capacities=tuple(c_fue.tolist()),
            rewards=tuple(rewards.tolist()),
            max_q_delta=delta,
        )

    def run(self) -> tuple[DensitySummary, list[IterationRecord]]:
        """Iterate to convergence or the budget, then check, sync and summarize.

        Every ``trace_stride``-th iteration is recorded, and the last one too.
        """
        sim = self._sim
        stride = sim.config.trace_stride
        window = sim.criterion.window
        step = self.step
        records: list[IterationRecord] = []
        for iteration in range(sim.params.max_iterations):
            step(iteration)
            if iteration % stride == 0:
                records.append(self.record())
            if self._streak >= window:
                self.converged = True
                break
        self.iterations_run = iteration + 1
        if iteration % stride:
            records.append(self.record())
        self._check_finite()
        self.finalize()
        return self._summary(), records

    def _check_finite(self) -> None:
        bad = ~np.isfinite(self._qmat).all(axis=1)
        if bad.any():
            agent = self._agents[int(bad.argmax())]
            raise FloatingPointError(
                f"agent {agent.agent_id} has a non-finite Q-value at density m={self.m} "
                f"after {self.iterations_run} iterations"
            )

    def finalize(self) -> None:
        """Write the working rows back into the agents' tables."""
        for i, agent in enumerate(self._agents):
            agent.active_row()[:] = self._qmat[i]

    def greedy_joint_action(self) -> np.ndarray:
        return np.argmax(self._qmat, axis=1)

    def _summary(self) -> DensitySummary:
        sim = self._sim
        actions = self.greedy_joint_action()
        powers_mw = sim.actions.levels_mw[actions]
        c_mue, c_fue = self._capacities(powers_mw)
        phase = "cooperative" if self.m > sim.effective_seed_agents else "individual"
        return DensitySummary(
            m=self.m,
            phase=phase,
            agent_ids=self._agent_ids,
            actions=tuple(int(a) for a in actions),
            powers_dbm=tuple(float(sim.actions.levels_dbm[a]) for a in actions),
            c_mue_final=c_mue,
            fue_capacities=tuple(float(c) for c in c_fue),
            min_fue_capacity=float(c_fue.min()),
            sum_capacity=float(c_fue.sum()),
            jain=jain_index(c_fue),
            iterations_to_converge=self.iterations_run,
            converged=self.converged,
        )


class Simulation:
    """Full experiment: build the scenario, then sweep density with admission."""

    def __init__(
        self,
        config: ScenarioConfig,
        *,
        topology: Topology | None = None,
        reward_fn: RewardFunction | None = None,
    ):
        self.config = config
        self.topology = topology if topology is not None else build_topology(config)
        if self.topology.m != config.m_max:
            raise ValueError(
                f"topology has {self.topology.m} stations but config.m_max is {config.m_max}"
            )
        self.actions: ActionSet = make_action_set(
            config.p_min_dbm, config.p_max_dbm, config.n_power
        )
        self.params = LearningParams(
            alpha=config.alpha,
            gamma=config.gamma,
            epsilon=config.epsilon,
            explore_fraction=config.explore_fraction,
            max_iterations=config.max_iterations,
        )
        self.criterion = ConvergenceCriterion(
            window=config.convergence_window, tolerance=config.convergence_tolerance
        )
        self.radii = RingRadii(mbs=config.mbs_radii, mue=config.mue_radii)
        self.gains = build_gain_matrix(
            self.topology,
            pl0=config.pl0_db,
            exponent=config.pathloss_exponent,
            d0=config.d0_m,
            f_ghz=config.f_ghz,
        )
        self.p_bs_mw = dbm_to_mw(config.p_bs_dbm)
        self.noise_mw = dbm_to_mw(config.noise_dbm)
        self.thresholds = QosThresholds(
            mue=config.mue_min_capacity, fue=config.fue_thresholds()
        )
        self.mue_capacity_exponent = config.mue_capacity_exponent
        if reward_fn is not None:
            self.reward_fn = reward_fn
            self.vectorized_reward = False
        else:
            self.reward_fn = resolve_reward(
                config.reward_name, mue_capacity_exponent=config.mue_capacity_exponent
            )
            self.vectorized_reward = config.reward_name == "proposed"

        n_rings_mbs = len(self.radii.mbs)
        n_rings_mue = len(self.radii.mue)
        self.agents: list[Agent] = []
        for aid in range(config.m_max):
            fbs = self.topology.fbs[aid]
            self.agents.append(
                Agent(
                    agent_id=aid,
                    state=agent_state(fbs, self.topology.mbs, self.topology.mue, self.radii),
                    proximity=proximity_ratio(fbs, self.topology.mue, config.d_th_m),
                    fue_threshold=self.thresholds.fue[aid],
                    qtable=QTable(n_rings_mbs, n_rings_mue, config.n_power),
                    rng=np.random.default_rng(
                        np.random.SeedSequence((config.seed, AGENT_STREAM, aid))
                    ),
                )
            )

        self.effective_seed_agents = min(config.seed_agents, config.m_max)
        admission_rng = np.random.default_rng(
            np.random.SeedSequence((config.seed, ADMISSION_STREAM))
        )
        seeds = list(range(self.effective_seed_agents))
        rest = list(range(self.effective_seed_agents, config.m_max))
        admission_rng.shuffle(rest)
        self.admission_order = tuple(seeds + rest)

        self.trace = RunTrace(admission_order=self.admission_order)
        self._active: list[Agent] = []
        self._next_density = 1

    def run(self) -> RunTrace:
        """Run both phases over the full density sweep."""
        self.run_individual_phase()
        self.run_cooperative_phase()
        return self.trace

    def run_individual_phase(self) -> list[DensitySummary]:
        """Admit the seed agents one per density step, learning without sharing."""
        out = []
        while self._next_density <= self.effective_seed_agents:
            out.append(self._advance_density())
        return out

    def run_cooperative_phase(self) -> list[DensitySummary]:
        """Admit remaining agents one by one with warm starts and row sharing."""
        if self._next_density <= self.effective_seed_agents:
            raise RuntimeError("individual phase has not completed")
        out = []
        while self._next_density <= self.config.m_max:
            out.append(self._advance_density())
        return out

    def _advance_density(self) -> DensitySummary:
        m = self._next_density
        newcomer = self.agents[self.admission_order[m - 1]]
        cooperative = m > self.effective_seed_agents
        if cooperative:
            self._warm_start(newcomer, self._active)
        self._active.append(newcomer)
        step = DensityStep(
            self,
            list(self._active),
            sharing=cooperative and self.config.sharing_enabled,
        )
        summary, records = step.run()
        self.trace.summaries.append(summary)
        self.trace.records[m] = records
        self._next_density += 1
        return summary

    @staticmethod
    def _warm_start(newcomer: Agent, experienced: list[Agent]) -> None:
        """Seed the newcomer's active row with the mean of same-state veterans."""
        peers = [a for a in experienced if a.state == newcomer.state]
        if peers:
            rows = [p.qtable.row(newcomer.state) for p in peers]
            newcomer.active_row()[:] = np.mean(rows, axis=0)
