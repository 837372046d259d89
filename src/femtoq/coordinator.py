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


# the joint actions whose evaluations a density step remembers
MEMO_SIZE = 1024


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


def explore_draws(
    rng: np.random.Generator, epsilon: float, n: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` iterations of ``if rng.random() < epsilon: rng.integers(n)``, in one block.

    Returns the ``(count,)`` explore flags and actions (0 where the flag is
    off), and leaves ``rng`` exactly where the scalar calls would. Both
    calls are fixed functions of a PCG64 generator's 64-bit words:
    ``random()`` is ``(w >> 11) * 2**-53``, and ``integers(n)`` for
    ``2 <= n <= 2**32`` takes a 32-bit value, the one the generator has
    buffered or else the low half of a fresh word (buffering its high
    half), and maps it to ``(u * n) >> 32`` by Lemire's method, drawing
    again while ``(u * n) mod 2**32 < (2**32 - n) % n``. So the flags are
    read from a block of raw words at once and only the explore events are
    walked in Python; then the generator is reset, advanced by the words
    taken and given the buffer the last draw left.
    """
    if not 2 <= n <= 2**32:
        raise ValueError(f"n must lie in [2, 2**32], got {n}")
    bits = rng.bit_generator
    start = bits.state
    words = bits.random_raw(int(count * (1.0 + epsilon)) + 64)
    while (walk := _walk_explores(words, epsilon, n, count, start)) is None:
        words = np.concatenate([words, bits.random_raw(len(words))])
    flags, actions, used, buffered = walk
    bits.state = start
    bits.advance(used)
    state = bits.state
    state["has_uint32"], state["uinteger"] = buffered
    bits.state = state
    return flags, actions


def _walk_explores(words, epsilon, n, count, state):
    """The flags, the actions, the words used and the 32-bit buffer left after ``count`` draws.

    None when ``words`` runs out first.
    """
    # for an integer x, x * 2**-53 < epsilon exactly when x < ceil(epsilon * 2**53)
    flagged = np.flatnonzero(words >> 11 < math.ceil(epsilon * 2.0**53)).tolist()
    threshold = (2**32 - n) % n
    has_uint32, uinteger = state["has_uint32"], state["uinteger"]
    flags = np.zeros(count, dtype=bool)
    actions = np.zeros(count, dtype=np.intp)
    t = p = 0  # iteration t reads its flag from word p
    for q in flagged:
        if q < p:  # a word already taken for an action
            continue
        if t + q - p >= count:
            break
        t += q - p
        p = q + 1
        while True:
            if has_uint32:
                u, has_uint32 = uinteger, 0
            elif p < len(words):
                w = int(words[p])
                p += 1
                u, uinteger, has_uint32 = w & 0xFFFFFFFF, w >> 32, 1
            else:
                return None
            product = u * n
            if product & 0xFFFFFFFF >= threshold:
                break
        flags[t], actions[t] = True, product >> 32
        t += 1
    used = p + count - t  # the rest of the iterations draw their flags only
    if used > len(words):
        return None
    return flags, actions, used, (has_uint32, uinteger)


class DensityStep:
    """Learning loop for one fixed set of active agents.

    The agents' rows of ``Simulation.q`` are copied into a buffer laid out
    for sharing. Agents in the same ring state form a sharing group when
    ``sharing`` is on; group g owns rows ``[g * k, (g + 1) * k)``, k the
    largest group size: its members in agent order, then rows that stay
    zero. Agents in no group follow, in agent order. ``_row[i]`` is agent
    i's buffer row, and ``q`` returns the rows in agent order. ``run``
    writes them back into ``Simulation.q`` when the step finishes; ``step``
    alone leaves ``Simulation.q`` untouched.

    Each iteration takes one ``argmax`` per row: it is the greedy action
    and, read before the update, its entry is the row maximum of the TD
    target. On iterations below the exploration horizon (``explore_until``)
    each agent explores with probability epsilon, drawing from its own
    generator: ``rng.random() < epsilon``, then ``rng.integers(n_power)``.
    The constructor draws each agent's whole horizon with one
    ``explore_draws`` call, which gives the values and the generator state
    of those calls made one iteration at a time, and ``step(i)`` applies
    row i: it is a function of the Q buffer and ``i`` alone and touches no
    generator. A ``run`` that stops after k iterations short of the horizon
    puts each generator back to where k per-iteration draws leave it; from
    the horizon on, the construction's draws already left it there.

    An iteration on which no agent explores plays the greedy actions, so the
    gather of the row maxima also gives the entries the update starts from.
    The step remembers the evaluations of the last ``MEMO_SIZE`` joint
    actions it evaluated, keyed by the whole joint action. An iteration
    whose joint action is remembered returns that evaluation's ``c_mue,
    c_fue, rewards`` objects. Any other iteration calls the capacity kernel
    and ``reward_fn`` once, stores the capacities and a copy of the rewards,
    and forgets the oldest entry when the memo is full. So ``step(i)`` still
    returns a function of the Q buffer and ``i``, whatever the order of the
    calls, as long as the reward is a pure function of its arguments.
    Callers must not write into the arrays ``step`` returns; ``run`` copies
    them.

    After the update, each group's rows are replaced by their mean: the
    sum over the group's ``k`` rows, padding included, over its size. That
    is ``np.mean`` over the members' rows (``tests/reference.share_active_rows``)
    except that a column which is -0.0 in every member comes out +0.0.

    The per-iteration Q-delta is the largest absolute entry change across
    the whole iteration (update plus sharing), which is what the
    convergence detector consumes. With groups the whole buffer is compared
    with a copy taken before the update; without, a row changes only at its
    updated entry, so only those entries are compared. The gathered
    rows must be finite, or the constructor raises ``FloatingPointError``.
    A finite entry can only turn NaN or infinite through a non-finite
    change, so ``step`` checks the rows when the delta is not finite and
    raises on the iteration an entry turns.

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
        config = sim.config
        self._reward_fn, self._q_mue = sim.reward_fn, sim.thresholds.mue
        self._levels_mw = sim.actions.levels_mw
        self._alpha, self._keep, self._gamma = config.alpha, 1.0 - config.alpha, config.gamma
        self._epsilon = config.epsilon
        self._explore_until = explore_until(
            config.epsilon, config.explore_fraction, config.max_iterations
        )

        by_state: dict[AgentState, list[int]] = {}
        for i, a in enumerate(agents):
            by_state.setdefault(a.state, []).append(i)
        groups = [v for v in by_state.values() if len(v) >= 2] if sharing else []
        k = max(map(len, groups), default=0)
        grouped_rows = len(groups) * k
        singles = sorted(set(range(m)).difference(*groups))
        self._row = np.empty(m, dtype=np.intp)
        for g, members in enumerate(groups):
            self._row[members] = g * k + np.arange(len(members))
        self._row[singles] = grouped_rows + np.arange(len(singles))
        self._shared = bool(groups)
        self._n_actions = n_actions = len(sim.actions)
        self._buf = np.zeros((grouped_rows + len(singles), n_actions))
        self._buf[self._row] = sim.q[self._ids]
        self._check_finite(0)
        self._flat = self._buf.reshape(-1)  # a view: the buffer is contiguous
        self._row_start = self._row * n_actions
        self._groups = self._buf[:grouped_rows].reshape(len(groups), k, n_actions)
        self._counts = np.array([len(v) for v in groups], dtype=float)[:, None]
        self._slots = (np.arange(k) < self._counts)[:, :, None]

        self._rngs = [a.rng for a in agents]
        self._states = [rng.bit_generator.state for rng in self._rngs]
        h = self._explore_until
        self._flags = np.empty((h, m), dtype=bool)
        self._draws = np.empty((h, m), dtype=np.min_scalar_type(n_actions - 1))
        for i, rng in enumerate(self._rngs):
            self._flags[:, i], self._draws[:, i] = explore_draws(
                rng, self._epsilon, n_actions, h
            )
        self._explores = self._flags.any(axis=1).tolist()
        self._seen: dict[bytes, tuple] = {}  # joint action -> (c_mue, c_fue, rewards)

    @property
    def q(self) -> np.ndarray:
        """The agents' Q-rows in agent order, as an ``(m, n_power)`` copy."""
        return self._buf[self._row]

    def step(self, iteration: int) -> tuple[np.ndarray, float, np.ndarray, np.ndarray, float]:
        """Run one synchronous iteration: select, evaluate, reward, update, share.

        Returns the iteration's ``actions, c_mue, c_fue, rewards, delta``.
        """
        buf, flat = self._buf, self._flat

        actions = buf.argmax(axis=1)
        if self._shared:
            actions = actions[self._row]
        pos = self._row_start + actions
        row_max = old = flat[pos]
        if iteration < self._explore_until and self._explores[iteration]:
            np.copyto(actions, self._draws[iteration], where=self._flags[iteration])
            pos = self._row_start + actions
            old = flat[pos]

        key, seen = actions.tobytes(), self._seen
        hit = seen.get(key)
        if hit is None:
            c_mue, c_fue = self._capacities(self._levels_mw[actions])
            rewards = self._reward_fn(
                c_fue, c_mue, self._proximity, self._fue_thresholds, self._q_mue
            )
            if len(seen) >= MEMO_SIZE:
                del seen[next(iter(seen))]  # a dict keeps insertion order
            hit = seen[key] = c_mue, c_fue, rewards.copy()
        c_mue, c_fue, rewards = hit

        new = self._keep * old + self._alpha * (rewards + self._gamma * row_max)
        if self._shared:
            before = buf.copy()
            flat[pos] = new
            groups = self._groups
            np.copyto(groups, (groups.sum(axis=1) / self._counts)[:, None], where=self._slots)
            np.subtract(buf, before, out=before)
            delta = float(np.abs(before, out=before).max())
        else:
            change = np.abs(new - old)
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
        if iteration + 1 < self._explore_until:
            for rng, state in zip(self._rngs, self._states):
                rng.bit_generator.state = state
                explore_draws(rng, self._epsilon, self._n_actions, iteration + 1)
        sim.q[self._ids] = self.q
        return self._summary(iteration + 1, converged), t[:k].copy()

    def _check_finite(self, iterations: int) -> None:
        bad = ~np.isfinite(self.q).all(axis=1)
        if bad.any():
            agent_id = self._agent_ids[int(bad.argmax())]
            raise FloatingPointError(
                f"agent {agent_id} has a non-finite Q-value at density m={self.m} "
                f"after {iterations} iterations"
            )

    def _summary(self, iterations: int, converged: bool) -> DensitySummary:
        sim = self._sim
        actions = self.q.argmax(axis=1)
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

    ``reward_fn`` is called as ``reward_fn(c_fue, c_mue, proximity, q_fue,
    q_mue)``: the active agents' femto capacities, the macro capacity, the
    agents' proximity ratios and femto QoS thresholds as ``(m,)`` arrays in
    agent order, then the macro threshold. It returns the ``(m,)`` float
    array of rewards and must be a pure function of its arguments: a density
    step calls it only on the iterations whose joint action is not among the
    last ``MEMO_SIZE`` it evaluated, and reuses a copy of the result for
    that joint action while it stays remembered. It belongs to this run
    only; by default it is ``REWARDS[config.reward_name]`` with the config's
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
            sharing = cooperative and config.sharing_enabled
            summary, self.trace.records[m] = DensityStep(self, active, sharing=sharing).run()
            self.trace.summaries.append(summary)
        return self.trace

    def _warm_start(self, newcomer: Agent, experienced: list[Agent]) -> None:
        """Seed the newcomer's Q-row with the mean row of same-state veterans."""
        peers = [a.agent_id for a in experienced if a.state == newcomer.state]
        if peers:
            self.q[newcomer.agent_id] = np.mean(self.q[peers], axis=0)
