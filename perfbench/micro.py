"""Isolated per-call timings of the hot-loop stages at fixed M.

Each variant is one public call timed on its own. The variants run in
short interleaved batches, rotating which goes first, so that drift in the
machine's speed hits all of them equally. A variant whose callable is gone
or no longer accepts these arguments is reported as missing.
"""

from __future__ import annotations

import math
import time

import numpy as np

BATCH = 16  # consecutive calls of one variant before switching


def build_variants(sim) -> tuple[dict, list[str]]:
    """Zero-argument callables keyed by metric name, and the names that are missing."""
    from femtoq import channel, coordinator, reward

    variants: dict = {}
    missing: list[str] = []
    agents = [sim.agents[i] for i in sim.admission_order]
    # exploration runs while iteration < explore_fraction * max_iterations
    explore_i = 0
    greedy_i = math.ceil(sim.params.explore_fraction * sim.params.max_iterations)

    def add(name, factory):
        try:
            call = factory()
            call()
        except (AttributeError, TypeError, ValueError) as exc:
            missing.append(f"{name} ({type(exc).__name__}: {exc})")
            return
        variants[name] = call

    def step(m, sharing, i):
        def factory():
            ds = coordinator.DensityStep(sim, agents[:m], sharing=sharing)
            return lambda: ds.step(i)

        return factory

    add("coordinator.step_us.m15_share_explore", step(15, True, explore_i))
    add("coordinator.step_us.m15_share_greedy", step(15, True, greedy_i))
    add("coordinator.step_us.m15_noshare_explore", step(15, False, explore_i))
    add("coordinator.step_us.m4_explore", step(4, False, explore_i))

    rng = np.random.default_rng(0)
    powers = sim.actions.levels_mw[rng.integers(len(sim.actions), size=sim.config.m_max)]
    add(
        "channel.capacity_us.m15",
        lambda: lambda: channel.evaluate_capacities(sim.p_bs_mw, powers, sim.gains, sim.noise_mw),
    )

    def reward_factory():
        c_mue, c_fue = channel.evaluate_capacities(sim.p_bs_mw, powers, sim.gains, sim.noise_mw)
        proximity = np.array([a.proximity for a in sim.agents])
        thresholds = np.array([a.fue_threshold for a in sim.agents])
        return lambda: reward.proposed_reward_vector(
            c_fue, c_mue, proximity, thresholds, sim.thresholds.mue, sim.mue_capacity_exponent
        )

    add("reward.vector_us.m15", reward_factory)
    return variants, missing


def sample(variants: dict, seconds: float) -> dict[str, np.ndarray]:
    """Per-call durations in microseconds, interleaved until ``seconds`` pass."""
    names = list(variants)
    samples: dict[str, list[int]] = {n: [] for n in names}
    clock = time.perf_counter_ns
    deadline = time.perf_counter() + seconds
    rnd = 0
    while time.perf_counter() < deadline:
        for k in range(len(names)):
            name = names[(rnd + k) % len(names)]
            call, out = variants[name], samples[name]
            for _ in range(BATCH):
                start = clock()
                call()
                out.append(clock() - start)
        rnd += 1
    return {n: np.asarray(v, dtype=float) / 1000.0 for n, v in samples.items()}


def metrics(samples: dict[str, np.ndarray]) -> dict[str, float]:
    """p50, p99 and sample count per variant, plus the two stage differences."""
    out: dict[str, float] = {}
    for name, us in samples.items():
        out[name] = float(np.percentile(us, 50))
        out[f"{name}.p99"] = float(np.percentile(us, 99))
        out[f"{name}.n"] = float(us.size)
    share = out.get("coordinator.step_us.m15_share_explore")
    if share is not None and "coordinator.step_us.m15_noshare_explore" in out:
        out["coordinator.sharing_us"] = share - out["coordinator.step_us.m15_noshare_explore"]
    if share is not None and "coordinator.step_us.m15_share_greedy" in out:
        out["coordinator.explore_us"] = share - out["coordinator.step_us.m15_share_greedy"]
    return out
