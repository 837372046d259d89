"""Byte-identity of the run and oracle artifacts for small fixed scenarios.

The run digests were written from the simulator before the hot loop was
rewritten, the m=4 oracle digest before the capacity kernels were merged,
the m=6 one before the oracle enumerated in blocks and the ten-seed
``OracleResult`` one before the batch kernel went station-major; any
refactor must keep them, or re-baseline them on purpose and say why in CHANGES.md.
"""

import hashlib
from collections import Counter
from dataclasses import replace

import pytest

from femtoq.cli import run_oracle, write_run_artifacts
from femtoq.config import ScenarioConfig
from femtoq.coordinator import MEMO_SIZE, Simulation
from femtoq.oracle import exhaustive_search

STRIDE = 9


def golden_config(sharing: bool) -> ScenarioConfig:
    return ScenarioConfig(
        m_max=6,
        seed_agents=2,
        max_iterations=400,
        convergence_window=20,
        trace_stride=STRIDE,
        seed=3,
        sharing_enabled=sharing,
    )


GOLDEN = {
    True: {
        "density_01.csv": "991ebc54659671654e1d8d34e7ff2a68b4b6c068676babbcca60af7d94cc8d98",
        "density_02.csv": "7cf81bdffb44c127b126d4137282b6aea2f0c8e1af9349c4f686901c7586915e",
        "density_03.csv": "509fe69a818109046bece875d2e941b50038faff2d3abf86c20ea4529b1573f1",
        "density_04.csv": "7f29c69890d96333362f8f323c1eb585853c5c5fb92b7e3124165e7ce47b37e4",
        "density_05.csv": "ec2174eeecf5f76ecbfc1369f72f78607faf8f0309ef4676ac299219efd3a5c9",
        "density_06.csv": "10087c71499aadc6375bdf42b0b09b43c6f14ee954ce7d5ccaea7d669e0f0925",
        "summary.csv": "debd46f114bf82be8b019d89152f4646f1c631745bcc7b9da3bc0bf511432bfd",
    },
    False: {
        "density_01.csv": "991ebc54659671654e1d8d34e7ff2a68b4b6c068676babbcca60af7d94cc8d98",
        "density_02.csv": "7cf81bdffb44c127b126d4137282b6aea2f0c8e1af9349c4f686901c7586915e",
        "density_03.csv": "84780cec1c7438e9c5fa62bfba122c75a0c7f8cee4942f72036e5d36d0cdc3a7",
        "density_04.csv": "64a206c10eb707022033cbae8ca1c8c11a0b104f85e46b9f8465816dc1ea340a",
        "density_05.csv": "f98013b3ca6b99942e129f0654f2d89ccebd5a55d5821ded7031743a442d0df8",
        "density_06.csv": "2264c732090b5e792cd0e464ddcfcc89a5cb89953096ba5e8e7bdbfa683c08b6",
        "summary.csv": "10b2d64cce486397d97ae2062359880497efd91238cc633442310acb1ad1725a",
    },
}


@pytest.mark.parametrize("sharing", [True, False], ids=["sharing", "independent"])
def test_artifact_digests(sharing, tmp_path):
    config = golden_config(sharing)
    sim = Simulation(config)
    trace = sim.run()

    # the scenario must keep exercising what the digests guard: a sharing
    # group of two or more, and a last iteration that is off the stride
    sizes = Counter(sim.agents[i].state for i in sim.admission_order)
    assert max(sizes.values()) >= 2
    assert any((s.iterations_to_converge - 1) % STRIDE for s in trace.summaries)

    assert run_digests(config, trace, tmp_path) == GOLDEN[sharing]


def run_digests(config, trace, out_dir):
    write_run_artifacts(config, trace, out_dir)
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.name == "summary.csv" or p.name.startswith("density_")
    }


def test_custom_reward_stays_with_its_run(tmp_path):
    shapes, outputs = [], []

    def qos_gap(c_fue, c_mue, proximity, q_fue, q_mue):
        shapes.append((c_fue.shape, proximity.shape, q_fue.shape))
        outputs.append(c_fue - q_fue + (c_mue - q_mue))
        return outputs[-1]

    trace = Simulation(replace(golden_config(True), trace_stride=1), reward_fn=qos_gap).run()

    # one call per joint action the step's memo does not hold, in the order
    # the actions are first played, with one entry per active agent; a
    # remembered action records the rewards of its call
    called, expected_shapes, expected, returned = iter(outputs), [], [], 0
    for s in trace.summaries:
        density = trace.records[s.m]
        assert len(density) == s.iterations_to_converge
        memo, previous = {}, None
        for actions in map(tuple, density.actions.tolist()):
            if actions in memo:
                returned += actions != previous
            else:
                if len(memo) == MEMO_SIZE:
                    del memo[next(iter(memo))]
                expected_shapes.append(((s.m,),) * 3)
                memo[actions] = next(called).tolist()
            expected.append(memo[actions])
            previous = actions
    assert shapes == expected_shapes
    assert returned > 0  # some rewards come from before the previous iteration
    recorded = [row for density in trace.records.values() for row in density.rewards.tolist()]
    assert recorded == expected

    # a default run built afterwards in the same process still gives the golden
    config = golden_config(True)
    assert run_digests(config, Simulation(config).run(), tmp_path) == GOLDEN[True]


# 15^4 = 50,625 joint actions, more than 2^15: the largest power of 15 that
# fits 2^15 is 15^3, so the search cannot take the space in one batch
ORACLE_CONFIG = dict(
    m_max=4,
    seed_agents=2,
    n_power=15,
    max_iterations=400,
    convergence_window=20,
    trace_stride=STRIDE,
    seed=3,
)
ORACLE_GOLDEN = "a5601b25db7c367077f288bc3383dd00dcef074fbba6ae8a7c63f27781b7254a"

# 9^6 = 531,441 joint actions: 81 times a batch of at most 9^4 rows
ORACLE_CONFIG_TWO_PREFIXES = dict(ORACLE_CONFIG, m_max=6, n_power=9)
ORACLE_GOLDEN_TWO_PREFIXES = "f0af482ab0091bad4c165ac2a8eb382a7f2f5b41df439f06ca84a8529cd038ff"


def oracle_digest(overrides, out_dir):
    config = ScenarioConfig(output_dir=str(out_dir), **overrides)
    write_run_artifacts(config, Simulation(config).run(), out_dir)
    run_oracle(config, quiet=True)

    # the learned sum and the gap must be filled, or the digest guards less
    header, row = (out_dir / "oracle_result.csv").read_text().splitlines()
    values = dict(zip(header.split(","), row.split(",")))
    assert int(values["n_enumerated"]) > 1 << 15
    assert values["learned_sum"] and values["optimality_gap"]
    return hashlib.sha256((out_dir / "oracle_result.csv").read_bytes()).hexdigest()


def test_oracle_result_digest(tmp_path):
    assert oracle_digest(ORACLE_CONFIG, tmp_path) == ORACLE_GOLDEN


def test_oracle_result_digest_two_prefix_columns(tmp_path):
    assert oracle_digest(ORACLE_CONFIG_TWO_PREFIXES, tmp_path) == ORACLE_GOLDEN_TWO_PREFIXES


# sha256 of the OracleResult reprs, one a line, of the default scenario cut
# to 4 stations and 31 levels at seeds 1-10: 31^4 = 923,521 joint actions
# each, 31 times a batch of at most 31^3 rows
ORACLE_REPRS_GOLDEN = "38461e055ba177b488d024a7a57c56d9257c1df9be198a5468829ea1c49d80db"


def test_oracle_result_reprs_over_seeds():
    reprs = []
    for seed in range(1, 11):
        sim = Simulation(ScenarioConfig(m_max=4, n_power=31, seed=seed))
        result = exhaustive_search(
            sim.gains, sim.actions, sim.thresholds, p_bs_mw=sim.p_bs_mw, noise_mw=sim.noise_mw
        )
        reprs.append(repr(result))
    digest = hashlib.sha256("\n".join(reprs).encode("utf-8")).hexdigest()
    assert digest == ORACLE_REPRS_GOLDEN
