"""Byte-identity of the run artifacts for two small fixed scenarios.

The digests were written from the simulator before the hot loop was
rewritten; any refactor must keep them, or re-baseline them on purpose
and say why in CHANGES.md.
"""

import hashlib
from collections import Counter

import pytest

from femtoq.cli import write_run_artifacts
from femtoq.config import ScenarioConfig
from femtoq.coordinator import Simulation

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

    write_run_artifacts(config, trace, tmp_path)
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.iterdir())
        if p.name == "summary.csv" or p.name.startswith("density_")
    }
    assert digests == GOLDEN[sharing]
