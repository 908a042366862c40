"""Shared benchmark fixtures.

Each benchmark regenerates one of the paper's figures/tables on a
moderately-sized scenario (large enough to show the paper's shape, small
enough to run in CI) and records the headline series in
``benchmark.extra_info`` so the saved benchmark JSON doubles as an
experiment artifact.
"""

from __future__ import annotations

import pytest

from repro.scenario import Scenario, build_scenario
from repro.topology.builder import TopologyConfig
from repro.usergroups.generation import UserGroupConfig


def pytest_collection_modifyitems(items) -> None:
    """Everything under benchmarks/ belongs to the ``bench`` tier.

    Tier-1 deselects it via the addopts marker filter; CI's benchmark job
    opts back in with ``-m bench``.  Soak benchmarks additionally carry
    the ``soak`` marker so CI's benchmark-smoke soak step can select the
    throughput gate with ``-m 'bench and soak'``.
    """
    for item in items:
        item.add_marker(pytest.mark.bench)
        if "soak" in item.nodeid.rpartition("/")[2]:
            item.add_marker(pytest.mark.soak)


@pytest.fixture(scope="session")
def bench_scenario() -> Scenario:
    """Prototype-like world sized for benchmarking."""
    return build_scenario(
        name="bench-prototype",
        topology_config=TopologyConfig(
            seed=0,
            n_pops=15,
            n_tier1=4,
            n_transit=8,
            n_regional=36,
            n_stub=180,
        ),
        ug_config=UserGroupConfig(seed=1, n_ugs=200),
    )


@pytest.fixture(scope="session")
def bench_azure_scenario() -> Scenario:
    """Azure-flavored world (more PoPs/peerings) sized for benchmarking."""
    return build_scenario(
        name="bench-azure",
        topology_config=TopologyConfig(
            seed=0,
            n_pops=25,
            n_tier1=5,
            n_transit=14,
            n_regional=70,
            n_stub=320,
            regional_peering_prob=0.7,
        ),
        ug_config=UserGroupConfig(seed=1, n_ugs=300),
    )
