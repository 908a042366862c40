"""Golden world digests: every seeded world the presets build is pinned.

A digest hashes what a world is made of: every AS with its role, name and
home metro, every adjacency with its relationship (in insertion order), the
PoPs, the cloud peerings and the user groups.  Any change to the topology
generator or the UG population that moves one RNG draw, one distance
comparison or one insertion changes a digest.  ``tests/data/golden_worlds.json``
holds the recorded digests; after a deliberate change to what the generator
builds, re-record them with::

    PYTHONPATH=src python -m tests.test_golden_worlds
"""

from __future__ import annotations

import builtins
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import Callable, Dict, Iterable, Tuple

import pytest

from repro.scenario import (
    CLAIM_WORLDS,
    Scenario,
    azure_scenario,
    build_scenario,
    mega_scenario,
    prototype_scenario,
    tiny_scenario,
)
from repro.topology.builder import Topology
from repro.usergroups.usergroup import UserGroup

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_worlds.json"
REPO_ROOT = Path(__file__).resolve().parent.parent

SEEDS = (0, 1, 2)


def _claim_world(name: str) -> Callable[[int], Scenario]:
    topology_config, ug_config = CLAIM_WORLDS[name]

    def build(seed: int) -> Scenario:
        return build_scenario(
            name,
            dataclasses.replace(topology_config, seed=seed),
            dataclasses.replace(ug_config, seed=seed + 1),
        )

    return build


#: World name -> builder by seed.  The claim worlds use their own seed as the
#: topology seed and the next one as the UG seed, as the recorded seed-0
#: worlds do; ``claims-prototype`` is also the ``learn-p15`` bench world.
WORLDS: Dict[str, Callable[[int], Scenario]] = {
    "tiny": tiny_scenario,
    "prototype": prototype_scenario,
    "azure-120": lambda seed: azure_scenario(seed, n_ugs=120),
    "azure-1200": azure_scenario,
    **{name: _claim_world(name) for name in CLAIM_WORLDS},
}


def _metro(metro) -> Tuple:
    if metro is None:
        return (None,)
    return (metro.name, metro.location.lat, metro.location.lon, metro.region)


def world_digest(topology: Topology, ugs: Iterable[UserGroup] = ()) -> str:
    """SHA-256 over a world's ASes, edges, PoPs, peerings and user groups."""
    h = hashlib.sha256()

    def put(*fields) -> None:
        h.update(repr(fields).encode())
        h.update(b"\n")

    graph = topology.graph
    for asys in graph.all_ases():
        put("as", asys.asn, asys.role.value, asys.name, *_metro(asys.home_metro))
    for asn in graph:
        for neighbor, rel in graph.neighbors(asn).items():
            put("edge", asn, neighbor, rel.value)
    for pop in topology.deployment.pops:
        put("pop", pop.name, *_metro(pop.metro))
    for peering in topology.deployment.peerings:
        put(
            "peering",
            peering.peering_id,
            peering.pop.name,
            peering.peer_asn,
            peering.relationship.value,
        )
    for ug in ugs:
        put("ug", ug.ug_id, ug.asn, ug.metro.name, ug.volume)
    return h.hexdigest()


def digest_of(world: str, seed: int) -> str:
    scenario = WORLDS[world](seed)
    return world_digest(scenario.topology, scenario.user_groups)


def _key(world: str, seed: int) -> str:
    return f"{world}/seed={seed}"


def _golden() -> Dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("world", sorted(WORLDS))
def test_world_matches_golden_digest(world: str) -> None:
    golden = _golden()
    for seed in SEEDS:
        assert digest_of(world, seed) == golden[_key(world, seed)], (world, seed)


def test_golden_file_covers_exactly_the_worlds() -> None:
    expected = {_key(world, seed) for world in WORLDS for seed in SEEDS}
    expected.add("mega-topology/seed=0")
    assert set(_golden()) == expected


def test_world_independent_of_hash_seed() -> None:
    # The bench runs with PYTHONHASHSEED=0 and tier-1 with a random one: no
    # set- or dict-of-str iteration order may reach a world.
    code = "from tests.test_golden_worlds import digest_of; print(digest_of('azure-120', 1))"
    digests = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT), env.get("PYTHONPATH", "")]
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            cwd=REPO_ROOT,
            env=env,
            check=True,
            capture_output=True,
            text=True,
        )
        digests.append(out.stdout.strip())
    assert digests[0] == digests[1] == _golden()[_key("azure-120", 1)]


_C_LONG = range(-(2**63), 2**63)


def compensated_sum(iterable, /, start=0):
    """``builtins.sum`` as CPython 3.12 computes it, in Python.

    Ints add exactly.  Once the running result is an exact ``float``, exact
    float items are added with Neumaier's compensation, which is folded in
    once at the end (when non-zero and finite); an int in C ``long`` range
    is added as a double without it; any other item drops the compensation
    and continues with plain ``+``.  Up to 3.11 every step is plain ``+``,
    so the two differ in the last bits of float sums.
    """
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            if type(item) in (int, bool):
                result += item
                continue
            result = result + item
            break
    if type(result) is float:
        total, compensation = result, 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    compensation += (total - t) + item
                else:
                    compensation += (item - t) + total
                total = t
            elif isinstance(item, int) and item in _C_LONG:
                total += float(item)
            else:
                result = total + item
                break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        result = result + item
    return result


def test_compensated_sum_is_312s() -> None:
    # Recorded with CPython 3.12.1's builtin sum; 3.11 gives
    # 0x1.fffffffffffffp-1, 0x0.0p+0 and 0x1.190d792f29df4p+2 for the
    # first three (the last is Zipf's normaliser of 120 UGs).
    assert compensated_sum([0.1] * 10).hex() == "0x1.0000000000000p+0"
    assert compensated_sum([1e100, 1.0, -1e100]).hex() == "0x1.0000000000000p+0"
    assert compensated_sum([1.0 / rank**1.1 for rank in range(1, 121)]).hex() == (
        "0x1.190d792f29df1p+2"
    )
    assert compensated_sum([-0.0, -0.0]).hex() == "0x0.0p+0"
    assert compensated_sum([1, 2, True]) == 4
    assert compensated_sum([2**70, 0.5]) == float(2**70)


def test_worlds_hold_under_312_sum(monkeypatch) -> None:
    # CI's 3.12 leg sums with compensation; no world may depend on it.
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    golden = _golden()
    for world in sorted(WORLDS):
        for seed in SEEDS:
            assert digest_of(world, seed) == golden[_key(world, seed)], (world, seed)


def mega_topology_digest() -> str:
    # The topology does not depend on the UG count: build_scenario builds it
    # from the topology config alone, before any UG is drawn.
    return world_digest(mega_scenario(0, n_ugs=1).topology)


@pytest.mark.slow
def test_mega_topology_matches_golden_digest() -> None:
    assert mega_topology_digest() == _golden()["mega-topology/seed=0"]


def _record() -> Dict[str, str]:
    digests = {_key(world, seed): digest_of(world, seed) for world in WORLDS for seed in SEEDS}
    digests["mega-topology/seed=0"] = mega_topology_digest()
    return digests


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(_record(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
