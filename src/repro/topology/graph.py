"""AS-level graph with business relationships and customer-cone computation.

The graph is the substrate for both the BGP simulator (route export follows
Gao-Rexford rules over these relationships) and the orchestrator's
policy-compliance inference, which mirrors the paper: derive customer cones
ProbLink-style from relationships, then call an ingress policy-compliant for
a UG when the UG's AS is in the cone of the peer owning that ingress (§3.1).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from repro.topology.asn import AutonomousSystem, Relationship


class TopologyError(Exception):
    """Raised for structurally invalid topologies."""


class ASGraph:
    """Directed-relationship AS graph.

    Relationships are stored from each AS's perspective; adding a
    provider->customer edge automatically records the inverse.  Peering links
    are symmetric.
    """

    def __init__(self) -> None:
        self._ases: Dict[int, AutonomousSystem] = {}
        self._neighbors: Dict[int, Dict[int, Relationship]] = {}
        self._cone_cache: Dict[int, FrozenSet[int]] = {}
        self._version = 0

    # -- construction ------------------------------------------------------

    def add_as(self, asys: AutonomousSystem) -> None:
        existing = self._ases.get(asys.asn)
        if existing is not None and existing != asys:
            raise TopologyError(f"ASN {asys.asn} already registered as {existing}")
        self._ases[asys.asn] = asys
        self._neighbors.setdefault(asys.asn, {})
        self._version += 1

    def add_provider_customer(self, provider: int, customer: int) -> None:
        """Record that ``provider`` sells transit to ``customer``."""
        self._add_link(provider, customer, Relationship.CUSTOMER)

    def add_peering_link(self, a: int, b: int) -> None:
        """Record a settlement-free peering between two ASes."""
        self._add_link(a, b, Relationship.PEER)

    def _add_link(self, a: int, b: int, rel_of_b_to_a: Relationship) -> None:
        if a == b:
            raise TopologyError(f"self-link on ASN {a}")
        for asn in (a, b):
            if asn not in self._ases:
                raise TopologyError(f"ASN {asn} not registered; add_as() first")
        existing = self._neighbors[a].get(b)
        if existing is not None and existing is not rel_of_b_to_a:
            raise TopologyError(
                f"conflicting relationship between AS{a} and AS{b}: "
                f"{existing.value} vs {rel_of_b_to_a.value}"
            )
        self._neighbors[a][b] = rel_of_b_to_a
        self._neighbors[b][a] = rel_of_b_to_a.inverse()
        self._cone_cache.clear()
        self._version += 1

    @property
    def version(self) -> int:
        """Bumped by every ``add_*`` call: a structure compiled from the
        graph (the BGP simulator's adjacency) is current while this is
        unchanged."""
        return self._version

    # -- lookups -----------------------------------------------------------

    def __contains__(self, asn: int) -> bool:
        return asn in self._ases

    def __len__(self) -> int:
        return len(self._ases)

    def __iter__(self) -> Iterator[int]:
        return iter(self._ases)

    def get_as(self, asn: int) -> AutonomousSystem:
        try:
            return self._ases[asn]
        except KeyError:
            raise KeyError(f"unknown ASN {asn}") from None

    def all_ases(self) -> List[AutonomousSystem]:
        return list(self._ases.values())

    def relationship(self, asn: int, neighbor: int) -> Optional[Relationship]:
        """Relationship of ``neighbor`` from ``asn``'s perspective, if any."""
        return self._neighbors.get(asn, {}).get(neighbor)

    def neighbors(self, asn: int) -> Dict[int, Relationship]:
        if asn not in self._ases:
            raise KeyError(f"unknown ASN {asn}")
        return dict(self._neighbors[asn])

    def customers(self, asn: int) -> List[int]:
        return self._neighbors_of_kind(asn, Relationship.CUSTOMER)

    def providers(self, asn: int) -> List[int]:
        return self._neighbors_of_kind(asn, Relationship.PROVIDER)

    def peers(self, asn: int) -> List[int]:
        return self._neighbors_of_kind(asn, Relationship.PEER)

    def _neighbors_of_kind(self, asn: int, kind: Relationship) -> List[int]:
        if asn not in self._ases:
            raise KeyError(f"unknown ASN {asn}")
        return [n for n, rel in self._neighbors[asn].items() if rel is kind]

    # -- customer cones ----------------------------------------------------

    def customer_cone(self, asn: int) -> FrozenSet[int]:
        """All ASes reachable from ``asn`` by following only customer links.

        Includes ``asn`` itself, matching the convention of Luckie et al.
        (an AS is trivially in its own cone).  Results are cached until the
        graph is mutated.
        """
        cached = self._cone_cache.get(asn)
        if cached is not None:
            return cached
        if asn not in self._ases:
            raise KeyError(f"unknown ASN {asn}")
        cone: Set[int] = {asn}
        frontier = deque(self.customers(asn))
        while frontier:
            current = frontier.popleft()
            if current in cone:
                continue
            cone.add(current)
            frontier.extend(self.customers(current))
        result = frozenset(cone)
        self._cone_cache[asn] = result
        return result

    def in_customer_cone(self, asn: int, of: int) -> bool:
        """Whether ``asn`` can reach ``of`` purely via provider links."""
        return asn in self.customer_cone(of)

    # -- validation --------------------------------------------------------

    def find_provider_cycle(self) -> Optional[List[int]]:
        """Return a customer->provider cycle if one exists (invalid economy)."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {asn: WHITE for asn in self._ases}
        parent: Dict[int, Optional[int]] = {}

        for start in self._ases:
            if color[start] != WHITE:
                continue
            stack: List[Tuple[int, Iterator[int]]] = [(start, iter(self.providers(start)))]
            color[start] = GRAY
            parent[start] = None
            while stack:
                node, providers = stack[-1]
                advanced = False
                for nxt in providers:
                    if color[nxt] == GRAY:
                        cycle = [nxt, node]
                        cursor = parent[node]
                        while cursor is not None and cycle[-1] != nxt:
                            cycle.append(cursor)
                            cursor = parent.get(cursor)
                        cycle.reverse()
                        return cycle
                    if color[nxt] == WHITE:
                        color[nxt] = GRAY
                        parent[nxt] = node
                        stack.append((nxt, iter(self.providers(nxt))))
                        advanced = True
                        break
                if not advanced:
                    color[node] = BLACK
                    stack.pop()
        return None

    def validate(self) -> None:
        """Raise :class:`TopologyError` if the graph violates basic sanity."""
        cycle = self.find_provider_cycle()
        if cycle is not None:
            raise TopologyError(f"provider cycle detected: {cycle}")

    # -- stats -------------------------------------------------------------

    def degree(self, asn: int) -> int:
        return len(self._neighbors.get(asn, {}))

    def edge_count(self) -> int:
        return sum(len(neigh) for neigh in self._neighbors.values()) // 2


def transit_path_exists(graph: ASGraph, src: int, dst: int) -> bool:
    """Whether a valley-free path exists from ``src`` to ``dst``.

    Valley-free (Gao-Rexford): a path climbs zero or more provider links,
    crosses at most one peer link, then descends zero or more customer links.
    Used in tests as an oracle against the BGP simulator.
    """
    if src not in graph or dst not in graph:
        raise KeyError("both endpoints must be in the graph")
    if src == dst:
        return True

    # Phase state: 0 = still climbing (may use provider/peer/customer),
    # 1 = descended or crossed a peer (may only use customer links).
    seen: Set[Tuple[int, int]] = set()
    frontier: deque = deque([(src, 0)])
    while frontier:
        node, phase = frontier.popleft()
        if (node, phase) in seen:
            continue
        seen.add((node, phase))
        for neighbor, rel in graph.neighbors(node).items():
            if rel is Relationship.PROVIDER and phase == 0:
                next_state = (neighbor, 0)
            elif rel is Relationship.PEER and phase == 0:
                next_state = (neighbor, 1)
            elif rel is Relationship.CUSTOMER:
                next_state = (neighbor, 1)
            else:
                continue
            if next_state[0] == dst:
                return True
            frontier.append(next_state)
    return False
