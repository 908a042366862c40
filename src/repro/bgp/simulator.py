"""AS-level BGP propagation to a fixed point.

Given an origin AS announcing a prefix to a chosen subset of its neighbors
(PAINTER's selective advertisements), the simulator propagates routes over
the AS graph under Gao-Rexford policy until no AS changes its best route.
The result answers, for every AS, "do you have a route to this prefix, and
through which neighbor sequence does it reach the cloud?" — the ground truth
the Advertisement Orchestrator can only observe one advertisement at a time.

Propagation is a FIFO worklist: an AS whose best route improves is queued,
and when it is popped it offers its *current* best to every neighbor the
Gao-Rexford export rule allows (in the graph's neighbor order), each
neighbor keeping the candidate if it beats its own best under
:func:`~repro.bgp.route.decision_key`.  There is no implicit withdrawal: an
AS keeps a route whose sender later switched to one that the AS ranks
worse, so a result may hold a path its next hop no longer uses.  The
adjacency the worklist walks is compiled once per simulator (and again
after the graph changes, see :attr:`ASGraph.version`), and each AS's best
is held as its plain decision key until the end, where one
:class:`~repro.bgp.route.Route` per AS is built.
"""

from __future__ import annotations

from repro.util import stable_rng
from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple

from repro.bgp.route import Route
from repro.topology.asn import LOCAL_PREFERENCE, Relationship
from repro.topology.graph import ASGraph

#: One compiled adjacency entry of an AS: a neighbor, the AS's relationship
#: from that neighbor's perspective, and that relationship's negated local
#: preference (the first element of the neighbor's decision key).
_Edge = Tuple[int, Relationship, int]


class BGPSimulator:
    """Propagates one origin's announcements over an :class:`ASGraph`.

    ``tie_break_seed`` fixes the hidden per-(AS, neighbor) preferences that
    stand in for IGP metrics and operator policy.  Two simulators over the
    same graph and seed are fully deterministic.
    """

    def __init__(self, graph: ASGraph, origin_asn: int, tie_break_seed: int = 0) -> None:
        if origin_asn not in graph:
            raise KeyError(f"origin AS{origin_asn} not in graph")
        self._graph = graph
        self._origin = origin_asn
        self._seed = tie_break_seed
        self._tie_cache: Dict[Tuple[int, int], float] = {}
        #: Per AS: every neighbor but the origin, and the customers among
        #: them (what a peer or provider route may be exported to), each in
        #: the graph's neighbor order; and per neighbor of the origin, the
        #: origin's relationship from its perspective.  Compiled at graph
        #: version ``_adjacency_version``.
        self._adjacency: Dict[int, Tuple[List[_Edge], List[_Edge]]] = {}
        self._origin_links: Dict[int, Relationship] = {}
        self._adjacency_version = -1

    @property
    def origin_asn(self) -> int:
        return self._origin

    def _tie(self, asn: int, neighbor: int) -> float:
        """Hidden, stable preference of ``asn`` for routes via ``neighbor``."""
        key = (asn, neighbor)
        cached = self._tie_cache.get(key)
        if cached is None:
            cached = stable_rng(self._seed, asn, neighbor).random()
            self._tie_cache[key] = cached
        return cached

    def _compile(self) -> None:
        """Compile the adjacency of the graph as it is now, if it changed."""
        graph = self._graph
        if self._adjacency_version != graph.version:
            origin = self._origin
            customer = Relationship.CUSTOMER
            adjacency = {}
            for asn in graph:
                everyone = []
                customers = []
                for neighbor, rel in graph.neighbors(asn).items():
                    if neighbor == origin:
                        continue
                    # Seen from a customer, this AS is its provider, etc.
                    back = rel.inverse()
                    edge = (neighbor, back, -LOCAL_PREFERENCE[back])
                    everyone.append(edge)
                    if rel is customer:
                        customers.append(edge)
                adjacency[asn] = (everyone, customers)
            self._adjacency = adjacency
            self._origin_links = {
                neighbor: rel.inverse() for neighbor, rel in graph.neighbors(origin).items()
            }
            self._adjacency_version = graph.version

    def propagate(
        self,
        prefix: str,
        announce_to: Iterable[int],
        prepend: Optional[Dict[int, int]] = None,
    ) -> Dict[int, Route]:
        """Announce ``prefix`` to the neighbor ASNs in ``announce_to``.

        Returns each AS's best route (ASes with no route are absent), in
        the order the ASes first learned a route.  The origin itself is not
        included.  Raises if any target is not actually a neighbor of the
        origin.  ``prepend`` optionally maps a neighbor ASN to an AS-path
        prepend count applied on that session, making routes through it
        less attractive downstream (an advertisement attribute prior work
        uses to expose even more paths).
        """
        self._compile()
        targets = list(dict.fromkeys(announce_to))
        origin = self._origin
        origin_links = self._origin_links
        for asn in targets:
            if asn not in origin_links:
                raise ValueError(f"AS{asn} is not a neighbor of origin AS{origin}")
        prepend = prepend or {}
        adjacency = self._adjacency
        tie = self._tie
        customer = Relationship.CUSTOMER

        # AS -> (decision key, relationship, prepend) of its best route; the
        # key is (-local pref, path length, tie-break, AS path), the minimum
        # winning, exactly as :func:`~repro.bgp.route.decision_key` builds it.
        best: Dict[int, Tuple[tuple, Relationship, int]] = {}
        work: deque = deque()

        for asn in targets:
            rel = origin_links[asn]
            count = prepend.get(asn, 0)
            key = (-LOCAL_PREFERENCE[rel], 1 + count, tie(asn, origin), (origin,))
            best[asn] = (key, rel, count)
            work.append(asn)

        while work:
            asn = work.popleft()
            key, rel, count = best[asn]
            path = key[3]
            length = key[1] + 1
            extended = None
            everyone, customers = adjacency[asn]
            for neighbor, neighbor_rel, pref in everyone if rel is customer else customers:
                if neighbor in path:
                    continue
                current = best.get(neighbor)
                if current is not None:
                    held = current[0]
                    # Decide on local pref and length alone where they
                    # differ; the tie-break is drawn only when they match.
                    if pref > held[0] or (pref == held[0] and length > held[1]):
                        continue
                if extended is None:
                    extended = (asn,) + path
                candidate = (pref, length, tie(neighbor, asn), extended)
                if current is None or candidate < current[0]:
                    best[neighbor] = (candidate, neighbor_rel, count)
                    work.append(neighbor)
        return {
            asn: Route(prefix=prefix, as_path=key[3], relationship=rel, prepend=count)
            for asn, (key, rel, count) in best.items()
        }

    # -- queries over a propagation result ---------------------------------
