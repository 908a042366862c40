"""AS-level BGP propagation to a fixed point.

Given an origin AS announcing a prefix to a chosen subset of its neighbors
(PAINTER's selective advertisements), the simulator propagates routes over
the AS graph under Gao-Rexford policy until no AS changes its best route.
The result answers, for every AS, "do you have a route to this prefix, and
through which neighbor sequence does it reach the cloud?" — the ground truth
the Advertisement Orchestrator can only observe one advertisement at a time.
"""

from __future__ import annotations

from repro.util import stable_rng
from collections import deque
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.bgp.route import Route, better_route, may_export
from repro.topology.asn import Relationship
from repro.topology.graph import ASGraph


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

    def propagate(
        self,
        prefix: str,
        announce_to: Iterable[int],
        prepend: Optional[Dict[int, int]] = None,
    ) -> Dict[int, Route]:
        """Announce ``prefix`` to the neighbor ASNs in ``announce_to``.

        Returns each AS's best route (ASes with no route are absent).  The
        origin itself is not included.  Raises if any target is not actually
        a neighbor of the origin.  ``prepend`` optionally maps a neighbor ASN
        to an AS-path prepend count applied on that session, making routes
        through it less attractive downstream (an advertisement attribute
        prior work uses to expose even more paths).
        """
        targets = list(dict.fromkeys(announce_to))
        origin_neighbors = self._graph.neighbors(self._origin)
        for asn in targets:
            if asn not in origin_neighbors:
                raise ValueError(f"AS{asn} is not a neighbor of origin AS{self._origin}")
        prepend = prepend or {}

        best: Dict[int, Route] = {}
        work: deque = deque()

        for asn in targets:
            rel = self._graph.relationship(asn, self._origin)
            assert rel is not None
            route = Route(
                prefix=prefix,
                as_path=(self._origin,),
                relationship=rel,
                prepend=prepend.get(asn, 0),
            )
            if self._install(best, asn, route):
                work.append(asn)

        while work:
            asn = work.popleft()
            route = best.get(asn)
            if route is None:
                continue
            rel_to_source = route.relationship
            for neighbor, rel_of_neighbor in self._graph.neighbors(asn).items():
                if neighbor == self._origin:
                    continue
                if not may_export(rel_to_source, rel_of_neighbor):
                    continue
                if route.contains_asn(neighbor):
                    continue
                neighbor_rel = self._graph.relationship(neighbor, asn)
                assert neighbor_rel is not None
                candidate = route.extend_through(asn, neighbor_rel)
                if self._install(best, neighbor, candidate):
                    work.append(neighbor)
        return best

    def _install(self, best: Dict[int, Route], asn: int, candidate: Route) -> bool:
        current = best.get(asn)
        cand_tie = self._tie(asn, candidate.learned_from)
        cur_tie = self._tie(asn, current.learned_from) if current is not None else 0.0
        if better_route(candidate, cand_tie, current, cur_tie):
            best[asn] = candidate
            return True
        return False

    # -- queries over a propagation result ---------------------------------
