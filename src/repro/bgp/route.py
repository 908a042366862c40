"""BGP route objects and the per-AS decision process.

The decision process implements the standard steps that matter at AS level:
highest local preference (Gao-Rexford, by neighbor relationship), shortest AS
path, then a deterministic per-AS tie-break.  The tie-break is seeded
randomness standing in for IGP distances and operator knobs — precisely the
hidden state PAINTER's routing model must learn (§3.1: "since it is difficult
to predict ingresses ... we learn from incorrect assumptions over time").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.topology.asn import LOCAL_PREFERENCE, Relationship


@dataclass(frozen=True)
class Route:
    """A BGP route to ``prefix`` as held by some AS.

    ``as_path`` starts at the AS holding the route's neighbor and ends at the
    origin (the cloud).  ``learned_from`` is the neighbor ASN the route was
    received from (the first element of ``as_path``); ``relationship`` is that
    neighbor's relationship from the holder's perspective.  ``prepend``
    counts artificial repetitions of the origin ASN (AS-path prepending, an
    advertisement attribute the origin may use to deter a path); it lengthens
    the path for the decision process without polluting ``as_path``.
    """

    prefix: str
    as_path: Tuple[int, ...]
    relationship: Relationship
    prepend: int = 0

    def __post_init__(self) -> None:
        if not self.as_path:
            raise ValueError("as_path must be non-empty")
        if len(set(self.as_path)) != len(self.as_path):
            raise ValueError(f"as_path contains a loop: {self.as_path}")
        if self.prepend < 0:
            raise ValueError("prepend must be non-negative")

    @property
    def learned_from(self) -> int:
        return self.as_path[0]

    @property
    def origin_asn(self) -> int:
        return self.as_path[-1]

    @property
    def local_preference(self) -> int:
        return LOCAL_PREFERENCE[self.relationship]

    @property
    def path_length(self) -> int:
        return len(self.as_path) + self.prepend

    def contains_asn(self, asn: int) -> bool:
        return asn in self.as_path

    def extend_through(self, asn: int, relationship: Relationship) -> "Route":
        """The route as seen by a neighbor that learns it from ``asn``.

        ``relationship`` is *the neighbor's* relationship to ``asn``.
        """
        if asn in self.as_path:
            raise ValueError(f"loop: AS{asn} already on path {self.as_path}")
        return Route(
            prefix=self.prefix,
            as_path=(asn,) + self.as_path,
            relationship=relationship,
            prepend=self.prepend,
        )


def decision_key(route: Route, tie_break: float) -> Tuple[int, int, float, Tuple[int, ...]]:
    """Sort key for the BGP decision process; the *minimum* key wins.

    Order: higher local-pref first, then shorter AS path, then the hidden
    per-(AS, neighbor) tie-break, then the path itself for determinism.
    """
    return (-route.local_preference, route.path_length, tie_break, route.as_path)


def better_route(
    a: Route,
    a_tie: float,
    b: Optional[Route],
    b_tie: float,
) -> bool:
    """Whether ``a`` beats ``b`` under the decision process (b may be None)."""
    if b is None:
        return True
    return decision_key(a, a_tie) < decision_key(b, b_tie)


def may_export(relationship_to_source: Relationship, relationship_to_target: Relationship) -> bool:
    """Gao-Rexford export rule.

    A route learned from a customer is exported to everyone; a route learned
    from a peer or provider is exported only to customers.
    """
    if relationship_to_source is Relationship.CUSTOMER:
        return True
    return relationship_to_target is Relationship.CUSTOMER
