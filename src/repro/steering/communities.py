"""Action-community inbound TE: a comparator to PAINTER's prefix steering.

Real operators do fine-grained ingress TE without extra prefixes by tagging
announcements with *action communities* (Shao et al., arXiv:1511.08336):
the cloud attaches a tag on a session and upstream configuration translates
it into AS-path prepending, selective announcement / no-export toward named
peers, or a MED value on the session.  This module models that vocabulary
on top of :mod:`repro.bgp`:

* actions compile to community strings (:func:`parse_community` inverts
  them) and to their *effects* — a per-peer prepend map, an allowed-peer
  set, and per-peering MED offsets — which :class:`CommunityRouting` pushes
  through the same AS-level propagation and exit-policy oracle PAINTER's
  ground truth uses;
* :meth:`CommunityRouting.latencies` is the realized catchment of a set of
  announcements, with :meth:`GroundTruthRouting.latencies`'s contract (a
  plain prefix is the announcement with no actions), so the Traffic
  Manager's choice over it is :func:`repro.core.benefit.tm_choice` and its
  Eq.-1 benefit :func:`repro.core.benefit.catchment_benefit`, exactly as
  for PAINTER's prefixes (:func:`communities_choices`,
  :func:`communities_benefit`);
* :func:`solve_communities` searches, per UG, a small ladder of candidate
  announcements that steer its ingress toward its best peering
  (:meth:`repro.scenario.Scenario.best_ingress`), then groups UGs by
  announcement under a prefix budget — the communities analog of
  Algorithm 1's per-prefix greedy;
* MED values mirror the cloud's *intra-domain IGP cost* to each exit PoP
  (plus the TE offset), so when link-weight epochs shift
  (:class:`repro.egress.coexistence.LinkWeightEpochs`) the MED ordering —
  and with it the steered ingress — can flip.  PAINTER's plain prefix
  advertisements carry no IGP signal and hold their ingress; that contrast
  is the hot-potato coexistence scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.benefit import catchment_benefit, tm_choice
from repro.egress.coexistence import CoexistenceError, LinkWeightEpochs
from repro.routing.ground_truth import catchment
from repro.scenario import Scenario
from repro.topology.cloud import Peering
from repro.usergroups.usergroup import UserGroup

#: Namespace of every community string this model emits.
COMMUNITY_NAMESPACE = "cloud"

#: Baseline MED when no link-weight schedule is in play (== the epoch-0
#: ``igp_med`` of every PoP, so static and frozen-epoch runs agree).
BASELINE_MED = 1000

#: MED offset that pins a peering as the cheapest session of its neighbor.
#: It is a *nudge* on the IGP-mirrored MED, not an absolute override:
#: decisive under the baseline link weights (every PoP's epoch-0 MED is
#: :data:`BASELINE_MED`, so the pinned session wins by exactly this margin)
#: but within reach of a large link-weight swing — the hot-potato exposure
#: the coexistence scenario measures.  An amplitude above ``MED_PIN/1000``
#: can flip a pinned ingress; PAINTER's untagged prefixes cannot flip.
MED_PIN = -200


@dataclass(frozen=True)
class PrependAction:
    """Prepend the origin ASN ``count`` times on sessions toward ``peer_asn``."""

    peer_asn: int
    count: int

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("prepend count must be non-negative")

    def community(self) -> str:
        return f"{COMMUNITY_NAMESPACE}:prepend:{self.peer_asn}:{self.count}"


@dataclass(frozen=True)
class AnnounceToAction:
    """Announce the prefix *only* on sessions toward ``peer_asn``.

    Multiple announce actions union; none means announce everywhere.
    """

    peer_asn: int

    def community(self) -> str:
        return f"{COMMUNITY_NAMESPACE}:announce:{self.peer_asn}"


@dataclass(frozen=True)
class NoExportAction:
    """Suppress the announcement on sessions toward ``peer_asn``."""

    peer_asn: int

    def community(self) -> str:
        return f"{COMMUNITY_NAMESPACE}:no-export:{self.peer_asn}"


@dataclass(frozen=True)
class MedAction:
    """Add ``offset`` to the MED sent on the session of ``peering_id``.

    The effective MED a neighbor compares is the cloud's IGP cost toward the
    session's PoP plus this offset; lower wins.
    """

    peering_id: int
    offset: int

    def community(self) -> str:
        return f"{COMMUNITY_NAMESPACE}:med:{self.peering_id}:{self.offset}"


Action = Union[PrependAction, AnnounceToAction, NoExportAction, MedAction]


def parse_community(text: str) -> Action:
    """Inverse of ``action.community()``; raises ``ValueError`` on junk."""
    parts = text.split(":")
    if len(parts) < 3 or parts[0] != COMMUNITY_NAMESPACE:
        raise ValueError(f"not an action community: {text!r}")
    kind = parts[1]
    try:
        if kind == "prepend" and len(parts) == 4:
            return PrependAction(peer_asn=int(parts[2]), count=int(parts[3]))
        if kind == "announce" and len(parts) == 3:
            return AnnounceToAction(peer_asn=int(parts[2]))
        if kind == "no-export" and len(parts) == 3:
            return NoExportAction(peer_asn=int(parts[2]))
        if kind == "med" and len(parts) == 4:
            return MedAction(peering_id=int(parts[2]), offset=int(parts[3]))
    except ValueError as exc:
        raise ValueError(f"malformed action community: {text!r}") from exc
    raise ValueError(f"unknown action community: {text!r}")


@dataclass(frozen=True)
class CommunityAnnouncement:
    """One prefix's compiled action assignment (hashable, order-free).

    ``announce`` is the allowed peer-ASN set (``None`` = everyone);
    ``no_export`` subtracts from it; ``prepend`` and ``med`` are sorted
    (key, value) tuples so equal assignments hash equal.
    """

    announce: Optional[FrozenSet[int]] = None
    no_export: FrozenSet[int] = frozenset()
    prepend: Tuple[Tuple[int, int], ...] = ()
    med: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if tuple(sorted(dict(self.prepend).items())) != self.prepend:
            raise ValueError("prepend must be sorted unique (asn, count) pairs")
        if tuple(sorted(dict(self.med).items())) != self.med:
            raise ValueError("med must be sorted unique (peering_id, offset) pairs")
        if any(count < 0 for _, count in self.prepend):
            raise ValueError("prepend counts must be non-negative")

    def actions(self) -> Tuple[Action, ...]:
        out: List[Action] = []
        if self.announce is not None:
            out.extend(AnnounceToAction(asn) for asn in sorted(self.announce))
        out.extend(NoExportAction(asn) for asn in sorted(self.no_export))
        out.extend(PrependAction(asn, count) for asn, count in self.prepend)
        out.extend(MedAction(pid, offset) for pid, offset in self.med)
        return tuple(out)

    def communities(self) -> Tuple[str, ...]:
        return tuple(action.community() for action in self.actions())

    def effective_peers(self, all_peer_asns: FrozenSet[int]) -> FrozenSet[int]:
        allowed = all_peer_asns if self.announce is None else (all_peer_asns & self.announce)
        return allowed - self.no_export

    def prepend_map(self) -> Dict[int, int]:
        return {asn: count for asn, count in self.prepend if count > 0}

    def med_map(self) -> Dict[int, int]:
        return dict(self.med)


#: The do-nothing assignment: identical to the anycast announcement.
NOOP = CommunityAnnouncement()


class CommunityRouting:
    """Where a UG's traffic enters under a community-tagged announcement.

    Reuses the ground-truth oracle's propagation caches and hidden exit
    state: a no-op announcement therefore takes the *identical* code and
    cache path as the plain anycast announcement — the bit-identity the
    differential tests pin.  MED ordering applies only when at least one
    candidate session of the entering AS carries an explicit MED offset;
    otherwise the entering AS keeps its (hot/cold-potato) exit policy.
    """

    def __init__(
        self, scenario: Scenario, epochs: Optional[LinkWeightEpochs] = None
    ) -> None:
        self._scenario = scenario
        self._routing = scenario.routing
        self._epochs = epochs
        deployment = scenario.deployment
        self._by_asn: Dict[int, List[Peering]] = {}
        for peering in deployment.peerings:
            self._by_asn.setdefault(peering.peer_asn, []).append(peering)
        self._all_asns = frozenset(self._by_asn)

    @property
    def epochs(self) -> Optional[LinkWeightEpochs]:
        return self._epochs

    @property
    def peer_asns(self) -> FrozenSet[int]:
        return self._all_asns

    def effective_med(self, peering: Peering, offset: int, epoch: int = 0) -> int:
        """IGP-mirrored MED on a session: epoch cost at its PoP + TE offset."""
        if self._epochs is None:
            base = BASELINE_MED
            if epoch != 0:
                raise CoexistenceError(
                    "epoch != 0 requires a LinkWeightEpochs schedule"
                )
        else:
            base = self._epochs.igp_med(epoch, peering.pop.name)
        return base + offset

    def ingress_for(
        self, ug: UserGroup, announcement: CommunityAnnouncement, epoch: int = 0
    ) -> Optional[Peering]:
        allowed = announcement.effective_peers(self._all_asns)
        if not allowed:
            return None
        entering = self._routing.entering_asn_for(
            ug, allowed, prepend=announcement.prepend_map()
        )
        if entering is None:
            return None
        candidates = self._by_asn[entering]
        meds = announcement.med_map()
        if meds and any(p.peering_id in meds for p in candidates):
            return min(
                candidates,
                key=lambda p: (
                    self.effective_med(p, meds.get(p.peering_id, 0), epoch=epoch),
                    p.peering_id,
                ),
            )
        return self._routing.choose_exit(ug, entering, candidates)

    def latency_for(
        self,
        ug: UserGroup,
        announcement: CommunityAnnouncement,
        day: int = 0,
        epoch: int = 0,
    ) -> Optional[float]:
        ingress = self.ingress_for(ug, announcement, epoch=epoch)
        if ingress is None:
            return None
        return self._scenario.latency_model.latency_ms(ug, ingress, day=day)

    def latencies(
        self,
        ugs: Sequence[UserGroup],
        announcements: Sequence[CommunityAnnouncement],
        day: int = 0,
        epoch: int = 0,
    ) -> np.ndarray:
        """Realized latency of each UG (rows) under each announcement
        (columns), ``np.inf`` where there is no route or the announcement
        allows no peer: :meth:`GroundTruthRouting.latencies`'s catchment,
        one :meth:`latency_for` per cell."""
        return catchment(
            ugs,
            announcements,
            lambda ug, announcement: self.latency_for(ug, announcement, day=day, epoch=epoch),
        )


@dataclass(frozen=True)
class CommunitiesSolution:
    """Ranked announcement groups from one max-budget solve.

    ``announcements[:k]`` is the budget-``k`` assignment (nested by
    construction, like PAINTER's prefix subsets), and ``target_volume``
    records each group's volume-weighted improvement score at solve time.
    """

    announcements: Tuple[CommunityAnnouncement, ...]
    target_volume: Tuple[float, ...] = field(default=())

    def at_budget(self, budget: int) -> Tuple[CommunityAnnouncement, ...]:
        if budget < 1:
            raise ValueError("budget must be >= 1")
        return self.announcements[:budget]


def _candidate_ladder(target: Peering) -> Tuple[CommunityAnnouncement, ...]:
    """Announcements that try to steer a UG toward ``target``, strongest last.

    The ladder spans the action vocabulary: MED-pin only (keeps the AS-level
    route), selective-announce (forces the entering AS), both combined, and
    a softer prepend-based deterrent that preserves reachability elsewhere.
    """
    med_pin = ((target.peering_id, MED_PIN),)
    return (
        CommunityAnnouncement(med=med_pin),
        CommunityAnnouncement(announce=frozenset({target.peer_asn})),
        CommunityAnnouncement(announce=frozenset({target.peer_asn}), med=med_pin),
    )


def _prepend_ladder(
    target: Peering, other_asns: Sequence[int], counts: Tuple[int, ...] = (3, 6)
) -> Tuple[CommunityAnnouncement, ...]:
    """Prepend-based variants: deter every other peer AS, MED-pin the target."""
    med_pin = ((target.peering_id, MED_PIN),)
    return tuple(
        CommunityAnnouncement(
            prepend=tuple(sorted((asn, count) for asn in other_asns)),
            med=med_pin,
        )
        for count in counts
    )


def solve_communities(
    scenario: Scenario,
    budget: int,
    epochs: Optional[LinkWeightEpochs] = None,
    max_prepend_fanout: int = 12,
) -> CommunitiesSolution:
    """Search per-UG action assignments, then group under the prefix budget.

    For each UG: find its best policy-compliant peering, evaluate the
    candidate-announcement ladder through :class:`CommunityRouting`, keep
    the announcement :func:`tm_choice` picks over anycast.  UGs wanting the
    same announcement share a prefix; groups are ranked by volume-weighted
    improvement and the top ``budget`` kept.  The ranking is computed once
    at max budget, so every smaller budget is a prefix of the same ranking
    (one solve yields the whole curve).
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    router = CommunityRouting(scenario, epochs=epochs)
    scores: Dict[CommunityAnnouncement, float] = {}
    for ug in scenario.user_groups:
        target = scenario.best_ingress(ug)
        if target is None:
            continue
        candidates = list(_candidate_ladder(target))
        other_asns = [
            asn for asn in sorted(router.peer_asns) if asn != target.peer_asn
        ]
        if 0 < len(other_asns) <= max_prepend_fanout:
            candidates.extend(_prepend_ladder(target, other_asns))
        choice, improvement = tm_choice(
            [scenario.anycast_latency_ms(ug)], router.latencies([ug], candidates)
        )
        if choice.item(0) >= 0:
            chosen = candidates[choice.item(0)]
            scores[chosen] = scores.get(chosen, 0.0) + ug.volume * improvement.item(0)
    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0].communities()))
    kept = ranked[:budget]
    return CommunitiesSolution(
        announcements=tuple(ann for ann, _ in kept),
        target_volume=tuple(score for _, score in kept),
    )


def communities_choices(
    scenario: Scenario,
    announcements: Sequence[CommunityAnnouncement],
    day: int = 0,
    epoch: int = 0,
    epochs: Optional[LinkWeightEpochs] = None,
) -> Dict[int, int]:
    """Each UG's announcement index by :func:`tm_choice`; a UG that stays
    on anycast is absent."""
    ugs = scenario.user_groups
    matrix = CommunityRouting(scenario, epochs=epochs).latencies(
        ugs, announcements, day=day, epoch=epoch
    )
    choice, _ = tm_choice([scenario.anycast_latency_ms(ug, day=day) for ug in ugs], matrix)
    return {ug.ug_id: j for ug, j in zip(ugs, choice.tolist()) if j >= 0}


def communities_benefit(
    scenario: Scenario,
    announcements: Sequence[CommunityAnnouncement],
    day: int = 0,
    epoch: int = 0,
    epochs: Optional[LinkWeightEpochs] = None,
    choices: Optional[Mapping[int, int]] = None,
) -> float:
    """Eq. 1 with ground-truth improvements under community steering:
    :func:`repro.core.benefit.realized_benefit` over the announcements'
    catchment, with ``choices`` (UG id -> announcement index) in the role
    of its ``prefix_choice``."""
    matrix = CommunityRouting(scenario, epochs=epochs).latencies(
        scenario.user_groups, announcements, day=day, epoch=epoch
    )
    return catchment_benefit(scenario, matrix, day=day, pinned=choices)


def communities_budget_configs(
    scenario: Scenario,
    budgets: Sequence[int],
    epochs: Optional[LinkWeightEpochs] = None,
) -> Dict[int, Tuple[CommunityAnnouncement, ...]]:
    """Nested announcement sets per budget from one max-budget solve."""
    solution = solve_communities(scenario, max(budgets), epochs=epochs)
    return {budget: solution.at_budget(budget) for budget in budgets}
