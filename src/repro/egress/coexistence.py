"""Egress-TE coexistence (§6): PAINTER composes with egress steering.

Large clouds already steer *egress* traffic (Edge Fabric, Espresso, CPR —
the paper's [58, 87, 110]); PAINTER "coexists with and acts independently of
these systems, improving end-to-end path latency".  This module makes the
claim checkable: it decomposes the RTT oracle into directional one-way
components, models an egress optimizer choosing the reverse path per UG, and
verifies that running both yields (approximately) additive improvement.

The decomposition keeps the invariant ``ingress_ms + egress_ms == rtt_ms``
*exactly* for the default (same-peering, symmetric-route) case, then lets
the egress optimizer pick a *different* peering for the reverse direction.

:class:`LinkWeightEpochs` extends the model with intra-cloud IGP link-weight
schedules (Balon & Leduc, arXiv:0803.2824): each epoch re-draws per-PoP cost
multipliers, shifting which exit is hot-potato-cheapest mid-run.  Epoch 0 is
always the identity, so single-epoch runs reduce bit-for-bit to the static
model — the frozen-epoch regression the hot-potato scenario is gated on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional

from repro.core.advertisement import AdvertisementConfig
from repro.core.benefit import tm_choice
from repro.routing.ground_truth import catchment
from repro.scenario import Scenario
from repro.topology.cloud import Peering
from repro.usergroups.usergroup import UserGroup
from repro.util import KeyedUniform


class CoexistenceError(RuntimeError):
    """An invariant of the directional model or egress optimizer was violated."""


@dataclass(frozen=True)
class DirectionalLatency:
    """One-way components for a (UG, peering) pair."""

    ingress_ms: float
    egress_ms: float

    @property
    def rtt_ms(self) -> float:
        return self.ingress_ms + self.egress_ms


@dataclass(frozen=True)
class LinkWeightEpochs:
    """Per-epoch intra-cloud link-weight multipliers, one draw per PoP.

    Epoch 0 is the identity (multiplier exactly 1.0 everywhere); later
    epochs re-draw a multiplier in ``[1 - amplitude, 1 + amplitude]`` per
    PoP, standing in for an IGP weight change that makes some exits cheaper
    and others dearer.  ``igp_med`` mirrors the same cost into the MED the
    cloud would send on sessions at that PoP — the channel through which
    IGP shifts leak into neighbors' ingress choices (hot-potato coupling).
    """

    n_epochs: int
    seed: int = 0
    amplitude: float = 0.3
    _multipliers: KeyedUniform = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n_epochs < 1:
            raise ValueError("n_epochs must be >= 1")
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError("amplitude must be in [0, 1)")
        object.__setattr__(self, "_multipliers", KeyedUniform(1.0, self.amplitude))

    def multiplier(self, epoch: int, pop_name: str) -> float:
        if not 0 <= epoch < self.n_epochs:
            raise CoexistenceError(
                f"epoch {epoch} out of range [0, {self.n_epochs})"
            )
        if epoch == 0:
            return 1.0
        return self._multipliers(self.seed, "igp", epoch, pop_name)

    def igp_med(self, epoch: int, pop_name: str) -> int:
        """The MED the cloud advertises at this PoP: scaled epoch IGP cost."""
        return int(round(self.multiplier(epoch, pop_name) * 1000))


class DirectionalModel:
    """Splits the RTT oracle into asymmetric one-way components.

    Real forward/reverse paths differ (different intra-AS routes, different
    congestion); the split ratio is a stable hidden draw per (UG AS, peer
    AS), centered on 50/50.  With ``epochs`` set, ``split(..., epoch=k)``
    scales the egress leg by the epoch's per-PoP multiplier (the reverse
    path crosses the cloud's backbone, the forward leg does not).
    """

    def __init__(
        self,
        scenario: Scenario,
        seed: int = 0,
        asymmetry: float = 0.15,
        epochs: Optional[LinkWeightEpochs] = None,
    ) -> None:
        if not 0.0 <= asymmetry < 0.5:
            raise ValueError("asymmetry must be in [0, 0.5)")
        self._scenario = scenario
        self._seed = seed
        self._asymmetry = asymmetry
        self._epochs = epochs
        self._ratios = KeyedUniform(0.5, asymmetry)

    @property
    def epochs(self) -> Optional[LinkWeightEpochs]:
        return self._epochs

    def split(
        self, ug: UserGroup, peering: Peering, day: int = 0, epoch: int = 0
    ) -> DirectionalLatency:
        rtt = self._scenario.latency_model.latency_ms(ug, peering, day=day)
        ratio = self._ratios(self._seed, "split", ug.asn, peering.peer_asn)
        # egress is derived by subtraction (not an independent rtt*(1-ratio)
        # product, which drifts from rtt by rounding); one compensation step
        # then an explicit check enforce the symmetric-case invariant.
        ingress = rtt * ratio
        egress = rtt - ingress
        if ingress + egress != rtt:
            ingress = rtt - egress
        if ingress + egress != rtt:
            raise CoexistenceError(
                f"directional split drifted from RTT for {ug} via "
                f"peering {peering.peering_id}: {ingress} + {egress} != {rtt}"
            )
        if epoch != 0:
            if self._epochs is None:
                raise CoexistenceError(
                    "split(epoch != 0) requires a LinkWeightEpochs schedule"
                )
            egress = egress * self._epochs.multiplier(epoch, peering.pop.name)
        return DirectionalLatency(ingress_ms=ingress, egress_ms=egress)


class EgressOptimizer:
    """A stand-in for Edge Fabric/Espresso: best egress peering per UG.

    The cloud may send return traffic via any peering whose PoP can reach
    the UG (we approximate the egress-feasible set with the same
    policy-compliant set — destination-based routing works both ways).
    """

    def __init__(self, scenario: Scenario, model: DirectionalModel) -> None:
        self._scenario = scenario
        self._model = model

    def best_egress_ms(self, ug: UserGroup, day: int = 0, epoch: int = 0) -> float:
        candidates = self._scenario.catalog.ingresses(ug)
        if not candidates:
            raise CoexistenceError(f"{ug} has no egress candidates")
        return min(
            self._model.split(ug, peering, day=day, epoch=epoch).egress_ms
            for peering in candidates
        )

    def default_egress_ms(self, ug: UserGroup, day: int = 0, epoch: int = 0) -> float:
        """Without egress TE: reverse traffic follows the anycast peering."""
        ingress = self._scenario.routing.anycast_ingress(ug)
        assert ingress is not None
        return self._model.split(ug, ingress, day=day, epoch=epoch).egress_ms


@dataclass(frozen=True)
class CoexistenceResult:
    """End-to-end latency under the four on/off combinations (weighted ms)."""

    neither: float
    painter_only: float
    egress_only: float
    both: float

    @property
    def painter_gain(self) -> float:
        return self.neither - self.painter_only

    @property
    def egress_gain(self) -> float:
        return self.neither - self.egress_only

    @property
    def combined_gain(self) -> float:
        return self.neither - self.both

    @property
    def additivity(self) -> float:
        """combined / (sum of individual); ~1.0 means independent systems."""
        individual = self.painter_gain + self.egress_gain
        if individual <= 0:
            return 1.0
        return self.combined_gain / individual


def evaluate_coexistence(
    scenario: Scenario,
    config: AdvertisementConfig,
    model: Optional[DirectionalModel] = None,
    epoch: int = 0,
) -> CoexistenceResult:
    """Volume-weighted end-to-end latency for each system combination.

    PAINTER's ingress leg is the one-way ingress of the Traffic Manager's
    pick (:func:`repro.core.benefit.tm_choice`) among anycast and each
    prefix's realized ingress, ranked by one-way ingress milliseconds.
    """
    model = model or DirectionalModel(scenario)
    optimizer = EgressOptimizer(scenario, model)
    routing = scenario.routing
    ugs = scenario.user_groups

    def ingress_ms(ug: UserGroup, advertised: FrozenSet[int]) -> Optional[float]:
        ingress = routing.ingress_for(ug, advertised)
        return None if ingress is None else model.split(ug, ingress).ingress_ms

    sets = [config.peerings_for(prefix) for prefix in config.prefixes]
    legs = catchment(ugs, sets, ingress_ms)
    defaults = [model.split(ug, routing.anycast_ingress(ug)).ingress_ms for ug in ugs]
    choice, _ = tm_choice(defaults, legs)

    neither = painter_only = egress_only = both = 0.0
    for ug, default_in, row, j in zip(ugs, defaults, legs.tolist(), choice.tolist()):
        default_out = optimizer.default_egress_ms(ug, epoch=epoch)
        best_in = default_in if j < 0 else row[j]
        best_out = optimizer.best_egress_ms(ug, epoch=epoch)
        neither += ug.volume * (default_in + default_out)
        painter_only += ug.volume * (best_in + default_out)
        egress_only += ug.volume * (default_in + best_out)
        both += ug.volume * (best_in + best_out)
    return CoexistenceResult(
        neither=neither, painter_only=painter_only, egress_only=egress_only, both=both
    )
