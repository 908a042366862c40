"""Hot-potato coexistence: link-weight epochs vs ingress steering stability.

Intra-domain link weights are not static: operators retune them, and each
retune moves hot-potato egress costs (Balon & Leduc, arXiv:0803.2824).  Two
ingress-TE mechanisms react very differently:

* **PAINTER** advertises plain prefixes.  No IGP signal leaves the cloud,
  so its ingress catchments are invariant across epochs — zero oscillation
  by construction (the controller tracks the epoch but deliberately does
  not re-solve; see ``PainterController._apply_delta``).
* **Communities steering** pins ingresses with MED, and MED mirrors the
  cloud's IGP cost to each exit PoP.  When an epoch shifts the weights,
  the advertised MEDs shift with them and neighbors' best sessions can
  flip — ingress oscillation and benefit erosion.

The epoch schedule is driven through the controller's delta vocabulary
(:func:`repro.controller.deltas.link_weight_deltas`), so the scenario
exercises the same stream machinery as every other world change.  With a
single (frozen) epoch the stream is empty, oscillation counts are exactly
zero, and the PAINTER end-to-end benefit is bit-identical to
:func:`repro.egress.coexistence.evaluate_coexistence` — the regression
tests pin both.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.benefit import best_prefix_choices, tm_choice
from repro.egress.coexistence import (
    DirectionalModel,
    EgressOptimizer,
    LinkWeightEpochs,
    evaluate_coexistence,
)
from repro.experiments.harness import ExperimentResult
from repro.scenario import Scenario, prototype_scenario
from repro.steering.communities import (
    CommunityAnnouncement,
    CommunityRouting,
    communities_choices,
    solve_communities,
)


def _epoch_trajectory(n_epochs: int, interval_s: float) -> List[int]:
    """Epoch sequence derived from the controller delta stream.

    Epoch 0 is the initial state; each :class:`LinkWeightShift` bucket
    advances the epoch.  A frozen schedule (one epoch) yields ``[0]``.
    """
    # Imported here: repro.controller pulls in repro.io, which imports the
    # experiments package — a top-level import would close that cycle.
    from repro.controller.deltas import LinkWeightShift, group_deltas, link_weight_deltas

    trajectory = [0]
    for _, bucket in group_deltas(link_weight_deltas(n_epochs, interval_s=interval_s)):
        for delta in bucket:
            assert isinstance(delta, LinkWeightShift)
            trajectory.append(delta.epoch)
    return trajectory


def _communities_ingress_ids(
    scenario: Scenario,
    router: CommunityRouting,
    announcements: Sequence[CommunityAnnouncement],
    choices: Dict[int, int],
    epoch: int,
) -> Dict[int, Optional[int]]:
    """Each UG's realized ingress under its pinned announcement at ``epoch``."""
    out: Dict[int, Optional[int]] = {}
    for ug in scenario.user_groups:
        index = choices.get(ug.ug_id)
        if index is None:
            out[ug.ug_id] = None
            continue
        ingress = router.ingress_for(ug, announcements[index], epoch=epoch)
        out[ug.ug_id] = None if ingress is None else ingress.peering_id
    return out


def _count_flips(
    previous: Dict[int, Optional[int]], current: Dict[int, Optional[int]]
) -> int:
    return sum(1 for ug_id, pid in current.items() if previous[ug_id] != pid)


def _communities_combined_gain(
    scenario: Scenario,
    model: DirectionalModel,
    optimizer: EgressOptimizer,
    ingress_ids: Dict[int, Optional[int]],
    epoch: int,
) -> float:
    """End-to-end (both-systems-on) gain with communities-steered ingress.

    Mirrors :func:`evaluate_coexistence`'s accumulation (same UG order,
    same per-term arithmetic) with each UG's pinned announcement's ingress
    (``ingress_ids``, ``None`` = none) as its one :func:`tm_choice` column;
    the anycast fallback still floors the ingress leg, since per-flow
    selection keeps anycast as a destination.
    """
    ugs = scenario.user_groups
    defaults = [model.split(ug, scenario.routing.anycast_ingress(ug)).ingress_ms for ug in ugs]
    legs = [
        math.inf
        if ingress_ids[ug.ug_id] is None
        else model.split(ug, scenario.deployment.peering(ingress_ids[ug.ug_id])).ingress_ms
        for ug in ugs
    ]
    choice, _ = tm_choice(defaults, np.array(legs)[:, None])
    neither = both = 0.0
    for ug, default_in, leg, j in zip(ugs, defaults, legs, choice.tolist()):
        default_out = optimizer.default_egress_ms(ug, epoch=epoch)
        best_in = default_in if j < 0 else leg
        best_out = optimizer.best_egress_ms(ug, epoch=epoch)
        neither += ug.volume * (default_in + default_out)
        both += ug.volume * (best_in + best_out)
    return neither - both


def run_hot_potato(
    scenario: Optional[Scenario] = None,
    budget: int = 8,
    n_epochs: int = 4,
    amplitude: float = 0.3,
    seed: int = 0,
    interval_s: float = 60.0,
) -> ExperimentResult:
    """Oscillation and benefit erosion across link-weight epochs.

    One row per (mode, epoch): ``oscillations`` counts UGs whose realized
    ingress flipped relative to the previous epoch, ``combined_gain`` is
    the end-to-end (ingress+egress) gain over the no-TE baseline at that
    epoch, and ``erosion_frac`` its loss relative to epoch 0.
    """
    scenario = scenario or prototype_scenario(seed=0, n_ugs=400)
    epochs = LinkWeightEpochs(n_epochs=n_epochs, seed=seed, amplitude=amplitude)
    model = DirectionalModel(scenario, epochs=epochs)
    optimizer = EgressOptimizer(scenario, model)

    from repro.experiments.fig6 import painter_budget_configs

    painter_config = painter_budget_configs(scenario, [budget])[budget]
    painter_choices = best_prefix_choices(scenario, painter_config)
    solution = solve_communities(scenario, budget, epochs=epochs)
    router = CommunityRouting(scenario, epochs=epochs)
    # Announcement assignments are pinned at epoch 0 (solve time); later
    # epochs re-route the *network*, not the assignment — that gap is the
    # erosion being measured.
    choices = communities_choices(
        scenario, solution.announcements, epoch=0, epochs=epochs
    )

    result = ExperimentResult(
        experiment_id="hotpotato",
        title="Hot-potato link-weight epochs: ingress oscillation and benefit erosion",
        columns=["mode", "epoch", "oscillations", "combined_gain", "erosion_frac"],
    )

    trajectory = _epoch_trajectory(n_epochs, interval_s)
    painter_base: Optional[float] = None
    communities_base: Optional[float] = None
    painter_prev: Optional[Dict[int, Optional[int]]] = None
    communities_prev: Optional[Dict[int, Optional[int]]] = None
    painter_flips_total = 0
    communities_flips_total = 0

    for epoch in trajectory:
        # PAINTER's realized ingress: its best prefix's, None on anycast.
        painter_now: Dict[int, Optional[int]] = {}
        for ug in scenario.user_groups:
            prefix = painter_choices.get(ug.ug_id)
            painter_now[ug.ug_id] = None if prefix is None else scenario.routing.ingress_for(
                ug, painter_config.peerings_for(prefix)
            ).peering_id
        painter_gain = evaluate_coexistence(
            scenario, painter_config, model=model, epoch=epoch
        ).combined_gain
        if painter_base is None:
            painter_base = painter_gain
        painter_flips = 0 if painter_prev is None else _count_flips(painter_prev, painter_now)
        painter_flips_total += painter_flips
        result.add_row(
            "painter",
            epoch,
            painter_flips,
            painter_gain,
            0.0 if painter_base <= 0 else (painter_base - painter_gain) / painter_base,
        )
        painter_prev = painter_now

        communities_now = _communities_ingress_ids(
            scenario, router, solution.announcements, choices, epoch
        )
        communities_gain = _communities_combined_gain(
            scenario, model, optimizer, communities_now, epoch
        )
        if communities_base is None:
            communities_base = communities_gain
        communities_flips = (
            0 if communities_prev is None else _count_flips(communities_prev, communities_now)
        )
        communities_flips_total += communities_flips
        result.add_row(
            "communities",
            epoch,
            communities_flips,
            communities_gain,
            0.0
            if communities_base <= 0
            else (communities_base - communities_gain) / communities_base,
        )
        communities_prev = communities_now

    result.add_note(
        f"epoch schedule: {n_epochs} epoch(s), amplitude {amplitude:g}, seed {seed}, "
        f"driven by {max(0, n_epochs - 1)} LinkWeightShift delta(s)"
    )
    result.add_note(
        f"total ingress flips — painter: {painter_flips_total}, "
        f"communities: {communities_flips_total}"
    )
    result.add_note(f"prefix/announcement budget: {budget}")
    return result


def hotpotato_summary(result: ExperimentResult) -> str:
    """Digest of the hot-potato coexistence table: stability contrast.

    The story is the asymmetry — plain-prefix ingress TE is invariant to
    intra-cloud link-weight epochs while MED-pinned community steering
    oscillates — so the digest leads with total flips per mode and the
    worst benefit erosion observed.
    """
    flips: Dict[str, int] = {}
    worst_erosion: Dict[str, float] = {}
    for row in result.rows:
        mode = str(row[0])
        flips[mode] = flips.get(mode, 0) + int(row[2])
        worst_erosion[mode] = max(worst_erosion.get(mode, 0.0), float(row[4]))
    lines = ["## Hot-potato coexistence digest", ""]
    if flips:
        parts = [
            f"{mode}: {flips[mode]} ingress flip(s), worst erosion "
            f"{100 * worst_erosion[mode]:.1f}%"
            for mode in sorted(flips)
        ]
        lines.append(
            "Across the link-weight epoch schedule — " + "; ".join(parts) + "."
        )
        lines.append("")
        if flips.get("painter", 0) == 0 and flips.get("communities", 0) > 0:
            lines.append(
                "PAINTER's prefix-only advertisements carry no IGP signal, so "
                "its catchments hold while MED-steered ingresses chase the "
                "shifting egress costs."
            )
            lines.append("")
    for note in result.notes:
        lines.append("")
        lines.append(f"> {note}")
    lines.append("")
    return "\n".join(lines)
