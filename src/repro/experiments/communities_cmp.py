"""Communities-vs-PAINTER comparator: coverage and benefit at equal budgets.

Action communities (prepend / selective announce / MED, Shao et al.,
arXiv:1511.08336) are the classic operator answer to ingress steering; the
question this table answers is how far they get relative to PAINTER's
selective prefix advertisements when both spend the *same* announcement
budget, against the anycast floor and the one-prefix-per-peering
("unicast every ingress") ceiling.

Two metrics per (strategy, budget):

* ``benefit_frac`` — Eq. 1 realized benefit as a fraction of the total
  possible (ground-truth routing, anycast fallback);
* ``coverage_frac`` — the volume fraction of UGs whose realized ingress
  under the strategy (the Traffic Manager's choice, anycast when it keeps
  anycast) is their true best policy-compliant peering.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.core.advertisement import AdvertisementConfig
from repro.core.baselines import one_per_peering
from repro.core.benefit import best_prefix_choices, realized_benefit
from repro.experiments.harness import ExperimentResult, budget_grid
from repro.scenario import Scenario, prototype_scenario
from repro.steering.communities import (
    CommunityRouting,
    communities_benefit,
    communities_budget_configs,
    communities_choices,
)
from repro.topology.cloud import Peering
from repro.usergroups.usergroup import UserGroup


def _coverage(
    scenario: Scenario,
    targets: Sequence[Optional[Peering]],
    choices: Mapping[int, int],
    ingress_of: Callable[[UserGroup, int], Optional[Peering]],
) -> float:
    """Volume fraction whose realized ingress is their best peering.

    ``targets`` holds each UG's :meth:`Scenario.best_ingress`.  A UG with a
    Traffic-Manager choice (``choices``: UG id -> prefix or announcement
    index) lands on ``ingress_of(ug, choice)``, any other UG on its anycast
    ingress.
    """
    covered = 0.0
    total = 0.0
    for ug, target in zip(scenario.user_groups, targets):
        total += ug.volume
        choice = choices.get(ug.ug_id)
        if choice is None:
            ingress = scenario.routing.anycast_ingress(ug)
        else:
            ingress = ingress_of(ug, choice)
        if target is not None and ingress is not None and ingress.peering_id == target.peering_id:
            covered += ug.volume
    return 0.0 if total == 0 else covered / total


def run_communities(
    scenario: Optional[Scenario] = None,
    max_budget: int = 12,
    budgets: Optional[Sequence[int]] = None,
) -> ExperimentResult:
    """Coverage-of-best-ingress and benefit curves at matched budgets."""
    scenario = scenario or prototype_scenario(seed=0, n_ugs=300)
    budgets = list(budgets) if budgets is not None else budget_grid(max_budget)
    total_possible = scenario.total_possible_benefit()
    targets = [scenario.best_ingress(ug) for ug in scenario.user_groups]

    def config_coverage(config: AdvertisementConfig) -> float:
        return _coverage(
            scenario,
            targets,
            best_prefix_choices(scenario, config),
            lambda ug, prefix: scenario.routing.ingress_for(ug, config.peerings_for(prefix)),
        )

    result = ExperimentResult(
        experiment_id="communities",
        title="Community steering vs PAINTER: benefit and best-ingress coverage",
        columns=["strategy", "budget_prefixes", "benefit_frac", "coverage_frac"],
    )

    result.add_row("anycast", 0, 0.0, config_coverage(AdvertisementConfig()))

    unicast = one_per_peering(scenario, len(scenario.deployment))
    result.add_row(
        "unicast",
        unicast.prefix_count,
        realized_benefit(scenario, unicast) / total_possible,
        config_coverage(unicast),
    )

    from repro.experiments.fig6 import painter_budget_configs

    painter_configs = painter_budget_configs(scenario, budgets)
    for budget in budgets:
        config = painter_configs[budget]
        result.add_row(
            "painter",
            budget,
            realized_benefit(scenario, config) / total_possible,
            config_coverage(config),
        )

    by_budget: Dict[int, tuple] = communities_budget_configs(scenario, budgets)
    router = CommunityRouting(scenario)
    for budget in budgets:
        announcements = by_budget[budget]
        coverage = _coverage(
            scenario,
            targets,
            communities_choices(scenario, announcements),
            lambda ug, index: router.ingress_for(ug, announcements[index]),
        )
        result.add_row(
            "communities",
            len(announcements),
            communities_benefit(scenario, announcements) / total_possible,
            coverage,
        )

    result.add_note(f"total possible benefit (weighted ms): {total_possible:.2f}")
    result.add_note(
        "coverage_frac = volume fraction whose realized ingress equals their "
        "best policy-compliant peering; anycast row is the no-TE floor, "
        "unicast row advertises one prefix per peering"
    )
    return result


def communities_summary(result: ExperimentResult) -> str:
    """Digest of the communities-vs-PAINTER comparator table.

    Surfaces the benefit/coverage gap at the largest shared budget so the
    headline — how community steering stacks up against selective prefix
    advertisements for the same announcement spend — is readable without
    scanning the curves.
    """
    by_strategy: Dict[str, List[tuple]] = {}
    for row in result.rows:
        by_strategy.setdefault(str(row[0]), []).append(tuple(row))
    lines = ["## Communities-vs-PAINTER digest", ""]
    painter = by_strategy.get("painter", [])
    communities = by_strategy.get("communities", [])
    if painter and communities:
        p = max(painter, key=lambda row: int(row[1]))
        c = max(communities, key=lambda row: int(row[1]))
        lines.append(
            f"At the largest shared budget (painter {p[1]} prefixes, "
            f"communities {c[1]} announcement groups) PAINTER realizes "
            f"{100 * float(p[2]):.1f}% of the possible benefit vs "
            f"{100 * float(c[2]):.1f}% for community steering; "
            f"best-ingress coverage is {100 * float(p[3]):.1f}% vs "
            f"{100 * float(c[3]):.1f}% of volume."
        )
        lines.append("")
    for note in result.notes:
        lines.append("")
        lines.append(f"> {note}")
    lines.append("")
    return "\n".join(lines)
