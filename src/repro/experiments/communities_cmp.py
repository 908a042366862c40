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
  under the strategy is their true best policy-compliant peering.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.advertisement import AdvertisementConfig
from repro.core.baselines import one_per_peering
from repro.core.benefit import best_prefix_choices, realized_benefit
from repro.experiments.harness import ExperimentResult, budget_grid
from repro.scenario import Scenario, prototype_scenario
from repro.steering.communities import (
    best_target_peering,
    communities_benefit,
    communities_budget_configs,
    coverage_of_best_ingress,
)


def _config_coverage(scenario: Scenario, config: AdvertisementConfig) -> float:
    """Volume fraction whose realized best-prefix ingress is their best peering."""
    routing = scenario.routing
    choices = best_prefix_choices(scenario, config)
    covered = 0.0
    total = 0.0
    for ug in scenario.user_groups:
        total += ug.volume
        target = best_target_peering(scenario, ug)
        if target is None:
            continue
        prefix = choices.get(ug.ug_id)
        if prefix is None:
            ingress = routing.anycast_ingress(ug)
        else:
            ingress = routing.ingress_for(ug, config.peerings_for(prefix))
        if ingress is not None and ingress.peering_id == target.peering_id:
            covered += ug.volume
    return 0.0 if total == 0 else covered / total


def _anycast_coverage(scenario: Scenario) -> float:
    covered = 0.0
    total = 0.0
    for ug in scenario.user_groups:
        total += ug.volume
        target = best_target_peering(scenario, ug)
        ingress = scenario.routing.anycast_ingress(ug)
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

    result = ExperimentResult(
        experiment_id="communities",
        title="Community steering vs PAINTER: benefit and best-ingress coverage",
        columns=["strategy", "budget_prefixes", "benefit_frac", "coverage_frac"],
    )

    result.add_row("anycast", 0, 0.0, _anycast_coverage(scenario))

    unicast = one_per_peering(scenario, len(scenario.deployment))
    result.add_row(
        "unicast",
        unicast.prefix_count,
        realized_benefit(scenario, unicast) / total_possible,
        _config_coverage(scenario, unicast),
    )

    from repro.experiments.fig6 import painter_budget_configs

    painter_configs = painter_budget_configs(scenario, budgets)
    for budget in budgets:
        config = painter_configs[budget]
        result.add_row(
            "painter",
            budget,
            realized_benefit(scenario, config) / total_possible,
            _config_coverage(scenario, config),
        )

    by_budget: Dict[int, tuple] = communities_budget_configs(scenario, budgets)
    for budget in budgets:
        announcements = by_budget[budget]
        result.add_row(
            "communities",
            len(announcements),
            communities_benefit(scenario, announcements) / total_possible,
            coverage_of_best_ingress(scenario, announcements),
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
