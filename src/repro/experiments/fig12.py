"""Fig. 12 (Appendix B): geolocation uncertainty vs coverage and accuracy.

Sweeping the allowed target-geolocation uncertainty GP:

* **12a** — volume-weighted coverage of policy-compliant (UG, ingress)
  pairs that have a measurable target (knee around 400 km; ~80% at 450 km);
* **12b** — median absolute error of the latency estimates (≈2 ms at the
  chosen 450 km operating point, growing with uncertainty).

Per the paper's metric, ingresses that cannot possibly beat anycast for a
UG (speed-of-light bound above the UG's anycast latency) are excluded
before computing coverage.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.experiments.harness import ExperimentResult
from repro.measurement.geolocation import GeolocationCatalog, GeolocationConfig
from repro.scenario import Scenario, prototype_scenario
from repro.topology.geo import fiber_rtt_ms, haversine_km, speed_of_light_rtt_ms
from repro.util import percentile

DEFAULT_UNCERTAINTIES_KM: Sequence[float] = (100, 200, 300, 400, 450, 500, 600, 700)


def _eligible_pairs(scenario: Scenario) -> List[Tuple[int, int, float]]:
    """(ug_id, peering_id, weight) for pairs that could beat anycast."""
    pairs: List[Tuple[int, int, float]] = []
    for ug in scenario.user_groups:
        anycast = scenario.anycast_latency_ms(ug)
        useful = []
        for peering in scenario.catalog.ingresses(ug):
            bound = speed_of_light_rtt_ms(
                haversine_km(ug.location, peering.pop.location)
            )
            if bound < anycast:
                useful.append(peering.peering_id)
        if not useful:
            continue
        weight = ug.volume / len(useful)
        pairs.extend((ug.ug_id, pid, weight) for pid in useful)
    return pairs


def run_fig12(
    scenario: Optional[Scenario] = None,
    uncertainties_km: Sequence[float] = DEFAULT_UNCERTAINTIES_KM,
    geo_config: Optional[GeolocationConfig] = None,
) -> ExperimentResult:
    scenario = scenario or prototype_scenario(seed=0, n_ugs=300)
    catalog = GeolocationCatalog(geo_config)
    deployment = scenario.deployment
    by_id = {ug.ug_id: ug for ug in scenario.user_groups}
    pairs = _eligible_pairs(scenario)
    total_weight = sum(w for _ug, _pid, w in pairs)

    result = ExperimentResult(
        experiment_id="fig12",
        title="Geolocation uncertainty: target coverage and estimate accuracy",
        columns=["uncertainty_km", "coverage_frac", "median_abs_error_ms"],
    )
    for gp in uncertainties_km:
        covered_weight = 0.0
        errors: List[float] = []
        for ug_id, pid, weight in pairs:
            peering = deployment.peering(pid)
            if not catalog.has_target_within(peering, gp):
                continue
            covered_weight += weight
            error = catalog.estimate_error_ms(
                by_id[ug_id], peering, scenario.latency_model, gp
            )
            if error is not None:
                errors.append(error)
        coverage = covered_weight / total_weight if total_weight else 0.0
        median_error = percentile(sorted(errors), 0.5) if errors else 0.0
        result.add_row(gp, coverage, median_error)
    result.add_note(
        "coverage weights each UG's volume evenly across its plausibly-"
        "beneficial policy-compliant ingresses (Appendix B)"
    )
    return result


# -- claims (checked by ``repro report`` at the registry's ``claims_at``) ----


def coverage_and_error_grow_with_uncertainty(result: ExperimentResult) -> None:
    coverage = dict(zip(result.column("uncertainty_km"), result.column("coverage_frac")))
    errors = dict(
        zip(result.column("uncertainty_km"), result.column("median_abs_error_ms"))
    )
    # Coverage grows with allowed uncertainty; ~80% at the paper's 450 km.
    values = [coverage[gp] for gp in sorted(coverage)]
    assert values == sorted(values)
    assert coverage[450] > 0.6
    # Error grows with uncertainty and stays small (paper: ~2 ms median).
    assert errors[700] >= errors[100]
    assert errors[450] < 5.0
