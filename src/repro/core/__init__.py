"""PAINTER's core: advertisement optimization (Algorithm 1) and benefit math."""

from repro.core.advertisement import AdvertisementConfig
from repro.core.baselines import (
    BASELINE_STRATEGIES,
    one_per_peering,
    one_per_pop,
    one_per_pop_with_reuse,
    regional_anycast,
    regional_transit,
)
from repro.core.cost import (
    ConfigurationCost,
    configuration_cost,
    prefixes_saved_vs_one_per_peering,
)
from repro.core.installation import Installation, InstalledPrefix, install_configuration
from repro.core.benefit import (
    BenefitEvaluator,
    BenefitMatrix,
    ConfigEvaluation,
    DEFAULT_INFLATION_SCALE_KM,
    best_prefix_choices,
    catchment_benefit,
    realized_benefit,
    tm_choice,
)
from repro.core.orchestrator import (
    BudgetPoint,
    IterationRecord,
    LearningResult,
    ObservationReport,
    OrchestratorConfig,
    PainterOrchestrator,
    SolveMemo,
    WarmSolveStats,
)
from repro.core.routing_model import DEFAULT_D_REUSE_KM, RoutingModel

__all__ = [
    "AdvertisementConfig",
    "ConfigurationCost",
    "Installation",
    "InstalledPrefix",
    "configuration_cost",
    "install_configuration",
    "prefixes_saved_vs_one_per_peering",
    "regional_anycast",
    "BASELINE_STRATEGIES",
    "BenefitEvaluator",
    "BenefitMatrix",
    "BudgetPoint",
    "ConfigEvaluation",
    "DEFAULT_D_REUSE_KM",
    "DEFAULT_INFLATION_SCALE_KM",
    "IterationRecord",
    "LearningResult",
    "ObservationReport",
    "OrchestratorConfig",
    "PainterOrchestrator",
    "RoutingModel",
    "SolveMemo",
    "WarmSolveStats",
    "best_prefix_choices",
    "catchment_benefit",
    "one_per_peering",
    "one_per_pop",
    "one_per_pop_with_reuse",
    "realized_benefit",
    "regional_transit",
    "tm_choice",
]
