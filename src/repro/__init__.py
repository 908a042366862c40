"""PAINTER reproduction: ingress traffic engineering for enterprise clouds.

A from-scratch implementation of the system described in "PAINTER: Ingress
Traffic Engineering and Routing for Enterprise Cloud Networks" (SIGCOMM
2023), together with every substrate its evaluation depends on — a synthetic
Internet topology, a BGP simulator, a measurement platform, user-group
workloads, DNS/TTL dynamics, and an SD-WAN comparator.

Quickstart::

    from repro import OrchestratorConfig, PainterOrchestrator, prototype_scenario

    scenario = prototype_scenario(seed=1)
    orchestrator = PainterOrchestrator(scenario, OrchestratorConfig(prefix_budget=10))
    result = orchestrator.learn(iterations=3)
    print(result.realized_benefits)

The steering half of the paper — the Traffic Manager — is also exposed here:
:class:`TMEdge`/:class:`TMPoP` for the proxy nodes and
:class:`VectorFlowTable`, their data plane (batched numpy columns for
millions of flows).
"""

from repro.core import (
    AdvertisementConfig,
    BenefitEvaluator,
    LearningResult,
    OrchestratorConfig,
    PainterOrchestrator,
    RoutingModel,
    realized_benefit,
)
from repro.audit import audit_scenario
from repro.faults import FaultSchedule, ObservationFaults
from repro.scenario import (
    Scenario,
    azure_scenario,
    build_scenario,
    prototype_scenario,
    tiny_scenario,
)
from repro.telemetry import (
    METRICS,
    MetricsRegistry,
    RunJournal,
    TRACER,
    Tracer,
    load_journal,
    telemetry_session,
)
from repro.traffic_manager import (
    FiveTuple,
    FlowBatch,
    TMEdge,
    TMPoP,
    VectorFlowTable,
)

__version__ = "1.0.0"

__all__ = [
    "AdvertisementConfig",
    "audit_scenario",
    "BenefitEvaluator",
    "FaultSchedule",
    "FiveTuple",
    "FlowBatch",
    "LearningResult",
    "METRICS",
    "MetricsRegistry",
    "ObservationFaults",
    "OrchestratorConfig",
    "PainterOrchestrator",
    "RoutingModel",
    "RunJournal",
    "Scenario",
    "TMEdge",
    "TMPoP",
    "TRACER",
    "Tracer",
    "VectorFlowTable",
    "azure_scenario",
    "build_scenario",
    "load_journal",
    "prototype_scenario",
    "realized_benefit",
    "telemetry_session",
    "tiny_scenario",
    "__version__",
]
