"""Enterprise workloads: the Fig. 2 modern enterprise and its SLOs."""

from repro.enterprise.builder import EnterpriseConfig, build_enterprise
from repro.enterprise.model import (
    Enterprise,
    STANDARD_SERVICES,
    ServiceProfile,
    Site,
    SiteKind,
)
from repro.enterprise.slo import (
    SloOutcome,
    SloSummary,
    analyze_slos,
    summarize_slos,
)
from repro.enterprise.workload import (
    WorkloadFlow,
    diurnal_intensity,
    flows_by_service,
    generate_workload,
    peak_concurrent_demand_mbps,
)

__all__ = [
    "Enterprise",
    "EnterpriseConfig",
    "STANDARD_SERVICES",
    "ServiceProfile",
    "Site",
    "SiteKind",
    "SloOutcome",
    "SloSummary",
    "WorkloadFlow",
    "analyze_slos",
    "build_enterprise",
    "diurnal_intensity",
    "flows_by_service",
    "generate_workload",
    "peak_concurrent_demand_mbps",
    "summarize_slos",
]
