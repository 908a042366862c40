"""Steering-mechanism comparisons: granularity, DNS steering, SD-WAN,
action communities and PECAN."""

from repro.steering.catchment import CatchmentAnalysis, CatchmentEntry
from repro.steering.communities import (
    AnnounceToAction,
    CommunitiesSolution,
    CommunityAnnouncement,
    CommunityRouting,
    MedAction,
    NoExportAction,
    PrependAction,
    communities_benefit,
    communities_budget_configs,
    communities_choices,
    parse_community,
    solve_communities,
)
from repro.steering.dns_steering import DnsSteeringResult, evaluate_dns_steering
from repro.steering.pecan import best_single_isp, compare_pecan_to_painter, pecan_config
from repro.steering.granularity import (
    BUCKET_LABELS,
    GRANULARITY_BUCKETS,
    GranularityAnalysis,
    PopGranularity,
)
from repro.steering.resilience import (
    AvoidanceResult,
    ExposureComparison,
    PainterView,
    ResilienceAnalysis,
    fraction_fully_avoidable,
)
from repro.steering.sdwan import SdwanView, sdwan_view

__all__ = [
    "AnnounceToAction",
    "AvoidanceResult",
    "CatchmentAnalysis",
    "CatchmentEntry",
    "BUCKET_LABELS",
    "CommunitiesSolution",
    "CommunityAnnouncement",
    "CommunityRouting",
    "DnsSteeringResult",
    "ExposureComparison",
    "GRANULARITY_BUCKETS",
    "GranularityAnalysis",
    "PainterView",
    "best_single_isp",
    "compare_pecan_to_painter",
    "pecan_config",
    "MedAction",
    "NoExportAction",
    "PopGranularity",
    "PrependAction",
    "ResilienceAnalysis",
    "SdwanView",
    "communities_benefit",
    "communities_budget_configs",
    "communities_choices",
    "evaluate_dns_steering",
    "fraction_fully_avoidable",
    "parse_community",
    "sdwan_view",
    "solve_communities",
]
