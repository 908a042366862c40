"""Measurement substrate: latency oracle, pings, geolocation, probes."""

from repro.measurement.extrapolation import ExtrapolationConfig, SimulatedMeasurements
from repro.measurement.geolocation import GeoTarget, GeolocationCatalog, GeolocationConfig
from repro.measurement.latency_model import LatencyModel, LatencyModelConfig
from repro.measurement.ping import DEFAULT_PING_COUNT, Pinger, PingResult
from repro.measurement.probes import ProbeFleet, ProbeFleetConfig
from repro.measurement.traceroute import (
    Traceroute,
    TracerouteConfig,
    TracerouteHop,
    ValidationReport,
    synthesize_traceroute,
    validate_policy_compliance,
)

__all__ = [
    "DEFAULT_PING_COUNT",
    "ExtrapolationConfig",
    "SimulatedMeasurements",
    "GeoTarget",
    "GeolocationCatalog",
    "GeolocationConfig",
    "LatencyModel",
    "LatencyModelConfig",
    "Pinger",
    "PingResult",
    "ProbeFleet",
    "Traceroute",
    "TracerouteConfig",
    "TracerouteHop",
    "ValidationReport",
    "synthesize_traceroute",
    "validate_policy_compliance",
    "ProbeFleetConfig",
]
