"""Internet topology substrate: geography, AS graph, cloud deployment."""

from repro.topology.asn import ASRole, AutonomousSystem, LOCAL_PREFERENCE, Relationship
from repro.topology.builder import CLOUD_ASN, Topology, TopologyConfig, build_topology
from repro.topology.cloud import CloudDeployment, Peering, PoP, PrefixPool
from repro.topology.geo import (
    EARTH_RADIUS_KM,
    FIBER_KM_PER_MS,
    GeoPoint,
    Metro,
    SPEED_OF_LIGHT_KM_PER_MS,
    WORLD_METROS,
    fiber_rtt_ms,
    haversine_km,
    metro_by_name,
    metros_in_region,
    speed_of_light_rtt_ms,
)
from repro.topology.graph import ASGraph, TopologyError, transit_path_exists

__all__ = [
    "ASGraph",
    "ASRole",
    "AutonomousSystem",
    "CLOUD_ASN",
    "CloudDeployment",
    "EARTH_RADIUS_KM",
    "FIBER_KM_PER_MS",
    "GeoPoint",
    "LOCAL_PREFERENCE",
    "Metro",
    "Peering",
    "PoP",
    "PrefixPool",
    "Relationship",
    "SPEED_OF_LIGHT_KM_PER_MS",
    "Topology",
    "TopologyConfig",
    "TopologyError",
    "WORLD_METROS",
    "build_topology",
    "fiber_rtt_ms",
    "haversine_km",
    "metro_by_name",
    "metros_in_region",
    "speed_of_light_rtt_ms",
    "transit_path_exists",
]
