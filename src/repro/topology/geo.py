"""Geographic primitives: coordinates, great-circle distance, fiber latency.

PAINTER reasons about geography constantly: the reuse distance ``D_reuse`` is
a great-circle distance between PoPs, latency estimates are validated with
speed-of-light constraints (Appendix B), and path inflation is measured as
extra distance relative to the closest PoP.  This module provides those
primitives plus a small database of world metropolitan areas used by the
synthetic scenario builder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.util import stable_rng

EARTH_RADIUS_KM = 6371.0

#: Speed of light in vacuum, km per millisecond.
SPEED_OF_LIGHT_KM_PER_MS = 299.792458

#: Refractive index of optical fiber; light in fiber travels ~2/3 c.
FIBER_REFRACTIVE_INDEX = 1.52

#: Effective propagation speed in fiber, km per millisecond.
FIBER_KM_PER_MS = SPEED_OF_LIGHT_KM_PER_MS / FIBER_REFRACTIVE_INDEX

#: Multiplier capturing that fiber paths are not geodesics (route deviation).
#: Empirical studies place real paths at 1.5-2.5x geodesic distance; we use a
#: conservative default and let callers add AS-level inflation on top.
FIBER_PATH_STRETCH = 1.6


@dataclass(frozen=True)
class GeoPoint:
    """A point on the Earth's surface in decimal degrees."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat}")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude out of range: {self.lon}")

    def distance_km(self, other: "GeoPoint") -> float:
        return haversine_km(self, other)


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points in kilometers."""
    lat1, lon1 = math.radians(a.lat), math.radians(a.lon)
    lat2, lon2 = math.radians(b.lat), math.radians(b.lon)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def speed_of_light_rtt_ms(distance_km: float) -> float:
    """Lower bound on RTT (ms) for a given one-way geodesic distance.

    This is the constraint used to validate geolocated targets in Appendix B:
    a measured RTT below this bound proves the target is not at the assumed
    location (e.g. it is anycast).
    """
    if distance_km < 0:
        raise ValueError("distance must be non-negative")
    return 2.0 * distance_km / SPEED_OF_LIGHT_KM_PER_MS


def fiber_rtt_ms(distance_km: float, stretch: float = FIBER_PATH_STRETCH) -> float:
    """Expected RTT (ms) over fiber for a one-way geodesic distance."""
    if distance_km < 0:
        raise ValueError("distance must be non-negative")
    return 2.0 * distance_km * stretch / FIBER_KM_PER_MS


class DistanceTable:
    """Great-circle distances between every origin and every target point.

    ``km[i, j]`` is ``haversine_km(origin i, target j)`` and
    ``fiber_rtt_ms[i, j]`` is :func:`fiber_rtt_ms` of it, each computed once
    by the scalar functions above (no vectorised trig), so a gather from
    either array is bit-identical to the per-pair call.  Repeated points
    share one row or column; :meth:`origin_indices` / :meth:`target_indices`
    map points to them.  Built over UG metros × PoPs, the table holds the
    few thousand distinct geometries behind a world's (UG, ingress) slots.
    """

    def __init__(self, origins: Iterable[GeoPoint], targets: Iterable[GeoPoint]) -> None:
        self._origin: Dict[GeoPoint, int] = {}
        for point in origins:
            self._origin.setdefault(point, len(self._origin))
        self._target: Dict[GeoPoint, int] = {}
        for point in targets:
            self._target.setdefault(point, len(self._target))
        shape = (len(self._origin), len(self._target))
        km = [[haversine_km(a, b) for b in self._target] for a in self._origin]
        self.km = np.array(km, dtype=np.float64).reshape(shape)
        self.fiber_rtt_ms = np.array(
            [[fiber_rtt_ms(d) for d in row] for row in km], dtype=np.float64
        ).reshape(shape)

    def origin_indices(self, points: Iterable[GeoPoint]) -> "np.ndarray":
        """Row of each point (``KeyError`` for a point outside the table)."""
        return np.array([self._origin[p] for p in points], dtype=np.intp)

    def target_indices(self, points: Iterable[GeoPoint]) -> "np.ndarray":
        """Column of each point (``KeyError`` for a point outside the table)."""
        return np.array([self._target[p] for p in points], dtype=np.intp)


@dataclass(frozen=True)
class Metro:
    """A metropolitan area — the geographic half of a user group."""

    name: str
    location: GeoPoint
    region: str

    def distance_km(self, other: "Metro") -> float:
        return self.location.distance_km(other.location)


def _m(name: str, lat: float, lon: float, region: str) -> Metro:
    return Metro(name=name, location=GeoPoint(lat, lon), region=region)


#: World metros used by the synthetic scenario builder.  Coordinates are the
#: conventional city centers; regions follow cloud-provider naming.
WORLD_METROS: Tuple[Metro, ...] = (
    _m("new-york", 40.71, -74.01, "us-east"),
    _m("ashburn", 39.04, -77.49, "us-east"),
    _m("miami", 25.76, -80.19, "us-east"),
    _m("atlanta", 33.75, -84.39, "us-east"),
    _m("boston", 42.36, -71.06, "us-east"),
    _m("toronto", 43.65, -79.38, "us-east"),
    _m("montreal", 45.50, -73.57, "us-east"),
    _m("chicago", 41.88, -87.63, "us-central"),
    _m("dallas", 32.78, -96.80, "us-central"),
    _m("kansas-city", 39.10, -94.58, "us-central"),
    _m("denver", 39.74, -104.99, "us-central"),
    _m("houston", 29.76, -95.37, "us-central"),
    _m("seattle", 47.61, -122.33, "us-west"),
    _m("san-jose", 37.34, -121.89, "us-west"),
    _m("los-angeles", 34.05, -118.24, "us-west"),
    _m("phoenix", 33.45, -112.07, "us-west"),
    _m("vancouver", 49.28, -123.12, "us-west"),
    _m("london", 51.51, -0.13, "eu-west"),
    _m("dublin", 53.35, -6.26, "eu-west"),
    _m("paris", 48.86, 2.35, "eu-west"),
    _m("amsterdam", 52.37, 4.90, "eu-west"),
    _m("madrid", 40.42, -3.70, "eu-west"),
    _m("lisbon", 38.72, -9.14, "eu-west"),
    _m("frankfurt", 50.11, 8.68, "eu-central"),
    _m("zurich", 47.37, 8.54, "eu-central"),
    _m("milan", 45.46, 9.19, "eu-central"),
    _m("vienna", 48.21, 16.37, "eu-central"),
    _m("warsaw", 52.23, 21.01, "eu-central"),
    _m("stockholm", 59.33, 18.07, "eu-north"),
    _m("oslo", 59.91, 10.75, "eu-north"),
    _m("helsinki", 60.17, 24.94, "eu-north"),
    _m("copenhagen", 55.68, 12.57, "eu-north"),
    _m("tokyo", 35.68, 139.69, "asia-east"),
    _m("osaka", 34.69, 135.50, "asia-east"),
    _m("seoul", 37.57, 126.98, "asia-east"),
    _m("hong-kong", 22.32, 114.17, "asia-east"),
    _m("taipei", 25.03, 121.57, "asia-east"),
    _m("singapore", 1.35, 103.82, "asia-south"),
    _m("mumbai", 19.08, 72.88, "asia-south"),
    _m("delhi", 28.61, 77.21, "asia-south"),
    _m("chennai", 13.08, 80.27, "asia-south"),
    _m("bangkok", 13.76, 100.50, "asia-south"),
    _m("jakarta", -6.21, 106.85, "asia-south"),
    _m("kuala-lumpur", 3.14, 101.69, "asia-south"),
    _m("sydney", -33.87, 151.21, "oceania"),
    _m("melbourne", -37.81, 144.96, "oceania"),
    _m("auckland", -36.85, 174.76, "oceania"),
    _m("sao-paulo", -23.55, -46.63, "sa-east"),
    _m("rio-de-janeiro", -22.91, -43.17, "sa-east"),
    _m("buenos-aires", -34.60, -58.38, "sa-east"),
    _m("santiago", -33.45, -70.67, "sa-east"),
    _m("bogota", 4.71, -74.07, "sa-east"),
    _m("lima", -12.05, -77.04, "sa-east"),
    _m("johannesburg", -26.20, 28.05, "africa"),
    _m("cape-town", -33.92, 18.42, "africa"),
    _m("nairobi", -1.29, 36.82, "africa"),
    _m("lagos", 6.52, 3.38, "africa"),
    _m("cairo", 30.04, 31.24, "africa"),
    _m("dubai", 25.20, 55.27, "middle-east"),
    _m("tel-aviv", 32.07, 34.78, "middle-east"),
    _m("istanbul", 41.01, 28.98, "middle-east"),
    _m("doha", 25.29, 51.53, "middle-east"),
)

_METRO_INDEX = {metro.name: metro for metro in WORLD_METROS}

#: Latitude band for synthetic metros: roughly Punta Arenas to Reykjavik,
#: keeping generated cities out of the poles where no eyeballs live.
_SYNTH_LAT_RANGE = (-55.0, 65.0)


def synthetic_metros(count: int, seed: int = 0) -> Tuple[Metro, ...]:
    """Deterministic pseudo-random metro pool extending :data:`WORLD_METROS`.

    The ``mega`` preset needs far more distinct metros than the hand-curated
    world list provides (one per PoP plus headroom for AS home metros).  The
    generated metros are uniformly spread over the inhabited latitude band
    and grouped into six longitude-band regions (``syn-0`` .. ``syn-5``).
    Names never collide with the curated list (``syn-`` prefix), which
    matters because the topology builder memoizes by metro name.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    rng = stable_rng("synthetic-metros", seed)
    metros: List[Metro] = []
    for i in range(count):
        lat = rng.uniform(*_SYNTH_LAT_RANGE)
        lon = rng.uniform(-180.0, 180.0)
        region = f"syn-{int((lon + 180.0) // 60.0) % 6}"
        metros.append(Metro(name=f"syn-{i:03d}", location=GeoPoint(lat, lon), region=region))
    return tuple(metros)


def metro_by_name(name: str) -> Metro:
    """Look up a metro from :data:`WORLD_METROS` by its name."""
    try:
        return _METRO_INDEX[name]
    except KeyError:
        raise KeyError(f"unknown metro: {name!r}") from None


def metros_in_region(region: str) -> List[Metro]:
    return [metro for metro in WORLD_METROS if metro.region == region]


def closest_distance_km(point: GeoPoint, points: Iterable[GeoPoint]) -> float:
    """Distance from ``point`` to the closest of ``points``."""
    distances = [haversine_km(point, other) for other in points]
    if not distances:
        raise ValueError("no points to choose from")
    return min(distances)
