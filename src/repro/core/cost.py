"""Advertisement cost accounting.

Prefixes are the scarce resource PAINTER economizes (§2.4): IPv4 /24s trade
for well over $20k apiece, and every extra announcement lands in every
default-free-zone router's table.  This module prices a configuration so
experiments can report cost alongside benefit, and compares a deployment's
footprint against the hypergiant norms the paper cites (8 of 22 hypergiants
advertise at least 500 /24s).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.advertisement import AdvertisementConfig

#: Street price of an IPv4 /24 (paper: "often much more than $20k per /24").
DEFAULT_PRICE_PER_SLASH24_USD = 20_000.0

#: Approximate default-free-zone router count carrying a global table; each
#: announced prefix consumes a FIB slot in each.
DFZ_ROUTERS_ESTIMATE = 70_000

#: Footprint of a typical large content provider (paper: >= 500 /24s for 8
#: of 22 hypergiants), used as a budget sanity reference.
HYPERGIANT_PREFIX_FOOTPRINT = 500


@dataclass(frozen=True)
class ConfigurationCost:
    """The price tag of one advertisement configuration."""

    prefixes: int
    announcements: int  # (prefix, peering) pairs = BGP sessions carrying it
    address_cost_usd: float
    fib_slots: int

    @property
    def fraction_of_hypergiant_footprint(self) -> float:
        return self.prefixes / HYPERGIANT_PREFIX_FOOTPRINT


def configuration_cost(
    config: AdvertisementConfig,
    price_per_prefix_usd: float = DEFAULT_PRICE_PER_SLASH24_USD,
    dfz_routers: int = DFZ_ROUTERS_ESTIMATE,
    include_anycast: bool = True,
) -> ConfigurationCost:
    """Price a configuration (optionally counting the anycast /24 too)."""
    if price_per_prefix_usd < 0:
        raise ValueError("price must be non-negative")
    if dfz_routers < 1:
        raise ValueError("dfz_routers must be positive")
    prefixes = config.prefix_count + (1 if include_anycast else 0)
    return ConfigurationCost(
        prefixes=prefixes,
        announcements=config.pair_count,
        address_cost_usd=prefixes * price_per_prefix_usd,
        fib_slots=prefixes * dfz_routers,
    )


def prefixes_saved_vs_one_per_peering(config: AdvertisementConfig) -> int:
    """How many prefixes reuse saved versus a prefix per (covered) peering."""
    return len(config.all_peering_ids()) - config.prefix_count
