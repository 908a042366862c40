"""DNS records, client caches, and recursive resolvers.

The substrate behind two results: the Fig. 3 finding that most traffic to
some clouds is sent to addresses from *expired* DNS records, and the Fig. 9
comparison of DNS-based steering granularity against PAINTER's per-flow
control.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class DNSRecord:
    """An A record as delivered to a client."""

    hostname: str
    address: str
    ttl_s: float
    issued_at_s: float

    def __post_init__(self) -> None:
        if self.ttl_s <= 0:
            raise ValueError("ttl must be positive")

    @property
    def expires_at_s(self) -> float:
        return self.issued_at_s + self.ttl_s

    def is_valid_at(self, time_s: float) -> bool:
        return self.issued_at_s <= time_s < self.expires_at_s


class ClientCache:
    """A client-side address cache that may violate TTLs.

    The paper observes that clients "cache the IP addresses and start new
    flows after the TTLs expire"; :meth:`lookup` therefore returns expired
    records when ``respect_ttl`` is off, modeling OS/app-level caching.
    """

    def __init__(self, respect_ttl: bool = True) -> None:
        self._respect_ttl = respect_ttl
        self._records: Dict[str, DNSRecord] = {}

    def insert(self, record: DNSRecord) -> None:
        self._records[record.hostname] = record

    def lookup(self, hostname: str, time_s: float) -> Optional[DNSRecord]:
        record = self._records.get(hostname)
        if record is None or time_s < record.issued_at_s:
            return None
        if self._respect_ttl and not record.is_valid_at(time_s):
            return None
        return record


@dataclass
class RecursiveResolver:
    """A recursive resolver serving a population of user groups.

    ``supports_ecs`` marks EDNS0 Client Subnet support — per the paper, only
    ~72 networks worldwide (most significantly Google Public DNS) use ECS,
    which enables per-/24 instead of per-resolver steering.
    """

    resolver_id: int
    name: str
    ug_ids: List[int] = field(default_factory=list)
    supports_ecs: bool = False

    def serves(self, ug_id: int) -> bool:
        return ug_id in self.ug_ids

    @property
    def population(self) -> int:
        return len(self.ug_ids)
