"""Route-flap damping and advertisement pacing.

Algorithm 1's outer loop is slow by necessity: "it takes time to test each
configuration to avoid route flap damping" (§3.1).  RFC 2439-style damping
assigns each (prefix, peer) a penalty that jumps on every re-advertisement
or withdrawal and decays exponentially with a half-life; routes whose
penalty exceeds a suppression threshold are ignored until it decays below a
reuse threshold.  This module models that process and computes how long an
orchestrator must pace its configuration changes to stay un-suppressed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

#: Conventional damping parameters (Cisco defaults, RFC 2439 flavor).
DEFAULT_FLAP_PENALTY = 1000.0
DEFAULT_WITHDRAWAL_PENALTY = 1000.0
DEFAULT_SUPPRESS_THRESHOLD = 2000.0
DEFAULT_REUSE_THRESHOLD = 750.0
DEFAULT_HALF_LIFE_S = 900.0  # 15 minutes
DEFAULT_MAX_PENALTY = 12000.0


@dataclass(frozen=True)
class DampingConfig:
    flap_penalty: float = DEFAULT_FLAP_PENALTY
    withdrawal_penalty: float = DEFAULT_WITHDRAWAL_PENALTY
    suppress_threshold: float = DEFAULT_SUPPRESS_THRESHOLD
    reuse_threshold: float = DEFAULT_REUSE_THRESHOLD
    half_life_s: float = DEFAULT_HALF_LIFE_S
    max_penalty: float = DEFAULT_MAX_PENALTY

    def __post_init__(self) -> None:
        if self.half_life_s <= 0:
            raise ValueError("half_life_s must be positive")
        if not 0 < self.reuse_threshold < self.suppress_threshold:
            raise ValueError("need 0 < reuse_threshold < suppress_threshold")
        if self.max_penalty < self.suppress_threshold:
            raise ValueError("max_penalty must exceed suppress_threshold")


class FlapDampingState:
    """Per-(prefix, peer) damping as a remote router would apply it."""

    def __init__(self, config: Optional[DampingConfig] = None) -> None:
        self._config = config or DampingConfig()
        #: (prefix, peer_asn) -> (penalty, last_update_time_s, suppressed)
        self._state: Dict[Tuple[str, int], Tuple[float, float, bool]] = {}

    @property
    def config(self) -> DampingConfig:
        return self._config

    def _decayed(self, key: Tuple[str, int], now_s: float) -> Tuple[float, bool]:
        penalty, last_s, suppressed = self._state.get(key, (0.0, now_s, False))
        if now_s < last_s:
            raise ValueError("time moved backwards")
        decay = 0.5 ** ((now_s - last_s) / self._config.half_life_s)
        penalty *= decay
        if suppressed and penalty < self._config.reuse_threshold:
            suppressed = False
        return penalty, suppressed

    def record_flap(self, prefix: str, peer_asn: int, now_s: float, withdrawal: bool = False) -> None:
        """Register a re-advertisement (or withdrawal) event."""
        key = (prefix, peer_asn)
        penalty, suppressed = self._decayed(key, now_s)
        penalty += (
            self._config.withdrawal_penalty if withdrawal else self._config.flap_penalty
        )
        penalty = min(penalty, self._config.max_penalty)
        if penalty >= self._config.suppress_threshold:
            suppressed = True
        self._state[key] = (penalty, now_s, suppressed)

    def penalty(self, prefix: str, peer_asn: int, now_s: float) -> float:
        return self._decayed((prefix, peer_asn), now_s)[0]

    def is_suppressed(self, prefix: str, peer_asn: int, now_s: float) -> bool:
        return self._decayed((prefix, peer_asn), now_s)[1]


def safe_update_interval_s(
    flaps_per_update: int = 1, config: Optional[DampingConfig] = None
) -> float:
    """Minimum pacing between configuration changes that never suppresses.

    If each configuration change flaps a (prefix, peer) ``flaps_per_update``
    times, the steady-state peak penalty of updates paced T apart is
    ``flaps * flap_penalty / (1 - 2^(-T/half_life))``; solving for the
    largest penalty below the suppression threshold gives the minimum safe T.
    """
    cfg = config or DampingConfig()
    if flaps_per_update < 1:
        raise ValueError("flaps_per_update must be >= 1")
    per_update = flaps_per_update * cfg.flap_penalty
    if per_update >= cfg.suppress_threshold:
        # A single update already suppresses; no pacing can prevent it.
        return math.inf
    # Steady-state peak = per_update / (1 - d) where d = 2^(-T/half_life);
    # require peak < suppress  =>  d < 1 - per_update / suppress.
    d_max = 1.0 - per_update / cfg.suppress_threshold
    return -cfg.half_life_s * math.log2(d_max)


def learning_iteration_pacing_s(
    prefix_count: int,
    config: Optional[DampingConfig] = None,
    flaps_per_update: int = 1,
) -> float:
    """How long one Algorithm 1 outer-loop iteration must take.

    Each iteration re-advertises every prefix once; pacing each prefix's
    change by :func:`safe_update_interval_s` and pipelining across prefixes
    means the iteration takes at least one safe interval overall, plus the
    per-prefix computation time the paper reports (~30 s/prefix).
    """
    if prefix_count < 1:
        raise ValueError("prefix_count must be >= 1")
    compute_s = 30.0 * prefix_count  # paper: ~30 seconds per prefix
    return max(safe_update_interval_s(flaps_per_update, config), compute_s)
