"""Per-UG SLO accounting for soak runs: the :class:`SLOLedger`.

The ledger is the soak harness's source of truth for the operational
claims PAINTER makes: every window, every user group is scored on

* **flow accounting** — offered flows must equal served + unroutable +
  shed, per UG, every window; any mismatch increments
  :attr:`SLOLedger.accounting_errors` (the CI gate requires zero);
* **latency** — served flows land in fixed log-spaced histogram buckets,
  so ``p99`` is the smallest bucket edge covering 99% of a UG's flows
  (bucketed quantiles are monotone under added latency — the property
  the hypothesis suite checks);
* **availability** — a UG is *down* for a window iff it has no live
  destination selection; ``downtime_s + uptime_s == windows * window_s``
  is a hard invariant;
* **failover-budget spend** — destination switches per UG accumulate
  against a configured budget; overspend is reported, not clamped.

The ledger's entire state round-trips through :meth:`state_dict` /
:meth:`from_state` (base64-packed numpy columns inside a JSON-ready
dict), which is both its checkpoint payload inside the controller
checkpoint and the input to :meth:`fingerprint` — a SHA-256 over the
canonical JSON encoding, the "bit-identical SLO ledger" the differential
suite compares.  Nothing wall-clock-derived is allowed in here.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from typing import Any, Dict, List, Mapping, Optional

import numpy as np

#: Bump when the ledger state schema changes incompatibly.
LEDGER_VERSION = 1

#: Upper edges (ms) of the latency histogram buckets: 40 log-spaced
#: buckets over [1ms, 1024ms] plus one overflow bucket.  Fixed edges make
#: bucketed quantiles comparable across runs and monotone under shifts.
DEFAULT_BUCKET_EDGES_MS = np.geomspace(1.0, 1024.0, num=41)


def _encode_array(array: np.ndarray) -> Dict[str, Any]:
    array = np.ascontiguousarray(array)
    return {
        "dtype": str(array.dtype),
        "shape": list(array.shape),
        "b64": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def _decode_array(payload: Mapping[str, Any]) -> np.ndarray:
    raw = base64.b64decode(payload["b64"])
    array = np.frombuffer(raw, dtype=np.dtype(payload["dtype"]))
    return array.reshape([int(d) for d in payload["shape"]]).copy()


class SLOAccountingError(RuntimeError):
    """An SLO invariant that must never break did (test/CI surface)."""


class SLOLedger:
    """Fixed-shape numpy accounting of per-UG SLO state over a soak run."""

    def __init__(
        self,
        n_ugs: int,
        *,
        window_s: float,
        failover_budget: int = 8,
        bucket_edges_ms: Optional[np.ndarray] = None,
    ) -> None:
        if n_ugs < 0:
            raise ValueError("n_ugs must be non-negative")
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        if failover_budget < 0:
            raise ValueError("failover_budget must be non-negative")
        self.n_ugs = int(n_ugs)
        self.window_s = float(window_s)
        self.failover_budget = int(failover_budget)
        edges = (
            np.asarray(bucket_edges_ms, dtype=np.float64)
            if bucket_edges_ms is not None
            else DEFAULT_BUCKET_EDGES_MS.copy()
        )
        if edges.ndim != 1 or len(edges) < 1 or np.any(np.diff(edges) <= 0):
            raise ValueError("bucket edges must be strictly increasing 1-D")
        self.bucket_edges_ms = edges
        n_buckets = len(edges) + 1  # +1 overflow
        self.offered = np.zeros(self.n_ugs, dtype=np.int64)
        self.served = np.zeros(self.n_ugs, dtype=np.int64)
        self.unroutable = np.zeros(self.n_ugs, dtype=np.int64)
        self.shed = np.zeros(self.n_ugs, dtype=np.int64)
        self.downtime_s = np.zeros(self.n_ugs, dtype=np.float64)
        self.uptime_s = np.zeros(self.n_ugs, dtype=np.float64)
        self.switches = np.zeros(self.n_ugs, dtype=np.int64)
        self.latency_hist = np.zeros((self.n_ugs, n_buckets), dtype=np.int64)
        self.windows_accounted = 0
        self.accounting_errors = 0
        #: Per-window fleet aggregates (plain ints — report table rows).
        self.window_rows: List[Dict[str, int]] = []

    # -- per-window observation ----------------------------------------------

    def observe_window(
        self,
        window: int,
        *,
        offered: np.ndarray,
        served: np.ndarray,
        unroutable: np.ndarray,
        shed: np.ndarray,
        latency_ms: np.ndarray,
        up_mask: np.ndarray,
        switches: np.ndarray,
        remaps: int = 0,
    ) -> None:
        """Fold one simulated window into the ledger.

        All arrays are per-UG (length ``n_ugs``); ``latency_ms`` is the
        latency of each UG's current selection (``inf`` when down) and
        attributes the window's served flows to one histogram bucket.
        """
        offered = np.asarray(offered, dtype=np.int64)
        served = np.asarray(served, dtype=np.int64)
        unroutable = np.asarray(unroutable, dtype=np.int64)
        shed = np.asarray(shed, dtype=np.int64)
        latency_ms = np.asarray(latency_ms, dtype=np.float64)
        up = np.asarray(up_mask, dtype=bool)
        switches = np.asarray(switches, dtype=np.int64)
        for name, arr in (
            ("offered", offered),
            ("served", served),
            ("unroutable", unroutable),
            ("shed", shed),
            ("latency_ms", latency_ms),
            ("up_mask", up),
            ("switches", switches),
        ):
            if arr.shape != (self.n_ugs,):
                raise ValueError(
                    f"{name} must have shape ({self.n_ugs},), got {arr.shape}"
                )

        mismatched = offered != served + unroutable + shed
        self.accounting_errors += int(mismatched.sum())

        self.offered += offered
        self.served += served
        self.unroutable += unroutable
        self.shed += shed
        self.downtime_s += np.where(up, 0.0, self.window_s)
        self.uptime_s += np.where(up, self.window_s, 0.0)
        self.switches += switches

        active = (served > 0) & np.isfinite(latency_ms)
        if active.any():
            rows = np.nonzero(active)[0]
            buckets = np.searchsorted(
                self.bucket_edges_ms, latency_ms[rows], side="left"
            )
            np.add.at(self.latency_hist, (rows, buckets), served[rows])

        self.windows_accounted += 1
        self.window_rows.append(
            {
                "window": int(window),
                "offered": int(offered.sum()),
                "served": int(served.sum()),
                "unroutable": int(unroutable.sum()),
                "shed": int(shed.sum()),
                "down_ugs": int((~up).sum()),
                "switches": int(switches.sum()),
                "remaps": int(remaps),
                "accounting_errors": int(mismatched.sum()),
            }
        )

    # -- queries ---------------------------------------------------------------

    def _p99_of_hist(self, hist: np.ndarray, q: float) -> Optional[float]:
        total = int(hist.sum())
        if total == 0:
            return None
        cum = np.cumsum(hist)
        idx = int(np.searchsorted(cum, math.ceil(q * total)))
        if idx >= len(self.bucket_edges_ms):
            return math.inf
        return float(self.bucket_edges_ms[idx])

    def p99_ms(self, ug: Optional[int] = None, q: float = 0.99) -> Optional[float]:
        """Bucketed q-quantile latency (smallest covering bucket edge).

        ``None`` with no served flows; ``inf`` when the quantile falls in
        the overflow bucket.  Fleet-wide when ``ug`` is omitted.
        """
        hist = (
            self.latency_hist.sum(axis=0)
            if ug is None
            else self.latency_hist[int(ug)]
        )
        return self._p99_of_hist(hist, q)

    @property
    def wall_window_s(self) -> float:
        """Total simulated wall time every UG has been accounted for."""
        return self.windows_accounted * self.window_s

    def budget_overspend(self) -> np.ndarray:
        """Per-UG switches beyond the failover budget (>= 0)."""
        return np.maximum(self.switches - self.failover_budget, 0)

    def check_invariants(self) -> None:
        """Raise :class:`SLOAccountingError` if a hard invariant broke."""
        wall = self.wall_window_s
        total = self.downtime_s + self.uptime_s
        if not np.allclose(total, wall):
            worst = int(np.argmax(np.abs(total - wall)))
            raise SLOAccountingError(
                f"UG {worst}: downtime+uptime {total[worst]:.3f}s != "
                f"wall window {wall:.3f}s"
            )
        if np.any(self.offered != self.served + self.unroutable + self.shed):
            raise SLOAccountingError("cumulative flow accounting mismatch")
        if self.accounting_errors:
            raise SLOAccountingError(
                f"{self.accounting_errors} per-window accounting errors"
            )

    def summary(self) -> Dict[str, Any]:
        """Fleet-level digest (JSON-ready; includes the fingerprint)."""
        p99 = self.p99_ms()
        return {
            "ugs": self.n_ugs,
            "windows": self.windows_accounted,
            "window_s": self.window_s,
            "offered": int(self.offered.sum()),
            "served": int(self.served.sum()),
            "unroutable": int(self.unroutable.sum()),
            "shed": int(self.shed.sum()),
            "accounting_errors": int(self.accounting_errors),
            "fleet_p99_ms": None if p99 is None else float(p99),
            "total_downtime_s": float(self.downtime_s.sum()),
            "ugs_with_downtime": int((self.downtime_s > 0).sum()),
            "switches": int(self.switches.sum()),
            "failover_budget": self.failover_budget,
            "budget_violations": int((self.budget_overspend() > 0).sum()),
            "fingerprint": self.fingerprint(),
        }

    # -- state round-trip ------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """Complete JSON-ready state (checkpoint payload + fingerprint input)."""
        return {
            "version": LEDGER_VERSION,
            "n_ugs": self.n_ugs,
            "window_s": self.window_s,
            "failover_budget": self.failover_budget,
            "bucket_edges_ms": _encode_array(self.bucket_edges_ms),
            "offered": _encode_array(self.offered),
            "served": _encode_array(self.served),
            "unroutable": _encode_array(self.unroutable),
            "shed": _encode_array(self.shed),
            "downtime_s": _encode_array(self.downtime_s),
            "uptime_s": _encode_array(self.uptime_s),
            "switches": _encode_array(self.switches),
            "latency_hist": _encode_array(self.latency_hist),
            "windows_accounted": self.windows_accounted,
            "accounting_errors": self.accounting_errors,
            "window_rows": list(self.window_rows),
        }

    @classmethod
    def from_state(cls, payload: Mapping[str, Any]) -> "SLOLedger":
        if not isinstance(payload, Mapping):
            raise ValueError(f"ledger state is not a mapping: {payload!r}")
        version = payload.get("version")
        if version != LEDGER_VERSION:
            raise ValueError(f"unsupported ledger version {version!r}")
        ledger = cls(
            int(payload["n_ugs"]),
            window_s=float(payload["window_s"]),
            failover_budget=int(payload["failover_budget"]),
            bucket_edges_ms=_decode_array(payload["bucket_edges_ms"]),
        )
        ledger.offered = _decode_array(payload["offered"])
        ledger.served = _decode_array(payload["served"])
        ledger.unroutable = _decode_array(payload["unroutable"])
        ledger.shed = _decode_array(payload["shed"])
        ledger.downtime_s = _decode_array(payload["downtime_s"])
        ledger.uptime_s = _decode_array(payload["uptime_s"])
        ledger.switches = _decode_array(payload["switches"])
        ledger.latency_hist = _decode_array(payload["latency_hist"])
        ledger.windows_accounted = int(payload["windows_accounted"])
        ledger.accounting_errors = int(payload["accounting_errors"])
        ledger.window_rows = [dict(row) for row in payload["window_rows"]]
        return ledger

    def fingerprint(self) -> str:
        """SHA-256 of the canonical JSON state — the bit-identity the
        differential suite compares across seeds, planes, and crashes."""
        canonical = json.dumps(
            self.state_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode()).hexdigest()
