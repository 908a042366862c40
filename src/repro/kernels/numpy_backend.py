"""The numpy reference backend — the bit-exactness oracle.

Hosts the canonical elementwise kernels every other backend must
reproduce bit-for-bit.  ``refresh_contrib`` is the refresh-marginal vector
expression every shard evaluates (``repro.parallel.shard``);
``initial_gains`` is the initial-heap ``np.fmax(base - lat, 0.0)``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.kernels.api import ComputeBackend, register_backend


def initial_gains(base: np.ndarray, lat: np.ndarray) -> np.ndarray:
    """Initial-heap gain per affected UG row: ``max(0, base - lat)``.

    ``np.fmax`` (not ``maximum``) so ``nan`` latencies — unmeasurable
    ingresses — contribute exactly ``0.0``.
    """
    return np.fmax(base - lat, 0.0)


def refresh_contrib(
    dist: np.ndarray,
    lat: np.ndarray,
    vol: np.ndarray,
    d0: np.ndarray,
    csum: np.ndarray,
    ccnt: np.ndarray,
    ob: np.ndarray,
    base: np.ndarray,
    d_reuse: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """The refresh-marginal vector expression, row-for-row.

    Returns ``(contrib, shrink)``: per-row volume-weighted improvements
    and the mask of rows where ``dist < d0 < inf`` — the candidate is
    closer than everything kept, so the reuse window would shrink and
    ``csum``/``ccnt`` (read at the old window) no longer describe the kept
    set.  Those rows come back zeroed.  The mask is a guard, not a to-do
    list: ``ShardState.contrib`` never trips it, because it passes such
    rows with ``d0 = dist`` and ``csum``/``ccnt`` re-read at the shrunken
    window, for which the formulas below are exact.
    """
    shrink = (dist < d0) & np.isfinite(d0)
    limit = np.where(dist < d0, dist, d0) + d_reuse
    measurable = ~np.isnan(lat)
    add = (dist <= limit) & measurable
    new_cnt = ccnt + add
    new_sum = csum + np.where(add, lat, 0.0)
    new_p = new_sum / np.maximum(new_cnt, 1)
    new_best = np.where(new_cnt > 0, np.minimum(base, new_p), ob)
    contrib = vol * (ob - new_best)
    if shrink.any():
        contrib[shrink] = 0.0
    return contrib, shrink


class NumpyBackend(ComputeBackend):
    """Pure-numpy kernels; always available, always the reference."""

    name = "numpy"

    def initial_gains(self, base: np.ndarray, lat: np.ndarray) -> np.ndarray:
        return initial_gains(base, lat)

    def refresh_contrib(
        self,
        dist: np.ndarray,
        lat: np.ndarray,
        vol: np.ndarray,
        d0: np.ndarray,
        csum: np.ndarray,
        ccnt: np.ndarray,
        ob: np.ndarray,
        base: np.ndarray,
        d_reuse: float,
    ) -> Tuple[np.ndarray, np.ndarray]:
        return refresh_contrib(dist, lat, vol, d0, csum, ccnt, ob, base, d_reuse)


register_backend("numpy", NumpyBackend)
