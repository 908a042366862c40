"""Shared-memory numpy arrays for the fork-based solver worker pool.

The parallel solver shares the UG×peering latency and distance matrices —
and a scratch buffer for per-round marginal gains — between the parent and
its shard workers without pickling a single scenario object.  Each
:class:`SharedArray` owns one POSIX shared-memory segment exposing a numpy
view; segments are created by the parent *before* forking, so children
inherit open file descriptors and simply map the same pages (MAP_SHARED:
worker writes are immediately visible to the parent once the worker's reply
arrives over the control pipe).
"""

from __future__ import annotations

import logging
from multiprocessing import shared_memory
from typing import Sequence, Tuple

import numpy as np

from repro.telemetry import METRICS

logger = logging.getLogger(__name__)


class SharedArray:
    """A numpy array backed by a named POSIX shared-memory segment."""

    def __init__(
        self,
        shape: Sequence[int],
        dtype: "np.dtype" = np.float64,
        fill: float = np.nan,
    ) -> None:
        shape = tuple(int(s) for s in shape)
        nbytes = int(np.dtype(dtype).itemsize * max(1, int(np.prod(shape))))
        self._shm = shared_memory.SharedMemory(create=True, size=nbytes)
        self.shape: Tuple[int, ...] = shape
        self.dtype = np.dtype(dtype)
        self.array = np.ndarray(shape, dtype=dtype, buffer=self._shm.buf)
        if fill is not None:
            self.array.fill(fill)
        self._closed = False

    @property
    def name(self) -> str:
        return self._shm.name

    def close(self, unlink: bool = False) -> None:
        """Release the local mapping (and destroy the segment if ``unlink``).

        Expected teardown races — the segment already unlinked by a peer
        (``FileNotFoundError``) or a still-live exported buffer view
        (``BufferError``) — stay silent; anything else is counted in the
        ``parallel.shm_teardown_errors`` metric and logged so leaked
        shared-memory segments are visible instead of swallowed.
        """
        if self._closed:
            return
        self._closed = True
        # Drop the numpy view first: SharedMemory.close() invalidates buf.
        self.array = None
        name = self._shm.name
        try:
            self._shm.close()
        except (FileNotFoundError, BufferError):
            pass
        except Exception:
            METRICS.counter("parallel.shm_teardown_errors").add()
            logger.warning(
                "unexpected error closing shared-memory segment %s", name,
                exc_info=True,
            )
        if unlink:
            try:
                self._shm.unlink()
            except (FileNotFoundError, BufferError):
                pass
            except Exception:
                METRICS.counter("parallel.shm_teardown_errors").add()
                logger.warning(
                    "unexpected error unlinking shared-memory segment %s",
                    name,
                    exc_info=True,
                )

    def __del__(self) -> None:  # pragma: no cover - GC-timing dependent
        try:
            self.close()
        except Exception:
            pass
