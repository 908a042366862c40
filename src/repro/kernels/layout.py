"""Memory-budgeted layout planning for the evaluator's dense matrices.

Every world materialises two dense float64 matrices — latency and
distance, UG rows × peering columns — and fills them in row chunks so the
fill's transient index arrays stay bounded at the ``mega`` preset's scale
(100k+ UGs × ~2k peering columns).  :func:`plan_matrix_layout` makes the layout
decisions explicit and testable: value/index dtypes, chunk height, exact
byte costs, and whether the plan fits a caller-supplied budget (the CI
peak-RSS gate is calibrated against these numbers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

#: Default fill-chunk size: ~64 MiB of matrix rows per chunk keeps the
#: fill's transient per-slot arrays small relative to the matrices
#: themselves.
DEFAULT_CHUNK_BYTES = 64 * 1024 * 1024


class MemoryBudgetExceeded(RuntimeError):
    """The planned dense matrices do not fit the caller's byte budget."""


@dataclass(frozen=True)
class MatrixLayoutPlan:
    """A concrete dtype/stride/chunk plan for the dense evaluator matrices."""

    n_rows: int
    n_cols: int
    #: Matrix element dtype — always float64: kernel bit-exactness is
    #: defined over IEEE doubles, so values never get narrowed.
    value_dtype: np.dtype
    #: Dtype for row-index (gather) arrays: int32 halves index memory when
    #: every row index fits, int64 otherwise.
    index_dtype: np.dtype
    #: Rows filled per chunk during materialization.
    chunk_rows: int
    #: Bytes of ONE dense matrix (latency or distance).
    matrix_bytes: int
    #: Bytes of both matrices together (latency + distance).
    total_bytes: int
    #: Optional budget the plan was checked against (bytes).
    budget_bytes: Optional[int] = None

    @property
    def fits_budget(self) -> bool:
        """True when no budget was given or the matrices fit inside it."""
        return self.budget_bytes is None or self.total_bytes <= self.budget_bytes

    def require_within_budget(self) -> "MatrixLayoutPlan":
        if not self.fits_budget:
            raise MemoryBudgetExceeded(
                f"dense matrices need {self.total_bytes / 2**20:.0f} MiB "
                f"(2 × {self.n_rows}×{self.n_cols} float64) but the budget "
                f"is {self.budget_bytes / 2**20:.0f} MiB"
            )
        return self

    @property
    def n_chunks(self) -> int:
        if self.n_rows == 0:
            return 0
        return -(-self.n_rows // self.chunk_rows)


def plan_matrix_layout(
    n_rows: int,
    n_cols: int,
    *,
    budget_bytes: Optional[int] = None,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> MatrixLayoutPlan:
    """Choose dtypes and chunking for an ``n_rows × n_cols`` dense pair.

    Raises :class:`MemoryBudgetExceeded` immediately when a budget is
    given and the two float64 matrices cannot fit — better to refuse up
    front than to OOM mid-fill.
    """
    if n_rows < 0 or n_cols < 0:
        raise ValueError("matrix dimensions must be non-negative")
    if chunk_bytes < 1:
        raise ValueError("chunk_bytes must be positive")
    value_dtype = np.dtype(np.float64)
    row_bytes = n_cols * value_dtype.itemsize
    matrix_bytes = n_rows * row_bytes
    index_dtype = np.dtype(
        np.int32 if n_rows <= np.iinfo(np.int32).max else np.int64
    )
    if row_bytes == 0:
        chunk_rows = max(1, n_rows)
    else:
        chunk_rows = max(1, min(n_rows or 1, chunk_bytes // row_bytes or 1))
    return MatrixLayoutPlan(
        n_rows=n_rows,
        n_cols=n_cols,
        value_dtype=value_dtype,
        index_dtype=index_dtype,
        chunk_rows=chunk_rows,
        matrix_bytes=matrix_bytes,
        total_bytes=2 * matrix_bytes,
        budget_bytes=budget_bytes,
    ).require_within_budget()
