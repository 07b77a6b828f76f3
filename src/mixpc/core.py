"""Exponential-penalty primitives shared by the online solvers.

The solvers never touch the true worst-case packing violation directly.
They work with a smooth log-sum-exp estimate of it,

    smooth_max(P, x) = ln sum_k exp((P x)_k),

which sits within ln m of the exact maximum.  The solvers evaluate it
inline in their phase kernels (``_kernels``), with the usual shift trick
(subtract the largest exponent) so it stays finite right up to their
failure boundary; ``tests/reference_maths.py`` states it as a function.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "PackingSystem",
    "CoveringRow",
    "violation",
]


@dataclass(frozen=True)
class PackingSystem:
    """Offline packing constraints ``P x <= lambda``, coefficients >= 0.

    The matrix is taken as fixed once the system is built: ``d``, ``rho``,
    ``column_nonzeros()`` and ``scaled(gamma)`` are computed from it once
    and kept.  ``scaled`` keeps the matrix for the last ``gamma`` it was
    asked for only, dropping the old one before it builds a new one, so at
    most one scaled copy is held.  ``column_nonzeros()`` and ``scaled``
    return read-only arrays.  Changing ``matrix`` in place after
    construction leaves all of these stale.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        p = np.ascontiguousarray(np.asarray(self.matrix, dtype=np.float64))
        if p.ndim != 2 or p.size == 0:
            raise ValueError("packing matrix must be a nonempty 2-d array")
        if not np.all(np.isfinite(p)):
            raise ValueError("packing coefficients must be finite")
        if np.any(p < 0):
            raise ValueError("packing coefficients must be nonnegative")
        if not np.any(p > 0):
            raise ValueError("packing matrix needs at least one positive entry")
        object.__setattr__(self, "matrix", p)

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.matrix.shape[1]

    @cached_property
    def d(self) -> int:
        """Largest number of nonzeros in any packing row."""
        return int(np.count_nonzero(self.matrix, axis=1).max())

    @cached_property
    def rho(self) -> float:
        """Ratio of the largest to the smallest strictly positive coefficient."""
        pos = self.matrix[self.matrix > 0]
        return float(pos.max() / pos.min())

    @cached_property
    def _column_nonzeros(self) -> np.ndarray:
        return _read_only(np.count_nonzero(self.matrix, axis=0))

    @cached_property
    def _scaled_memo(self) -> dict[float, np.ndarray]:
        return {}

    # Plain methods with the memo behind them, not cached properties:
    # perfbench's tracer wraps both names as functions.
    def column_nonzeros(self) -> np.ndarray:
        """Nonzeros per packing column (read-only, computed once)."""
        return self._column_nonzeros

    def scaled(self, gamma: float) -> np.ndarray:
        """``matrix / gamma`` (read-only), kept for the last ``gamma`` only."""
        if gamma <= 0:
            raise ValueError("scaling parameter must be positive")
        memo = self._scaled_memo
        pt = memo.get(gamma)
        if pt is None:
            memo.clear()  # free the old matrix before allocating the new one
            pt = memo[gamma] = _read_only(self.matrix / gamma)
        return pt


@dataclass(frozen=True)
class CoveringRow:
    """One online covering constraint ``sum_j c_j x_j >= 1`` (sparse, c_j > 0)."""

    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices, dtype=np.int64).ravel()
        val = np.asarray(self.values, dtype=np.float64).ravel()
        if idx.size == 0:
            raise ValueError("covering row must have at least one entry")
        if idx.size != val.size:
            raise ValueError("covering row indices/values length mismatch")
        if np.unique(idx).size != idx.size:
            raise ValueError("covering row has duplicate column indices")
        if np.any(idx < 0):
            raise ValueError("covering row indices must be nonnegative")
        if not np.all(np.isfinite(val)) or np.any(val <= 0):
            raise ValueError("covering coefficients must be finite and positive")
        order = np.argsort(idx)
        object.__setattr__(self, "indices", np.ascontiguousarray(idx[order]))
        object.__setattr__(self, "values", np.ascontiguousarray(val[order]))

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    @property
    def max_coeff(self) -> float:
        return float(self.values.max())

    @property
    def min_coeff(self) -> float:
        return float(self.values.min())

    def coverage(self, x: np.ndarray) -> float:
        """Value of the row at ``x``."""
        return float(self.values @ np.asarray(x, dtype=np.float64)[self.indices])


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _as_matrix(p: PackingSystem | np.ndarray) -> np.ndarray:
    return p.matrix if isinstance(p, PackingSystem) else np.asarray(p, dtype=np.float64)


def _check_dims(pt: np.ndarray, x: np.ndarray) -> None:
    if pt.ndim != 2 or x.ndim != 1 or pt.shape[1] != x.shape[0]:
        raise ValueError(
            f"dimension mismatch: matrix {pt.shape} vs vector {x.shape}"
        )


def violation(p: PackingSystem | np.ndarray, x: np.ndarray) -> float:
    """Exact worst packing row value ``max_k (P x)_k``."""
    pm = _as_matrix(p)
    x = np.asarray(x, dtype=np.float64)
    _check_dims(pm, x)
    return float((pm @ x).max())
