"""Reference maths the tests compare the solvers against.

The package computes these quantities inside its phase kernels; the plain
forms here state them one formula at a time.
"""

from __future__ import annotations

import numpy as np

from mixpc.ccfl import CcflTrialState, _client_arrays
from mixpc.core import CoveringRow, PackingSystem, _as_matrix, _check_dims


def smooth_max_and_rates(
    pt: PackingSystem | np.ndarray, x: np.ndarray
) -> tuple[float, np.ndarray]:
    """One-pass smooth max and its gradient, sharing the shifted normalizer."""
    pt = _as_matrix(pt)
    x = np.asarray(x, dtype=np.float64)
    _check_dims(pt, x)
    v = pt @ x
    hi = v.max()
    w = np.exp(v - hi)
    s = w.sum()
    return float(hi + np.log(s)), (w @ pt) / s


def rates(pt: PackingSystem | np.ndarray, x: np.ndarray) -> np.ndarray:
    """Growth rate of ``smooth_max`` per variable: softmax-weighted column sums."""
    return smooth_max_and_rates(pt, x)[1]


def step_size(row: CoveringRow, rate_vec: np.ndarray, mu: float) -> float:
    """Update scale for one covering row.

    Chosen so the multiplier ``1 + eps * c_j / rate_j`` never exceeds ``mu``
    over the row, with equality at the argmin.  Variables carrying no packing
    weight (rate 0) are excluded; they are incremented directly elsewhere.
    """
    rate_vec = np.asarray(rate_vec, dtype=np.float64)
    r = rate_vec[row.indices]
    mask = r > 0
    if not mask.any():
        raise ValueError("covering row has no overlap with any packing constraint")
    return float((mu - 1.0) * np.min(r[mask] / row.values[mask]))


def ccfl_rates(state: CcflTrialState, j: int) -> np.ndarray:
    """Rate of change of the potential per candidate facility of client j."""
    fac, p, a = _client_arrays(state, j)
    zz, g = state.z_value, state.gamma
    t1 = state.load / (zz * g)
    hi1 = t1.max()
    w1 = np.exp(t1 - hi1)
    s1 = w1.sum()
    flat = state.x / g
    hi2 = flat.max()
    s2 = float(np.exp(flat - hi2).sum())
    e2 = np.exp(state.x[fac, j] / g - hi2)
    ind = np.array(
        [1.0 if j in state.argmax_track[int(i)] else 0.0 for i in fac]
    )
    c = state.instance.fixed_charge
    return (
        zz * ((p / zz) * (w1[fac] / s1) + e2 / s2) / g
        + (c[fac] / g) * (p / zz + ind)
        + a / g
    )
