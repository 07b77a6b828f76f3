"""Reference maths the tests compare the solvers against.

The package computes these quantities inside its phase kernels; the plain
forms here state them one formula at a time.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from mixpc.ccfl import CcflInstance, CcflTrialState
from mixpc.core import CoveringRow, PackingSystem


def _as_matrix(p: PackingSystem | np.ndarray) -> np.ndarray:
    return p.matrix if isinstance(p, PackingSystem) else np.asarray(p, dtype=np.float64)


def _check_dims(pt: np.ndarray, x: np.ndarray) -> None:
    if pt.ndim != 2 or x.ndim != 1 or pt.shape[1] != x.shape[0]:
        raise ValueError(
            f"dimension mismatch: matrix {pt.shape} vs vector {x.shape}"
        )


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


def smooth_max(pt: PackingSystem | np.ndarray, x: np.ndarray) -> float:
    """Log-sum-exp over the rows of ``pt @ x``.

    Bounded below by the exact row maximum and above by it plus ln m.
    """
    return smooth_max_and_rates(pt, x)[0]


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
    inst = state.instance
    cl = inst.clients[j]
    keep = inst.entry_cost(j) <= state.z_value
    fac, p, a = cl.facilities[keep], cl.demand[keep], cl.assign_cost[keep]
    zz, g = state.z_value, state.gamma
    t1 = state.load / (zz * g)
    hi1 = t1.max()
    w1 = np.exp(t1 - hi1)
    s1 = w1.sum()
    flat = state.x / g
    hi2 = flat.max()
    s2 = float(np.exp(flat - hi2).sum())
    e2 = np.exp(state.x[fac, j] / g - hi2)
    ind = (state.x[fac, j] == state.rowmax[fac]).astype(np.float64)
    c = inst.fixed_charge
    return (
        zz * ((p / zz) * (w1[fac] / s1) + e2 / s2) / g
        + (c[fac] / g) * (p / zz + ind)
        + a / g
    )


def ccfl_potential(a, c, x_j, rowmax, load, s2_rest, asum_rest, zz, gamma) -> float:
    """The ccfl potential ``Z est + sum_i c_i (v_i + w_i) + sum a_ij x_ij / gamma``.

    ``x_j`` and ``a`` hold the variables written out one by one, with their
    assignment costs; ``s2_rest`` and ``asum_rest`` hold the sums of
    ``exp(x / gamma)`` and ``a x`` over every other variable.
    """
    m = load.shape[0]
    hi1 = load[0]
    for k in range(1, m):
        if load[k] > hi1:
            hi1 = load[k]
    hi1 /= zz * gamma
    s1 = 0.0
    for k in range(m):
        s1 += math.exp(load[k] / (zz * gamma) - hi1)
    s2 = s2_rest
    for t in range(x_j.shape[0]):
        s2 += math.exp(x_j[t] / gamma)
    est = hi1 + math.log(s1) + math.log(s2)
    cl = 0.0
    cr = 0.0
    for k in range(m):
        cl += c[k] * load[k]
        cr += c[k] * rowmax[k]
    ax = 0.0
    for t in range(x_j.shape[0]):
        ax += a[t] * x_j[t]
    return zz * est + cl / (zz * gamma) + cr / gamma + (asum_rest + ax) / gamma


def reference_cost(instance: CcflInstance, z: float, gamma: float, x: np.ndarray) -> float:
    """``ccfl_potential`` of a whole (m, n) trial ``x``, every variable written out."""
    return ccfl_potential(
        instance.dense_assign_cost().ravel(),
        instance.fixed_charge,
        x.ravel(),
        x.max(axis=1),
        (instance.dense_demand() * x).sum(axis=1),
        0.0,
        0.0,
        z,
        gamma,
    )


class TieTracker:
    """Set-based record of which clients hold each facility's row maximum.

    Per facility, the set of clients tied at the maximum, updated at
    ``init_client`` and after the phase kernel; and the running maximum at
    client end as a dict, first set to the entry value.  A trial reads the
    first as ``x_j == rowmax[fac]`` and holds the second in ``rowmax``
    itself.
    """

    def __init__(self, m: int):
        self.ties: list[set[int]] = [set() for _ in range(m)]
        self.rowmax: dict[int, float] = {}
        self.z_ratio_log: dict[tuple[int, int], float] = {}

    def init_client(self, j: int, fac, x0, rowmax_before) -> None:
        for i, v, top in zip(fac.tolist(), x0.tolist(), rowmax_before.tolist()):
            if v > top:
                self.ties[i] = {j}
            elif v == top:
                self.ties[i].add(j)
            if i not in self.rowmax:
                self.rowmax[i] = v

    def at_max(self, j: int, fac) -> np.ndarray:
        return np.array([j in self.ties[i] for i in fac.tolist()], dtype=np.bool_)

    def client_end(self, j: int, fac, x_j, at_max, grew) -> None:
        """``at_max`` as the kernel left it; ``grew`` marks a variable that
        multiplied while at the maximum, so it now holds the maximum alone."""
        for t, i in enumerate(fac.tolist()):
            if at_max[t]:
                if grew[t]:
                    self.ties[i] = {j}
                else:
                    self.ties[i].add(j)
        for t, i in enumerate(fac.tolist()):
            zcur = max(self.rowmax[i], float(x_j[t]))
            self.z_ratio_log[(i, j)] = math.log(zcur / self.rowmax[i])
            self.rowmax[i] = zcur


def _solve_exact(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction] | None:
    """``a v = b`` by Gauss-Jordan elimination in rationals; None when singular."""
    k = len(b)
    rows = [list(r) + [bi] for r, bi in zip(a, b)]
    for col in range(k):
        piv = next((r for r in range(col, k) if rows[r][col] != 0), None)
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        top = rows[col]
        for r in range(k):
            f = rows[r][col]
            if r != col and f != 0:
                rows[r] = [x - f * y / top[col] for x, y in zip(rows[r], top)]
    return [rows[r][k] / rows[r][r] for r in range(k)]


def exact_ompc_opt(system: PackingSystem, rows: list[CoveringRow]) -> Fraction:
    """``min lambda s.t. C x >= 1, P x <= lambda, x >= 0`` in exact rationals.

    The program is bounded below (``lambda >= 0``) and its feasible set has
    a vertex (``x, lambda >= 0``), so the optimum sits at a vertex: a point
    where n+1 independent constraints hold with equality.  Every choice of
    n+1 constraints is solved; the least ``lambda`` over the feasible
    solutions is the optimum.  Each constraint is ``a . (x, lambda) >= b``.
    """
    n = system.n
    cons: list[tuple[list[Fraction], Fraction]] = []
    for row in rows:
        a = [Fraction(0)] * (n + 1)
        for j, c in zip(row.indices.tolist(), row.values.tolist()):
            a[j] = Fraction(c)
        cons.append((a, Fraction(1)))
    for prow in system.matrix.tolist():
        cons.append(([-Fraction(p) for p in prow] + [Fraction(1)], Fraction(0)))
    for j in range(n + 1):
        cons.append(([Fraction(int(t == j)) for t in range(n + 1)], Fraction(0)))
    best = None
    for tight in itertools.combinations(cons, n + 1):
        v = _solve_exact([a for a, _ in tight], [b for _, b in tight])
        if v is None or (best is not None and v[n] >= best):
            continue
        if all(sum(ai * vi for ai, vi in zip(a, v)) >= b for a, b in cons):
            best = v[n]
    if best is None:
        raise ValueError("no feasible vertex")
    return best
