"""Exact offline baselines: a dense simplex solver and small brute force.

Everything here exists to supply denominators for empirical competitive
ratios, so the implementation favours determinism and verifiable optimality
(primal and dual returned together) over speed.  The simplex is a two-phase
revised method with Bland's anti-cycling rule; problem sizes stay at desk
scale (a few hundred rows/columns).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CoveringRow, PackingSystem

__all__ = [
    "LpProblem",
    "LpSolution",
    "simplex_solve",
    "ompc_opt",
    "OmpcOptResult",
    "ccfl_opt1",
    "brute_force_zstar",
]

FEAS_TOL = 1e-8
PIVOT_TOL = 1e-10
_REFACTOR_EVERY = 64


@dataclass(frozen=True)
class LpProblem:
    """Dense LP: minimize c'x subject to ``lhs x <= rhs`` or ``>= rhs`` by row, x >= 0.

    ``senses[i]`` is ``"<="`` or ``">="`` and every ``rhs[i]`` is nonnegative.
    """

    objective: np.ndarray
    lhs: np.ndarray
    senses: tuple[str, ...]
    rhs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.objective, dtype=np.float64)
        a = np.asarray(self.lhs, dtype=np.float64)
        b = np.asarray(self.rhs, dtype=np.float64)
        if a.ndim != 2 or c.ndim != 1 or b.ndim != 1:
            raise ValueError("objective/lhs/rhs have wrong ranks")
        if a.shape != (b.size, c.size):
            raise ValueError("inconsistent LP dimensions")
        if len(self.senses) != b.size:
            raise ValueError("one sense per row required")
        for s in self.senses:
            if s not in ("<=", ">="):
                raise ValueError(f"unknown sense {s!r}")
        if not (
            np.all(np.isfinite(a)) and np.all(np.isfinite(b)) and np.all(np.isfinite(c))
        ):
            raise ValueError("LP data must be finite")
        if np.any(b < 0):
            raise ValueError("right-hand sides must be nonnegative")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "lhs", a)
        object.__setattr__(self, "rhs", b)


@dataclass(frozen=True)
class LpSolution:
    """Solver outcome; primal/duals populated only when status is optimal."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: float | None = None
    primal: np.ndarray | None = None
    duals: np.ndarray | None = None


class _Tableau:
    """Revised simplex working set: basis, its inverse, and basic values."""

    def __init__(self, a: np.ndarray, b: np.ndarray, basis: list[int]):
        self.a = a
        self.b = b
        self.basis = basis
        self.nr = a.shape[0]
        self.binv = np.eye(self.nr)
        self.xb = b.copy()
        self._since_refactor = 0

    def refactor(self) -> None:
        bmat = self.a[:, self.basis]
        self.binv = np.linalg.solve(bmat, np.eye(self.nr))
        self.xb = self.binv @ self.b
        self._since_refactor = 0

    def duals(self, c: np.ndarray) -> np.ndarray:
        return c[self.basis] @ self.binv

    def pivot(self, row: int, col: int, d: np.ndarray, piv: float) -> None:
        """Make column ``col`` basic in ``row``; ``d`` is ``B^-1 a[:, col]``."""
        self.binv[row, :] /= piv
        self.xb[row] /= piv
        nz = np.nonzero(d)[0]
        nz = nz[nz != row]
        self.binv[nz] -= d[nz, None] * self.binv[row]
        self.xb[nz] -= d[nz] * self.xb[row]
        self.basis[row] = col

    def run(self, c: np.ndarray, allowed: np.ndarray, max_iters: int) -> str:
        """Bland-rule iterations until optimal/unbounded for min c'x."""
        for _ in range(max_iters):
            y = self.duals(c)
            rc = c - y @ self.a
            rc[self.basis] = 0.0
            candidates = np.nonzero((rc < -PIVOT_TOL) & allowed)[0]
            if candidates.size == 0:
                return "optimal"
            enter = int(candidates[0])  # Bland: lowest eligible variable index
            d = self.binv @ self.a[:, enter]
            pos = d > PIVOT_TOL
            if not pos.any():
                return "unbounded"
            ratios = np.where(pos, self.xb / np.where(pos, d, 1.0), np.inf)
            rmin = ratios.min()
            near = np.nonzero(ratios <= rmin + 1e-12)[0]
            # Bland again: break ratio ties on the smallest basic variable
            leave = int(min(near, key=lambda i: self.basis[i]))
            self.pivot(leave, enter, d, d[leave])
            self._since_refactor += 1
            if self._since_refactor >= _REFACTOR_EVERY:
                self.refactor()
        raise RuntimeError("simplex iteration limit exceeded")


def simplex_solve(problem: LpProblem) -> LpSolution:
    """Two-phase revised simplex; deterministic, returns primal and duals.

    Columns are the variables, one slack per row (``+1`` on ``<=`` rows,
    ``-1`` on ``>=`` rows), then one artificial per ``>=`` row.
    """
    nv = problem.objective.size
    b = problem.rhs
    nr = b.size
    ge = np.array([s == ">=" for s in problem.senses], dtype=bool)
    ge_rows = np.nonzero(ge)[0]
    art_cols = nv + nr + np.arange(ge_rows.size)
    ncols = nv + nr + ge_rows.size
    a = np.zeros((nr, ncols))
    a[:, :nv] = problem.lhs
    a[np.arange(nr), nv + np.arange(nr)] = np.where(ge, -1.0, 1.0)
    a[ge_rows, art_cols] = 1.0
    basis = nv + np.arange(nr)
    basis[ge_rows] = art_cols
    max_iters = 5000 + 200 * (nr + ncols)

    tab = _Tableau(a, b, basis.tolist())
    allowed = np.ones(ncols, dtype=bool)
    if ge_rows.size:
        c1 = np.zeros(ncols)
        c1[art_cols] = 1.0
        status = tab.run(c1, allowed, max_iters)
        if status != "optimal":  # phase 1 cannot be unbounded below 0
            raise RuntimeError("phase-1 simplex did not converge")
        if float(c1[tab.basis] @ tab.xb) > FEAS_TOL:
            return LpSolution(status="infeasible")
        allowed[art_cols] = False
        # pivot artificials out of the basis where possible; a row whose
        # artificial cannot leave is redundant and keeps it at value 0
        for rowi in np.nonzero(~allowed[tab.basis])[0]:
            lane = tab.binv[rowi, :] @ tab.a
            enter = np.nonzero(allowed & (np.abs(lane) > 1e-7))[0]
            if enter.size:
                j = int(enter[0])
                tab.pivot(rowi, j, tab.binv @ tab.a[:, j], lane[j])

    c2 = np.zeros(ncols)
    c2[:nv] = problem.objective
    status = tab.run(c2, allowed, max_iters)
    if status == "unbounded":
        return LpSolution(status="unbounded")

    x_full = np.zeros(ncols)
    x_full[tab.basis] = tab.xb
    return LpSolution(
        status="optimal",
        objective=float(problem.objective @ x_full[:nv]),
        primal=np.maximum(x_full[:nv], 0.0),
        duals=tab.duals(c2),
    )


# ---------------------------------------------------------------------------
# Problem assemblies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OmpcOptResult:
    value: float
    x: np.ndarray
    y: np.ndarray  # one per covering row, feasible for the dual
    z: np.ndarray  # one per packing row
    dual_value: float


def ompc_opt(system: PackingSystem, rows: list[CoveringRow]) -> OmpcOptResult:
    """Offline optimum of: min lambda s.t. C x >= 1, P x <= lambda.

    Variables are ``(x, lambda)``; covering rows come first so the returned
    duals split into the covering multipliers ``y`` and (negated) packing
    multipliers ``z`` of the dual program.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("need at least one covering row")
    m, n = system.m, system.n
    mc = len(rows)
    nv = n + 1
    lhs = np.zeros((mc + m, nv))
    senses: list[str] = []
    rhs = np.zeros(mc + m)
    for i, row in enumerate(rows):
        lhs[i, row.indices] = row.values
        senses.append(">=")
        rhs[i] = 1.0
    lhs[mc : mc + m, :n] = system.matrix
    lhs[mc : mc + m, n] = -1.0
    senses.extend(["<="] * m)
    obj = np.zeros(nv)
    obj[n] = 1.0
    sol = simplex_solve(LpProblem(obj, lhs, tuple(senses), rhs))
    if sol.status != "optimal":
        raise RuntimeError(f"offline packing/covering LP came back {sol.status}")
    y = np.maximum(sol.duals[:mc], 0.0)
    z = np.maximum(-sol.duals[mc:], 0.0)
    return OmpcOptResult(
        value=float(sol.objective),
        x=sol.primal[:n],
        y=y,
        z=z,
        dual_value=float(y.sum()),
    )


def ccfl_opt1(instance, z_value: float) -> LpSolution:
    """Optimum of the parametric fractional assignment LP at guess ``z_value``.

    Variables are the per-client assignments over their candidate sets,
    the facility openness vector, and the congestion bound; infeasible
    status is returned when some client has no candidate facility.
    """
    m = instance.m
    n = instance.n
    clients = instance.clients
    masks = [instance.entry_cost(j) <= z_value for j in range(n)]
    if not all(mask.any() for mask in masks):
        return LpSolution(status="infeasible")
    # variable layout: x-blocks per client, then y (m), then lambda
    fac = np.concatenate([cl.facilities[mk] for cl, mk in zip(clients, masks)])
    demand = np.concatenate([cl.demand[mk] for cl, mk in zip(clients, masks)])
    cost = np.concatenate([cl.assign_cost[mk] for cl, mk in zip(clients, masks)])
    owner = np.repeat(np.arange(n), [int(mk.sum()) for mk in masks])
    nx = fac.size
    ny_at = nx
    lam_at = nx + m
    xs = np.arange(nx)
    ys = np.arange(m)

    # rows, all ">=": per client sum_t x >= 1; per (client, candidate)
    # y_i - x >= 0; per facility z y_i - sum demand x >= 0; per facility
    # lambda - y_i >= 0; lambda >= 1
    con_at = n + nx
    lam_rows = con_at + m
    lhs = np.zeros((n + nx + 2 * m + 1, nx + m + 1))
    lhs[owner, xs] = 1.0
    lhs[n + xs, ny_at + fac] = 1.0
    lhs[n + xs, xs] = -1.0
    lhs[con_at + ys, ny_at + ys] = z_value
    lhs[con_at + fac, xs] = -demand
    lhs[lam_rows + ys, lam_at] = 1.0
    lhs[lam_rows + ys, ny_at + ys] = -1.0
    lhs[-1, lam_at] = 1.0
    rhs = np.zeros(lhs.shape[0])
    rhs[:n] = 1.0
    rhs[-1] = 1.0

    obj = np.concatenate([cost, instance.fixed_charge, [z_value]])
    return simplex_solve(LpProblem(obj, lhs, (">=",) * rhs.size, rhs))


def brute_force_zstar(instance, max_m: int = 8, max_n: int = 12) -> float:
    """Exact minimum total cost (congestion + fixed charges + assignment).

    Depth-first search over integral assignments with an additive lower
    bound for pruning; refuses instances beyond the size guard.
    """
    m, n = instance.m, instance.n
    if m > max_m or n > max_n:
        raise ValueError(f"instance too large for brute force ({m}x{n})")
    clients = instance.clients
    choices = []
    for j in range(n):
        cl = clients[j]
        if cl.facilities.size == 0:
            raise ValueError(f"client {j} has no feasible facility")
        order = np.argsort(
            instance.fixed_charge[cl.facilities] + cl.demand + cl.assign_cost,
            kind="stable",
        )
        choices.append(
            [
                (int(cl.facilities[t]), float(cl.demand[t]), float(cl.assign_cost[t]))
                for t in order
            ]
        )
    # heavier clients first prunes much harder
    client_order = sorted(
        range(n), key=lambda j: -max(d for _, d, _ in choices[j])
    )
    suffix_min_assign = np.zeros(n + 1)
    for pos in range(n - 1, -1, -1):
        j = client_order[pos]
        suffix_min_assign[pos] = suffix_min_assign[pos + 1] + min(
            a for _, _, a in choices[j]
        )

    cfix = instance.fixed_charge
    best = math.inf
    loads = np.zeros(m)
    open_mask = np.zeros(m, dtype=bool)

    def greedy() -> float:
        lo = np.zeros(m)
        om = np.zeros(m, dtype=bool)
        fixed = assign = 0.0
        for pos in range(n):
            j = client_order[pos]
            cands = []
            for i, d, acost in choices[j]:
                delta_fix = 0.0 if om[i] else cfix[i]
                new_max = max(lo.max(), lo[i] + d)
                cands.append((delta_fix + acost + new_max, i, d, acost))
            _, i, d, acost = min(cands)
            if not om[i]:
                om[i] = True
                fixed += cfix[i]
            lo[i] += d
            assign += acost
        return fixed + assign + lo.max()

    best = greedy()

    def dfs(pos: int, fixed: float, assign: float, maxload: float) -> None:
        nonlocal best
        bound = fixed + assign + maxload + suffix_min_assign[pos]
        if bound >= best - 1e-12:
            return
        if pos == n:
            best = fixed + assign + maxload
            return
        j = client_order[pos]
        for i, d, acost in choices[j]:
            opened = open_mask[i]
            dfix = 0.0 if opened else cfix[i]
            loads[i] += d
            open_mask[i] = True
            dfs(pos + 1, fixed + dfix, assign + acost, max(maxload, loads[i]))
            loads[i] -= d
            open_mask[i] = opened

    dfs(0, 0.0, 0.0, 0.0)
    return float(best)
