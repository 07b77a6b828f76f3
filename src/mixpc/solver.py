"""Online solver for mixed packing/covering programs.

Packing constraints are known offline; covering rows arrive one at a time
and every variable may only grow.  Each *trial* runs the multiplicative
update loop at a fixed scaling ``gamma``: while the active row is unmet,
all of its variables are multiplied by ``1 + eps * c_j / rate_j`` (at most
a factor ``mu``, exactly ``mu`` at the argmin), a dual coordinate collects
``e * eps`` per phase, and the trial aborts once the scaled violation
reaches ``3 ln(e m)``.  On abort the wrapper doubles ``gamma``, starts a
fresh trial, and replays the offending row; the solution is the sum of all
trials' variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .core import _UNKNOWN_VARIABLE, CoveringRow, PackingSystem, violation

__all__ = [
    "OmpcTrialState",
    "TrialRecord",
    "OmpcSolution",
    "OnlineOmpcSolver",
    "free_entry",
    "start_scale",
    "start_point",
    "init_trial",
    "process_constraint",
    "dual_certificate",
    "solve_online",
]

# floating-point guard: a row counts as satisfied at 1 - SAT_SLACK
SAT_SLACK = 1e-12


def mu_for(m: int) -> float:
    """Per-phase growth cap ``1 + 1/(3 ln(e m))``."""
    return 1.0 + 1.0 / (3.0 * math.log(math.e * m))


def fail_level_for(m: int) -> float:
    """Scaled-violation threshold ``3 ln(e m)`` that aborts a trial."""
    return 3.0 * math.log(math.e * m)


@dataclass
class OmpcTrialState:
    """Mutable per-trial solver state.

    ``pvx`` caches the scaled packing image of ``x``; ``z_running`` holds,
    per packing row, the running maximum of its softmax weight over all
    snapshots (initial point and every phase end); ``max_scaled_violation``
    tracks the largest scaled violation seen at those snapshots, and
    ``min_pd_gap`` the least per-phase primal-dual gap (dual increase minus
    estimate increase) over the trial's phases.
    """

    system: PackingSystem
    gamma: float
    mu: float
    x: np.ndarray
    pvx: np.ndarray
    z_running: np.ndarray
    duals_y: dict[int, float]
    max_scaled_violation: float
    failed: bool = False
    rows_seen: list[int] = field(default_factory=list)
    phases_per_row: dict[int, int] = field(default_factory=dict)
    min_pd_gap: float = math.inf

    def lambda_value(self) -> float:
        """Unscaled worst packing row value of this trial's variables."""
        return violation(self.system, self.x)


def free_entry(nonzeros: np.ndarray, row: CoveringRow) -> int | None:
    """Position in ``row`` of its lowest variable with no packing entry, by
    the column counts ``nonzeros``, or None.  A *free* row has one."""
    zero_cols = np.flatnonzero(nonzeros[row.indices] == 0)
    return int(zero_cols[0]) if zero_cols.size else None


def start_scale(system: PackingSystem, first_row: CoveringRow) -> float:
    """The first trial's scale ``gamma0 = max P / (d1 rho kappa1)``."""
    d1 = max(system.d, first_row.nnz)
    return system.matrix.max() / (d1 * system.rho * first_row.max_coeff)


def start_point(system: PackingSystem, first_row: CoveringRow, gamma: float) -> float:
    """Every variable's start value ``x0 = 1 / (d1^2 rho kappa1)``.

    ``d1`` is the largest support over the packing rows and the first
    covering row that is not free; ``kappa1`` that row's largest
    coefficient.  Raises
    ``ValueError`` when ``x0`` or ``gamma`` is not positive and finite,
    which happens when the coefficients span more than floats hold.
    """
    d1 = max(system.d, first_row.nnz)
    kappa1 = first_row.max_coeff
    x0 = 1.0 / (d1 * d1 * system.rho * kappa1)
    if not (0.0 < x0 < math.inf and 0.0 < gamma < math.inf):
        raise ValueError(
            f"coefficient range too wide: packing max/min {system.rho:g} and "
            f"first covering row max {kappa1:g} put the start point at {x0:g} "
            f"and the scale at {gamma:g}; both must be positive and finite"
        )
    return x0


def init_trial(
    system: PackingSystem,
    gamma: float,
    first_row: CoveringRow,
) -> OmpcTrialState:
    """Fresh trial with every variable at ``start_point``."""
    x = np.full(system.n, start_point(system, first_row, gamma))
    pt = system.scaled(gamma)
    pvx = pt @ x
    hi = pvx.max()
    w = np.exp(pvx - hi)
    z = w / w.sum()
    return OmpcTrialState(
        system=system,
        gamma=float(gamma),
        mu=mu_for(system.m),
        x=x,
        pvx=pvx,
        z_running=z,
        duals_y={},
        max_scaled_violation=float(hi),
    )


def process_constraint(state: OmpcTrialState, row: CoveringRow, row_id: int) -> bool:
    """Run phases until the row is met; returns False if the trial failed.

    A row already met runs no phase and changes nothing but its own
    records.  Variables whose packing column is all zero carry no penalty
    weight, so one of them (lowest index) is raised outright to cover the
    row.
    """
    if state.failed:
        raise RuntimeError("trial already failed; start a new trial")
    # the gather is the index check: CoveringRow rejects negative indices,
    # so only an index past n fails it, before any record changes
    try:
        xi = state.x[row.indices]
    except IndexError:
        raise ValueError(_UNKNOWN_VARIABLE) from None
    state.rows_seen.append(row_id)
    state.duals_y.setdefault(row_id, 0.0)
    state.phases_per_row.setdefault(row_id, 0)
    nonzeros = state.system.column_nonzeros()
    pt = state.system.scaled(state.gamma)

    # a row met at entry costs one dot product, not the kernel's softmax;
    # ndarray.dot is the same BLAS ddot as the kernel's @, without its dispatch
    if not row.values.dot(xi) < 1.0 - SAT_SLACK:
        return True

    t = free_entry(nonzeros, row)
    if t is not None:
        j = int(row.indices[t])
        state.x[j] = max(state.x[j], 1.0 / row.values[t])
        return True

    status, phases, dual_inc, max_tl, min_gap = _kernels.ompc_row_phases(
        pt,
        row.indices,
        row.values,
        state.x,
        state.pvx,
        state.z_running,
        state.max_scaled_violation,
        state.mu,
        fail_level_for(state.system.m),
        SAT_SLACK,
    )
    state.phases_per_row[row_id] += phases
    state.duals_y[row_id] += dual_inc
    state.max_scaled_violation = float(max_tl)
    state.min_pd_gap = min(state.min_pd_gap, float(min_gap))
    if status == _kernels.FAILED:
        state.failed = True
        return False
    return True


def dual_certificate(
    state: OmpcTrialState, sigma: float
) -> tuple[dict[int, float], np.ndarray]:
    """Scale the trial's duals into a feasible point of the dual program.

    With ``nu = ln(e m) + max`` scaled violation, returns
    ``y * gamma / (sigma nu)`` (keyed by covering-row id) and ``z / nu``;
    the pair satisfies both dual constraint families.
    """
    if not state.rows_seen:
        raise ValueError("trial processed no covering rows")
    nu = math.log(math.e * state.system.m) + state.max_scaled_violation
    scale = state.gamma / (sigma * nu)
    y_scaled = {i: v * scale for i, v in state.duals_y.items()}
    return y_scaled, state.z_running / nu


@dataclass(frozen=True)
class TrialRecord:
    gamma: float
    failed: bool
    phases: int
    state: OmpcTrialState


@dataclass(frozen=True)
class OmpcSolution:
    x_total: np.ndarray
    lambda_value: float
    trials: tuple[TrialRecord, ...]


class OnlineOmpcSolver:
    """Streaming interface: feed covering rows, read back the aggregate x.

    A free row (``free_entry``) is met at no load and says nothing about
    OPT: until a trial starts, it is covered in the closed aggregate as
    ``process_constraint`` would.  The first row that is not free fixes
    ``d1``/``kappa1`` and the starting scale
    ``gamma = max p_kj / (d1 rho kappa1)``; afterwards every failed trial
    doubles ``gamma`` and replays the row that broke it, and a row offered
    after ``finish`` resumes at the last trial's ``gamma``.  Rows satisfied
    in earlier trials keep their coverage through the aggregate.
    """

    def __init__(self, system: PackingSystem):
        self.system = system
        self._x_closed = np.zeros(system.n)
        self._records: list[TrialRecord] = []
        self._state: OmpcTrialState | None = None
        self._first_row: CoveringRow | None = None
        self._rows_offered = 0

    @property
    def x_total(self) -> np.ndarray:
        if self._state is None:
            return self._x_closed.copy()
        return self._x_closed + self._state.x

    def offer(self, row: CoveringRow) -> None:
        """Process one covering row; ``x_total`` then covers it.  A row
        rejected with ``ValueError`` opens no trial and takes no id."""
        row_id = self._rows_offered
        if self._state is None:
            if row.indices[-1] >= self.system.n:  # indices are sorted
                raise ValueError(_UNKNOWN_VARIABLE)
            if self._first_row is None:
                t = free_entry(self.system.column_nonzeros(), row)
                if t is not None:
                    self._rows_offered += 1
                    if row.coverage(self._x_closed) < 1.0 - SAT_SLACK:
                        j = int(row.indices[t])
                        self._x_closed[j] = max(self._x_closed[j], 1.0 / row.values[t])
                    return
                gamma = start_scale(self.system, row)
                self._state = init_trial(self.system, gamma, row)
                self._first_row = row
            else:
                gamma = self._records[-1].gamma
                self._state = init_trial(self.system, gamma, self._first_row)
        while not process_constraint(self._state, row, row_id):
            self._retire()
            self._state = init_trial(
                self.system, self._records[-1].gamma * 2.0, self._first_row
            )
        self._rows_offered += 1

    def _retire(self) -> None:
        st = self._state
        rec = TrialRecord(
            gamma=st.gamma,
            failed=st.failed,
            phases=sum(st.phases_per_row.values()),
            state=st,
        )
        self._records.append(rec)
        self._x_closed += st.x
        self._state = None

    def finish(self) -> OmpcSolution:
        """Close the active trial and package the run."""
        if self._state is not None:
            self._retire()
        x = self._x_closed.copy()
        return OmpcSolution(
            x_total=x,
            lambda_value=violation(self.system, x),
            trials=tuple(self._records),
        )


def solve_online(
    system: PackingSystem, rows: "list[CoveringRow]"
) -> OmpcSolution:
    """Feed an ordered stream of covering rows through the doubling solver."""
    rows = list(rows)
    if not rows:
        raise ValueError("covering stream must be nonempty")
    solver = OnlineOmpcSolver(system)
    for row in rows:
        solver.offer(row)
    return solver.finish()
