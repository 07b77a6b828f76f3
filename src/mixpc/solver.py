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
from .core import CoveringRow, PackingSystem, violation

__all__ = [
    "OmpcTrialState",
    "TrialRecord",
    "OmpcSolution",
    "OnlineOmpcSolver",
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
    phase_index: int = 0
    failed: bool = False
    rows_seen: list[int] = field(default_factory=list)
    phases_per_row: dict[int, int] = field(default_factory=dict)
    min_pd_gap: float = math.inf

    @property
    def scaled_matrix(self) -> np.ndarray:
        return self.system.scaled(self.gamma)

    def lambda_value(self) -> float:
        """Unscaled worst packing row value of this trial's variables."""
        return violation(self.system, self.x)


def start_scale(system: PackingSystem, first_row: CoveringRow) -> float:
    """The first trial's scale ``gamma0 = max P / (d1 rho kappa1)``."""
    d1 = max(system.d, first_row.nnz)
    return system.matrix.max() / (d1 * system.rho * first_row.max_coeff)


def start_point(system: PackingSystem, first_row: CoveringRow, gamma: float) -> float:
    """Every variable's start value ``x0 = 1 / (d1^2 rho kappa1)``.

    ``d1`` is the largest support over the packing rows and the first
    covering row; ``kappa1`` the first row's largest coefficient.  Raises
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


def process_constraint(
    state: OmpcTrialState, row: CoveringRow, row_id: int | None = None
) -> bool:
    """Run phases until the row is met; returns False if the trial failed.

    Variables whose packing column is all zero carry no penalty weight, so
    one of them (lowest index) is raised outright to cover the row.
    """
    if state.failed:
        raise RuntimeError("trial already failed; start a new trial")
    # CoveringRow sorts its indices, so the last one is the largest
    if row.indices[-1] >= state.system.n:
        raise ValueError("covering row references unknown variables")
    if row_id is None:
        row_id = len(state.rows_seen)
    state.rows_seen.append(row_id)
    state.duals_y.setdefault(row_id, 0.0)

    zero_cols = np.flatnonzero(state.system.column_nonzeros()[row.indices] == 0)
    if zero_cols.size and row.coverage(state.x) < 1.0 - SAT_SLACK:
        t = int(zero_cols[0])
        j = int(row.indices[t])
        state.x[j] = max(state.x[j], 1.0 / row.values[t])
        state.phases_per_row[row_id] = state.phases_per_row.get(row_id, 0)
        return True

    status, phases, dual_inc, max_tl, min_gap = _kernels.ompc_row_phases(
        state.scaled_matrix,
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
    state.phase_index += phases
    state.phases_per_row[row_id] = state.phases_per_row.get(row_id, 0) + phases
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
    lambda_f: float
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

    The first row fixes ``d1``/``kappa1`` and the starting scale
    ``gamma = max p_kj / (d1 rho kappa1)``; afterwards every failed trial
    doubles ``gamma`` and replays the row that broke it.  Rows satisfied in
    earlier trials keep their coverage through the aggregate.
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

    def offer(self, row: CoveringRow) -> np.ndarray:
        """Process one covering row; returns the aggregate variable vector."""
        if self._state is None:
            self._first_row = row
            self._state = init_trial(self.system, start_scale(self.system, row), row)
        row_id = self._rows_offered
        self._rows_offered += 1
        while not process_constraint(self._state, row, row_id):
            self._retire(failed=True)
            self._state = init_trial(
                self.system, self._records[-1].gamma * 2.0, self._first_row
            )
        return self.x_total

    def _retire(self, failed: bool) -> None:
        st = self._state
        rec = TrialRecord(
            gamma=st.gamma,
            lambda_f=st.lambda_value(),
            failed=failed,
            phases=st.phase_index,
            state=st,
        )
        self._records.append(rec)
        self._x_closed += st.x
        self._state = None

    def finish(self) -> OmpcSolution:
        """Close the active trial and package the run."""
        if self._state is not None:
            self._retire(failed=False)
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
