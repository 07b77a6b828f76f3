"""Fractional online solver for fixed-charge assignment with congestion.

Facilities (fixed charge ``c_i``, capacity ``u_i``) are known offline;
clients arrive online with per-facility demands and assignment costs.
Demands are normalized by capacity at load time, so congestion is a plain
sum of demands.  For a total-cost guess ``Z``, a client may only be
assigned to candidate facilities with ``c_i + p_ij + a_ij <= Z``.

The solver keeps a potential
    cost(x) = Z * est(x) + sum_i c_i (v_i + w_i) + sum a_ij x_ij / gamma
where ``est`` is a pair of log-sum-exp terms (one over facility congestion,
one over all assignment variables), and raises the arriving client's
variables multiplicatively, each step inversely proportional to the rate of
change of the potential.  A trial fails once the potential passes
``5 Z ln(emn)``; the wrapper then doubles ``gamma`` and replays the client
with fresh variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _kernels

__all__ = [
    "CcflClient",
    "CcflInstance",
    "CcflInfeasible",
    "CcflTrialState",
    "CcflFractionalSolver",
    "CcflFractionalSolution",
    "init_client",
    "assign_fractional",
    "ccfl_cost",
    "ccfl_dual_certificate",
    "openness",
    "gamma_trials",
    "umsc_to_ccfl",
]

_E = float(np.e)


class CcflInfeasible(RuntimeError):
    """No candidate facility for a client at the current cost guess."""

    def __init__(self, client: int, z_value: float):
        super().__init__(f"client {client} has no candidate facility at Z={z_value}")
        self.client = client
        self.z_value = z_value


@dataclass(frozen=True)
class CcflClient:
    """One client's feasible facilities with normalized demand and cost."""

    facilities: np.ndarray  # ascending facility ids
    demand: np.ndarray  # p_ij / u_i
    raw_demand: np.ndarray
    assign_cost: np.ndarray

    def __post_init__(self) -> None:
        fac = np.asarray(self.facilities, dtype=np.int64).ravel()
        dem = np.asarray(self.demand, dtype=np.float64).ravel()
        raw = np.asarray(self.raw_demand, dtype=np.float64).ravel()
        ac = np.asarray(self.assign_cost, dtype=np.float64).ravel()
        if fac.size == 0:
            raise ValueError("client must have at least one feasible facility")
        if not (fac.size == dem.size == raw.size == ac.size):
            raise ValueError("client arrays must share a length")
        if np.unique(fac).size != fac.size:
            raise ValueError("duplicate facility in client entry")
        order = np.argsort(fac)
        for name, arr in (
            ("facilities", fac[order]),
            ("demand", dem[order]),
            ("raw_demand", raw[order]),
            ("assign_cost", ac[order]),
        ):
            object.__setattr__(self, name, np.ascontiguousarray(arr))
        if np.any(self.demand < 0) or np.any(self.assign_cost < 0):
            raise ValueError("demands and assignment costs must be nonnegative")
        if not (np.all(np.isfinite(self.demand)) and np.all(np.isfinite(self.assign_cost))):
            raise ValueError("client parameters must be finite")


@dataclass(frozen=True)
class CcflInstance:
    """Facilities plus the ordered client stream (length known up front)."""

    fixed_charge: np.ndarray
    capacity: np.ndarray
    clients: tuple[CcflClient, ...]

    def __post_init__(self) -> None:
        c = np.asarray(self.fixed_charge, dtype=np.float64).ravel()
        u = np.asarray(self.capacity, dtype=np.float64).ravel()
        if c.size != u.size:
            raise ValueError("fixed charges and capacities must align")
        if c.size < 2 or len(self.clients) < 2:
            raise ValueError("need at least 2 facilities and 2 clients")
        if np.any(c < 0) or np.any(u <= 0):
            raise ValueError("fixed charges must be >= 0 and capacities > 0")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(u))):
            raise ValueError("facility parameters must be finite")
        object.__setattr__(self, "fixed_charge", np.ascontiguousarray(c))
        object.__setattr__(self, "capacity", np.ascontiguousarray(u))
        object.__setattr__(self, "clients", tuple(self.clients))
        for j, cl in enumerate(self.clients):
            if np.any(cl.facilities >= c.size):
                raise ValueError("client references unknown facility")
            # init_client scales each entry by the least entry cost, which
            # is 0/0 for an entry of cost 0
            free = c[cl.facilities] + cl.demand + cl.assign_cost == 0.0
            if free.any():
                raise ValueError(
                    f"client {j} has a zero-cost entry at facility "
                    f"{int(cl.facilities[free][0])}"
                )

    @property
    def m(self) -> int:
        return int(self.fixed_charge.size)

    @property
    def n(self) -> int:
        return len(self.clients)

    def entry_cost(self, j: int) -> np.ndarray:
        """``c_i + p_ij + a_ij`` over client j's feasible facilities."""
        cl = self.clients[j]
        return self.fixed_charge[cl.facilities] + cl.demand + cl.assign_cost

    @property
    def rho(self) -> float:
        """Worst per-client spread of total single-assignment cost."""
        worst = 1.0
        for j in range(self.n):
            ec = self.entry_cost(j)
            worst = max(worst, float(ec.max() / ec.min()))
        return worst

    @property
    def mu(self) -> float:
        return 1.0 + 1.0 / (6.0 * math.log(_E * self.m * self.n))

    @property
    def sigma(self) -> float:
        return 4.0 * _E**2 * math.log(2.0 * self.mu * self.m * self.n * self.rho)

    def candidates(self, j: int, z_value: float) -> np.ndarray:
        cl = self.clients[j]
        return cl.facilities[self.entry_cost(j) <= z_value]

    def min_entry_cost(self, j: int) -> float:
        return float(self.entry_cost(j).min())

    @cached_property
    def _dense(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (m, n) demand and assignment cost, built on first use."""
        demand = np.zeros((self.m, self.n))
        assign = np.zeros((self.m, self.n))
        for j, cl in enumerate(self.clients):
            demand[cl.facilities, j] = cl.demand
            assign[cl.facilities, j] = cl.assign_cost
        demand.setflags(write=False)
        assign.setflags(write=False)
        return demand, assign

    def dense_demand(self) -> np.ndarray:
        """(m, n) normalized demand matrix, zero where infeasible; read-only."""
        return self._dense[0]

    def dense_assign_cost(self) -> np.ndarray:
        """(m, n) assignment cost matrix, zero where infeasible; read-only."""
        return self._dense[1]


# ---------------------------------------------------------------------------
# Trial state and the per-client update loop
# ---------------------------------------------------------------------------


@dataclass
class CcflTrialState:
    instance: CcflInstance
    z_value: float
    gamma: float
    mu: float
    x: np.ndarray  # (m, n)
    rowmax: np.ndarray  # (m,) per-facility max; j holds it iff x[i, j] == rowmax[i]
    load: np.ndarray  # (m,) congestion numerator sum_j p_ij x_ij
    chi: np.ndarray  # (m, n) running softmax maxima, assignment term
    eta: np.ndarray  # (m,) running softmax maxima, congestion term
    alpha: np.ndarray  # (n,) dual per client
    z_prev: np.ndarray  # (m,) rowmax at client end, entry value first; 0 untouched
    z_ratio_log: dict[tuple[int, int], float] = field(default_factory=dict)
    max_scaled_violation: float = 0.0
    failed: bool = False
    initialized: dict[int, np.ndarray] = field(default_factory=dict)  # j -> F_j
    phases_per_client: dict[int, int] = field(default_factory=dict)
    min_pd_gap: float = math.inf  # least per-phase dual minus cost increase

    @property
    def fail_level(self) -> float:
        return 5.0 * self.z_value * math.log(_E * self.instance.m * self.instance.n)


def new_trial(instance: CcflInstance, z_value: float, gamma: float) -> CcflTrialState:
    m, n = instance.m, instance.n
    return CcflTrialState(
        instance=instance,
        z_value=float(z_value),
        gamma=float(gamma),
        mu=instance.mu,
        x=np.zeros((m, n)),
        rowmax=np.zeros(m),
        load=np.zeros(m),
        chi=np.zeros((m, n)),
        eta=np.zeros(m),
        alpha=np.zeros(n),
        z_prev=np.zeros(m),
    )


def ccfl_cost(state: CcflTrialState) -> float:
    """Potential of the current variables (shifted log-sum-exp both terms)."""
    zz, g = state.z_value, state.gamma
    t1 = state.load / (zz * g)
    hi1 = t1.max()
    term1 = hi1 + math.log(np.exp(t1 - hi1).sum())
    flat = state.x / g
    hi2 = flat.max()
    term2 = hi2 + math.log(np.exp(flat - hi2).sum())
    acost = float((state.instance.dense_assign_cost() * state.x).sum())
    return float(
        zz * (term1 + term2)
        + state.instance.fixed_charge @ (t1 + state.rowmax / g)
        + acost / g
    )


def openness(instance: CcflInstance, x: np.ndarray, z_value: float) -> np.ndarray:
    """Facility openness of ``x``: congestion over ``Z`` plus the row maximum."""
    return (instance.dense_demand() * x).sum(axis=1) / z_value + x.max(axis=1)


def scaled_violation(state: CcflTrialState) -> float:
    """Current scaled worst facility value max_i (v_i + w_i)."""
    zz, g = state.z_value, state.gamma
    return float((state.load / (zz * g) + state.rowmax / g).max())


def init_client(state: CcflTrialState, j: int) -> None:
    """Set the arriving client's variables to their entry values.

    Every candidate facility starts at ``min-entry-cost / (2 m n entry_cost)``
    and the row maxima are raised to meet it.
    """
    if j in state.initialized:
        raise ValueError(f"client {j} already initialized in this trial")
    inst = state.instance
    cl = inst.clients[j]
    ec = inst.entry_cost(j)
    keep = ec <= state.z_value
    fj = cl.facilities[keep]
    if fj.size == 0:
        raise CcflInfeasible(j, state.z_value)
    ec_f = ec[keep]
    x0 = (ec_f.min() / ec_f) / (2.0 * inst.m * inst.n)
    state.x[fj, j] = x0
    state.rowmax[fj] = np.maximum(state.rowmax[fj], x0)
    zp = state.z_prev[fj]
    state.z_prev[fj] = np.where(zp > 0, zp, x0)
    state.load[fj] += cl.demand[keep] * x0
    state.initialized[j] = fj
    state.max_scaled_violation = max(state.max_scaled_violation, scaled_violation(state))


def assign_fractional(state: CcflTrialState, j: int) -> bool:
    """Phase loop for client j; returns False when the trial failed."""
    if state.failed:
        raise RuntimeError("trial already failed; start a new trial")
    if j not in state.initialized:
        raise ValueError(f"client {j} not initialized")
    inst = state.instance
    cl = inst.clients[j]
    keep = inst.entry_cost(j) <= state.z_value
    fac = state.initialized[j]
    p, a = cl.demand[keep], cl.assign_cost[keep]
    x_j = state.x[fac, j]
    at_max = x_j == state.rowmax[fac]
    chi_j = state.chi[fac, j]

    g = state.gamma
    exp_all = np.exp(state.x / g)
    s2_rest = float(exp_all.sum() - exp_all[fac, j].sum())
    dense_a = inst.dense_assign_cost()
    asum_rest = float((dense_a * state.x).sum() - a @ x_j)

    status, phases, alpha_inc, max_tl, min_gap = _kernels.ccfl_client_phases(
        fac,
        p,
        a,
        inst.fixed_charge,
        x_j,
        at_max,
        state.rowmax,
        state.load,
        chi_j,
        state.eta,
        s2_rest,
        asum_rest,
        state.z_value,
        g,
        state.mu,
        state.fail_level,
    )
    state.alpha[j] += alpha_inc
    state.phases_per_client[j] = state.phases_per_client.get(j, 0) + phases
    state.max_scaled_violation = max(state.max_scaled_violation, float(max_tl))
    state.min_pd_gap = min(state.min_pd_gap, float(min_gap))

    state.x[fac, j] = x_j
    state.chi[fac, j] = chi_j
    # per-facility running assignment maxima, checkpointed at client end
    zprev = state.z_prev[fac]
    zcur = np.maximum(zprev, x_j)
    for t, i in enumerate(fac.tolist()):
        state.z_ratio_log[(i, j)] = math.log(zcur[t] / zprev[t])
    state.z_prev[fac] = zcur
    if status == _kernels.FAILED:
        state.failed = True
        return False
    return True


# ---------------------------------------------------------------------------
# Dual certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CcflDualCertificate:
    alpha: np.ndarray  # scaled, per client
    beta: dict[tuple[int, int], float]  # scaled, per (facility, client)
    gamma_: np.ndarray  # scaled, per facility
    delta: np.ndarray  # scaled, per facility
    nu: float
    sigma: float


def ccfl_dual_certificate(state: CcflTrialState) -> CcflDualCertificate:
    """Scale the trial's duals into a feasible point of the scaled dual.

    Raw values:
        beta_ij  = Z chi_ij sigma/(2e^2) + c_i ln(z_i(j)/z_i(j-1))
        gamma_i  = (eta_i + c_i/Z) sigma/(2e^2)
        delta_i  = Z (sum_j chi_ij + eta_i) sigma/(2e^2)
    all divided by ``nu sigma`` (alpha) or ``nu sigma / e^2`` (the rest),
    with ``nu = 1 + ln(mn) + max`` scaled violation.
    """
    inst = state.instance
    sig = inst.sigma
    zz = state.z_value
    c = inst.fixed_charge
    nu = 1.0 + math.log(inst.m * inst.n) + state.max_scaled_violation
    chi_sum = np.zeros(inst.m)
    beta_scaled: dict[tuple[int, int], float] = {}
    for (i, j), lr in state.z_ratio_log.items():
        chi_ij = state.chi[i, j]
        chi_sum[i] += chi_ij
        raw = zz * chi_ij * sig / (2.0 * _E**2) + c[i] * lr
        beta_scaled[(i, j)] = raw * _E**2 / (nu * sig)
    gamma_raw = (state.eta + c / zz) * sig / (2.0 * _E**2)
    delta_raw = zz * (chi_sum + state.eta) * sig / (2.0 * _E**2)
    return CcflDualCertificate(
        alpha=state.alpha / (nu * sig),
        beta=beta_scaled,
        gamma_=gamma_raw * _E**2 / (nu * sig),
        delta=delta_raw * _E**2 / (nu * sig),
        nu=nu,
        sigma=sig,
    )


# ---------------------------------------------------------------------------
# Doubling wrapper at fixed Z
# ---------------------------------------------------------------------------


class CcflFractionalSolver:
    """Streaming fractional solver at a fixed cost guess ``Z``.

    ``offer(j)`` runs the arriving client through the current trial,
    doubling ``gamma`` (with fresh variables) whenever the trial fails, and
    leaves the aggregate solution covering every offered client.
    """

    def __init__(self, instance: CcflInstance, z_value: float):
        self.instance = instance
        self.z_value = float(z_value)
        self._x_closed = np.zeros((instance.m, instance.n))
        self._cost_closed = 0.0  # sum of gamma * potential over retired trials
        self._records: list[CcflTrialState] = []
        self.state = new_trial(instance, z_value, gamma=1.0)

    def offer(self, j: int) -> None:
        while True:
            if j not in self.state.initialized:
                init_client(self.state, j)
            if assign_fractional(self.state, j):
                return
            self._retire()
            self.state = new_trial(
                self.instance, self.z_value, gamma=self._records[-1].gamma * 2.0
            )

    def _retire(self) -> None:
        st = self.state
        self._records.append(st)
        self._x_closed += st.x
        self._cost_closed += st.gamma * ccfl_cost(st)

    def finish(self) -> "CcflFractionalSolution":
        if self.state.initialized:
            gamma = self.state.gamma
            self._retire()
            self.state = new_trial(self.instance, self.z_value, gamma)
        return CcflFractionalSolution(
            instance=self.instance,
            z_value=self.z_value,
            x=self._x_closed.copy(),
            cumulative_cost=self._cost_closed,
            trials=tuple(self._records),
        )

    # -- aggregate views ----------------------------------------------------

    @property
    def x_aggregate(self) -> np.ndarray:
        return self._x_closed + self.state.x

    @property
    def y_aggregate(self) -> np.ndarray:
        """Facility openness of the aggregate."""
        return openness(self.instance, self.x_aggregate, self.z_value)

    @property
    def cumulative_cost(self) -> float:
        return self._cost_closed + self.state.gamma * ccfl_cost(self.state)

    @property
    def trials(self) -> tuple[CcflTrialState, ...]:
        return tuple(self._records) + (
            (self.state,) if self.state.initialized else ()
        )


@dataclass(frozen=True)
class CcflFractionalSolution:
    instance: CcflInstance
    z_value: float
    x: np.ndarray
    cumulative_cost: float  # sum over trials of gamma * final potential
    trials: tuple[CcflTrialState, ...]

    @property
    def y(self) -> np.ndarray:
        return openness(self.instance, self.x, self.z_value)

    @property
    def lp1_objective(self) -> float:
        """Objective of the aggregated solution in the unscaled program."""
        y = self.y
        lam = max(1.0, float(y.max()))
        acost = float((self.instance.dense_assign_cost() * self.x).sum())
        return float(self.instance.fixed_charge @ y + self.z_value * lam + acost)


def gamma_trials(instance: CcflInstance, z_value: float) -> CcflFractionalSolution:
    """Run the whole client stream at guess ``z_value`` with gamma doubling."""
    solver = CcflFractionalSolver(instance, z_value)
    for j in range(instance.n):
        solver.offer(j)
    return solver.finish()


# ---------------------------------------------------------------------------
# Machine scheduling adapter
# ---------------------------------------------------------------------------


def umsc_to_ccfl(umsc) -> CcflInstance:
    """Machines with start-up costs become unit-capacity facilities.

    Jobs become clients with zero assignment cost; machines on which a job
    cannot run are simply absent from the client's candidate set.
    """
    m = umsc.costs.size
    clients = []
    for job in umsc.jobs:
        fac = np.array(sorted(job), dtype=np.int64)
        p = np.array([job[int(i)] for i in fac])
        clients.append(
            CcflClient(
                facilities=fac,
                demand=p,
                raw_demand=p,
                assign_cost=np.zeros(fac.size),
            )
        )
    return CcflInstance(
        fixed_charge=umsc.costs.copy(),
        capacity=np.ones(m),
        clients=tuple(clients),
    )
