"""Fractional online solver for fixed-charge assignment with congestion.

Facilities (fixed charge ``c_i``, capacity ``u_i``) are known offline;
clients arrive online with per-facility demands and assignment costs.
A client normalizes its demands by capacity when it is built, so congestion
is a plain sum of demands.  For a total-cost guess ``Z``, a client may only be
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
from dataclasses import InitVar, dataclass, field
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
    "ccfl_dual_certificate",
    "openness",
    "gamma_trials",
    "umsc_to_ccfl",
]

_E = float(np.e)
_UNKNOWN_FACILITY = "client references unknown facility"


class CcflInfeasible(RuntimeError):
    """No candidate facility for a client at the current cost guess."""

    def __init__(self, client: int, z_value: float):
        super().__init__(f"client {client} has no candidate facility at Z={z_value}")
        self.client = client
        self.z_value = z_value


@dataclass(frozen=True)
class CcflClient:
    """One client's feasible facilities with normalized demand and cost,
    built from its raw demands and every facility's capacity in id order."""

    facilities: np.ndarray  # ascending facility ids
    raw_demand: np.ndarray
    assign_cost: np.ndarray
    capacity: InitVar[np.ndarray]
    demand: np.ndarray = field(init=False)  # p_ij / u_i

    def __post_init__(self, capacity: np.ndarray) -> None:
        try:
            fac = np.asarray(self.facilities, dtype=np.int64).ravel()
        except OverflowError:  # an id beyond int64 names no facility either
            raise ValueError(_UNKNOWN_FACILITY) from None
        raw = np.asarray(self.raw_demand, dtype=np.float64).ravel()
        ac = np.asarray(self.assign_cost, dtype=np.float64).ravel()
        u = np.asarray(capacity, dtype=np.float64).ravel()
        if fac.size == 0:
            raise ValueError("client must have at least one feasible facility")
        if not (fac.size == raw.size == ac.size):
            raise ValueError("client arrays must share a length")
        if np.unique(fac).size != fac.size:
            raise ValueError("duplicate facility in client entry")
        order = np.argsort(fac)
        fac, raw = fac[order], raw[order]
        if fac[0] < 0 or fac[-1] >= u.size:
            raise ValueError(_UNKNOWN_FACILITY)
        with np.errstate(over="ignore"):  # a quotient beyond floats fails below
            dem = raw / u[fac]
        for name, arr in (
            ("facilities", fac),
            ("demand", dem),
            ("raw_demand", raw),
            ("assign_cost", ac[order]),
        ):
            object.__setattr__(self, name, np.ascontiguousarray(arr))
        if np.any(self.demand < 0) or np.any(self.assign_cost < 0):
            raise ValueError("demands and assignment costs must be nonnegative")
        if not (np.all(np.isfinite(self.demand)) and np.all(np.isfinite(self.assign_cost))):
            raise ValueError("client parameters must be finite")


def check_facilities(fixed_charge, capacity) -> None:
    """``CcflInstance``'s facility checks, on its arrays or one facility's floats."""
    if np.any(fixed_charge < 0) or np.any(capacity <= 0):
        raise ValueError("fixed charges must be >= 0 and capacities > 0")
    if not (np.all(np.isfinite(fixed_charge)) and np.all(np.isfinite(capacity))):
        raise ValueError("facility parameters must be finite")


def checked_entry_costs(
    j: int, fixed_charge: np.ndarray, client: CcflClient
) -> np.ndarray:
    """Client j's entry costs ``c_i + p_ij + a_ij``, read-only; ``ValueError``
    when ``init_client`` cannot scale them.

    Each entry starts at the least entry cost over its own: 0/0 for an entry
    of cost 0, and no finite ratio when the costs span beyond floats.
    """
    with np.errstate(over="ignore"):  # a sum beyond floats fails the ratio test
        ec = fixed_charge[client.facilities] + client.demand + client.assign_cost
    lo, hi = float(ec.min()), float(ec.max())
    if lo == 0.0:  # every entry cost is >= 0
        raise ValueError(
            f"client {j} has a zero-cost entry at facility "
            f"{int(client.facilities[ec == 0.0][0])}"
        )
    if not math.isfinite(hi / lo):
        raise ValueError(
            f"client {j} entry costs span {lo:g} to {hi:g}; max/min must be finite"
        )
    ec.setflags(write=False)
    return ec


@dataclass(frozen=True)
class CcflInstance:
    """Facilities plus the ordered client stream (length known up front)."""

    fixed_charge: np.ndarray
    capacity: np.ndarray
    clients: tuple[CcflClient, ...]
    rho: float = field(init=False)  # worst per-client entry-cost spread, >= 1
    _entry_costs: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        c = np.asarray(self.fixed_charge, dtype=np.float64).ravel()
        u = np.asarray(self.capacity, dtype=np.float64).ravel()
        if c.size != u.size:
            raise ValueError("fixed charges and capacities must align")
        if c.size < 2 or len(self.clients) < 2:
            raise ValueError("need at least 2 facilities and 2 clients")
        check_facilities(c, u)
        object.__setattr__(self, "fixed_charge", np.ascontiguousarray(c))
        object.__setattr__(self, "capacity", np.ascontiguousarray(u))
        object.__setattr__(self, "clients", tuple(self.clients))
        costs = []
        for j, cl in enumerate(self.clients):
            if cl.facilities[-1] >= c.size:  # sorted, and >= 0 by construction
                raise ValueError(_UNKNOWN_FACILITY)
            costs.append(checked_entry_costs(j, c, cl))
        object.__setattr__(self, "_entry_costs", tuple(costs))
        spreads = (float(ec.max()) / float(ec.min()) for ec in costs)  # each >= 1
        object.__setattr__(self, "rho", max(spreads))
        # a finite rho may still put 2 mu m n rho, and so every bound, at inf
        if not math.isfinite(self.sigma):
            raise ValueError(
                f"entry-cost spread rho {self.rho:g} puts sigma beyond floats"
            )

    @property
    def m(self) -> int:
        return int(self.fixed_charge.size)

    @property
    def n(self) -> int:
        return len(self.clients)

    def entry_cost(self, j: int) -> np.ndarray:
        """``c_i + p_ij + a_ij`` over client j's feasible facilities; read-only."""
        return self._entry_costs[j]

    @property
    def mu(self) -> float:
        return 1.0 + 1.0 / (6.0 * math.log(_E * self.m * self.n))

    @property
    def sigma(self) -> float:
        return 4.0 * _E**2 * math.log(2.0 * self.mu * self.m * self.n * self.rho)

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
    z_ratio_log: np.ndarray  # (m, n) ln(z_i(j) / z_i(j-1)), 0 off entered pairs
    phases_per_client: np.ndarray  # (n,) int64; 0 until the client enters
    max_scaled_violation: float = 0.0
    failed: bool = False
    min_pd_gap: float = math.inf  # least per-phase dual minus cost increase
    potential: float = math.nan  # as the last client's phases left it

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
        z_ratio_log=np.zeros((m, n)),
        phases_per_client=np.zeros(n, dtype=np.int64),
    )


def openness(instance: CcflInstance, x: np.ndarray, z_value: float) -> np.ndarray:
    """Facility openness of ``x``: congestion over ``Z`` plus the row maximum."""
    return (instance.dense_demand() * x).sum(axis=1) / z_value + x.max(axis=1)


def init_client(
    state: CcflTrialState, j: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Set the arriving client's variables to their entry values.

    Every candidate facility starts at ``min-entry-cost / (2 m n entry_cost)``
    and the row maxima are raised to meet it.  Returns the candidates, the
    mask that picks them from the client's facilities, and each candidate's
    maximum before the client (its entry value on a row still empty).
    """
    if state.x[:, j].any():
        raise ValueError(f"client {j} already entered this trial")
    inst = state.instance
    cl = inst.clients[j]
    ec = inst.entry_cost(j)
    keep = ec <= state.z_value
    fac = cl.facilities[keep]
    if fac.size == 0:
        raise CcflInfeasible(j, state.z_value)
    ec_f = ec[keep]
    x0 = (ec_f.min() / ec_f) / (2.0 * inst.m * inst.n)
    state.x[fac, j] = x0
    top = state.rowmax[fac]
    state.rowmax[fac] = np.maximum(top, x0)
    state.load[fac] += cl.demand[keep] * x0
    return fac, keep, np.where(top > 0, top, x0)


def assign_fractional(state: CcflTrialState, j: int) -> bool:
    """Enter client j and run its phase loop; returns False when the trial failed."""
    if state.failed:
        raise RuntimeError("trial already failed; start a new trial")
    fac, keep, z_before = init_client(state, j)
    inst = state.instance
    cl = inst.clients[j]
    p, a = cl.demand[keep], cl.assign_cost[keep]
    x_j = state.x[fac, j]
    at_max = x_j == state.rowmax[fac]
    chi_j = state.chi[fac, j]

    g = state.gamma
    exp_all = np.exp(state.x / g)
    s2_rest = float(exp_all.sum() - exp_all[fac, j].sum())
    dense_a = inst.dense_assign_cost()
    asum_rest = float((dense_a * state.x).sum() - a @ x_j)

    # max_tl counts the scaled violation right after entry too
    status, phases, alpha_inc, max_tl, min_gap, potential = _kernels.ccfl_client_phases(
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
    state.phases_per_client[j] = phases
    state.max_scaled_violation = max(state.max_scaled_violation, float(max_tl))
    state.min_pd_gap = min(state.min_pd_gap, float(min_gap))
    state.potential = potential

    state.x[fac, j] = x_j
    state.chi[fac, j] = chi_j
    # z_i(j) / z_i(j-1): each candidate's row maximum over the one before j;
    # math.log, not np.log, which differs in the last bit on some ratios
    state.z_ratio_log[fac, j] = [
        math.log(r) for r in (state.rowmax[fac] / z_before).tolist()
    ]
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
    beta: np.ndarray  # scaled, per (facility, client); 0 off entered pairs
    gamma_: np.ndarray  # scaled, per facility
    delta: np.ndarray  # scaled, per facility
    nu: float  # the scale, 1 + ln(mn) + max scaled violation


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
    beta_raw = zz * state.chi * sig / (2.0 * _E**2) + c[:, None] * state.z_ratio_log
    gamma_raw = (state.eta + c / zz) * sig / (2.0 * _E**2)
    delta_raw = zz * (state.chi.sum(axis=1) + state.eta) * sig / (2.0 * _E**2)
    return CcflDualCertificate(
        alpha=state.alpha / (nu * sig),
        beta=beta_raw * _E**2 / (nu * sig),
        gamma_=gamma_raw * _E**2 / (nu * sig),
        delta=delta_raw * _E**2 / (nu * sig),
        nu=nu,
    )


# ---------------------------------------------------------------------------
# Doubling wrapper at fixed Z
# ---------------------------------------------------------------------------


class CcflFractionalSolver:
    """Streaming fractional solver at a fixed cost guess ``Z``.

    ``offer(j)`` runs the arriving client through the current trial,
    doubling ``gamma`` (with fresh variables) whenever the trial fails.
    The first offer opens a trial at ``gamma = 1``, and an offer after
    ``finish`` resumes at the last trial's ``gamma``.  Each attempt changes
    only column j of its trial's ``x``, and adds that column in place to
    ``x_aggregate``, the live sum over all trials.
    """

    def __init__(self, instance: CcflInstance, z_value: float):
        self.instance = instance
        self.z_value = float(z_value)
        self.x_aggregate = np.zeros((instance.m, instance.n))
        self._records: list[CcflTrialState] = []
        self.state: CcflTrialState | None = None

    def offer(self, j: int) -> None:
        """Serve client ``j``; a ``j`` outside ``range(n)`` raises
        ``ValueError`` and opens no trial."""
        if not 0 <= j < self.instance.n:
            raise ValueError(f"unknown client {j}: clients are 0..{self.instance.n - 1}")
        if self.state is None:
            gamma = self._records[-1].gamma if self._records else 1.0
            self.state = new_trial(self.instance, self.z_value, gamma)
        while not assign_fractional(self.state, j):
            self.x_aggregate[:, j] += self.state.x[:, j]
            self._records.append(self.state)
            self.state = new_trial(self.instance, self.z_value, self.state.gamma * 2.0)
        self.x_aggregate[:, j] += self.state.x[:, j]

    def finish(self) -> "CcflFractionalSolution":
        if self.state is not None and self.state.phases_per_client.any():
            self._records.append(self.state)
            self.state = None
        cost = 0.0
        for st in self._records:
            cost += st.gamma * st.potential
        return CcflFractionalSolution(
            instance=self.instance,
            z_value=self.z_value,
            x=self.x_aggregate.copy(),
            cumulative_cost=cost,
            trials=tuple(self._records),
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
        clients.append(CcflClient(fac, p, np.zeros(fac.size), np.ones(m)))
    return CcflInstance(
        fixed_charge=umsc.costs.copy(),
        capacity=np.ones(m),
        clients=tuple(clients),
    )
