"""Randomized rounding of the fractional assignment, and the full pipeline.

Opening uses the classic threshold trick: each facility draws
``r = ceil(4 e ln n)`` uniforms once per epoch and opens as soon as its
fractional openness passes the smallest of them.  An arriving client then
flips a coin per heavy facility (fractional assignment at least ``1/(2m)``)
with success probability ``x_ij / y_i``, goes to the lowest-indexed open
candidate, and only if it has none falls back to the heavy facility of
least entry cost.  ``coin_probabilities`` is that coin rule, for the
pipeline and the Monte-Carlo sweep alike.

The pipeline guesses the total cost ``Z``, runs the fractional solver plus
rounding as one *epoch*, and doubles ``Z`` whenever a client has no
candidate facility or the realized cost passes the epoch budget
``K Z ln^2(emn) ln(2 mu m n rho)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .ccfl import CcflFractionalSolver, CcflInstance, openness
from .rng import restart, rng_for

__all__ = [
    "rounds_for",
    "RoundingState",
    "new_rounding_state",
    "coin_probabilities",
    "round_client",
    "z_epochs",
    "ZEpochsResult",
    "EpochSummary",
    "mc_rounding",
    "McRoundingStats",
    "DEFAULT_EPOCH_CONSTANT",
]

_E = float(np.e)
DEFAULT_EPOCH_CONSTANT = 512.0
MC_CHUNK = 4096  # replications per mc_rounding kernel call


def rounds_for(n: int) -> int:
    """Number of opening thresholds per facility, ``ceil(4 e ln n)``."""
    return int(math.ceil(4.0 * _E * math.log(n)))


@dataclass
class RoundingState:
    """Per-epoch rounding bookkeeping (thresholds drawn up front)."""

    tbar: np.ndarray  # per-facility minimum of r uniforms
    open_mask: np.ndarray
    loads: np.ndarray
    opened_cost: float = 0.0
    assign_cost: float = 0.0
    newly_opened: list[int] = field(default_factory=list)


def new_rounding_state(m: int, n: int, rng: np.random.Generator) -> RoundingState:
    tdraw = rng.random((m, rounds_for(n)))
    return RoundingState(
        tbar=tdraw.min(axis=1),
        open_mask=np.zeros(m, dtype=bool),
        loads=np.zeros(m),
    )


def coin_probabilities(x: np.ndarray, y: np.ndarray, m: int):
    """Step 2's heavy mask, ``min(x, 1) >= 1/(2m)``, and each coin's success
    probability ``min(1, min(x, 1) / y)``, 0 off the heavy set."""
    x_cl = np.minimum(x, 1.0)
    heavy = x_cl >= 1.0 / (2.0 * m)
    prob = np.where(heavy, np.minimum(1.0, x_cl / np.maximum(y, 1e-300)), 0.0)
    return heavy, prob


def round_client(
    rng: np.random.Generator,
    state: RoundingState,
    instance: CcflInstance,
    j: int,
    x_j: np.ndarray,
    y: np.ndarray,
) -> int:
    """Steps 1-4 for client j; returns the chosen facility.

    ``x_j`` / ``y`` are the client's fractional assignment and the facility
    openness of the current aggregate solution (dense over facilities).
    Coins and the step-4 fallback run over the client's feasible facilities;
    the fallback takes the least entry cost.  Draws exactly ``m`` uniforms,
    in facility order, so a run can be replayed from the generator state
    alone.
    """
    cl = instance.clients[j]
    fac = cl.facilities
    newly = np.nonzero(~state.open_mask & (y >= state.tbar))[0]
    for i in newly:
        state.open_mask[i] = True
        state.opened_cost += float(instance.fixed_charge[i])
    state.newly_opened = [int(i) for i in newly]

    heavy, prob = coin_probabilities(x_j[fac], y[fac], instance.m)
    if not heavy.any():
        raise RuntimeError(f"client {j} has no heavy facility; was sum x >= 1?")
    u = rng.random(instance.m)
    hits = np.nonzero((u[fac] < prob) & state.open_mask[fac])[0]
    if hits.size:
        t = int(hits[0])
    else:
        heavy_t = np.nonzero(heavy)[0]
        t = int(heavy_t[np.argmin(instance.entry_cost(j)[heavy_t])])
    chosen = int(fac[t])
    if not state.open_mask[chosen]:  # only a step-4 choice can be closed
        state.open_mask[chosen] = True
        state.opened_cost += float(instance.fixed_charge[chosen])
        state.newly_opened.append(chosen)
    state.loads[chosen] += float(cl.demand[t])
    state.assign_cost += float(cl.assign_cost[t])
    return chosen


# ---------------------------------------------------------------------------
# Full pipeline: fractional solve + rounding per epoch, doubling Z
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EpochSummary:
    z_value: float
    clients: tuple[int, ...]
    opened_cost: float
    assign_cost: float
    max_load: float
    failed: bool
    fail_reason: str  # "", "cost", "no-candidate"

    @property
    def total_cost(self) -> float:
        return self.opened_cost + self.assign_cost + self.max_load


@dataclass(frozen=True)
class ZEpochsResult:
    assignment: np.ndarray  # facility per client
    epochs: tuple[EpochSummary, ...]
    decision_log: tuple[dict, ...]
    epoch_constant: float

    @property
    def per_epoch_total(self) -> float:
        """Sum of per-epoch totals (the quantity the budget argument bounds)."""
        return float(sum(e.total_cost for e in self.epochs))

    @property
    def final_z(self) -> float:
        return self.epochs[-1].z_value


def epoch_budget(instance: CcflInstance, z_value: float, constant: float) -> float:
    m, n = instance.m, instance.n
    return (
        constant
        * z_value
        * math.log(_E * m * n) ** 2
        * math.log(2.0 * instance.mu * m * n * instance.rho)
    )


def z_epochs(
    instance: CcflInstance,
    seed: int,
    epoch_constant: float = DEFAULT_EPOCH_CONSTANT,
) -> ZEpochsResult:
    """Assign every client integrally, doubling the cost guess on failure.

    Clients already assigned when an epoch's budget breaks stay assigned
    (decisions are irrevocable); only the unassigned suffix moves to the
    next epoch with fresh fractional and rounding state.  Raises
    ``ValueError`` unless ``epoch_constant`` is finite and > 0.
    """
    if not 0.0 < epoch_constant < math.inf:
        raise ValueError(f"epoch constant must be finite and > 0, got {epoch_constant!r}")
    m, n = instance.m, instance.n
    assignment = np.full(n, -1, dtype=np.int64)
    epochs: list[EpochSummary] = []
    log: list[dict] = []
    z_value = instance.min_entry_cost(0)
    j = 0
    epoch_idx = 0
    while j < n:
        solver = CcflFractionalSolver(instance, z_value)
        rstate = new_rounding_state(m, n, rng_for(seed, "epoch", epoch_idx, "thresholds"))
        step_rng = rng_for(seed, "epoch", epoch_idx, "steps")
        budget = epoch_budget(instance, z_value, epoch_constant)
        served: list[int] = []
        failed = False
        reason = ""
        while j < n:
            if instance.min_entry_cost(j) > z_value:  # no candidate facility
                failed = True
                reason = "no-candidate"
                break
            solver.offer(j)
            x = solver.x_aggregate
            chosen = round_client(
                step_rng, rstate, instance, j, x[:, j], openness(instance, x, z_value)
            )
            assignment[j] = chosen
            served.append(j)
            log.append(
                {
                    "client": j,
                    "epoch": epoch_idx,
                    "z": z_value,
                    "opened": rstate.newly_opened,
                    "assigned": chosen,
                    "congestion": float(rstate.loads.max()),
                }
            )
            j += 1
            realized = rstate.opened_cost + rstate.assign_cost + rstate.loads.max()
            if realized > budget:
                failed = True
                reason = "cost"
                break
        epochs.append(
            EpochSummary(
                z_value=z_value,
                clients=tuple(served),
                opened_cost=rstate.opened_cost,
                assign_cost=rstate.assign_cost,
                max_load=float(rstate.loads.max()),
                failed=failed,
                fail_reason=reason,
            )
        )
        if failed:
            z_value *= 2.0
            epoch_idx += 1
    return ZEpochsResult(
        assignment=assignment,
        epochs=tuple(epochs),
        decision_log=tuple(log),
        epoch_constant=epoch_constant,
    )


# ---------------------------------------------------------------------------
# Monte-Carlo replications of the rounding alone
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McRoundingStats:
    reps: int
    step4_freq: np.ndarray  # per client
    mean_opened_cost: float
    mean_max_candidate_congestion: float
    opened_bound: float  # r * sum c_i y_i (final y)
    congestion_bound: float  # 4 Z ln(2 e m lambda)


def mc_rounding(
    instance: CcflInstance,
    x_per_client: np.ndarray,  # (n, m): aggregate x at each client's arrival
    y_per_client: np.ndarray,  # (n, m): aggregate y at each client's arrival
    z_value: float,
    reps: int,
    seed: int,
) -> McRoundingStats:
    """Replicate the rounding ``reps`` times on a frozen fractional solution.

    Replication ``k`` draws its uniforms from the stream (seed, "mc-round",
    k), so any single replication can be reproduced in isolation; chunking
    by ``MC_CHUNK`` replications only batches the arithmetic.
    """
    if reps < 1:
        raise ValueError(f"reps must be at least 1, got {reps}")
    m, n = instance.m, instance.n
    r = rounds_for(n)
    _, prob = coin_probabilities(x_per_client, y_per_client, m)
    p = instance.dense_demand().T.copy()  # (n, m)
    cfix = instance.fixed_charge
    y_final = y_per_client[-1]

    # per-replication results are collected in full before any reduction so
    # the statistics are independent of the chunk size
    step4_all = np.empty((reps, n), dtype=np.bool_)
    opened_all = np.empty(reps)
    cong_all = np.empty(reps)
    gen = np.random.Generator(np.random.Philox(0))
    done = 0
    while done < reps:
        take = min(MC_CHUNK, reps - done)
        tdraw = np.empty((take, m, r))
        udraw = np.empty((take, n, m))
        for k in range(take):
            restart(gen, seed, "mc-round", done + k)
            tdraw[k] = gen.random((m, r))
            udraw[k] = gen.random((n, m))
        step4, opened_cost, max_cong = _kernels.mc_round_chunk(
            prob, y_per_client, y_final, p, cfix, tdraw, udraw
        )
        step4_all[done : done + take] = step4
        opened_all[done : done + take] = opened_cost
        cong_all[done : done + take] = max_cong
        done += take

    lam = max(1.0, float(y_final.max()))
    return McRoundingStats(
        reps=reps,
        step4_freq=step4_all.sum(axis=0) / reps,
        mean_opened_cost=float(opened_all.sum()) / reps,
        mean_max_candidate_congestion=float(cong_all.sum()) / reps,
        opened_bound=r * float(cfix @ y_final),
        congestion_bound=4.0 * z_value * math.log(2.0 * _E * m * lam),
    )
