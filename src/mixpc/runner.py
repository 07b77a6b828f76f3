"""Experiment orchestration: suites, bound checks, and CSV reports.

Each suite streams instances through a solver, computes the offline
baseline, evaluates every bound the run is supposed to satisfy, and emits
one report record per run.  Reports are deterministic given (instance
bytes, seed, config) except for the wall-time column.
"""

from __future__ import annotations

import io
import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .adversary import (
    MpcResponder,
    TreeAdversaryResult,
    optimal_witness,
    tree_adversary,
)
from .ccfl import (
    CcflFractionalSolver,
    CcflInstance,
    ccfl_dual_certificate,
    gamma_trials,
    openness,
)
from .core import violation
from .instances import OmpcInstance, gen_random_ccfl, gen_random_ompc
from .oracle import brute_force_zstar, ccfl_opt1, ompc_opt
from .rounding import McRoundingStats, ZEpochsResult, epoch_budget, mc_rounding
from .solver import dual_certificate, mu_for, solve_online

__all__ = [
    "ExperimentRecord",
    "ExperimentReport",
    "ExperimentConfig",
    "SUITES",
    "run_experiment",
    "report_to_csv",
    "ompc_sigma",
    "ompc_phase_budget",
    "ompc_bound",
    "ccfl_bound",
    "z_epochs_bound",
    "check_ompc_run",
    "check_ccfl_run",
    "check_z_epochs_run",
    "check_adversary_run",
    "check_mc_stats",
    "suite_ompc_adversary",
    "suite_ompc_random",
    "suite_ccfl_random",
    "suite_ccfl_mc",
]

_E = float(np.e)

# a trial's least per-phase primal-dual gap may fall below 0 by PD_TOL, and
# its scaled dual residuals may rise above 0 by DUAL_TOL, before a check fails
PD_TOL = 1e-9
DUAL_TOL = 1e-9
# the Monte-Carlo mean worst candidate congestion may exceed its bound by
# this fraction
CONGESTION_SLACK = 0.05


@dataclass
class ExperimentRecord:
    instance: str
    seed: int
    algorithm: str
    m: int
    n: int
    d: int | None = None
    rho: float | None = None
    kappa: float | None = None
    sigma: float | None = None
    online: float | None = None
    oracle: float | None = None
    ratio: float | None = None
    bound: float | None = None
    phases: int | None = None
    trials: int | None = None
    epochs: int | None = None
    witness: float | None = None
    wall_time_s: float | None = None

    def as_row(self) -> list[str]:
        out = []
        for col in REPORT_COLUMNS:
            v = getattr(self, col)
            if v is None:
                out.append("")
            elif isinstance(v, float):
                out.append(repr(v))
            else:
                out.append(str(v))
        return out


# the CSV columns: ExperimentRecord's fields in order, read once at import
# so that writing a report never looks the class up by name
REPORT_COLUMNS = tuple(f.name for f in fields(ExperimentRecord))


@dataclass
class ExperimentReport:
    records: list[ExperimentRecord] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def report_to_csv(report: ExperimentReport) -> str:
    buf = io.StringIO()
    buf.write(",".join(REPORT_COLUMNS) + "\n")
    for rec in report.records:
        buf.write(",".join(rec.as_row()) + "\n")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Derived constants and verification helpers
# ---------------------------------------------------------------------------


def _mu_and_log_spread(instance: OmpcInstance) -> tuple[float, float]:
    """``mu`` and ``ln(mu d^2 rho kappa)`` from the full stream.

    The factors' logs are summed only when the product passes the float
    range, so every spread within it keeps the bits of its own log.
    """
    mu = mu_for(instance.system.m)
    factors = (mu, instance.d**2, instance.system.rho, instance.kappa)
    spread = math.prod(factors)
    if math.isfinite(spread):
        return mu, math.log(spread)
    return mu, sum(map(math.log, factors))


def ompc_sigma(instance: OmpcInstance) -> float:
    """Post-hoc ``e^2 ln(mu d^2 rho kappa)`` from the full stream."""
    return _E**2 * _mu_and_log_spread(instance)[1]


def ompc_phase_budget(instance: OmpcInstance) -> int:
    """Per-trial phase allowance ``n * ceil(log_mu(mu d^2 rho kappa))``."""
    mu, log_spread = _mu_and_log_spread(instance)
    return instance.system.n * math.ceil(log_spread / math.log(mu))


def ompc_bound(instance: OmpcInstance) -> float:
    """Competitive ratio ``32 sigma ln(e m)`` of the online solver."""
    return 32.0 * ompc_sigma(instance) * math.log(_E * instance.system.m)


def ccfl_bound(instance: CcflInstance) -> float:
    """Fractional cost ratio ``8 sigma (1 + 6 ln(e m n))`` against OPT1."""
    log_emn = math.log(_E * instance.m * instance.n)
    return 8.0 * instance.sigma * (1.0 + 6.0 * log_emn)


def z_epochs_bound(instance: CcflInstance, zstar: float, constant: float) -> float:
    """Integral cost cap ``4 * epoch_budget`` at the optimal cost guess."""
    return 4.0 * epoch_budget(instance, zstar, constant)


def _ompc_dual_feasible(
    instance: OmpcInstance, y_scaled: dict[int, float], z_scaled: np.ndarray
) -> tuple[float, float]:
    """Residuals of both dual families of a certificate (<= 0 means feasible)."""
    cty = np.zeros(instance.system.n)
    for row_id, yv in y_scaled.items():
        row = instance.rows[row_id]
        cty[row.indices] += row.values * yv
    ptz = instance.system.matrix.T @ z_scaled
    scale = max(1.0, float(np.abs(ptz).max()))
    fam1 = float((cty - ptz).max()) / scale
    fam2 = float(z_scaled.sum()) - 1.0
    return fam1, fam2


def check_ompc_run(
    instance: OmpcInstance,
    solution,
    opt_value: float,
    label: str,
) -> list[str]:
    """All bound checks for one solved stream; returns violation messages.

    At ``OPT = 0`` neither ratio holds.  Every covering row then holds a variable
    with an empty packing column, so the solver starts no trial, and any
    trial a run reports must have run no phase.
    """
    out: list[str] = []
    sigma = ompc_sigma(instance)
    m = instance.system.m
    comp_bound = ompc_bound(instance)
    if opt_value != 0.0 and solution.lambda_value > comp_bound * opt_value * (1 + 1e-9):
        out.append(
            f"{label}: online {solution.lambda_value} exceeds "
            f"{comp_bound} * OPT ({opt_value})"
        )
    budget = ompc_phase_budget(instance)
    lams = [rec.state.lambda_value() for rec in solution.trials]
    for t, (rec, lam) in enumerate(zip(solution.trials, lams)):
        if opt_value == 0.0 and rec.phases:
            out.append(f"{label}: trial {t} ran {rec.phases} phases at OPT 0")
        if rec.phases > budget:
            out.append(f"{label}: trial {t} used {rec.phases} phases > budget {budget}")
        if rec.state.min_pd_gap < -PD_TOL:
            out.append(
                f"{label}: trial {t} primal-dual gap {rec.state.min_pd_gap} < -{PD_TOL}"
            )
        y_scaled, z_scaled = dual_certificate(rec.state, sigma)
        fam1, fam2 = _ompc_dual_feasible(instance, y_scaled, z_scaled)
        if fam1 > DUAL_TOL or fam2 > DUAL_TOL:
            out.append(f"{label}: trial {t} dual infeasible ({fam1}, {fam2})")
        weak = sum(y_scaled.values())
        if weak > opt_value * (1 + 1e-7) + 1e-12:
            out.append(f"{label}: trial {t} weak duality {weak} > OPT {opt_value}")
        if rec.failed and lam / rec.gamma > 1.0 + 3.0 * math.log(_E * m) + 1e-9:
            out.append(f"{label}: trial {t} failed above the mu-step envelope")
    lam_sum = sum(lams)
    if solution.lambda_value > lam_sum * (1 + 1e-9) + 1e-12:
        out.append(f"{label}: aggregate violation exceeds per-trial sum")
    if opt_value != 0.0 and solution.lambda_value / opt_value < 1.0 - 1e-9:
        out.append(f"{label}: online beat the oracle")
    return out


def check_ccfl_run(
    instance: CcflInstance,
    solution,
    opt1_value: float,
    label: str,
) -> list[str]:
    out: list[str] = []
    zz = solution.z_value
    frac_bound = ccfl_bound(instance) * opt1_value
    if solution.cumulative_cost > frac_bound * (1 + 1e-9):
        out.append(
            f"{label}: cumulative fractional cost {solution.cumulative_cost} "
            f"exceeds {frac_bound}"
        )
    if solution.lp1_objective > solution.cumulative_cost * (1 + 1e-9):
        out.append(f"{label}: aggregate objective exceeds cumulative trial cost")
    c = instance.fixed_charge
    p = instance.dense_demand()
    a = instance.dense_assign_cost()
    for t, st in enumerate(solution.trials):
        if st.min_pd_gap < -PD_TOL:
            out.append(
                f"{label}: trial {t} primal-dual gap {st.min_pd_gap} < -{PD_TOL}"
            )
        cert = ccfl_dual_certificate(st)
        if float(cert.delta.sum()) - zz > DUAL_TOL * max(1.0, zz):
            out.append(f"{label}: trial {t} dual family-3 infeasible")
        # family 2 without its cancelling Z chi and Z eta terms: at c_i > 0
        # it reads e^2 sum_j z_ratio_log[i, j] / sigma + 1/2 <= nu, and at
        # c_i = 0 both of its sides are 0
        fam2 = _E**2 * st.z_ratio_log[c > 0].sum(axis=1) / instance.sigma + 0.5
        if float(fam2.max(initial=-math.inf)) - cert.nu > DUAL_TOL * cert.nu:
            out.append(f"{label}: trial {t} dual family-2 infeasible")
        # family 1 on the entered pairs, where x > 0
        lhs = st.gamma * cert.alpha - cert.beta - p * cert.gamma_[:, None] - a
        worst1 = float(lhs[st.x > 0].max(initial=-math.inf))
        if worst1 > DUAL_TOL:
            out.append(f"{label}: trial {t} dual family-1 infeasible ({worst1})")
        weak = float(cert.alpha.sum())
        if weak > (opt1_value / st.gamma) * (1 + 1e-7) + 1e-12:
            out.append(
                f"{label}: trial {t} weak duality {weak} > OPT1/gamma "
                f"{opt1_value / st.gamma}"
            )
    if opt1_value < zz * (1 - 1e-9):
        out.append(f"{label}: OPT1 below Z")
    return out


def check_z_epochs_run(
    instance: CcflInstance, result: ZEpochsResult, zstar: float, label: str
) -> list[str]:
    """The integral cost of a ``z_epochs`` run stays within its cap."""
    cap = z_epochs_bound(instance, zstar, result.epoch_constant)
    if result.per_epoch_total > cap:
        return [f"{label}: integral cost {result.per_epoch_total} exceeds {cap}"]
    return []


def check_adversary_run(
    result: TreeAdversaryResult, witness: np.ndarray, label: str
) -> list[str]:
    """The witness covers every row at violation exactly 1, and the
    algorithm reaches the forced ``log2(m) H_d / 2``."""
    out: list[str] = []
    wviol = violation(result.system, witness)
    if abs(wviol - 1.0) > 1e-12:
        out.append(f"{label}: witness violation {wviol} != 1")
    covered = min(row.coverage(witness) for row in result.transcript)
    if covered < 1.0 - 1e-12:
        out.append(f"{label}: witness leaves a row uncovered")
    lam = result.algorithm_value()
    if lam < result.lower_bound - 1e-9:
        out.append(f"{label}: algorithm value {lam} below bound {result.lower_bound}")
    return out


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def _ompc_step(
    report: ExperimentReport,
    inst: OmpcInstance,
    sol,
    label: str,
    t0: float,
    bound: float | None = None,
    **fields,
) -> None:
    """Solve the offline optimum, check the run against it, and append the
    record; ``bound`` defaults to ``ompc_bound`` and ``wall_time_s`` spans
    from ``t0`` to the record."""
    opt_val = ompc_opt(inst.system, list(inst.rows)).value
    report.violations.extend(check_ompc_run(inst, sol, opt_val, label))
    report.records.append(
        ExperimentRecord(
            instance=label,
            m=inst.system.m,
            n=inst.system.n,
            d=inst.d,
            rho=inst.system.rho,
            kappa=inst.kappa,
            sigma=ompc_sigma(inst),
            online=sol.lambda_value,
            oracle=opt_val,
            ratio=sol.lambda_value / opt_val,
            bound=ompc_bound(inst) if bound is None else bound,
            phases=sum(rec.phases for rec in sol.trials),
            trials=len(sol.trials),
            **fields,
            wall_time_s=time.perf_counter() - t0,
        )
    )


def suite_ompc_adversary() -> ExperimentReport:
    """The online solver against the tree adversary on a fixed grid; checks
    the witness, the forced lower bound and the solver's own bounds."""
    report = ExperimentReport()
    for m in (4, 8, 16):
        for d in (8, 16):
            t0 = time.perf_counter()
            result = tree_adversary(m, d, MpcResponder)
            witness = optimal_witness(result)
            label = f"adversary-m{m}-d{d}"
            inst = OmpcInstance(result.system, result.transcript)
            sol = result.responder.solver.finish()
            report.violations.extend(check_adversary_run(result, witness, label))
            _ompc_step(
                report,
                inst,
                sol,
                label,
                t0,
                bound=result.lower_bound,
                seed=0,
                algorithm="mpc",
                witness=violation(result.system, witness),
            )
    return report


def _ompc_random_instance(seed: int, index: int) -> OmpcInstance:
    g_m = 3 + (index * 7) % 18  # m in [3, 20]
    g_n = 4 + (index * 11) % 27  # n in [4, 30]
    g_rows = 3 + (index * 5) % 28  # rows in [3, 30]
    density = 0.3 + 0.5 * ((index * 13) % 10) / 9.0
    return gen_random_ompc(g_m, g_n, g_rows, density, (1.0, 4.0), seed=seed + index)


def suite_ompc_random(count: int = 50, seed: int = 0) -> ExperimentReport:
    """Seeded random streams solved online and compared to the simplex."""
    report = ExperimentReport()
    for idx in range(count):
        inst = _ompc_random_instance(seed, idx)
        t0 = time.perf_counter()
        sol = solve_online(inst.system, inst.rows)
        label = f"ompc-random-{idx}"
        _ompc_step(
            report, inst, sol, label, t0, seed=seed + idx, algorithm="mpc-approx"
        )
    return report


def _ccfl_random_instance(seed: int, index: int) -> CcflInstance:
    m = 4 + (index * 3) % 5  # m in [4, 8]
    n = 8 + (index * 7) % 5  # n in [8, 12]
    return gen_random_ccfl(m, n, seed=seed + index)


def suite_ccfl_random(count: int = 25, seed: int = 0) -> ExperimentReport:
    """Random assignment instances at the brute-forced optimal cost guess."""
    report = ExperimentReport()
    for idx in range(count):
        inst = _ccfl_random_instance(seed, idx)
        t0 = time.perf_counter()
        zstar = brute_force_zstar(inst)
        opt1 = ccfl_opt1(inst, zstar)
        label = f"ccfl-random-{idx}"
        sol = gamma_trials(inst, zstar)
        report.violations.extend(check_ccfl_run(inst, sol, opt1.objective, label))
        report.records.append(
            ExperimentRecord(
                instance=label,
                seed=seed + idx,
                algorithm="ccfl-fractional",
                m=inst.m,
                n=inst.n,
                rho=inst.rho,
                sigma=inst.sigma,
                online=sol.cumulative_cost,
                oracle=opt1.objective,
                ratio=sol.cumulative_cost / opt1.objective,
                bound=ccfl_bound(inst),
                phases=sum(int(st.phases_per_client.sum()) for st in sol.trials),
                trials=len(sol.trials),
                wall_time_s=time.perf_counter() - t0,
            )
        )
    return report


def _mc_instance(m: int, n: int, seed: int) -> CcflInstance:
    # a uniform workload: facilities differ, clients are identical, demands
    # are light; every client then rides the per-facility row maximum, which
    # keeps the candidate probabilities x/y near one
    from .ccfl import CcflClient
    from .rng import rng_for

    g = rng_for(seed, "mc-instance", m, n)
    charges = 1.0 + g.random(m)
    demand = 0.01 + 0.04 * g.random(m)
    assign = 0.05 * g.random(m)
    client = CcflClient(np.arange(m), demand, assign, np.ones(m))
    return CcflInstance(charges, np.ones(m), tuple(client for _ in range(n)))


def _mc_opened_cap(stats: McRoundingStats) -> float:
    """Mean opened fixed charge allowed: the bound plus 3 standard errors."""
    return stats.opened_bound * (1.0 + 3.0 / math.sqrt(stats.reps))


def check_mc_stats(stats: McRoundingStats) -> list[str]:
    """The three Monte-Carlo rounding caps: step-4 frequency per client,
    mean opened fixed charge, mean worst candidate congestion."""
    out: list[str] = []
    p0 = 1.0 / stats.step4_freq.size**2
    step4_cap = p0 + 3.0 * math.sqrt(p0 * (1 - p0) / stats.reps)
    worst_client = float(stats.step4_freq.max())
    if worst_client > step4_cap:
        out.append(f"mc: step-4 frequency {worst_client} above {step4_cap}")
    opened_cap = _mc_opened_cap(stats)
    if stats.mean_opened_cost > opened_cap:
        out.append(f"mc: mean opened cost {stats.mean_opened_cost} above {opened_cap}")
    cong_cap = stats.congestion_bound * (1.0 + CONGESTION_SLACK)
    if stats.mean_max_candidate_congestion > cong_cap:
        out.append(
            f"mc: mean max candidate congestion "
            f"{stats.mean_max_candidate_congestion} above {cong_cap}"
        )
    return out


def suite_ccfl_mc(
    reps: int = 100_000, seed: int = 0, m: int = 5, n: int = 20
) -> tuple[ExperimentReport, McRoundingStats]:
    """Monte-Carlo rounding statistics on one frozen fractional solution."""
    inst = _mc_instance(m, n, seed)
    # generous guess keeps the congestion term from steering the rates, so
    # the per-client fractional profile stays stationary across arrivals
    z_value = 20.0 * max(inst.entry_cost(j).max() for j in range(n))
    solver = CcflFractionalSolver(inst, z_value)
    x_per_client = np.zeros((n, m))
    y_per_client = np.zeros((n, m))
    for j in range(n):
        solver.offer(j)
        x = solver.x_aggregate
        x_per_client[j] = x[:, j]
        y_per_client[j] = openness(inst, x, z_value)
    t0 = time.perf_counter()
    stats = mc_rounding(inst, x_per_client, y_per_client, z_value, reps, seed)
    report = ExperimentReport(violations=check_mc_stats(stats))
    report.records.append(
        ExperimentRecord(
            instance=f"ccfl-mc-m{m}-n{n}",
            seed=seed,
            algorithm="rounding-mc",
            m=m,
            n=n,
            rho=inst.rho,
            sigma=inst.sigma,
            online=stats.mean_opened_cost,
            bound=_mc_opened_cap(stats),
            witness=float(stats.step4_freq.max()),
            wall_time_s=time.perf_counter() - t0,
        )
    )
    return report, stats


# ---------------------------------------------------------------------------
# Config-driven entry point
# ---------------------------------------------------------------------------

SUITES = {  # each suite by name, with the flags it reads
    "ompc-adversary": (suite_ompc_adversary, ()),
    "ompc-random": (suite_ompc_random, ("seed", "count")),
    "ccfl-random": (suite_ccfl_random, ("seed", "count")),
    "ccfl-mc": (lambda **flags: suite_ccfl_mc(**flags)[0], ("seed", "reps")),
}


@dataclass
class ExperimentConfig:
    suite: str
    seed: int | None = None
    count: int | None = None
    reps: int | None = None


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run a suite by name and return its report, violations included.

    ``seed``, ``count`` and ``reps`` left at ``None`` take the suite's own
    default.  A flag the suite does not read, or a size below 1, raises
    ``ValueError`` before the suite runs.
    """
    if config.suite not in SUITES:
        raise ValueError(f"unknown suite {config.suite!r}")
    run, reads = SUITES[config.suite]
    given = {"seed": config.seed, "count": config.count, "reps": config.reps}
    flags = {flag: value for flag, value in given.items() if value is not None}
    for flag, value in flags.items():
        if flag not in reads:
            raise ValueError(f"suite {config.suite} does not read --{flag}")
        if flag != "seed" and value < 1:
            raise ValueError(f"--{flag} must be at least 1, got {value}")
    return run(**flags)
