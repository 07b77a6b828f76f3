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
from dataclasses import dataclass, field

import numpy as np

from .adversary import (
    RESPONDERS,
    TreeAdversaryResult,
    optimal_witness,
    tree_adversary,
)
from .ccfl import (
    CcflFractionalSolver,
    CcflInstance,
    ccfl_dual_certificate,
    gamma_trials,
)
from .core import violation
from .instances import OmpcInstance, gen_random_ccfl, gen_random_ompc
from .oracle import brute_force_zstar, ccfl_opt1, ompc_opt
from .rounding import McRoundingStats, mc_rounding
from .solver import dual_certificate, mu_for, solve_online

__all__ = [
    "ExperimentRecord",
    "ExperimentReport",
    "ExperimentConfig",
    "run_experiment",
    "report_to_csv",
    "ompc_sigma",
    "ompc_phase_budget",
    "ompc_bound",
    "ccfl_bound",
    "check_ompc_run",
    "check_ccfl_run",
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

REPORT_COLUMNS = (
    "instance",
    "seed",
    "algorithm",
    "m",
    "n",
    "d",
    "rho",
    "kappa",
    "sigma",
    "online",
    "oracle",
    "ratio",
    "bound",
    "phases",
    "trials",
    "epochs",
    "witness",
    "wall_time_s",
)


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


def ompc_sigma(instance: OmpcInstance) -> float:
    """Post-hoc ``e^2 ln(mu d^2 rho kappa)`` from the full stream."""
    mu = mu_for(instance.system.m)
    return _E**2 * math.log(
        mu * instance.d**2 * instance.system.rho * instance.kappa
    )


def ompc_phase_budget(instance: OmpcInstance) -> int:
    """Per-trial phase allowance ``n * ceil(log_mu(mu d^2 rho kappa))``."""
    mu = mu_for(instance.system.m)
    arg = mu * instance.d**2 * instance.system.rho * instance.kappa
    return instance.system.n * math.ceil(math.log(arg) / math.log(mu))


def ompc_bound(instance: OmpcInstance) -> float:
    """Competitive ratio ``32 sigma ln(e m)`` of the online solver."""
    return 32.0 * ompc_sigma(instance) * math.log(_E * instance.system.m)


def ccfl_bound(instance: CcflInstance) -> float:
    """Fractional cost ratio ``8 sigma (1 + 6 ln(e m n))`` against OPT1."""
    log_emn = math.log(_E * instance.m * instance.n)
    return 8.0 * instance.sigma * (1.0 + 6.0 * log_emn)


def _ompc_dual_feasible(
    instance: OmpcInstance, state, sigma: float
) -> tuple[float, float]:
    """Residuals of both dual families for one trial (<= 0 means feasible)."""
    y_scaled, z_scaled = dual_certificate(state, sigma)
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

    At ``OPT = 0`` no ratio holds.  Every covering row then holds a variable
    with an empty packing column, which the solver raises without running a
    phase, so each trial must have run none.
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
    for t, rec in enumerate(solution.trials):
        if opt_value == 0.0 and rec.phases:
            out.append(f"{label}: trial {t} ran {rec.phases} phases at OPT 0")
        if rec.phases > budget:
            out.append(f"{label}: trial {t} used {rec.phases} phases > budget {budget}")
        if rec.state.min_pd_gap < -PD_TOL:
            out.append(
                f"{label}: trial {t} primal-dual gap {rec.state.min_pd_gap} < -{PD_TOL}"
            )
        fam1, fam2 = _ompc_dual_feasible(instance, rec.state, sigma)
        if fam1 > DUAL_TOL or fam2 > DUAL_TOL:
            out.append(f"{label}: trial {t} dual infeasible ({fam1}, {fam2})")
        y_scaled, _ = dual_certificate(rec.state, sigma)
        weak = sum(y_scaled.values())
        if weak > opt_value * (1 + 1e-7) + 1e-12:
            out.append(f"{label}: trial {t} weak duality {weak} > OPT {opt_value}")
        if rec.failed:
            tl_f = rec.lambda_f / rec.gamma
            if tl_f > 1.0 + 3.0 * math.log(_E * m) + 1e-9:
                out.append(f"{label}: trial {t} failed above the mu-step envelope")
    lam_sum = sum(rec.lambda_f for rec in solution.trials)
    if solution.lambda_value > lam_sum * (1 + 1e-9) + 1e-12:
        out.append(f"{label}: aggregate violation exceeds per-trial sum")
    return out


def check_ccfl_run(
    instance: CcflInstance,
    solution,
    opt1_value: float,
    label: str,
) -> list[str]:
    out: list[str] = []
    m = instance.m
    zz = solution.z_value
    frac_bound = ccfl_bound(instance) * opt1_value
    if solution.cumulative_cost > frac_bound * (1 + 1e-9):
        out.append(
            f"{label}: cumulative fractional cost {solution.cumulative_cost} "
            f"exceeds {frac_bound}"
        )
    if solution.lp1_objective > solution.cumulative_cost * (1 + 1e-9):
        out.append(f"{label}: aggregate objective exceeds cumulative trial cost")
    p_dense = instance.dense_demand()
    a_dense = instance.dense_assign_cost()
    for t, st in enumerate(solution.trials):
        if st.min_pd_gap < -PD_TOL:
            out.append(
                f"{label}: trial {t} primal-dual gap {st.min_pd_gap} < -{PD_TOL}"
            )
        cert = ccfl_dual_certificate(st)
        szscale = max(1.0, zz)
        if float(cert.delta.sum()) - zz > DUAL_TOL * szscale:
            out.append(f"{label}: trial {t} dual family-3 infeasible")
        beta_by_fac = np.zeros(m)
        for (i, _j), b in cert.beta.items():
            beta_by_fac[i] += b
        fam2 = beta_by_fac + zz * cert.gamma_ - cert.delta - instance.fixed_charge
        cscale = np.maximum(1.0, instance.fixed_charge)
        if float((fam2 / cscale).max()) > DUAL_TOL:
            out.append(f"{label}: trial {t} dual family-2 infeasible")
        worst1 = -math.inf
        for (i, j), b in cert.beta.items():
            lhs = (
                st.gamma * cert.alpha[j]
                - b
                - p_dense[i, j] * cert.gamma_[i]
                - a_dense[i, j]
            )
            worst1 = max(worst1, lhs)
        if worst1 > DUAL_TOL:
            out.append(f"{label}: trial {t} dual family-1 infeasible ({worst1})")
        weak = float(cert.alpha.sum())
        if weak > (opt1_value / st.gamma) * (1 + 1e-7) + 1e-12:
            out.append(
                f"{label}: trial {t} weak duality {weak} > OPT1/gamma "
                f"{opt1_value / st.gamma}"
            )
    return out


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


def suite_ompc_adversary(
    ms: tuple[int, ...] = (4, 8, 16),
    ds: tuple[int, ...] = (8, 16),
    seed: int = 0,
    algorithm: str = "mpc",
    with_checks: bool = True,
) -> ExperimentReport:
    """Tree-adversary grid; checks the witness and the forced lower bound."""
    if algorithm not in RESPONDERS:
        raise ValueError(f"unknown adversary algorithm {algorithm!r}")
    report = ExperimentReport()
    for m in ms:
        for d in ds:
            t0 = time.perf_counter()
            result = tree_adversary(m, d, RESPONDERS[algorithm])
            witness = optimal_witness(result)
            lam = result.algorithm_value()
            label = f"adversary-m{m}-d{d}"
            inst = OmpcInstance(result.system, result.transcript)
            opt_val = ompc_opt(result.system, list(result.transcript)).value
            ratio = lam / opt_val
            if with_checks:
                report.violations.extend(check_adversary_run(result, witness, label))
                if ratio < 1.0 - 1e-9:
                    report.violations.append(f"{label}: online beat the oracle")
            phases = trials = None
            if algorithm == "mpc":
                sol = result.responder.solver.finish()
                phases = sum(rec.phases for rec in sol.trials)
                trials = len(sol.trials)
                if with_checks:
                    report.violations.extend(
                        check_ompc_run(inst, sol, opt_val, label)
                    )
            report.records.append(
                ExperimentRecord(
                    instance=label,
                    seed=seed,
                    algorithm=algorithm,
                    m=m,
                    n=result.system.n,
                    d=inst.d,
                    rho=result.system.rho,
                    kappa=inst.kappa,
                    sigma=ompc_sigma(inst),
                    online=lam,
                    oracle=opt_val,
                    ratio=ratio,
                    bound=result.lower_bound,
                    phases=phases,
                    trials=trials,
                    witness=violation(result.system, witness),
                    wall_time_s=time.perf_counter() - t0,
                )
            )
    return report


def _ompc_random_instance(seed: int, index: int) -> tuple[OmpcInstance, dict]:
    g_m = 3 + (index * 7) % 18  # m in [3, 20]
    g_n = 4 + (index * 11) % 27  # n in [4, 30]
    g_rows = 3 + (index * 5) % 28  # rows in [3, 30]
    density = 0.3 + 0.5 * ((index * 13) % 10) / 9.0
    inst = gen_random_ompc(
        g_m, g_n, g_rows, density, (1.0, 4.0), seed=seed + index
    )
    return inst, {"m": g_m, "n": g_n, "rows": g_rows}


def suite_ompc_random(
    count: int = 50, seed: int = 0, with_checks: bool = True
) -> ExperimentReport:
    """Seeded random streams solved online and compared to the simplex."""
    report = ExperimentReport()
    for idx in range(count):
        inst, dims = _ompc_random_instance(seed, idx)
        t0 = time.perf_counter()
        sol = solve_online(inst.system, inst.rows)
        opt = ompc_opt(inst.system, list(inst.rows))
        label = f"ompc-random-{idx}"
        ratio = sol.lambda_value / opt.value
        if with_checks:
            report.violations.extend(check_ompc_run(inst, sol, opt.value, label))
            if ratio < 1.0 - 1e-9:
                report.violations.append(f"{label}: online beat the oracle")
        report.records.append(
            ExperimentRecord(
                instance=label,
                seed=seed + idx,
                algorithm="mpc-approx",
                m=inst.system.m,
                n=inst.system.n,
                d=inst.d,
                rho=inst.system.rho,
                kappa=inst.kappa,
                sigma=ompc_sigma(inst),
                online=sol.lambda_value,
                oracle=opt.value,
                ratio=ratio,
                bound=ompc_bound(inst),
                phases=sum(rec.phases for rec in sol.trials),
                trials=len(sol.trials),
                wall_time_s=time.perf_counter() - t0,
            )
        )
    return report


def _ccfl_random_instance(seed: int, index: int) -> CcflInstance:
    m = 4 + (index * 3) % 5  # m in [4, 8]
    n = 8 + (index * 7) % 5  # n in [8, 12]
    return gen_random_ccfl(m, n, seed=seed + index)


def suite_ccfl_random(
    count: int = 25, seed: int = 0, with_checks: bool = True
) -> ExperimentReport:
    """Random assignment instances at the brute-forced optimal cost guess."""
    report = ExperimentReport()
    for idx in range(count):
        inst = _ccfl_random_instance(seed, idx)
        t0 = time.perf_counter()
        zstar = brute_force_zstar(inst)
        opt1 = ccfl_opt1(inst, zstar)
        label = f"ccfl-random-{idx}"
        if opt1.status != "optimal":
            if with_checks:
                report.violations.append(f"{label}: oracle returned {opt1.status}")
            continue
        sol = gamma_trials(inst, zstar)
        if with_checks:
            report.violations.extend(
                check_ccfl_run(inst, sol, opt1.objective, label)
            )
            if opt1.objective < zstar * (1 - 1e-9):
                report.violations.append(f"{label}: OPT1 below Z")
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
                phases=sum(
                    sum(st.phases_per_client.values()) for st in sol.trials
                ),
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
    fac = np.arange(m, dtype=np.int64)
    client = CcflClient(
        facilities=fac, demand=demand, raw_demand=demand, assign_cost=assign
    )
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
    reps: int = 100_000,
    seed: int = 0,
    m: int = 5,
    n: int = 20,
    with_checks: bool = True,
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
        x_per_client[j] = solver.x_aggregate[:, j]
        y_per_client[j] = solver.y_aggregate
    t0 = time.perf_counter()
    stats = mc_rounding(inst, x_per_client, y_per_client, z_value, reps, seed)
    report = ExperimentReport()
    if with_checks:
        report.violations.extend(check_mc_stats(stats))
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


@dataclass
class ExperimentConfig:
    suite: str
    seed: int = 0
    count: int | None = None
    reps: int | None = None
    out: str | None = None
    bound_check: bool = True


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Dispatch a suite by name and optionally write its CSV report.

    ``count`` and ``reps`` left at ``None`` take the suite's own default; a
    value below 1, or one the suite does not read, raises ``ValueError``.
    """
    suites = {  # each suite with the size flags it reads
        "ompc-adversary": (suite_ompc_adversary, ()),
        "ompc-random": (suite_ompc_random, ("count",)),
        "ccfl-random": (suite_ccfl_random, ("count",)),
        "ccfl-mc": (suite_ccfl_mc, ("reps",)),
    }
    if config.suite not in suites:
        raise ValueError(f"unknown suite {config.suite!r}")
    run, reads = suites[config.suite]
    given = {"count": config.count, "reps": config.reps}
    sizes = {flag: value for flag, value in given.items() if value is not None}
    for flag, value in sizes.items():
        if flag not in reads:
            raise ValueError(f"suite {config.suite} does not read --{flag}")
        if value < 1:
            raise ValueError(f"--{flag} must be at least 1, got {value}")
    report = run(seed=config.seed, with_checks=config.bound_check, **sizes)
    if config.suite == "ccfl-mc":
        report, _ = report
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(report_to_csv(report))
    return report
