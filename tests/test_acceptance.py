"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Expensive artifacts (the random-instance sweeps) are shared via
module-scoped fixtures; every tolerance is pinned here, not computed.
"""

import math

import numpy as np
import pytest

from mixpc import (
    MpcResponder,
    brute_force_zstar,
    ccfl_dual_certificate,
    ccfl_opt1,
    dual_certificate,
    gamma_trials,
    harmonic,
    ompc_opt,
    optimal_witness,
    simplex_solve,
    solve_online,
    tree_adversary,
    umsc_lower_bound,
    umsc_prefix_assignment,
    umsc_to_ccfl,
    violation,
)
from mixpc.oracle import LpProblem
from mixpc.rng import rng_for
from mixpc.runner import (
    _ccfl_random_instance,
    _ompc_random_instance,
    ompc_phase_budget,
    ompc_sigma,
    suite_ccfl_mc,
)

E = math.e


def _report(num: int, name: str) -> None:
    print(f"\nACCEPTANCE {num} ({name}): PASS")


# ---------------------------------------------------------------------------
# shared sweeps
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ompc_runs():
    runs = []
    for idx in range(50):
        inst = _ompc_random_instance(seed=1, index=idx)
        sol = solve_online(inst.system, list(inst.rows))
        opt = ompc_opt(inst.system, list(inst.rows))
        runs.append((inst, sol, opt.value))
    return runs


@pytest.fixture(scope="module")
def ccfl_runs():
    runs = []
    for idx in range(25):
        inst = _ccfl_random_instance(seed=1, index=idx)
        zstar = brute_force_zstar(inst)
        opt1 = ccfl_opt1(inst, zstar)
        assert opt1.status == "optimal"
        sol = gamma_trials(inst, zstar)
        runs.append((inst, sol, opt1.objective, zstar))
    return runs


# ---------------------------------------------------------------------------
# 1. lower-bound reproduction
# ---------------------------------------------------------------------------


def test_criterion_1_tree_adversary_lower_bound():
    for m in (4, 8, 16):
        for d in (8, 16):
            result = tree_adversary(m, d, MpcResponder)
            witness = optimal_witness(result)
            for row in result.transcript:
                assert row.coverage(witness) >= 1.0 - 1e-12
            assert violation(result.system, witness) == pytest.approx(
                1.0, abs=1e-12
            )
            forced = math.log2(m) * harmonic(d) / 2.0
            assert result.algorithm_value() >= forced - 1e-9
            if (m, d) == (4, 8):
                assert forced == pytest.approx(2.7179, abs=1e-4)
    _report(1, "tree-adversary lower bound, witness at violation 1")


# ---------------------------------------------------------------------------
# 2. competitive bound for the online solver
# ---------------------------------------------------------------------------


def test_criterion_2_competitive_bound(ompc_runs):
    for inst, sol, opt_value in ompc_runs:
        bound = 32.0 * ompc_sigma(inst) * math.log(E * inst.system.m)
        assert sol.lambda_value <= bound * opt_value * (1 + 1e-9)
    _report(2, "online objective within 32 sigma ln(em) of the optimum, 50 seeds")


# ---------------------------------------------------------------------------
# 3. per-phase primal-dual invariant (both solvers)
# ---------------------------------------------------------------------------


def test_criterion_3_per_phase_primal_dual(ompc_runs, ccfl_runs):
    phases = 0
    for _inst, sol, _opt in ompc_runs:
        for rec in sol.trials:
            phases += rec.phases
            assert rec.state.min_pd_gap >= -1e-9
    for _inst, sol, _opt, _z in ccfl_runs:
        for st in sol.trials:
            assert st.gamma >= 1.0
            phases += int(st.phases_per_client.sum())
            assert st.min_pd_gap >= -1e-9
    assert phases > 0
    _report(3, f"dual increase dominates penalty growth on {phases} phases")


# ---------------------------------------------------------------------------
# 4. dual-feasibility certificates + weak duality
# ---------------------------------------------------------------------------


def test_criterion_4_dual_certificates(ompc_runs, ccfl_runs):
    for inst, sol, opt_value in ompc_runs:
        sigma = ompc_sigma(inst)
        for rec in sol.trials:
            y_scaled, z_scaled = dual_certificate(rec.state, sigma)
            cty = np.zeros(inst.system.n)
            for rid, yv in y_scaled.items():
                row = inst.rows[rid]
                cty[row.indices] += row.values * yv
            ptz = inst.system.matrix.T @ z_scaled
            assert float((cty - ptz).max()) <= 1e-9 * max(1.0, float(ptz.max()))
            assert float(z_scaled.sum()) <= 1.0 + 1e-9
            assert sum(y_scaled.values()) <= opt_value * (1 + 1e-7) + 1e-12
    for inst, sol, opt1_value, zstar in ccfl_runs:
        p = inst.dense_demand()
        a = inst.dense_assign_cost()
        for st in sol.trials:
            cert = ccfl_dual_certificate(st)
            assert float(cert.delta.sum()) <= zstar + 1e-9 * max(1.0, zstar)
            by_fac = np.zeros(inst.m)
            for i, j in np.argwhere(st.x > 0).tolist():
                b = cert.beta[i, j]
                by_fac[i] += b
                lhs = st.gamma * cert.alpha[j] - b - p[i, j] * cert.gamma_[i] - a[i, j]
                assert lhs <= 1e-9
            fam2 = by_fac + zstar * cert.gamma_ - cert.delta - inst.fixed_charge
            assert float(fam2.max()) <= 1e-9 * max(
                1.0, float(inst.fixed_charge.max())
            )
            assert float(cert.alpha.sum()) <= (opt1_value / st.gamma) * (1 + 1e-7)
    _report(4, "scaled duals feasible, weak duality against the oracle")


# ---------------------------------------------------------------------------
# 5. phase budget
# ---------------------------------------------------------------------------


def test_criterion_5_phase_budget(ompc_runs):
    for inst, sol, _opt in ompc_runs:
        budget = ompc_phase_budget(inst)
        for rec in sol.trials:
            assert rec.phases <= budget
    _report(5, "per-trial phase count within n log_mu(mu d^2 rho kappa)")


# ---------------------------------------------------------------------------
# 6. fractional assignment bound
# ---------------------------------------------------------------------------


def test_criterion_6_ccfl_fractional_bound(ccfl_runs):
    for inst, sol, opt1_value, _z in ccfl_runs:
        bound = (
            8.0
            * inst.sigma
            * (1.0 + 6.0 * math.log(E * inst.m * inst.n))
            * opt1_value
        )
        assert sol.cumulative_cost <= bound * (1 + 1e-9)
    _report(6, "cumulative fractional cost within 8 sigma (1+6 ln(emn)) OPT1")


# ---------------------------------------------------------------------------
# 7. rounding statistics
# ---------------------------------------------------------------------------


def test_criterion_7_rounding_statistics():
    reps = 100_000
    report, stats = suite_ccfl_mc(reps=reps, seed=0, m=5, n=20)
    assert report.passed, report.violations
    p0 = 1.0 / 20**2
    step4_cap = p0 + 3.0 * math.sqrt(p0 * (1 - p0) / reps)
    assert float(stats.step4_freq.max()) <= step4_cap
    assert stats.mean_opened_cost <= stats.opened_bound * (1 + 3.0 / math.sqrt(reps))
    assert stats.mean_max_candidate_congestion <= stats.congestion_bound * 1.05
    _report(7, f"rounding Monte Carlo at {reps} seeds within all three caps")


# ---------------------------------------------------------------------------
# 8. scheduling lower-bound demonstration
# ---------------------------------------------------------------------------


def test_criterion_8_umsc_lower_bound():
    m, t_star = 5, 5.0
    umsc = umsc_lower_bound(m, t_star)
    _assign, makespan = umsc_prefix_assignment(umsc, 2 * (m - 1))
    assert makespan == t_star  # exact: the two loads per machine sum to T*
    inst = umsc_to_ccfl(umsc)
    offline = float(np.exp([m * (i - 1) for i in range(2, m + 1)]).sum()) + t_star
    zstar = brute_force_zstar(inst)
    assert zstar <= offline + 1e-6
    sol = gamma_trials(inst, offline)
    machine1_load = float((inst.dense_demand() * sol.x)[0].sum())
    opened_cost = float(inst.fixed_charge @ sol.y)
    assert (
        machine1_load >= (m - 1) * t_star / 2.0 * 0.5
        or opened_cost > (E**m / m) * offline
    )
    _report(8, "hard schedule forces the cheap machine or blows the budget")


# ---------------------------------------------------------------------------
# 9. appendix property sweeps
# ---------------------------------------------------------------------------


def test_criterion_9_property_sweeps():
    trials = 10_000
    g = rng_for(90, "acceptance-prefix")
    for _ in range(trials):
        length = int(g.integers(1, 30))
        a = g.random(length) + 1e-9
        lhs = float((a / np.cumsum(a)).sum())
        assert lhs <= 1.0 + math.log(float(a.sum() / a[0])) + 1e-9

    g = rng_for(91, "acceptance-ratio")
    for _ in range(trials):
        length = int(g.integers(1, 30))
        u = np.sort(g.random(length)) + 0.05
        p = g.random(length)
        x = g.random(length)
        pref = np.cumsum(p * x)
        t_val = float((pref / u).max())
        p_val = float((p * x / u).sum())
        assert p_val <= t_val * (1.0 + math.log(float(u[-1] / u[0]))) + 1e-9

    g = rng_for(92, "acceptance-growth")
    for _ in range(trials):
        m = int(g.integers(1, 6))
        n = int(g.integers(1, 7))
        mu = 1.0 + 1.0 / (3.0 * math.log(E * m))
        pt = g.random((m, n))
        x1 = g.random(n) + 1e-6
        cap = 3.0 * math.log(E * m)
        lam = float((pt @ x1).max())
        if lam > cap:
            x1 *= cap / lam
        x2 = x1 * (1.0 + (mu - 1.0) * g.random(n))
        v1 = pt @ x1
        v2 = pt @ x2
        h1 = v1.max()
        h2 = v2.max()
        r1 = (np.exp(v1 - h1) @ pt) / np.exp(v1 - h1).sum()
        r2 = (np.exp(v2 - h2) @ pt) / np.exp(v2 - h2).sum()
        assert np.all(r2 <= E * r1 + 1e-9)
    _report(9, f"three appendix inequalities, {trials} random trials each")


# ---------------------------------------------------------------------------
# 10. oracle self-check
# ---------------------------------------------------------------------------


def test_criterion_10_oracle_self_check():
    g = rng_for(100, "acceptance-oracle")
    solved = 0
    while solved < 100:
        nv = int(g.integers(3, 10))
        nr = int(g.integers(2, 9))
        a = g.random((nr, nv)) * 2.0
        x0 = g.random(nv) * 2.0
        senses = []
        rhs = np.zeros(nr)
        for i in range(nr):
            margin = 0.1 + g.random()
            if g.random() < 0.5:
                senses.append("<=")
                rhs[i] = a[i] @ x0 + margin
            else:
                senses.append(">=")
                rhs[i] = max(a[i] @ x0 - margin, 0.0)
        c = g.random(nv) * 2.0 - 0.5
        full = LpProblem(
            c,
            np.vstack([a, np.eye(nv)]),
            tuple(senses) + ("<=",) * nv,
            np.concatenate([rhs, x0 + 5.0]),
        )
        sol = simplex_solve(full)
        assert sol.status == "optimal"
        x, y = sol.primal, sol.duals
        dual_obj = float(y @ full.rhs)
        assert dual_obj == pytest.approx(sol.objective, rel=1e-7, abs=1e-9)
        resid = full.lhs @ x - full.rhs
        for i in range(full.rhs.size):
            assert abs(y[i] * resid[i]) <= 1e-7 * max(1.0, abs(full.rhs[i]))
        rc = full.objective - full.lhs.T @ y
        assert float(np.abs(rc * x).max()) <= 1e-7 * max(1.0, float(np.abs(x).max()))
        solved += 1
    _report(10, "strong duality and complementary slackness on 100 dense programs")
