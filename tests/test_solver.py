import math

import numpy as np
import pytest

from mixpc import (
    CoveringRow,
    OnlineOmpcSolver,
    PackingSystem,
    dual_certificate,
    gen_random_ompc,
    init_trial,
    ompc_opt,
    process_constraint,
    solve_online,
)
from mixpc.instances import OmpcInstance
from mixpc.runner import ompc_phase_budget, ompc_sigma
from mixpc.solver import mu_for

E = math.e


def test_init_trial_all_parameters_one():
    system = PackingSystem(np.array([[1.0]]))
    row = CoveringRow(np.array([0]), np.array([1.0]))
    st = init_trial(system, 1.0, row)
    assert st.x.tolist() == [1.0]


def test_init_trial_identity_quarter():
    system = PackingSystem(np.eye(2))
    row = CoveringRow(np.array([0, 1]), np.array([1.0, 1.0]))
    st = init_trial(system, 1.0, row)
    assert st.x == pytest.approx([0.25, 0.25], abs=1e-15)


def test_mu_value_m2():
    assert mu_for(2) == pytest.approx(1.0 + 1.0 / (3.0 * math.log(2 * E)), abs=1e-15)
    assert mu_for(2) == pytest.approx(1.19688, abs=1e-5)


def test_presatisfied_row_runs_zero_phases():
    system = PackingSystem(np.array([[1.0]]))
    row = CoveringRow(np.array([0]), np.array([1.0]))
    st = init_trial(system, 1.0, row)
    assert process_constraint(st, row, 0) is True
    assert st.phase_index == 0
    sol = solve_online(system, [row])
    assert sol.lambda_value == pytest.approx(1.0)
    assert len(sol.trials) == 1


def hand_simulate_symmetric(gamma: float, m: int = 2) -> tuple[np.ndarray, int]:
    """Scalar re-implementation for P = I2, row (1, 1), symmetric start.

    Both coordinates stay equal, so each phase multiplies them by exactly mu
    until the row is covered.
    """
    mu = mu_for(m)
    x = 0.25
    phases = 0
    while 2 * x < 1.0 - 1e-12:
        # both rates equal by symmetry -> both variables get the full step
        x *= mu
        phases += 1
    return np.array([x, x]), phases


def test_symmetric_identity_matches_hand_recurrence():
    system = PackingSystem(np.eye(2))
    row = CoveringRow(np.array([0, 1]), np.array([1.0, 1.0]))
    gamma = 1.0  # far above max p/(d1 rho kappa1) = 1/2, so no failure
    st = init_trial(system, gamma, row)
    assert process_constraint(st, row, 0) is True
    expected_x, expected_phases = hand_simulate_symmetric(gamma)
    assert st.phase_index == expected_phases
    assert st.x == pytest.approx(expected_x, rel=1e-12)
    # dual coordinate collected e * eps per phase with eps = (mu-1)*rate
    assert st.duals_y[0] > 0


def test_phase_multipliers_capped_and_attained():
    # every phase multiplies row variables by at most mu, at least one by
    # exactly mu; verified by replaying the trajectory one phase at a time
    g_inst = gen_random_ompc(4, 6, 1, 0.7, (1.0, 3.0), seed=42)
    system = g_inst.system
    row = g_inst.rows[0]
    mu = mu_for(system.m)
    st = init_trial(system, 10.0, row)
    for _ in range(10_000):
        if row.coverage(st.x) >= 1.0 - 1e-12:
            break
        before = st.x.copy()
        st_snapshot = init_trial(system, 10.0, row)
        st_snapshot.x[:] = before
        st_snapshot.pvx[:] = st_snapshot.scaled_matrix @ before
        # single phase: a fail level of -inf stops the kernel after one
        from mixpc import _kernels

        status, phases, *_ = _kernels.ompc_row_phases(
            st.scaled_matrix,
            row.indices,
            row.values,
            st.x,
            st.pvx,
            st.z_running,
            st.max_scaled_violation,
            mu,
            -math.inf,
            1e-12,
        )
        if phases == 0:
            break
        factors = st.x[row.indices] / before[row.indices]
        assert float(factors.max()) <= mu + 1e-12
        assert float(factors.max()) == pytest.approx(mu, rel=1e-12)
        untouched = np.setdiff1d(np.arange(system.n), row.indices)
        assert np.array_equal(st.x[untouched], before[untouched])


def test_per_phase_dual_dominates_estimate_growth():
    inst = gen_random_ompc(5, 8, 6, 0.6, (1.0, 4.0), seed=7)
    solver = OnlineOmpcSolver(inst.system)
    for row in inst.rows:
        solver.offer(row)
    sol = solver.finish()
    for rec in sol.trials:
        assert rec.state.min_pd_gap >= -1e-9


def test_monotone_within_and_across_trials():
    inst = gen_random_ompc(6, 10, 8, 0.5, (1.0, 4.0), seed=3)
    solver = OnlineOmpcSolver(inst.system)
    prev = np.zeros(inst.system.n)
    for row in inst.rows:
        x = solver.offer(row)
        assert np.all(x >= prev - 1e-15)
        assert row.coverage(x) >= 1.0 - 1e-12
        prev = x
    sol = solver.finish()
    assert np.all(sol.x_total >= prev - 1e-15)


def test_variable_cap_mu_over_min_coeff():
    inst = gen_random_ompc(5, 8, 10, 0.6, (1.0, 4.0), seed=19)
    sol = solve_online(inst.system, list(inst.rows))
    mu = mu_for(inst.system.m)
    cmin = np.full(inst.system.n, np.inf)
    for row in inst.rows:
        cmin[row.indices] = np.minimum(cmin[row.indices], row.values)
    for rec in sol.trials:
        x = rec.state.x
        touched = np.isfinite(cmin)
        assert np.all(x[touched] <= mu / cmin[touched] + 1e-9)


def test_gamma_doubles_between_trials_and_failure_envelope():
    inst = gen_random_ompc(8, 12, 12, 0.6, (1.0, 4.0), seed=11)
    sol = solve_online(inst.system, list(inst.rows))
    assert len(sol.trials) >= 2  # this seed forces doubling
    m = inst.system.m
    for a, b in zip(sol.trials, sol.trials[1:]):
        assert b.gamma == pytest.approx(2.0 * a.gamma, rel=1e-15)
        assert a.failed
    for rec in sol.trials:
        if rec.failed:
            tl_f = rec.lambda_f / rec.gamma
            assert tl_f >= 3.0 * math.log(E * m) - 1e-9
            assert tl_f <= 1.0 + 3.0 * math.log(E * m) + 1e-9
    assert not sol.trials[-1].failed


def test_kept_scaled_matrix_gives_the_same_solution():
    # a stream that doubles gamma, solved twice on one system (the second
    # solve starts with the last trial's matrix kept) and once on a fresh
    # copy: every solve must give the same bits
    inst = gen_random_ompc(8, 12, 12, 0.6, (1.0, 4.0), seed=11)
    rows = list(inst.rows)
    sols = [
        solve_online(inst.system, rows),
        solve_online(inst.system, rows),
        solve_online(PackingSystem(inst.system.matrix.copy()), rows),
    ]
    assert len(sols[0].trials) >= 2
    for sol in sols[1:]:
        assert sol.x_total.tobytes() == sols[0].x_total.tobytes()
        assert [r.gamma for r in sol.trials] == [r.gamma for r in sols[0].trials]
        assert [r.phases for r in sol.trials] == [r.phases for r in sols[0].trials]


def test_aggregate_lambda_bounded_by_trial_sum():
    inst = gen_random_ompc(8, 12, 12, 0.6, (1.0, 4.0), seed=11)
    sol = solve_online(inst.system, list(inst.rows))
    assert sol.lambda_value <= sum(r.lambda_f for r in sol.trials) + 1e-9


def test_phase_budget_holds():
    for seed in (2, 5, 9):
        inst = gen_random_ompc(6, 9, 10, 0.6, (1.0, 4.0), seed=seed)
        sol = solve_online(inst.system, list(inst.rows))
        budget = ompc_phase_budget(inst)
        for rec in sol.trials:
            assert rec.phases <= budget


def test_dual_certificate_zero_phase_trial():
    system = PackingSystem(np.array([[1.0]]))
    row = CoveringRow(np.array([0]), np.array([1.0]))
    st = init_trial(system, 1.0, row)
    process_constraint(st, row, 0)
    y_scaled, z_scaled = dual_certificate(st, sigma=1.0)
    assert y_scaled[0] == 0.0
    assert float(z_scaled.sum()) <= 1.0 + 1e-12


def test_dual_certificate_requires_rows():
    system = PackingSystem(np.array([[1.0]]))
    row = CoveringRow(np.array([0]), np.array([1.0]))
    st = init_trial(system, 1.0, row)
    with pytest.raises(ValueError):
        dual_certificate(st, sigma=1.0)


def test_dual_certificate_feasible_and_weakly_dominated():
    for seed in (1, 4, 8):
        inst = gen_random_ompc(5, 8, 8, 0.6, (1.0, 4.0), seed=seed)
        solver = OnlineOmpcSolver(inst.system)
        for row in inst.rows:
            solver.offer(row)
        sol = solver.finish()
        sigma = ompc_sigma(inst)
        opt = ompc_opt(inst.system, list(inst.rows))
        for rec in sol.trials:
            y_scaled, z_scaled = dual_certificate(rec.state, sigma)
            cty = np.zeros(inst.system.n)
            for rid, yv in y_scaled.items():
                r = inst.rows[rid]
                cty[r.indices] += r.values * yv
            ptz = inst.system.matrix.T @ z_scaled
            assert float((cty - ptz).max()) <= 1e-9 * max(1.0, float(ptz.max()))
            assert float(z_scaled.sum()) <= 1.0 + 1e-9
            assert sum(y_scaled.values()) <= opt.value * (1 + 1e-7) + 1e-12


def test_zero_packing_column_variable_set_directly():
    # variable 1 carries no packing weight: it gets raised to cover the row
    system = PackingSystem(np.array([[1.0, 0.0]]))
    row = CoveringRow(np.array([1]), np.array([2.0]))
    first = CoveringRow(np.array([0]), np.array([1.0]))
    st = init_trial(system, 1.0, first)
    assert process_constraint(st, first, 0) is True
    lam_before = st.lambda_value()
    assert process_constraint(st, row, 1) is True
    assert row.coverage(st.x) >= 1.0 - 1e-12
    assert st.lambda_value() == pytest.approx(lam_before)  # no packing cost


def test_lowest_zero_column_variable_raised_alone():
    # variables 2 and 4 carry no packing weight and neither comes first in
    # the row: only the lower one, 2, is raised, to 1 / c_2
    system = PackingSystem(np.array([[1.0, 1.0, 0.0, 1.0, 0.0]]))
    first = CoveringRow(np.array([0]), np.array([1.0]))
    row = CoveringRow(np.array([4, 1, 2]), np.array([3.0, 1.0, 4.0]))
    st = init_trial(system, 1.0, first)
    before = st.x.copy()
    assert process_constraint(st, row, 0) is True
    assert st.phases_per_row[0] == 0
    assert st.x[2] == 0.25
    others = [0, 1, 3, 4]
    assert st.x[others].tobytes() == before[others].tobytes()


def test_random_01_instances_within_competitive_bound():
    from mixpc.rng import rng_for

    g = rng_for(31, "solver-01")
    for k in range(5):
        m, n = 4, 8
        mask = g.random((m, n)) < 0.5
        for j in range(n):
            if not mask[:, j].any():
                mask[int(g.integers(m)), j] = True
        rows = []
        for _ in range(6):
            rmask = g.random(n) < 0.4
            if not rmask.any():
                rmask[int(g.integers(n))] = True
            rows.append(CoveringRow(np.nonzero(rmask)[0], np.ones(int(rmask.sum()))))
        system = PackingSystem(mask.astype(float))
        inst = OmpcInstance(system, tuple(rows))
        sol = solve_online(system, rows)
        opt = ompc_opt(system, rows)
        bound = 32.0 * ompc_sigma(inst) * math.log(E * m)
        assert sol.lambda_value <= bound * opt.value + 1e-9


def test_solve_online_rejects_empty_stream():
    with pytest.raises(ValueError):
        solve_online(PackingSystem(np.array([[1.0]])), [])
