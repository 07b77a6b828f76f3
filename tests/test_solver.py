import copy
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from mixpc.runner import ompc_bound, ompc_phase_budget, ompc_sigma
from mixpc.solver import mu_for
from reference_maths import exact_ompc_opt

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
    assert st.phases_per_row == {0: 0}
    sol = solve_online(system, [row])
    assert sol.lambda_value == pytest.approx(1.0)
    assert len(sol.trials) == 1


def _no_kernel(*args):
    raise AssertionError("the phase kernel ran for a covered row")


def test_covered_row_leaves_the_trial_as_it_was(monkeypatch):
    from mixpc import _kernels

    inst = gen_random_ompc(4, 6, 1, 0.7, (1.0, 3.0), seed=42)
    row = inst.rows[0]
    st = init_trial(inst.system, 10.0, row)
    assert process_constraint(st, row, 0) is True
    assert st.phases_per_row[0] > 0
    before = (st.x.tobytes(), st.pvx.tobytes(), st.z_running.tobytes())
    tl, gap = st.max_scaled_violation, st.min_pd_gap
    monkeypatch.setattr(_kernels, "ompc_row_phases", _no_kernel)
    # the same row again is met by the x it left behind
    assert process_constraint(st, row, 1) is True
    assert (st.x.tobytes(), st.pvx.tobytes(), st.z_running.tobytes()) == before
    assert st.phases_per_row[1] == 0
    assert st.duals_y[1] == 0.0
    assert st.rows_seen == [0, 1]
    assert (st.max_scaled_violation, st.min_pd_gap) == (tl, gap)


def test_covered_row_with_an_empty_column_variable_runs_no_phase(monkeypatch):
    from mixpc import _kernels

    # variable 1 carries no packing weight, but the row is met through 0
    system = PackingSystem(np.array([[1.0, 0.0]]))
    first = CoveringRow(np.array([0]), np.array([1.0]))
    row = CoveringRow(np.array([0, 1]), np.array([2.0, 1.0]))
    st = init_trial(system, 1.0, first)
    assert process_constraint(st, first, 0) is True
    x1 = st.x[1]
    monkeypatch.setattr(_kernels, "ompc_row_phases", _no_kernel)
    assert process_constraint(st, row, 1) is True
    assert st.phases_per_row[1] == 0
    assert st.x[1] == x1


def test_offer_returns_none():
    inst = gen_random_ompc(4, 6, 3, 0.7, (1.0, 3.0), seed=42)
    solver = OnlineOmpcSolver(inst.system)
    for row in inst.rows:
        assert solver.offer(row) is None
        assert row.coverage(solver.x_total) >= 1.0 - 1e-12


def test_x_total_before_any_trial_holds_the_free_rows():
    # variable 1 has an empty packing column: a row holding it opens no trial
    solver = OnlineOmpcSolver(PackingSystem(np.array([[1.0, 0.0, 2.0]])))
    assert solver.x_total.tolist() == [0.0, 0.0, 0.0]
    solver.offer(CoveringRow([0, 1], [1.0, 4.0]))
    x = solver.x_total
    assert x.tolist() == [0.0, 0.25, 0.0]
    x[1] = 0.0  # a copy: the solver's own aggregate keeps the free row covered
    assert solver.x_total.tolist() == [0.0, 0.25, 0.0]
    assert solver.finish().trials == ()


def test_a_rejected_row_changes_nothing():
    # a row holding an unknown variable is refused before it opens a trial
    # or takes an id, whether it comes first, into an open trial or after a
    # finish
    solver = OnlineOmpcSolver(PackingSystem(np.eye(2)))
    bad = CoveringRow([0, 5], [1.0, 1.0])
    with pytest.raises(ValueError):
        solver.offer(bad)
    assert solver.finish().trials == ()
    solver.offer(CoveringRow([0, 1], [1.0, 1.0]))
    trial = solver._state
    before = copy.deepcopy(trial)
    with pytest.raises(ValueError):
        solver.offer(bad)
    assert solver._state is trial
    assert trial.rows_seen == before.rows_seen
    assert trial.duals_y == before.duals_y
    assert trial.phases_per_row == before.phases_per_row
    assert trial.x.tobytes() == before.x.tobytes()
    assert trial.pvx.tobytes() == before.pvx.tobytes()
    first = solver.finish().trials
    assert [rec.state.rows_seen for rec in first] == [[0]]
    with pytest.raises(ValueError):
        solver.offer(bad)
    (kept,) = solver.finish().trials
    assert kept is first[0]
    solver.offer(CoveringRow([1], [2.0]))
    trials = solver.finish().trials
    assert trials[0] is first[0]
    assert all(rec.state.rows_seen == [1] for rec in trials[1:])
    for rec in trials:
        dual_certificate(rec.state, 1.0)


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
    assert st.phases_per_row == {0: expected_phases}
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
        # single phase: a fail level of -inf stops the kernel after one
        from mixpc import _kernels

        status, phases, *_ = _kernels.ompc_row_phases(
            system.scaled(st.gamma),
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
        solver.offer(row)
        x = solver.x_total
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
            tl_f = rec.state.lambda_value() / rec.gamma
            assert tl_f >= 3.0 * math.log(E * m) - 1e-9
            assert tl_f <= 1.0 + 3.0 * math.log(E * m) + 1e-9
    assert not sol.trials[-1].failed


def test_gamma_never_drops_across_a_finish():
    # rows offered after finish continue at the last trial's scale, as one
    # stream does, rather than taking a fresh start scale from row 8
    inst = gen_random_ompc(8, 12, 12, 0.6, (1.0, 4.0), seed=11)
    rows = list(inst.rows)
    solver = OnlineOmpcSolver(inst.system)
    for row in rows[:8]:
        solver.offer(row)
    first = solver.finish()
    for row in rows[8:]:
        solver.offer(row)
    sol = solver.finish()
    gammas = [rec.gamma for rec in sol.trials]
    assert gammas == sorted(gammas)
    assert len(gammas) > len(first.trials)
    assert gammas[len(first.trials)] == first.trials[-1].gamma
    assert all(row.coverage(sol.x_total) >= 1.0 - 1e-12 for row in rows)


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
    assert sol.lambda_value <= sum(r.state.lambda_value() for r in sol.trials) + 1e-9


def test_trial_bits_are_pinned():
    # hashed as perfbench's ompc-stream digests hash a run: the trial list
    # and the aggregate; three trials, the first two failed
    inst = gen_random_ompc(8, 12, 12, 0.6, (1.0, 4.0), seed=11)
    sol = solve_online(inst.system, inst.rows)
    assert [rec.phases for rec in sol.trials] == [48, 81, 102]
    assert [rec.failed for rec in sol.trials] == [True, True, False]
    trials = [
        {
            "gamma": rec.gamma,
            "failed": rec.failed,
            "phases": rec.phases,
            "rows": [
                [int(r), int(rec.state.phases_per_row.get(r, 0))]
                for r in rec.state.rows_seen
            ],
        }
        for rec in sol.trials
    ]
    assert hashlib.sha256(json.dumps(trials).encode()).hexdigest() == (
        "6ecc70c640624f6aad119515f392c70ac225786ca8c80920e0ddd4db075e7bf4"
    )
    x_bytes = sol.x_total.tobytes() + repr(sol.lambda_value).encode()
    assert hashlib.sha256(x_bytes).hexdigest() == (
        "feb9750c892c61ae2adf860bb780cdae073e3b73915918f3a03cbe6539c1e5b2"
    )


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


# half of the coefficients span 24 decades, half sit in [0.1, 4)
_COEFFICIENT = st.one_of(
    st.floats(-12.0, 12.0).map(lambda u: 10.0**u),
    st.floats(0.1, 4.0, exclude_max=True),
)


@st.composite
def _small_ompc(draw):
    """A packing matrix (m <= 3, n <= 4, each entry present with
    probability 0.6) and 1-4 covering rows as (indices, values) pairs."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    matrix = np.zeros((m, n))
    for k in range(m):
        for j in range(n):
            if draw(st.integers(0, 4)) < 3:
                matrix[k, j] = draw(_COEFFICIENT)
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        idx = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        rows.append((idx, [draw(_COEFFICIENT) for _ in idx]))
    return matrix, rows


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(_small_ompc())
# the first row is free: variable 1 has an empty packing column
@example((np.array([[1.0, 0.0]]), [([0, 1], [1.0, 1.0]), ([0], [1e9])]))
def test_solver_within_its_bound_of_the_exact_optimum(instance):
    matrix, rows = instance
    try:
        system = PackingSystem(matrix)
        rows = [CoveringRow(idx, val) for idx, val in rows]
        sol = solve_online(system, rows)
    except ValueError:  # no positive packing entry, or the start point out of range
        return
    opt = float(exact_ompc_opt(system, rows))
    if opt == 0.0:
        assert sol.lambda_value == 0.0
        assert sol.trials == ()
    else:
        bound = ompc_bound(OmpcInstance(system, tuple(rows)))
        assert sol.lambda_value <= bound * opt * (1 + 1e-9)
