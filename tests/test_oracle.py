import numpy as np
import pytest
import scipy.optimize

from mixpc import (
    CoveringRow,
    LpProblem,
    PackingSystem,
    brute_force_zstar,
    ccfl_opt1,
    gen_random_ccfl,
    ompc_opt,
    simplex_solve,
    umsc_lower_bound,
    umsc_to_ccfl,
)
from mixpc.ccfl import CcflClient, CcflInstance
from mixpc.oracle import _Tableau
from mixpc.rng import rng_for


def test_min_lambda_single_variable():
    prob = LpProblem(
        np.array([0.0, 1.0]),
        np.array([[1.0, 0.0], [1.0, -1.0]]),
        (">=", "<="),
        np.array([1.0, 0.0]),
    )
    sol = simplex_solve(prob)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, abs=1e-10)


def test_min_lambda_symmetric_split():
    prob = LpProblem(
        np.array([0.0, 0.0, 1.0]),
        np.array([[1.0, 1.0, 0.0], [1.0, 0.0, -1.0], [0.0, 1.0, -1.0]]),
        (">=", "<=", "<="),
        np.array([1.0, 0.0, 0.0]),
    )
    sol = simplex_solve(prob)
    assert sol.objective == pytest.approx(0.5, abs=1e-10)


def test_statuses():
    infeas = LpProblem(
        np.array([1.0]), np.array([[1.0], [1.0]]), (">=", "<="), np.array([2.0, 1.0])
    )
    assert simplex_solve(infeas).status == "infeasible"
    unbounded = LpProblem(
        np.array([-1.0]), np.array([[1.0]]), (">=",), np.array([1.0])
    )
    assert simplex_solve(unbounded).status == "unbounded"


@pytest.mark.parametrize(
    "senses, rhs",
    [(("=",), [1.0]), (("<",), [1.0]), ((">=",), [-1.0])],
    ids=["equality", "strict", "negative-rhs"],
)
def test_lp_problem_rejects_unsupported_rows(senses, rhs):
    with pytest.raises(ValueError):
        LpProblem(np.array([1.0]), np.array([[1.0]]), senses, np.array(rhs))


def _pivot_row_loop(binv, xb, row, d, piv):
    """Reference pivot: the rank-1 update written one row at a time."""
    binv[row, :] /= piv
    xb[row] /= piv
    for i in range(binv.shape[0]):
        if i != row and d[i] != 0.0:
            binv[i, :] -= d[i] * binv[row, :]
            xb[i] -= d[i] * xb[row]


def test_pivot_matches_row_loop_bit_for_bit():
    g = rng_for(26, "oracle-pivot")
    for _ in range(20):
        nr = int(g.integers(2, 9))
        a = g.random((nr, nr + 4)) * 2.0 - 1.0
        tab = _Tableau(a, g.random(nr), list(range(4, nr + 4)))
        tab.binv = g.random((nr, nr))
        d = g.random(nr) * (g.random(nr) < 0.6)  # some exact zeros
        row = int(g.integers(0, nr))
        d[row] = 0.5 + g.random()
        binv, xb = tab.binv.copy(), tab.xb.copy()
        _pivot_row_loop(binv, xb, row, d, d[row])
        tab.pivot(row, 0, d, d[row])
        assert np.array_equal(tab.binv, binv)
        assert np.array_equal(tab.xb, xb)
        assert tab.basis[row] == 0


def _random_feasible_lp(g: np.random.Generator):
    nv = int(g.integers(3, 9))
    nr = int(g.integers(2, 8))
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
    # the box x <= x0 + 5 as explicit rows, so duals cover every constraint
    return LpProblem(
        c,
        np.vstack([a, np.eye(nv)]),
        tuple(senses) + ("<=",) * nv,
        np.concatenate([rhs, x0 + 5.0]),
    )


def test_random_lps_match_scipy():
    # independently coded solver cross-check
    g = rng_for(21, "oracle-scipy")
    for _ in range(40):
        prob = _random_feasible_lp(g)
        mine = simplex_solve(prob)
        assert mine.status == "optimal"
        sign = np.array([1.0 if s == "<=" else -1.0 for s in prob.senses])
        ref = scipy.optimize.linprog(
            prob.objective,
            A_ub=prob.lhs * sign[:, None],
            b_ub=prob.rhs * sign,
            method="highs",
        )
        assert ref.status == 0
        assert mine.objective == pytest.approx(ref.fun, rel=1e-7, abs=1e-9)


def test_strong_duality_and_slackness_random():
    g = rng_for(22, "oracle-duality")
    for _ in range(60):
        full = _random_feasible_lp(g)
        sol = simplex_solve(full)
        assert sol.status == "optimal"
        x, y = sol.primal, sol.duals
        resid = full.lhs @ x - full.rhs
        for i, s in enumerate(full.senses):
            if s == "<=":
                assert resid[i] <= 1e-8
            else:
                assert resid[i] >= -1e-8
            assert abs(y[i] * resid[i]) <= 1e-7 * max(1.0, abs(full.rhs[i]))
        dual_obj = float(y @ full.rhs)
        assert dual_obj == pytest.approx(sol.objective, rel=1e-7, abs=1e-9)
        # dual feasibility via reduced costs
        rc = full.objective - full.lhs.T @ y
        assert float(rc.min()) >= -1e-7
        assert float(np.abs(rc * x).max()) <= 1e-7 * max(1.0, float(np.abs(x).max()))


def test_ompc_opt_single_variable():
    system = PackingSystem(np.array([[1.0]]))
    row = CoveringRow(np.array([0]), np.array([1.0]))
    res = ompc_opt(system, [row])
    assert res.value == pytest.approx(1.0, abs=1e-10)


def test_ompc_opt_strong_duality_random():
    from mixpc import gen_random_ompc

    g = rng_for(23, "oracle-ompc")
    for k in range(10):
        inst = gen_random_ompc(4, 6, 5, 0.6, (1.0, 3.0), seed=900 + k)
        res = ompc_opt(inst.system, list(inst.rows))
        assert res.dual_value == pytest.approx(res.value, rel=1e-7, abs=1e-9)
        # the returned multipliers are feasible for the dual program
        cty = np.zeros(inst.system.n)
        for row, yv in zip(inst.rows, res.y):
            cty[row.indices] += row.values * yv
        ptz = inst.system.matrix.T @ res.z
        assert float((cty - ptz).max()) <= 1e-8
        assert float(res.z.sum()) <= 1.0 + 1e-8


def test_ccfl_opt1_at_least_z():
    g = rng_for(24, "oracle-opt1")
    for k in range(8):
        inst = gen_random_ccfl(3, 4, seed=500 + k)
        zstar = brute_force_zstar(inst)
        sol = ccfl_opt1(inst, zstar)
        assert sol.status == "optimal"
        assert sol.objective >= zstar - 1e-9
        assert sol.objective <= 2 * zstar + 1e-9  # guess at least the optimum


def test_ccfl_opt1_infeasible_below_entry_cost():
    inst = gen_random_ccfl(3, 4, seed=77)
    z_small = 0.5 * min(inst.min_entry_cost(j) for j in range(inst.n))
    assert ccfl_opt1(inst, z_small).status == "infeasible"


def test_ccfl_opt1_uniform_cross_check():
    # 2 facilities x 2 clients, all parameters 1: optimum found by scipy too
    client = CcflClient(
        facilities=np.array([0, 1]),
        demand=np.ones(2),
        raw_demand=np.ones(2),
        assign_cost=np.ones(2),
    )
    inst = CcflInstance(np.ones(2), np.ones(2), (client, client))
    z = 3.0
    sol = ccfl_opt1(inst, z)
    assert sol.status == "optimal"
    # variables: x00 x10 x01 x11 y0 y1 lam
    c = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, z])
    a_ub = np.array(
        [
            [-1, -1, 0, 0, 0, 0, 0],
            [0, 0, -1, -1, 0, 0, 0],
            [1, 0, 0, 0, -1, 0, 0],
            [0, 1, 0, 0, 0, -1, 0],
            [0, 0, 1, 0, -1, 0, 0],
            [0, 0, 0, 1, 0, -1, 0],
            [1, 0, 1, 0, -z, 0, 0],
            [0, 1, 0, 1, 0, -z, 0],
            [0, 0, 0, 0, 1, 0, -1],
            [0, 0, 0, 0, 0, 1, -1],
            [0, 0, 0, 0, 0, 0, -1],
        ],
        dtype=float,
    )
    b_ub = np.array([-1, -1, 0, 0, 0, 0, 0, 0, 0, 0, -1], dtype=float)
    ref = scipy.optimize.linprog(c, A_ub=a_ub, b_ub=b_ub, method="highs")
    assert ref.status == 0
    assert sol.objective == pytest.approx(ref.fun, rel=1e-8)


def _ccfl_opt1_highs(inst, z):
    """The assignment LP over dense (facility, client) variables, by HiGHS.

    Variables are x[i, j] (row-major), y, lambda; x[i, j] is fixed at 0
    unless facility i is a candidate for client j at guess z.
    """
    m, n = inst.m, inst.n
    demand = inst.dense_demand()
    assign = inst.dense_assign_cost()
    cand = np.zeros((m, n), dtype=bool)
    for j, cl in enumerate(inst.clients):
        for t, i in enumerate(cl.facilities):
            cost = inst.fixed_charge[i] + cl.demand[t] + cl.assign_cost[t]
            cand[i, j] = cost <= z
    nx = m * n
    nv = nx + m + 1
    lam = nv - 1
    rows, b_ub = [], []
    for j in range(n):  # sum_i x_ij >= 1
        r = np.zeros(nv)
        r[[i * n + j for i in range(m)]] = -1.0
        rows.append(r)
        b_ub.append(-1.0)
    for i in range(m):
        for j in range(n):  # x_ij <= y_i
            r = np.zeros(nv)
            r[i * n + j] = 1.0
            r[nx + i] = -1.0
            rows.append(r)
            b_ub.append(0.0)
    for i in range(m):  # sum_j p_ij x_ij <= z y_i
        r = np.zeros(nv)
        r[i * n : (i + 1) * n] = demand[i]
        r[nx + i] = -z
        rows.append(r)
        b_ub.append(0.0)
    for i in range(m):  # y_i <= lambda
        r = np.zeros(nv)
        r[nx + i] = 1.0
        r[lam] = -1.0
        rows.append(r)
        b_ub.append(0.0)
    r = np.zeros(nv)
    r[lam] = -1.0
    rows.append(r)
    b_ub.append(-1.0)
    c = np.concatenate([assign.ravel(), inst.fixed_charge, [z]])
    bounds = [(0.0, None if ok else 0.0) for ok in cand.ravel()]
    bounds += [(0.0, None)] * (m + 1)
    ref = scipy.optimize.linprog(
        c, A_ub=np.array(rows), b_ub=np.array(b_ub), bounds=bounds, method="highs"
    )
    return ref, cand


@pytest.mark.parametrize("seed", range(5))
def test_ccfl_opt1_partial_candidates_match_highs(seed):
    inst = gen_random_ccfl(3 + seed % 3, 5 + seed, seed=800 + seed)
    costs = np.concatenate([inst.entry_cost(j) for j in range(inst.n)])
    z = float(np.quantile(costs, 0.7))
    ref, cand = _ccfl_opt1_highs(inst, z)
    assert (~cand.all(axis=0) & cand.any(axis=0)).any()  # a strict subset
    sol = ccfl_opt1(inst, z)
    assert sol.status == {0: "optimal", 2: "infeasible"}[ref.status]
    if sol.status == "optimal":
        assert sol.objective == pytest.approx(ref.fun, rel=1e-8)


def test_brute_force_single_effective_facility():
    # second facility priced out: optimum opens only the cheap one
    clients = tuple(
        CcflClient(
            facilities=np.array([0, 1]),
            demand=np.array([p, p]),
            raw_demand=np.array([p, p]),
            assign_cost=np.array([a, a + 1e9]),
        )
        for p, a in ((0.5, 0.25), (1.5, 0.75))
    )
    inst = CcflInstance(np.array([2.0, 1e12]), np.ones(2), clients)
    expected = 2.0 + (0.5 + 1.5) + (0.25 + 0.75)
    assert brute_force_zstar(inst) == pytest.approx(expected, rel=1e-12)


def test_brute_force_size_guard():
    inst = gen_random_ccfl(3, 4, seed=1)
    with pytest.raises(ValueError):
        brute_force_zstar(inst, max_m=2)


def test_brute_force_below_random_assignments():
    g = rng_for(25, "oracle-brute")
    for k in range(6):
        inst = gen_random_ccfl(4, 6, seed=600 + k)
        zstar = brute_force_zstar(inst)
        for _ in range(30):
            pick = g.integers(0, inst.m, size=inst.n)
            opened = np.zeros(inst.m, dtype=bool)
            loads = np.zeros(inst.m)
            cost = 0.0
            for j, i in enumerate(pick):
                i = int(i)
                cl = inst.clients[j]
                # every facility is feasible, so facility i sits at position i
                loads[i] += cl.demand[i]
                cost += cl.assign_cost[i]
                opened[i] = True
            cost += inst.fixed_charge[opened].sum() + loads.max()
            assert zstar <= cost + 1e-9


def test_brute_force_matches_umsc_prefix_cost():
    umsc = umsc_lower_bound(3, 5.0)
    inst = umsc_to_ccfl(umsc)
    zstar = brute_force_zstar(inst)
    # schedule everything off machine 1: machines 2..m carry T* each
    offline = float(np.exp([3 * 1, 3 * 2]).sum()) + 5.0
    assert zstar <= offline + 1e-9
    assert zstar >= 5.0 - 1e-9
