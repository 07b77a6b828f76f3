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
    gen_random_ompc,
    ompc_opt,
    simplex_solve,
    umsc_lower_bound,
    umsc_to_ccfl,
    violation,
)
from mixpc.ccfl import CcflClient, CcflInstance
from mixpc.oracle import _BLAND_AFTER, DEGENERATE_TOL, PIVOT_TOL, _Tableau
from mixpc.rng import rng_for
from mixpc.runner import _ccfl_random_instance
from reference_maths import exact_ompc_opt


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


def test_phase_1_pivots_an_artificial_out_of_the_basis():
    # min x2 s.t. -x1 + 2 x2 >= 2, -2 x1 + 2 x2 >= 0, x1 - x2 >= 0: phase 1
    # ends with an artificial basic at 0, which a real column replaces
    prob = LpProblem(
        np.array([0.0, 1.0]),
        np.array([[-1.0, 2.0], [-2.0, 2.0], [1.0, -1.0]]),
        (">=", ">=", ">="),
        np.array([2.0, 0.0, 0.0]),
    )
    sol = simplex_solve(prob)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(2.0, abs=1e-12)
    assert sol.primal == pytest.approx([2.0, 2.0], abs=1e-12)
    assert float(prob.rhs @ sol.duals) == pytest.approx(sol.objective, abs=1e-12)
    assert float((prob.objective - prob.lhs.T @ sol.duals).min()) >= -1e-12
    ref = scipy.optimize.linprog(
        prob.objective, A_ub=-prob.lhs, b_ub=-prob.rhs, bounds=(0, None), method="highs"
    )
    assert ref.status == 0
    assert sol.objective == pytest.approx(ref.fun, abs=1e-9)


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


def test_singular_basis_is_a_runtime_error():
    # the basis names column 0 twice, so B is singular
    a = np.array([[1.0, 0.0, 2.0], [1.0, 1.0, 0.0]])
    tab = _Tableau(a, np.array([1.0, 1.0]), [0, 0])
    with pytest.raises(RuntimeError, match="singular"):
        tab.refactor()


def test_beales_degenerate_lp_terminates():
    # Beale (1955): Dantzig pricing with ties broken on the lowest row cycles
    prob = LpProblem(
        np.array([-0.75, 20.0, -0.5, 6.0]),
        np.array(
            [[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]]
        ),
        ("<=", "<=", "<="),
        np.array([0.0, 0.0, 1.0]),
    )
    sol = simplex_solve(prob)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(-1.25, abs=1e-12)
    assert sol.primal == pytest.approx([1.0, 0.0, 1.0, 0.0], abs=1e-12)


def test_bland_rule_takes_over_after_a_degenerate_stretch(monkeypatch):
    # ccfl-random-0 at suite seed 11 stalls in degenerate pivots.  The
    # wrappers keep their own count of degenerate pivots in a row and check
    # each pivot's choices: Dantzig's and the largest tied pivot before
    # _BLAND_AFTER of them, Bland's past it.
    inst = _ccfl_random_instance(11, 0)
    zstar = brute_force_zstar(inst)
    run, pivot = _Tableau.run, _Tableau.pivot
    seen = {"c": None, "degenerate": 0, "bland": 0, "dantzig": 0}

    def watched_run(tab, c, allowed, max_iters):
        seen.update(c=c, allowed=allowed, degenerate=0)
        try:
            return run(tab, c, allowed, max_iters)
        finally:
            seen["c"] = None

    def watched_pivot(tab, row, col, d, piv):
        if seen["c"] is not None:  # not the artificials' pivot-out
            rc = seen["c"] - tab.duals(seen["c"]) @ tab.a
            rc[tab.basis] = 0.0
            eligible = (rc < -PIVOT_TOL) & seen["allowed"]
            pos = d > PIVOT_TOL
            ratios = np.where(pos, tab.xb / np.where(pos, d, 1.0), np.inf)
            rmin = ratios.min()
            tied = ratios <= rmin + DEGENERATE_TOL
            if seen["degenerate"] >= _BLAND_AFTER:
                seen["bland"] += 1
                assert col == np.flatnonzero(eligible)[0]
                assert tab.basis[row] == tab.basis[tied].min()
            else:
                seen["dantzig"] += 1
                assert rc[col] == rc[eligible].min()
                assert d[row] == d[tied].max()
            seen["degenerate"] = seen["degenerate"] + 1 if rmin <= DEGENERATE_TOL else 0
        pivot(tab, row, col, d, piv)

    monkeypatch.setattr(_Tableau, "run", watched_run)
    monkeypatch.setattr(_Tableau, "pivot", watched_pivot)
    sol = ccfl_opt1(inst, zstar)
    assert (seen["bland"], seen["dantzig"]) == (32, 51)
    ref, _ = _ccfl_opt1_highs(inst, zstar)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(ref.fun, rel=1e-9)


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


@pytest.mark.parametrize("seed", range(4))
def test_ompc_opt_matches_the_exact_vertex_optimum(seed):
    inst = gen_random_ompc(3, 4, 2 + seed % 3, 0.6, (0.5, 4.0), seed=seed)
    exact = exact_ompc_opt(inst.system, list(inst.rows))
    assert exact > 0
    assert ompc_opt(inst.system, list(inst.rows)).value == pytest.approx(
        float(exact), rel=1e-9
    )


def test_ompc_opt_is_exactly_zero_when_every_row_holds_an_empty_column():
    # variable 1 is in no packing row and in every covering row
    system = PackingSystem(np.array([[1.0, 0.0, 2.0], [0.5, 0.0, 0.0]]))
    rows = [CoveringRow([0, 1], [1.0, 2.0]), CoveringRow([1, 2], [0.5, 1.0])]
    assert exact_ompc_opt(system, rows) == 0
    assert ompc_opt(system, rows).value == 0.0


def test_ompc_opt_meets_free_rows_by_the_solvers_rule():
    # variable 0 has an empty packing column, so rows 1-3 are free: each
    # raises it to 1/c_0, only row 0 reaches the simplex, and their duals are 0
    system = PackingSystem(np.array([[0.0, 315363694449.4724]]))
    rows = [
        CoveringRow([1], [15832505.32321444]),
        CoveringRow([0, 1], [3.004217789074338e-10, 0.37004388488452555]),
        CoveringRow([0, 1], [7.288217355564184e-07, 235.11847096799673]),
        CoveringRow([0, 1], [1.6713792390957698, 3.0709596955923937]),
    ]
    res = ompc_opt(system, rows)
    assert res.value == float(exact_ompc_opt(system, rows)) == 19918.7486763115
    assert res.x[0] == 1.0 / 3.004217789074338e-10
    assert min(row.coverage(res.x) for row in rows) >= 1.0 - 1e-12
    assert violation(system, res.x) == pytest.approx(res.value, rel=1e-12)
    assert res.y.shape == (4,)
    assert res.y[1:].tolist() == [0.0, 0.0, 0.0]
    assert res.dual_value == res.y[0] == pytest.approx(res.value, rel=1e-12)


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
        raw_demand=np.ones(2),
        assign_cost=np.ones(2),
        capacity=np.ones(2),
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


def test_ccfl_opt1_with_large_pivot_ratio_ties_matches_highs():
    # breaking this LP's ratio ties on the smallest basic variable outside
    # Bland's stretches made its basis singular
    inst = _ccfl_random_instance(99, 4)
    zstar = brute_force_zstar(inst)
    sol = ccfl_opt1(inst, zstar)
    ref, _ = _ccfl_opt1_highs(inst, zstar)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(ref.fun, rel=1e-9)


def test_brute_force_single_effective_facility():
    # second facility priced out: optimum opens only the cheap one
    clients = tuple(
        CcflClient(
            facilities=np.array([0, 1]),
            raw_demand=np.array([p, p]),
            assign_cost=np.array([a, a + 1e9]),
            capacity=np.ones(2),
        )
        for p, a in ((0.5, 0.25), (1.5, 0.75))
    )
    inst = CcflInstance(np.array([2.0, 1e12]), np.ones(2), clients)
    expected = 2.0 + (0.5 + 1.5) + (0.25 + 0.75)
    assert brute_force_zstar(inst) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "seed, m, n, zstar_hex",
    [
        (11, 3, 6, "0x1.b704e13998657p+3"),
        (12, 4, 8, "0x1.117528c254d4cp+4"),
        (13, 4, 10, "0x1.15cd694d4fee6p+4"),
        (14, 4, 10, "0x1.42c613e9290a8p+4"),
    ],
)
def test_brute_force_values_are_pinned(seed, m, n, zstar_hex):
    # Pinned from the depth-first search alone: each total is its fixed
    # charges + assignment costs + max load, summed along the search's client
    # order.  Another order of the same terms may land an ulp away.
    assert brute_force_zstar(gen_random_ccfl(m, n, seed=seed)).hex() == zstar_hex


def test_brute_force_size_guard():
    # one instance past each limit: 9 > BRUTE_MAX_M facilities, 13 > BRUTE_MAX_N clients
    for inst in (gen_random_ccfl(9, 4, seed=1), gen_random_ccfl(3, 13, seed=1)):
        with pytest.raises(ValueError):
            brute_force_zstar(inst)


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
