import math

import numpy as np
import pytest

from mixpc import (
    CcflInfeasible,
    CcflInstance,
    assign_fractional,
    brute_force_zstar,
    ccfl_cost,
    ccfl_dual_certificate,
    ccfl_opt1,
    gamma_trials,
    gen_random_ccfl,
    init_client,
)
from mixpc import _kernels, ccfl
from mixpc.ccfl import CcflClient, CcflFractionalSolver, new_trial
from mixpc.rng import rng_for
from reference_maths import TieTracker, ccfl_rates

E = math.e


def uniform_instance(m=2, n=2, c=1.0, p=1.0, a=1.0) -> CcflInstance:
    fac = np.arange(m, dtype=np.int64)
    client = CcflClient(
        facilities=fac,
        demand=np.full(m, p),
        raw_demand=np.full(m, p),
        assign_cost=np.full(m, a),
    )
    return CcflInstance(np.full(m, c), np.ones(m), tuple(client for _ in range(n)))


def reference_cost(instance: CcflInstance, z: float, gamma: float, x: np.ndarray) -> float:
    """Second implementation of the potential, straight from its definition."""
    m, n = instance.m, instance.n
    p = instance.dense_demand()
    a = instance.dense_assign_cost()
    c = instance.fixed_charge
    loads = (p * x).sum(axis=1)
    term1 = math.log(sum(math.exp(loads[i] / (z * gamma)) for i in range(m)))
    term2 = math.log(
        sum(math.exp(x[i, j] / gamma) for i in range(m) for j in range(n))
    )
    y_tilde = loads / (z * gamma) + x.max(axis=1) / gamma
    return z * (term1 + term2) + float(c @ y_tilde) + float((a * x).sum()) / gamma


def test_candidate_filter():
    inst = uniform_instance(m=3, n=2)
    assert inst.candidates(0, 3.0).tolist() == [0, 1, 2]
    assert inst.candidates(0, 2.9).tolist() == []
    g = rng_for(41, "ccfl-cand")
    inst2 = gen_random_ccfl(5, 4, seed=9)
    for j in range(4):
        for z in (2.0, 4.0, 7.0):
            brute = [
                int(i)
                for t, i in enumerate(inst2.clients[j].facilities)
                if inst2.entry_cost(j)[t] <= z
            ]
            assert inst2.candidates(j, z).tolist() == brute


def test_init_client_uniform_eighth():
    inst = uniform_instance()
    st = new_trial(inst, z_value=4.0, gamma=1.0)
    init_client(st, 0)
    assert st.x[:, 0] == pytest.approx([0.125, 0.125], abs=1e-15)
    assert st.x[:, 1].tolist() == [0.0, 0.0]


def test_init_client_ratio_structure():
    # facility with doubled entry cost starts at half the cheapest's value
    client = CcflClient(
        facilities=np.array([0, 1]),
        demand=np.array([0.5, 0.5]),
        raw_demand=np.array([0.5, 0.5]),
        assign_cost=np.array([0.5, 2.0]),
    )
    inst = CcflInstance(np.array([1.0, 1.5]), np.ones(2), (client, client))
    st = new_trial(inst, z_value=10.0, gamma=1.0)
    init_client(st, 0)
    assert st.x[1, 0] == pytest.approx(st.x[0, 0] / 2.0, rel=1e-12)


def test_init_cost_at_most_z_over_n():
    for seed in (1, 2, 3):
        inst = gen_random_ccfl(4, 6, seed=seed)
        z = 2.0 * brute_force_zstar(inst)
        st = new_trial(inst, z_value=z, gamma=1.0)
        for j in range(inst.n):
            before = ccfl_cost(st)
            init_client(st, j)
            assert ccfl_cost(st) - before <= z / inst.n + 1e-9
            assign_fractional(st, j)


def test_cost_at_zero():
    inst = uniform_instance()
    st = new_trial(inst, z_value=5.0, gamma=1.0)
    assert ccfl_cost(st) == pytest.approx(5.0 * (math.log(2) + math.log(4)), rel=1e-12)


def test_cost_matches_reference_along_a_run():
    inst = gen_random_ccfl(3, 4, seed=12)
    z = 2.0 * brute_force_zstar(inst)
    st = new_trial(inst, z_value=z, gamma=1.0)
    for j in range(inst.n):
        init_client(st, j)
        assign_fractional(st, j)
        assert ccfl_cost(st) == pytest.approx(
            reference_cost(inst, z, 1.0, st.x), rel=1e-9
        )


def test_rates_symmetric_fresh_state():
    inst = uniform_instance(m=3, n=2)
    st = new_trial(inst, z_value=9.0, gamma=1.0)
    init_client(st, 0)
    r = ccfl_rates(st, 0)
    assert np.allclose(r, r[0], rtol=1e-12)


def test_rates_match_central_difference_of_reference():
    inst = gen_random_ccfl(3, 3, seed=21)
    z = 2.0 * brute_force_zstar(inst)
    st = new_trial(inst, z_value=z, gamma=1.0)
    init_client(st, 0)
    assign_fractional(st, 0)
    init_client(st, 1)
    rates = ccfl_rates(st, 1)
    fj = st.initialized[1]
    h = 1e-6
    for t, i in enumerate(fj):
        i = int(i)
        gap = st.rowmax[i] - st.x[i, 1]
        if 0 < gap < 3 * h:  # too close to the max: derivative jumps there
            continue
        xp = st.x.copy()
        xp[i, 1] += h
        xm = st.x.copy()
        xm[i, 1] -= h
        fd = (reference_cost(inst, z, 1.0, xp) - reference_cost(inst, z, 1.0, xm)) / (
            2 * h
        )
        assert rates[t] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_indicator_flips_on_joining_the_row_max():
    inst = uniform_instance(m=2, n=2)
    st = new_trial(inst, z_value=8.0, gamma=1.0)
    init_client(st, 0)
    assign_fractional(st, 0)
    init_client(st, 1)
    # fresh client sits below the row max: indicator off for both facilities
    assert all(st.x[i, 1] < st.rowmax[i] for i in range(2))
    assign_fractional(st, 1)
    # after catching up it joins (or replaces) the row max
    assert any(st.x[i, 1] == st.rowmax[i] for i in range(2))


def test_first_phase_always_runs():
    # entry values sum to at most 1/(2n) < 1, so the loop always iterates
    for seed in (5, 6):
        inst = gen_random_ccfl(4, 5, seed=seed)
        z = 2.0 * brute_force_zstar(inst)
        st = new_trial(inst, z_value=z, gamma=1.0)
        init_client(st, 0)
        assert st.x[:, 0].sum() < 0.5
        assign_fractional(st, 0)
        assert st.phases_per_client[0] >= 1


def test_symmetric_two_facility_hand_recurrence():
    # uniform instance, gamma 1: both variables ride the row max together,
    # multiplying by exactly mu each phase until the client is covered
    inst = uniform_instance(m=2, n=2)
    z = 8.0
    st = new_trial(inst, z_value=z, gamma=1.0)
    init_client(st, 0)
    mu = inst.mu
    x = 0.125
    phases = 0
    while 2 * x < 1.0:
        x *= mu
        phases += 1
    assign_fractional(st, 0)
    assert st.phases_per_client[0] == phases
    assert st.x[:, 0] == pytest.approx([x, x], rel=1e-12)


def test_x_never_exceeds_mu():
    for seed in (3, 8):
        inst = gen_random_ccfl(4, 6, seed=seed)
        z = 2.0 * brute_force_zstar(inst)
        sol = gamma_trials(inst, z)
        for st in sol.trials:
            assert float(st.x.max()) <= inst.mu + 1e-12
            assert np.all(st.x >= 0)


def test_per_phase_dual_dominates_cost_growth():
    for seed in (3, 8, 13):
        inst = gen_random_ccfl(4, 6, seed=seed)
        z = brute_force_zstar(inst)
        sol = gamma_trials(inst, z)
        for st in sol.trials:
            assert st.min_pd_gap >= -1e-9


def test_step_ratio_capped_by_mu_minus_one():
    inst = gen_random_ccfl(3, 4, seed=31)
    z = 2.0 * brute_force_zstar(inst)
    st = new_trial(inst, z_value=z, gamma=1.0)
    init_client(st, 0)
    r = ccfl_rates(st, 0)
    eps = (inst.mu - 1.0) * float(r.min())
    assert np.all(eps / r <= (inst.mu - 1.0) + 1e-15)


def test_dual_certificate_families_and_weak_duality():
    for seed in (2, 7):
        inst = gen_random_ccfl(4, 6, seed=seed)
        zstar = brute_force_zstar(inst)
        opt1 = ccfl_opt1(inst, zstar)
        assert opt1.status == "optimal"
        sol = gamma_trials(inst, zstar)
        p = inst.dense_demand()
        a = inst.dense_assign_cost()
        for st in sol.trials:
            cert = ccfl_dual_certificate(st)
            assert float(cert.delta.sum()) <= zstar * (1 + 1e-9)
            by_fac = np.zeros(inst.m)
            for (i, j), b in cert.beta.items():
                by_fac[i] += b
                lhs = (
                    st.gamma * cert.alpha[j]
                    - b
                    - p[i, j] * cert.gamma_[i]
                    - a[i, j]
                )
                assert lhs <= 1e-9
            fam2 = by_fac + zstar * cert.gamma_ - cert.delta - inst.fixed_charge
            assert float(fam2.max()) <= 1e-9 * max(1.0, float(inst.fixed_charge.max()))
            assert float(cert.alpha.sum()) <= (opt1.objective / st.gamma) * (1 + 1e-7)


def test_dual_certificate_zero_phase_trial():
    inst = uniform_instance()
    st = new_trial(inst, z_value=4.0, gamma=1.0)
    cert = ccfl_dual_certificate(st)
    assert np.allclose(cert.alpha, 0.0)
    assert float(cert.delta.sum()) <= 4.0


def test_gamma_trials_single_trial_on_trivial_instance():
    inst = uniform_instance(m=2, n=2)
    sol = gamma_trials(inst, z_value=2.0 * brute_force_zstar(inst))
    assert len(sol.trials) == 1
    assert np.all(sol.x.sum(axis=0) >= 1.0 - 1e-12)


def test_gamma_trials_infeasible_raises():
    inst = uniform_instance(m=2, n=2)
    with pytest.raises(CcflInfeasible):
        gamma_trials(inst, z_value=1.0)


def test_gamma_doubles_on_failure():
    # heavy demands on two facilities at the least Z that gives every client
    # a candidate: the congestion term passes the fail level, so the first
    # trial fails
    inst = gen_random_ccfl(
        2, 60, seed=2, charge_range=(0.1, 0.2), demand_range=(3.0, 4.0),
        assign_range=(0.0, 0.1),
    )
    sol = gamma_trials(inst, max(inst.entry_cost(j).min() for j in range(inst.n)))
    assert len(sol.trials) >= 2
    gammas = [st.gamma for st in sol.trials]
    for g0, g1 in zip(gammas, gammas[1:]):
        assert g1 == pytest.approx(2.0 * g0)
    assert all(st.failed for st in sol.trials[:-1])
    assert not sol.trials[-1].failed


def test_cumulative_cost_dominates_aggregate_objective():
    for seed in (2, 7, 9):
        inst = gen_random_ccfl(4, 6, seed=seed)
        zstar = brute_force_zstar(inst)
        sol = gamma_trials(inst, zstar)
        assert sol.lp1_objective <= sol.cumulative_cost * (1 + 1e-9)


def test_fractional_bound_in_range_trial():
    # with gamma placed in the provably safe window, one trial suffices and
    # its scaled cost stays under 14 sigma ln(emn) opt1
    for seed in (2, 7):
        inst = gen_random_ccfl(4, 6, seed=seed)
        zstar = brute_force_zstar(inst)
        opt1 = ccfl_opt1(inst, zstar).objective
        gamma = 2.0 * inst.sigma * opt1 / zstar
        solver = CcflFractionalSolver(inst, zstar)
        solver.state = new_trial(inst, zstar, gamma)
        for j in range(inst.n):
            solver.offer(j)
        sol = solver.finish()
        assert len(sol.trials) == 1
        assert not sol.trials[0].failed
        cost = gamma * ccfl_cost(sol.trials[0])
        bound = 14.0 * inst.sigma * math.log(E * inst.m * inst.n) * opt1
        assert cost <= bound * (1 + 1e-9)


def test_z_running_maxima_monotone():
    inst = gen_random_ccfl(3, 5, seed=17)
    z = 2.0 * brute_force_zstar(inst)
    st = new_trial(inst, z_value=z, gamma=1.0)
    seen: dict[int, float] = {}
    for j in range(inst.n):
        init_client(st, j)
        assign_fractional(st, j)
        for i in st.initialized[j]:
            i = int(i)
            cur = st.z_prev[i]
            assert cur >= seen.get(i, 0.0) - 1e-15
            assert st.z_ratio_log[(i, j)] >= 0.0
            seen[i] = cur


def test_tie_flags_and_running_maxima_match_the_set_tracker(monkeypatch):
    # the trial reads "client j holds facility i's maximum" as
    # x[i, j] == rowmax[i]; replay the set-based tracker beside it
    trackers: dict[int, TieTracker] = {}
    calls: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    flags_seen: set[bool] = set()
    kernel, init, assign = (
        _kernels.ccfl_client_phases,
        ccfl.init_client,
        ccfl.assign_fractional,
    )

    def tracker(st):
        return trackers.setdefault(id(st), TieTracker(st.instance.m))

    def traced_init(st, j):
        before = st.rowmax.copy()
        init(st, j)
        fac = st.initialized[j]
        tracker(st).init_client(j, fac, st.x[fac, j], before[fac])

    def traced_kernel(fac, p, a, c, x_j, at_max, rowmax, *rest):
        entry, top = at_max.copy(), rowmax[fac].copy()
        out = kernel(fac, p, a, c, x_j, at_max, rowmax, *rest)
        # a variable at the maximum that multiplied moved the maximum
        calls.append((entry, at_max.copy(), at_max & (rowmax[fac] != top)))
        return out

    def traced_assign(st, j):
        tr = tracker(st)
        fac = st.initialized[j]
        want = tr.at_max(j, fac)
        calls.clear()
        ok = assign(st, j)
        ((entry, after, grew),) = calls
        assert np.array_equal(entry, want)
        flags_seen.update(entry.tolist())
        tr.client_end(j, fac, st.x[fac, j], after, grew)
        touched = np.zeros(st.instance.m, dtype=np.bool_)
        for f in st.initialized.values():
            touched[f] = True
        assert np.array_equal(st.z_prev[touched], st.rowmax[touched])
        assert not st.z_prev[~touched].any()
        assert list(st.z_ratio_log.items()) == list(tr.z_ratio_log.items())
        return ok

    monkeypatch.setattr(_kernels, "ccfl_client_phases", traced_kernel)
    monkeypatch.setattr(ccfl, "init_client", traced_init)
    monkeypatch.setattr(ccfl, "assign_fractional", traced_assign)
    runs = []
    for seed, scale in ((2, 1.0), (3, 2.0), (8, 1.5)):
        inst = gen_random_ccfl(4, 6, seed=seed)
        runs.append((inst, scale * brute_force_zstar(inst)))
    # heavy demands on two facilities at the least Z that gives every client
    # a candidate: the congestion term passes the fail level and gamma doubles
    heavy = gen_random_ccfl(
        2, 60, seed=2, charge_range=(0.1, 0.2), demand_range=(3.0, 4.0),
        assign_range=(0.0, 0.1),
    )
    runs.append((heavy, max(heavy.entry_cost(j).min() for j in range(heavy.n))))
    for inst, z in runs:
        trackers.clear()
        sol = gamma_trials(inst, z)
    assert [st.gamma for st in sol.trials] == [1.0, 2.0]
    assert flags_seen == {True, False}
