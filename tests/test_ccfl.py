import copy
import hashlib
import math

import numpy as np
import pytest

from mixpc import (
    CcflInfeasible,
    CcflInstance,
    assign_fractional,
    brute_force_zstar,
    ccfl_dual_certificate,
    ccfl_opt1,
    gamma_trials,
    gen_random_ccfl,
    init_client,
)
from mixpc import _kernels, ccfl
from mixpc.ccfl import CcflClient, CcflFractionalSolver, new_trial
from mixpc.runner import _ccfl_random_instance
from reference_maths import TieTracker, ccfl_rates, reference_cost

E = math.e


def uniform_instance(m=2, n=2, c=1.0, p=1.0, a=1.0) -> CcflInstance:
    fac = np.arange(m, dtype=np.int64)
    client = CcflClient(
        facilities=fac,
        raw_demand=np.full(m, p),
        assign_cost=np.full(m, a),
        capacity=np.ones(m),
    )
    return CcflInstance(np.full(m, c), np.ones(m), tuple(client for _ in range(n)))


def entered(st, j: int):
    """A copy of trial ``st`` with client j at its entry values; ``st`` is
    left as it was."""
    probe = copy.deepcopy(st, {id(st.instance): st.instance})
    init_client(probe, j)
    return probe


def test_entry_costs_without_a_finite_spread_are_rejected():
    fac = np.arange(2, dtype=np.int64)

    def client(demand):
        demand = np.array(demand)
        return CcflClient(fac, demand, np.zeros(2), np.ones(2))

    ok = client([1.0, 1e300])
    assert CcflInstance(np.zeros(2), np.ones(2), (ok, ok)).rho == 1e300
    spread = r"^client 1 entry costs span 1e-300 to 1e\+300; "
    with pytest.raises(ValueError, match=spread):
        CcflInstance(np.zeros(2), np.ones(2), (ok, client([1e-300, 1e300])))
    with pytest.raises(ValueError, match=r"^client 0 entry costs span 1 to inf; "):
        CcflInstance(np.array([1e308, 0.0]), np.ones(2), (client([1e308, 1.0]), ok))
    # a finite spread whose sigma = 4e^2 ln(2 mu m n rho) is not
    wide = client([1e-300, 1e8])
    with pytest.raises(ValueError, match=r"^entry-cost spread rho 1e\+308 puts sigma "):
        CcflInstance(np.zeros(2), np.ones(2), (wide, wide))


def test_candidate_filter():
    # a client enters exactly the facilities with c + p + a <= Z
    inst = uniform_instance(m=3, n=2)
    fac, keep, _ = init_client(new_trial(inst, 3.0, 1.0), 0)
    assert fac.tolist() == [0, 1, 2]
    assert keep.all()
    with pytest.raises(CcflInfeasible):
        init_client(new_trial(inst, 2.9, 1.0), 0)
    inst2 = gen_random_ccfl(5, 4, seed=9)
    for j in range(4):
        for z in (2.0, 4.0, 7.0):
            brute = [
                int(i)
                for t, i in enumerate(inst2.clients[j].facilities)
                if inst2.entry_cost(j)[t] <= z
            ]
            st = new_trial(inst2, z, 1.0)
            if not brute:
                with pytest.raises(CcflInfeasible):
                    init_client(st, j)
                continue
            fac, keep, _ = init_client(st, j)
            assert fac.tolist() == brute
            assert inst2.clients[j].facilities[keep].tolist() == brute
            assert np.nonzero(st.x[:, j])[0].tolist() == brute


def test_init_client_uniform_eighth():
    inst = uniform_instance()
    st = new_trial(inst, z_value=4.0, gamma=1.0)
    fac, keep, before = init_client(st, 0)
    assert st.x[:, 0] == pytest.approx([0.125, 0.125], abs=1e-15)
    assert st.x[:, 1].tolist() == [0.0, 0.0]
    # on empty rows the maximum before the client is its own entry value
    assert before.tolist() == st.x[fac, 0].tolist() == st.rowmax.tolist()


def test_init_client_ratio_structure():
    # facility with doubled entry cost starts at half the cheapest's value
    client = CcflClient(
        facilities=np.array([0, 1]),
        raw_demand=np.array([0.5, 0.5]),
        assign_cost=np.array([0.5, 2.0]),
        capacity=np.ones(2),
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
            rise = reference_cost(inst, z, 1.0, entered(st, j).x) - reference_cost(
                inst, z, 1.0, st.x
            )
            assert rise <= z / inst.n + 1e-9
            assign_fractional(st, j)


def test_cost_at_zero():
    inst = uniform_instance()
    st = new_trial(inst, z_value=5.0, gamma=1.0)
    assert reference_cost(inst, 5.0, 1.0, st.x) == pytest.approx(
        5.0 * (math.log(2) + math.log(4)), rel=1e-12
    )


def test_potential_matches_reference_along_a_run():
    # the potential a trial keeps is the one its last client's phases left
    inst = gen_random_ccfl(3, 4, seed=12)
    z = 2.0 * brute_force_zstar(inst)
    st = new_trial(inst, z_value=z, gamma=1.0)
    assert math.isnan(st.potential)  # no client has entered
    for j in range(inst.n):
        assign_fractional(st, j)
        assert st.potential == pytest.approx(
            reference_cost(inst, z, 1.0, st.x), rel=1e-9
        )
    # and on a failed trial, where the failing client's phases stopped early
    heavy = gen_random_ccfl(
        2, 60, seed=2, charge_range=(0.1, 0.2), demand_range=(3.0, 4.0),
        assign_range=(0.0, 0.1),
    )
    sol = gamma_trials(heavy, max(heavy.entry_cost(j).min() for j in range(heavy.n)))
    assert sol.trials[0].failed
    for tr in sol.trials:
        assert tr.potential == pytest.approx(
            reference_cost(heavy, tr.z_value, tr.gamma, tr.x), rel=1e-9
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
    assign_fractional(st, 0)
    fj, _, _ = init_client(st, 1)
    rates = ccfl_rates(st, 1)
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
    assign_fractional(st, 0)
    probe = entered(st, 1)
    # fresh client sits below the row max: indicator off for both facilities
    assert all(probe.x[i, 1] < probe.rowmax[i] for i in range(2))
    assign_fractional(st, 1)
    # after catching up it joins (or replaces) the row max
    assert any(st.x[i, 1] == st.rowmax[i] for i in range(2))


def test_first_phase_always_runs():
    # entry values sum to at most 1/(2n) < 1, so the loop always iterates
    for seed in (5, 6):
        inst = gen_random_ccfl(4, 5, seed=seed)
        z = 2.0 * brute_force_zstar(inst)
        st = new_trial(inst, z_value=z, gamma=1.0)
        assert entered(st, 0).x[:, 0].sum() < 0.5
        assign_fractional(st, 0)
        assert st.phases_per_client[0] >= 1


def test_symmetric_two_facility_hand_recurrence():
    # uniform instance, gamma 1: both variables ride the row max together,
    # multiplying by exactly mu each phase until the client is covered
    inst = uniform_instance(m=2, n=2)
    z = 8.0
    st = new_trial(inst, z_value=z, gamma=1.0)
    mu = inst.mu
    x = 0.125
    phases = 0
    while 2 * x < 1.0:
        x *= mu
        phases += 1
    assign_fractional(st, 0)
    assert st.phases_per_client[0] == phases
    assert st.x[:, 0] == pytest.approx([x, x], rel=1e-12)


def test_entering_a_client_twice_raises():
    inst = uniform_instance()
    st = new_trial(inst, z_value=8.0, gamma=1.0)
    assert assign_fractional(st, 0)
    x = st.x.copy()
    with pytest.raises(ValueError, match="client 0 already entered this trial"):
        init_client(st, 0)
    with pytest.raises(ValueError, match="client 0 already entered this trial"):
        assign_fractional(st, 0)
    assert np.array_equal(st.x, x)
    solver = CcflFractionalSolver(inst, 8.0)
    solver.offer(1)
    with pytest.raises(ValueError, match="client 1 already entered this trial"):
        solver.offer(1)


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
            assert not cert.beta[st.x == 0].any()
            by_fac = np.zeros(inst.m)
            for i, j in np.argwhere(st.x > 0).tolist():
                b = cert.beta[i, j]
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


def _heavy_instance():
    """Two loaded facilities at the least Z that gives every client a
    candidate: the first trial fails at client 49."""
    inst = gen_random_ccfl(
        2, 60, seed=2, charge_range=(0.1, 0.2), demand_range=(3.0, 4.0),
        assign_range=(0.0, 0.1),
    )
    return inst, max(inst.entry_cost(j).min() for j in range(inst.n))


def test_live_aggregate_holds_the_bits_of_the_sum_over_trials(monkeypatch):
    # after every offer, x_aggregate is byte for byte the sum of every trial
    # opened so far, added in order from zero; the seeded run closes a trial
    # with finish half way, so it holds two trials as the heavy run does
    opened = []

    def recording_new_trial(*args, **kwargs):
        opened.append(new_trial(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(ccfl, "new_trial", recording_new_trial)
    seeded = gen_random_ccfl(4, 12, seed=5)
    runs = [
        (*_heavy_instance(), None),
        (seeded, max(seeded.entry_cost(j).min() for j in range(seeded.n)), 6),
    ]
    for inst, z, finish_at in runs:
        opened.clear()
        solver = CcflFractionalSolver(inst, z)
        for j in range(inst.n):
            if j == finish_at:
                solver.finish()
            solver.offer(j)
            expected = np.zeros((inst.m, inst.n))
            for st in opened:
                expected += st.x
            assert solver.x_aggregate.tobytes() == expected.tobytes()
        assert len(opened) >= 2
        assert solver.finish().x.tobytes() == expected.tobytes()


def test_gamma_never_drops_across_a_finish():
    inst, z = _heavy_instance()
    solver = CcflFractionalSolver(inst, z)
    for j in range(50):
        solver.offer(j)
    first = solver.finish()
    for j in range(50, inst.n):
        solver.offer(j)
    gammas = [st.gamma for st in solver.finish().trials]
    assert [st.gamma for st in first.trials] == [1.0, 2.0]
    assert gammas == [1.0, 2.0, 2.0]


def test_offer_rejects_an_unknown_client():
    # -1 would serve client n-1 through numpy's negative index, and n would
    # fail only after a trial opened; both are refused before any change,
    # with no trial open and with one open
    inst = gen_random_ccfl(3, 4, seed=6)
    solver = CcflFractionalSolver(inst, brute_force_zstar(inst))
    for bad in (-1, inst.n):
        with pytest.raises(ValueError, match="unknown client"):
            solver.offer(bad)
    assert solver.state is None
    assert not solver.x_aggregate.any()
    solver.offer(0)
    st = solver.state
    before, aggregate = copy.deepcopy(st), solver.x_aggregate.copy()
    for bad in (-1, inst.n):
        with pytest.raises(ValueError, match="unknown client"):
            solver.offer(bad)
    assert solver.state is st
    assert st.x.tobytes() == before.x.tobytes()
    assert st.phases_per_client.tobytes() == before.phases_per_client.tobytes()
    assert solver.x_aggregate.tobytes() == aggregate.tobytes()
    for j in range(1, inst.n):
        solver.offer(j)
    assert solver.finish().x.tobytes() == gamma_trials(inst, solver.z_value).x.tobytes()


def test_gamma_trials_opens_exactly_the_trials_it_returns(monkeypatch):
    # a trial opens when a client needs one, never after the run closes
    opened = []

    def counting_new_trial(*args, **kwargs):
        opened.append(new_trial(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(ccfl, "new_trial", counting_new_trial)
    runs = [_heavy_instance()]
    for idx in range(5):
        inst = _ccfl_random_instance(11, idx)
        runs.append((inst, brute_force_zstar(inst)))
    counts = []
    for inst, z in runs:
        opened.clear()
        sol = gamma_trials(inst, z)
        assert list(map(id, opened)) == list(map(id, sol.trials))
        counts.append(len(opened))
    assert counts == [2, 1, 1, 1, 1, 1]


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
        cost = gamma * sol.trials[0].potential
        bound = 14.0 * inst.sigma * math.log(E * inst.m * inst.n) * opt1
        assert cost <= bound * (1 + 1e-9)


def test_z_running_maxima_monotone():
    inst = gen_random_ccfl(3, 5, seed=17)
    z = 2.0 * brute_force_zstar(inst)
    st = new_trial(inst, z_value=z, gamma=1.0)
    seen: dict[int, float] = {}
    for j in range(inst.n):
        assign_fractional(st, j)
        for i in np.nonzero(st.x[:, j])[0].tolist():
            cur = st.rowmax[i]
            assert cur >= seen.get(i, 0.0) - 1e-15
            assert st.z_ratio_log[(i, j)] >= 0.0
            seen[i] = cur


def test_tie_flags_and_running_maxima_match_the_set_tracker(monkeypatch):
    # the trial reads "client j holds facility i's maximum" as
    # x[i, j] == rowmax[i]; replay the set-based tracker beside it
    trackers: dict[int, TieTracker] = {}
    wanted: list[tuple[np.ndarray, np.ndarray]] = []
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
        out = init(st, j)
        fac = out[0]
        tracker(st).init_client(j, fac, st.x[fac, j], before[fac])
        wanted.append((fac, tracker(st).at_max(j, fac)))
        return out

    def traced_kernel(fac, p, a, c, x_j, at_max, rowmax, *rest):
        entry, top = at_max.copy(), rowmax[fac].copy()
        out = kernel(fac, p, a, c, x_j, at_max, rowmax, *rest)
        # a variable at the maximum that multiplied moved the maximum
        calls.append((entry, at_max.copy(), at_max & (rowmax[fac] != top)))
        return out

    def traced_assign(st, j):
        tr = tracker(st)
        wanted.clear()
        calls.clear()
        ok = assign(st, j)
        ((fac, want),) = wanted
        ((entry, after, grew),) = calls
        assert np.array_equal(entry, want)
        flags_seen.update(entry.tolist())
        tr.client_end(j, fac, st.x[fac, j], after, grew)
        assert {i: float(st.rowmax[i]) for i in tr.rowmax} == tr.rowmax
        untouched = np.ones(st.instance.m, dtype=np.bool_)
        untouched[list(tr.rowmax)] = False
        assert not st.rowmax[untouched].any()
        ratio_log = np.zeros_like(st.z_ratio_log)
        for (i, j), v in tr.z_ratio_log.items():
            ratio_log[i, j] = v
        assert np.array_equal(st.z_ratio_log, ratio_log)
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


def _ratio_digest(st) -> str:
    text = ";".join(
        f"{i},{j},{st.z_ratio_log[i, j].hex()}"
        for i, j in np.argwhere(st.x > 0).tolist()
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_gamma_trials_bits_are_pinned():
    # pinned bits, per trial: gamma, max scaled violation, a digest of the
    # z ratio log on the entered pairs and their count; a change that moves
    # any of them must say why
    heavy = gen_random_ccfl(
        2, 60, seed=2, charge_range=(0.1, 0.2), demand_range=(3.0, 4.0),
        assign_range=(0.0, 0.1),
    )
    runs = [(heavy, 1.0)]
    for seed in (4, 9):
        runs.append((gen_random_ccfl(4, 7, seed=seed, capacity_range=(1.0, 2.0)), 1.25))
    pinned = [
        (
            "0x1.7731ea529646ep+7",
            [
                (1.0, "0x1.5c055b57d33a8p+4", "5b8f6b15b45d82a3", 92),
                (2.0, "0x1.99fffab7f0b00p+1", "cf94d6e358d96b85", 19),
            ],
        ),
        ("0x1.4fe6ff70b3af2p+5", [(1.0, "0x1.ec65113b65af0p+0", "5d00ebdbad973784", 21)]),
        ("0x1.352d1fbd7e17ap+5", [(1.0, "0x1.a1afdefe3af55p+0", "6061546acea330bf", 22)]),
    ]
    for (inst, scale), (cost, trials) in zip(runs, pinned):
        # near the least Z that gives every client a candidate, so most
        # candidate sets are partial
        z = scale * max(inst.entry_cost(j).min() for j in range(inst.n))
        sol = gamma_trials(inst, z)
        assert sol.cumulative_cost.hex() == cost
        got = [
            (
                st.gamma,
                st.max_scaled_violation.hex(),
                _ratio_digest(st),
                int((st.x > 0).sum()),
            )
            for st in sol.trials
        ]
        assert got == trials
