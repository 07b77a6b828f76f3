"""The kernels must agree (to roundoff) with plain loop forms.

The ``_*_loop`` functions below are reference code: the same phase updates
written one scalar at a time, indexing numpy arrays.  The ompc and
Monte-Carlo kernels are vectorised numpy, so their summation order differs
from the loops.  The ccfl kernel is itself a scalar loop over Python floats
(numpy's per-call overhead dominates at the few facilities a client
touches); it fuses passes and carries the potential from one phase to the
next, so its floats too agree to roundoff.  Statuses, phase counts and
flags agree exactly.

The ompc kernel also carries its softmax from one phase to the next and
keeps the row's variables in a local copy.  It runs the same numpy
operations on the same operands as ``_ompc_row_phases_two_softmax``, the
form that recomputes the softmax at each phase start and updates
``x[idx]`` in place, so against that form it must agree bit for bit.
"""

import math

import numpy as np
import pytest

from mixpc import _kernels, brute_force_zstar, gamma_trials, gen_random_ccfl
from mixpc._kernels import FAILED, SATISFIED
from mixpc.rng import rng_for
from reference_maths import ccfl_potential

_E = float(np.e)


def _ompc_row_phases_loop(pt, idx, val, x, pvx, z, max_tl, mu, fail_level, slack):
    m = pvx.shape[0]
    r = idx.shape[0]
    w = np.empty(m)
    ratio = np.empty(r)
    phases = 0
    dual_inc = 0.0
    min_gap = math.inf
    cover = 0.0
    for t in range(r):
        cover += val[t] * x[idx[t]]
    while cover < 1.0 - slack:
        hi = pvx[0]
        for k in range(1, m):
            if pvx[k] > hi:
                hi = pvx[k]
        s = 0.0
        for k in range(m):
            w[k] = math.exp(pvx[k] - hi)
            s += w[k]
        est0 = hi + math.log(s)
        rmin = np.inf
        for t in range(r):
            j = idx[t]
            num = 0.0
            for k in range(m):
                num += pt[k, j] * w[k]
            ratio[t] = (num / s) / val[t]
            if ratio[t] < rmin:
                rmin = ratio[t]
        eps = (mu - 1.0) * rmin
        for t in range(r):
            j = idx[t]
            dxj = x[j] * ((mu - 1.0) * (rmin / ratio[t]))
            x[j] += dxj
            for k in range(m):
                pvx[k] += pt[k, j] * dxj
            cover += val[t] * dxj
        hi2 = pvx[0]
        for k in range(1, m):
            if pvx[k] > hi2:
                hi2 = pvx[k]
        s2 = 0.0
        for k in range(m):
            w[k] = math.exp(pvx[k] - hi2)
            s2 += w[k]
        est1 = hi2 + math.log(s2)
        for k in range(m):
            zk = w[k] / s2
            if zk > z[k]:
                z[k] = zk
        if hi2 > max_tl:
            max_tl = hi2
        min_gap = min(min_gap, _E * eps - (est1 - est0))
        dual_inc += _E * eps
        phases += 1
        if hi2 >= fail_level:
            return FAILED, phases, dual_inc, max_tl, min_gap
    return SATISFIED, phases, dual_inc, max_tl, min_gap


def _ompc_row_phases_two_softmax(pt, idx, val, x, pvx, z, max_tl, mu, fail_level, slack):
    pcols = pt[:, idx]
    phases = 0
    dual_inc = 0.0
    min_gap = math.inf
    cover = float(val @ x[idx])
    while cover < 1.0 - slack:
        hi = pvx.max()
        w = np.exp(pvx - hi)
        s = w.sum()
        est0 = hi + math.log(s)
        ratio = ((w @ pcols) / s) / val
        rmin = ratio.min()
        upd = (mu - 1.0) * (rmin / ratio)
        dx = x[idx] * upd
        x[idx] += dx
        pvx += pcols @ dx
        cover += float(val @ dx)
        eps = (mu - 1.0) * rmin
        hi2 = pvx.max()
        w2 = np.exp(pvx - hi2)
        s2 = w2.sum()
        est1 = hi2 + math.log(s2)
        np.maximum(z, w2 / s2, out=z)
        if hi2 > max_tl:
            max_tl = hi2
        gap = _E * eps - (est1 - est0)
        if gap < min_gap:
            min_gap = gap
        dual_inc += _E * eps
        phases += 1
        if hi2 >= fail_level:
            return FAILED, phases, dual_inc, max_tl, min_gap
    return SATISFIED, phases, dual_inc, max_tl, min_gap


def _ccfl_client_phases_loop(
    fac, p, a, c, x_j, at_max, rowmax, load, chi_j, eta,
    s2_rest, asum_rest, zz, gamma, mu, fail_level,
):
    m = load.shape[0]
    f = fac.shape[0]
    w1 = np.empty(m)
    e2 = np.empty(f)
    rate = np.empty(f)
    phases = 0
    alpha_inc = 0.0
    max_tl = -np.inf
    min_gap = math.inf
    cover = 0.0
    for t in range(f):
        cover += x_j[t]
    status = SATISFIED
    while cover < 1.0:
        # snapshot of both penalty terms
        hi1 = load[0]
        for k in range(1, m):
            if load[k] > hi1:
                hi1 = load[k]
        hi1 /= zz * gamma
        s1 = 0.0
        for k in range(m):
            w1[k] = math.exp(load[k] / (zz * gamma) - hi1)
            s1 += w1[k]
        s2 = s2_rest
        for t in range(f):
            e2[t] = math.exp(x_j[t] / gamma)
            s2 += e2[t]
        cost0 = ccfl_potential(a, c, x_j, rowmax, load, s2_rest, asum_rest, zz, gamma)
        tl = -np.inf
        for k in range(m):
            v = load[k] / (zz * gamma) + rowmax[k] / gamma
            if v > tl:
                tl = v
        if tl > max_tl:
            max_tl = tl
        for t in range(f):
            ch = e2[t] / s2
            if ch > chi_j[t]:
                chi_j[t] = ch
        for k in range(m):
            et = w1[k] / s1
            if et > eta[k]:
                eta[k] = et
        rmin = np.inf
        for t in range(f):
            i = fac[t]
            ind = 1.0 if at_max[t] else 0.0
            rate[t] = (
                zz * ((p[t] / zz) * (w1[i] / s1) + e2[t] / s2) / gamma
                + (c[i] / gamma) * (p[t] / zz + ind)
                + a[t] / gamma
            )
            if rate[t] < rmin:
                rmin = rate[t]
        eps = (mu - 1.0) * rmin
        for t in range(f):
            i = fac[t]
            cand = x_j[t] * (1.0 + (mu - 1.0) * (rmin / rate[t]))
            if at_max[t]:
                new = cand
                rowmax[i] = cand
            else:
                capv = rowmax[i]
                if cand >= capv:
                    new = capv
                    at_max[t] = True
                else:
                    new = cand
            dx = new - x_j[t]
            x_j[t] = new
            load[i] += p[t] * dx
            cover += dx
        alpha_inc += _E * eps
        # post-update cost for the failure check
        cost1 = ccfl_potential(a, c, x_j, rowmax, load, s2_rest, asum_rest, zz, gamma)
        min_gap = min(min_gap, _E * eps - (cost1 - cost0))
        phases += 1
        if cost1 > fail_level:
            status = FAILED
            break
    tl = -np.inf
    for k in range(m):
        v = load[k] / (zz * gamma) + rowmax[k] / gamma
        if v > tl:
            tl = v
    if tl > max_tl:
        max_tl = tl
    potential = ccfl_potential(a, c, x_j, rowmax, load, s2_rest, asum_rest, zz, gamma)
    return status, phases, alpha_inc, max_tl, min_gap, potential


def _mc_round_chunk_loop(prob, yat, yfinal, p, cfix, tdraw, udraw):
    nrep = tdraw.shape[0]
    n, m = prob.shape
    r = tdraw.shape[2]
    step4 = np.zeros((nrep, n), dtype=np.bool_)
    opened_cost = np.zeros(nrep)
    max_cong = np.zeros(nrep)
    for rep in range(nrep):
        for i in range(m):
            tb = tdraw[rep, i, 0]
            for k in range(1, r):
                if tdraw[rep, i, k] < tb:
                    tb = tdraw[rep, i, k]
            if yfinal[i] >= tb:
                opened_cost[rep] += cfix[i]
            cong = 0.0
            for j in range(n):
                if udraw[rep, j, i] < prob[j, i]:
                    cong += p[j, i]
                    if yat[j, i] >= tb:
                        step4[rep, j] = True  # reused as "hit" marker
            if cong > max_cong[rep]:
                max_cong[rep] = cong
        for j in range(n):
            step4[rep, j] = not step4[rep, j]
    return step4, opened_cost, max_cong


def _ompc_inputs(seed):
    g = rng_for(seed, "kernel-ompc")
    m, n, r = 4, 7, 3
    pt = g.random((m, n)) + 0.1
    idx = np.sort(g.choice(n, size=r, replace=False)).astype(np.int64)
    val = 0.5 + g.random(r)
    x = np.full(n, 0.01)
    pvx = pt @ x
    z = np.zeros(m)
    mu = 1.0 + 1.0 / (3.0 * math.log(math.e * m))
    return pt, idx, val, x, pvx, z, mu


def test_ompc_kernel_matches_loop():
    for seed in range(5):
        args_np = _ompc_inputs(seed)
        args_lp = _ompc_inputs(seed)
        fail = 3.0 * math.log(math.e * 4)
        out_np = _kernels.ompc_row_phases(*args_np[:6], 0.0, args_np[6], fail, 1e-12)
        out_lp = _ompc_row_phases_loop(*args_lp[:6], 0.0, args_lp[6], fail, 1e-12)
        assert out_np[0] == out_lp[0]  # status
        assert out_np[1] == out_lp[1]  # phases
        assert out_np[2] == pytest.approx(out_lp[2], rel=1e-12)
        assert out_np[3] == pytest.approx(out_lp[3], rel=1e-12)
        np.testing.assert_allclose(args_np[3], args_lp[3], rtol=1e-12)  # x
        np.testing.assert_allclose(args_np[5], args_lp[5], rtol=1e-12)  # z
        assert out_np[4] == pytest.approx(out_lp[4], abs=1e-12)  # min gap


def _ompc_case(seed, gamma=1.0, idx=None, x0=0.01, n=7):
    """Kernel arguments for one covering row; ``pt`` is the packing matrix
    scaled by 1/gamma, as the solver passes it, and ``pvx`` is ``pt @ x``."""
    g = rng_for(seed, "kernel-ompc-bits")
    m = 4
    pt = (g.random((m, n)) + 0.1) / gamma
    if idx is None:
        idx = np.sort(g.choice(n, size=3, replace=False)).astype(np.int64)
    val = 0.5 + g.random(idx.size)
    x = np.full(n, x0)
    x[np.setdiff1d(np.arange(n), idx)] = 0.3 + g.random(n - idx.size)
    pvx = pt @ x
    z = g.random(m) * 0.1
    mu = 1.0 + 1.0 / (3.0 * math.log(math.e * m))
    fail = 3.0 * math.log(math.e * m)
    return [pt, idx, val, x, pvx, z, 0.0, mu, fail, 1e-12]


def _ompc_mid_fail(seed, **case):
    """A fail level halfway up the largest scaled row's climb over a full
    run: that row only grows, so a run against it fails part-way."""
    done = _ompc_case(seed, **case)
    start = done[4].max()
    _kernels.ompc_row_phases(*done)
    return 0.5 * (start + done[4].max())


def test_ompc_kernel_matches_the_two_softmax_form_bit_for_bit():
    for seed in range(5):
        cases = (
            {},
            {"gamma": 4.0},
            {"n": 12, "idx": np.array([1, 5, 6, 10])},  # non-contiguous
            {"fail": _ompc_mid_fail(seed)},
            {"gamma": 4.0, "n": 12, "idx": np.array([0, 7, 11]),
             "fail": _ompc_mid_fail(seed, gamma=4.0, n=12, idx=np.array([0, 7, 11]))},
            {"x0": 2.0},  # covered at entry
        )
        for case in cases:
            fail = case.pop("fail", None)
            got = _ompc_case(seed, **case)
            want = _ompc_case(seed, **case)
            if fail is not None:
                got[8] = want[8] = fail
            before = [np.copy(got[k]) for k in (3, 4, 5)]
            out_got = _kernels.ompc_row_phases(*got)
            out_want = _ompc_row_phases_two_softmax(*want)
            assert out_got == out_want
            for k in (3, 4, 5):  # x, pvx, z
                assert got[k].tobytes() == want[k].tobytes()
            idx, x = got[1], got[3]
            rest = np.setdiff1d(np.arange(x.size), idx)
            assert x[rest].tobytes() == before[0][rest].tobytes()
            status, phases, _, _, min_gap = out_got
            if "x0" in case:
                assert out_got == (SATISFIED, 0, 0.0, 0.0, math.inf)
                for k, b in zip((3, 4, 5), before):
                    assert got[k].tobytes() == b.tobytes()
            elif fail is not None:
                assert status == FAILED and phases >= 1
                assert float(got[2] @ x[idx]) < 1.0  # not yet covered
                assert np.all(x[idx] > before[0][idx])  # its updates kept
            else:
                assert status == SATISFIED and phases > 1
                assert float(got[2] @ x[idx]) >= 1.0 - 1e-12
                assert min_gap < math.inf


def _ccfl_inputs(
    seed, gamma=1.0, asum_rest=0.0, held=False, x0=0.02, fail=None,
    m=5, fac=None, busy=False,
):
    g = rng_for(seed, "kernel-ccfl")
    if fac is None:
        fac = np.sort(g.choice(m, size=4, replace=False)).astype(np.int64)
    f = fac.size
    p = 0.2 + g.random(f)
    a = g.random(f) * 0.5
    c = 1.0 + g.random(m)
    x_j = np.full(f, x0)
    at_max = np.zeros(f, dtype=np.bool_)
    at_max[0] = True
    rowmax = np.zeros(m)
    rowmax[fac] = x_j
    rowmax[fac[0]] = x_j[0]
    if held:
        # another client holds facility fac[1]'s maximum above x_j, so the
        # cap binds only after a few phases and then at_max[1] flips
        rowmax[fac[1]] = 3.0 * x0
    load = np.zeros(m)
    if busy:
        # earlier clients already load every facility and hold the maxima
        # of those outside fac
        load += 0.5 * g.random(m)
        others = np.setdiff1d(np.arange(m), fac)
        rowmax[others] = 0.05 * g.random(others.size)
    load[fac] += p * x_j
    chi_j = np.zeros(f)
    eta = np.zeros(m)
    n = 6
    s2_rest = float(m * n - f)
    zz = 8.0
    mu = 1.0 + 1.0 / (6.0 * math.log(math.e * m * n))
    if fail is None:
        fail = 5.0 * zz * math.log(math.e * m * n)
    return (fac, p, a, c, x_j, at_max, rowmax, load, chi_j, eta,
            s2_rest, asum_rest, zz, gamma, mu, fail)


def _potential(args):
    a, c, x_j = args[2:5]
    rowmax, load = args[6:8]
    s2_rest, asum_rest, zz, gamma = args[10:14]
    return ccfl_potential(a, c, x_j, rowmax, load, s2_rest, asum_rest, zz, gamma)


def _mid_fail_level(seed, **case):
    """A fail level halfway up the potential's climb over a full run: the
    potential grows with every phase, so a run against it fails part-way."""
    start = _ccfl_inputs(seed, **case)
    done = _ccfl_inputs(seed, **case)
    _kernels.ccfl_client_phases(*done)
    return 0.5 * (_potential(start) + _potential(done))


def test_ccfl_kernel_matches_loop():
    for seed in range(5):
        cases = (
            {},
            {"gamma": 2.0},
            {"asum_rest": 0.7},
            {"held": True},
            {"gamma": 2.0, "asum_rest": 0.7, "held": True},
            {"fail": _mid_fail_level(seed)},
            {"asum_rest": 0.7, "fail": _mid_fail_level(seed, asum_rest=0.7)},
            {"x0": 0.25},  # four candidates: x_j already sums to 1
            {"fac": np.array([3])},  # one candidate
            # a strict, non-contiguous subset of eight facilities
            {"m": 8, "fac": np.array([1, 2, 5, 7]), "busy": True},
            {"m": 8, "fac": np.array([0, 3, 6]), "busy": True, "held": True,
             "gamma": 2.0, "asum_rest": 0.7},
        )
        for case in cases:
            a_np = _ccfl_inputs(seed, **case)
            a_lp = _ccfl_inputs(seed, **case)
            before = [np.copy(v) for v in a_np[4:10]]
            out_np = _kernels.ccfl_client_phases(*a_np)
            out_lp = _ccfl_client_phases_loop(*a_lp)
            assert out_np[0] == out_lp[0]
            assert out_np[1] == out_lp[1]
            assert out_np[2] == pytest.approx(out_lp[2], rel=1e-12)
            assert out_np[3] == pytest.approx(out_lp[3], rel=1e-12)  # max_tl
            assert out_np[4] == pytest.approx(out_lp[4], abs=1e-12)  # min gap
            assert out_np[5] == pytest.approx(out_lp[5], rel=1e-12)  # potential
            np.testing.assert_allclose(a_np[4], a_lp[4], rtol=1e-12)  # x_j
            np.testing.assert_allclose(a_np[6], a_lp[6], rtol=1e-12)  # rowmax
            np.testing.assert_allclose(a_np[7], a_lp[7], rtol=1e-12)  # load
            np.testing.assert_allclose(a_np[8], a_lp[8], rtol=1e-12)  # chi_j
            np.testing.assert_allclose(a_np[9], a_lp[9], rtol=1e-12)  # eta
            assert np.array_equal(a_np[5], a_lp[5])  # at_max flags
            if "fail" in case:
                assert out_np[0] == FAILED and out_np[1] >= 1
                assert a_np[4].sum() < 1.0  # stopped before the client was covered
            elif "x0" in case:
                assert out_np[:3] == (SATISFIED, 0, 0.0)
                assert out_np[4] == math.inf
                for got, want in zip(a_np[4:10], before):
                    assert np.array_equal(got, want)
            else:
                assert out_np[0] == SATISFIED and out_np[1] > 1
                if case.get("held"):
                    assert not before[1][1] and a_np[5][1]  # the cap bound


def test_ccfl_kernel_evaluates_the_potential_once_per_phase(monkeypatch):
    calls = []
    terms = _kernels._ccfl_cost_terms

    def counted(*args):
        calls.append(1)
        return terms(*args)

    monkeypatch.setattr(_kernels, "_ccfl_cost_terms", counted)
    for args in (
        _ccfl_inputs(0),
        _ccfl_inputs(1, gamma=2.0, asum_rest=0.7, held=True),
        _ccfl_inputs(2, fail=-math.inf),  # fails after its first phase
        _ccfl_inputs(0, x0=0.25),  # covered: no phase, one evaluation
    ):
        calls.clear()
        phases = _kernels.ccfl_client_phases(*args)[1]
        assert len(calls) == phases + 1


def test_gamma_trials_agree_with_the_loop_kernel(monkeypatch):
    cases = [
        (inst, brute_force_zstar(inst))
        for inst in (gen_random_ccfl(4, 6, seed=s) for s in (2, 7, 9))
    ]
    # heavy demands: the first trial fails and gamma doubles
    heavy = gen_random_ccfl(
        2, 60, seed=2, charge_range=(0.1, 0.2), demand_range=(3.0, 4.0),
        assign_range=(0.0, 0.1),
    )
    cases.append((heavy, max(heavy.entry_cost(j).min() for j in range(heavy.n))))
    for inst, z_value in cases:
        got = gamma_trials(inst, z_value)
        with monkeypatch.context() as mp:
            mp.setattr(_kernels, "ccfl_client_phases", _ccfl_client_phases_loop)
            ref = gamma_trials(inst, z_value)
        assert len(got.trials) == len(ref.trials)
        for st, rt in zip(got.trials, ref.trials):
            assert st.gamma == rt.gamma
            assert st.failed == rt.failed
            assert np.array_equal(st.phases_per_client, rt.phases_per_client)
            # the same variables hold their facility's maximum
            assert np.array_equal(st.x == st.rowmax[:, None], rt.x == rt.rowmax[:, None])
            np.testing.assert_allclose(st.rowmax, rt.rowmax, rtol=1e-12)
            assert st.potential == pytest.approx(rt.potential, rel=1e-12)
        np.testing.assert_allclose(got.x, ref.x, rtol=1e-12)
        assert got.cumulative_cost == pytest.approx(ref.cumulative_cost, rel=1e-12)
    assert len(got.trials) >= 2  # the heavy instance doubled gamma


def test_mc_kernel_matches_loop():
    g = rng_for(3, "kernel-mc")
    m, n, r, reps = 4, 5, 6, 40
    xcl = g.random((n, m))
    yat = xcl + 0.2
    yfinal = yat[-1]
    p = g.random((n, m)) * 0.3
    cfix = 1.0 + g.random(m)
    in_s = xcl >= 1.0 / (2 * m)
    prob = np.where(in_s, np.minimum(xcl / yat, 1.0), 0.0)
    tdraw = g.random((reps, m, r))
    udraw = g.random((reps, n, m))
    s_np = _kernels.mc_round_chunk(prob, yat, yfinal, p, cfix, tdraw, udraw)
    s_lp = _mc_round_chunk_loop(prob, yat, yfinal, p, cfix, tdraw, udraw)
    assert np.array_equal(s_np[0], s_lp[0])
    np.testing.assert_allclose(s_np[1], s_lp[1], rtol=1e-12)
    np.testing.assert_allclose(s_np[2], s_lp[2], rtol=1e-12)

