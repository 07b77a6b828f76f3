"""Hot inner loops: the phase loops of both online solvers and the
Monte-Carlo rounding sweep.

The ompc phase loop and the rounding sweep are vectorised numpy functions.
The ccfl phase loop runs on Python floats: a client's phase touches only
its candidate facilities, at most m of them, and at the small m of the
assignment workloads numpy's per-call overhead costs more than the
arithmetic (see the comment above ``ccfl_client_phases``).

Both phase loops carry their penalty estimate from one phase to the next:
what a phase computes after its update is what the next phase reads
before its own, so each is computed once per phase.  The ompc loop gives
the same bits as a loop that recomputes its softmax at every phase start,
since it runs the same numpy operations on the same operands (see the
comment above ``ompc_row_phases``).

Callers look each kernel up as ``_kernels.<name>`` at call time, so a
wrapper put in its place (a timer, say) sees every call.
``tests/test_kernels.py`` checks the kernels against plain loop forms of
the same updates.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ompc_row_phases",
    "ccfl_client_phases",
    "mc_round_chunk",
]

_E = float(np.e)

# status codes shared by the phase kernels
SATISFIED = 0
FAILED = 1


# ---------------------------------------------------------------------------
# Mixed packing/covering: all phases for one covering row.
#
# Mutates x, pvx (= scaled P @ x), and z (running per-row max of the
# softmax weights) in place.  Returns
#   (status, phases, dual_inc, max_tl, min_gap)
# where min_gap is the least per-phase primal-dual gap, the dual increase
# e * eps minus the increase of the penalty estimate, over the phases run
# (inf when none ran).  A row covered at entry computes one softmax, runs
# no phase, writes x[idx] back unchanged and returns (SATISFIED, 0, 0.0,
# max_tl, inf); the solver tests coverage before it calls the kernel, so
# it never passes one.
#
# The softmax over the packing rows is computed once per phase.  The
# softmax after phase k's update (hi, w, s and the estimate hi + log s) is
# the softmax before phase k+1, since it depends only on pvx and nothing
# writes pvx between the end of one phase and the start of the next.  The
# row's variables are kept in a local copy, written back to x once on
# either exit.  Every value is computed by the same numpy operations on
# the same operands, in the same order, as a loop that recomputes the
# softmax at the start of each phase and updates x[idx] in place, so the
# results are the same bits; the loop only drops the repeated work.
# ---------------------------------------------------------------------------


def ompc_row_phases(pt, idx, val, x, pvx, z, max_tl, mu, fail_level, slack):
    xi = x[idx]
    cover = float(val @ xi)
    pcols = pt[:, idx]
    hi = pvx.max()
    w = np.exp(pvx - hi)
    s = w.sum()
    est0 = hi + math.log(s)
    status = SATISFIED
    phases = 0
    dual_inc = 0.0
    min_gap = math.inf
    while cover < 1.0 - slack:
        ratio = ((w @ pcols) / s) / val
        rmin = ratio.min()
        upd = (mu - 1.0) * (rmin / ratio)  # argmin entry gets exactly mu - 1
        dx = xi * upd
        xi += dx
        pvx += pcols @ dx
        cover += float(val @ dx)
        eps = (mu - 1.0) * rmin
        hi = pvx.max()
        w = np.exp(pvx - hi)
        s = w.sum()
        est1 = hi + math.log(s)
        np.maximum(z, w / s, out=z)
        if hi > max_tl:
            max_tl = hi
        gap = _E * eps - (est1 - est0)
        if gap < min_gap:
            min_gap = gap
        dual_inc += _E * eps
        phases += 1
        if hi >= fail_level:
            status = FAILED
            break
        est0 = est1
    x[idx] = xi
    return status, phases, dual_inc, max_tl, min_gap


# ---------------------------------------------------------------------------
# Fixed-charge assignment: all phases for one arriving client.
#
# fac/p/a describe the client's candidate facilities; x_j, at_max, rowmax,
# load, chi_j, eta are mutated in place.  at_max flags whether the client's
# variable sits at its facility's row maximum.  The caller passes
# x_j == rowmax[fac]: a row maximum is only ever assigned from the variable
# that holds it (here, rowmax[i] = cand with x_j set to the same cand, or
# x_j capped at rowmax[i]), so for the active client the exact comparison
# is the tie itself, at entry and after every phase.  Returns
#   (status, phases, alpha_inc, max_tl, min_gap, potential)
# where min_gap is the least per-phase primal-dual gap, the dual increase
# e * eps minus the increase of the potential, over the phases run (inf
# when none ran), and potential is the potential of the state the call
# leaves.
#
# This kernel runs on Python floats, not numpy arrays: it reads every
# array into a list once per call and writes the lists back once at the
# end.  At the m <= 8 of every suite and benchmark workload, a numpy phase
# (about 45 calls on arrays of at most 8 elements) costs its call overhead,
# about 3x the scalar loop.  The scalar loop's cost grows with m and meets
# numpy's between m = 32 and m = 48, with every facility a candidate
# (README, "Benchmark").  math.exp and the sequential sums may differ from
# numpy's exp and pairwise/BLAS sums in the last bit.
#
# The potential terms are evaluated once per phase.  The terms computed
# after phase k's update are the terms before phase k+1, since they depend
# only on load, rowmax and x_j (and the fixed s2_rest, asum_rest), and
# nothing writes those between the end of one phase and the start of the
# next.  So one call costs phases + 1 evaluations, and its last one is the
# potential it returns.
# ---------------------------------------------------------------------------


def _ccfl_cost_terms(load, rowmax, x_j, s2_rest, asum, c, a, zz, gamma, zg):
    """Potential at the current lists and the terms a phase reads from it:
    (cost, w1, s1, e2, s2, tl), with w1/s1 the congestion softmax, e2/s2
    the assignment one and tl = max(load / zg + rowmax / gamma).
    """
    t1 = [lk / zg for lk in load]
    hi1 = max(t1)
    tl = -math.inf
    ct = cr = s1 = 0.0
    w1 = []
    for t, rk, ck in zip(t1, rowmax, c):
        v = t + rk / gamma
        if v > tl:
            tl = v
        ct += ck * t
        cr += ck * rk
        w = math.exp(t - hi1)
        w1.append(w)
        s1 += w
    e2 = []
    se = ax = 0.0
    for xt, at in zip(x_j, a):
        e = math.exp(xt / gamma)
        e2.append(e)
        se += e
        ax += at * xt
    s2 = s2_rest + se
    est = hi1 + math.log(s1) + math.log(s2)
    cost = zz * est + ct + cr / gamma + (asum + ax) / gamma
    return cost, w1, s1, e2, s2, tl


def ccfl_client_phases(
    fac, p, a, c, x_j, at_max, rowmax, load, chi_j, eta,
    s2_rest, asum_rest, zz, gamma, mu, fail_level,
):
    fac, p, a, c = fac.tolist(), p.tolist(), a.tolist(), c.tolist()
    xs, am, rm, ld = x_j.tolist(), at_max.tolist(), rowmax.tolist(), load.tolist()
    ch, et = chi_j.tolist(), eta.tolist()
    zg = zz * gamma
    cover = 0.0
    for v in xs:
        cover += v
    candidates = range(len(fac))
    facilities = range(len(ld))
    p_z = [v / zz for v in p]
    c_g = [c[i] / gamma for i in fac]
    a_g = [v / gamma for v in a]
    mu1 = mu - 1.0
    rate = [0.0] * len(fac)
    w1q = [0.0] * len(ld)
    phases = 0
    alpha_inc = 0.0
    min_gap = math.inf
    status = SATISFIED
    terms = _ccfl_cost_terms(ld, rm, xs, s2_rest, asum_rest, c, a, zz, gamma, zg)
    # the terms before each phase, and after the last, are all evaluated,
    # so their tl values hold every snapshot of the scaled violation
    max_tl = terms[5]
    while cover < 1.0:
        cost0, w1, s1, e2, s2, _ = terms
        for k in facilities:
            q = w1[k] / s1
            w1q[k] = q
            if q > et[k]:
                et[k] = q
        rmin = math.inf
        for t in candidates:
            q = e2[t] / s2
            if q > ch[t]:
                ch[t] = q
            pz = p_z[t]
            r = zz * (pz * w1q[fac[t]] + q) / gamma + c_g[t] * (pz + am[t]) + a_g[t]
            rate[t] = r
            if r < rmin:
                rmin = r
        # a variable at its row maximum carries it up; any other stops at
        # the maximum and joins it there
        dsum = 0.0
        for t in candidates:
            i = fac[t]
            xt = xs[t]
            cand = xt * (1.0 + mu1 * (rmin / rate[t]))
            if am[t]:
                rm[i] = cand
            elif cand >= rm[i]:
                cand = rm[i]
                am[t] = True
            dx = cand - xt
            xs[t] = cand
            ld[i] += p[t] * dx
            dsum += dx
        cover += dsum
        dual = _E * (mu1 * rmin)
        alpha_inc += dual
        terms = _ccfl_cost_terms(ld, rm, xs, s2_rest, asum_rest, c, a, zz, gamma, zg)
        if terms[5] > max_tl:
            max_tl = terms[5]
        gap = dual - (terms[0] - cost0)
        if gap < min_gap:
            min_gap = gap
        phases += 1
        if terms[0] > fail_level:
            status = FAILED
            break
    x_j[:] = xs
    at_max[:] = am
    rowmax[:] = rm
    load[:] = ld
    chi_j[:] = ch
    eta[:] = et
    return status, phases, alpha_inc, max_tl, min_gap, terms[0]


# ---------------------------------------------------------------------------
# Monte-Carlo rounding sweep over a chunk of replications.
#
# Inputs are the frozen fractional solution (each client's coin
# probabilities from rounding.coin_probabilities, 0 off its heavy set, and
# the facility openness vector y at its arrival, plus the final y) and the
# pre-drawn uniforms:  tdraw (R, m, r) for the opening thresholds, udraw
# (R, n, m) for the candidate coin flips.  Returns per-replication
#   step4 counts per client (R, n), opened fixed charge (R,),
#   max candidate congestion (R,).
# ---------------------------------------------------------------------------


def mc_round_chunk(prob, yat, yfinal, p, cfix, tdraw, udraw):
    tbar = tdraw.min(axis=2)  # (R, m)
    openmask = yat[None, :, :] >= tbar[:, None, :]  # (R, n, m)
    cand = udraw < prob[None, :, :]
    hit = openmask & cand
    step4 = ~hit.any(axis=2)  # (R, n)
    opened_final = yfinal[None, :] >= tbar  # (R, m)
    opened_cost = opened_final @ cfix
    cong = np.einsum("rjm,jm->rm", cand.astype(np.float64), p)
    max_cong = cong.max(axis=1)
    return step4, opened_cost, max_cong

