"""Hot inner loops: the phase loops of both online solvers and the
Monte-Carlo rounding sweep, each one vectorised numpy function.

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
# (inf when none ran).
# ---------------------------------------------------------------------------


def ompc_row_phases(pt, idx, val, x, pvx, z, max_tl, mu, fail_level, slack):
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
        upd = (mu - 1.0) * (rmin / ratio)  # argmin entry gets exactly mu - 1
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


# ---------------------------------------------------------------------------
# Fixed-charge assignment: all phases for one arriving client.
#
# fac/p/a describe the client's candidate facilities; x_j, at_max, rowmax,
# load, chi_j, eta are mutated in place.  at_max flags whether the client's
# variable sits at its facility's row maximum.  The caller passes
# x_j == rowmax[fac]: a row maximum is only ever assigned from the variable
# that holds it (here, rowmax[fac] = where(at_max, cand, capv) with x_j set
# to the same cand or capv), so for the active client the exact comparison
# is the tie itself, at entry and after every phase.  Returns
#   (status, phases, alpha_inc, max_tl, min_gap)
# where min_gap is the least per-phase primal-dual gap, the dual increase
# e * eps minus the increase of the potential, over the phases run (inf
# when none ran).
#
# The potential terms are evaluated once per phase.  The terms computed
# after phase k's update are the terms before phase k+1, since they depend
# only on load, rowmax and x_j (and the fixed s2_rest, asum_rest), and
# nothing writes those between the end of one phase and the start of the
# next.  So one call costs phases + 1 evaluations, none when the client is
# already covered.
# ---------------------------------------------------------------------------


def _ccfl_cost_terms(load, rowmax, x_j, s2_rest, asum, c, a, zz, gamma, zg):
    t1 = load / zg
    hi1 = t1.max()
    w1 = np.exp(t1 - hi1)
    s1 = w1.sum()
    e2 = np.exp(x_j / gamma)
    s2 = s2_rest + e2.sum()
    est = hi1 + math.log(s1) + math.log(s2)
    cost = (
        zz * est
        + float(c @ t1)
        + float(c @ rowmax) / gamma
        + (asum + float(a @ x_j)) / gamma
    )
    return cost, w1, s1, e2, s2, t1


def ccfl_client_phases(
    fac, p, a, c, x_j, at_max, rowmax, load, chi_j, eta,
    s2_rest, asum_rest, zz, gamma, mu, fail_level,
):
    phases = 0
    alpha_inc = 0.0
    max_tl = -np.inf
    min_gap = math.inf
    cover = float(x_j.sum())
    status = SATISFIED
    if cover < 1.0:
        zg = zz * gamma
        p_z = p / zz
        c_g = c[fac] / gamma
        a_g = a / gamma
        mu1 = mu - 1.0
        terms = _ccfl_cost_terms(
            load, rowmax, x_j, s2_rest, asum_rest, c, a, zz, gamma, zg
        )
    while cover < 1.0:
        cost0, w1, s1, e2, s2, t1 = terms
        e2q = e2 / s2
        w1q = w1 / s1
        np.maximum(chi_j, e2q, out=chi_j)
        np.maximum(eta, w1q, out=eta)
        tl = float((t1 + rowmax / gamma).max())
        if tl > max_tl:
            max_tl = tl
        rate = zz * (p_z * w1q[fac] + e2q) / gamma + c_g * (p_z + at_max) + a_g
        rmin = float(rate.min())
        eps = mu1 * rmin
        cand = x_j * (1.0 + mu1 * (rmin / rate))
        capv = rowmax[fac]
        # a variable at its row maximum carries it up; any other stops at
        # the maximum and joins it there
        new = np.where(at_max, cand, np.minimum(capv, cand))
        rowmax[fac] = np.where(at_max, cand, capv)
        at_max |= cand >= capv
        dx = new - x_j
        x_j[:] = new
        load[fac] += p * dx
        cover += float(dx.sum())
        dual = _E * eps
        alpha_inc += dual
        terms = _ccfl_cost_terms(
            load, rowmax, x_j, s2_rest, asum_rest, c, a, zz, gamma, zg
        )
        gap = dual - (terms[0] - cost0)
        if gap < min_gap:
            min_gap = gap
        phases += 1
        if terms[0] > fail_level:
            status = FAILED
            break
    # closing snapshot keeps the scaled-violation maximum current
    tl = float((load / (zz * gamma) + rowmax / gamma).max())
    if tl > max_tl:
        max_tl = tl
    return status, phases, alpha_inc, max_tl, min_gap


# ---------------------------------------------------------------------------
# Monte-Carlo rounding sweep over a chunk of replications.
#
# Inputs are the frozen fractional solution (per-client x and the facility
# openness vector y at that client's arrival, plus the final y) and the
# pre-drawn uniforms:  tdraw (R, m, r) for the opening thresholds, udraw
# (R, n, m) for the candidate coin flips.  Returns per-replication
#   step4 counts per client (R, n), opened fixed charge (R,),
#   max candidate congestion (R,).
# ---------------------------------------------------------------------------


def mc_round_chunk(xcl, yat, yfinal, p, cfix, in_s, tdraw, udraw):
    tbar = tdraw.min(axis=2)  # (R, m)
    openmask = yat[None, :, :] >= tbar[:, None, :]  # (R, n, m)
    prob = np.where(in_s, np.minimum(1.0, xcl / np.maximum(yat, 1e-300)), 0.0)
    cand = udraw < prob[None, :, :]
    hit = openmask & cand
    step4 = ~hit.any(axis=2)  # (R, n)
    opened_final = yfinal[None, :] >= tbar  # (R, m)
    opened_cost = opened_final @ cfix
    cong = np.einsum("rjm,jm->rm", cand.astype(np.float64), p)
    max_cong = cong.max(axis=1)
    return step4, opened_cost, max_cong

