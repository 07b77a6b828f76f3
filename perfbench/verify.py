"""Checks on one verified pass, computed apart from the program.

Every optimum comes from scipy's HiGHS (``linprog``/``milp``) on problems
built here from the instance arrays, and every cost, coverage and bound is
recomputed here from its formula.  Each check returns the indices of the
decisions it finds wrong, with messages; a check on a whole pass names
every decision of it.

HiGHS optima are cached in ``.perfbench_refs/`` under a digest of the
instance, so a second run on a seed skips them; ``run.py --refresh-refs``
recomputes them.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

E = math.e
REL = 1e-7  # relative tolerance between two LP optima of one problem


class RefCache:
    def __init__(self, directory: str, refresh: bool = False):
        self.directory = directory
        self.refresh = refresh

    def get(self, kind: str, data, compute):
        key = hashlib.sha256(
            (kind + json.dumps(data, sort_keys=True)).encode()
        ).hexdigest()[:24]
        path = os.path.join(self.directory, f"{kind}-{key}.json")
        if not self.refresh and os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return json.load(fh)
        value = compute()
        os.makedirs(self.directory, exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(value, fh)
        os.replace(tmp, path)
        return value


def _close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# Reference optima
# ---------------------------------------------------------------------------


def ompc_opt(packing: np.ndarray, rows) -> float:
    """min lambda s.t. C x >= 1, P x <= lambda, x >= 0."""
    m, n = packing.shape
    r_idx = np.concatenate([np.full(len(idx), r) for r, (idx, _) in enumerate(rows)])
    c_idx = np.concatenate([np.asarray(idx) for idx, _ in rows])
    vals = np.concatenate([np.asarray(v, dtype=float) for _, v in rows])
    cover = sparse.csr_matrix((-vals, (r_idx, c_idx)), shape=(len(rows), n + 1))
    pack = sparse.hstack([sparse.csr_matrix(packing), -np.ones((m, 1))])
    a_ub = sparse.vstack([cover, pack]).tocsr()
    b_ub = np.concatenate([-np.ones(len(rows)), np.zeros(m)])
    obj = np.zeros(n + 1)
    obj[n] = 1.0
    # interior point with crossover: 1 s instead of 7 s at m=100, n=1000
    res = linprog(obj, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs-ipm")
    if res.status != 0:
        raise RuntimeError(f"HiGHS: packing/covering LP {res.message}")
    return float(res.fun)


def _assignment_model(charge, demand, assign, integral: bool):
    """min sum c y + sum a x + lambda over single assignments.

    ``demand``/``assign`` are (n, m) with NaN where a facility is not
    feasible for a client.  Rows: every client assigned once, x <= y,
    per-facility load <= lambda; y <= 1.
    """
    n, m = demand.shape
    feas = ~np.isnan(demand)
    pairs = np.argwhere(feas)  # (j, i)
    nx = len(pairs)
    nv = nx + m + 1
    obj = np.concatenate([assign[feas], charge, [1.0]])
    rows, cols, vals, lo, hi = [], [], [], [], []
    r = 0
    for j in range(n):
        ks = np.nonzero(pairs[:, 0] == j)[0]
        rows += [r] * len(ks)
        cols += ks.tolist()
        vals += [1.0] * len(ks)
        lo.append(1.0)
        hi.append(1.0)
        r += 1
    for k, (j, i) in enumerate(pairs):
        rows += [r, r]
        cols += [k, nx + i]
        vals += [1.0, -1.0]
        lo.append(-np.inf)
        hi.append(0.0)
        r += 1
    for i in range(m):
        ks = np.nonzero(pairs[:, 1] == i)[0]
        rows += [r] * len(ks) + [r]
        cols += ks.tolist() + [nv - 1]
        vals += demand[pairs[ks, 0], i].tolist() + [-1.0]
        lo.append(-np.inf)
        hi.append(0.0)
        r += 1
    a = sparse.csr_matrix((vals, (rows, cols)), shape=(r, nv))
    upper = np.concatenate([np.ones(nx + m), [np.inf]])
    integrality = np.concatenate([np.full(nx + m, 1 if integral else 0), [0]])
    res = milp(
        obj,
        constraints=LinearConstraint(a, lo, hi),
        bounds=Bounds(np.zeros(nv), upper),
        integrality=integrality,
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS: assignment program {res.message}")
    return float(res.fun)


def ccfl_opt1(charge, demand, assign, z: float) -> float | None:
    """Fractional optimum at guess Z over the candidates c + p + a <= Z.

    Variables x over candidates, openness y, and lambda; rows: coverage,
    y_i >= x_ij, Z y_i >= load_i, lambda >= y_i, lambda >= 1.
    """
    n, m = demand.shape
    entry = (charge[None, :] + demand) + assign
    feas = ~np.isnan(demand) & (entry <= z)
    if not feas.any(axis=1).all():
        return None
    pairs = np.argwhere(feas)
    nx = len(pairs)
    nv = nx + m + 1
    lam = nv - 1
    obj = np.concatenate([assign[feas], charge, [z]])
    rows, cols, vals = [], [], []
    r = 0

    def add(entries):
        nonlocal r
        for c, v in entries:
            rows.append(r)
            cols.append(c)
            vals.append(v)
        r += 1

    for j in range(n):  # -sum x <= -1
        add((k, -1.0) for k in np.nonzero(pairs[:, 0] == j)[0])
    for k, (j, i) in enumerate(pairs):  # x - y <= 0
        add([(k, 1.0), (nx + i, -1.0)])
    for i in range(m):  # load - Z y <= 0
        ks = np.nonzero(pairs[:, 1] == i)[0]
        add([(k, demand[pairs[k, 0], i]) for k in ks] + [(nx + i, -z)])
    for i in range(m):  # y - lambda <= 0
        add([(nx + i, 1.0), (lam, -1.0)])
    a_ub = sparse.csr_matrix((vals, (rows, cols)), shape=(r, nv))
    b_ub = np.concatenate([-np.ones(n), np.zeros(r - n)])
    bounds = [(0, None)] * (nv - 1) + [(1.0, None)]
    res = linprog(obj, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS: opt1 LP {res.message}")
    return float(res.fun)


# ---------------------------------------------------------------------------
# ompc-stream
# ---------------------------------------------------------------------------


def ompc_sigma(packing: np.ndarray, rows) -> float:
    """Post-hoc ``e^2 ln(mu d^2 rho kappa)`` of the whole stream."""
    m = packing.shape[0]
    mu = 1.0 + 1.0 / (3.0 * math.log(E * m))
    d = max(int(np.count_nonzero(packing, axis=1).max()), max(len(i) for i, _ in rows))
    pos = packing[packing > 0]
    rho = float(pos.max() / pos.min())
    cmax = max(float(np.max(v)) for _, v in rows)
    cmin = min(float(np.min(v)) for _, v in rows)
    return E**2 * math.log(mu * d * d * rho * (cmax / cmin))


def check_ompc_stream(inst, out: dict, opt: float):
    rows = inst.rows
    all_rows = set(range(len(rows)))
    failed: set[int] = set()
    msgs: list[str] = []
    x = np.asarray(out["x"], dtype=float)
    if x.shape != (inst.packing.shape[1],) or not np.all(np.isfinite(x)) or np.any(x < 0):
        return all_rows, ["final x has the wrong shape or a negative/non-finite entry"]
    for r, (idx, val) in enumerate(rows):
        if float(np.dot(val, x[idx])) < 1.0 - 1e-9:
            failed.add(r)
    if failed:
        msgs.append(f"{len(failed)} rows not covered by the final x, first {min(failed)}")
    lam = out["lambda"]
    lam_here = float((inst.packing @ x).max())
    if not _close(lam, lam_here, 1e-9):
        failed |= all_rows
        msgs.append(f"lambda {lam} != max(P x) {lam_here}")
    m = inst.packing.shape[0]
    sigma = ompc_sigma(inst.packing, rows)
    bound = 32.0 * sigma * math.log(E * m)
    if lam < opt * (1 - REL) or lam > bound * opt * (1 + REL):
        failed |= all_rows
        msgs.append(f"lambda {lam} outside [OPT, {bound:.4g} OPT], OPT {opt}")
    offered = [r for t in out["trials"] for r, _ in t["rows"]]
    if sorted(set(offered)) != list(range(len(rows))):
        failed |= all_rows - set(offered)
        msgs.append("the trials' rows do not account for every row once or more")
    for k, t in enumerate(out["trials"]):
        dual = t["dual_sum_sigma1"] / sigma
        if dual > opt * (1 + REL) + 1e-12:
            failed |= {r for r, _ in t["rows"]}
            msgs.append(f"trial {k}: scaled dual sum {dual} > OPT {opt}")
    return failed, msgs


# ---------------------------------------------------------------------------
# ccfl-stream
# ---------------------------------------------------------------------------


def epoch_budget(inst, z: float, constant: float) -> float:
    """``K Z ln^2(emn) ln(2 mu m n rho)`` with rho the worst entry-cost spread."""
    n, m = inst.raw_demand.shape
    entry = (inst.charge[None, :] + inst.demand) + inst.assign
    lo = entry.min(axis=1)
    spread = np.where(lo > 0, entry.max(axis=1) / np.where(lo > 0, lo, 1.0), 1.0)
    rho = max(1.0, float(spread.max()))
    mu = 1.0 + 1.0 / (6.0 * math.log(E * m * n))
    return constant * z * math.log(E * m * n) ** 2 * math.log(2.0 * mu * m * n * rho)


def check_ccfl_stream(inst, out: dict, lp_opt: float):
    n, m = inst.raw_demand.shape
    demand, assign, charge = inst.demand, inst.assign, inst.charge
    entry = (charge[None, :] + demand) + assign
    everyone = set(range(n))
    failed: set[int] = set()
    msgs: list[str] = []
    log = out["decision_log"]
    seen = [rec["client"] for rec in log]
    if sorted(seen) != list(range(n)) or len(out["assignment"]) != n:
        dup = {j for j in seen if seen.count(j) != 1} | (everyone - set(seen))
        failed |= dup or everyone
        msgs.append("decision log does not assign every client exactly once")
    epochs = out["epochs"]
    if not epochs or not _close(epochs[0]["z"], float(entry[0].min()), 0.0):
        failed |= everyone
        msgs.append("first guess Z is not client 0's least entry cost")
    for k, e in enumerate(epochs):
        clients = set(e["clients"])
        last = k == len(epochs) - 1
        if last == e["failed"]:
            failed |= clients
            msgs.append(f"epoch {k}: failed={e['failed']} but last={last}")
        if k and not (epochs[k - 1]["failed"] and epochs[k]["z"] == 2 * epochs[k - 1]["z"]):
            failed |= clients
            msgs.append(f"epoch {k}: Z did not double after a failed epoch")
    by_epoch: dict[int, list] = {}
    for rec in log:
        j, i, k = rec["client"], rec["assigned"], rec["epoch"]
        if not (0 <= j < n):
            continue  # counted by the once-each check above
        if not (0 <= k < len(epochs)) or not (0 <= i < m):
            failed.add(j)
            continue
        z = epochs[k]["z"]
        if rec["z"] != z or entry[j, i] > z or out["assignment"][j] != i:
            failed.add(j)
        by_epoch.setdefault(k, []).append(rec)
    failed &= everyone
    if failed:
        msgs.append(f"{len(failed)} clients with a wrong or non-candidate assignment")
    constant = out["epoch_constant"]
    for k, e in enumerate(epochs):
        recs = by_epoch.get(k, [])
        clients = {rec["client"] for rec in recs}
        if [rec["client"] for rec in recs] != e["clients"]:
            failed |= clients | set(e["clients"])
            msgs.append(f"epoch {k}: client list differs from the decision log")
        opened, opened_cost, assign_cost = set(), 0.0, 0.0
        load = np.zeros(m)
        realized = []
        for rec in recs:
            for i in rec["opened"]:
                if i in opened:
                    failed.add(rec["client"])
                opened.add(i)
                opened_cost += float(charge[i])
            i, j = rec["assigned"], rec["client"]
            if i not in opened:
                failed.add(j)  # assigned to a closed facility
            assign_cost += float(assign[j, i])
            load[i] += float(demand[j, i])
            if not _close(rec["congestion"], float(load.max()), 1e-9):
                failed.add(j)
            realized.append(opened_cost + assign_cost + float(load.max()))
        for key, mine in (
            ("opened_cost", opened_cost),
            ("assign_cost", assign_cost),
            ("max_load", float(load.max()) if recs else 0.0),
        ):
            if not _close(e[key], mine, 1e-9):
                failed |= clients
                msgs.append(f"epoch {k}: {key} {e[key]} != recomputed {mine}")
        budget = epoch_budget(inst, e["z"], constant)
        over = [t for t, v in enumerate(realized) if v > budget]
        if e["fail_reason"] == "cost":
            if over != [len(realized) - 1]:
                failed |= clients
                msgs.append(f"epoch {k}: 'cost' failure without exceeding {budget}")
        elif over:
            failed |= clients
            msgs.append(f"epoch {k}: realized cost above budget {budget} without failing")
        if e["fail_reason"] == "no-candidate":
            nxt = max(e["clients"], default=-1) + 1
            if nxt >= n or entry[nxt].min() <= e["z"]:
                failed |= clients
                msgs.append(f"epoch {k}: 'no-candidate' but client {nxt} has one")
    total = out["per_epoch_total"]
    if total < lp_opt * (1 - REL):
        failed |= everyone
        msgs.append(f"total cost {total} below the LP relaxation {lp_opt}")
    return failed, msgs


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _dense_ccfl(dump: dict):
    charge = np.asarray(dump["charge"], dtype=float)
    n, m = len(dump["clients"]), charge.size
    demand = np.full((n, m), np.nan)
    assign = np.full((n, m), np.nan)
    for j, (fac, p, a) in enumerate(dump["clients"]):
        demand[j, fac] = p
        assign[j, fac] = a
    return charge, demand, assign


def mc_expectation(charge, y_final, n: int, reps: int) -> tuple[float, float]:
    """Closed-form mean opened cost and its standard error over ``reps``.

    A facility opens when its openness reaches the least of r = ceil(4 e ln n)
    uniforms: with probability q = 1 - (1 - min(y, 1))^r, independently.
    """
    r = math.ceil(4.0 * E * math.log(n))
    q = 1.0 - (1.0 - np.minimum(np.asarray(y_final, dtype=float), 1.0)) ** r
    c = np.asarray(charge, dtype=float)
    return float(c @ q), math.sqrt(float((c * c) @ (q * (1.0 - q))) / reps)


def suite_refs(out: dict, cache: RefCache) -> dict:
    ompc = [
        cache.get(
            "ompc-random",
            inst,
            lambda inst=inst: ompc_opt(np.asarray(inst["packing"]), inst["rows"]),
        )
        for inst in out["ompc_instances"]
    ]
    zstar, opt1 = [], []
    for inst, z_prog in zip(out["ccfl_instances"], out["zstar"]):
        charge, demand, assign = _dense_ccfl(inst)
        zstar.append(
            cache.get(
                "ccfl-zstar", inst, lambda: _assignment_model(charge, demand, assign, True)
            )
        )
        # opt1 at the program's Z*: the candidate sets hinge on exact ties
        opt1.append(
            cache.get(
                "ccfl-opt1",
                [inst, z_prog],
                lambda z=z_prog: ccfl_opt1(charge, demand, assign, z),
            )
        )
    return {"ompc": ompc, "zstar": zstar, "opt1": opt1}


def check_suites(out: dict, refs: dict):
    """Records are numbered across the suites in run order."""
    failed: set[int] = set()
    msgs: list[str] = []
    at = 0
    for rep in out["reports"]:
        records = list(csv.DictReader(io.StringIO(rep["csv"])))
        ids = range(at, at + len(records))
        if rep["violations"]:
            failed |= set(ids)
            msgs.append(f"{rep['suite']}: {len(rep['violations'])} bound violations")
        if rep["suite"] == "ompc-random":
            if len(records) != len(refs["ompc"]):
                failed |= set(ids)
                msgs.append("ompc-random: one record per instance expected")
            for k, (rec, opt) in enumerate(zip(records, refs["ompc"])):
                if not _close(float(rec["oracle"]), opt, 1e-6):
                    failed.add(at + k)
                    msgs.append(f"ompc-random-{k}: oracle {rec['oracle']} != HiGHS {opt}")
        elif rep["suite"] == "ccfl-random":
            if len(records) != len(refs["zstar"]):
                failed |= set(ids)
                msgs.append("ccfl-random: one record per instance expected")
            for k, rec in enumerate(records):
                z_prog, z_ref = out["zstar"][k], refs["zstar"][k]
                opt1 = refs["opt1"][k]
                if not _close(z_prog, z_ref, 1e-6):
                    failed.add(at + k)
                    msgs.append(f"ccfl-random-{k}: Z* {z_prog} != MILP {z_ref}")
                if opt1 is None or not _close(float(rec["oracle"]), opt1, 1e-6):
                    failed.add(at + k)
                    msgs.append(f"ccfl-random-{k}: oracle {rec['oracle']} != HiGHS {opt1}")
        elif rep["suite"] == "ccfl-mc":
            mc = out["mc"]
            mean, se = mc_expectation(mc["charge"], mc["y_final"], mc["n"], mc["reps"])
            got = float(records[0]["online"])
            if not _close(got, mc["mean_opened_cost"], 0.0):
                failed |= set(ids)
                msgs.append("ccfl-mc: reported mean differs from the sweep's")
            if abs(got - mean) > max(4.0 * se, 1e-9 * max(1.0, mean)):
                failed |= set(ids)
                msgs.append(f"ccfl-mc: mean opened cost {got} not within 4 SE of {mean}")
        at += len(records)
    return failed, msgs


def decisions_of(workload: str, out: dict, inst) -> int:
    if workload == "ompc-stream":
        return len(inst.rows)
    if workload == "ccfl-stream":
        return inst.raw_demand.shape[0]
    return sum(len(rep["csv"].strip().splitlines()) - 1 for rep in out["reports"])


def check(workload: str, inst, text: str | None, out: dict, cache: RefCache):
    """(failed decision indices, messages) for the verified pass."""
    if workload == "ompc-stream":
        opt = cache.get("ompc-stream", text, lambda: ompc_opt(inst.packing, inst.rows))
        return check_ompc_stream(inst, out, opt)
    if workload == "ccfl-stream":
        lp = cache.get(
            "ccfl-stream",
            text,
            lambda: _assignment_model(inst.charge, inst.demand, inst.assign, False),
        )
        return check_ccfl_stream(inst, out, lp)
    return check_suites(out, suite_refs(out, cache))
