"""The benchmark's own tests: tiny runs of each workload pass the checks,
and corrupted outputs fail them."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import mixpc  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402
from worker import CcflStream, OmpcStream, Suites  # noqa: E402


@pytest.fixture
def cache(tmp_path):
    return verify.RefCache(str(tmp_path / "refs"))


def _run(workload_type, instance, seed=3, sizes=None):
    work = workload_type(mixpc, instance, seed)
    if sizes:
        work.sizes = sizes
    try:
        stamps, raw = work.run_pass()
        digests, out = work.outputs(raw, full=True)
        again = work.outputs(work.run_pass()[1], full=False)[0]
    finally:
        tracing.restore(work.undo)
    return stamps, digests, again, out


def test_ompc_stream_checks(cache):
    arrays = workloads.gen_ompc(3, m=8, n=40, rows=60)
    text = workloads.ompc_text(arrays)
    stamps, digests, again, out = _run(OmpcStream, mixpc.parse_instance(text))
    assert len(stamps) == 61 and digests == again
    failed, msgs = verify.check("ompc-stream", arrays, text, out, cache)
    assert not failed, msgs

    uncovered = dict(out, x=list(out["x"]))
    for j in arrays.rows[5][0]:
        uncovered["x"][j] = 0.0
    failed, _ = verify.check("ompc-stream", arrays, text, uncovered, cache)
    assert 5 in failed

    inflated = dict(out, x=[v * 1e6 for v in out["x"]])
    inflated["lambda"] *= 1e6
    failed, msgs = verify.check("ompc-stream", arrays, text, inflated, cache)
    assert failed == set(range(60)), msgs


def test_ccfl_stream_checks(cache):
    arrays = workloads.gen_ccfl(3, m=4, n=20)
    text = workloads.ccfl_text(arrays)
    stamps, digests, again, out = _run(CcflStream, mixpc.parse_instance(text))
    assert len(stamps) == 21 and digests == again
    failed, msgs = verify.check("ccfl-stream", arrays, text, out, cache)
    assert not failed, msgs

    moved = json.loads(json.dumps(out))
    rec = moved["decision_log"][7]
    rec["assigned"] = (rec["assigned"] + 1) % 4
    moved["assignment"][7] = rec["assigned"]
    failed, msgs = verify.check("ccfl-stream", arrays, text, moved, cache)
    assert 7 in failed, msgs

    cheap = json.loads(json.dumps(out))
    cheap["epochs"][-1]["opened_cost"] *= 0.5
    failed, msgs = verify.check("ccfl-stream", arrays, text, cheap, cache)
    assert set(cheap["epochs"][-1]["clients"]) <= failed, msgs


def test_suites_checks(cache):
    sizes = {
        "ompc-random": {"count": 3},
        "ccfl-random": {"count": 2},
        "ccfl-mc": {"reps": 2000},
    }
    stamps, digests, again, out = _run(Suites, None, sizes=sizes)
    assert len(stamps) == 3 + 2 + 1 + 1 and digests == again
    failed, msgs = verify.check("suites", None, None, out, cache)
    assert not failed, msgs

    wrong = json.loads(json.dumps(out))
    csv_lines = wrong["reports"][0]["csv"].splitlines()
    header = csv_lines[0].split(",")
    cells = csv_lines[2].split(",")
    col = header.index("oracle")
    cells[col] = repr(float(cells[col]) * 1.01)
    csv_lines[2] = ",".join(cells)
    wrong["reports"][0]["csv"] = "\n".join(csv_lines) + "\n"
    wrong["mc"]["mean_opened_cost"] *= 2.0
    mc = wrong["reports"][2]
    mc_lines = mc["csv"].splitlines()
    cells = mc_lines[1].split(",")
    col = mc_lines[0].split(",").index("online")
    cells[col] = repr(wrong["mc"]["mean_opened_cost"])
    mc["csv"] = "\n".join([mc_lines[0], ",".join(cells)]) + "\n"
    failed, msgs = verify.check("suites", None, None, wrong, cache)
    assert failed == {1, 5}, msgs


def test_tracer_counts_and_restores():
    arrays = workloads.gen_ompc(4, m=6, n=30, rows=40)
    inst = mixpc.parse_instance(workloads.ompc_text(arrays))
    kernel = mixpc._kernels.ompc_row_phases
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        sol = mixpc.solve_online(inst.system, list(inst.rows))
    finally:
        tracing.restore(undo)
    assert mixpc._kernels.ompc_row_phases is kernel
    layers = tracing.layer_metrics(tracing.aggregate(tracer.spans), 0.0)
    assert layers["kernels.ompc_phases"] == sum(r.phases for r in sol.trials)
    assert layers["solver.trials"] == len(sol.trials)
    assert layers["core.rebuilds_per_row"] >= 2.0


def test_mc_expectation_matches_simulation():
    rng = np.random.default_rng(0)
    charge, y = np.array([1.0, 2.0, 3.0]), np.array([0.01, 0.05, 1.4])
    r = int(np.ceil(4 * np.e * np.log(20)))
    opened = (rng.random((20000, 3, r)).min(axis=2) <= y).astype(float) @ charge
    mean, se = verify.mc_expectation(charge, y, 20, 20000)
    assert abs(opened.mean() - mean) < 4 * se


def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suites", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
