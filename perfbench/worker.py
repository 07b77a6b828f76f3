"""One measured process: set up mixpc, run timed passes, report to a file.

    python3 perfbench/worker.py --root . --workload ompc-stream \\
        --instance FILE --seconds 25 --trace 0 --out RESULT.json

``--setup-only`` stops after the set-up clock.  Set-up is timed from just
before ``import mixpc`` to the end of ``parse_instance``, so nothing else
may import numpy before it.  The first pass is the verified one: its
outputs go to the result file in full, and every later pass must reproduce
its digests.  A decision's latency is the gap between two clock reads, one
taken as each decision completes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from time import perf_counter

# whole passes a run makes at least, however long they take, so that each
# decision has an upper quartile over several passes
MIN_PASSES = 3


def _sha(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _peak_rss_mb() -> float:
    """High-water RSS of this process image.  ``getrusage``'s ``ru_maxrss``
    is kept across ``execve``, so in a child it never reads below what the
    parent held when it forked; ``VmHWM`` starts afresh at exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _csv_without_wall_time(csv_text: str) -> str:
    lines = csv_text.strip().splitlines()
    col = lines[0].split(",").index("wall_time_s")
    return "\n".join(
        ",".join(c for k, c in enumerate(line.split(",")) if k != col) for line in lines
    )


class OmpcStream:
    """A decision is one covering row offered to ``OnlineOmpcSolver``."""

    undo: list = []

    def __init__(self, mixpc, instance, seed):
        self.mixpc = mixpc
        self.instance = instance

    def run_pass(self):
        rows = self.instance.rows
        solver = self.mixpc.OnlineOmpcSolver(self.instance.system)
        stamps = [0.0] * (len(rows) + 1)
        stamps[0] = perf_counter()
        for i, row in enumerate(rows):
            solver.offer(row)
            stamps[i + 1] = perf_counter()
        return stamps, solver.finish()

    def outputs(self, sol, full):
        trials = []
        for rec in sol.trials:
            st = rec.state
            trials.append(
                {
                    "gamma": rec.gamma,
                    "failed": rec.failed,
                    "phases": rec.phases,
                    "rows": [[int(r), int(st.phases_per_row.get(r, 0))] for r in st.rows_seen],
                }
            )
        digests = {
            "decisions": _sha(json.dumps(trials)),
            "x": _sha(sol.x_total.tobytes() + repr(sol.lambda_value).encode()),
        }
        if not full:
            return digests, None
        # scaled duals at sigma = 1; the checks divide by their own sigma
        from mixpc.solver import dual_certificate

        for t, rec in zip(trials, sol.trials):
            t["dual_sum_sigma1"] = float(sum(dual_certificate(rec.state, 1.0)[0].values()))
        return digests, {
            "x": sol.x_total.tolist(),
            "lambda": sol.lambda_value,
            "trials": trials,
        }


class CcflStream:
    """A decision is one client's integral assignment inside ``z_epochs``.

    The clock is read as each ``round_client`` call returns, through a
    pass-through placed where ``z_epochs`` looks it up.
    """

    def __init__(self, mixpc, instance, seed):
        from tracing import replace

        self.mixpc = mixpc
        self.instance = instance
        self.seed = seed
        self.stamps: list[float] = []
        stamps = self.stamps

        def hook(orig):
            def round_client(*args, **kwargs):
                out = orig(*args, **kwargs)
                stamps.append(perf_counter())
                return out

            return round_client

        self.undo = replace("mixpc.rounding", "round_client", hook)
        if not self.undo:
            raise SystemExit("mixpc.rounding.round_client not found")

    def run_pass(self):
        self.stamps.clear()
        self.stamps.append(perf_counter())
        result = self.mixpc.z_epochs(self.instance, seed=self.seed)
        return list(self.stamps), result

    def outputs(self, result, full):
        log = "".join(json.dumps(rec) + "\n" for rec in result.decision_log)
        digests = {
            "decisions": _sha(log),
            "x": _sha(result.assignment.astype("<i8").tobytes()),
        }
        if not full:
            return digests, None
        return digests, {
            "assignment": result.assignment.tolist(),
            "epochs": [
                {
                    "z": e.z_value,
                    "clients": list(e.clients),
                    "opened_cost": e.opened_cost,
                    "assign_cost": e.assign_cost,
                    "max_load": e.max_load,
                    "failed": e.failed,
                    "fail_reason": e.fail_reason,
                }
                for e in result.epochs
            ],
            "decision_log": list(result.decision_log),
            "epoch_constant": result.epoch_constant,
            "per_epoch_total": result.per_epoch_total,
        }


def _ompc_dump(inst):
    return {
        "packing": inst.system.matrix.tolist(),
        "rows": [[r.indices.tolist(), r.values.tolist()] for r in inst.rows],
    }


def _ccfl_dump(inst):
    return {
        "charge": inst.fixed_charge.tolist(),
        "clients": [
            [c.facilities.tolist(), c.demand.tolist(), c.assign_cost.tolist()]
            for c in inst.clients
        ],
    }


class Suites:
    """A decision is one suite record.

    The clock is read as each ``ExperimentRecord`` is built.  Pass-throughs
    keep what the checks need: the generated instances, the brute-forced
    Z*, and the frozen openness handed to the Monte-Carlo sweep.
    """

    def __init__(self, mixpc, instance, seed):
        from tracing import replace
        from workloads import SUITE_SIZES, SUITES, suite_seed

        self.mixpc = mixpc
        self.suites = SUITES
        self.sizes = SUITE_SIZES
        self.seed = suite_seed(seed)
        self.stamps: list[float] = []
        self.captured: dict[str, list] = {}
        stamps, cap = self.stamps, self.captured

        def stamp(orig):
            def record(*args, **kwargs):
                out = orig(*args, **kwargs)
                stamps.append(perf_counter())
                return out

            return record

        def keep(key):
            def make(orig):
                def kept(*args, **kwargs):
                    out = orig(*args, **kwargs)
                    cap.setdefault(key, []).append((args, out))
                    return out

                return kept

            return make

        self.undo = []
        for home, attr, make in (
            ("mixpc.runner", "ExperimentRecord", stamp),
            ("mixpc.instances", "gen_random_ompc", keep("ompc")),
            ("mixpc.instances", "gen_random_ccfl", keep("ccfl")),
            ("mixpc.oracle", "brute_force_zstar", keep("zstar")),
            ("mixpc.rounding", "mc_rounding", keep("mc")),
        ):
            undo = replace(home, attr, make)
            if not undo:
                raise SystemExit(f"{home}.{attr} not found")
            self.undo += undo

    def run_pass(self):
        from mixpc.runner import ExperimentConfig, report_to_csv, run_experiment

        self.stamps.clear()
        self.captured.clear()
        self.stamps.append(perf_counter())
        reports = []
        for name in self.suites:
            config = ExperimentConfig(suite=name, seed=self.seed, **self.sizes[name])
            report = run_experiment(config)
            reports.append((name, report_to_csv(report), list(report.violations)))
        return list(self.stamps), reports

    def outputs(self, reports, full):
        digests = {
            name: _sha(_csv_without_wall_time(csv)) for name, csv, _ in reports
        }
        if not full:
            return digests, None
        cap = self.captured
        mc_args, mc_stats = cap["mc"][0]
        mc_inst, _, y_per_client, _, reps, _ = mc_args
        return digests, {
            "reports": [
                {"suite": name, "csv": csv, "violations": v} for name, csv, v in reports
            ],
            "ompc_instances": [_ompc_dump(out) for _, out in cap.get("ompc", [])],
            "ccfl_instances": [_ccfl_dump(out) for _, out in cap.get("ccfl", [])],
            "zstar": [out for _, out in cap.get("zstar", [])],
            "mc": {
                "charge": mc_inst.fixed_charge.tolist(),
                "y_final": y_per_client[-1].tolist(),
                "n": mc_inst.n,
                "reps": int(reps),
                "mean_opened_cost": mc_stats.mean_opened_cost,
            },
        }


WORKLOAD_TYPES = {"ompc-stream": OmpcStream, "ccfl-stream": CcflStream, "suites": Suites}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOAD_TYPES))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--instance", default=None)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", default=None, help="JSONL file for the spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)

    t0 = perf_counter()
    import mixpc

    t_import = perf_counter()
    instance = None
    if args.instance:
        with open(args.instance, "r", encoding="utf-8") as fh:
            instance = mixpc.parse_instance(fh.read())
    t_setup = perf_counter()

    if os.path.dirname(os.path.abspath(mixpc.__file__)) != os.path.join(src, "mixpc"):
        print(f"mixpc imported from {mixpc.__file__}, not {src}", file=sys.stderr)
        return 2
    result = {"setup_s": t_setup - t0, "parse_s": t_setup - t_import}
    if args.setup_only:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0

    import tracing

    work = WORKLOAD_TYPES[args.workload](mixpc, instance, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    latencies, traced_latencies, layers = [], [], []
    digests, outputs, mismatched = None, None, []
    start = perf_counter()
    while True:
        traced = tracer is not None and len(latencies) > len(traced_latencies)
        undo = []
        if traced:
            tracer.reset()
            undo = tracing.install(tracer)
        stamps, raw = work.run_pass()
        tracing.restore(undo)
        pass_digests, pass_outputs = work.outputs(raw, full=digests is None)
        if digests is None:
            digests, outputs = pass_digests, pass_outputs
        elif pass_digests != digests:
            mismatched.append(len(latencies) + len(traced_latencies))
        gaps = [b - a for a, b in zip(stamps, stamps[1:])]
        if traced:
            traced_latencies.append(gaps)
            agg = tracing.aggregate(tracer.spans)
            layers.append(tracing.layer_metrics(agg, result["parse_s"] if instance else 0.0))
        else:
            latencies.append(gaps)
        passes = latencies + traced_latencies
        shortest = min(sum(p) for p in passes)
        if len(passes) >= MIN_PASSES and perf_counter() - start + shortest > args.seconds:
            break

    result.update(
        {
            "peak_rss_mb": _peak_rss_mb(),
            "latencies": latencies,
            "traced_latencies": traced_latencies,
            "digests": digests,
            "mismatched_passes": mismatched,
            "outputs": outputs,
            "layers": layers,
        }
    )
    if tracer is not None and args.spans:
        tracing.write_spans(args.spans, tracer.spans)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
