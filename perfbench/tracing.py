"""Pass-through timers around the calls into each layer of mixpc.

Nothing here edits the program.  ``install`` replaces a function by a
timing wrapper in every mixpc module (or class) that holds a reference to
it, which is where its callers look it up at call time, and returns what
``restore`` needs to put the originals back.  Each call becomes a span
``(name, start, end, parent, count)``; ``count`` is the work the call
reports (phases, replications), when it reports any.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter


def _phases(args, out):
    return int(out[1])


def _reps(args, out):
    return int(args[6].shape[0])  # tdraw is (reps, m, r)


# (module defining it, attribute, span name, work counter)
FUNCTIONS = (
    ("mixpc._kernels", "ompc_row_phases", "kernels.ompc_row_phases", _phases),
    ("mixpc._kernels", "ccfl_client_phases", "kernels.ccfl_client_phases", _phases),
    ("mixpc._kernels", "mc_round_chunk", "kernels.mc_round_chunk", _reps),
    ("mixpc.solver", "init_trial", "solver.init_trial", None),
    ("mixpc.ccfl", "new_trial", "ccfl.new_trial", None),
    ("mixpc.rounding", "new_rounding_state", "rounding.new_rounding_state", None),
    ("mixpc.rounding", "round_client", "rounding.round_client", None),
    ("mixpc.rounding", "mc_rounding", "rounding.mc_rounding", None),
    ("mixpc.rng", "rng_for", "rng.rng_for", None),
    ("mixpc.oracle", "ompc_opt", "oracle.ompc_opt", None),
    ("mixpc.oracle", "ccfl_opt1", "oracle.ccfl_opt1", None),
    ("mixpc.oracle", "brute_force_zstar", "oracle.brute_force_zstar", None),
    ("mixpc.runner", "check_ompc_run", "runner.check_ompc_run", None),
    ("mixpc.runner", "check_ccfl_run", "runner.check_ccfl_run", None),
)

# (module, class, attribute, span name); properties are wrapped on their getter
METHODS = (
    ("mixpc.solver", "OnlineOmpcSolver", "offer", "solver.offer"),
    ("mixpc.core", "PackingSystem", "scaled", "core.scaled"),
    ("mixpc.core", "PackingSystem", "column_nonzeros", "core.column_nonzeros"),
    ("mixpc.ccfl", "CcflFractionalSolver", "offer", "ccfl.offer"),
    ("mixpc.ccfl", "CcflFractionalSolver", "x_aggregate", "ccfl.x_aggregate"),
    ("mixpc.ccfl", "CcflFractionalSolver", "y_aggregate", "ccfl.y_aggregate"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()

    def wrap(self, name: str, fn, counter=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
            spans[sid] = (name, t0, t1, parent, counter(args, out) if counter else 0)
            return out

        return traced


def replace(home: str, attr: str, make) -> list:
    """Swap ``home.attr`` for ``make(original)`` in every mixpc module that
    refers to it.  Returns the undo entries; empty if ``attr`` is absent."""
    mods = [v for k, v in list(sys.modules.items()) if k.startswith("mixpc") and v]
    orig = getattr(sys.modules.get(home), attr, None)
    if orig is None:
        return []
    new = make(orig)
    undo = []
    for mod in mods:
        if mod.__dict__.get(attr) is orig:
            setattr(mod, attr, new)
            undo.append((mod, attr, orig))
    return undo


def restore(undo: list) -> None:
    for owner, attr, orig in reversed(undo):
        setattr(owner, attr, orig)


def install(tracer: Tracer) -> list:
    """Wrap every target present in the loaded mixpc modules; returns undo."""
    undo = []
    for home, attr, name, counter in FUNCTIONS:
        undo += replace(home, attr, lambda f, n=name, c=counter: tracer.wrap(n, f, c))
    for home, cls_name, attr, name in METHODS:
        cls = getattr(sys.modules.get(home), cls_name, None)
        orig = cls.__dict__.get(attr) if cls is not None else None
        if orig is None:
            continue
        if isinstance(orig, property):
            wrapped = property(tracer.wrap(name, orig.fget))
        else:
            wrapped = tracer.wrap(name, orig)
        setattr(cls, attr, wrapped)
        undo.append((cls, attr, orig))
    return undo


def aggregate(spans: list) -> dict:
    """Per span name: calls, total seconds, self seconds, work count."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    agg: dict = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0, "work": 0})
    for sid, (name, t0, t1, parent, work) in enumerate(spans):
        a = agg[name]
        a["calls"] += 1
        a["total"] += t1 - t0
        a["self"] += t1 - t0 - child[sid]
        a["work"] += work
    return dict(agg)


def _per(num: float, den: float, scale: float) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(agg: dict, parse_s: float) -> dict:
    """Per-layer metrics of one traced pass; 0 where a layer did not run."""

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    def layer_self(prefix):
        return sum(a["self"] for k, a in agg.items() if k.startswith(prefix))

    rows = get("solver.offer", "calls")
    clients = get("ccfl.offer", "calls")
    rebuild = ("core.scaled", "core.column_nonzeros")
    lp = ("oracle.ompc_opt", "oracle.ccfl_opt1")
    ompc_k, ccfl_k, mc_k = (
        "kernels.ompc_row_phases",
        "kernels.ccfl_client_phases",
        "kernels.mc_round_chunk",
    )
    return {
        "kernels.ccfl_phases": get(ccfl_k, "work"),
        "kernels.ompc_phases": get(ompc_k, "work"),
        "kernels.ccfl_us_per_phase": _per(get(ccfl_k, "total"), get(ccfl_k, "work"), 1e6),
        "kernels.ompc_us_per_phase": _per(get(ompc_k, "total"), get(ompc_k, "work"), 1e6),
        "kernels.mc_us_per_rep": _per(get(mc_k, "total"), get(mc_k, "work"), 1e6),
        "solver.self_us_per_row": _per(layer_self("solver."), rows, 1e6),
        "core.rebuilds_per_row": _per(sum(get(k, "calls") for k in rebuild), rows, 1.0),
        "core.rebuild_s": sum(get(k, "total") for k in rebuild),
        "solver.trials": get("solver.init_trial", "calls"),
        "ccfl.trials": get("ccfl.new_trial", "calls"),
        "rounding.epochs": get("rounding.new_rounding_state", "calls"),
        "ccfl.self_us_per_client": _per(layer_self("ccfl."), clients, 1e6),
        "rounding.round_client_us": _per(
            get("rounding.round_client", "total"), get("rounding.round_client", "calls"), 1e6
        ),
        "rounding.mc_self_s": get("rounding.mc_rounding", "self"),
        "rng.streams": get("rng.rng_for", "calls"),
        "rng.us_per_stream": _per(get("rng.rng_for", "total"), get("rng.rng_for", "calls"), 1e6),
        "oracle.lp_solves": sum(get(k, "calls") for k in lp),
        "oracle.ms_per_lp": _per(
            sum(get(k, "total") for k in lp), sum(get(k, "calls") for k in lp), 1e3
        ),
        "oracle.brute_ms_per_instance": _per(
            get("oracle.brute_force_zstar", "total"),
            get("oracle.brute_force_zstar", "calls"),
            1e3,
        ),
        "runner.checks_s": get("runner.check_ompc_run", "total")
        + get("runner.check_ccfl_run", "total"),
        "instances.parse_s": parse_s,
    }


LAYER_UNITS = {
    "kernels.ccfl_phases": "count",
    "kernels.ompc_phases": "count",
    "kernels.ccfl_us_per_phase": "us",
    "kernels.ompc_us_per_phase": "us",
    "kernels.mc_us_per_rep": "us",
    "solver.self_us_per_row": "us",
    "core.rebuilds_per_row": "count",
    "core.rebuild_s": "s",
    "solver.trials": "count",
    "ccfl.trials": "count",
    "rounding.epochs": "count",
    "ccfl.self_us_per_client": "us",
    "rounding.round_client_us": "us",
    "rounding.mc_self_s": "s",
    "rng.streams": "count",
    "rng.us_per_stream": "us",
    "oracle.lp_solves": "count",
    "oracle.ms_per_lp": "ms",
    "oracle.brute_ms_per_instance": "ms",
    "runner.checks_s": "s",
    "instances.parse_s": "s",
    "trace.overhead_s": "s",
}

COUNT_METRICS = (
    "kernels.ccfl_phases",
    "kernels.ompc_phases",
    "solver.trials",
    "ccfl.trials",
    "rounding.epochs",
    "rng.streams",
    "oracle.lp_solves",
)


def write_spans(path: str, spans: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sid, (name, t0, t1, parent, work) in enumerate(spans):
            fh.write(
                json.dumps(
                    {"id": sid, "name": name, "start": t0, "end": t1, "parent": parent, "work": work}
                )
                + "\n"
            )
