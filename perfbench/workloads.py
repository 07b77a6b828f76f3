"""Seeded workload inputs, built by the benchmark itself.

The stream instances are drawn here with numpy alone and written in the
``mixpc-instance v1`` text format, so a change to the program's own
generators cannot change what the benchmark feeds it, and the checks hold
the instance as plain arrays without asking the program.  The suites make
their instances inside the program; the benchmark passes them a seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WORKLOADS = ("ccfl-stream", "ompc-stream", "suites")

# Percentile of the per-decision latency reported as ``decision_tail_ms``:
# the highest one that leaves at least ten decisions of one pass above it
# (3000 rows, 100 clients, 56 suite records).
TAIL_PERCENTILE = {"ompc-stream": 99.0, "ccfl-stream": 90.0, "suites": 82.0}

# ompc-stream: sparse packing system and covering stream
OMPC_M, OMPC_N, OMPC_ROWS, OMPC_DENSITY = 100, 1000, 3000, 0.05
OMPC_COEFF = (1.0, 4.0)

# ccfl-stream: every client may use every facility.  n=100 rather than 200
# keeps a pass at 2-4 s, so a run holds eight or more passes of each client.
CCFL_M, CCFL_N = 8, 100
CCFL_CHARGE = (1.0, 4.0)
CCFL_CAPACITY = (1.0, 2.0)
CCFL_DEMAND = (0.5, 4.0)
CCFL_ASSIGN = (0.0, 2.0)

# suites: run through run_experiment, in this order.  ompc-random keeps its
# default 50 instances, so the median record is one of them.  ccfl-random
# (default 25) runs 5 and ccfl-mc 10,000 replications (default 100,000), so
# that a pass takes about 4 s and a run holds six or more: the host's speed
# moves by 20% from one pass to the next, and the upper quartile over three
# passes of 9 s did not repeat.  The five ccfl-random records (about 125 or
# 270-450 ms) and the ccfl-mc one (about 0.7 s) are the slowest of the 56,
# so the p82 record (10 beyond it) is an ompc-random one of about 60 ms, on
# flat ground rather than on the step up to the slow records.
SUITES = ("ompc-random", "ccfl-random", "ccfl-mc")
SUITE_SIZES = {
    "ompc-random": {"count": 50},
    "ccfl-random": {"count": 5},
    "ccfl-mc": {"reps": 10_000},
}


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([tag, seed % 2**64]))


def _uniform(g: np.random.Generator, lohi: tuple[float, float], size) -> np.ndarray:
    lo, hi = lohi
    return lo + (hi - lo) * g.random(size)


@dataclass(frozen=True)
class OmpcArrays:
    """Packing matrix (m, n) and the covering rows as (indices, values)."""

    packing: np.ndarray
    rows: tuple[tuple[np.ndarray, np.ndarray], ...]


@dataclass(frozen=True)
class CcflArrays:
    """Dense facility/client data; ``demand`` is raw demand over capacity."""

    charge: np.ndarray  # (m,)
    capacity: np.ndarray  # (m,)
    raw_demand: np.ndarray  # (n, m)
    assign: np.ndarray  # (n, m)

    @property
    def demand(self) -> np.ndarray:
        return self.raw_demand / self.capacity[None, :]


def gen_ompc(
    seed: int, m: int = OMPC_M, n: int = OMPC_N, rows: int = OMPC_ROWS
) -> OmpcArrays:
    g = _rng(seed, 1)
    mask = g.random((m, n)) < OMPC_DENSITY
    cols = np.nonzero(~mask.any(axis=0))[0]  # every variable is packed
    mask[g.integers(m, size=cols.size), cols] = True
    empty = np.nonzero(~mask.any(axis=1))[0]  # no empty packing row
    mask[empty, g.integers(n, size=empty.size)] = True
    packing = np.zeros((m, n))
    packing[mask] = _uniform(g, OMPC_COEFF, int(mask.sum()))
    cover = g.random((rows, n)) < OMPC_DENSITY
    empty = np.nonzero(~cover.any(axis=1))[0]
    cover[empty, g.integers(n, size=empty.size)] = True
    vals = _uniform(g, OMPC_COEFF, int(cover.sum()))
    stream = []
    at = 0
    for r in range(rows):
        idx = np.nonzero(cover[r])[0]
        stream.append((idx, vals[at : at + idx.size]))
        at += idx.size
    return OmpcArrays(packing, tuple(stream))


def gen_ccfl(seed: int, m: int = CCFL_M, n: int = CCFL_N) -> CcflArrays:
    g = _rng(seed, 2)
    return CcflArrays(
        charge=_uniform(g, CCFL_CHARGE, m),
        capacity=_uniform(g, CCFL_CAPACITY, m),
        raw_demand=_uniform(g, CCFL_DEMAND, (n, m)),
        assign=_uniform(g, CCFL_ASSIGN, (n, m)),
    )


def ompc_text(inst: OmpcArrays) -> str:
    p = inst.packing
    m, n = p.shape
    out = ["mixpc-instance v1", "kind ompc", f"m {m}", f"n {n}"]
    nz = np.argwhere(p > 0)
    out.append(f"packing {nz.shape[0]}")
    out.extend(f"{k} {j} {float(p[k, j])!r}" for k, j in nz)
    out.append(f"covering {len(inst.rows)}")
    for idx, val in inst.rows:
        out.append(" ".join(f"{j}:{v!r}" for j, v in zip(idx.tolist(), val.tolist())))
    out.append("end")
    return "\n".join(out) + "\n"


def ccfl_text(inst: CcflArrays) -> str:
    n, m = inst.raw_demand.shape
    out = ["mixpc-instance v1", "kind ccfl", f"m {m}", f"n {n}", f"facilities {m}"]
    out.extend(
        f"{c!r} {u!r}" for c, u in zip(inst.charge.tolist(), inst.capacity.tolist())
    )
    out.append(f"clients {n}")
    for j in range(n):
        out.append(
            " ".join(
                f"{i}:{p!r}:{a!r}"
                for i, (p, a) in enumerate(
                    zip(inst.raw_demand[j].tolist(), inst.assign[j].tolist())
                )
            )
        )
    out.append("end")
    return "\n".join(out) + "\n"


def make_instance(workload: str, seed: int):
    """(arrays, instance text) for a stream workload; (None, None) for suites."""
    if workload == "ompc-stream":
        arrays = gen_ompc(seed)
        return arrays, ompc_text(arrays)
    if workload == "ccfl-stream":
        arrays = gen_ccfl(seed)
        return arrays, ccfl_text(arrays)
    return None, None


def suite_seed(seed: int) -> int:
    """Seed handed to every suite; the suites add their instance index."""
    return seed % 1_000_000
