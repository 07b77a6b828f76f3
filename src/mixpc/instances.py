"""Instance containers, a line-oriented text format, and seeded generators.

The on-disk format is deliberately diffable and order-preserving (arrival
order carries meaning online).  Floats are emitted with ``repr``, which
round-trips float64 exactly, so emit -> parse -> emit is byte-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ccfl import CcflClient, CcflInstance, check_facilities, checked_entry_costs
from .core import _UNKNOWN_VARIABLE, CoveringRow, PackingSystem
from .rng import rng_for

__all__ = [
    "OmpcInstance",
    "ParseError",
    "emit_instance",
    "parse_instance",
    "gen_random_ompc",
    "gen_random_ccfl",
]

_MAGIC = "mixpc-instance v1"


class ParseError(ValueError):
    """Malformed instance text; carries the offending line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass(frozen=True)
class OmpcInstance:
    """Offline packing system plus the ordered covering stream."""

    system: PackingSystem
    rows: tuple[CoveringRow, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))
        if not self.rows:
            raise ValueError("need at least one covering row")
        n = self.system.n
        for row in self.rows:
            if row.indices[-1] >= n:  # CoveringRow sorts its indices
                raise ValueError(_UNKNOWN_VARIABLE)

    @cached_property
    def d(self) -> int:
        """Largest support over packing and covering rows."""
        return max(self.system.d, max(r.nnz for r in self.rows))

    @cached_property
    def kappa(self) -> float:
        """Ratio of the largest to the smallest covering coefficient."""
        cmin = min(r.min_coeff for r in self.rows)
        cmax = max(r.max_coeff for r in self.rows)
        return cmax / cmin


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


def emit_instance(instance: OmpcInstance | CcflInstance) -> str:
    out: list[str] = [_MAGIC]
    if isinstance(instance, OmpcInstance):
        p = instance.system.matrix
        nz = np.argwhere(p > 0)
        out.append("kind ompc")
        out.append(f"m {instance.system.m}")
        out.append(f"n {instance.system.n}")
        out.append(f"packing {nz.shape[0]}")
        for k, j in nz:
            out.append(f"{k} {j} {float(p[k, j])!r}")
        out.append(f"covering {len(instance.rows)}")
        for row in instance.rows:
            out.append(
                " ".join(
                    f"{j}:{float(v)!r}" for j, v in zip(row.indices, row.values)
                )
            )
    elif isinstance(instance, CcflInstance):
        out.append("kind ccfl")
        out.append(f"m {instance.m}")
        out.append(f"n {instance.n}")
        out.append(f"facilities {instance.m}")
        for c, u in zip(instance.fixed_charge, instance.capacity):
            out.append(f"{float(c)!r} {float(u)!r}")
        out.append(f"clients {instance.n}")
        for cl in instance.clients:
            out.append(
                " ".join(
                    f"{i}:{float(rp)!r}:{float(a)!r}"
                    for i, rp, a in zip(cl.facilities, cl.raw_demand, cl.assign_cost)
                )
            )
    else:
        raise TypeError(f"cannot emit {type(instance).__name__}")
    out.append("end")
    return "\n".join(out) + "\n"


class _Lines:
    def __init__(self, text: str):
        self.raw = text.splitlines()
        self.at = 0

    def next(self, what: str) -> str:
        while self.at < len(self.raw):
            line = self.raw[self.at].strip()
            self.at += 1
            if line and not line.startswith("#"):
                return line
        raise ParseError(len(self.raw), f"missing {what}")

    @property
    def lineno(self) -> int:
        return self.at


def _expect_int(lines: _Lines, key: str, least: int = 0) -> int:
    """The count on a ``key <count>`` header line, at least ``least``."""
    line = lines.next(f"'{key}' header")
    parts = line.split()
    if len(parts) != 2 or parts[0] != key:
        raise ParseError(lines.lineno, f"expected '{key} <count>', got {line!r}")
    try:
        count = int(parts[1])
    except ValueError:
        raise ParseError(lines.lineno, f"bad integer in {line!r}") from None
    if count < least:
        raise ParseError(lines.lineno, f"'{key}' must be at least {least}, got {count}")
    return count


def _covering_row(line: str, lineno: int, n: int) -> CoveringRow:
    """Line ``lineno``, ``j:c j:c ...``, as a row over variables ``0..n-1``.

    A line with as many ``:`` as tokens, and a ``:`` in every token, has
    one ``:`` per token, so its indices and values are converted in one
    call each.  ``np.array`` on a list of ``str`` converts each element
    with Python's ``int`` or ``float`` (not numpy's string cast), so the
    grammar is Python's: ``+1``, ``1_0`` and ``1_0.5`` parse.  Any other
    line, or one that fails to convert, goes through the token loop,
    which names the first bad token.
    """
    toks = line.split()
    val = None
    if line.count(":") == len(toks) and all(":" in t for t in toks):
        flat = ":".join(toks).split(":")
        try:
            idx = np.array(flat[0::2], dtype=np.int64)
            val = np.array(flat[1::2], dtype=np.float64)
        except (ValueError, OverflowError):
            pass
    if val is None:
        idx, val = [], []
        for tok in toks:
            pieces = tok.split(":")
            if len(pieces) != 2:
                raise ParseError(lineno, f"expected 'j:c', got {tok!r}")
            try:
                idx.append(int(pieces[0]))
                val.append(float(pieces[1]))
            except ValueError:
                raise ParseError(lineno, f"bad entry {tok!r}") from None
    try:
        row = CoveringRow(idx, val)
    except ValueError as exc:
        raise ParseError(lineno, str(exc)) from None
    except OverflowError:  # an index beyond int64 names no variable either
        raise ParseError(lineno, _UNKNOWN_VARIABLE) from None
    if row.indices[-1] >= n:
        raise ParseError(lineno, _UNKNOWN_VARIABLE)
    return row


def parse_instance(text: str | bytes) -> OmpcInstance | CcflInstance:
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = _Lines(text)
    if lines.next("magic header") != _MAGIC:
        raise ParseError(lines.lineno, f"not a {_MAGIC} document")
    kind_line = lines.next("kind")
    if kind_line not in ("kind ompc", "kind ccfl"):
        raise ParseError(lines.lineno, f"unknown kind in {kind_line!r}")
    kind = kind_line.split()[1]
    least = 2 if kind == "ccfl" else 1  # CcflInstance needs 2 of each
    m = _expect_int(lines, "m", least)
    n = _expect_int(lines, "n", least)

    if kind == "ompc":
        try:
            matrix = np.zeros((m, n))
        except (MemoryError, ValueError):
            raise ParseError(
                lines.lineno, f"cannot allocate a {m}x{n} packing matrix"
            ) from None
        nnz = _expect_int(lines, "packing")
        seen: set[tuple[int, int]] = set()
        for _ in range(nnz):
            line = lines.next("packing triplet")
            parts = line.split()
            if len(parts) != 3:
                raise ParseError(lines.lineno, f"expected 'k j p', got {line!r}")
            try:
                k, j, v = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError:
                raise ParseError(lines.lineno, f"bad triplet {line!r}") from None
            if not (0 <= k < m and 0 <= j < n):
                raise ParseError(lines.lineno, f"triplet out of range: {line!r}")
            # PackingSystem's checks, in its order, on the entry's own line
            if not math.isfinite(v):
                raise ParseError(lines.lineno, "packing coefficients must be finite")
            if v < 0:
                raise ParseError(
                    lines.lineno, "packing coefficients must be nonnegative"
                )
            if (k, j) in seen:
                raise ParseError(lines.lineno, "duplicate packing entry")
            seen.add((k, j))
            matrix[k, j] = v
        n_rows = _expect_int(lines, "covering")
        rows = []
        for _ in range(n_rows):
            line = lines.next("covering row")
            rows.append(_covering_row(line, lines.lineno, n))
        if lines.next("end marker") != "end":
            raise ParseError(lines.lineno, "missing 'end'")
        try:
            return OmpcInstance(PackingSystem(matrix), tuple(rows))
        except ValueError as exc:
            raise ParseError(lines.lineno, str(exc)) from None

    count = _expect_int(lines, "facilities")
    if count != m:
        raise ParseError(lines.lineno, f"facilities count {count} != m {m}")
    # filled line by line, so a count beyond the text ends at a missing line
    # rather than at an allocation of m entries
    charges, caps = [], []
    for _ in range(m):
        line = lines.next("facility line")
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(lines.lineno, f"expected 'c u', got {line!r}")
        try:
            c, u = float(parts[0]), float(parts[1])
        except ValueError:
            raise ParseError(lines.lineno, f"bad facility line {line!r}") from None
        try:  # on the facility's own line
            check_facilities(c, u)
        except ValueError as exc:
            raise ParseError(lines.lineno, str(exc)) from None
        charges.append(c)
        caps.append(u)
    charges, caps = np.array(charges), np.array(caps)
    count = _expect_int(lines, "clients")
    if count != n:
        raise ParseError(lines.lineno, f"clients count {count} != n {n}")
    clients = []
    for _ in range(n):
        line = lines.next("client line")
        fac, raw, ac = [], [], []
        for tok in line.split():
            pieces = tok.split(":")
            if len(pieces) != 3:
                raise ParseError(lines.lineno, f"expected 'i:p:a', got {tok!r}")
            try:
                fac.append(int(pieces[0]))
                raw.append(float(pieces[1]))
                ac.append(float(pieces[2]))
            except ValueError:
                raise ParseError(lines.lineno, f"bad entry {tok!r}") from None
        try:  # the client's and CcflInstance's checks, on the client's own line
            client = CcflClient(fac, raw, ac, caps)
            checked_entry_costs(len(clients), charges, client)
        except ValueError as exc:
            raise ParseError(lines.lineno, str(exc)) from None
        clients.append(client)
    if lines.next("end marker") != "end":
        raise ParseError(lines.lineno, "missing 'end'")
    try:
        return CcflInstance(charges, caps, tuple(clients))
    except ValueError as exc:
        raise ParseError(lines.lineno, str(exc)) from None


# ---------------------------------------------------------------------------
# Seeded generators
# ---------------------------------------------------------------------------


def gen_random_ompc(
    m: int,
    n: int,
    rows: int,
    density: float,
    coeff_range: tuple[float, float],
    seed: int,
) -> OmpcInstance:
    """Random instance; every covering row nonempty, every variable packed.

    Draw order is fixed (packing mask, packing repairs, packing values,
    then per covering row: mask, repair, values) so a seed pins the
    instance exactly.
    """
    lo, hi = float(coeff_range[0]), float(coeff_range[1])
    if not (0.0 < density <= 1.0):
        raise ValueError("density must be in (0, 1]")
    if not (0.0 < lo <= hi):
        raise ValueError("coefficient range must be positive and ordered")
    if m < 1 or n < 1 or rows < 1:
        raise ValueError("m, n, rows must be positive")
    g = rng_for(seed, "gen-ompc", m, n, rows)
    mask = g.random((m, n)) < density
    for j in range(n):  # every variable appears in some packing row
        if not mask[:, j].any():
            mask[int(g.integers(m)), j] = True
    for k in range(m):  # no empty packing rows
        if not mask[k].any():
            mask[k, int(g.integers(n))] = True
    matrix = np.zeros((m, n))
    matrix[mask] = lo + (hi - lo) * g.random(int(mask.sum()))
    cov = []
    for _ in range(rows):
        rmask = g.random(n) < density
        if not rmask.any():
            rmask[int(g.integers(n))] = True
        vals = lo + (hi - lo) * g.random(int(rmask.sum()))
        cov.append(CoveringRow(np.nonzero(rmask)[0], vals))
    return OmpcInstance(PackingSystem(matrix), tuple(cov))


def gen_random_ccfl(
    m: int,
    n: int,
    seed: int,
    charge_range: tuple[float, float] = (1.0, 4.0),
    demand_range: tuple[float, float] = (0.5, 4.0),
    assign_range: tuple[float, float] = (0.0, 2.0),
    capacity_range: tuple[float, float] = (1.0, 1.0),
) -> CcflInstance:
    """Dense random assignment instance (every facility feasible)."""
    if m < 2 or n < 2:
        raise ValueError("need m, n >= 2")
    g = rng_for(seed, "gen-ccfl", m, n)

    def draw(rg: tuple[float, float], size) -> np.ndarray:
        lo, hi = float(rg[0]), float(rg[1])
        if hi < lo:
            raise ValueError("ranges must be ordered")
        return lo + (hi - lo) * g.random(size)

    charges = draw(charge_range, m)
    caps = draw(capacity_range, m)
    check_facilities(charges, caps)  # before any client divides by caps
    clients = []
    fac = np.arange(m, dtype=np.int64)
    for _ in range(n):
        raw = draw(demand_range, m)
        clients.append(CcflClient(fac, raw, draw(assign_range, m), caps))
    return CcflInstance(charges, caps, tuple(clients))
