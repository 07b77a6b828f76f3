"""Adversarial instance generators that force large online objectives.

Two constructions are implemented against a pluggable online responder:

* the two-block game, which issues shrinking covering rows over a pair of
  variable blocks until the responder has poured harmonic-number weight
  into one of them, and
* the binary-tree walk, which plays the game at every level of a complete
  tree whose leaves are the packing constraints, so the responder ends up
  with ``log2(m) * H_d / 2`` weight inside one packing row while a single
  variable per marked node covers everything at violation 1.

A fixed job sequence for machine scheduling with start-up costs rounds the
module out; it forces any cost-competitive fractional schedule to overload
the cheap machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from .core import CoveringRow, PackingSystem, violation
from .solver import OnlineOmpcSolver

__all__ = [
    "Responder",
    "UniformResponder",
    "MpcResponder",
    "RESPONDERS",
    "ProtocolError",
    "two_block_game",
    "tree_adversary",
    "TreeAdversaryResult",
    "optimal_witness",
    "UmscInstance",
    "umsc_lower_bound",
    "umsc_prefix_assignment",
    "harmonic",
]

COVER_SLACK = 1e-12


class ProtocolError(RuntimeError):
    """The online responder returned an invalid x: uncovering, shrinking,
    negative or non-finite."""


class Responder(Protocol):
    def respond(self, row: CoveringRow) -> np.ndarray: ...


def harmonic(d: int) -> float:
    return float(sum(1.0 / k for k in range(1, d + 1)))


class UniformResponder:
    """Baseline monotone algorithm: split each row's deficit equally."""

    def __init__(self, n: int):
        self.x = np.zeros(n)

    def respond(self, row: CoveringRow) -> np.ndarray:
        deficit = 1.0 - row.coverage(self.x)
        if deficit > 0:
            self.x[row.indices] += deficit / row.values.sum()
        return self.x.copy()


class MpcResponder:
    """The doubling online solver wrapped in the responder protocol."""

    def __init__(self, system: PackingSystem):
        self.solver = OnlineOmpcSolver(system)

    def respond(self, row: CoveringRow) -> np.ndarray:
        self.solver.offer(row)
        return self.solver.x_total


# the online algorithms by name, each built from the packing system
RESPONDERS: dict[str, Callable[[PackingSystem], Responder]] = {
    "mpc": MpcResponder,
    "uniform": lambda system: UniformResponder(system.n),
}


@dataclass
class _GameContext:
    """Shared issue loop: sends rows to the responder, validates responses."""

    responder: Responder
    n: int
    transcript: list[CoveringRow] = field(default_factory=list)
    x: np.ndarray | None = None

    def issue(self, variables: np.ndarray) -> np.ndarray:
        row = CoveringRow(indices=variables, values=np.ones(variables.size))
        x = np.asarray(self.responder.respond(row), dtype=np.float64)
        if x.shape != (self.n,):
            raise ProtocolError(f"responder returned shape {x.shape}, wanted ({self.n},)")
        if not np.all((x >= 0.0) & (x < np.inf)):  # NaN fails both
            raise ProtocolError("responder returned a negative or non-finite entry")
        if row.coverage(x) < 1.0 - COVER_SLACK:
            raise ProtocolError("responder left the covering row unsatisfied")
        if self.x is not None and np.any(x < self.x - 1e-12):
            raise ProtocolError("responder decreased a variable")
        self.transcript.append(row)
        self.x = x
        return x


def two_block_game(
    block1: np.ndarray, block2: np.ndarray, ctx: _GameContext
) -> tuple[int, int]:
    """Play the shrinking-row game on two equal blocks.

    Issues ``d`` rows over the union of the live block remainders, dropping
    the top-valued variable of each block (lowest index on ties) after each
    of the first ``d - 1`` rounds.  Returns the surviving variable of each
    block; after the game ``w(B1) + w(B2) >= H_d``.
    """
    b1 = [int(v) for v in block1]
    b2 = [int(v) for v in block2]
    if len(b1) != len(b2) or not b1:
        raise ValueError("blocks must be nonempty and of equal size")
    d = len(b1)
    for _ in range(d - 1):
        x = ctx.issue(np.array(sorted(b1 + b2), dtype=np.int64))
        # np.argmax keeps the first of equal maxima
        b1.remove(b1[int(np.argmax(x[b1]))])
        b2.remove(b2[int(np.argmax(x[b2]))])
    ctx.issue(np.array(sorted(b1 + b2), dtype=np.int64))
    return b1[0], b2[0]


@dataclass(frozen=True)
class TreeAdversaryResult:
    system: PackingSystem
    transcript: tuple[CoveringRow, ...]
    marked: tuple[int, ...]  # marked tree nodes (heap indices, root = 1)
    survivors: dict[int, int]  # marked node -> variable left in its block
    x_final: np.ndarray
    m: int
    d: int
    responder: Responder  # the algorithm that played, in its final state

    @property
    def lower_bound(self) -> float:
        return math.log2(self.m) * harmonic(self.d) / 2.0

    def algorithm_value(self) -> float:
        return violation(self.system, self.x_final)


def _tree_block(node: int, d: int) -> np.ndarray:
    # nodes use heap indices 1..2m-1; every node except the root owns a block
    return np.arange((node - 2) * d, (node - 1) * d, dtype=np.int64)


def tree_adversary(
    m: int,
    d: int,
    responder_factory: Callable[[PackingSystem], Responder],
) -> TreeAdversaryResult:
    """Walk a complete binary tree, playing the two-block game per level.

    ``m`` (leaves = packing constraints) and ``d`` (block size) must be
    powers of two.  The responder is built from the packing system, which
    is fixed before any covering row is issued.
    """
    if m < 2 or (m & (m - 1)) != 0:
        raise ValueError("m must be a power of two, at least 2")
    if d < 1 or (d & (d - 1)) != 0:
        raise ValueError("d must be a power of two, at least 1")
    n = 2 * (m - 1) * d
    try:
        matrix = np.zeros((m, n))
    except (MemoryError, ValueError):
        raise ValueError(f"cannot allocate a {m}x{n} packing matrix") from None
    for leaf in range(m, 2 * m):
        node = leaf
        while node != 1:
            matrix[leaf - m, _tree_block(node, d)] = 1.0
            node //= 2
    system = PackingSystem(matrix)
    responder = responder_factory(system)
    ctx = _GameContext(responder=responder, n=n)

    marked: list[int] = []
    survivors: dict[int, int] = {}
    node = 1
    while node < m:  # internal nodes have heap index < m
        left, right = 2 * node, 2 * node + 1
        s_left, s_right = two_block_game(
            _tree_block(left, d), _tree_block(right, d), ctx
        )
        w_left = float(ctx.x[_tree_block(left, d)].sum())
        w_right = float(ctx.x[_tree_block(right, d)].sum())
        if w_left >= w_right:
            marked.append(right)
            survivors[right] = s_right
            node = left
        else:
            marked.append(left)
            survivors[left] = s_left
            node = right

    return TreeAdversaryResult(
        system=system,
        transcript=tuple(ctx.transcript),
        marked=tuple(marked),
        survivors=survivors,
        x_final=ctx.x.copy(),
        m=m,
        d=d,
        responder=responder,
    )


def optimal_witness(result: TreeAdversaryResult) -> np.ndarray:
    """Integral solution from the marked blocks: one surviving variable each.

    Covers every issued row and meets every packing row with value at most
    one, so its violation is exactly 1.
    """
    if not result.marked:
        raise ValueError("adversary run is incomplete: nothing was marked")
    x = np.zeros(result.system.n)
    for node in result.marked:
        x[result.survivors[node]] = 1.0
    return x


# ---------------------------------------------------------------------------
# Machine scheduling with start-up costs: the fixed hard sequence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UmscInstance:
    """Machines with start-up costs; jobs list feasible machines sparsely."""

    costs: np.ndarray  # start-up cost per machine
    jobs: tuple[dict[int, float], ...]  # job -> {machine: processing time}

    def __post_init__(self) -> None:
        c = np.asarray(self.costs, dtype=np.float64).ravel()
        object.__setattr__(self, "costs", c)
        object.__setattr__(self, "jobs", tuple(dict(j) for j in self.jobs))
        for job in self.jobs:
            if not job:
                raise ValueError("every job needs at least one feasible machine")

    @property
    def m(self) -> int:
        return int(self.costs.size)

    @property
    def n(self) -> int:
        return len(self.jobs)


def umsc_lower_bound(m: int, t_star: float, eps: float | None = None) -> UmscInstance:
    """Hard sequence of 2(m-1) jobs over machines costing e^{m(i-1)}.

    Odd jobs run on machine 1 (time ``t_star``) or machine ``(j+3)/2``
    (time ``eps``); even job ``j`` runs only on machine ``(j+2)/2`` at
    ``t_star - eps``.  Any fractional schedule whose start-up spend stays
    within ``o(e^m/m)`` of the offline cost must place half of every odd
    job on machine 1.
    """
    if m < 2:
        raise ValueError("need at least two machines")
    if eps is None:
        eps = t_star / (4.0 * m)
    if not (0.0 < eps < t_star):
        raise ValueError("eps must lie strictly between 0 and t_star")
    costs = np.exp([m * (i - 1) for i in range(1, m + 1)])
    jobs: list[dict[int, float]] = []
    for j in range(1, 2 * (m - 1) + 1):
        if j % 2 == 1:
            jobs.append({0: float(t_star), (j + 3) // 2 - 1: float(eps)})
        else:
            jobs.append({(j + 2) // 2 - 1: float(t_star - eps)})
    return UmscInstance(costs=costs, jobs=tuple(jobs))


def umsc_prefix_assignment(instance: UmscInstance, k: int) -> tuple[dict[int, int], float]:
    """Offline schedule of the first ``k`` (even) jobs away from machine 1.

    Odd job j goes to machine (j+3)/2, even job j to (j+2)/2, so machines
    2..(k+2)/2 each carry at most one short and one long job; returns the
    assignment and its makespan.
    """
    if k % 2 != 0 or not (0 < k <= instance.n):
        raise ValueError("k must be even and within the sequence")
    assign: dict[int, int] = {}
    loads: dict[int, float] = {}
    for j in range(1, k + 1):
        machine = ((j + 3) // 2 - 1) if j % 2 == 1 else ((j + 2) // 2 - 1)
        assign[j - 1] = machine
        loads[machine] = loads.get(machine, 0.0) + instance.jobs[j - 1][machine]
    return assign, max(loads.values())
