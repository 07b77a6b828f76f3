import math

import numpy as np
import pytest

from mixpc import (
    MpcResponder,
    UniformResponder,
    harmonic,
    optimal_witness,
    tree_adversary,
    umsc_lower_bound,
    umsc_prefix_assignment,
    umsc_to_ccfl,
    violation,
)
from mixpc.adversary import ProtocolError, _GameContext, two_block_game
from mixpc.core import PackingSystem


def test_two_block_game_d1():
    ctx = _GameContext(responder=UniformResponder(2), n=2)
    two_block_game(np.array([0]), np.array([1]), ctx)
    w = float(ctx.x.sum())
    assert w >= harmonic(1) - 1e-12
    assert len(ctx.transcript) == 1


def test_two_block_game_d2_uniform_hand_values():
    # hand recurrence: round 1 gives 1/4 each; survivors get +1/4 more
    ctx = _GameContext(responder=UniformResponder(4), n=4)
    s1, s2 = two_block_game(np.array([0, 1]), np.array([2, 3]), ctx)
    assert ctx.x.tolist() == [0.25, 0.5, 0.25, 0.5]
    assert (s1, s2) == (1, 3)  # lowest-index maxima were removed first
    w1 = float(ctx.x[[0, 1]].sum())
    w2 = float(ctx.x[[2, 3]].sum())
    assert w1 + w2 == pytest.approx(harmonic(2), abs=1e-12)


def test_two_block_game_row_sizes_shrink():
    d = 4
    ctx = _GameContext(responder=UniformResponder(2 * d), n=2 * d)
    two_block_game(np.arange(d), np.arange(d, 2 * d), ctx)
    sizes = [row.nnz for row in ctx.transcript]
    assert sizes == [2 * (d + 1 - i) for i in range(1, d + 1)]


def test_two_block_game_d8_against_online_solver():
    d = 8
    n = 2 * d
    system = PackingSystem(np.ones((2, n)))  # any packing context works here
    ctx = _GameContext(responder=MpcResponder(system), n=n)
    two_block_game(np.arange(d), np.arange(d, 2 * d), ctx)
    w1 = float(ctx.x[:d].sum())
    w2 = float(ctx.x[d:].sum())
    assert w1 + w2 >= harmonic(d) - 1e-9
    assert max(w1, w2) >= harmonic(d) / 2 - 1e-9


def test_protocol_error_on_lazy_responder():
    class Lazy:
        def respond(self, row):
            return np.zeros(2)

    ctx = _GameContext(responder=Lazy(), n=2)
    with pytest.raises(ProtocolError):
        ctx.issue(np.array([0, 1]))


def test_protocol_error_on_shrinking_responder():
    class Shrinker:
        def __init__(self):
            self.calls = 0

        def respond(self, row):
            self.calls += 1
            x = np.full(2, 1.0 if self.calls == 1 else 0.6)
            return x

    ctx = _GameContext(responder=Shrinker(), n=2)
    ctx.issue(np.array([0, 1]))
    with pytest.raises(ProtocolError):
        ctx.issue(np.array([0, 1]))


def test_tree_adversary_m2_d2_uniform():
    res = tree_adversary(2, 2, lambda s: UniformResponder(s.n))
    assert res.algorithm_value() >= harmonic(2) / 2 - 1e-12
    w = optimal_witness(res)
    assert violation(res.system, w) == 1.0
    assert min(r.coverage(w) for r in res.transcript) >= 1.0


def test_tree_adversary_m4_d8_against_solver():
    res = tree_adversary(4, 8, MpcResponder)
    assert res.algorithm_value() >= 2 * harmonic(8) / 2 - 1e-9
    w = optimal_witness(res)
    assert violation(res.system, w) == 1.0
    assert w.sum() == len(res.marked) == 2  # log2(4) marked nodes


def test_tree_adversary_packing_shape():
    m, d = 8, 4
    res = tree_adversary(m, d, lambda s: UniformResponder(s.n))
    assert res.system.m == m
    assert res.system.n == 2 * (m - 1) * d
    # every packing row covers exactly the blocks on its root path
    assert res.system.d == d * int(math.log2(m))
    w = optimal_witness(res)
    assert int((w > 0).sum()) <= int(math.log2(m))
    assert min(r.coverage(w) for r in res.transcript) >= 1.0


def test_marks_are_antichain():
    # no marked node is an ancestor of another: walking the parent chain of
    # any marked node never meets a second mark
    res = tree_adversary(8, 2, lambda s: UniformResponder(s.n))
    marked = set(res.marked)
    for node in marked:
        v = node // 2
        while v >= 1:
            assert v not in marked
            v //= 2


def test_tree_adversary_rejects_bad_sizes():
    with pytest.raises(ValueError):
        tree_adversary(3, 2, lambda s: UniformResponder(s.n))
    with pytest.raises(ValueError):
        tree_adversary(4, 3, lambda s: UniformResponder(s.n))


def test_umsc_table_m5():
    inst = umsc_lower_bound(5, 5.0, eps=0.25)
    assert inst.n == 8
    assert np.allclose(inst.costs, np.exp([0, 5, 10, 15, 20]))
    assert inst.jobs[0] == {0: 5.0, 1: 0.25}
    assert inst.jobs[1] == {1: 4.75}
    assert inst.jobs[6] == {0: 5.0, 4: 0.25}
    assert inst.jobs[7] == {4: 4.75}
    for j in range(0, 8, 2):  # odd jobs (1-based) sit at even 0-based slots
        assert set(inst.jobs[j]) == {0, (j + 4) // 2 - 1}
    for j in range(1, 8, 2):
        assert set(inst.jobs[j]) == {(j + 3) // 2 - 1}


def test_umsc_prefix_assignment_makespan_exact():
    inst = umsc_lower_bound(5, 5.0)
    for k in (2, 4, 6, 8):
        assign, makespan = umsc_prefix_assignment(inst, k)
        assert makespan == pytest.approx(5.0, abs=1e-12)
        used = set(assign.values())
        assert 0 not in used
        assert used == set(range(1, (k + 2) // 2))


def test_umsc_default_eps_valid():
    # default eps = t_star/(4m); odd job 1 runs on machine (1+3)/2 (0-based 1)
    inst = umsc_lower_bound(4, 8.0)
    assert inst.jobs[0][1] == pytest.approx(8.0 / 16.0)


def test_umsc_to_ccfl_roundtrip_structure():
    umsc = umsc_lower_bound(5, 5.0, eps=0.25)
    inst = umsc_to_ccfl(umsc)
    assert inst.m == 5 and inst.n == 8
    assert np.allclose(inst.capacity, 1.0)
    for j, job in enumerate(umsc.jobs):
        cl = inst.clients[j]
        assert set(cl.facilities.tolist()) == set(job)
        assert np.allclose(cl.assign_cost, 0.0)
        assert cl.demand.tolist() == [job[i] for i in cl.facilities.tolist()]
    # odd jobs feasible on exactly machine 1 and machine (j+3)/2
    assert set(inst.clients[2].facilities.tolist()) == {0, 2}


def test_assignment_cost_preserved_under_mapping():
    umsc = umsc_lower_bound(3, 4.0)
    inst = umsc_to_ccfl(umsc)
    # assign every job to its non-machine-1 option and compare totals
    loads_u = {}
    loads_c = np.zeros(inst.m)
    demand = inst.dense_demand()
    opened = set()
    for j, job in enumerate(umsc.jobs):
        i = max(job)
        loads_u[i] = loads_u.get(i, 0.0) + job[i]
        loads_c[i] += demand[i, j]
        opened.add(i)
    total_u = max(loads_u.values()) + sum(umsc.costs[i] for i in opened)
    total_c = loads_c.max() + inst.fixed_charge[sorted(opened)].sum()
    assert total_u == pytest.approx(total_c, rel=1e-15)
