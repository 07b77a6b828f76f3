import hashlib
import json
import math

import numpy as np
import pytest

from mixpc import (
    brute_force_zstar,
    gen_random_ccfl,
    mc_rounding,
    new_rounding_state,
    round_client,
    rounding,
    rounds_for,
    z_epochs,
)
from mixpc.ccfl import CcflClient, CcflFractionalSolver, CcflInstance, openness
from mixpc.rng import restart, rng_for
from mixpc.rounding import epoch_budget


def test_rounds_formula():
    assert rounds_for(10) == 26
    assert rounds_for(20) == 33
    assert rounds_for(2) == math.ceil(4 * math.e * math.log(2))


def _two_clients(fixed_charge, demand, assign_cost, facilities=None):
    """A CcflInstance whose two clients both take the given entries, on
    every facility unless ``facilities`` names some; capacities are 1."""
    m = len(fixed_charge)
    client = CcflClient(
        facilities=np.arange(m) if facilities is None else np.asarray(facilities),
        raw_demand=np.asarray(demand, dtype=float),
        assign_cost=np.asarray(assign_cost, dtype=float),
        capacity=np.ones(m),
    )
    return CcflInstance(np.asarray(fixed_charge, dtype=float), np.ones(m), (client, client))


def test_deterministic_single_facility_assignment():
    # x = y = 1 on one facility: candidate surely, open surely -> chosen
    rng = rng_for(1, "round-det")
    st = new_rounding_state(m=2, n=4, rng=rng_for(1, "round-det-t"))
    x = np.array([1.0, 0.0])
    y = np.array([1.0, 1e-12])
    inst = _two_clients([2.0, 3.0], [0.3, 0.3], [0.0, 0.0])
    chosen = round_client(rng, st, inst, 0, x, y)
    assert chosen == 0
    assert st.open_mask[0]
    assert st.loads[0] == pytest.approx(0.3)


def test_step4_falls_back_to_cheapest_heavy():
    st = new_rounding_state(m=3, n=4, rng=rng_for(2, "round-t"))
    st.tbar[:] = np.inf  # unreachable thresholds: nothing opens in step 1
    rng = rng_for(2, "round-u")

    # force candidate coins to fail by zeroing the probabilities' source
    x = np.array([0.4, 0.4, 0.2])
    y = np.array([1e9, 1e9, 1e9])  # probabilities ~ 0
    inst = _two_clients([1.0, 1.0, 5.0], [0.5, 0.1, 0.2], [0.0, 0.05, 0.0])
    chosen = round_client(rng, st, inst, 0, x, y)
    # step 4 minimizes the entry cost c + p + a over heavy facilities {0, 1, 2}
    assert chosen == 1
    assert st.open_mask[chosen]


def test_step4_takes_the_least_kept_entry_cost():
    # c + a + p ties at 1.8, but the entry costs c + p + a the candidate
    # filter reads are 1.8 and 1.7999999999999998: step 4 takes facility 1
    inst = _two_clients([0.8, 0.6], [0.3, 0.3], [0.7, 0.9])
    assert inst.entry_cost(0).tolist() == [1.8, 1.7999999999999998]
    st = new_rounding_state(m=2, n=4, rng=rng_for(5, "round-t"))
    st.tbar[:] = np.inf  # nothing opens in step 1: no coin finds an open facility
    x = np.array([0.5, 0.5])  # both heavy; y = 1e9 makes every coin fail too
    chosen = round_client(rng_for(5, "round-u"), st, inst, 0, x, np.full(2, 1e9))
    assert chosen == 1
    assert st.newly_opened == [1]
    assert st.opened_cost == 0.6
    assert st.loads.tolist() == [0.0, 0.3]
    assert st.assign_cost == 0.9


@pytest.mark.parametrize("path", ["coin", "step4"])
def test_round_client_draws_m_uniforms(path):
    # client 0 may use facilities 0 and 2 of 3; it still draws 3 uniforms
    inst = _two_clients([1.0, 2.0, 3.0], [0.2, 0.4], [0.1, 0.3], facilities=[0, 2])
    st = new_rounding_state(m=3, n=4, rng=rng_for(6, "round-t"))
    if path == "coin":
        st.tbar[:] = 0.0  # all open in step 1; facility 0's coin is sure
        x = np.array([1.0, 0.0, 0.0])
    else:
        st.tbar[:] = np.inf  # none open: step 4 takes facility 0
        x = np.array([0.5, 0.0, 0.5])
    rng, ref = rng_for(6, "round-u"), rng_for(6, "round-u")
    assert round_client(rng, st, inst, 0, x, np.ones(3)) == 0
    assert st.newly_opened == ([0, 1, 2] if path == "coin" else [0])
    ref.random(3)
    assert np.array_equal(rng.random(4), ref.random(4))


def test_round_client_requires_a_heavy_facility():
    st = new_rounding_state(m=4, n=4, rng=rng_for(3, "round-t"))
    inst = _two_clients(np.ones(4), np.zeros(4), np.zeros(4))
    with pytest.raises(RuntimeError):
        round_client(rng_for(3, "round-u"), st, inst, 0, np.full(4, 0.01), np.full(4, 1.0))


def _frozen_fractional(m=4, n=6, seed=5):
    inst = gen_random_ccfl(m, n, seed=seed)
    z = 2.0 * brute_force_zstar(inst)
    solver = CcflFractionalSolver(inst, z)
    xs = np.zeros((n, m))
    ys = np.zeros((n, m))
    for j in range(n):
        solver.offer(j)
        x = solver.x_aggregate
        xs[j] = x[:, j]
        ys[j] = openness(inst, x, z)
    return inst, z, xs, ys


def test_restarted_stream_matches_a_fresh_generator():
    # one generator moved from stream to stream draws what a new one does,
    # also after a float32 draw left half a word and part of a block unused
    gen = np.random.Generator(np.random.Philox(0))
    for rep in range(2000):
        restart(gen, 99, "mc-round", rep)
        fresh = rng_for(99, "mc-round", rep)
        assert np.array_equal(gen.random((3, 5)), fresh.random((3, 5)))
        assert np.array_equal(
            gen.random(3, dtype=np.float32), fresh.random(3, dtype=np.float32)
        )


def test_mc_batch_matches_sequential_rounding(monkeypatch):
    # the chunked sweep and a client-by-client replay with the same bits
    # must agree exactly on step-4 events, opened cost, and congestion
    inst, z, xs, ys = _frozen_fractional()
    m, n = inst.m, inst.n
    r = rounds_for(n)
    seed = 99
    monkeypatch.setattr(rounding, "MC_CHUNK", 7)
    stats = mc_rounding(inst, xs, ys, z, reps=50, seed=seed)
    step4_seq = np.zeros(n)
    opened_seq = np.zeros(50)
    cong_seq = np.zeros(50)
    p = inst.dense_demand()
    for rep in range(50):
        g = rng_for(seed, "mc-round", rep)
        tdraw, udraw = g.random((m, r)), g.random((n, m))
        tbar = tdraw.min(axis=1)
        cong = np.zeros(m)
        for j in range(n):
            x_cl = np.minimum(xs[j], 1.0)
            heavy = x_cl >= 1.0 / (2 * m)
            hit = False
            for i in range(m):
                if not heavy[i]:
                    continue
                if udraw[j, i] < min(1.0, x_cl[i] / ys[j, i]):
                    cong[i] += p[i, j]
                    if ys[j, i] >= tbar[i]:
                        hit = True
            if not hit:
                step4_seq[j] += 1
        opened_seq[rep] = float(inst.fixed_charge @ (ys[-1] >= tbar))
        cong_seq[rep] = float(cong.max())
    assert np.allclose(stats.step4_freq, step4_seq / 50)
    assert stats.mean_opened_cost == pytest.approx(float(opened_seq.mean()), rel=1e-12)
    assert stats.mean_max_candidate_congestion == pytest.approx(
        float(cong_seq.mean()), rel=1e-12
    )


def test_mc_rounding_bits_are_pinned():
    # pinned bits: a change to the coin rule or the Monte-Carlo kernel that
    # moves any of them must say why
    inst, z, xs, ys = _frozen_fractional()
    stats = mc_rounding(inst, xs, ys, z, reps=500, seed=99)
    assert hashlib.sha256(stats.step4_freq.tobytes()).hexdigest()[:16] == "258f49bf38cc08e0"
    assert stats.step4_freq.tolist() == [0.0, 0.0, 0.0, 0.02, 0.024, 0.03]
    assert stats.mean_opened_cost.hex() == "0x1.3ac7bb49c17b2p+3"
    assert stats.mean_max_candidate_congestion.hex() == "0x1.9948bf6495f0cp+3"


def test_mc_chunking_invariance(monkeypatch):
    inst, z, xs, ys = _frozen_fractional()
    monkeypatch.setattr(rounding, "MC_CHUNK", 40)
    a = mc_rounding(inst, xs, ys, z, reps=40, seed=4)
    monkeypatch.setattr(rounding, "MC_CHUNK", 11)
    b = mc_rounding(inst, xs, ys, z, reps=40, seed=4)
    assert np.array_equal(a.step4_freq, b.step4_freq)
    assert a.mean_opened_cost == b.mean_opened_cost
    assert a.mean_max_candidate_congestion == b.mean_max_candidate_congestion


@pytest.mark.parametrize("reps", [0, -3])
def test_mc_rounding_rejects_reps_below_one(reps):
    inst, z, xs, ys = _frozen_fractional()
    with pytest.raises(ValueError, match=f"^reps must be at least 1, got {reps}$"):
        mc_rounding(inst, xs, ys, z, reps=reps, seed=0)


def test_z_epochs_assigns_everyone_and_doubles():
    for seed in (1, 4, 9):
        inst = gen_random_ccfl(4, 6, seed=seed)
        res = z_epochs(inst, seed=seed)
        assert np.all(res.assignment >= 0)
        zs = [e.z_value for e in res.epochs]
        for z0, z1 in zip(zs, zs[1:]):
            assert z1 == pytest.approx(2.0 * z0)
        assert res.epochs[0].z_value == pytest.approx(inst.min_entry_cost(0))
        for e in res.epochs[:-1]:
            assert e.failed
        assert not res.epochs[-1].failed
        # assignments honour candidate sets of their epoch's guess
        for e in res.epochs:
            for j in e.clients:
                keep = inst.entry_cost(j) <= e.z_value
                assert res.assignment[j] in inst.clients[j].facilities[keep]


def test_z_epochs_decision_log_is_pinned():
    # pinned bits: a change to the ccfl arrival or the rounding that moves
    # any of them must say why
    inst = gen_random_ccfl(6, 40, seed=5, capacity_range=(1.0, 2.0))
    res = z_epochs(inst, seed=3, epoch_constant=0.02)
    text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in res.decision_log)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "148ac7bddaca1e7f"
    assert [e.fail_reason for e in res.epochs] == ["no-candidate", "cost", ""]
    assert res.final_z.hex() == "0x1.376f0a58108d2p+3"


def test_z_epochs_epoch_count_bound():
    for seed in (1, 4, 9, 16):
        inst = gen_random_ccfl(4, 6, seed=seed)
        zstar = brute_force_zstar(inst)
        res = z_epochs(inst, seed=seed)
        cap = math.floor(math.log2(2 * zstar / inst.min_entry_cost(0))) + 1
        assert len(res.epochs) <= cap
        assert res.final_z <= 2 * zstar + 1e-9


def test_z_epochs_total_within_budget_sum():
    inst = gen_random_ccfl(4, 6, seed=4)
    res = z_epochs(inst, seed=4)
    budgets = sum(
        epoch_budget(inst, e.z_value, res.epoch_constant) for e in res.epochs
    )
    # each epoch stops within one client of its budget; the sum over epochs
    # is the quantity the doubling argument controls
    assert res.per_epoch_total <= budgets * (1 + 1e-9) + 2 * res.epochs[-1].z_value


def test_z_epochs_deterministic_given_seed():
    inst = gen_random_ccfl(4, 6, seed=2)
    r1 = z_epochs(inst, seed=123)
    r2 = z_epochs(inst, seed=123)
    assert np.array_equal(r1.assignment, r2.assignment)
    assert r1.decision_log == r2.decision_log
    r3 = z_epochs(inst, seed=124)
    assert (
        not np.array_equal(r1.assignment, r3.assignment)
        or r1.decision_log != r3.decision_log
        or True  # different seed may coincide on tiny instances; no assertion
    )


def test_pipeline_trivial_padded_instance():
    # one real facility and one real client, padded to the 2x2 minimum with
    # an unaffordable facility and a free client: the integral cost is just
    # the real client's fixed charge + demand + assignment cost
    real = CcflClient(
        facilities=np.array([0]),
        raw_demand=np.array([0.75]),
        assign_cost=np.array([0.5]),
        capacity=np.ones(2),
    )
    free = CcflClient(
        facilities=np.array([0]),
        raw_demand=np.array([0.0]),
        assign_cost=np.array([0.0]),
        capacity=np.ones(2),
    )
    inst = CcflInstance(np.array([2.0, 1e12]), np.ones(2), (real, free))
    res = z_epochs(inst, seed=1)
    assert res.assignment.tolist() == [0, 0]
    assert res.per_epoch_total == pytest.approx(2.0 + 0.75 + 0.5, rel=1e-12)


def test_umsc_m3_fractional_disjunction():
    # any schedule with competitive start-up spend must put half of every
    # odd job on machine 1
    import math

    from mixpc import gamma_trials, umsc_lower_bound, umsc_to_ccfl

    m, t_star = 3, 4.0
    inst = umsc_to_ccfl(umsc_lower_bound(m, t_star))
    offline = float(np.exp([m * (i - 1) for i in range(2, m + 1)]).sum()) + t_star
    sol = gamma_trials(inst, offline)
    load1 = float((inst.dense_demand() * sol.x)[0].sum())
    opened = float(inst.fixed_charge @ sol.y)
    assert load1 >= (m - 1) * t_star / 2.0 or opened > math.e**m / m * offline


def test_decision_log_schema():
    inst = gen_random_ccfl(4, 5, seed=3)
    res = z_epochs(inst, seed=3)
    assert len(res.decision_log) == sum(len(e.clients) for e in res.epochs)
    for rec in res.decision_log:
        assert set(rec) == {"client", "epoch", "z", "opened", "assigned", "congestion"}
        assert rec["assigned"] >= 0
