import dataclasses
import hashlib
import json
import math

import pytest

from mixpc import (
    MpcResponder,
    brute_force_zstar,
    ccfl_opt1,
    emit_instance,
    gamma_trials,
    gen_random_ccfl,
    gen_random_ompc,
    ompc_opt,
    optimal_witness,
    parse_instance,
    solve_online,
    tree_adversary,
)
from mixpc import cli
from mixpc.cli import main
from mixpc.runner import (
    CONGESTION_SLACK,
    ExperimentConfig,
    _mc_opened_cap,
    ccfl_bound,
    check_adversary_run,
    check_ccfl_run,
    check_mc_stats,
    check_ompc_run,
    ompc_bound,
    ompc_phase_budget,
    report_to_csv,
    run_experiment,
    suite_ccfl_mc,
    suite_ompc_adversary,
    suite_ompc_random,
)
from mixpc.oracle import LpSolution
from mixpc.solver import TrialRecord, init_trial, process_constraint
from reference_maths import exact_ompc_opt

REPORT_HEADER = (
    "instance,seed,algorithm,m,n,d,rho,kappa,sigma,online,oracle,ratio,bound,"
    "phases,trials,epochs,witness,wall_time_s"
)


def strip_wall_time(csv_text: str) -> str:
    lines = csv_text.strip().splitlines()
    return "\n".join(",".join(line.split(",")[:-1]) for line in lines)


# sha256 of each suite CSV without its wall_time_s column, first 16 hex
# digits; a change to a suite or its checks that moves an output shows here
PINNED_SUITE_CSVS = [
    ("ompc-adversary", None, {}, "13ebc95ef4112d2e"),
    ("ompc-random", 0, {"count": 10}, "0b8b3b0910474089"),
    ("ompc-random", 11, {"count": 10}, "687db5704a6af63c"),
    ("ccfl-random", 0, {"count": 3}, "9c3afd657961be6f"),
    ("ccfl-random", 11, {"count": 3}, "22f5906128053afb"),
    ("ccfl-mc", 0, {"reps": 2000}, "da3ce053574238f2"),
    ("ccfl-mc", 11, {"reps": 2000}, "a6c3e8d1a337759c"),
]


@pytest.mark.parametrize("suite, seed, sizes, digest", PINNED_SUITE_CSVS)
def test_suite_csv_is_pinned(suite, seed, sizes, digest):
    seeded = {} if seed is None else {"seed": seed}
    rep = run_experiment(ExperimentConfig(suite=suite, **seeded, **sizes))
    assert rep.violations == []
    csv_text = strip_wall_time(report_to_csv(rep))
    assert hashlib.sha256(csv_text.encode()).hexdigest()[:16] == digest


def test_suite_ompc_random_small_passes():
    rep = suite_ompc_random(count=4, seed=2)
    assert rep.passed, rep.violations
    assert len(rep.records) == 4
    for rec in rep.records:
        assert rec.ratio >= 1.0 - 1e-9
        assert rec.online <= rec.bound * rec.oracle * (1 + 1e-9)


def test_suite_ompc_adversary_reaches_the_forced_bound():
    rep = suite_ompc_adversary()
    assert rep.passed, rep.violations
    assert [rec.instance for rec in rep.records] == [
        f"adversary-m{m}-d{d}" for m in (4, 8, 16) for d in (8, 16)
    ]
    for rec in rep.records:
        assert (rec.seed, rec.algorithm) == (0, "mpc")
        assert rec.witness == 1.0
        assert rec.online >= rec.bound - 1e-12


def test_report_determinism_modulo_wall_time():
    a = report_to_csv(suite_ompc_random(count=3, seed=5))
    b = report_to_csv(suite_ompc_random(count=3, seed=5))
    assert strip_wall_time(a) == strip_wall_time(b)
    assert a.splitlines()[0] == REPORT_HEADER


def test_run_experiment_dispatch_and_unknown():
    rep = run_experiment(ExperimentConfig(suite="ompc-random", count=2, seed=1))
    assert len(rep.records) == 2
    with pytest.raises(ValueError):
        run_experiment(ExperimentConfig(suite="nope"))


def test_online_never_beats_oracle_across_suites():
    for rep in (suite_ompc_random(count=3, seed=7), suite_ompc_adversary()):
        for rec in rep.records:
            assert rec.ratio >= 1.0 - 1e-9


def test_cli_solve_ompc_roundtrip(tmp_path, capsys):
    inst = gen_random_ompc(4, 6, 5, 0.6, (1.0, 3.0), seed=3)
    path = tmp_path / "inst.txt"
    path.write_text(emit_instance(inst))
    code = main(["solve-ompc", "--instance", str(path), "--bound-check"])
    out = capsys.readouterr().out
    assert code == 0
    assert "lambda" in out and "oracle" in out


# variable 1 has an empty packing column and alone covers the row: OPT = 0
OMPC_OPT_ZERO = """mixpc-instance v1
kind ompc
m 1
n 2
packing 1
0 0 1.0
covering 1
1:1.0
end
"""


def test_opt_zero_is_checked_by_phase_count(tmp_path, capsys):
    path = tmp_path / "opt0.txt"
    path.write_text(OMPC_OPT_ZERO)
    assert main(["solve-ompc", "--instance", str(path), "--bound-check"]) == 0
    out = capsys.readouterr()
    assert "lambda 0.0\ntrials 0\nphases 0\noracle 0.0\n" in out.out
    assert out.err == ""
    inst = parse_instance(OMPC_OPT_ZERO)
    sol = solve_online(inst.system, inst.rows)
    # the row is free, so it opens no trial and loads no packing row
    assert sol.lambda_value == 0.0
    assert sol.trials == ()
    assert check_ompc_run(inst, sol, 0.0, "opt0") == []
    # a trial that ran a phase at OPT 0 is flagged; the solver opens none
    # here, so this one is built by hand
    state = init_trial(inst.system, 1.0, inst.rows[0])
    assert process_constraint(state, inst.rows[0], 0)
    planted = dataclasses.replace(
        sol, trials=(TrialRecord(gamma=1.0, failed=False, phases=1, state=state),)
    )
    assert check_ompc_run(inst, planted, 0.0, "opt0") == [
        "opt0: trial 0 ran 1 phases at OPT 0"
    ]


def test_check_ompc_run_flags_doctored_violations():
    # every check but the OPT = 0 one, each set off by one doctored value of
    # a run that passes
    inst = gen_random_ompc(8, 12, 12, 0.6, (1.0, 4.0), seed=11)
    sol = solve_online(inst.system, inst.rows)
    opt = ompc_opt(inst.system, list(inst.rows)).value
    assert check_ompc_run(inst, sol, opt, "run") == []
    assert sol.trials[0].failed
    low = dataclasses.replace(sol.trials[0], gamma=sol.trials[0].gamma / 10.0)
    planted = dataclasses.replace(sol, trials=(low, *sol.trials[1:]))
    assert check_ompc_run(inst, planted, opt, "run") == [
        "run: trial 0 failed above the mu-step envelope"
    ]
    lam_sum = sum(rec.state.lambda_value() for rec in sol.trials)
    planted = dataclasses.replace(sol, lambda_value=2.0 * lam_sum)
    assert check_ompc_run(inst, planted, opt, "run") == [
        "run: aggregate violation exceeds per-trial sum"
    ]
    assert check_ompc_run(inst, sol, 2.0 * sol.lambda_value, "run") == [
        "run: online beat the oracle"
    ]
    last = sol.trials[-1]

    def check(phases=last.phases, **state):
        trial = dataclasses.replace(
            last, phases=phases, state=dataclasses.replace(last.state, **state)
        )
        planted = dataclasses.replace(sol, trials=(*sol.trials[:-1], trial))
        return check_ompc_run(inst, planted, opt, "run")

    bound = ompc_bound(inst)
    lam = 2.0 * bound * opt
    # a lambda past the ratio is past the per-trial sum too
    assert check_ompc_run(inst, dataclasses.replace(sol, lambda_value=lam), opt, "run") == [
        f"run: online {lam} exceeds {bound} * OPT ({opt})",
        "run: aggregate violation exceeds per-trial sum",
    ]
    budget = ompc_phase_budget(inst)
    assert check(phases=budget + 1) == [
        f"run: trial 2 used {budget + 1} phases > budget {budget}"
    ]
    assert check(min_pd_gap=-1e-6) == ["run: trial 2 primal-dual gap -1e-06 < -1e-09"]
    # ten times the packing duals sum past 1
    fam = check(z_running=10.0 * last.state.z_running)
    assert len(fam) == 1 and fam[0].startswith("run: trial 2 dual infeasible (")
    # trial 2's certificate sums to 0.0112; the others' stay below 0.009
    assert check_ompc_run(inst, sol, 0.009, "run") == [
        "run: trial 2 weak duality 0.011206864760155415 > OPT 0.009"
    ]


def test_check_ccfl_run_flags_opt1_below_z():
    inst = gen_random_ccfl(3, 4, seed=6)
    zstar = brute_force_zstar(inst)
    sol = gamma_trials(inst, zstar)
    assert sol.z_value == zstar
    assert check_ccfl_run(inst, sol, ccfl_opt1(inst, zstar).objective, "run") == []
    assert check_ccfl_run(inst, sol, 0.999 * zstar, "run") == ["run: OPT1 below Z"]


# the brute-force sum lands one ulp below client 1's least entry cost
CCFL_ZSTAR_BELOW_ENTRY_COST = """mixpc-instance v1
kind ccfl
m 3
n 2
facilities 3
1.5603548320308611 0.014073525140156959
2.337736596716123e-12 0.46121422287024627
2.3051594432915556 8.365587650752198e-10
clients 2
0:4.568706860902092e-11:3.6768752356269347 1:2.425330117791903:0.0 2:0.009358525447340518:0.0
0:0.18814359822839047:786322.9193594854 1:2.239926879092805:24051362.420047503
end
"""

# family 2 written out cancels terms near 3e21 at facility 1, where c = 9.6e-9
CCFL_FAMILY2_CANCELLATION = """mixpc-instance v1
kind ccfl
m 2
n 2
facilities 2
832369636.9555813 3.1787449325054022
9.642780334104179e-09 3.555938039226166
clients 2
0:13310903.914639061:1.9634982639002394 1:9.691212432664594e-09:0.0211535585747842
0:9.240721333644202e-10:1.0107160934944851e-05 1:481679.7056933765:269893103536.16254
end
"""


@pytest.mark.parametrize(
    "text",
    [CCFL_ZSTAR_BELOW_ENTRY_COST, CCFL_FAMILY2_CANCELLATION],
    ids=["zstar-below-entry-cost", "family2-cancellation"],
)
def test_ccfl_run_at_the_brute_force_zstar_passes_its_checks(text):
    inst = parse_instance(text)
    zstar = brute_force_zstar(inst)
    assert all(zstar >= inst.min_entry_cost(j) for j in range(inst.n))
    opt1 = ccfl_opt1(inst, zstar)
    assert opt1.status == "optimal"
    assert check_ccfl_run(inst, gamma_trials(inst, zstar), opt1.objective, "run") == []


def test_check_ccfl_run_flags_doctored_dual_families():
    # each dual family and weak duality, set off by one doctored field of the
    # failed first trial of a run that passes; that trial's last clients
    # never entered
    heavy = gen_random_ccfl(
        2, 60, seed=2, charge_range=(0.1, 0.2), demand_range=(3.0, 4.0),
        assign_range=(0.0, 0.1),
    )
    z = max(heavy.entry_cost(j).min() for j in range(heavy.n))
    sol = gamma_trials(heavy, z)
    opt1 = ccfl_opt1(heavy, z).objective
    assert check_ccfl_run(heavy, sol, opt1, "run") == []
    first = sol.trials[0]
    assert first.failed and not first.x[:, -1].any()

    def check(**doctored):
        trial = dataclasses.replace(first, **doctored)
        planted = dataclasses.replace(sol, trials=(trial, *sol.trials[1:]))
        return check_ccfl_run(heavy, planted, opt1, "run")

    assert check(alpha=10.0 * first.alpha) == [
        "run: trial 0 dual family-1 infeasible (0.0015159919587583864)"
    ]
    assert check(eta=100.0 * first.eta) == ["run: trial 0 dual family-3 infeasible"]
    assert check(chi=100.0 * first.chi) == ["run: trial 0 dual family-3 infeasible"]
    # chi and eta cancel out of family 2; a smaller nu = 1 + ln(mn) + max
    # scaled violation inflates its beta and gamma terms past c
    assert check(max_scaled_violation=-math.log(heavy.m * heavy.n) - 0.5) == [
        "run: trial 0 dual family-3 infeasible",
        "run: trial 0 dual family-2 infeasible",
    ]
    assert check(gamma=1000.0 * first.gamma) == [
        "run: trial 0 dual family-1 infeasible (8.846585461262663)",
        "run: trial 0 weak duality 0.2719128938837373 > OPT1/gamma "
        "0.11234538820002486",
    ]
    # family 1 is taken on entered pairs only; weak duality sums every client
    alpha = first.alpha.copy()
    alpha[-1] = 1e6
    assert check(alpha=alpha) == [
        "run: trial 0 weak duality 214.15010342870164 > OPT1/gamma "
        "112.34538820002486"
    ]
    # the trial's own primal-dual gap, and the run's two cost checks
    assert check(min_pd_gap=-1e-6) == ["run: trial 0 primal-dual gap -1e-06 < -1e-09"]
    cap = ccfl_bound(heavy) * opt1
    high = dataclasses.replace(sol, cumulative_cost=2.0 * cap)
    assert check_ccfl_run(heavy, high, opt1, "run") == [
        f"run: cumulative fractional cost {2.0 * cap} exceeds {cap}"
    ]
    low = dataclasses.replace(sol, cumulative_cost=sol.lp1_objective / 2.0)
    assert check_ccfl_run(heavy, low, opt1, "run") == [
        "run: aggregate objective exceeds cumulative trial cost"
    ]


def test_check_adversary_run_flags_a_doctored_witness_and_value():
    result = tree_adversary(4, 2, MpcResponder)
    witness = optimal_witness(result)
    assert check_adversary_run(result, witness, "adv") == []
    assert check_adversary_run(result, 2.0 * witness, "adv") == [
        "adv: witness violation 2.0 != 1"
    ]
    low = dataclasses.replace(result, x_final=result.x_final / 10.0)
    assert check_adversary_run(low, witness, "adv") == [
        f"adv: algorithm value {low.algorithm_value()} below bound 1.5"
    ]


def test_check_mc_stats_flags_each_cap():
    report, stats = suite_ccfl_mc(reps=2000, seed=0)
    assert report.violations == check_mc_stats(stats) == []

    def check(**doctored):
        return check_mc_stats(dataclasses.replace(stats, **doctored))

    step4 = check(step4_freq=stats.step4_freq + 0.5)
    assert len(step4) == 1 and step4[0].startswith("mc: step-4 frequency 0.5 above ")
    cap = _mc_opened_cap(stats)
    assert check(mean_opened_cost=2.0 * cap) == [
        f"mc: mean opened cost {2.0 * cap} above {cap}"
    ]
    cong = 2.0 * stats.congestion_bound
    cong_cap = stats.congestion_bound * (1.0 + CONGESTION_SLACK)
    assert check(mean_max_candidate_congestion=cong) == [
        f"mc: mean max candidate congestion {cong} above {cong_cap}"
    ]


def test_cli_solve_ompc_bound_check_flags_online_below_the_oracle(
    tmp_path, monkeypatch, capsys
):
    inst = gen_random_ompc(8, 12, 12, 0.6, (1.0, 4.0), seed=11)
    lam = solve_online(inst.system, inst.rows).lambda_value
    real = cli.ompc_opt

    def above_online(system, rows):
        return dataclasses.replace(real(system, rows), value=2.0 * lam)

    monkeypatch.setattr(cli, "ompc_opt", above_online)
    path = tmp_path / "inst.txt"
    path.write_text(emit_instance(inst))
    assert main(["solve-ompc", "--instance", str(path), "--bound-check"]) == 1
    assert capsys.readouterr().err == f"VIOLATION {path}: online beat the oracle\n"


# OPT = 0, as every row is free: in A, B and C every row holds variable 1,
# whose packing column is empty, and in D variable 3.  On all rows the
# simplex returns -3.5e-18 (A), 1.0e-9 (B) and 0.2959661835953075 (C), and
# comes back infeasible (D); as free rows, they never reach it
OMPC_OPT_ZERO_NOISY = {
    "A": """mixpc-instance v1
kind ompc
m 1
n 2
packing 1
0 0 0.3746752616034644
covering 3
0:625558387341.7756 1:7618099.14477571
0:2.3250472662782773 1:21.38273714791391
1:25.534583642312832
end
""",
    "B": """mixpc-instance v1
kind ompc
m 2
n 2
packing 1
0 0 7652652.39163527
covering 3
0:4.3457385238849696e-08 1:2.3482460219895875
1:1.8768191241267863e-07
0:2.1730743255308 1:4.0370250197983354e-07
end
""",
    "C": """mixpc-instance v1
kind ompc
m 2
n 4
packing 5
0 0 0.10747769435830345
0 2 3.749467070190558
0 3 0.9666482189939416
1 2 0.7919125350726605
1 3 2.401048724067926e-05
covering 2
1:1.3357154648845695
1:2.2510572350612257e-11 2:12.668565795524268 3:2.6644249887781424
end
""",
    "D": """mixpc-instance v1
kind ompc
m 1
n 4
packing 3
0 0 0.972948275555096
0 1 181158671028.6693
0 2 5.215971733778839e-05
covering 3
3:7.401000377764281e-11
0:1.980927298622346e-06 1:4.1760110156599706e-11 2:1.432115514642068 3:217212.8402715041
0:8914371628.272032 1:408280047654.3799 2:776596.4343442793 3:3.052953390562486
end
""",
}


@pytest.mark.parametrize("name", sorted(OMPC_OPT_ZERO_NOISY))
def test_oracle_returns_exact_zero_when_no_packing_row_is_loaded(
    name, tmp_path, capsys
):
    inst = parse_instance(OMPC_OPT_ZERO_NOISY[name])
    assert exact_ompc_opt(inst.system, list(inst.rows)) == 0
    path = tmp_path / f"{name}.txt"
    path.write_text(OMPC_OPT_ZERO_NOISY[name])
    assert main(["oracle", "--instance", str(path)]) == 0
    assert capsys.readouterr().out.startswith("opt 0.0\ndual 0.0\n")
    assert main(["solve-ompc", "--instance", str(path), "--bound-check"]) == 0
    out = capsys.readouterr()
    assert "phases 0\noracle 0.0\n" in out.out
    assert out.err == ""


# rows 1-3 are free by variable 0; on all rows the simplex returned
# 19918.748779296875, above the online 19918.7486763115, which is optimal
OMPC_THREE_OF_FOUR_FREE = """mixpc-instance v1
kind ompc
m 1
n 2
packing 1
0 1 315363694449.4724
covering 4
1:15832505.32321444
0:3.004217789074338e-10 1:0.37004388488452555
0:7.288217355564184e-07 1:235.11847096799673
0:1.6713792390957698 1:3.0709596955923937
end
"""


def test_free_rows_leave_the_oracle_lp_on_a_positive_optimum(tmp_path, capsys):
    inst = parse_instance(OMPC_THREE_OF_FOUR_FREE)
    assert float(exact_ompc_opt(inst.system, list(inst.rows))) == 19918.7486763115
    path = tmp_path / "inst.txt"
    path.write_text(OMPC_THREE_OF_FOUR_FREE)
    assert main(["oracle", "--instance", str(path)]) == 0
    assert capsys.readouterr().out == "opt 19918.7486763115\ndual 19918.7486763115\n"
    assert main(["solve-ompc", "--instance", str(path), "--bound-check"]) == 0
    out = capsys.readouterr()
    assert "lambda 19918.7486763115\n" in out.out
    assert "\noracle 19918.7486763115\n" in out.out
    assert out.err == ""


def test_cli_adversary_writes_instance(tmp_path, capsys):
    out_path = tmp_path / "adv.txt"
    code = main(
        [
            "adversary",
            "--m",
            "2",
            "--d",
            "2",
            "--algorithm",
            "uniform",
            "--out",
            str(out_path),
            "--bound-check",
        ]
    )
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("mixpc-instance v1")
    code = main(["oracle", "--instance", str(out_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "opt" in out


def test_cli_adversary_bound_check_checks_the_witness(monkeypatch, capsys):
    real = cli.optimal_witness

    def drop_last_survivor(result):
        # the last marked node's survivor alone covers the final row; the
        # first one keeps the witness at violation 1
        witness = real(result)
        witness[result.survivors[result.marked[-1]]] = 0.0
        return witness

    monkeypatch.setattr(cli, "optimal_witness", drop_last_survivor)
    argv = ["adversary", "--m", "4", "--d", "2", "--algorithm", "uniform"]
    assert main([*argv, "--bound-check"]) == 1
    err = capsys.readouterr().err
    assert err == "VIOLATION adversary-m4-d2: witness leaves a row uncovered\n"
    assert main(argv) == 0


# sizes whose packing matrix fails before any page is touched: 16 PiB of
# floats, and a size numpy refuses outright
@pytest.mark.parametrize("m, d", [(2**20, 2**10), (2**40, 2**20)])
def test_cli_adversary_too_large_to_allocate_is_an_input_error(m, d, capsys):
    assert main(["adversary", "--m", str(m), "--d", str(d)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    n = 2 * (m - 1) * d
    assert captured.err == f"input error: cannot allocate a {m}x{n} packing matrix\n"


# sha256 of the decision log solve-ccfl --out writes for gen_random_ccfl(3, 4,
# seed=6) at --seed 4, the same bytes the retired round command printed
CCFL_LOG_SHA256 = "f3760cd389174d3ef2472cd58b58f69631734397cb61b18ec13d55e018b79fc6"


def test_cli_solve_ccfl_writes_the_decision_log(tmp_path):
    inst = gen_random_ccfl(3, 4, seed=6)
    path = tmp_path / "ccfl.txt"
    path.write_text(emit_instance(inst))
    log_path = tmp_path / "log.jsonl"
    code = main(
        [
            "solve-ccfl",
            "--instance",
            str(path),
            "--seed",
            "4",
            "--out",
            str(log_path),
            "--bound-check",
        ]
    )
    assert code == 0
    records = [json.loads(line) for line in log_path.read_text().splitlines()]
    assert len(records) == 4
    assert all(r["assigned"] >= 0 for r in records)
    assert hashlib.sha256(log_path.read_bytes()).hexdigest() == CCFL_LOG_SHA256


def test_cli_round_is_not_a_command(capsys):
    # argparse rejects the command before it reads any option or file
    with pytest.raises(SystemExit) as exc:
        main(["round", "--instance", "ccfl.txt", "--seed", "4"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument command: invalid choice: 'round'" in captured.err


def test_cli_solve_ccfl_bound_check_flags_cost_above_the_epoch_cap(tmp_path, capsys):
    path = tmp_path / "ccfl.txt"
    path.write_text(emit_instance(gen_random_ccfl(4, 8, seed=3)))
    argv = ["solve-ccfl", "--instance", str(path), "--bound-check"]
    assert main([*argv, "--epoch-constant", "1e-3"]) == 1
    captured = capsys.readouterr()
    assert captured.out.endswith(
        "per_epoch_total 85.6151686340685\n"
        "zstar 17.19290105672954\n"
        "bound 6.83459026632819\n"
    )
    assert captured.err == (
        f"VIOLATION {path}: integral cost 85.6151686340685 exceeds 6.83459026632819\n"
    )


def test_cli_solve_ccfl_bound_check_skips_beyond_the_brute_force_guard(
    tmp_path, capsys
):
    path = tmp_path / "ccfl.txt"
    path.write_text(emit_instance(gen_random_ccfl(9, 8, seed=3)))
    assert main(["solve-ccfl", "--instance", str(path), "--bound-check"]) == 0
    captured = capsys.readouterr()
    assert captured.out.endswith(
        "\nbound-check skipped: instance beyond brute-force guard\n"
    )
    assert "zstar" not in captured.out
    assert captured.err == ""


def test_cli_oracle_brute_and_opt1(tmp_path, capsys):
    inst = gen_random_ccfl(3, 4, seed=6)
    path = tmp_path / "ccfl.txt"
    path.write_text(emit_instance(inst))
    assert main(["oracle", "--instance", str(path), "--brute"]) == 0
    brute_line = capsys.readouterr().out.strip()
    zstar = float(brute_line.split()[1])
    assert main(["oracle", "--instance", str(path), "--z", repr(zstar)]) == 0
    opt1_line = capsys.readouterr().out.strip()
    assert float(opt1_line.split()[1]) >= zstar - 1e-9


def test_cli_solve_ccfl_without_bound_check_prints_the_run_only(tmp_path, capsys):
    path = tmp_path / "ccfl.txt"
    path.write_text(emit_instance(gen_random_ccfl(3, 4, seed=6)))
    assert main(["solve-ccfl", "--instance", str(path)]) == 0
    captured = capsys.readouterr()
    assert [line.split()[0] for line in captured.out.splitlines()] == [
        "epochs", "final_z", "per_epoch_total"
    ]
    assert captured.err == ""
    ompc = tmp_path / "ompc.txt"
    ompc.write_text(emit_instance(gen_random_ompc(4, 6, 5, 0.6, (1.0, 3.0), seed=3)))
    assert main(["solve-ccfl", "--instance", str(ompc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "solve-ccfl needs a facility/client instance\n"


def test_cli_oracle_z_below_a_least_entry_cost_is_infeasible(tmp_path, capsys):
    inst = gen_random_ccfl(3, 4, seed=6)
    path = tmp_path / "ccfl.txt"
    path.write_text(emit_instance(inst))
    z = 0.5 * min(inst.min_entry_cost(j) for j in range(inst.n))
    assert main(["oracle", "--instance", str(path), "--z", repr(z)]) == 0
    assert capsys.readouterr() == ("status infeasible\n", "")


def test_cli_suite_without_out_writes_the_csv_to_stdout(capsys):
    argv = ["suite", "--name", "ompc-random", "--count", "2", "--seed", "3"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    config = ExperimentConfig(suite="ompc-random", seed=3, count=2)
    assert strip_wall_time(captured.out) == strip_wall_time(
        report_to_csv(run_experiment(config))
    )
    assert captured.out.splitlines()[0] == REPORT_HEADER
    assert captured.err == ""


def test_cli_input_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("definitely not an instance\n")
    assert main(["solve-ompc", "--instance", str(bad)]) == 2
    missing = tmp_path / "missing.txt"
    assert main(["solve-ompc", "--instance", str(missing)]) == 2
    inst = gen_random_ccfl(3, 4, seed=6)
    path = tmp_path / "ccfl.txt"
    path.write_text(emit_instance(inst))
    assert main(["solve-ompc", "--instance", str(path)]) == 2
    assert main(["oracle", "--instance", str(path)]) == 2
    capsys.readouterr()


def test_cli_suite_smoke(tmp_path):
    out = tmp_path / "report.csv"
    code = main(
        [
            "suite",
            "--name",
            "ompc-random",
            "--count",
            "2",
            "--seed",
            "3",
            "--out",
            str(out),
            "--bound-check",
        ]
    )
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0] == REPORT_HEADER
    assert len(text.strip().splitlines()) == 3


def test_cli_suite_reports_violations_only_with_bound_check(monkeypatch, capsys):
    # each check planted to fail: the CSV is the same either way, and only
    # --bound-check prints one VIOLATION line per check call and exits 1
    suites = {  # name -> (flags, check calls in one run)
        "ompc-random": ("--seed 1 --count 1", 1),
        "ccfl-random": ("--seed 1 --count 1", 1),
        "ompc-adversary": ("", 12),
        "ccfl-mc": ("--seed 1 --reps 200", 1),
    }
    clean = {}
    for name, (flags, _) in suites.items():
        assert main(["suite", "--name", name, *flags.split()]) == 0
        clean[name] = strip_wall_time(capsys.readouterr().out)
    for check in (
        "check_ompc_run",
        "check_ccfl_run",
        "check_adversary_run",
        "check_mc_stats",
    ):
        monkeypatch.setattr(f"mixpc.runner.{check}", lambda *args: ["planted"])
    for name, (flags, calls) in suites.items():
        argv = ["suite", "--name", name, *flags.split()]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert (strip_wall_time(out), err) == (clean[name], "")
        assert main([*argv, "--bound-check"]) == 1
        out, err = capsys.readouterr()
        violations = "VIOLATION planted\n" * calls
        assert (strip_wall_time(out), err) == (clean[name], violations)


@pytest.mark.parametrize("status", ["infeasible", "unbounded"])
def test_cli_opt1_lp_that_cannot_be_solved_exits_3(
    status, tmp_path, monkeypatch, capsys
):
    # with a candidate for every client the assignment LP has an optimum, so
    # any other simplex verdict is an internal error, not a status or a
    # bound violation
    inst = gen_random_ccfl(3, 4, seed=6)
    path = tmp_path / "ccfl.txt"
    path.write_text(emit_instance(inst))
    zstar = brute_force_zstar(inst)
    monkeypatch.setattr("mixpc.oracle.simplex_solve", lambda lp: LpSolution(status))
    with pytest.raises(RuntimeError):
        ccfl_opt1(inst, zstar)
    message = f"internal error: fractional assignment LP came back {status}\n"
    argv = ["suite", "--name", "ccfl-random", "--count", "1", "--bound-check"]
    assert main(argv) == 3
    assert capsys.readouterr() == ("", message)
    assert main(["oracle", "--instance", str(path), "--z", repr(zstar)]) == 3
    assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize(
    "args, message",
    [
        ("--name ompc-random --count 0", "--count must be at least 1, got 0"),
        ("--name ccfl-random --count -2", "--count must be at least 1, got -2"),
        ("--name ccfl-mc --reps -3", "--reps must be at least 1, got -3"),
        ("--name ccfl-mc --reps 0", "--reps must be at least 1, got 0"),
        ("--name ompc-random --reps 5", "suite ompc-random does not read --reps"),
        ("--name ccfl-random --reps 5", "suite ccfl-random does not read --reps"),
        ("--name ompc-adversary --count 2", "suite ompc-adversary does not read --count"),
        ("--name ompc-adversary --reps 2", "suite ompc-adversary does not read --reps"),
        ("--name ccfl-mc --count 2", "suite ccfl-mc does not read --count"),
        ("--name ompc-adversary --seed 2", "suite ompc-adversary does not read --seed"),
    ],
)
def test_cli_suite_rejects_sizes_it_would_replace_or_ignore(
    args, message, tmp_path, capsys
):
    out = tmp_path / "report.csv"
    assert main(["suite", *args.split(), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, option",
    [
        ("solve-ompc", "--seed 5"),
        ("solve-ompc", "--out out.txt"),
        ("solve-ompc", "--epoch-constant 3"),
        ("adversary", "--seed 5"),
        ("adversary", "--epoch-constant 3"),
        ("oracle", "--seed 5"),
        ("oracle", "--out out.txt"),
        ("oracle", "--bound-check"),
        ("oracle", "--epoch-constant 3"),
        ("suite", "--epoch-constant 3"),
    ],
)
def test_cli_rejects_options_the_command_does_not_read(
    command, option, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "inst.txt").write_text(emit_instance(gen_random_ccfl(3, 4, seed=6)))
    required = {
        "solve-ompc": ["--instance", "inst.txt"],
        "adversary": ["--m", "2", "--d", "2"],
        "oracle": ["--instance", "inst.txt", "--brute"],
        "suite": ["--name", "ompc-random", "--count", "1"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *required, *option.split()])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option.split()[0]}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        "suite --name ompc-random --count 1",
        "adversary --m 2 --d 2",
        "solve-ccfl --instance ccfl.txt",
    ],
)
def test_cli_unwritable_out_is_an_input_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ccfl.txt").write_text(emit_instance(gen_random_ccfl(3, 4, seed=6)))
    out = tmp_path / "missing" / "out.txt"
    assert main([*argv.split(), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot write {out}: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


ZERO_COST_CCFL = """mixpc-instance v1
kind ccfl
m 2
n 2
facilities 2
0.0 1.0
1.0 1.0
clients 2
0:0.0:0.0 1:1.0:0.5
0:1.0:0.5 1:1.0:0.5
end
"""


# coefficients so far apart that the simplex loses the feasible point
OMPC_EXTREME_RANGE = """mixpc-instance v1
kind ompc
m 2
n 2
packing 2
0 0 1e300
1 1 1e-5
covering 2
0:1e300 1:1.0
0:1.0
end
"""


# the start point 1 / (d1^2 rho kappa1) overflows its denominator to 0
OMPC_START_UNDERFLOW = """mixpc-instance v1
kind ompc
m 2
n 2
packing 2
0 0 1e154
1 1 1.0
covering 1
0:6e153 1:1.0
end
"""


# the free first row starts no trial; the second, whose start point
# underflows, starts the first one
OMPC_START_UNDERFLOW_AFTER_A_FREE_ROW = """mixpc-instance v1
kind ompc
m 2
n 3
packing 2
0 0 1e154
1 1 1.0
covering 2
2:1.0
0:6e153 1:1.0
end
"""


@pytest.mark.parametrize(
    "text",
    [OMPC_START_UNDERFLOW, OMPC_EXTREME_RANGE, OMPC_START_UNDERFLOW_AFTER_A_FREE_ROW],
)
def test_cli_start_point_out_of_range_is_an_input_error(text, tmp_path, capsys):
    path = tmp_path / "inst.txt"
    path.write_text(text)
    assert main(["solve-ompc", "--instance", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: coefficient range too wide: packing max/min ")
    assert "start point at 0 " in err
    assert err.count("\n") == 1
    assert "Traceback" not in err
    # the oracle rejects the same range, with the same line, before its simplex
    assert main(["oracle", "--instance", str(path)]) == 2
    assert capsys.readouterr().err == err


# row 0 holds variable 1, whose packing column is empty: it is free and
# says nothing about OPT, so the start point comes from row 1
OMPC_FREE_FIRST_ROW = """mixpc-instance v1
kind ompc
m 1
n 2
packing 1
0 0 1.0
covering 2
0:1.0 1:1.0
0:1000000000.0
end
"""

# the free first row alone carries a coefficient whose start point would
# underflow, so neither command rejects the range
OMPC_WIDE_FREE_FIRST_ROW = """mixpc-instance v1
kind ompc
m 2
n 3
packing 2
0 0 1e154
1 1 1.0
covering 2
0:6e153 1:1.0 2:1.0
1:1.0
end
"""


def test_cli_free_first_row_opens_no_trial(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    path.write_text(OMPC_FREE_FIRST_ROW)
    assert main(["solve-ompc", "--instance", str(path), "--bound-check"]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    lines = dict(line.split(" ", 1) for line in out.out.splitlines())
    assert lines["lambda"] == lines["oracle"] == "1e-09"
    assert lines["trials"] == "1"
    path.write_text(OMPC_WIDE_FREE_FIRST_ROW)
    assert main(["solve-ompc", "--instance", str(path)]) == 0
    assert main(["oracle", "--instance", str(path)]) == 0
    assert capsys.readouterr().err == ""


def test_cli_bound_check_takes_the_log_of_a_spread_beyond_floats(tmp_path, capsys):
    # mu d^2 rho kappa passes the float range here; its log does not
    path = tmp_path / "inst.txt"
    path.write_text(OMPC_WIDE_FREE_FIRST_ROW)
    assert main(["solve-ompc", "--instance", str(path), "--bound-check"]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    lines = dict(line.split(" ", 1) for line in out.out.splitlines())
    assert lines["bound"] == "284669.74926647905"


def test_cli_internal_error_exits_3(tmp_path, capsys, monkeypatch):
    def lost(system, rows):
        raise RuntimeError("offline packing/covering LP came back infeasible")

    monkeypatch.setattr(cli, "ompc_opt", lost)
    path = tmp_path / "inst.txt"
    path.write_text(emit_instance(gen_random_ompc(4, 6, 5, 0.6, (1.0, 3.0), seed=3)))
    assert main(["oracle", "--instance", str(path)]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: offline packing/covering LP came back infeasible\n"
    assert "Traceback" not in err


# client 1's entry costs span 1e-300 to 1e300: max/min overflows
CCFL_SPREAD_OVERFLOW = """mixpc-instance v1
kind ccfl
m 2
n 2
facilities 2
0.0 1.0
0.0 1.0
clients 2
0:1e300:0.0 1:1e300:0.0
0:1e-300:0.0 1:1e300:0.0
end
"""

# client 0's entry cost at facility 0 sums to beyond floats
CCFL_ENTRY_COST_OVERFLOW = """mixpc-instance v1
kind ccfl
m 2
n 2
facilities 2
1e308 1.0
1.0 1.0
clients 2
0:1e308:0.0 1:1.0:0.0
0:1.0:0.0 1:1.0:0.0
end
"""

# p / u = 1e300 / 1e-300 is beyond floats
CCFL_DEMAND_OVERFLOW = """mixpc-instance v1
kind ccfl
m 2
n 2
facilities 2
1.0 1e-300
1.0 1.0
clients 2
0:1e300:0.0 1:1.0:0.0
0:1.0:0.0
end
"""

CCFL_FACILITY_ID_OVERFLOW = """mixpc-instance v1
kind ccfl
m 2
n 2
facilities 2
1.0 1.0
1.0 1.0
clients 2
0:1.0:0.0 9223372036854775808:1.0:0.0
0:1.0:0.0
end
"""

# each client's spread, 1e308, is finite, but sigma = 4e^2 ln(2 mu m n rho)
# is not
CCFL_SIGMA_OVERFLOW = """mixpc-instance v1
kind ccfl
m 2
n 2
facilities 2
0.0 1.0
0.0 1.0
clients 2
0:1e-300:0.0 1:1e8:0.0
0:1e-300:0.0 1:1e8:0.0
end
"""


@pytest.mark.parametrize(
    "text, message",
    [
        (ZERO_COST_CCFL, "line 9: client 0 has a zero-cost entry at facility 0"),
        (
            CCFL_SPREAD_OVERFLOW,
            "line 10: client 1 entry costs span 1e-300 to 1e+300; "
            "max/min must be finite",
        ),
        (
            CCFL_ENTRY_COST_OVERFLOW,
            "line 9: client 0 entry costs span 2 to inf; max/min must be finite",
        ),
        (
            CCFL_SIGMA_OVERFLOW,
            "line 11: entry-cost spread rho 1e+308 puts sigma beyond floats",
        ),
        (CCFL_DEMAND_OVERFLOW, "line 9: client parameters must be finite"),
        (CCFL_FACILITY_ID_OVERFLOW, "line 9: client references unknown facility"),
    ],
)
def test_cli_ccfl_entry_costs_init_cannot_scale_are_input_errors(
    text, message, tmp_path, capsys
):
    # each client's entry values are its least entry cost over each of its
    # own, and sigma sets every bound; no warning, no "bound inf".  A demand
    # over capacity beyond floats and an id beyond int64 are the client's
    # own errors
    path = tmp_path / "ccfl.txt"
    path.write_text(text)
    assert main(["solve-ccfl", "--instance", str(path), "--bound-check"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {message}\n"


def _oracle_instance(kind, tmp_path):
    inst = {
        "ompc": gen_random_ompc(4, 6, 5, 0.6, (1.0, 3.0), seed=3),
        "ccfl": gen_random_ccfl(3, 4, seed=6),
    }[kind]
    path = tmp_path / "inst.txt"
    path.write_text(emit_instance(inst))
    return path


@pytest.mark.parametrize(
    "kind, flags, message",
    [
        ("ompc", "--z 3", "--z and --brute apply only to an assignment instance"),
        ("ompc", "--brute", "--z and --brute apply only to an assignment instance"),
        ("ccfl", "--z nan", "--z must be finite, got nan"),
        ("ccfl", "--z inf", "--z must be finite, got inf"),
    ],
)
def test_cli_oracle_rejects_flags_it_would_ignore(kind, flags, message, tmp_path, capsys):
    path = _oracle_instance(kind, tmp_path)
    assert main(["oracle", "--instance", str(path), *flags.split()]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {message}\n"


@pytest.mark.parametrize("kind", ["ompc", "ccfl"])
def test_cli_oracle_z_and_brute_are_exclusive(kind, tmp_path, capsys):
    path = _oracle_instance(kind, tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--instance", str(path), "--z", "3", "--brute"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --brute: not allowed with argument --z" in captured.err


@pytest.mark.parametrize("constant", ["nan", "inf", "-1", "0"])
@pytest.mark.parametrize("command", ["solve-ccfl --bound-check"])
def test_cli_epoch_constant_must_be_finite_and_positive(
    command, constant, tmp_path, capsys
):
    path = tmp_path / "ccfl.txt"
    path.write_text(emit_instance(gen_random_ccfl(3, 4, seed=6)))
    argv = [*command.split(), "--instance", str(path), "--epoch-constant", constant]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    expected = repr(float(constant))
    assert captured.err == (
        f"input error: epoch constant must be finite and > 0, got {expected}\n"
    )
