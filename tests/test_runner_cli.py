import dataclasses
import json

import pytest

from mixpc import (
    emit_instance,
    gen_random_ccfl,
    gen_random_ompc,
    parse_instance,
    solve_online,
)
from mixpc import cli
from mixpc.cli import main
from mixpc.runner import (
    ExperimentConfig,
    check_ompc_run,
    report_to_csv,
    run_experiment,
    suite_ompc_adversary,
    suite_ompc_random,
)

REPORT_HEADER = (
    "instance,seed,algorithm,m,n,d,rho,kappa,sigma,online,oracle,ratio,bound,"
    "phases,trials,epochs,witness,wall_time_s"
)


def strip_wall_time(csv_text: str) -> str:
    lines = csv_text.strip().splitlines()
    return "\n".join(",".join(line.split(",")[:-1]) for line in lines)


def test_suite_ompc_random_small_passes():
    rep = suite_ompc_random(count=4, seed=2)
    assert rep.passed, rep.violations
    assert len(rep.records) == 4
    for rec in rep.records:
        assert rec.ratio >= 1.0 - 1e-9
        assert rec.online <= rec.bound * rec.oracle * (1 + 1e-9)


def test_suite_ompc_adversary_uniform_small():
    rep = suite_ompc_adversary(ms=(2,), ds=(2,), algorithm="uniform")
    assert rep.passed, rep.violations
    rec = rep.records[0]
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
    for rep in (
        suite_ompc_random(count=3, seed=7),
        suite_ompc_adversary(ms=(2, 4), ds=(2,), algorithm="uniform"),
    ):
        for rec in rep.records:
            if rec.ratio is not None:
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
    assert "phases 0\noracle 0.0\n" in out.out
    assert out.err == ""
    inst = parse_instance(OMPC_OPT_ZERO)
    sol = solve_online(inst.system, inst.rows)
    assert check_ompc_run(inst, sol, 0.0, "opt0") == []
    planted = dataclasses.replace(
        sol, trials=(dataclasses.replace(sol.trials[0], phases=1),)
    )
    assert check_ompc_run(inst, planted, 0.0, "opt0") == [
        "opt0: trial 0 ran 1 phases at OPT 0"
    ]


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


def test_cli_solve_ccfl_and_round(tmp_path, capsys):
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
    code = main(["round", "--instance", str(path), "--seed", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count('"client"') == 4


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


def test_run_experiment_skips_checks_when_bound_check_off(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("bound check ran with bound_check=False")

    suites = {"ompc-random": 1, "ccfl-random": 1, "ompc-adversary": 6, "ccfl-mc": 1}
    sizes = {
        "ompc-random": {"count": 1},
        "ccfl-random": {"count": 1},
        "ompc-adversary": {},
        "ccfl-mc": {"reps": 200},
    }
    checked = {
        suite: run_experiment(ExperimentConfig(suite=suite, seed=1, **sizes[suite]))
        for suite in suites
    }
    monkeypatch.setattr("mixpc.runner.check_ompc_run", refuse)
    monkeypatch.setattr("mixpc.runner.check_ccfl_run", refuse)
    monkeypatch.setattr("mixpc.runner.check_adversary_run", refuse)
    monkeypatch.setattr("mixpc.runner.check_mc_stats", refuse)
    for suite, records in suites.items():
        rep = run_experiment(
            ExperimentConfig(
                suite=suite, seed=1, bound_check=False, **sizes[suite]
            )
        )
        assert len(rep.records) == records
        assert rep.passed
        assert strip_wall_time(report_to_csv(rep)) == strip_wall_time(
            report_to_csv(checked[suite])
        )


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
        ("round", "--bound-check"),
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
        "round": ["--instance", "inst.txt"],
        "oracle": ["--instance", "inst.txt", "--brute"],
        "suite": ["--name", "ompc-random", "--count", "1"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *required, *option.split()])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option.split()[0]}" in capsys.readouterr().err


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


@pytest.mark.parametrize("text", [OMPC_START_UNDERFLOW, OMPC_EXTREME_RANGE])
def test_cli_start_point_out_of_range_is_an_input_error(text, tmp_path, capsys):
    path = tmp_path / "inst.txt"
    path.write_text(text)
    assert main(["solve-ompc", "--instance", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: coefficient range too wide: packing max/min ")
    assert "start point at 0 " in err
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_cli_internal_error_exits_3(tmp_path, capsys):
    path = tmp_path / "extreme.txt"
    path.write_text(OMPC_EXTREME_RANGE)
    assert main(["oracle", "--instance", str(path)]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: offline packing/covering LP came back infeasible\n"
    assert "Traceback" not in err


def test_cli_zero_cost_entry_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "zero.txt"
    path.write_text(ZERO_COST_CCFL)
    assert main(["solve-ccfl", "--instance", str(path)]) == 2
    err = capsys.readouterr().err
    assert "client 0 has a zero-cost entry at facility 0" in err
