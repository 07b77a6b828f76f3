"""Command line front end.

Exit codes: 0 on success, 1 when a requested bound check fails, 2 on bad
input (unreadable instance, malformed flags), 3 on an internal error (a
solver or oracle that could not finish).
"""

from __future__ import annotations

import argparse
import json
import sys

from .adversary import RESPONDERS, optimal_witness, tree_adversary
from .ccfl import CcflInstance
from .core import violation
from .instances import OmpcInstance, ParseError, emit_instance, parse_instance
from .oracle import brute_force_zstar, ccfl_opt1, ompc_opt
from .rounding import epoch_budget, z_epochs
from .runner import (
    ExperimentConfig,
    check_adversary_run,
    check_ompc_run,
    ompc_bound,
    report_to_csv,
    run_experiment,
)
from .solver import solve_online


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_instance(fh.read())
    except OSError as exc:
        raise SystemExit(f"cannot read {path}: {exc}") from None


def _write_decision_log(fh, decision_log) -> None:
    for rec in decision_log:
        fh.write(json.dumps(rec) + "\n")


def _exit_code(violations: list[str]) -> int:
    """Print each violation to stderr; 1 if there were any, else 0."""
    for v in violations:
        print(f"VIOLATION {v}", file=sys.stderr)
    return 1 if violations else 0


def _cmd_solve_ompc(args) -> int:
    inst = _load(args.instance)
    if not isinstance(inst, OmpcInstance):
        print("solve-ompc needs a packing/covering instance", file=sys.stderr)
        return 2
    sol = solve_online(inst.system, inst.rows)
    print(f"lambda {sol.lambda_value!r}")
    print(f"trials {len(sol.trials)}")
    print(f"phases {sum(rec.phases for rec in sol.trials)}")
    if args.bound_check:
        opt = ompc_opt(inst.system, list(inst.rows))
        print(f"oracle {opt.value!r}")
        print(f"bound {ompc_bound(inst)!r}")
        return _exit_code(check_ompc_run(inst, sol, opt.value, args.instance))
    return 0


def _cmd_adversary(args) -> int:
    result = tree_adversary(args.m, args.d, RESPONDERS[args.algorithm])
    witness = optimal_witness(result)
    inst = OmpcInstance(result.system, result.transcript)
    print(f"lambda {result.algorithm_value()!r}")
    print(f"lower_bound {result.lower_bound!r}")
    print(f"witness_violation {violation(result.system, witness)!r}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(emit_instance(inst))
        print(f"instance -> {args.out}")
    if args.bound_check:
        label = f"adversary-m{args.m}-d{args.d}"
        return _exit_code(check_adversary_run(result, witness, label))
    return 0


def _cmd_solve_ccfl(args) -> int:
    inst = _load(args.instance)
    if not isinstance(inst, CcflInstance):
        print("solve-ccfl needs a facility/client instance", file=sys.stderr)
        return 2
    result = z_epochs(inst, seed=args.seed, epoch_constant=args.epoch_constant)
    print(f"epochs {len(result.epochs)}")
    print(f"final_z {result.final_z!r}")
    print(f"per_epoch_total {result.per_epoch_total!r}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _write_decision_log(fh, result.decision_log)
        print(f"decision log -> {args.out}")
    if args.bound_check:
        try:
            zstar = brute_force_zstar(inst)
        except ValueError:
            print("bound-check skipped: instance beyond brute-force guard")
            return 0
        cap = 4.0 * epoch_budget(inst, zstar, args.epoch_constant)
        print(f"zstar {zstar!r}")
        print(f"bound {cap!r}")
        if result.per_epoch_total > cap:
            print("VIOLATION integral cost above the epoch budget", file=sys.stderr)
            return 1
    return 0


def _cmd_round(args) -> int:
    inst = _load(args.instance)
    if not isinstance(inst, CcflInstance):
        print("round needs a facility/client instance", file=sys.stderr)
        return 2
    result = z_epochs(inst, seed=args.seed, epoch_constant=args.epoch_constant)
    _write_decision_log(sys.stdout, result.decision_log)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _write_decision_log(fh, result.decision_log)
    return 0


def _cmd_oracle(args) -> int:
    inst = _load(args.instance)
    if isinstance(inst, OmpcInstance):
        opt = ompc_opt(inst.system, list(inst.rows))
        print(f"opt {opt.value!r}")
        print(f"dual {opt.dual_value!r}")
        return 0
    if args.brute:
        print(f"zstar {brute_force_zstar(inst)!r}")
        return 0
    if args.z is None:
        print("oracle on an assignment instance needs --z or --brute", file=sys.stderr)
        return 2
    sol = ccfl_opt1(inst, args.z)
    if sol.status != "optimal":
        print(f"status {sol.status}")
        return 0
    print(f"opt1 {sol.objective!r}")
    return 0


def _cmd_suite(args) -> int:
    config = ExperimentConfig(
        suite=args.name,
        seed=args.seed,
        count=args.count,
        reps=args.reps,
        out=args.out,
        bound_check=args.bound_check,
    )
    report = run_experiment(config)
    if not args.out:
        sys.stdout.write(report_to_csv(report))
    return _exit_code(report.violations)


# the options a subcommand may take; each subcommand names the ones it reads
_OPTIONS = {
    "--instance": dict(required=True, help="instance file"),
    "--seed": dict(type=int, default=0),
    "--out": dict(default=None, help="output file"),
    "--bound-check": dict(action="store_true"),
    "--epoch-constant": dict(
        type=float,
        default=512.0,
        help="budget constant K for the cost-guess doubling",
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixpc",
        description="online packing/covering and fixed-charge assignment toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, options, help):
        p = sub.add_parser(name, help=help)
        for option in options.split():
            p.add_argument(option, **_OPTIONS[option])
        p.set_defaults(fn=fn)
        return p

    command(
        "solve-ompc",
        _cmd_solve_ompc,
        "--instance --bound-check",
        "stream covering rows through the solver",
    )
    p = command(
        "adversary",
        _cmd_adversary,
        "--out --bound-check",
        "generate and play a tree-adversary run",
    )
    p.add_argument("--m", type=int, required=True, help="leaves (power of two)")
    p.add_argument("--d", type=int, required=True, help="block size (power of two)")
    p.add_argument("--algorithm", choices=tuple(RESPONDERS), default="mpc")
    command(
        "solve-ccfl",
        _cmd_solve_ccfl,
        "--instance --seed --out --bound-check --epoch-constant",
        "full integral pipeline with Z doubling",
    )
    command(
        "round",
        _cmd_round,
        "--instance --seed --out --epoch-constant",
        "emit the per-client rounding decision log",
    )
    p = command("oracle", _cmd_oracle, "--instance", "offline optimum of an instance")
    p.add_argument("--z", type=float, default=None, help="cost guess for opt1")
    p.add_argument("--brute", action="store_true", help="brute-force total cost")
    p = command(
        "suite", _cmd_suite, "--seed --out --bound-check", "run a named experiment suite"
    )
    p.add_argument(
        "--name",
        required=True,
        choices=("ompc-adversary", "ompc-random", "ccfl-random", "ccfl-mc"),
    )
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--reps", type=int, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, SystemExit) as exc:
        if isinstance(exc, SystemExit):
            if isinstance(exc.code, int):
                return exc.code
            print(exc, file=sys.stderr)
            return 2
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
