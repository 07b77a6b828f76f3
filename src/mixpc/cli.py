"""Command line front end.

Exit codes: 0 on success, 1 when a requested bound check fails, 2 on bad
input (unreadable instance, malformed flags), 3 on an internal error (a
solver or oracle that could not finish).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .adversary import RESPONDERS, optimal_witness, tree_adversary
from .ccfl import CcflInstance
from .core import violation
from .instances import OmpcInstance, emit_instance, parse_instance
from .oracle import brute_force_zstar, ccfl_opt1, ompc_opt
from .rounding import DEFAULT_EPOCH_CONSTANT, z_epochs
from .runner import (
    SUITES,
    ExperimentConfig,
    check_adversary_run,
    check_ompc_run,
    check_z_epochs_run,
    ompc_bound,
    report_to_csv,
    run_experiment,
    z_epochs_bound,
)
from .solver import free_entry, solve_online, start_point, start_scale


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_instance(fh.read())
    except OSError as exc:
        raise SystemExit(f"cannot read {path}: {exc}") from None


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SystemExit(f"cannot write {path}: {exc}") from None


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
        _write(args.out, emit_instance(inst))
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
        log = "".join(json.dumps(rec) + "\n" for rec in result.decision_log)
        _write(args.out, log)
        print(f"decision log -> {args.out}")
    if args.bound_check:
        try:
            zstar = brute_force_zstar(inst)
        except ValueError:
            print("bound-check skipped: instance beyond brute-force guard")
            return 0
        print(f"zstar {zstar!r}")
        print(f"bound {z_epochs_bound(inst, zstar, result.epoch_constant)!r}")
        return _exit_code(check_z_epochs_run(inst, result, zstar, args.instance))
    return 0


def _cmd_oracle(args) -> int:
    inst = _load(args.instance)
    if isinstance(inst, OmpcInstance):
        if args.z is not None or args.brute:
            raise ValueError("--z and --brute apply only to an assignment instance")
        # the coefficient range solve-ompc rejects is an input error here too,
        # read from the row its first trial starts from, the first not free
        nonzeros = inst.system.column_nonzeros()
        first = next((r for r in inst.rows if free_entry(nonzeros, r) is None), None)
        if first is not None:
            start_point(inst.system, first, start_scale(inst.system, first))
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
    if not math.isfinite(args.z):
        raise ValueError(f"--z must be finite, got {args.z!r}")
    sol = ccfl_opt1(inst, args.z)
    if sol.status != "optimal":
        print(f"status {sol.status}")
        return 0
    print(f"opt1 {sol.objective!r}")
    return 0


def _cmd_suite(args) -> int:
    config = ExperimentConfig(args.name, args.seed, args.count, args.reps)
    report = run_experiment(config)
    if args.out:
        _write(args.out, report_to_csv(report))
    else:
        sys.stdout.write(report_to_csv(report))
    if args.bound_check:
        return _exit_code(report.violations)
    return 0


# the options a subcommand may take; each subcommand names the ones it reads
_OPTIONS = {
    "--instance": dict(required=True, help="instance file"),
    "--seed": dict(type=int, default=0),
    "--out": dict(default=None, help="output file"),
    "--bound-check": dict(action="store_true"),
    "--epoch-constant": dict(
        type=float,
        default=DEFAULT_EPOCH_CONSTANT,
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
    p = command("oracle", _cmd_oracle, "--instance", "offline optimum of an instance")
    guess = p.add_mutually_exclusive_group()
    guess.add_argument("--z", type=float, default=None, help="cost guess for opt1")
    guess.add_argument("--brute", action="store_true", help="brute-force total cost")
    p = command(
        "suite", _cmd_suite, "--out --bound-check", "run a named experiment suite"
    )
    p.add_argument("--name", required=True, choices=tuple(SUITES))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--reps", type=int, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit as exc:  # _load and _write give it a message
        print(exc, file=sys.stderr)
        return 2
    except ValueError as exc:  # ParseError is a ValueError
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
