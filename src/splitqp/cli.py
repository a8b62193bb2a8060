"""Command-line front door: solve, generate, and check subcommands.

Exit codes for ``solve``: 0 solved, 10 primal infeasible, 11 dual
infeasible, 12 iteration limit, 2 input error, 3 numerical breakdown
(building or running the solver failed on valid input, e.g. PP's inner
solve did not converge or DR's subproblem matrix overflowed; no outcome
is written). Flags left unset take the solver config's defaults;
``--alpha`` (DR) and ``--gamma`` (PP) given to the other solver are input
errors.
``check`` exits 0 when the candidate certificate passes, 1 when it
fails, 2 on input errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import fileio
from . import outcome as oc
from .dr import DrConfig, DrSolver
from .instances import KINDS, SET_FAMILIES, generate
from .pp import InnerSolveError, PpConfig, PpSolver
from .problem import check_dual_certificate, check_primal_certificate

EXIT_CODES = {
    oc.SOLVED: 0,
    oc.PRIMAL_INFEASIBLE: 10,
    oc.DUAL_INFEASIBLE: 11,
    oc.MAX_ITERATIONS: 12,
}
# not in EXIT_CODES: a breakdown writes no outcome
EXIT_BREAKDOWN = 3
# --solver name -> (config class, solver class, warm start's dual member)
SOLVERS = {"dr": (DrConfig, DrSolver, "v"), "pp": (PpConfig, PpSolver, "y")}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="splitqp",
        description="Convex QP solver with infeasibility certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a problem file")
    solve.add_argument("path", help="problem file (JSON)")
    solve.add_argument("--solver", choices=tuple(SOLVERS), default="dr")
    solve.add_argument("--alpha", type=float,
                       help="DR relaxation parameter, in (0, 2)")
    solve.add_argument("--gamma", type=float,
                       help="PP regularization parameter, > 0")
    for flag in ("--eps-abs", "--eps-rel", "--eps-pinf", "--eps-dinf"):
        solve.add_argument(flag, type=float)
    solve.add_argument("--max-iter", type=int)
    solve.add_argument("--check-interval", type=int)
    solve.add_argument("--trace", metavar="PATH",
                       help="write a per-iteration trace CSV")
    solve.add_argument("--warm", metavar="PATH",
                       help="warm-start file: {\"x\": [...], \"v\"|\"y\": [...]}")
    solve.add_argument("--out", metavar="PATH",
                       help="write the outcome JSON here instead of stdout")

    gen = sub.add_parser("generate", help="generate a problem with ground truth")
    gen.add_argument("family", choices=tuple(KINDS))
    gen.add_argument("out", help="output problem file")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-n", type=int, required=True, help="variable dimension")
    gen.add_argument("-m", type=int, required=True, help="constraint dimension")
    gen.add_argument("--set-family", choices=SET_FAMILIES, default="box")

    check = sub.add_parser("check", help="check a certificate candidate")
    check.add_argument("path", help="problem file")
    check.add_argument("candidate", help="candidate file: {kind, vector}")
    check.add_argument("--eps", type=float, default=1e-6)
    return parser


def _cmd_solve(args):
    for flag, owner in (("alpha", "dr"), ("gamma", "pp")):
        if getattr(args, flag) is not None and args.solver != owner:
            raise ValueError(f"--{flag} applies only to --solver {owner}")
    problem, _ = fileio.load_problem(args.path)
    config_cls, solver_cls, dual_key = SOLVERS[args.solver]
    config = config_cls(**{
        f.name: getattr(args, f.name) for f in dataclasses.fields(config_cls)
        if getattr(args, f.name, None) is not None})
    warm = (fileio.load_warm(args.warm, dual_key, problem.n, problem.m)
            if args.warm else None)
    try:
        # a breakdown reports itself in one line, without numpy's warnings
        with np.errstate(all="ignore"):
            solver = solver_cls(problem, config)
            result = solver.run(warm=warm,
                                collect_trace=args.trace is not None)
    except (InnerSolveError, ValueError) as exc:
        # the input passed validation, so this is a numerical failure
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return EXIT_BREAKDOWN
    if args.trace:
        fileio.write_trace_csv(args.trace, result.residual_history)
    config_echo = {"solver": args.solver, **dataclasses.asdict(config)}
    text = fileio.dumps_outcome(result, config_echo)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"status: {result.status} after {result.iterations} iterations",
          file=sys.stderr)
    return EXIT_CODES[result.status]


def _cmd_generate(args):
    bundle = generate(args.family, args.seed, args.n, args.m, args.set_family)
    fileio.save_bundle(args.out, bundle)
    print(f"wrote {args.family}/{args.set_family} instance "
          f"(seed {args.seed}, n={args.n}, m={args.m}) to {args.out}",
          file=sys.stderr)
    return 0


def _cmd_check(args):
    problem, _ = fileio.load_problem(args.path)
    kind, vector = fileio.load_candidate(args.candidate, problem.n, problem.m)
    check = (check_primal_certificate if kind == "primal_infeasibility"
             else check_dual_certificate)
    ok, metrics = check(problem, vector, args.eps)
    print(f"kind: {kind}")
    for name, value in metrics.items():
        print(f"{name}: {value:.6e}")
    print(f"result: {'pass' if ok else 'fail'} (eps = {args.eps:g})")
    return 0 if ok else 1


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "generate":
            return _cmd_generate(args)
        return _cmd_check(args)
    except (ValueError, OSError) as exc:  # ProblemFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
