"""Command-line front door: solve, generate, and check subcommands.

Exit codes for ``solve``: 0 solved, 10 primal infeasible, 11 dual
infeasible, 12 iteration limit, 2 input error, 3 numerical breakdown
(PP's inner solve failed to converge; no outcome is written).
``check`` exits 0 when the candidate certificate passes, 1 when it
fails, 2 on input errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import fileio
from . import outcome as oc
from .dr import DrConfig, DrSolver
from .instances import SET_FAMILIES, generate
from .fileio import ProblemFormatError
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


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="splitqp",
        description="Convex QP solver with infeasibility certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a problem file")
    solve.add_argument("path", help="problem file (JSON)")
    solve.add_argument("--solver", choices=("dr", "pp"), default="dr")
    solve.add_argument("--alpha", type=float, default=1.6,
                       help="DR relaxation parameter, in (0, 2)")
    solve.add_argument("--gamma", type=float, default=1.0,
                       help="PP regularization parameter, > 0")
    solve.add_argument("--eps-abs", type=float, default=1e-6)
    solve.add_argument("--eps-rel", type=float, default=1e-6)
    solve.add_argument("--eps-pinf", type=float, default=1e-6)
    solve.add_argument("--eps-dinf", type=float, default=1e-6)
    solve.add_argument("--max-iter", type=int, default=20000)
    solve.add_argument("--check-interval", type=int, default=25)
    solve.add_argument("--trace", metavar="PATH",
                       help="write a per-iteration trace CSV")
    solve.add_argument("--warm", metavar="PATH",
                       help="warm-start file: {\"x\": [...], \"v\"|\"y\": [...]}")
    solve.add_argument("--out", metavar="PATH",
                       help="write the outcome JSON here instead of stdout")

    gen = sub.add_parser("generate", help="generate a problem with ground truth")
    gen.add_argument("family",
                     choices=("feasible", "primal_infeasible", "dual_infeasible"))
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
    problem, _ = fileio.load_problem(args.path)
    loop = dict(eps_abs=args.eps_abs, eps_rel=args.eps_rel,
                eps_pinf=args.eps_pinf, eps_dinf=args.eps_dinf,
                max_iter=args.max_iter, check_interval=args.check_interval)
    if args.solver == "dr":
        config = DrConfig(alpha=args.alpha, **loop)
        solver_cls, dual_key = DrSolver, "v"
    else:
        config = PpConfig(gamma=args.gamma, **loop)
        solver_cls, dual_key = PpSolver, "y"
    solver = solver_cls(problem, config)
    warm = (fileio.load_warm(args.warm, "x", dual_key, problem.n, problem.m)
            if args.warm else None)
    result = solver.run(warm=warm, collect_trace=args.trace is not None)
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
    if kind == "primal_infeasibility":
        ok, metrics = check_primal_certificate(problem, vector, args.eps)
        print(f"kind: {kind}")
        print(f"norm_At_y: {metrics['norm_At_y']:.6e}")
        support = metrics["support"]
        print(f"support: {'inf' if support == float('inf') else f'{support:.6e}'}")
    else:
        ok, metrics = check_dual_certificate(problem, vector, args.eps)
        print(f"kind: {kind}")
        print(f"norm_Q_x: {metrics['norm_Q_x']:.6e}")
        print(f"dist_rec: {metrics['dist_rec']:.6e}")
        print(f"q_dot_x: {metrics['q_dot_x']:.6e}")
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
    except InnerSolveError as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return EXIT_BREAKDOWN
    except (ProblemFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
