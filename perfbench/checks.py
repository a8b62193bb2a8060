"""Correctness classifier and summary statistics for the benchmark.

Kept free of any splitqp import at module level so the orchestrator can
use the statistics without paying for numpy/scipy.
"""

from __future__ import annotations

import math

OK = "ok"
MAX_ITERATIONS = "max_iterations"
WRONG_STATUS = "wrong_status"
BAD_CERTIFICATE = "bad_certificate"
KKT_RESIDUAL = "kkt_residual"
NONDETERMINISTIC = "nondeterministic"
EXIT_CODE = "exit_code"
TRACE_ROWS = "trace_rows"

# Verdicts that mean the program returned a wrong answer, as opposed to no
# answer (iteration limit, exception). Any of them makes a run incorrect.
WRONG_ANSWERS = frozenset(
    {WRONG_STATUS, BAD_CERTIFICATE, KKT_RESIDUAL, NONDETERMINISTIC,
     EXIT_CODE, TRACE_ROWS})

EXPECTED_STATUS = {
    "feasible": "solved",
    "primal_infeasible": "primal_infeasible",
    "dual_infeasible": "dual_infeasible",
}

# Optimality tolerances the solvers use by default; a "solved" claim must
# meet them at the returned triple.
EPS_ABS = 1e-6
EPS_REL = 1e-6
# PP's stopping test uses difference residuals, which match the direct ones
# only up to its inner tolerance (at most 1e-10 absolute).
KKT_ABS_SLACK = 1e-9


def _inf(v):
    return float(abs(v).max()) if len(v) else 0.0


def kkt_within_tolerance(problem, x, z, y):
    """True iff ``(x, z, y)`` meets the solvers' optimality test directly."""
    Ax = problem.A @ x
    Qx = problem.Q @ x
    Aty = problem.A.T @ y
    prim = _inf(Ax - z)
    dual = _inf(Qx + problem.q + Aty)
    tol_prim = EPS_ABS + EPS_REL * max(_inf(Ax), _inf(z)) + KKT_ABS_SLACK
    tol_dual = (EPS_ABS + EPS_REL * max(_inf(Qx), _inf(problem.q), _inf(Aty))
                + KKT_ABS_SLACK)
    return prim <= tol_prim and dual <= tol_dual


def classify(problem, truth_kind, status, x=None, z=None, y=None,
             certificate=None, cert_eps=None, error=None):
    """Verdict for one solve against the instance's generated truth.

    ``error`` names an exception the solve raised. ``certificate`` is the
    returned certificate vector, checked independently at ``cert_eps``.
    Returns ``OK`` or a failure reason.
    """
    from splitqp.problem import (check_dual_certificate,
                                 check_primal_certificate)

    if error is not None:
        return f"error:{error}"
    if status != EXPECTED_STATUS[truth_kind]:
        return MAX_ITERATIONS if status == MAX_ITERATIONS else WRONG_STATUS
    if status == "solved":
        return OK if kkt_within_tolerance(problem, x, z, y) else KKT_RESIDUAL
    checker = (check_primal_certificate if status == "primal_infeasible"
               else check_dual_certificate)
    try:
        ok, _ = checker(problem, certificate, cert_eps)
    except ValueError:  # zero or misshapen vector
        ok = False
    return OK if ok else BAD_CERTIFICATE


def percentile(values, p):
    """Linear-interpolation percentile ``p`` in [0, 100] of ``values``."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    pos = (len(data) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def tail_supported(count, p):
    """True iff ``count`` samples leave at least ten beyond percentile ``p``."""
    return count * (100.0 - p) / 100.0 >= 10.0


def geomean(values):
    values = list(values)
    if not values or min(values) <= 0.0:
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def trimmed_geomean(values):
    """Geometric mean without the smallest and largest value (of 4 or more)."""
    values = sorted(values)
    return geomean(values[1:-1] if len(values) >= 4 else values)
