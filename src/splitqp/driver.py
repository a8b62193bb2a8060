"""The iteration driver both solvers share.

A solver supplies ``problem``, ``config``, ``initial_state``, ``step``,
``check_termination`` and ``stopping_residuals(state, products=None)``,
the residual norms its optimality test, trace and ``max_iterations``
outcome report (``products`` passes ``(A x, Q x, A.T y)`` when the
caller has them). Config validation, the state, warm starts, the
termination and certificate tests, the trace record and the run loop
live here once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import outcome as oc
from .linalg import inf_norm
from .problem import Certificate


def validate_loop_config(cfg):
    """Reject non-positive tolerances and loop bounds below one."""
    for name in ("eps_abs", "eps_rel", "eps_pinf", "eps_dinf"):
        if getattr(cfg, name) <= 0.0:
            raise ValueError(f"{name} must be positive")
    if cfg.max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if cfg.check_interval < 1:
        raise ValueError("check_interval must be at least 1")


@dataclass
class SolverState:
    """Iterates at counter ``n``, the split ``z = Pi_C(v)``, and the
    certificate candidates.

    ``dx = x_n - x_{n-1}`` and ``dy = y_n - y_{n-1}`` (zero at ``n = 0``)
    are the only differences kept: their limits are the dual and primal
    certificates. ``inner_iters`` counts the inner iterations of the
    step that produced this state (PP only; None for DR).
    """

    n: int
    x: np.ndarray
    y: np.ndarray
    v: np.ndarray
    z: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    inner_iters: Optional[int] = None


def warm_start(problem, warm):
    """Zeros, or shape-checked copies of a warm-start pair ``(x, w)``."""
    if warm is None:
        return np.zeros(problem.n), np.zeros(problem.m)
    x, w = (np.asarray(a, dtype=float).copy() for a in warm)
    if x.shape != (problem.n,) or w.shape != (problem.m,):
        raise ValueError("warm start dimensions do not match problem")
    return x, w


def _outcome(state, status, residuals, **kwargs):
    return oc.SolveOutcome(
        status=status, iterations=state.n,
        x=state.x.copy(), z=state.z.copy(), y=state.y.copy(),
        residuals=residuals, **kwargs)


def _certificate(problem, kind, vector, check, eps):
    """Certificate from ``vector`` if it is nonzero and passes ``check``."""
    if inf_norm(vector) > 0.0:
        ok, metrics = check(problem, vector, eps)
        if ok:
            return Certificate(kind=kind, vector=vector.copy(),
                               metrics={**metrics, "eps": eps})
    return None


def _polished_dual_certificate(problem, dx, check, eps):
    """Certificate from ``dx`` projected onto null(Q), if that passes ``check``.

    The basis holds the eigenvectors of Q with eigenvalues at most
    ``1e-9 * max(lambda_max, 0)``. A passing certificate records
    ``polished = 1.0`` and ``polish_angle``, the angle in radians between
    ``dx`` and its projection.
    """
    lam, V = np.linalg.eigh(problem.Q)
    N = V[:, lam <= 1e-9 * max(lam[-1], 0.0)]
    xbar = N @ (N.T @ dx)
    cert = _certificate(problem, "dual_infeasibility", xbar, check, eps)
    if cert is not None:
        cos = float(dx @ xbar) / (np.linalg.norm(dx) * np.linalg.norm(xbar))
        cert.metrics.update(polished=1.0,
                            polish_angle=float(np.arccos(min(cos, 1.0))))
    return cert


def terminate(solver, state, check_primal, check_dual):
    """Optimality first, then the certificate tests on ``dy`` and ``dx``.

    When every test fails at ``max_iter``, ``dx`` projected onto null(Q)
    gets one more dual certificate test; that check comes once per solve,
    so ``eigh(Q)`` runs at most once. Returns a SolveOutcome, or None
    when no test passes.
    """
    P, cfg = solver.problem, solver.config
    Ax = P.A @ state.x
    Qx = P.Q @ state.x
    Aty = P.A.T @ state.y
    prim, dual = solver.stopping_residuals(state, (Ax, Qx, Aty))
    eps_prim = cfg.eps_abs + cfg.eps_rel * max(inf_norm(Ax), inf_norm(state.z))
    eps_dual = cfg.eps_abs + cfg.eps_rel * max(
        inf_norm(Qx), inf_norm(P.q), inf_norm(Aty))
    if prim <= eps_prim and dual <= eps_dual:
        return _outcome(state, oc.SOLVED, (prim, dual))
    primal_cert = _certificate(P, "primal_infeasibility", state.dy,
                               check_primal, cfg.eps_pinf)
    dual_cert = _certificate(P, "dual_infeasibility", state.dx,
                             check_dual, cfg.eps_dinf)
    if primal_cert is None and dual_cert is None and state.n >= cfg.max_iter:
        dual_cert = _polished_dual_certificate(P, state.dx, check_dual,
                                               cfg.eps_dinf)
    if primal_cert is not None:
        # simultaneous primal and dual strong infeasibility
        extra = ({} if dual_cert is None
                 else {"secondary_certificate": dual_cert})
        return _outcome(state, oc.PRIMAL_INFEASIBLE, (prim, dual),
                        certificate=primal_cert, extra=extra)
    if dual_cert is not None:
        return _outcome(state, oc.DUAL_INFEASIBLE, (prim, dual),
                        certificate=dual_cert)
    return None


def trace_record(solver, state):
    """One trace row: the stopping residuals and the certificate quantities."""
    P, cfg = solver.problem, solver.config
    prim, dual = solver.stopping_residuals(state)
    return oc.TraceRecord(
        n=state.n, primal_res=prim, dual_res=dual,
        norm_dx=inf_norm(state.dx), norm_dy=inf_norm(state.dy),
        norm_At_dy=inf_norm(P.A.T @ state.dy),
        support_dy=float(P.C.support(state.dy, cone_tol=cfg.eps_pinf)),
        norm_Q_dx=inf_norm(P.Q @ state.dx),
        q_dot_dx=float(P.q @ state.dx),
        dist_rec=P.C.distance_to_recession(P.A @ state.dx),
        inner_iters=state.inner_iters)


def iterate(solver, warm=None):
    """Step from ``solver.initial_state(warm)``, yielding ``(state, outcome)``.

    After step ``n`` the termination tests run once when ``n >= 2`` and
    ``n`` is a multiple of ``check_interval`` or equals ``max_iter``.
    ``outcome`` is None on every pair but the last, which carries the
    first test that passed, or ``max_iterations``.
    """
    cfg = solver.config
    state = solver.initial_state(warm)
    while True:
        state = solver.step(state)
        outcome = None
        if state.n >= 2 and (state.n >= cfg.max_iter
                             or state.n % cfg.check_interval == 0):
            outcome = solver.check_termination(state)
        if outcome is None and state.n >= cfg.max_iter:
            outcome = _outcome(state, oc.MAX_ITERATIONS,
                               solver.stopping_residuals(state))
        yield state, outcome
        if outcome is not None:
            return


def run(solver, warm=None, collect_trace=False):
    """Iterate to an outcome, with a trace record per step if asked."""
    history = [] if collect_trace else None
    for state, outcome in iterate(solver, warm):
        if collect_trace:
            history.append(solver.trace_record(state))
    outcome.residual_history = history
    return outcome
