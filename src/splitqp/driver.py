"""The iteration driver both solvers share.

A solver supplies ``problem``, ``config``, ``initial_state``, ``step``,
``check_termination`` and ``stopping_residuals(state, products=None)``,
the one formula for the residual norms its optimality test, trace and
``max_iterations`` outcome report (``products`` passes
``(A x, Q x, A.T y)`` when the caller has them; one state gives floats).
Config validation (``LoopConfig``), the state, warm starts, the
termination and certificate tests, the trace record and the run loop
live here once.

A candidate reaches its public checker, and so the support or recession
distance, only after passing the checker's cheap test
(``problem.primal_screen``/``dual_screen``). A DR state forms ``y``,
``dx`` and ``dy`` on first read, which an untraced run does at checks.

A traced run records its rows a block of states at a time:
``trace_record`` stacks the block into one state of ``(k, .)`` rows and
evaluates each quantity once on the last axis (the residual formula, the
norms, the set's support and recession kernels). Products are one
batched ``matmul`` per block, whose rows are bitwise a vector's product;
dot products stay one ``dot`` per state. So every row is bitwise the row
of its state alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import outcome as oc
from .linalg import as_vector, inf_norm, matvecs, require_positive
from .problem import Certificate, dual_screen, primal_screen

TRACE_BLOCK = 25  # states per trace_record call in a traced run


@dataclass(frozen=True, kw_only=True)
class LoopConfig:
    """Tolerances (finite, > 0) and loop bounds (>= 1) of both solvers."""

    eps_abs: float = 1e-6
    eps_rel: float = 1e-6
    eps_pinf: float = 1e-6
    eps_dinf: float = 1e-6
    max_iter: int = 20000
    check_interval: int = 25

    def __post_init__(self):
        for name in ("eps_abs", "eps_rel", "eps_pinf", "eps_dinf"):
            require_positive(getattr(self, name), name)
        for name in ("max_iter", "check_interval"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")


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


def warm_start(problem, warm, dual_name):
    """Zeros, or checked copies of a warm-start pair ``(x, w)``.

    ``dual_name`` names ``w`` in the error for non-finite entries.
    """
    if warm is None:
        return np.zeros(problem.n), np.zeros(problem.m)
    x, w = (np.asarray(a, dtype=float) for a in warm)
    if x.shape != (problem.n,) or w.shape != (problem.m,):
        raise ValueError("warm start dimensions do not match problem")
    return (as_vector(x, name="warm start x").copy(),
            as_vector(w, name=f"warm start {dual_name}").copy())


def _outcome(state, status, residuals, **kwargs):
    return oc.SolveOutcome(
        status=status, iterations=state.n,
        x=state.x.copy(), z=state.z.copy(), y=state.y.copy(),
        residuals=residuals, **kwargs)


def _certificate(problem, kind, vector, screen, check, eps):
    """Certificate from ``vector`` if it is nonzero and passes ``check``,
    which runs only if ``screen`` passes or ``vector`` is not finite."""
    norm = inf_norm(vector)
    if norm > 0.0 and (norm == np.inf or screen(problem, vector, eps, norm)[0]):
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
    cert = _certificate(problem, "dual_infeasibility", xbar, dual_screen,
                        check, eps)
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
    if prim <= eps_prim and dual <= cfg.eps_abs + cfg.eps_rel * max(
            inf_norm(Qx), inf_norm(P.q), inf_norm(Aty)):
        return _outcome(state, oc.SOLVED, (prim, dual))
    primal_cert = _certificate(P, "primal_infeasibility", state.dy,
                               primal_screen, check_primal, cfg.eps_pinf)
    dual_cert = _certificate(P, "dual_infeasibility", state.dx,
                             dual_screen, check_dual, cfg.eps_dinf)
    if primal_cert is None and dual_cert is None and state.n >= cfg.max_iter:
        dual_cert = _polished_dual_certificate(P, state.dx, check_dual,
                                               cfg.eps_dinf)
    if primal_cert is not None:
        # simultaneous primal and dual strong infeasibility
        return _outcome(state, oc.PRIMAL_INFEASIBLE, (prim, dual),
                        certificate=primal_cert,
                        secondary_certificate=dual_cert)
    if dual_cert is not None:
        return _outcome(state, oc.DUAL_INFEASIBLE, (prim, dual),
                        certificate=dual_cert)
    return None


class _Block(list):
    """Consecutive states. Reading a field stacks it into rows once, so
    PP's residuals, which read only ``dx`` and ``dy``, stack only those."""

    def __getattr__(self, field):
        rows = self.__dict__[field] = np.array(
            [getattr(s, field) for s in self])
        return rows


def trace_record(solver, states):
    """Trace rows of consecutive states: the stopping residuals and the
    certificate quantities.

    Each quantity is evaluated once on the block's stacked rows: products
    in one batched ``matmul`` that gives each row a vector's bits, dot
    products per state, and exact norms, so a row is bitwise the one its
    state gives alone. Raises ValueError, as the public set methods do,
    when a ``dy`` or ``A dx`` is not finite.
    """
    P, cfg = solver.problem, solver.config
    block = _Block(states)
    Adx = matvecs(P.A, block.dx)
    if not (np.isfinite(block.dy).all() and np.isfinite(Adx).all()):
        raise ValueError("vector has non-finite entries")
    columns = (  # in TraceRecord's field order
        *(r.tolist() for r in solver.stopping_residuals(block)),
        *(inf_norm(B).tolist() for B in (
            block.dx, block.dy, matvecs(P.A.T, block.dy))),
        P.C._support(block.dy, cfg.eps_pinf).tolist(),
        inf_norm(matvecs(P.Q, block.dx)).tolist(),
        np.array([P.q.dot(s.dx) for s in states]).tolist(),
        np.sqrt([r.dot(r) for r in Adx - P.C._recession(Adx)]).tolist())
    return [oc.TraceRecord(s.n, *(c[i] for c in columns),
                           inner_iters=s.inner_iters)
            for i, s in enumerate(states)]


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
    """Iterate to an outcome, with a trace record per step if asked.

    Rows are recorded per ``TRACE_BLOCK`` states and for the last partial
    block, so a non-finite row raises at the end of its block.
    """
    history = [] if collect_trace else None
    block = []
    for state, outcome in iterate(solver, warm):
        if collect_trace:
            block.append(state)
            if len(block) == TRACE_BLOCK or outcome is not None:
                history.extend(solver.trace_record(block))
                block = []
    outcome.residual_history = history
    return outcome
