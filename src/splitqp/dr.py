"""Douglas-Rachford iteration with infeasibility detection.

One iteration from ``(x_n, v_n)``:

    xt    = solve (Q + I + A.T A) xt = x_n - q + A.T (2 Pi_C(v_n) - v_n)
    x_n+1 = x_n + alpha (xt - x_n)
    v_n+1 = v_n + alpha (A xt - Pi_C(v_n))

with relaxation ``alpha`` in (0, 2). The subproblem matrix is constant,
so it is factored once at setup. The auxiliary split ``z = Pi_C(v)``,
``y = v - z`` satisfies the complementarity condition at every
iteration, and the residuals obey

    A x_n - Pi_C(v_n)                = -(A dx_n+1 - dv_n+1) / alpha
    Q x_n + q + A.T (v_n - Pi_C v_n) = -((Q+I) dx_n+1 + A.T dv_n+1) / alpha

where ``d`` denotes the difference of consecutive iterates. The
differences converge, and their limits are infeasibility certificates
whenever they are nonzero: ``dy_n`` for the primal problem, ``dx_n`` for
its dual. Termination tests run every ``check_interval`` iterations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import outcome as oc
from .linalg import inf_norm, spd_factor
from .problem import (Certificate, ProblemData, check_dual_certificate,
                      check_primal_certificate)

@dataclass(frozen=True)
class DrConfig:
    """Relaxation, tolerances, and loop bounds for the DR solver."""

    alpha: float = 1.6
    eps_abs: float = 1e-6
    eps_rel: float = 1e-6
    eps_pinf: float = 1e-6
    eps_dinf: float = 1e-6
    max_iter: int = 20000
    check_interval: int = 25

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise ValueError("alpha out of range: must lie strictly in (0, 2)")
        for name in ("eps_abs", "eps_rel", "eps_pinf", "eps_dinf"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.check_interval < 1:
            raise ValueError("check_interval must be at least 1")


@dataclass
class DrState:
    """Iterates at counter ``n`` plus cached differences.

    ``z + y == v`` holds exactly by construction; ``dx = x_n - x_{n-1}``
    and likewise for the other differences (zero at ``n = 0``).
    """

    n: int
    x: np.ndarray
    v: np.ndarray
    z: np.ndarray
    y: np.ndarray
    dx: np.ndarray
    dv: np.ndarray
    dz: np.ndarray
    dy: np.ndarray


class DrSolver:
    """Owns the factored subproblem matrix and drives the iteration."""

    def __init__(self, problem: ProblemData, config: DrConfig = None):
        self.problem = problem
        self.config = config if config is not None else DrConfig()
        M = problem.Q + np.eye(problem.n) + problem.A.T @ problem.A
        self._factor = spd_factor(M)

    @property
    def subproblem_matrix(self):
        return self._factor.matrix

    def initial_state(self, warm=None):
        """Cold start at zero, or warm start from a given ``(x, v)`` pair."""
        P = self.problem
        if warm is None:
            x = np.zeros(P.n)
            v = np.zeros(P.m)
        else:
            x0, v0 = warm
            x = np.asarray(x0, dtype=float).copy()
            v = np.asarray(v0, dtype=float).copy()
            if x.shape != (P.n,) or v.shape != (P.m,):
                raise ValueError("warm start dimensions do not match problem")
        z = P.C.project(v)
        return DrState(n=0, x=x, v=v, z=z, y=v - z,
                       dx=np.zeros(P.n), dv=np.zeros(P.m),
                       dz=np.zeros(P.m), dy=np.zeros(P.m))

    def step(self, state: DrState) -> DrState:
        P, alpha = self.problem, self.config.alpha
        rhs = state.x - P.q + P.A.T @ (2.0 * state.z - state.v)
        xt = self._factor.solve(rhs)
        x_next = state.x + alpha * (xt - state.x)
        v_next = state.v + alpha * (P.A @ xt - state.z)
        z_next = P.C.project(v_next)
        return DrState(
            n=state.n + 1, x=x_next, v=v_next, z=z_next, y=v_next - z_next,
            dx=x_next - state.x, dv=v_next - state.v,
            dz=z_next - state.z, dy=(v_next - z_next) - state.y)

    def residuals(self, state: DrState):
        """Difference-based residual norms (the iterate one step back)."""
        if state.n < 1:
            raise ValueError("residuals need at least one completed iteration")
        prim, dual = self.residual_vectors(state)[:2]
        return inf_norm(prim), inf_norm(dual)

    def residual_vectors(self, state: DrState):
        """Both evaluations of each residual identity at this state.

        Returns ``(prim_delta, dual_delta, prim_direct, dual_direct)``
        where the delta forms use the cached differences and the direct
        forms re-evaluate the previous iterate; the pairs agree up to
        the accuracy of the subproblem solve.
        """
        P, alpha = self.problem, self.config.alpha
        prim_delta = -(P.A @ state.dx - state.dv) / alpha
        dual_delta = -(state.dx + P.Q @ state.dx + P.A.T @ state.dv) / alpha
        x_prev = state.x - state.dx
        z_prev = state.z - state.dz
        y_prev = state.y - state.dy
        prim_direct = P.A @ x_prev - z_prev
        dual_direct = P.Q @ x_prev + P.q + P.A.T @ y_prev
        return prim_delta, dual_delta, prim_direct, dual_direct

    def current_residuals(self, state: DrState):
        """Residual norms evaluated directly at the current iterate."""
        P = self.problem
        prim = inf_norm(P.A @ state.x - state.z)
        dual = inf_norm(P.Q @ state.x + P.q + P.A.T @ state.y)
        return prim, dual

    def check_termination(self, state: DrState):
        """Optimality first, then certificate tests on the differences."""
        P, cfg = self.problem, self.config
        Ax = P.A @ state.x
        Qx = P.Q @ state.x
        Aty = P.A.T @ state.y
        prim = inf_norm(Ax - state.z)
        dual = inf_norm(Qx + P.q + Aty)
        eps_prim = cfg.eps_abs + cfg.eps_rel * max(inf_norm(Ax), inf_norm(state.z))
        eps_dual = cfg.eps_abs + cfg.eps_rel * max(
            inf_norm(Qx), inf_norm(P.q), inf_norm(Aty))
        if prim <= eps_prim and dual <= eps_dual:
            return oc.SolveOutcome(
                status=oc.SOLVED, iterations=state.n,
                x=state.x.copy(), z=state.z.copy(), y=state.y.copy(),
                residuals=(prim, dual))

        primal_cert = None
        dual_cert = None
        if inf_norm(state.dy) > 0.0:
            ok, metrics = check_primal_certificate(P, state.dy, cfg.eps_pinf)
            if ok:
                primal_cert = Certificate(
                    kind="primal_infeasibility", vector=state.dy.copy(),
                    metrics={**metrics, "eps": cfg.eps_pinf})
        if inf_norm(state.dx) > 0.0:
            ok, metrics = check_dual_certificate(P, state.dx, cfg.eps_dinf)
            if ok:
                dual_cert = Certificate(
                    kind="dual_infeasibility", vector=state.dx.copy(),
                    metrics={**metrics, "eps": cfg.eps_dinf})
        if primal_cert is not None:
            extra = {}
            if dual_cert is not None:
                # simultaneous primal and dual strong infeasibility
                extra["secondary_certificate"] = dual_cert
            return oc.SolveOutcome(
                status=oc.PRIMAL_INFEASIBLE, iterations=state.n,
                x=state.x.copy(), z=state.z.copy(), y=state.y.copy(),
                certificate=primal_cert, residuals=(prim, dual), extra=extra)
        if dual_cert is not None:
            return oc.SolveOutcome(
                status=oc.DUAL_INFEASIBLE, iterations=state.n,
                x=state.x.copy(), z=state.z.copy(), y=state.y.copy(),
                certificate=dual_cert, residuals=(prim, dual))
        return None

    def trace_record(self, state: DrState, inner_iters=None):
        P, cfg = self.problem, self.config
        prim, dual = self.current_residuals(state)
        return oc.TraceRecord(
            n=state.n, primal_res=prim, dual_res=dual,
            norm_dx=inf_norm(state.dx), norm_dy=inf_norm(state.dy),
            norm_At_dy=inf_norm(P.A.T @ state.dy),
            support_dy=float(P.C.support(state.dy, cone_tol=cfg.eps_pinf)),
            norm_Q_dx=inf_norm(P.Q @ state.dx),
            q_dot_dx=float(P.q @ state.dx),
            dist_rec=P.C.distance_to_recession(P.A @ state.dx),
            inner_iters=inner_iters)

    def run(self, warm=None, collect_trace=False):
        cfg = self.config
        state = self.initial_state(warm)
        history = [] if collect_trace else None
        for _ in range(cfg.max_iter):
            state = self.step(state)
            if collect_trace:
                history.append(self.trace_record(state))
            if state.n >= 2 and state.n % cfg.check_interval == 0:
                result = self.check_termination(state)
                if result is not None:
                    result.residual_history = history
                    return result
        if state.n >= 2:
            result = self.check_termination(state)
            if result is not None:
                result.residual_history = history
                return result
        prim, dual = self.current_residuals(state)
        return oc.SolveOutcome(
            status=oc.MAX_ITERATIONS, iterations=state.n,
            x=state.x.copy(), z=state.z.copy(), y=state.y.copy(),
            residuals=(prim, dual), residual_history=history)


def dr_run(problem, config=None, warm=None, collect_trace=False):
    """Set up and run the Douglas-Rachford solver on ``problem``."""
    return DrSolver(problem, config).run(warm=warm, collect_trace=collect_trace)
