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

from . import driver
from .driver import SolverState
from .linalg import inf_norm, spd_factor
from .problem import (ProblemData, check_dual_certificate,
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
        driver.validate_loop_config(self)


class DrSolver:
    """Owns the factored subproblem matrix; every state has ``z + y == v``."""

    trace_record = driver.trace_record
    run = driver.run

    def __init__(self, problem: ProblemData, config: DrConfig = None):
        self.problem = problem
        self.config = config if config is not None else DrConfig()
        M = problem.Q + np.eye(problem.n) + problem.A.T @ problem.A
        self._factor = spd_factor(M)

    def initial_state(self, warm=None):
        """Cold start at zero, or warm start from a given ``(x, v)`` pair."""
        P = self.problem
        x, v = driver.warm_start(P, warm)
        z = P.C.project(v)
        return SolverState(n=0, x=x, v=v, z=z, y=v - z,
                           dx=np.zeros(P.n), dv=np.zeros(P.m),
                           dz=np.zeros(P.m), dy=np.zeros(P.m))

    def step(self, state: SolverState) -> SolverState:
        P, alpha = self.problem, self.config.alpha
        rhs = state.x - P.q + P.A.T @ (2.0 * state.z - state.v)
        xt = self._factor.solve(rhs)
        x_next = state.x + alpha * (xt - state.x)
        v_next = state.v + alpha * (P.A @ xt - state.z)
        z_next = P.C.project(v_next)
        return SolverState(
            n=state.n + 1, x=x_next, v=v_next, z=z_next, y=v_next - z_next,
            dx=x_next - state.x, dv=v_next - state.v,
            dz=z_next - state.z, dy=(v_next - z_next) - state.y)

    def residuals(self, state: SolverState):
        """Difference-based residual norms (the iterate one step back)."""
        if state.n < 1:
            raise ValueError("residuals need at least one completed iteration")
        prim, dual = self.residual_vectors(state)[:2]
        return inf_norm(prim), inf_norm(dual)

    def residual_vectors(self, state: SolverState):
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

    def stopping_residuals(self, state: SolverState):
        """Residual norms evaluated directly at the current iterate."""
        P = self.problem
        prim = inf_norm(P.A @ state.x - state.z)
        dual = inf_norm(P.Q @ state.x + P.q + P.A.T @ state.y)
        return prim, dual

    def check_termination(self, state: SolverState):
        """The driver's tests, with this module's certificate checkers."""
        return driver.terminate(self, state, check_primal_certificate,
                                check_dual_certificate)


def dr_run(problem, config=None, warm=None, collect_trace=False):
    """Set up and run the Douglas-Rachford solver on ``problem``."""
    return DrSolver(problem, config).run(warm=warm, collect_trace=collect_trace)
