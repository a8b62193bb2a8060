"""Douglas-Rachford iteration with infeasibility detection.

One iteration from ``(x_n, v_n)``:

    xt    = solve (Q + I + A.T A) xt = x_n - q + A.T (2 Pi_C(v_n) - v_n)
    x_n+1 = x_n + alpha (xt - x_n)
    v_n+1 = v_n + alpha (A xt - Pi_C(v_n))

with relaxation ``alpha`` in (0, 2). The subproblem matrix is constant,
so it is factored and inverted once at setup, and each solve is one
product with the inverse. The auxiliary split ``z = Pi_C(v)``,
``y = v - z`` satisfies the complementarity condition at every
iteration, and the residuals obey

    A x_n - Pi_C(v_n)                = -(A dx_n+1 - dv_n+1) / alpha
    Q x_n + q + A.T (v_n - Pi_C v_n) = -((Q+I) dx_n+1 + A.T dv_n+1) / alpha

where ``d`` denotes the difference of consecutive iterates
(``tests/identities.py`` checks both identities from two consecutive
states). The differences converge, and their limits are infeasibility
certificates whenever they are nonzero: ``dy_n`` for the primal problem,
``dx_n`` for its dual; a state keeps only these two. Termination tests
run every ``check_interval`` iterations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import driver
from .driver import SolverState
from .linalg import inf_norms, matvecs, spd_factor
from .problem import (ProblemData, check_dual_certificate,
                      check_primal_certificate)

@dataclass(frozen=True)
class DrConfig(driver.LoopConfig):
    """Relaxation ``alpha``, plus ``LoopConfig``'s fields."""

    alpha: float = 1.6

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise ValueError("alpha out of range: must lie strictly in (0, 2)")
        super().__post_init__()


class _DrState(SolverState):
    """A stepped state that forms ``y = v - z``, ``dx`` and ``dy`` on first
    read from the previous state's arrays, never keeping that state."""

    def __getattr__(self, name):
        if name not in ("y", "dx", "dy"):
            raise AttributeError(name)
        x0, y0, v0, z0 = self.__dict__.pop("_prev")
        self.y, self.dx = self.v - self.z, self.x - x0
        self.dy = self.y - (v0 - z0 if y0 is None else y0)
        return self.__dict__[name]


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
        x, v = driver.warm_start(P, warm, "v")
        z = P.C.project(v)
        return SolverState(n=0, x=x, v=v, z=z, y=v - z,
                           dx=np.zeros(P.n), dy=np.zeros(P.m))

    def step(self, state: SolverState) -> SolverState:
        P, alpha = self.problem, self.config.alpha
        rhs = state.x - P.q + P.A.T @ (2.0 * state.z - state.v)
        xt = self._factor.solve(rhs)
        x_next = state.x + alpha * (xt - state.x)
        v_next = state.v + alpha * (P.A @ xt - state.z)
        state_next = _DrState.__new__(_DrState)  # without dataclass init
        state_next.__dict__.update(
            n=state.n + 1, x=x_next, v=v_next, z=P.C.project(v_next),
            _prev=(state.x, state.__dict__.get("y"), state.v, state.z))
        return state_next

    def stopping_residuals(self, state: SolverState, products=None):
        """Residual norms evaluated directly at the current iterate.

        ``products`` passes ``(A x, Q x, A.T y)`` when they are known. A
        state of stacked rows gives an array per residual.
        """
        P = self.problem
        if products is None:
            products = (matvecs(P.A, state.x), matvecs(P.Q, state.x),
                        matvecs(P.A.T, state.y))
        Ax, Qx, Aty = products
        return inf_norms(Ax - state.z), inf_norms(Qx + P.q + Aty)

    def check_termination(self, state: SolverState):
        """The driver's tests, with this module's certificate checkers."""
        return driver.terminate(self, state, check_primal_certificate,
                                check_dual_certificate)


def dr_run(problem, config=None, warm=None, collect_trace=False):
    """Set up and run the Douglas-Rachford solver on ``problem``."""
    return DrSolver(problem, config).run(warm=warm, collect_trace=collect_trace)
