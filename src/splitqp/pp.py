"""Proximal-point iteration on the KKT operator, with infeasibility detection.

Each outer step applies the resolvent of the maximally monotone KKT
operator: given ``(x_n, y_n)`` it finds the unique root of

    F(x) = (I + gamma Q) x - x_n + gamma q
           + gamma^2 A.T (Id - Pi_C)(A x + y_n / gamma)

and then sets ``y_n+1 = gamma (Id - Pi_C)(A x_n+1 + y_n / gamma)``. F is
strongly monotone with modulus one, so the root is unique. The inner
solve is a semismooth Newton iteration using the projection's
generalized derivative.

The Newton matrix is ``J = I + gamma Q + gamma^2 A.T (I - D) A`` with D the
structured projection Jacobian (``sets.ProjectionJacobian``): a 0/1 mask
on polyhedral coordinates, a rank-one term per active halfspace, and a
scaled identity plus rank <= 2 per ball or cone block on its boundary.
It is assembled as

    A_C.T A_C + sum_k (1 - alpha_k) G_k - (A.T U) N (A.T U).T

from the rows ``A_C`` on clamped coordinates, the Gram matrix ``G_k`` of
each boundary block's rows (computed once per solver, on the block's
first boundary hit), and the low-rank terms; it never forms an m x m
matrix. The Cholesky factor of J is kept with the active pattern that
produced it and reused, across Newton and outer steps, while the
pattern is unchanged. Only a piecewise-constant D has a pattern (every
part polyhedral, or a cone block in its interior or origin branch); a
block on a curved boundary refactors at every step. For polyhedral C,
F is piecewise affine, so once the pattern settles a Newton step costs
one ``cho_solve`` and no factorization.

Each outer step starts at ``x_n``, where the previous step's last F
evaluation already computed ``A x_n`` and ``S x_n`` (``S = I + gamma Q``);
the solver keeps both and the start evaluation reuses them. It still
computes ``u = A x_n + y_n / gamma``, the projection and
``A.T (u - Pi_C(u))``, which move with ``y``. A warm start, a new solver
or an ``InnerSolveError`` recomputes them.

With ``v_n+1 = A x_n+1 + y_n / gamma`` and ``z = Pi_C(v)``, the
optimality residuals are the scaled difference norms:

    A x_n+1 - Pi_C(v_n+1) =  dy_n+1 / gamma        (exact by construction)
    Q x_n+1 + q + A.T y_n+1 = -dx_n+1 / gamma      (up to the inner tolerance)

(``tests/identities.py`` checks both), and the differences ``dy_n``,
``dx_n`` are the certificate candidates, exactly as in the
Douglas-Rachford loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from . import driver
from .driver import SolverState
from .linalg import inf_norm
from .problem import (ProblemData, check_dual_certificate,
                      check_primal_certificate)


class InnerSolveError(RuntimeError):
    """Inner root-find ran out of iterations; carries the best iterate."""

    def __init__(self, message, best_x, residual_norm, iterations):
        super().__init__(message)
        self.best_x = best_x
        self.residual_norm = residual_norm
        self.iterations = iterations


@dataclass(frozen=True)
class PpConfig:
    """Regularization, inner-solve policy, and termination tolerances.

    ``inner_tol_abs=None`` selects the adaptive schedule
    ``max(1e-12, min(1e-10, 1e-3 * current outer residual))``; a float
    fixes the inner tolerance for every step.
    """

    gamma: float = 1.0
    inner_tol_abs: Optional[float] = None
    inner_max_iter: int = 1000
    eps_abs: float = 1e-6
    eps_rel: float = 1e-6
    eps_pinf: float = 1e-6
    eps_dinf: float = 1e-6
    max_iter: int = 20000
    check_interval: int = 25

    def __post_init__(self):
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")
        if self.inner_tol_abs is not None and self.inner_tol_abs <= 0.0:
            raise ValueError("inner_tol_abs must be positive")
        if self.inner_max_iter < 1:
            raise ValueError("inner_max_iter must be at least 1")
        driver.validate_loop_config(self)


class PpSolver:
    """Takes resolvent steps; :mod:`driver` runs the loop. One handle per run.

    States keep ``v = A x + y_prev / gamma`` and ``z = Pi_C(v)``, so that
    ``y = gamma (v - z)`` holds exactly for every state with ``n >= 1``.
    """

    trace_record = driver.trace_record
    run = driver.run

    def __init__(self, problem: ProblemData, config: PpConfig = None):
        self.problem = problem
        self.config = config if config is not None else PpConfig()
        g = self.config.gamma
        self._S = np.eye(problem.n) + g * problem.Q
        self._gq = g * problem.q
        self._g2 = g * g
        # Newton-matrix caches: cone-block Gram matrices, and the last
        # Cholesky factor with the active pattern it was built for
        self._grams = {}
        self._factor = None
        self._factor_key = None
        # (x, (A x, S x)) from the last F evaluation of the last completed
        # resolvent solve, where x is the array it returned
        self._last = None

    def _f_value(self, x, x_prev, u_base, products=None):
        """``(F(x), ||F(x)||_inf, u, Pi_C(u), (A x, S x))``.

        ``u_base = y_prev / gamma`` is fixed; ``products`` passes
        ``(A x, S x)`` when they are already known.
        """
        P = self.problem
        if products is None:
            products = P.A @ x, self._S @ x
        Ax, Sx = products
        u = Ax + u_base
        z = P.C.project(u)
        Fx = Sx - x_prev + self._gq + self._g2 * (P.A.T @ (u - z))
        return Fx, inf_norm(Fx), u, z, products

    def newton_matrix(self, jac):
        """``I + gamma Q + gamma^2 A.T (I - D) A`` for a structured D.

        With ``A_C`` the rows on clamped coordinates, ``G_k`` the cached
        Gram matrix of cone block k and ``W_t = A_t.T U_t`` per low-rank
        term, the bracket is ``A_C.T A_C + sum_k (1 - alpha_k) G_k
        - sum_t W_t N_t W_t.T``.
        """
        A, g = self.problem.A, self.config.gamma
        clamped = jac.d == 0.0
        for start, stop, _ in jac.blocks:
            clamped[start:stop] = False
        A_C = A[clamped]
        H = A_C.T @ A_C
        for start, stop, alpha in jac.blocks:
            G = self._grams.get((start, stop))
            if G is None:  # first boundary hit of this block
                A_k = A[start:stop]
                G = self._grams[(start, stop)] = A_k.T @ A_k
            H += (1.0 - alpha) * G
        for start, U, N in jac.terms:
            W = A[start:start + U.shape[0]].T @ U
            H -= W @ N @ W.T
        return self._S + (g * g) * H

    def resolvent_solve(self, x_prev, y_prev, tol):
        """Root-find F(x) = 0, then recover the next dual iterate.

        Returns ``(x_next, y_next, inner_iters, u, z)`` with
        ``||F(x_next)||_inf <= tol``, where ``u = A x_next + y_prev / gamma``
        and ``z = Pi_C(u)`` come from the last F evaluation. Raises
        InnerSolveError if the inner iteration budget runs out.

        When ``x_prev`` is the array the previous call returned, the start
        evaluation reuses that call's ``A x`` and ``S x``, so the arrays a
        step returns must not be changed in place.
        """
        P, cfg = self.problem, self.config
        u_base = y_prev / cfg.gamma
        last, self._last = self._last, None
        products = last[1] if last is not None and last[0] is x_prev else None
        x = np.asarray(x_prev, dtype=float).copy()
        Fx, norm, u, z, products = self._f_value(x, x_prev, u_base, products)
        iters = 0
        best_x, best_norm = x, norm
        while norm > tol:
            if iters >= cfg.inner_max_iter:
                raise InnerSolveError(
                    f"inner solve did not reach tolerance {tol:g} within "
                    f"{cfg.inner_max_iter} iterations "
                    f"(best residual {best_norm:g})",
                    best_x=best_x, residual_norm=best_norm, iterations=iters)
            jac = P.C.projection_jacobian(u)
            key = jac.pattern_key()  # None on a curved boundary
            # J comes from validated data, the set methods reject a
            # non-finite u and a NaN Fx ends the loop before this
            # solve, so scipy's finiteness scans are skipped
            if key is None or key != self._factor_key:
                self._factor = scipy.linalg.cho_factor(
                    self.newton_matrix(jac), lower=True, check_finite=False)
                self._factor_key = key
            step = scipy.linalg.cho_solve(self._factor, -Fx,
                                          check_finite=False)
            t = 1.0
            while t > 1e-12:
                x_trial = x + t * step
                trial = self._f_value(x_trial, x_prev, u_base)
                if trial[1] <= (1.0 - 1e-4 * t) * norm:
                    break
                t *= 0.5
            else:  # no sufficient decrease found; take the full step
                x_trial = x + step
                trial = self._f_value(x_trial, x_prev, u_base)
            x = x_trial
            Fx, norm, u, z, products = trial
            iters += 1
            if norm < best_norm:
                best_x, best_norm = x, norm
        self._last = x, products
        return x, cfg.gamma * (u - z), iters, u, z

    def _effective_inner_tol(self, state):
        cfg = self.config
        if cfg.inner_tol_abs is not None:
            return cfg.inner_tol_abs
        if state.n < 1:
            return 1e-10
        prim, dual = self.stopping_residuals(state)
        return max(1e-12, min(1e-10, 1e-3 * max(prim, dual)))

    def initial_state(self, warm=None):
        """Cold start at zero, or warm start from a given ``(x, y)`` pair."""
        P, g = self.problem, self.config.gamma
        x, y = driver.warm_start(P, warm)
        v = P.A @ x + y / g
        z = P.C.project(v)
        return SolverState(n=0, x=x, y=y, v=v, z=z,
                           dx=np.zeros(P.n), dy=np.zeros(P.m), inner_iters=0)

    def step(self, state: SolverState) -> SolverState:
        tol = self._effective_inner_tol(state)
        x_next, y_next, iters, v_next, z_next = self.resolvent_solve(
            state.x, state.y, tol)
        return SolverState(
            n=state.n + 1, x=x_next, y=y_next, v=v_next, z=z_next,
            dx=x_next - state.x, dy=y_next - state.y, inner_iters=iters)

    def stopping_residuals(self, state: SolverState, products=None):
        """Residual norms from the scaled differences; ``products`` is unused."""
        g = self.config.gamma
        return inf_norm(state.dy) / g, inf_norm(state.dx) / g

    def check_termination(self, state: SolverState):
        """The driver's tests, with this module's certificate checkers."""
        return driver.terminate(self, state, check_primal_certificate,
                                check_dual_certificate)


def pp_run(problem, config=None, warm=None, collect_trace=False):
    """Set up and run the proximal-point solver on ``problem``."""
    return PpSolver(problem, config).run(warm=warm, collect_trace=collect_trace)
