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
block on a curved boundary refactors at every step, into a factor used
for that step only, which leaves the cached one in place. For polyhedral C,
F is piecewise affine, so once the pattern settles a Newton step costs
one ``cho_solve`` and no factorization.

When the factored pattern is a pure 0/1 mask (no halfspace term), the
solver also keeps the factored matrix ``S + gamma^2 A_C.T A_C``. A new
mask that differs from it in k rows R changes J by ``U diag(+-1) U.T``
with ``U = gamma A_R.T`` (+1 for a row that became clamped). While
``6 k < n``, the step is solved on the kept factor by Woodbury: one
``cho_solve`` for ``-F`` and for the columns of ``J^-1 U`` not yet
solved since the factorization, then a k x k capacitance solve. That
is at most about ``2 n^2 k`` flops, against ``n^3 / 3`` for ``potrf``.
Below n = 100 the fixed cost of a correction, 60-90 us of numpy calls,
is about that of a refactorization, so no matrix is kept there and
every new pattern is assembled and factored from scratch.
A pattern met a second time, or with ``6 k >= n``, is folded in: the
kept matrix is updated by ``+-gamma^2 A_R.T A_R`` (rebuilt when k is at
least the number of clamped rows) and refactored, so a pattern that
lasts goes back to one ``cho_solve`` per step. A line search that fails
along a corrected direction refactors and searches once more. Curved
blocks and halfspace terms are assembled from scratch.

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

from . import driver
from .driver import SolverState
from .linalg import inf_norm, require_positive
from .linalg import scipy_seam as scipy
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
class PpConfig(driver.LoopConfig):
    """Regularization and inner-solve policy, plus ``LoopConfig``'s fields.

    ``inner_tol_abs=None`` selects the adaptive schedule
    ``max(1e-12, min(1e-10, 1e-3 * current outer residual))``; a float
    fixes the inner tolerance for every step.
    """

    gamma: float = 1.0
    inner_tol_abs: Optional[float] = None
    inner_max_iter: int = 1000

    def __post_init__(self):
        require_positive(self.gamma, "gamma")
        if self.inner_tol_abs is not None:
            require_positive(self.inner_tol_abs, "inner_tol_abs")
        if self.inner_max_iter < 1:
            raise ValueError("inner_max_iter must be at least 1")
        super().__post_init__()


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
        # most rows a correction may flip: 6 k < n, and none below n = 100,
        # where its fixed cost is that of a refactorization; there no
        # matrix is kept and every new pattern is assembled from scratch
        self._max_flips = (problem.n - 1) // 6 if problem.n >= 100 else 0
        # Newton-matrix caches: cone-block Gram matrices, and the last
        # Cholesky factor with the active pattern it was built for. For a
        # 0/1 mask, also the factored matrix (``_kept``) and the mask, the
        # hashes of the patterns solved by a correction since that
        # factorization, and the correction's solved columns
        self._grams = {}
        self._factor = None
        self._factor_key = None
        self._kept = None
        self._kept_d = None
        self._corrected = set()
        self._solved = {}
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
        H *= g * g
        H += self._S
        return H

    def _newton_direction(self, jac, Fx):
        """``(J^-1 (-Fx), corrected)`` for the Newton matrix J of ``jac``.

        A pattern equal to the factored one reuses the factor. From
        n = 100 on, a mask that differs from the kept one in k rows, with
        ``6 k < n``, is solved by a Woodbury correction of the factor the
        first time it is met (``corrected`` is True); met again, or with a
        larger k, it is folded into a new factorization. Other patterns
        are assembled and factored from scratch; a curved D is factored
        for its step only, so the cached factor survives it.
        """
        key = jac.pattern_key()  # None on a curved boundary
        # no finiteness scan: J comes from validated data, the set methods
        # reject a non-finite u and a NaN Fx ends the loop before this solve
        if key is None:  # no pattern to reuse: leave the cache in place
            factor = scipy.linalg.cho_factor(self.newton_matrix(jac),
                                             lower=True, check_finite=False)
            return scipy.linalg.cho_solve(factor, -Fx,
                                          check_finite=False), False
        if key == self._factor_key:
            return scipy.linalg.cho_solve(self._factor, -Fx,
                                          check_finite=False), False
        rows = None
        if not jac.terms and self._kept is not None:
            rows = np.flatnonzero(jac.d != self._kept_d)
            if rows.size <= self._max_flips:
                seen = hash(key)  # a collision only folds early
                if seen not in self._corrected:
                    self._corrected.add(seen)
                    return self._corrected_direction(jac.d, rows, Fx), True
        self._factor_pattern(jac, key, rows)
        return scipy.linalg.cho_solve(self._factor, -Fx,
                                      check_finite=False), False

    def _corrected_direction(self, d, rows, Fx):
        """Woodbury solve with ``J + U diag(s) U.T`` on the factor of J.

        ``U = gamma A_R.T`` holds the flipped rows R; ``s`` is +1 for a row
        that became clamped and -1 for one that became free. The columns
        of ``Z = J^-1 U`` are kept per row until the next factorization,
        so only rows new since then are solved for.
        """
        U = self.config.gamma * self.problem.A[rows].T
        rows = rows.tolist()
        solved = self._solved  # row -> its column of Z on this factor
        new = [i for i, r in enumerate(rows) if r not in solved]
        X = scipy.linalg.cho_solve(self._factor,
                                   np.column_stack((-Fx, U[:, new])),
                                   check_finite=False)
        for i, column in zip(new, X[:, 1:].T):
            solved[rows[i]] = column
        x0, Z = X[:, 0], np.column_stack([solved[r] for r in rows])
        C = U.T @ Z
        C.flat[::len(rows) + 1] += np.where(d[rows] == 0.0, 1.0, -1.0)
        return x0 - Z @ np.linalg.solve(C, U.T @ x0)

    def _factor_pattern(self, jac, key, rows):
        """Factor J for ``jac``: fold the flipped ``rows`` into the kept
        matrix, unless they are at least as many as the clamped rows, or
        assemble J from scratch when no kept matrix applies."""
        if rows is not None and rows.size < np.count_nonzero(jac.d == 0.0):
            R = self.problem.A[rows]
            s = np.where(jac.d[rows] == 0.0, self._g2, -self._g2)
            J = self._kept
            J += (R.T * s) @ R
        else:
            J = self.newton_matrix(jac)
        self._factor = scipy.linalg.cho_factor(J, lower=True,
                                               check_finite=False)
        self._factor_key = key
        self._corrected.clear()
        self._solved.clear()
        if self._max_flips and not jac.terms:
            self._kept, self._kept_d = J, np.frombuffer(key[0])
        else:
            self._kept = self._kept_d = None

    def _line_search(self, x, step, norm, x_prev, u_base):
        """Backtrack along ``step`` to a sufficient decrease of ``||F||_inf``.

        Returns ``(x_trial, f_value)``, or ``(None, None)`` when no step
        length down to 1e-12 decreases it.
        """
        t = 1.0
        while t > 1e-12:
            x_trial = x + t * step
            trial = self._f_value(x_trial, x_prev, u_base)
            if trial[1] <= (1.0 - 1e-4 * t) * norm:
                return x_trial, trial
            t *= 0.5
        return None, None

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
            step, corrected = self._newton_direction(jac, Fx)
            x_trial, trial = self._line_search(x, step, norm, x_prev, u_base)
            if trial is None and corrected:
                # the pattern is now met a second time, so this refactors
                step, corrected = self._newton_direction(jac, Fx)
                x_trial, trial = self._line_search(x, step, norm, x_prev,
                                                   u_base)
            if trial is None:  # no sufficient decrease found; take the full step
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
        x, y = driver.warm_start(P, warm, "y")
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
        """Residual norms from the scaled differences; ``products`` is
        unused. A state of stacked rows gives an array per residual."""
        g = self.config.gamma
        return inf_norm(state.dy) / g, inf_norm(state.dx) / g

    def check_termination(self, state: SolverState):
        """The driver's tests, with this module's certificate checkers."""
        return driver.terminate(self, state, check_primal_certificate,
                                check_dual_certificate)


def pp_run(problem, config=None, warm=None, collect_trace=False):
    """Set up and run the proximal-point solver on ``problem``."""
    return PpSolver(problem, config).run(warm=warm, collect_trace=collect_trace)
