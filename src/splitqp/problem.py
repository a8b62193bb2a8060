"""Problem data, KKT residuals, and strong-infeasibility certificates.

The problem is

    minimize    0.5 * <Q x, x> + <q, x>
    subject to  A x in C,

with Q symmetric positive semidefinite and C a nonempty closed convex
set described by a :class:`~splitqp.sets.SetDescriptor`.

A nonzero ``ybar`` with ``A.T ybar = 0`` and ``support_C(ybar) < 0``
proves the problem strongly infeasible; a nonzero ``xbar`` with
``Q xbar = 0``, ``A xbar`` in the recession cone of C, and
``<q, xbar> < 0`` proves its dual strongly infeasible. The checkers
below evaluate those conditions with a tolerance that is scale-free
except for one test: every threshold is ``eps`` times the inf-norm of
the candidate, but polar-cone membership inside ``support_C`` is tested
against ``eps * max(1, ||ybar||_inf)``, absolute below
``||ybar||_inf = 1`` (ROADMAP item 1 makes it relative).

The solvers call a checker only for a candidate that passes its cheap
tests, ``primal_screen`` (``||A.T ybar||_inf``) or ``dual_screen``
(``||Q xbar||_inf``, ``<q, xbar>``); the checker reports every metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (SYMMETRY_ATOL, as_matrix, as_vector, inf_norm,
                     require_positive, symmetrize)
from .sets import SetDescriptor

Q_PSD_RTOL = 1e-10


@dataclass
class ProblemData:
    """Immutable problem data ``(Q, q, A, C)``; validated on build, which
    also sets ``m, n = A.shape`` as plain attributes."""

    Q: np.ndarray
    q: np.ndarray
    A: np.ndarray
    C: SetDescriptor

    def __post_init__(self):
        self.A = as_matrix(self.A, name="A")
        m, n = self.m, self.n = self.A.shape
        if m < 1 or n < 1:
            raise ValueError("problem needs at least one variable and one constraint row")
        self.Q = as_matrix(self.Q, shape=(n, n), name="Q")
        self.q = as_vector(self.q, dim=n, name="q")
        if inf_norm((self.Q - self.Q.T).ravel()) > SYMMETRY_ATOL:
            raise ValueError(f"Q is not symmetric within tolerance {SYMMETRY_ATOL:g}")
        self.Q = symmetrize(self.Q)
        if not isinstance(self.C, SetDescriptor):
            raise ValueError("C must be a set descriptor")
        if self.C.dim != m:
            raise ValueError(
                f"constraint set has dimension {self.C.dim}, expected {m}")
        eigs = np.linalg.eigvalsh(self.Q)
        scale = max(1.0, inf_norm(eigs))
        if eigs.size and eigs[0] < -Q_PSD_RTOL * scale:
            raise ValueError("Q is not positive semidefinite")


@dataclass(frozen=True)
class KktResiduals:
    """inf-norms of the stationarity system at a candidate triple."""

    primal: float  # ||A x - z||_inf
    dual: float    # ||Q x + q + A.T y||_inf


@dataclass(frozen=True)
class Certificate:
    """A strong-infeasibility certificate vector with its metrics.

    ``kind`` is ``"primal_infeasibility"`` (vector lives in constraint
    space) or ``"dual_infeasibility"`` (vector lives in variable space).
    ``metrics`` stores the checker's measurements, recomputable from the
    vector.
    """

    kind: str
    vector: np.ndarray
    metrics: dict


def kkt_residuals(problem, x, z, y):
    """Primal and dual stationarity residuals at ``(x, z, y)``.

    The complementarity pair ``(z, y)`` is not re-checked here; solver
    iterates satisfy it by construction.
    """
    x = as_vector(x, dim=problem.n, name="x")
    z = as_vector(z, dim=problem.m, name="z")
    y = as_vector(y, dim=problem.m, name="y")
    primal = inf_norm(problem.A @ x - z)
    dual = inf_norm(problem.Q @ x + problem.q + problem.A.T @ y)
    return KktResiduals(primal=primal, dual=dual)


def check_primal_certificate(problem, ybar, eps):
    """Test ``ybar`` as a certificate that the problem is strongly infeasible.

    Returns ``(ok, metrics)`` where metrics holds ``norm_At_y`` and
    ``support``; ``ok`` is true iff ``||A.T ybar||_inf <= eps * ||ybar||_inf``
    and ``support_C(ybar) <= -eps * ||ybar||_inf``. Polar-cone membership
    inside the support evaluation uses the same ``eps``.
    """
    ybar = as_vector(ybar, dim=problem.m, name="ybar")
    require_positive(eps, "eps")
    norm_y = inf_norm(ybar)
    if norm_y == 0.0:
        raise ValueError("certificate must be nonzero")
    passed, norm_At_y = primal_screen(problem, ybar, eps, norm_y)
    support = problem.C.support(ybar, cone_tol=eps)
    metrics = {"norm_At_y": norm_At_y, "support": support}
    return passed and support <= -eps * norm_y, metrics


def check_dual_certificate(problem, xbar, eps):
    """Test ``xbar`` as a certificate that the dual is strongly infeasible.

    Returns ``(ok, metrics)`` with ``norm_Q_x``, ``dist_rec`` (distance of
    ``A xbar`` from the recession cone of C), and ``q_dot_x``.
    """
    xbar = as_vector(xbar, dim=problem.n, name="xbar")
    require_positive(eps, "eps")
    norm_x = inf_norm(xbar)
    if norm_x == 0.0:
        raise ValueError("certificate must be nonzero")
    passed, norm_Q_x, q_dot_x = dual_screen(problem, xbar, eps, norm_x)
    dist_rec = problem.C.distance_to_recession(problem.A @ xbar)
    metrics = {"norm_Q_x": norm_Q_x, "dist_rec": dist_rec, "q_dot_x": q_dot_x}
    return passed and dist_rec <= eps * norm_x, metrics


def primal_screen(problem, ybar, eps, norm_y):
    """``(passed, ||A.T ybar||_inf)``, the primal checker's cheap test."""
    norm_At_y = inf_norm(problem.A.T @ ybar)
    return norm_At_y <= eps * norm_y, norm_At_y


def dual_screen(problem, xbar, eps, norm_x):
    """``(passed, norm_Q_x, q_dot_x)``, the dual checker's cheap tests."""
    norm_Q_x = inf_norm(problem.Q @ xbar)
    q_dot_x = float(problem.q @ xbar)
    return (norm_Q_x <= eps * norm_x and q_dot_x <= -eps * norm_x,
            norm_Q_x, q_dot_x)

