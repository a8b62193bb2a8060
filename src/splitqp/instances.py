"""Generators for problems with analytic ground truth.

Randomness comes from a SplitMix64 stream so the same seed reproduces
the same instance bit-for-bit, in any implementation of the generator:

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state; z <- (z xor (z >> 30)) * 0xBF58476D1CE4E5B9 mod 2^64
    z <- (z xor (z >> 27)) * 0x94D049BB133111EB mod 2^64
    output z xor (z >> 31)

Uniform doubles in [0, 1) take the top 53 bits; matrix and vector
entries are uniform in [-1, 1]. A vector or matrix is drawn as one
block: its k-th entry (rows first) comes from the state
state + k * 0x9E3779B97F4A7C15 in numpy uint64 arithmetic, which wraps
mod 2^64, so the block equals the scalar stream bit for bit and leaves
the same state. Constraint matrices are rescaled to a unit
spectral-norm estimate so the default solver tolerances behave the same
across sizes.

Three families of ground truth are produced:

    feasible          a KKT triple (x*, z*, y*) with zero residuals
    primal_infeasible a vector ybar with A.T ybar = 0, support_C(ybar) < 0
    dual_infeasible   a vector xbar with Q xbar = 0, A xbar in rec C,
                      <q, xbar> < 0

Set families: "box", "orthant", "translated_cone", "box_soc". The
orthant family uses a translated orthant for the primal-infeasible kind,
since a set containing the origin of the constraint space can never be
strongly separated from the range of A.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import spectral_norm_est
from .problem import ProblemData
from .sets import (Box, Cartesian, NonnegativeOrthant, SecondOrderCone,
                   TranslatedCone)

SET_FAMILIES = ("box", "orthant", "translated_cone", "box_soc")

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # the SplitMix64 state increment
_MARGIN = 0.5  # infeasibility gap, relative to the unit-norm certificate


class SplitMix64:
    """The 64-bit SplitMix generator; documented in the module docstring."""

    def __init__(self, seed):
        self.state = int(seed) & _MASK

    def next_u64(self):
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return (z ^ (z >> 31)) & _MASK

    def uniform(self):
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def uniform_in(self, lo, hi):
        return lo + (hi - lo) * self.uniform()

    def symmetric(self):
        """Uniform double in [-1, 1)."""
        return 2.0 * self.uniform() - 1.0

    def vector(self, n):
        """``n`` draws of ``symmetric()`` as one block; uint64 arrays wrap."""
        k = np.arange(1, n + 1, dtype=np.uint64)
        z = np.uint64(self.state) + k * np.uint64(_GAMMA)
        self.state = (self.state + n * _GAMMA) & _MASK
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        u = (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
        return 2.0 * u - 1.0

    def matrix(self, m, n):
        """``m * n`` draws of ``symmetric()``, filling rows first."""
        return self.vector(m * n).reshape(m, n)


@dataclass
class InstanceBundle:
    """A generated problem plus its ground-truth artifact.

    ``truth`` is a dict with key ``kind`` in {"kkt",
    "primal_certificate", "dual_certificate"} and the matching payload
    arrays. ``unique_direction`` marks infeasible instances whose
    certificate direction is unique by construction.
    """

    problem: ProblemData
    truth: dict
    seed: int
    family: str
    unique_direction: bool = False


def _rescaled(A):
    est = spectral_norm_est(A)
    if est > 1e-12:
        return A / est
    return A


def _psd_matrix(rng, n):
    """Random PSD (almost surely PD) matrix with unit spectral estimate."""
    G = rng.matrix(2 * n, n)
    Q = G.T @ G
    est = spectral_norm_est(Q)
    if est > 1e-12:
        Q = Q / est
    return 0.5 * (Q + Q.T)


def _psd_with_null(rng, n, xbar):
    """Random PSD matrix that kills ``xbar``; rank n-1 almost surely."""
    for _ in range(64):
        G = rng.matrix(2 * n, n)
        G = G - np.outer(G @ xbar, xbar) / float(xbar @ xbar)
        sv = np.linalg.svd(G, compute_uv=False)
        if n == 1 or sv[n - 2] >= 0.1 * max(sv[0], 1e-30):
            break
    Q = G.T @ G
    est = spectral_norm_est(Q)
    if est > 1e-12:
        Q = Q / est
    else:
        Q = np.zeros((n, n))
    return 0.5 * (Q + Q.T)


def _orthogonal_columns_matrix(rng, m, n, ybar):
    """Random matrix whose columns are orthogonal to ``ybar``.

    The nonzero singular values are floored at 0.3 of the largest so the
    difference sequences of both solvers converge at a healthy rate;
    directions beyond the generic rank are zeroed, which keeps ``ybar``
    exactly in the null space of the adjoint.
    """
    sq = float(ybar @ ybar)
    A = rng.matrix(m, n)
    A = A - np.outer(ybar, ybar @ A) / sq
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    r = min(n, m - 1)
    if r > 0 and s[0] > 1e-12:
        s[:r] = np.maximum(s[:r], 0.3 * s[0])
        s[r:] = 0.0
        A = U @ (s[:, None] * Vt)
        A = A - np.outer(ybar, ybar @ A) / sq
    return _rescaled(A)


def _soc_vector(rng, dim, strict=True):
    """A vector inside the second-order cone of the given dimension."""
    if dim == 1:
        return np.array([rng.uniform_in(0.1, 1.0)])
    xw = rng.vector(dim - 1)
    slack = rng.uniform_in(0.2, 1.0) if strict else 0.0
    t = float(np.linalg.norm(xw)) * (1.0 + slack) + (0.05 if strict else 0.0)
    return np.concatenate(([t], xw))


def _neg_soc_polar_vector(rng, dim):
    """A vector strictly inside the polar (negated) second-order cone."""
    v = _soc_vector(rng, dim, strict=True)
    v[0] = -v[0]
    return v


def gen_feasible(seed, n, m, set_family="box"):
    """Problem with a known KKT triple; Q is positive definite."""
    if set_family not in SET_FAMILIES:
        raise ValueError(f"unknown set family {set_family!r}")
    if n < 1 or m < 1:
        raise ValueError("n and m must be at least 1")
    rng = SplitMix64(seed)
    x_star = rng.vector(n)
    if float(np.linalg.norm(x_star)) < 1e-3:
        x_star = x_star + 0.5
    Q = _psd_matrix(rng, n)
    A = rng.matrix(m, n)
    y_star = np.zeros(m)

    if set_family == "box":
        A = _rescaled(A)
        z_star = A @ x_star
        C, y_star = _box_around(rng, z_star)
    elif set_family == "orthant":
        sq = float(x_star @ x_star)
        active = np.array([rng.uniform() < 0.3 for _ in range(m)])
        for i in range(m):
            if active[i]:
                A[i] = A[i] - (float(A[i] @ x_star) / sq) * x_star
            elif float(A[i] @ x_star) < 0.0:
                A[i] = -A[i]
        A = _rescaled(A)
        z_star = A @ x_star
        C = NonnegativeOrthant(m)
        y_star = np.array(
            [-rng.uniform_in(0.1, 1.0) if active[i] else 0.0
             for i in range(m)])
    elif set_family == "translated_cone":
        A = _rescaled(A)
        z_star = A @ x_star
        boundary = rng.uniform() < 0.5 and m >= 2
        if boundary:
            xw = rng.vector(m - 1)
            w = np.concatenate(([float(np.linalg.norm(xw))], xw))
            lam = rng.uniform_in(0.1, 1.0)
            y_star = lam * np.concatenate(([-1.0], xw / np.linalg.norm(xw)))
        else:
            w = _soc_vector(rng, m)
            y_star = np.zeros(m)
        C = TranslatedCone(z_star - w, SecondOrderCone(m))
    else:  # box_soc
        if m < 2:
            raise ValueError("box_soc needs m >= 2")
        m1 = m // 2
        m2 = m - m1
        sq = float(x_star @ x_star)
        if m2 == 1:
            target = rng.uniform_in(0.1, 1.0)
        else:
            rest = A[m1 + 1:] @ x_star
            target = float(np.linalg.norm(rest)) * (
                1.0 + rng.uniform_in(0.2, 1.0)) + 0.05
        A[m1] = A[m1] + ((target - float(A[m1] @ x_star)) / sq) * x_star
        A = _rescaled(A)
        z_star = A @ x_star
        box, y_box = _box_around(rng, z_star[:m1])
        C = Cartesian([box, SecondOrderCone(m2)])
        y_star = np.concatenate([y_box, np.zeros(m2)])

    q = -(Q @ x_star + A.T @ y_star)
    problem = ProblemData(Q=Q, q=q, A=A, C=C)
    truth = {"kind": "kkt", "x": x_star, "z": z_star, "y": y_star}
    return InstanceBundle(problem=problem, truth=truth, seed=seed,
                          family=set_family)


def _box_around(rng, z):
    """A box containing ``z`` with a random active pattern and its normal."""
    m = z.shape[0]
    lower = np.empty(m)
    upper = np.empty(m)
    y = np.zeros(m)
    for i in range(m):
        mode = rng.uniform()
        below = rng.uniform_in(0.1, 1.1)
        above = rng.uniform_in(0.1, 1.1)
        if mode < 0.5:
            lower[i] = z[i] - below
            upper[i] = z[i] + above
            if mode < 0.1:
                lower[i] = -np.inf
            elif mode < 0.2:
                upper[i] = np.inf
        elif mode < 0.75:
            lower[i] = z[i] - below
            upper[i] = z[i]
            y[i] = rng.uniform_in(0.1, 1.0)
        else:
            lower[i] = z[i]
            upper[i] = z[i] + above
            y[i] = -rng.uniform_in(0.1, 1.0)
    return Box(lower, upper), y


def gen_primal_infeasible(seed, n, m, set_family="box"):
    """Problem whose constraints are strongly infeasible, with certificate.

    The certificate ybar has unit norm, the columns of A are orthogonal
    to it, and the set satisfies support_C(ybar) = -0.5. Q is positive
    definite, which rules out a simultaneous dual certificate.
    """
    if set_family not in SET_FAMILIES:
        raise ValueError(f"unknown set family {set_family!r}")
    if n < 1 or m < 1:
        raise ValueError("n and m must be at least 1")
    if m < 2:
        raise ValueError("primal infeasible generation needs m >= 2")
    rng = SplitMix64(seed)

    if set_family == "box":
        ybar = rng.vector(m)
        ybar = ybar / float(np.linalg.norm(ybar))
        h = np.array([rng.uniform_in(0.1, 1.0) for _ in range(m)])
        s = float(h @ np.abs(ybar)) + _MARGIN
        center = -s * ybar
        C = Box(center - h, center + h)
    elif set_family == "orthant":
        ybar = -np.array([rng.uniform_in(0.05, 1.0) for _ in range(m)])
        ybar = ybar / float(np.linalg.norm(ybar))
        C = TranslatedCone(_shifted_offset(rng, ybar), NonnegativeOrthant(m))
    elif set_family == "translated_cone":
        ybar = _neg_soc_polar_vector(rng, m)
        ybar = ybar / float(np.linalg.norm(ybar))
        C = TranslatedCone(_shifted_offset(rng, ybar), SecondOrderCone(m))
    else:  # box_soc
        m1 = m // 2
        m2 = m - m1
        y1 = rng.vector(m1)
        if m2 == 1:
            y2 = np.array([-rng.uniform_in(0.1, 1.0)])
        else:
            y2 = _neg_soc_polar_vector(rng, m2)
        ybar = np.concatenate([y1, y2])
        ybar = ybar / float(np.linalg.norm(ybar))
        y1 = ybar[:m1]
        h = np.array([rng.uniform_in(0.1, 1.0) for _ in range(m1)])
        s = float(h @ np.abs(y1)) + _MARGIN
        sq1 = float(y1 @ y1)
        center = (-s / sq1) * y1 if sq1 > 1e-12 else -s * np.ones(m1)
        C = Cartesian([Box(center - h, center + h), SecondOrderCone(m2)])

    A = _orthogonal_columns_matrix(rng, m, n, ybar)
    Q = _psd_matrix(rng, n)
    q = rng.vector(n)
    problem = ProblemData(Q=Q, q=q, A=A, C=C)
    rank = np.linalg.matrix_rank(A, tol=1e-8)
    unique = bool(m - rank == 1)
    truth = {"kind": "primal_certificate", "vector": ybar}
    return InstanceBundle(problem=problem, truth=truth, seed=seed,
                          family=set_family, unique_direction=unique)


def _shifted_offset(rng, ybar):
    """An offset whose inner product with ``ybar`` equals -MARGIN."""
    a0 = rng.vector(ybar.shape[0])
    sq = float(ybar @ ybar)
    return a0 - ((float(a0 @ ybar) + _MARGIN) / sq) * ybar


def gen_dual_infeasible(seed, n, m, set_family="box"):
    """Problem whose dual is strongly infeasible, with certificate.

    The certificate xbar has unit norm, Q annihilates it (rank n-1), the
    constraint set is unbounded along A xbar, and <q, xbar> = -0.5. The
    primal problem stays feasible by construction.
    """
    if set_family not in SET_FAMILIES:
        raise ValueError(f"unknown set family {set_family!r}")
    if n < 1 or m < 1:
        raise ValueError("n and m must be at least 1")
    rng = SplitMix64(seed)
    xbar = rng.vector(n)
    xbar = xbar / float(np.linalg.norm(xbar))
    Q = _psd_with_null(rng, n, xbar)
    sq = float(xbar @ xbar)
    A = rng.matrix(m, n)

    if set_family == "box":
        bounded = np.array([rng.uniform() < 0.4 for _ in range(m)])
        for i in range(m):
            if bounded[i]:
                A[i] = A[i] - (float(A[i] @ xbar) / sq) * xbar
        A = _rescaled(A)
        d = A @ xbar
        lower = np.empty(m)
        upper = np.empty(m)
        for i in range(m):
            lo = -rng.uniform_in(0.1, 1.0)
            hi = rng.uniform_in(0.1, 1.0)
            if bounded[i]:
                lower[i], upper[i] = lo, hi
            elif d[i] > 0:
                lower[i], upper[i] = lo, np.inf
            else:
                lower[i], upper[i] = -np.inf, hi
        C = Box(lower, upper)
    elif set_family == "orthant":
        bounded = np.array([rng.uniform() < 0.3 for _ in range(m)])
        for i in range(m):
            if bounded[i]:
                A[i] = A[i] - (float(A[i] @ xbar) / sq) * xbar
            elif float(A[i] @ xbar) < 0.0:
                A[i] = -A[i]
        A = _rescaled(A)
        C = NonnegativeOrthant(m)
    elif set_family == "translated_cone":
        rest = A[1:] @ xbar if m >= 2 else np.zeros(0)
        target = float(np.linalg.norm(rest)) * (
            1.0 + rng.uniform_in(0.2, 1.0)) + 0.05
        A[0] = A[0] + ((target - float(A[0] @ xbar)) / sq) * xbar
        A = _rescaled(A)
        x_f = rng.vector(n)
        w = _soc_vector(rng, m)
        C = TranslatedCone(A @ x_f - w, SecondOrderCone(m))
    else:  # box_soc
        if m < 2:
            raise ValueError("box_soc needs m >= 2")
        m1 = m // 2
        m2 = m - m1
        bounded = np.array([rng.uniform() < 0.4 for _ in range(m1)])
        for i in range(m1):
            if bounded[i]:
                A[i] = A[i] - (float(A[i] @ xbar) / sq) * xbar
        if m2 == 1:
            if float(A[m1] @ xbar) < 0.0:
                A[m1] = -A[m1]
        else:
            rest = A[m1 + 1:] @ xbar
            target = float(np.linalg.norm(rest)) * (
                1.0 + rng.uniform_in(0.2, 1.0)) + 0.05
            A[m1] = A[m1] + ((target - float(A[m1] @ xbar)) / sq) * xbar
        A = _rescaled(A)
        d = A @ xbar
        lower = np.empty(m1)
        upper = np.empty(m1)
        for i in range(m1):
            lo = -rng.uniform_in(0.1, 1.0)
            hi = rng.uniform_in(0.1, 1.0)
            if bounded[i]:
                lower[i], upper[i] = lo, hi
            elif d[i] > 0:
                lower[i], upper[i] = lo, np.inf
            else:
                lower[i], upper[i] = -np.inf, hi
        C = Cartesian([Box(lower, upper), SecondOrderCone(m2)])

    q0 = rng.vector(n)
    q = q0 - ((float(q0 @ xbar) + _MARGIN) / sq) * xbar
    problem = ProblemData(Q=Q, q=q, A=A, C=C)
    truth = {"kind": "dual_certificate", "vector": xbar}
    return InstanceBundle(problem=problem, truth=truth, seed=seed,
                          family=set_family, unique_direction=True)


def generate(kind, seed, n, m, set_family="box"):
    """Dispatch on the truth kind; used by the command-line generator."""
    if kind == "feasible":
        return gen_feasible(seed, n, m, set_family)
    if kind == "primal_infeasible":
        return gen_primal_infeasible(seed, n, m, set_family)
    if kind == "dual_infeasible":
        return gen_dual_infeasible(seed, n, m, set_family)
    raise ValueError(f"unknown instance kind {kind!r}")
