"""Generators for problems with analytic ground truth.

Randomness comes from a SplitMix64 stream so the same seed reproduces
the same instance bit-for-bit, in any implementation of the generator:

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state; z <- (z xor (z >> 30)) * 0xBF58476D1CE4E5B9 mod 2^64
    z <- (z xor (z >> 27)) * 0x94D049BB133111EB mod 2^64
    output z xor (z >> 31)

Uniform doubles in [0, 1) take the top 53 bits; matrix and vector
entries are uniform in [-1, 1]. Uniforms, vectors and matrices are drawn
as one block: the k-th entry (rows first) comes from the state
state + k * 0x9E3779B97F4A7C15 in numpy uint64 arithmetic, which wraps
mod 2^64, so the block equals the scalar stream bit for bit and leaves
the same state. Per-row draws stay scalar only where a row's draw
depends on an earlier one (whether the row gets a multiplier). Constraint
matrices are rescaled to a unit spectral-norm estimate so the default
solver tolerances behave the same across sizes.

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

    def uniforms(self, n):
        """``n`` draws of ``uniform()`` as one block; uint64 arrays wrap."""
        k = np.arange(1, n + 1, dtype=np.uint64)
        z = np.uint64(self.state) + k * np.uint64(_GAMMA)
        self.state = (self.state + n * _GAMMA) & _MASK
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        return (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53

    def vector(self, n):
        """``n`` draws of ``symmetric()`` as one block."""
        return 2.0 * self.uniforms(n) - 1.0

    def matrix(self, m, n):
        """``m * n`` draws of ``symmetric()``, filling rows first."""
        return self.vector(m * n).reshape(m, n)


@dataclass
class InstanceBundle:
    """A generated problem plus its ground-truth artifact.

    ``truth`` is a dict with key ``kind`` in {"kkt",
    "primal_certificate", "dual_certificate"} and the matching payload
    arrays.
    """

    problem: ProblemData
    truth: dict


def _check_args(set_family, n, m):
    if set_family not in SET_FAMILIES:
        raise ValueError(f"unknown set family {set_family!r}")
    if n < 1 or m < 1:
        raise ValueError("n and m must be at least 1")


def _uniforms_in(rng, lo, hi, n):
    """``n`` draws of ``uniform_in(lo, hi)`` as one block."""
    return lo + (hi - lo) * rng.uniforms(n)


def _rescaled(M, tiny=None):
    """``M`` over its spectral-norm estimate; ``tiny`` (default ``M``) when
    the estimate is at most 1e-12."""
    est = spectral_norm_est(M)
    if est > 1e-12:
        return M / est
    return M if tiny is None else tiny


def _psd_matrix(rng, n):
    """Random PSD (almost surely PD) matrix with unit spectral estimate."""
    G = rng.matrix(2 * n, n)
    Q = _rescaled(G.T @ G)
    return 0.5 * (Q + Q.T)


def _psd_with_null(rng, n, xbar):
    """Random PSD matrix that kills ``xbar``; rank n-1 almost surely."""
    for _ in range(64):
        G = rng.matrix(2 * n, n)
        G = G - np.outer(G @ xbar, xbar) / float(xbar @ xbar)
        sv = np.linalg.svd(G, compute_uv=False)
        if n == 1 or sv[n - 2] >= 0.1 * max(sv[0], 1e-30):
            break
    Q = _rescaled(G.T @ G, tiny=np.zeros((n, n)))
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


def _soc_vector(rng, dim):
    """A vector strictly inside the second-order cone of dimension ``dim``."""
    if dim == 1:
        return np.array([rng.uniform_in(0.1, 1.0)])
    xw = rng.vector(dim - 1)
    slack = rng.uniform_in(0.2, 1.0)
    t = float(np.linalg.norm(xw)) * (1.0 + slack) + 0.05
    return np.concatenate(([t], xw))


def _neg_soc_polar_vector(rng, dim):
    """A vector strictly inside the polar (negated) second-order cone."""
    v = _soc_vector(rng, dim)
    v[0] = -v[0]
    return v


def _tilt_into_soc(rng, A, k, x):
    """Shift row ``k`` of A along ``x`` so that ``A[k] @ x`` strictly
    exceeds ``||A[k+1:] @ x||``: ``A[k:] @ x`` lies inside the SOC."""
    target = float(np.linalg.norm(A[k + 1:] @ x)) * (
        1.0 + rng.uniform_in(0.2, 1.0)) + 0.05
    A[k] = A[k] + ((target - float(A[k] @ x)) / float(x @ x)) * x


def _pin_rows(A, x, pinned, flip_rest):
    """Make ``A[i] @ x`` zero on the ``pinned`` rows; with ``flip_rest``,
    negate the other rows where it is negative."""
    sq = float(x @ x)
    for i, pin in enumerate(pinned):
        if pin:
            A[i] = A[i] - (float(A[i] @ x) / sq) * x
        elif flip_rest and float(A[i] @ x) < 0.0:
            A[i] = -A[i]


def _recession_box(rng, bounded, d):
    """Box of ``len(bounded)`` rows, unbounded along ``d`` where not ``bounded``."""
    pairs = _uniforms_in(rng, 0.1, 1.0, 2 * len(bounded))
    up = d[:len(bounded)] > 0
    return Box(np.where(bounded | up, -pairs[0::2], -np.inf),
               np.where(bounded | ~up, pairs[1::2], np.inf))


def gen_feasible(seed, n, m, set_family="box"):
    """Problem with a known KKT triple; Q is positive definite."""
    _check_args(set_family, n, m)
    rng = SplitMix64(seed)
    x_star = rng.vector(n)
    if float(np.linalg.norm(x_star)) < 1e-3:
        x_star = x_star + 0.5
    Q = _psd_matrix(rng, n)
    A = rng.matrix(m, n)

    if set_family == "box":
        A = _rescaled(A)
        z_star = A @ x_star
        C, y_star = _box_around(rng, z_star)
    elif set_family == "orthant":
        active = rng.uniforms(m) < 0.3
        _pin_rows(A, x_star, active, flip_rest=True)
        A = _rescaled(A)
        z_star = A @ x_star
        C = NonnegativeOrthant(m)
        y_star = np.array(
            [-rng.uniform_in(0.1, 1.0) if a else 0.0 for a in active])
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
        if m2 == 1:
            sq = float(x_star @ x_star)
            target = rng.uniform_in(0.1, 1.0)
            A[m1] = A[m1] + ((target - float(A[m1] @ x_star)) / sq) * x_star
        else:
            _tilt_into_soc(rng, A, m1, x_star)
        A = _rescaled(A)
        z_star = A @ x_star
        box, y_box = _box_around(rng, z_star[:m1])
        C = Cartesian([box, SecondOrderCone(m2)])
        y_star = np.concatenate([y_box, np.zeros(m2)])

    q = -(Q @ x_star + A.T @ y_star)
    problem = ProblemData(Q=Q, q=q, A=A, C=C)
    truth = {"kind": "kkt", "x": x_star, "z": z_star, "y": y_star}
    return InstanceBundle(problem=problem, truth=truth)


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
    _check_args(set_family, n, m)
    if m < 2:
        raise ValueError("primal infeasible generation needs m >= 2")
    rng = SplitMix64(seed)

    if set_family == "box":
        ybar = rng.vector(m)
        ybar = ybar / float(np.linalg.norm(ybar))
        h = _uniforms_in(rng, 0.1, 1.0, m)
        s = float(h @ np.abs(ybar)) + _MARGIN
        center = -s * ybar
        C = Box(center - h, center + h)
    elif set_family == "orthant":
        ybar = -_uniforms_in(rng, 0.05, 1.0, m)
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
        y2 = _neg_soc_polar_vector(rng, m2)
        ybar = np.concatenate([y1, y2])
        ybar = ybar / float(np.linalg.norm(ybar))
        y1 = ybar[:m1]
        h = _uniforms_in(rng, 0.1, 1.0, m1)
        s = float(h @ np.abs(y1)) + _MARGIN
        sq1 = float(y1 @ y1)
        center = (-s / sq1) * y1 if sq1 > 1e-12 else -s * np.ones(m1)
        C = Cartesian([Box(center - h, center + h), SecondOrderCone(m2)])

    A = _orthogonal_columns_matrix(rng, m, n, ybar)
    Q = _psd_matrix(rng, n)
    q = rng.vector(n)
    problem = ProblemData(Q=Q, q=q, A=A, C=C)
    truth = {"kind": "primal_certificate", "vector": ybar}
    return InstanceBundle(problem=problem, truth=truth)


def _shifted_offset(rng, ybar):
    """A random vector whose inner product with ``ybar`` equals -MARGIN."""
    a0 = rng.vector(ybar.shape[0])
    sq = float(ybar @ ybar)
    return a0 - ((float(a0 @ ybar) + _MARGIN) / sq) * ybar


def gen_dual_infeasible(seed, n, m, set_family="box"):
    """Problem whose dual is strongly infeasible, with certificate.

    The certificate xbar has unit norm, Q annihilates it (rank n-1), the
    constraint set is unbounded along A xbar, and <q, xbar> = -0.5. The
    primal problem stays feasible by construction.
    """
    _check_args(set_family, n, m)
    rng = SplitMix64(seed)
    xbar = rng.vector(n)
    xbar = xbar / float(np.linalg.norm(xbar))
    Q = _psd_with_null(rng, n, xbar)
    A = rng.matrix(m, n)

    if set_family == "box":
        bounded = rng.uniforms(m) < 0.4
        _pin_rows(A, xbar, bounded, flip_rest=False)
        A = _rescaled(A)
        C = _recession_box(rng, bounded, A @ xbar)
    elif set_family == "orthant":
        _pin_rows(A, xbar, rng.uniforms(m) < 0.3, flip_rest=True)
        A = _rescaled(A)
        C = NonnegativeOrthant(m)
    elif set_family == "translated_cone":
        _tilt_into_soc(rng, A, 0, xbar)
        A = _rescaled(A)
        x_f = rng.vector(n)
        w = _soc_vector(rng, m)
        C = TranslatedCone(A @ x_f - w, SecondOrderCone(m))
    else:  # box_soc
        if m < 2:
            raise ValueError("box_soc needs m >= 2")
        m1 = m // 2
        m2 = m - m1
        bounded = rng.uniforms(m1) < 0.4
        _pin_rows(A, xbar, bounded, flip_rest=False)
        if m2 == 1:
            _pin_rows(A[m1:], xbar, [False], flip_rest=True)
        else:
            _tilt_into_soc(rng, A, m1, xbar)
        A = _rescaled(A)
        C = Cartesian([_recession_box(rng, bounded, A @ xbar),
                       SecondOrderCone(m2)])

    q = _shifted_offset(rng, xbar)
    problem = ProblemData(Q=Q, q=q, A=A, C=C)
    truth = {"kind": "dual_certificate", "vector": xbar}
    return InstanceBundle(problem=problem, truth=truth)


# truth kind -> its generator; the choices of ``splitqp generate``, in order
KINDS = {"feasible": gen_feasible, "primal_infeasible": gen_primal_infeasible,
         "dual_infeasible": gen_dual_infeasible}


def generate(kind, seed, n, m, set_family="box"):
    """Dispatch on the truth kind; used by the command-line generator."""
    if kind not in KINDS:
        raise ValueError(f"unknown instance kind {kind!r}")
    return KINDS[kind](seed, n, m, set_family)
