"""Dense linear-algebra substrate shared by both solvers.

Vectors are 1-d float ndarrays and matrices are 2-d row-major float
ndarrays; the helpers here add the validation both solvers rely on
(finite entries, matching dimensions) plus a factor-once SPD solve,
which forms the inverse once so that every solve is one matrix-vector
product. Everything is desk-scale dense; there is no sparse path.

``as_vector`` returns a float64 ndarray of rank one and the right length
at once when ``np.vdot(x, x)`` (it never warns) is finite; anything else
takes the full path, which decides the result and message as before.

``potrf``, ``potrs`` and ``potri`` are scipy's compiled routines, loaded
from ``scipy.linalg._flapack`` without importing ``scipy.linalg``, which
is most of a CLI call's start-up. PP calls them through ``scipy_seam``.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
import types

import numpy as np
import scipy

SYMMETRY_ATOL = 1e-12
POWER_ITERS = 100  # spectral_norm_est's most power-iteration steps
POWER_TOL = 1e-12  # it stops once its estimate moves <= this * max(1, est)

_SPEC = importlib.machinery.PathFinder.find_spec(
    "scipy.linalg._flapack", [f"{path}/linalg" for path in scipy.__path__])
_flapack = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(_flapack)
if "scipy.linalg" not in sys.modules:  # its import then registers its own
    sys.modules.pop(_SPEC.name, None)


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Raised when an SPD factorization meets a non-positive pivot."""


def as_vector(x, dim=None, name="vector"):
    """Validate and return ``x`` as a finite 1-d float array.

    Raises ValueError on non-finite entries, wrong rank, or (when ``dim``
    is given) wrong length.
    """
    if (type(x) is np.ndarray and x.dtype == float and x.ndim == 1 and
            (dim is None or x.shape[0] == dim) and np.vdot(x, x) < np.inf):
        return x
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} has non-finite entries")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"{name} has dimension {v.shape[0]}, expected {dim}")
    return v


def as_matrix(M, shape=None, name="matrix"):
    """Validate and return ``M`` as a finite 2-d float array."""
    A = np.asarray(M, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError(f"{name} has non-finite entries")
    if shape is not None and A.shape != tuple(shape):
        raise ValueError(f"{name} has shape {A.shape}, expected {tuple(shape)}")
    return A


def require_positive(value, name):
    """Raise ValueError unless ``value`` is finite and above zero."""
    if not 0.0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite")


def inf_norm(v):
    """Max-abs norm along the last axis, 0.0 when that axis is empty: a
    float for a vector, an array for the rows of a stack. The maximum is
    exact, so a row's norm is bitwise its ``inf_norm``."""
    norms = np.maximum.reduce(np.abs(v), axis=-1, initial=0.0)
    return float(norms) if v.ndim == 1 else norms


def matvecs(M, v):
    """``M @ v`` for a vector, or ``M @ row`` for each row of a stack, in
    one batched ``matmul``: numpy runs the same ``gemv`` per row, so each
    row is bitwise the product of a vector."""
    return np.matmul(M, v[..., None])[..., 0]


def symmetrize(M):
    """Return ``(M + M.T) / 2``; guards against file round-trip noise."""
    return 0.5 * (M + M.T)


def cho_factor(a, lower=True, check_finite=False):
    """``(c, lower)`` from ``potrf``, with no finiteness scan whatever
    ``check_finite`` says. A non-positive pivot raises
    NotPositiveDefiniteError, a numpy LinAlgError and a ValueError."""
    c, info = _flapack.dpotrf(a, lower=lower, clean=False)
    if info > 0:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite (pivot {info} is not positive)")
    if info < 0:
        raise ValueError(f"potrf failed with info {info}")
    return c, lower


def cho_solve(c_and_lower, b, check_finite=False):
    """``potrs`` on a ``cho_factor`` result, with no finiteness scan; a
    mismatched ``b`` raises ValueError."""
    c, lower = c_and_lower
    x, info = _flapack.dpotrs(c, b, lower=lower)
    if info:
        raise ValueError(f"potrs failed with info {info}")
    return x


# ``pp.scipy``, kept only so that perfbench's tracer and tests/test_newton.py
# can swap in scipy's own cho_*; ROADMAP item 5 step 2 deletes it
scipy_seam = types.SimpleNamespace(linalg=types.SimpleNamespace(
    cho_factor=cho_factor, cho_solve=cho_solve))


class SpdFactor:
    """Exact inverse of a symmetric positive-definite matrix, from its
    Cholesky factor.

    Factor and invert once, solve many times; only the inverse is kept.
    The constructor runs LAPACK ``potri`` on the lower factor ``cho[0]``
    and mirrors the lower triangle so that the inverse is symmetric bit
    for bit. A solve checks ``b`` against the inverse's order and returns
    ``inverse @ b``. That one ``gemv`` runs about four times faster than
    the two triangular solves of ``potrs`` with one right-hand side
    (n=300, one BLAS thread), with a forward error of the same order,
    cond(M) times rounding.
    """

    def __init__(self, cho):
        c = cho[0]
        n = c.shape[0]
        if n == 0:  # potri rejects empty operands
            self._inverse = np.zeros((0, 0))
            return
        inv, info = _flapack.dpotri(c, lower=True)
        if info != 0:
            raise ValueError(f"potri failed with info {info}")
        # potri fills the lower triangle; copy it onto the upper one
        self._inverse = np.where(np.tri(n, dtype=bool), inv, inv.T)

    def solve(self, b):
        b = as_vector(b, dim=self._inverse.shape[0], name="right-hand side")
        return self._inverse @ b


def spd_factor(M):
    """Factor and invert a symmetric positive-definite matrix for repeated
    solves.

    The input must be symmetric within ``SYMMETRY_ATOL`` per entry; it is
    symmetrized, and must stay finite, before factoring. Raises
    NotPositiveDefiniteError when a pivot is not positive.
    """
    M = as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"matrix must be square, got shape {M.shape}")
    if inf_norm((M - M.T).ravel()) > SYMMETRY_ATOL:
        raise ValueError(f"matrix is not symmetric within tolerance {SYMMETRY_ATOL:g}")
    return SpdFactor(
        cho_factor(as_matrix(symmetrize(M), name="symmetrized matrix")))


def spectral_norm_est(M):
    """Estimate the spectral norm of ``M`` by power iteration on M.T @ M.

    Deterministic: the start vector is fixed, so the same matrix always
    yields the same estimate.
    """
    M = as_matrix(M)
    n = M.shape[1]
    v = np.ones(n) + 1e-3 * np.arange(n)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(POWER_ITERS):
        w = M.T @ (M @ v)
        nw = np.linalg.norm(w)
        if nw <= 1e-300:
            return 0.0
        est_next = np.sqrt(nw)
        if abs(est_next - est) <= POWER_TOL * max(1.0, est_next):
            return est_next
        v, est = w / nw, est_next
    return est
