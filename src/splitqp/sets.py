"""Compositional descriptors of nonempty closed convex sets.

Each descriptor knows its exact Euclidean projection, support function,
recession-cone projection, and the generalized derivative of the
projection map (used by the semismooth Newton inner solver) in the
structured form ``ProjectionJacobian``: a diagonal plus local terms of
rank at most two, never a dense matrix. The polar
recession projection is always the Moreau complement ``d - proj_rec(d)``
so the decomposition identity holds bit-exactly.

The six public methods live on ``SetDescriptor`` and validate their
input once (a finite 1-d vector of length ``dim``, else ValueError);
then they call unchecked kernels. A new set sets ``self.dim`` in its
constructor and supplies four kernels: ``_project``, ``_support``,
``_recession`` and ``_jacobian``. A cone supplies only ``_project`` and
``_jacobian``: its polar distance defaults to the Moreau form. A point
is the zero cone translated by it (``Singleton``).

``_support`` and ``_recession`` also take the ``(k, dim)`` stack of a
traced block: ``_support`` returns k values, ``_recession`` a stack, each
row bitwise the kernel's value for that row alone. ``_per_row`` calls a
kernel once per row where the last axis would change its bits: Halfspace's
``_support`` and ``_recession`` and Ball's ``_support``. Dot products stay
1-d per row, since a matrix product adds in another order. The rest take
vectors.

Support functions of cones are 0 on the polar cone and +inf elsewhere;
deciding polar membership in floating point needs a tolerance, exposed
as ``cone_tol`` (times ``max(1, ||y||_inf)``, default
``CONE_MEMBERSHIP_TOL``). Certificate checks pass their own epsilon.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import as_vector, inf_norm

CONE_MEMBERSHIP_TOL = 1e-12

# Halfspace support needs a parallelism test; exact parallelism never
# holds in floating point.
HALFSPACE_PARALLEL_TOL = 1e-9


def _norm(v):
    """``np.linalg.norm(v)`` of a 1-d float vector, without its wrapper.

    The same dot product of the raveled vector and the same correctly
    rounded square root, so the value is bitwise numpy's.
    """
    v = v.ravel()
    return math.sqrt(float(v.dot(v)))


def _per_row(kernel):
    """A kernel of one vector, called per row on a stack."""
    def rows(self, v, *args):
        if v.ndim == 1:
            return kernel(self, v, *args)
        return np.array([kernel(self, row, *args) for row in v])
    return rows


def _as_bounds(x, name):
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional")
    if np.any(np.isnan(v)):
        raise ValueError(f"{name} has NaN entries")
    return v


class ProjectionJacobian:
    """Structured element D of the generalized derivative of a projection.

    Represents the symmetric matrix

        D = diag(d) + sum over terms (start, U, N) of E U N U.T E.T

    where ``E`` embeds the coordinates ``start:start + len(U)``, ``U`` has
    at most two columns and ``N`` is a small symmetric matrix. ``blocks``
    lists ``(start, stop, alpha)`` for cone blocks on a curved boundary:
    there ``d`` equals ``alpha`` (a scaled identity) and one term adds the
    low-rank rest. Outside the blocks ``d`` is a 0/1 mask (0 = clamped).

    D is curved, varying with the point within its branch, exactly when
    ``blocks`` is non-empty (a Ball or second-order cone on its
    boundary). Otherwise D is constant on its branch and
    ``pattern_key()`` identifies it: equal keys from the same set mean
    equal matrices.
    """

    __slots__ = ("d", "terms", "blocks")

    def __init__(self, d, terms=(), blocks=()):
        self.d = d
        self.terms = terms
        self.blocks = blocks

    @classmethod
    def scaled_block(cls, alpha, U, N):
        """``alpha * I + U N U.T`` on one cone block of its own dimension."""
        dim = U.shape[0]
        return cls(np.full(dim, alpha), terms=[(0, U, N)],
                   blocks=[(0, dim, alpha)])

    @classmethod
    def concat(cls, parts):
        """Block-diagonal composition, in coordinate order."""
        terms, blocks, offset = [], [], 0
        for J in parts:
            terms.extend((start + offset, U, N) for start, U, N in J.terms)
            blocks.extend((lo + offset, hi + offset, alpha)
                          for lo, hi, alpha in J.blocks)
            offset += J.d.shape[0]
        return cls(np.concatenate([J.d for J in parts]), terms, blocks)

    def pattern_key(self):
        """Hashable active pattern, or None when D is curved."""
        if self.blocks:
            return None
        return self.d.tobytes(), tuple(start for start, _, _ in self.terms)


class SetDescriptor:
    """Base class: the public set methods, each validating its input once.

    A concrete set sets the int attribute ``dim`` and supplies four
    kernels that take an already checked 1-d float vector of length
    ``dim``: ``_project(v)``, ``_support(y, cone_tol)``, ``_recession(d)``
    (projection onto the recession cone) and ``_jacobian(v)``. Composite
    sets call their parts' kernels on slices of the vector checked here.
    """

    def _check_dim(self, v, name="vector"):
        return as_vector(v, dim=self.dim, name=name)

    def project(self, v):
        """Euclidean projection of ``v`` onto the set."""
        return self._project(self._check_dim(v))

    def support(self, y, cone_tol=CONE_MEMBERSHIP_TOL):
        """Support function value at ``y``; may be +inf."""
        return float(self._support(self._check_dim(y), cone_tol))

    def project_recession(self, d):
        """Projection of ``d`` onto the recession cone of the set."""
        return self._recession(self._check_dim(d))

    def projection_jacobian(self, v):
        """An element of the generalized derivative of the projection.

        Returned as a ``ProjectionJacobian``. Kinks resolve
        deterministically to the clamped branch.
        """
        return self._jacobian(self._check_dim(v))

    def project_polar_recession(self, d):
        """Moreau complement: ``d - project_recession(d)``."""
        d = self._check_dim(d)
        return d - self._recession(d)

    def distance_to_recession(self, d):
        """Euclidean distance of ``d`` from the recession cone."""
        return _norm(self.project_polar_recession(d))


class Box(SetDescriptor):
    """Axis-aligned box ``{v : lower <= v <= upper}``.

    Bounds may be infinite; a box with all bounds infinite is the whole
    space. Nonempty by construction (lower <= upper enforced). The bounds
    are read-only after construction: the kernels cache data derived
    from them.
    """

    def __init__(self, lower, upper):
        lower = _as_bounds(lower, "lower")
        upper = _as_bounds(upper, "upper")
        if lower.shape != upper.shape:
            raise ValueError("lower and upper bounds differ in dimension")
        if np.any(lower == np.inf) or np.any(upper == -np.inf):
            raise ValueError("lower bounds must be < +inf and upper > -inf")
        if np.any(lower > upper):
            raise ValueError("box is empty: some lower bound exceeds its upper bound")
        self.lower = lower
        self.upper = upper
        self.dim = lower.shape[0]
        self._lower_inf, self._upper_inf = np.isinf(lower), np.isinf(upper)
        self._lower_finite = np.where(self._lower_inf, 0.0, lower)
        self._upper_finite = np.where(self._upper_inf, 0.0, upper)
        self._rec_lower = np.where(self._lower_inf, -np.inf, 0.0)
        self._rec_upper = np.where(self._upper_inf, np.inf, 0.0)

    project = SetDescriptor.project  # perfbench's tests read Box.__dict__

    def _project(self, v):
        return np.minimum(np.maximum(v, self.lower), self.upper)

    def _support(self, y, cone_tol):
        up = y > 0.0
        unbounded = np.where(up, self._upper_inf, (y < 0.0) & self._lower_inf)
        # sums in order from +0.0, bitwise a loop of ``total += term``; the
        # +-0.0 term of a zero y_i (even at an infinite bound) leaves a sum
        # that never reaches -0.0 unchanged
        terms = np.where(up, self._upper_finite, self._lower_finite) * y
        sums = np.add.accumulate(np.concatenate(
            (np.zeros(y.shape[:-1] + (1,)), terms), axis=-1), axis=-1)
        return np.where(unbounded.any(axis=-1), np.inf, sums[..., -1])

    def _recession(self, d):
        return np.minimum(np.maximum(d, self._rec_lower), self._rec_upper)

    def _jacobian(self, v):
        free = (v > self.lower) & (v < self.upper)
        return ProjectionJacobian(free.astype(float))


class _Cone(SetDescriptor):
    """A closed convex cone: its own recession cone, support 0 or +inf.

    Subclasses add ``_project`` and ``_jacobian``. ``_polar_distance(y)``
    is the inf-norm distance of ``y`` from the polar cone; by Moreau's
    decomposition it is the norm of ``y``'s projection onto the cone.
    """

    def __init__(self, dim):
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        self.dim = int(dim)

    def _recession(self, d):
        return self._project(d)

    def _polar_distance(self, y):
        return inf_norm(self._recession(y))

    def _in_polar(self, y, cone_tol):
        with np.errstate(over="ignore"):  # silent like a float product
            bound = cone_tol * np.maximum(1.0, inf_norm(y))
        return self._polar_distance(y) <= bound

    def _support(self, y, cone_tol):
        return np.where(self._in_polar(y, cone_tol), 0.0, np.inf)


class NonnegativeOrthant(_Cone):
    """The cone ``{v : v >= 0}``."""

    def _project(self, v):
        return np.maximum(v, 0.0)

    def _jacobian(self, v):
        return ProjectionJacobian((v > 0.0).astype(float))


class Zero(_Cone):
    """The singleton cone ``{0}``."""

    def _project(self, v):
        return np.zeros(v.shape)

    def _jacobian(self, v):
        return ProjectionJacobian(np.zeros(self.dim))


class Halfspace(SetDescriptor):
    """The halfspace ``{v : <normal, v> <= offset}``."""

    def __init__(self, normal, offset):
        self.normal = as_vector(normal, name="normal")
        with np.errstate(over="ignore"):  # an overflow fails the test below
            self._sqnorm = float(self.normal @ self.normal)
        if not 0.0 < self._sqnorm < math.inf:
            raise ValueError("halfspace normal must be nonzero, with a"
                             " positive and finite squared norm")
        self.offset = float(offset)
        if not math.isfinite(self.offset):
            raise ValueError("halfspace offset must be finite")
        self.dim = self.normal.shape[0]

    def _cut(self, v, excess):
        """``v`` moved back along the normal by ``excess`` when positive."""
        if excess <= 0.0:
            return v.copy()
        return v - (excess / self._sqnorm) * self.normal

    def _project(self, v):
        return self._cut(v, float(self.normal @ v) - self.offset)

    @_per_row
    def _support(self, y, cone_tol):
        # finite only for y = t * normal with t >= 0, then equals offset * t
        ny = _norm(y)
        if ny == 0.0:
            return 0.0
        t = float(self.normal @ y) / self._sqnorm
        residual = _norm(y - t * self.normal)
        aligned = residual <= HALFSPACE_PARALLEL_TOL * ny
        nonneg = float(self.normal @ y) >= -HALFSPACE_PARALLEL_TOL * ny * math.sqrt(self._sqnorm)
        if aligned and nonneg:
            return self.offset * max(t, 0.0)
        return math.inf

    @_per_row
    def _recession(self, d):
        # recession cone is the homogeneous halfspace {d : <normal, d> <= 0}
        return self._cut(d, float(self.normal @ d))

    def _jacobian(self, v):
        ones = np.ones(self.dim)
        if float(self.normal @ v) - self.offset >= 0.0:
            # I - a a.T / ||a||^2, constant while the constraint is active
            return ProjectionJacobian(ones, terms=[(
                0, self.normal[:, None], np.array([[-1.0 / self._sqnorm]]))])
        return ProjectionJacobian(ones)


class Ball(SetDescriptor):
    """Euclidean ball with given center and radius >= 0."""

    def __init__(self, center, radius):
        self.center = as_vector(center, name="center")
        self.radius = float(radius)
        if not math.isfinite(self.radius) or self.radius < 0.0:
            raise ValueError("ball radius must be finite and nonnegative")
        self.dim = self.center.shape[0]

    def _project(self, v):
        diff = v - self.center
        rho = _norm(diff)
        if rho <= self.radius:
            return v.copy()
        return self.center + (self.radius / rho) * diff

    @_per_row
    def _support(self, y, cone_tol):
        return float(self.center @ y) + self.radius * _norm(y)

    def _recession(self, d):
        return np.zeros(d.shape)

    def _jacobian(self, v):
        diff = v - self.center
        rho = _norm(diff)
        if rho < self.radius:
            return ProjectionJacobian(np.ones(self.dim))
        if rho == 0.0:
            return ProjectionJacobian(np.zeros(self.dim))
        # (r / rho) (I - w w.T) with w the unit radial direction
        alpha = self.radius / rho
        return ProjectionJacobian.scaled_block(
            alpha, (diff / rho)[:, None], np.array([[-alpha]]))


class SecondOrderCone(_Cone):
    """The cone ``{(t, x) : ||x|| <= t}``; first coordinate is the scalar.

    Self-dual: its polar is the negated cone.
    """

    def _project(self, v):
        t, x = v[0], v[1:]
        rho = _norm(x)
        if rho <= t:
            return v.copy()
        if rho <= -t:
            return np.zeros(self.dim)
        scale = 0.5 * (t + rho)
        out = np.empty(self.dim)
        out[0] = scale
        out[1:] = (scale / rho) * x
        return out

    def _recession(self, d):
        if d.ndim == 1:
            return self._project(d)
        # _project's branches by masks, with its third branch's arithmetic
        # only on its own rows, where rho > |t| >= 0
        t, x = d[:, 0], d[:, 1:]
        rho = np.sqrt([row.dot(row) for row in x])
        inside = rho <= t
        cut = ~inside & ~(rho <= -t)
        scale = 0.5 * np.add(t, rho, out=np.zeros_like(rho), where=cut)
        ratio = np.divide(scale, rho, out=np.zeros_like(rho), where=cut)
        tail = np.multiply(ratio[:, None], x, out=np.zeros_like(x),
                           where=cut[:, None])
        return np.where(inside[:, None], d,
                        np.concatenate((scale[:, None], tail), axis=1))

    def _polar_distance(self, y):
        # y minus its projection -proj_K(-y) onto the polar cone -K; the
        # Moreau form differs from it by rounding, so the bits stay these
        return inf_norm(y + self._recession(-y))

    def _jacobian(self, v):
        t, x = v[0], v[1:]
        rho = _norm(x)
        if rho <= -t:
            return ProjectionJacobian(np.zeros(self.dim))
        if rho < t:
            return ProjectionJacobian(np.ones(self.dim))
        # boundary branch: with r = t / rho, e0 = (1, 0) and w' = (0, x / rho),
        #   D = [[1/2, w.T/2], [w/2, ((1 + r) I - r w w.T) / 2]]
        #     = (1 + r)/2 I + [e0 w'] N [e0 w'].T,  N = [[-r, 1], [1, -r]] / 2
        ratio = t / rho
        U = np.zeros((self.dim, 2))
        U[0, 0] = 1.0
        U[1:, 1] = x / rho
        N = 0.5 * np.array([[-ratio, 1.0], [1.0, -ratio]])
        return ProjectionJacobian.scaled_block(0.5 * (1.0 + ratio), U, N)


class TranslatedCone(SetDescriptor):
    """A closed convex cone shifted by an offset: ``offset + K``."""

    def __init__(self, offset, cone):
        self.offset = as_vector(offset, name="offset")
        if not isinstance(cone, _Cone):
            raise ValueError(
                "translated cone expects an inner NonnegativeOrthant, Zero,"
                " or SecondOrderCone")
        if cone.dim != self.offset.shape[0]:
            raise ValueError("offset dimension does not match inner cone")
        self.cone = cone
        self.dim = cone.dim

    def _project(self, v):
        return self.offset + self.cone._project(v - self.offset)

    def _support(self, y, cone_tol):
        inside = self.cone._in_polar(y, cone_tol)
        if y.ndim == 1:
            return self.offset @ y if inside else math.inf
        # a 1-d dot per row in the polar
        return np.array([self.offset @ row if ok else math.inf
                         for row, ok in zip(y, inside)])

    def _recession(self, d):
        return self.cone._recession(d)

    def _jacobian(self, v):
        return self.cone._jacobian(v - self.offset)


class Singleton(TranslatedCone):
    """A single point ``{p}``: the zero cone translated by ``p``."""

    def __init__(self, point):
        point = as_vector(point, name="point")
        super().__init__(point, Zero(point.shape[0]))
        self.point = self.offset

    def _project(self, v):
        # not offset + 0.0, which turns a -0.0 coordinate into +0.0
        return self.point.copy()


class Cartesian(SetDescriptor):
    """Cartesian product of descriptors, concatenated coordinates."""

    def __init__(self, parts):
        parts = list(parts)
        if not parts:
            raise ValueError("cartesian product needs at least one part")
        for p in parts:
            if not isinstance(p, SetDescriptor):
                raise ValueError("cartesian parts must be set descriptors")
        self.parts = parts
        offsets = np.cumsum([0] + [p.dim for p in parts]).tolist()
        self.dim = offsets[-1]
        self._slices = [(part, slice(lo, hi)) for part, lo, hi
                        in zip(parts, offsets, offsets[1:])]

    def _project(self, v):
        out = np.empty(self.dim)
        for part, sl in self._slices:
            out[sl] = part._project(v[sl])
        return out

    def _support(self, y, cone_tol):
        # the parts' sum in order, or +inf once any part is infinite
        total, unbounded = 0.0, False
        for part, sl in self._slices:
            value = part._support(y[..., sl], cone_tol)
            unbounded = unbounded | np.isinf(value)
            if unbounded.all():
                break
            total = total + value
        return np.where(unbounded, np.inf, total)

    def _recession(self, d):
        out = np.empty(d.shape)
        for part, sl in self._slices:
            out[..., sl] = part._recession(d[..., sl])
        return out

    def _jacobian(self, v):
        return ProjectionJacobian.concat(
            [part._jacobian(v[sl]) for part, sl in self._slices])

