"""Compositional descriptors of nonempty closed convex sets.

Each descriptor knows its exact Euclidean projection, support function,
recession-cone projection, and the generalized derivative of the
projection map (used by the semismooth Newton inner solver) in the
structured form ``ProjectionJacobian``: a diagonal plus local terms of
rank at most two, never a dense matrix. The polar
recession projection is always the Moreau complement ``d - proj_rec(d)``
so the decomposition identity holds bit-exactly.

Support functions of cones are 0 on the polar cone and +inf elsewhere;
deciding polar membership in floating point needs a tolerance, exposed
as ``cone_tol`` (relative, default ``CONE_MEMBERSHIP_TOL``). Certificate
checks pass their own epsilon through this knob.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import as_vector, inf_norm

CONE_MEMBERSHIP_TOL = 1e-12

# Halfspace support needs a parallelism test; exact parallelism never
# holds in floating point.
HALFSPACE_PARALLEL_TOL = 1e-9


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

    ``curved`` is True when D varies with the point within its branch
    (a Ball or second-order cone on its boundary). Otherwise D is
    constant on its branch and ``pattern_key()`` identifies it: equal
    keys from the same set mean equal matrices.
    """

    __slots__ = ("d", "terms", "blocks", "curved")

    def __init__(self, d, terms=(), blocks=(), curved=False):
        self.d = d
        self.terms = terms
        self.blocks = blocks
        self.curved = curved

    @classmethod
    def scaled_block(cls, alpha, U, N):
        """``alpha * I + U N U.T`` on one cone block of its own dimension."""
        dim = U.shape[0]
        return cls(np.full(dim, alpha), terms=[(0, U, N)],
                   blocks=[(0, dim, alpha)], curved=True)

    @classmethod
    def concat(cls, parts):
        """Block-diagonal composition, in coordinate order."""
        terms, blocks, offset = [], [], 0
        for J in parts:
            terms.extend((start + offset, U, N) for start, U, N in J.terms)
            blocks.extend((lo + offset, hi + offset, alpha)
                          for lo, hi, alpha in J.blocks)
            offset += J.d.shape[0]
        return cls(np.concatenate([J.d for J in parts]), terms, blocks,
                   any(J.curved for J in parts))

    def pattern_key(self):
        """Hashable active pattern, or None when D is curved."""
        if self.curved:
            return None
        return self.d.tobytes(), tuple(start for start, _, _ in self.terms)

    def dense(self):
        """The matrix D as a dense array."""
        D = np.diag(self.d)
        for start, U, N in self.terms:
            sl = slice(start, start + U.shape[0])
            D[sl, sl] += U @ N @ U.T
        return D


class SetDescriptor:
    """Base class; concrete sets implement project/support/recession."""

    @property
    def dim(self):
        raise NotImplementedError

    def _check_dim(self, v, name="vector"):
        return as_vector(v, dim=self.dim, name=name)

    def project(self, v):
        """Euclidean projection of ``v`` onto the set."""
        raise NotImplementedError

    def support(self, y, cone_tol=CONE_MEMBERSHIP_TOL):
        """Support function value at ``y``; may be +inf."""
        raise NotImplementedError

    def project_recession(self, d):
        """Projection of ``d`` onto the recession cone of the set."""
        raise NotImplementedError

    def projection_jacobian(self, v):
        """An element of the generalized derivative of the projection.

        Returned as a ``ProjectionJacobian``. Kinks resolve
        deterministically to the clamped branch.
        """
        raise NotImplementedError

    def project_polar_recession(self, d):
        """Moreau complement: ``d - project_recession(d)``."""
        d = self._check_dim(d)
        return d - self.project_recession(d)

    def distance_to_recession(self, d):
        """Euclidean distance of ``d`` from the recession cone."""
        d = self._check_dim(d)
        return float(np.linalg.norm(d - self.project_recession(d)))


class Box(SetDescriptor):
    """Axis-aligned box ``{v : lower <= v <= upper}``.

    Bounds may be infinite; a box with all bounds infinite is the whole
    space. Nonempty by construction (lower <= upper enforced).
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

    @property
    def dim(self):
        return self.lower.shape[0]

    def project(self, v):
        v = self._check_dim(v)
        return np.clip(v, self.lower, self.upper)

    def support(self, y, cone_tol=CONE_MEMBERSHIP_TOL):
        y = self._check_dim(y)
        total = 0.0
        for li, ui, yi in zip(self.lower, self.upper, y):
            if yi > 0.0:
                if math.isinf(ui):
                    return math.inf
                total += ui * yi
            elif yi < 0.0:
                if math.isinf(li):
                    return math.inf
                total += li * yi
            # yi == 0 contributes 0 even against infinite bounds
        return total

    def project_recession(self, d):
        d = self._check_dim(d)
        rec_lower = np.where(np.isinf(self.lower), -np.inf, 0.0)
        rec_upper = np.where(np.isinf(self.upper), np.inf, 0.0)
        return np.clip(d, rec_lower, rec_upper)

    def projection_jacobian(self, v):
        v = self._check_dim(v)
        free = (v > self.lower) & (v < self.upper)
        return ProjectionJacobian(free.astype(float))


class NonnegativeOrthant(SetDescriptor):
    """The cone ``{v : v >= 0}``."""

    def __init__(self, dim):
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        self._dim = int(dim)

    @property
    def dim(self):
        return self._dim

    def project(self, v):
        v = self._check_dim(v)
        return np.maximum(v, 0.0)

    def polar_distance(self, y):
        """inf-norm distance of ``y`` from the polar cone ``{y <= 0}``."""
        return float(np.max(np.maximum(y, 0.0), initial=0.0))

    def support(self, y, cone_tol=CONE_MEMBERSHIP_TOL):
        y = self._check_dim(y)
        scale = max(1.0, inf_norm(y))
        if self.polar_distance(y) <= cone_tol * scale:
            return 0.0
        return math.inf

    def project_recession(self, d):
        return self.project(d)

    def projection_jacobian(self, v):
        v = self._check_dim(v)
        return ProjectionJacobian((v > 0.0).astype(float))


class Zero(SetDescriptor):
    """The singleton cone ``{0}``."""

    def __init__(self, dim):
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        self._dim = int(dim)

    @property
    def dim(self):
        return self._dim

    def project(self, v):
        self._check_dim(v)
        return np.zeros(self._dim)

    def polar_distance(self, y):
        # polar of {0} is the whole space
        return 0.0

    def support(self, y, cone_tol=CONE_MEMBERSHIP_TOL):
        self._check_dim(y)
        return 0.0

    def project_recession(self, d):
        return self.project(d)

    def projection_jacobian(self, v):
        self._check_dim(v)
        return ProjectionJacobian(np.zeros(self._dim))


class Singleton(SetDescriptor):
    """A single point ``{p}``."""

    def __init__(self, point):
        self.point = as_vector(point, name="point")

    @property
    def dim(self):
        return self.point.shape[0]

    def project(self, v):
        self._check_dim(v)
        return self.point.copy()

    def support(self, y, cone_tol=CONE_MEMBERSHIP_TOL):
        y = self._check_dim(y)
        return float(self.point @ y)

    def project_recession(self, d):
        self._check_dim(d)
        return np.zeros(self.dim)

    def projection_jacobian(self, v):
        self._check_dim(v)
        return ProjectionJacobian(np.zeros(self.dim))


class Halfspace(SetDescriptor):
    """The halfspace ``{v : <normal, v> <= offset}``."""

    def __init__(self, normal, offset):
        self.normal = as_vector(normal, name="normal")
        if not np.any(self.normal):
            raise ValueError("halfspace normal must be nonzero")
        self.offset = float(offset)
        if not math.isfinite(self.offset):
            raise ValueError("halfspace offset must be finite")
        self._sqnorm = float(self.normal @ self.normal)

    @property
    def dim(self):
        return self.normal.shape[0]

    def project(self, v):
        v = self._check_dim(v)
        excess = float(self.normal @ v) - self.offset
        if excess <= 0.0:
            return v.copy()
        return v - (excess / self._sqnorm) * self.normal

    def support(self, y, cone_tol=CONE_MEMBERSHIP_TOL):
        # finite only for y = t * normal with t >= 0, then equals offset * t
        y = self._check_dim(y)
        ny = float(np.linalg.norm(y))
        if ny == 0.0:
            return 0.0
        t = float(self.normal @ y) / self._sqnorm
        residual = float(np.linalg.norm(y - t * self.normal))
        aligned = residual <= HALFSPACE_PARALLEL_TOL * ny
        nonneg = float(self.normal @ y) >= -HALFSPACE_PARALLEL_TOL * ny * math.sqrt(self._sqnorm)
        if aligned and nonneg:
            return self.offset * max(t, 0.0)
        return math.inf

    def project_recession(self, d):
        # recession cone is the homogeneous halfspace {d : <normal, d> <= 0}
        d = self._check_dim(d)
        excess = float(self.normal @ d)
        if excess <= 0.0:
            return d.copy()
        return d - (excess / self._sqnorm) * self.normal

    def projection_jacobian(self, v):
        v = self._check_dim(v)
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

    @property
    def dim(self):
        return self.center.shape[0]

    def project(self, v):
        v = self._check_dim(v)
        diff = v - self.center
        rho = float(np.linalg.norm(diff))
        if rho <= self.radius:
            return v.copy()
        return self.center + (self.radius / rho) * diff

    def support(self, y, cone_tol=CONE_MEMBERSHIP_TOL):
        y = self._check_dim(y)
        return float(self.center @ y) + self.radius * float(np.linalg.norm(y))

    def project_recession(self, d):
        self._check_dim(d)
        return np.zeros(self.dim)

    def projection_jacobian(self, v):
        v = self._check_dim(v)
        diff = v - self.center
        rho = float(np.linalg.norm(diff))
        if rho < self.radius:
            return ProjectionJacobian(np.ones(self.dim))
        if rho == 0.0:
            return ProjectionJacobian(np.zeros(self.dim))
        # (r / rho) (I - w w.T) with w the unit radial direction
        alpha = self.radius / rho
        return ProjectionJacobian.scaled_block(
            alpha, (diff / rho)[:, None], np.array([[-alpha]]))


class SecondOrderCone(SetDescriptor):
    """The cone ``{(t, x) : ||x|| <= t}``; first coordinate is the scalar.

    Self-dual: its polar is the negated cone.
    """

    def __init__(self, dim):
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        self._dim = int(dim)

    @property
    def dim(self):
        return self._dim

    def project(self, v):
        v = self._check_dim(v)
        t, x = v[0], v[1:]
        rho = float(np.linalg.norm(x))
        if rho <= t:
            return v.copy()
        if rho <= -t:
            return np.zeros(self._dim)
        scale = 0.5 * (t + rho)
        out = np.empty(self._dim)
        out[0] = scale
        out[1:] = (scale / rho) * x
        return out

    def polar_distance(self, y):
        """inf-norm distance of ``y`` from the polar cone ``-K``."""
        neg_proj = -self.project(-np.asarray(y, dtype=float))
        return inf_norm(y - neg_proj)

    def support(self, y, cone_tol=CONE_MEMBERSHIP_TOL):
        y = self._check_dim(y)
        scale = max(1.0, inf_norm(y))
        if self.polar_distance(y) <= cone_tol * scale:
            return 0.0
        return math.inf

    def project_recession(self, d):
        return self.project(d)

    def projection_jacobian(self, v):
        v = self._check_dim(v)
        t, x = v[0], v[1:]
        rho = float(np.linalg.norm(x))
        if rho <= -t:
            return ProjectionJacobian(np.zeros(self._dim))
        if rho < t:
            return ProjectionJacobian(np.ones(self._dim))
        # boundary branch: with r = t / rho, e0 = (1, 0) and w' = (0, x / rho),
        #   D = [[1/2, w.T/2], [w/2, ((1 + r) I - r w w.T) / 2]]
        #     = (1 + r)/2 I + [e0 w'] N [e0 w'].T,  N = [[-r, 1], [1, -r]] / 2
        ratio = t / rho
        U = np.zeros((self._dim, 2))
        U[0, 0] = 1.0
        U[1:, 1] = x / rho
        N = 0.5 * np.array([[-ratio, 1.0], [1.0, -ratio]])
        return ProjectionJacobian.scaled_block(0.5 * (1.0 + ratio), U, N)


_CONE_KINDS = (NonnegativeOrthant, Zero, SecondOrderCone)


class TranslatedCone(SetDescriptor):
    """A closed convex cone shifted by an offset: ``offset + K``."""

    def __init__(self, offset, cone):
        self.offset = as_vector(offset, name="offset")
        if not isinstance(cone, _CONE_KINDS):
            raise ValueError(
                "translated cone expects an inner NonnegativeOrthant, Zero,"
                " or SecondOrderCone")
        if cone.dim != self.offset.shape[0]:
            raise ValueError("offset dimension does not match inner cone")
        self.cone = cone

    @property
    def dim(self):
        return self.cone.dim

    def project(self, v):
        v = self._check_dim(v)
        return self.offset + self.cone.project(v - self.offset)

    def support(self, y, cone_tol=CONE_MEMBERSHIP_TOL):
        y = self._check_dim(y)
        scale = max(1.0, inf_norm(y))
        if self.cone.polar_distance(y) <= cone_tol * scale:
            return float(self.offset @ y)
        return math.inf

    def project_recession(self, d):
        d = self._check_dim(d)
        return self.cone.project(d)

    def projection_jacobian(self, v):
        v = self._check_dim(v)
        return self.cone.projection_jacobian(v - self.offset)


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
        self._offsets = np.cumsum([0] + [p.dim for p in parts])

    @property
    def dim(self):
        return int(self._offsets[-1])

    def _slices(self):
        for part, lo, hi in zip(self.parts, self._offsets, self._offsets[1:]):
            yield part, slice(int(lo), int(hi))

    def project(self, v):
        v = self._check_dim(v)
        out = np.empty(self.dim)
        for part, sl in self._slices():
            out[sl] = part.project(v[sl])
        return out

    def support(self, y, cone_tol=CONE_MEMBERSHIP_TOL):
        y = self._check_dim(y)
        total = 0.0
        for part, sl in self._slices():
            val = part.support(y[sl], cone_tol=cone_tol)
            if math.isinf(val):
                return math.inf
            total += val
        return total

    def project_recession(self, d):
        d = self._check_dim(d)
        out = np.empty(self.dim)
        for part, sl in self._slices():
            out[sl] = part.project_recession(d[sl])
        return out

    def projection_jacobian(self, v):
        v = self._check_dim(v)
        return ProjectionJacobian.concat(
            [part.projection_jacobian(v[sl]) for part, sl in self._slices()])


def whole_space(dim):
    """The unconstrained set, expressed as a box with infinite bounds."""
    return Box(np.full(dim, -np.inf), np.full(dim, np.inf))
