import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splitqp import sets
from splitqp.linalg import inf_norm
from splitqp.sets import (Ball, Box, Cartesian, Halfspace, NonnegativeOrthant,
                          ProjectionJacobian, SecondOrderCone, SetDescriptor,
                          Singleton, TranslatedCone, Zero)

from cesaro import cesaro_oracle, cesaro_triple
from jacobians import dense

ALL_KINDS = ["box", "orthant", "zero", "singleton", "halfspace", "ball",
             "soc", "translated_cone", "cartesian"]
PUBLIC_METHODS = ["project", "support", "project_recession",
                  "projection_jacobian", "project_polar_recession",
                  "distance_to_recession"]

inf = np.inf


def random_sets(kind, count, base_seed=0):
    return [cesaro_triple(base_seed + 37 * i, kind)[0] for i in range(count)]


# ---------------------------------------------------------------- dimensions

def test_dim_examples():
    # every set type sets dim, a plain int, in its constructor
    examples = [(Box([0, 0], [1, 1]), 2),
                (Cartesian([Box([0, 0], [1, 1]), SecondOrderCone(3)]), 5),
                (Zero(4), 4), (NonnegativeOrthant(3), 3),
                (Singleton([1.0, -0.0, 2.0]), 3),
                (Halfspace([1.0, -2.0], 0.5), 2), (Ball([0.0], 1.0), 1),
                (SecondOrderCone(3), 3),
                (TranslatedCone([1.0, 2.0], NonnegativeOrthant(2)), 2)]
    assert len({type(S) for S, _ in examples}) == len(ALL_KINDS)
    for S, dim in examples:
        assert S.dim == dim
        assert type(S.dim) is int


# ---------------------------------------------------------------- projection

def test_project_examples():
    assert np.allclose(Box([0.0], [1.0]).project([1.5]), [1.0])
    # standard cone projection: ((t + ||x||)/2) * (1, x/||x||)
    assert np.allclose(SecondOrderCone(3).project([0.0, 2.0, 0.0]), [1.0, 1.0, 0.0])
    assert np.allclose(Halfspace([1.0, 0.0], 0.0).project([2.0, 3.0]), [0.0, 3.0])


def test_public_methods_validate_input():
    # every public method rejects a wrong length, a NaN entry and a 2-d
    # input, composite sets included, with the messages of as_vector
    for kind in ALL_KINDS:
        for S in random_sets(kind, 3, base_seed=83):
            d = S.dim
            bad = [(np.zeros(d + 1), f"vector has dimension {d + 1}, expected {d}"),
                   (np.r_[np.zeros(d - 1), np.nan], "vector has non-finite entries"),
                   (np.zeros((d, 1)),
                    f"vector must be 1-dimensional, got shape ({d}, 1)")]
            for method in PUBLIC_METHODS:
                for v, message in bad:
                    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                        getattr(S, method)(v)


def test_public_methods_are_shared():
    # the public methods are SetDescriptor's; a set may alias, not redefine
    for kind in ALL_KINDS:
        for cls in type(random_sets(kind, 1)[0]).__mro__[:-2]:
            for method in PUBLIC_METHODS:
                if method in cls.__dict__:
                    assert cls.__dict__[method] is SetDescriptor.__dict__[method]


def test_soc_projection_against_brute_force():
    # the projection must beat the distance of every sampled member
    rng = np.random.default_rng(42)
    S = SecondOrderCone(3)
    for _ in range(10):
        v = rng.normal(size=3) * 2.0
        p = S.project(v)
        assert inf_norm(p - S.project(p)) <= 1e-9
        d = np.linalg.norm(v - p)
        samples = rng.normal(size=(2000, 3)) * 3.0
        for s in samples:
            q = S.project(s)
            assert d <= np.linalg.norm(v - q) + 1e-6


def test_halfspace_projection_against_brute_force():
    rng = np.random.default_rng(43)
    S = Halfspace([1.0, -2.0, 0.5], 0.7)
    for _ in range(10):
        v = rng.normal(size=3) * 2.0
        p = S.project(v)
        assert inf_norm(p - S.project(p)) <= 1e-9
        d = np.linalg.norm(v - p)
        samples = rng.normal(size=(2000, 3)) * 3.0
        for s in samples:
            q = S.project(s)
            assert d <= np.linalg.norm(v - q) + 1e-6


# ------------------------------------------------------------------- support

def test_support_examples():
    # max over the 4 vertices of <z, y> is 2 - 3 = -1
    assert Box([1.0, 3.0], [2.0, 4.0]).support([1.0, -1.0]) == pytest.approx(-1.0)
    assert NonnegativeOrthant(2).support([-1.0, -2.0]) == 0.0
    assert Ball([0.0, 0.0], 1.0).support([3.0, 4.0]) == pytest.approx(5.0)


def test_support_infinities():
    S = Box([0.0, -inf], [inf, 0.0])
    assert S.support([1.0, 0.0]) == inf          # unbounded above in coord 0
    assert S.support([0.0, 1.0]) == 0.0          # upper bound 0
    assert S.support([-1.0, -1.0]) == inf        # unbounded below in coord 1
    assert S.support([0.0, 0.0]) == 0.0          # 0 * inf = 0 rule
    assert NonnegativeOrthant(2).support([0.5, -1.0]) == inf
    assert SecondOrderCone(2).support([-2.0, 1.0]) == 0.0
    assert SecondOrderCone(2).support([2.0, 1.0]) == inf


def test_support_singleton_halfspace_translated():
    assert Singleton([1.0, 2.0]).support([3.0, -1.0]) == pytest.approx(1.0)
    H = Halfspace([2.0, 0.0], 3.0)
    assert H.support([4.0, 0.0]) == pytest.approx(6.0)   # y = 2 * normal
    assert H.support([-2.0, 0.0]) == inf                 # t < 0
    assert H.support([1.0, 1.0]) == inf                  # not parallel
    assert H.support([0.0, 0.0]) == 0.0
    T = TranslatedCone([1.0, -1.0], NonnegativeOrthant(2))
    assert T.support([-2.0, -1.0]) == pytest.approx(-1.0)
    assert T.support([1.0, -1.0]) == inf


def test_support_zero_cone_always_zero():
    S = Zero(3)
    assert S.support([5.0, -2.0, 7.0]) == 0.0


def test_support_cone_membership_tolerance():
    S = NonnegativeOrthant(2)
    y = np.array([1e-5, -1.0])
    assert S.support(y) == inf
    assert S.support(y, cone_tol=1e-4) == 0.0


# ---------------------------------------------------------- recession cones

def test_project_recession_examples():
    assert np.allclose(Box([0.0], [inf]).project_recession([-3.0]), [0.0])
    assert np.allclose(Ball([0.0, 0.0], 2.0).project_recession([5.0, 5.0]), [0.0, 0.0])
    assert np.allclose(Halfspace([1.0, 0.0], 7.0).project_recession([2.0, 1.0]),
                       [0.0, 1.0])


def test_project_polar_recession_examples():
    assert np.allclose(Box([0.0], [inf]).project_polar_recession([-3.0]), [-3.0])
    assert np.allclose(Ball([1.0, 1.0], 2.0).project_polar_recession([5.0, 5.0]),
                       [5.0, 5.0])
    assert np.allclose(NonnegativeOrthant(2).project_polar_recession([3.0, -4.0]),
                       [0.0, -4.0])


def test_distance_to_recession_examples():
    assert NonnegativeOrthant(1).distance_to_recession([1.0]) == 0.0
    assert NonnegativeOrthant(1).distance_to_recession([-2.0]) == pytest.approx(2.0)
    assert Box([0.0, 0.0], [1.0, 1.0]).distance_to_recession([3.0, 4.0]) == pytest.approx(5.0)


def test_translated_cone_recession_is_inner_cone():
    T = TranslatedCone([5.0, 5.0], NonnegativeOrthant(2))
    assert np.allclose(T.project_recession([-1.0, 2.0]), [0.0, 2.0])


# ---------------------------------------------------------------- validation

def test_descriptor_validation():
    with pytest.raises(ValueError, match="empty"):
        Box([1.0], [0.0])
    with pytest.raises(ValueError):
        Box([np.inf], [np.inf])
    with pytest.raises(ValueError, match="nonzero"):
        Halfspace([0.0, 0.0], 1.0)
    with pytest.raises(ValueError, match="radius"):
        Ball([0.0], -1.0)
    with pytest.raises(ValueError):
        TranslatedCone([0.0], Ball([0.0], 1.0))
    with pytest.raises(ValueError):
        TranslatedCone([0.0, 0.0], NonnegativeOrthant(3))
    with pytest.raises(ValueError):
        Cartesian([])
    with pytest.raises(ValueError, match="NaN"):
        Box([np.nan], [1.0])


def test_empty_point_raises():
    # a point is a translated zero cone, which needs at least one coordinate
    with pytest.raises(ValueError, match="^dimension must be at least 1$"):
        Singleton([])


def test_whole_space():
    # the unconstrained set is a box with infinite bounds
    S = Box(np.full(3, -inf), np.full(3, inf))
    v = np.array([4.0, -7.0, 0.1])
    assert np.allclose(S.project(v), v)
    assert S.support(np.zeros(3)) == 0.0
    assert S.support([1.0, 0.0, 0.0]) == inf
    assert np.allclose(S.project_recession(v), v)


# --------------------------------------------------------- property sampling

@pytest.mark.parametrize("kind", ALL_KINDS)
def test_projection_properties(kind):
    rng = np.random.default_rng(ALL_KINDS.index(kind))
    for S in random_sets(kind, 5, base_seed=11):
        d = S.dim
        for _ in range(40):
            u = rng.normal(size=d) * 3.0
            v = rng.normal(size=d) * 3.0
            pu, pv = S.project(u), S.project(v)
            # idempotence
            assert np.max(np.abs(S.project(pu) - pu)) <= 1e-12
            # firm nonexpansiveness
            lhs = float(np.linalg.norm(pu - pv) ** 2)
            rhs = float((pu - pv) @ (u - v))
            assert lhs <= rhs + 1e-12
            # projecting a member returns it
            assert np.max(np.abs(S.project(pu) - pu)) <= 1e-12


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_moreau_decomposition(kind):
    rng = np.random.default_rng(7)
    for S in random_sets(kind, 5, base_seed=23):
        for _ in range(40):
            dvec = rng.normal(size=S.dim) * 3.0
            p = S.project_recession(dvec)
            r = S.project_polar_recession(dvec)
            # bit-exact by construction: the polar part is the complement
            assert np.array_equal(r, dvec - p)
            assert np.max(np.abs(p + r - dvec)) <= 4e-16 * (1.0 + np.max(np.abs(dvec)))
            assert abs(float(p @ r)) <= 1e-10 * (1.0 + float(dvec @ dvec))
            # idempotence of the recession projection
            assert np.max(np.abs(S.project_recession(p) - p)) <= 1e-12


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_support_inequality(kind):
    rng = np.random.default_rng(13)
    for S in random_sets(kind, 4, base_seed=31):
        members = [S.project(rng.normal(size=S.dim) * 4.0) for _ in range(25)]
        for _ in range(25):
            y = rng.normal(size=S.dim)
            sup = S.support(y)
            if math.isinf(sup):
                continue
            for z in members:
                assert float(z @ y) <= sup + 1e-10


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_normal_cone_identity(kind):
    # with p = proj(v), r = v - p: <p, r> equals the support at r
    rng = np.random.default_rng(17)
    for S in random_sets(kind, 4, base_seed=41):
        for _ in range(30):
            v = rng.normal(size=S.dim) * 3.0
            p = S.project(v)
            r = v - p
            sup = S.support(r)
            inner = float(p @ r)
            if math.isinf(sup):
                continue
            if abs(sup) <= 1e-10 and abs(inner) <= 1e-10:
                continue  # cone-like case: both sides vanish
            assert abs(inner - sup) <= 1e-9 * (1.0 + abs(inner))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_residual_in_polar_recession(kind):
    rng = np.random.default_rng(19)
    for S in random_sets(kind, 4, base_seed=53):
        for _ in range(30):
            v = rng.normal(size=S.dim) * 3.0
            r = v - S.project(v)
            w = rng.normal(size=S.dim) * 3.0
            d = S.project_recession(w)
            assert float(r @ d) <= 1e-10 * (1.0 + np.linalg.norm(r) * np.linalg.norm(d))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_cesaro_projection_limit(kind):
    for i in range(3):
        S, delta_s, s0 = cesaro_triple(61 + 13 * i, kind)
        p_avg, r_avg, _ = cesaro_oracle(S, delta_s, s0, 10**6)
        assert np.linalg.norm(p_avg - S.project_recession(delta_s)) <= 1e-3
        assert np.linalg.norm(r_avg - S.project_polar_recession(delta_s)) <= 1e-3


# ------------------------------------------------------ projection jacobians

def _near_kink(S, v, h):
    """True when any coordinate probe crosses a non-smooth region."""
    probes = [v]
    for j in range(S.dim):
        e = np.zeros(S.dim)
        e[j] = 10 * h
        probes.extend([v + e, v - e])
    jac_ref = dense(S.projection_jacobian(v))
    return any(np.max(np.abs(dense(S.projection_jacobian(p)) - jac_ref)) > 1e-6
               for p in probes)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_projection_jacobian_matches_finite_differences(kind):
    rng = np.random.default_rng(29)
    h = 1e-7
    for S in random_sets(kind, 3, base_seed=71):
        checked = 0
        for _ in range(30):
            v = rng.normal(size=S.dim) * 2.0
            if _near_kink(S, v, h):
                continue
            D = dense(S.projection_jacobian(v))
            for j in range(S.dim):
                e = np.zeros(S.dim)
                e[j] = h
                fd = (S.project(v + e) - S.project(v - e)) / (2 * h)
                assert np.max(np.abs(D[:, j] - fd)) <= 5e-6
            checked += 1
        assert checked > 0


def test_jacobian_kink_convention_clamps():
    # at an active bound the derivative is the clamped branch (zero)
    B = Box([0.0], [1.0])
    assert dense(B.projection_jacobian([0.0]))[0, 0] == 0.0
    assert dense(B.projection_jacobian([1.0]))[0, 0] == 0.0
    assert dense(B.projection_jacobian([0.5]))[0, 0] == 1.0
    N = NonnegativeOrthant(1)
    assert dense(N.projection_jacobian([0.0]))[0, 0] == 0.0
    H = Halfspace([1.0], 0.0)
    assert dense(H.projection_jacobian([0.0]))[0, 0] == 0.0


# ------------------------------------------ kernels against their old forms
# The kernels cache derived data and skip numpy's wrappers; each must
# return bitwise what the expression it replaced returned.

def _bits(value):
    if isinstance(value, ProjectionJacobian):
        return (_bits(value.d), value.blocks,
                [(start, _bits(U), _bits(N)) for start, U, N in value.terms])
    return np.asarray(value, dtype=float).tobytes()


def _old_norm(v):
    return float(np.linalg.norm(v))


def _old_box_support(B, y):
    total = 0.0
    for li, ui, yi in zip(B.lower, B.upper, y):
        if yi > 0.0:
            if math.isinf(ui):
                return math.inf
            total += ui * yi
        elif yi < 0.0:
            if math.isinf(li):
                return math.inf
            total += li * yi
    return total


def _old_box_recession(B, d):
    rec_lower = np.where(np.isinf(B.lower), -np.inf, 0.0)
    rec_upper = np.where(np.isinf(B.upper), np.inf, 0.0)
    return np.clip(d, rec_lower, rec_upper)


def test_box_kernels_match_old_forms():
    rng = np.random.default_rng(41)
    for trial in range(300):
        d = trial % 7
        lower = rng.normal(size=d) * 10.0 ** rng.integers(-3, 4) - 1.0
        upper = lower + rng.uniform(0.0, 3.0, size=d)
        lower[rng.uniform(size=d) < 0.3] = -inf
        upper[rng.uniform(size=d) < 0.3] = inf
        B = Box(lower, upper)
        y = rng.normal(size=d) * 10.0 ** rng.integers(-3, 4)
        y[rng.uniform(size=d) < 0.3] = 0.0
        y[rng.uniform(size=d) < 0.2] = -0.0
        # zeros against infinite bounds contribute nothing
        for v in (y, np.where(np.isinf(lower) | np.isinf(upper), 0.0, y),
                  np.where(np.isinf(lower) | np.isinf(upper), -0.0, y)):
            assert _bits(B.support(v)) == _bits(_old_box_support(B, v))
            assert (_bits(B.project_recession(v))
                    == _bits(_old_box_recession(B, v)))


_CLIP_VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
                         1.0, -1.0, 0.5, 1e308, -1e308])
_CLIP_BOUNDS = np.array([-inf, inf, 0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0])


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32,
                               33, 63, 64, 65, 100])
def test_box_projection_is_bitwise_clip(d):
    # np.clip is the oracle, on signed zeros, subnormals, equal bounds
    # (0.0 and -0.0 among them) and infinite ones, at lengths on both
    # sides of every SIMD width
    rng = np.random.default_rng(4000 + d)
    for _ in range(60):
        a, b = rng.choice(_CLIP_BOUNDS, size=(2, d))
        lower, upper = np.minimum(a, b), np.maximum(a, b)
        lower[lower == inf] = 0.0
        upper[upper == -inf] = -0.0
        equal = (rng.uniform(size=d) < 0.2) & np.isfinite(lower)
        upper[equal] = np.where(lower[equal] == 0.0, -0.0, lower[equal])
        B = Box(lower, upper)
        v = rng.choice(_CLIP_VALUES, size=d)
        assert _bits(B.project(v)) == _bits(np.clip(v, lower, upper))
        assert _bits(B.project(v)) == _bits(np.clip(v, B.lower, B.upper))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_norm_kernels_match_numpy_norm():
    rng = np.random.default_rng(43)
    vectors = [np.zeros(0), np.array([-0.0]), np.array([1e200, 1e200]),
               np.full(3, 1e-200), rng.normal(size=40)[::3]]
    vectors += [rng.normal(size=k) * 10.0 ** rng.integers(-8, 9)
                for k in range(1, 30)]
    for v in vectors:
        assert _bits(sets._norm(v)) == _bits(_old_norm(v))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_distance_to_recession_is_numpy_norm(kind):
    rng = np.random.default_rng(47)
    cases = random_sets(kind, 5, base_seed=13) + [Box([], [])]
    for S in cases:
        for _ in range(20):
            d = rng.normal(size=S.dim) * 3.0
            assert (_bits(S.distance_to_recession(d))
                    == _bits(_old_norm(S.project_polar_recession(d))))


def _old_ball_project(B, v):
    diff = v - B.center
    rho = _old_norm(diff)
    if rho <= B.radius:
        return v.copy()
    return B.center + (B.radius / rho) * diff


def _old_ball_jacobian(B, v):
    diff = v - B.center
    rho = _old_norm(diff)
    if rho < B.radius:
        return ProjectionJacobian(np.ones(B.dim))
    if rho == 0.0:
        return ProjectionJacobian(np.zeros(B.dim))
    alpha = B.radius / rho
    return ProjectionJacobian.scaled_block(
        alpha, (diff / rho)[:, None], np.array([[-alpha]]))


def _old_soc_project(K, v):
    t, x = v[0], v[1:]
    rho = _old_norm(x)
    if rho <= t:
        return v.copy()
    if rho <= -t:
        return np.zeros(K.dim)
    scale = 0.5 * (t + rho)
    out = np.empty(K.dim)
    out[0] = scale
    out[1:] = (scale / rho) * x
    return out


def _old_soc_jacobian(K, v):
    t, x = v[0], v[1:]
    rho = _old_norm(x)
    if rho <= -t:
        return ProjectionJacobian(np.zeros(K.dim))
    if rho < t:
        return ProjectionJacobian(np.ones(K.dim))
    ratio = t / rho
    U = np.zeros((K.dim, 2))
    U[0, 0] = 1.0
    U[1:, 1] = x / rho
    N = 0.5 * np.array([[-ratio, 1.0], [1.0, -ratio]])
    return ProjectionJacobian.scaled_block(0.5 * (1.0 + ratio), U, N)


def _old_halfspace_support(H, y):
    ny = _old_norm(y)
    if ny == 0.0:
        return 0.0
    t = float(H.normal @ y) / H._sqnorm
    residual = _old_norm(y - t * H.normal)
    aligned = residual <= 1e-9 * ny
    nonneg = float(H.normal @ y) >= -1e-9 * ny * math.sqrt(H._sqnorm)
    if aligned and nonneg:
        return H.offset * max(t, 0.0)
    return math.inf


def test_ball_soc_halfspace_kernels_match_old_forms():
    rng = np.random.default_rng(53)
    for trial in range(200):
        dim = 1 + trial % 6
        scale = 10.0 ** rng.integers(-4, 5)
        v = rng.normal(size=dim) * scale
        B = Ball(rng.normal(size=dim), float(rng.uniform(0.0, 2.0)))
        for w in (v, B.center.copy(), B.center + 1e-300):
            assert _bits(B._project(w)) == _bits(_old_ball_project(B, w))
            assert _bits(B._jacobian(w)) == _bits(_old_ball_jacobian(B, w))
            assert (_bits(B._support(w, 1e-12))
                    == _bits(float(B.center @ w) + B.radius * _old_norm(w)))
        K = SecondOrderCone(dim)
        boundary = np.concatenate([[_old_norm(v[1:])], v[1:]])
        for w in (v, -v, boundary, -boundary, np.zeros(dim)):
            assert _bits(K._project(w)) == _bits(_old_soc_project(K, w))
            assert _bits(K._jacobian(w)) == _bits(_old_soc_jacobian(K, w))
            assert (_bits(K._polar_distance(w))
                    == _bits(inf_norm(w - -_old_soc_project(K, -w))))
        H = Halfspace(rng.normal(size=dim), float(rng.normal()))
        for w in (v, 2.5 * H.normal, -H.normal, np.zeros(dim),
                  H.normal + 1e-12 * scale * v):
            assert (_bits(H._support(w, 1e-12))
                    == _bits(_old_halfspace_support(H, w)))


def _old_cartesian_slices(C):
    offsets = np.cumsum([0] + [p.dim for p in C.parts])
    for part, lo, hi in zip(C.parts, offsets, offsets[1:]):
        yield part, slice(int(lo), int(hi))


def _old_cartesian_kernels(C, v, cone_tol):
    project = np.empty(C.dim)
    recession = np.empty(C.dim)
    support = 0.0
    for part, sl in _old_cartesian_slices(C):
        project[sl] = part._project(v[sl])
        recession[sl] = part._recession(v[sl])
        if not math.isinf(support):
            val = part._support(v[sl], cone_tol)
            support = math.inf if math.isinf(val) else support + val
    jacobian = ProjectionJacobian.concat(
        [part._jacobian(v[sl]) for part, sl in _old_cartesian_slices(C)])
    return project, support, recession, jacobian


def test_cartesian_kernels_match_old_forms():
    rng = np.random.default_rng(59)
    kinds = [k for k in ALL_KINDS if k != "cartesian"]
    for trial in range(60):
        parts = [random_sets(kinds[j % len(kinds)], 1,
                             base_seed=trial * 11 + j)[0]
                 for j in rng.permutation(len(kinds))[:1 + trial % 5]]
        if trial % 3 == 0:
            parts.append(Cartesian([Box([-1.0], [inf]),
                                    SecondOrderCone(3)]))
        C = Cartesian(parts)
        assert C.dim == sum(p.dim for p in parts)
        for _ in range(10):
            v = rng.normal(size=C.dim) * 3.0
            old = _old_cartesian_kernels(C, v, 1e-9)
            new = (C._project(v), C._support(v, 1e-9), C._recession(v),
                   C._jacobian(v))
            assert [_bits(a) for a in new] == [_bits(a) for a in old]


def _signed_zeros(rng, v):
    v = v.copy()
    v[rng.uniform(size=v.shape[0]) < 0.2] = 0.0
    v[rng.uniform(size=v.shape[0]) < 0.2] = -0.0
    return v


def test_orthant_polar_test_matches_old_form():
    rng = np.random.default_rng(61)
    for trial in range(300):
        dim = 1 + trial % 7
        y = _signed_zeros(rng, rng.normal(size=dim) * 10.0 ** rng.integers(-8, 9))
        if trial % 3 != 2:
            y = -np.abs(y)                         # in the polar cone {y <= 0}
        if trial % 3 == 1:
            y[0] = 10.0 ** rng.integers(-14, 0)    # near its boundary
        K = NonnegativeOrthant(dim)
        old = float(np.max(np.maximum(y, 0.0), initial=0.0))
        assert _bits(K._polar_distance(y)) == _bits(old)
        for tol in (1e-12, 1e-6, 1e-2, 1.0):
            verdict = old <= tol * max(1.0, inf_norm(y))
            assert K._in_polar(y, tol) == verdict
            assert (_bits(K.support(y, cone_tol=tol))
                    == _bits(0.0 if verdict else inf))


def test_zero_cone_support_is_zero_everywhere():
    # the polar of {0} is the whole space
    rng = np.random.default_rng(67)
    for trial in range(100):
        dim = 1 + trial % 5
        y = _signed_zeros(rng, rng.normal(size=dim)
                          * 10.0 ** rng.integers(-300, 301))
        for tol in (1e-300, 1e-12, 1.0, 1e300):
            assert _bits(Zero(dim).support(y, cone_tol=tol)) == _bits(0.0)


def test_singleton_kernels_match_old_forms():
    rng = np.random.default_rng(71)
    for trial in range(200):
        dim = 1 + trial % 6
        p = _signed_zeros(rng, rng.normal(size=dim) * 10.0 ** rng.integers(-4, 5))
        p[trial % dim] = -0.0
        S = Singleton(p)
        v = rng.normal(size=dim) * 10.0 ** rng.integers(-4, 5)
        for w in (v, -v, np.zeros(dim), np.full(dim, -0.0), p):
            assert _bits(S._project(w)) == _bits(p.copy())
            assert S.project(w) is not S.point
            assert (_bits(S._support(w, 1e-12)) == _bits(S.support(w))
                    == _bits(float(p @ w)))
            assert _bits(S._recession(w)) == _bits(np.zeros(dim))
            assert (_bits(S._jacobian(w))
                    == _bits(ProjectionJacobian(np.zeros(dim))))


# ------------------------------------------------------------ stacked rows
# The trace evaluates _support and _recession once on a (k, dim) stack;
# each row must be bitwise what the kernel gives that row alone.

_SPECIAL = [0.0, -0.0, 1.0, -1.0, 1e308, -1e308, 1.7e308, -1.7e308]
_entries = st.one_of(st.sampled_from(_SPECIAL), st.floats(-1e3, 1e3),
                     st.floats(allow_nan=False, allow_infinity=False))


def _vec(draw, dim):
    return np.array(draw(st.lists(_entries, min_size=dim, max_size=dim)))


@st.composite
def _stacked_set(draw, kind, dim):
    if kind == "box":
        lower = _vec(draw, dim)
        upper = lower + np.abs(_vec(draw, dim))
        lower[draw(st.lists(st.booleans(), min_size=dim, max_size=dim))] = -inf
        upper[draw(st.lists(st.booleans(), min_size=dim, max_size=dim))] = inf
        return Box(lower, upper)
    if kind == "orthant":
        return NonnegativeOrthant(dim)
    if kind == "zero":
        return Zero(dim)
    if kind == "soc":
        return SecondOrderCone(dim)
    if kind == "ball":
        return Ball(_vec(draw, dim), draw(st.floats(0.0, 1e3)))
    if kind == "halfspace":
        normal = _vec(draw, dim)
        normal[0] = draw(st.sampled_from([1.0, -2.5, 1e-3]))
        return Halfspace(normal, draw(st.floats(-1e3, 1e3)))
    if kind == "translated_cone":
        cone = draw(st.sampled_from([NonnegativeOrthant, Zero,
                                     SecondOrderCone]))(dim)
        return TranslatedCone(_vec(draw, dim), cone)
    if kind == "singleton":
        return Singleton(_vec(draw, dim))
    kinds = [k for k in ALL_KINDS if k != "cartesian"]
    return Cartesian([draw(_stacked_set(draw(st.sampled_from(kinds)),
                                        draw(st.integers(1, 3))))
                      for _ in range(draw(st.integers(1, 3)))])


def _stacked_rows(draw, S):
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        row = _vec(draw, S.dim)
        if draw(st.booleans()):  # zeros against any infinite box bound
            row[draw(st.lists(st.booleans(), min_size=S.dim,
                              max_size=S.dim))] = draw(st.sampled_from(
                                  [0.0, -0.0]))
        rows.append(row)
    if S.dim > 1:  # on the boundary of a cone over the tail, and at its origin
        tail = _vec(draw, S.dim - 1)
        rows += [np.concatenate([[sets._norm(tail)], tail]),
                 np.concatenate([[-sets._norm(tail)], tail]),
                 np.zeros(S.dim), np.full(S.dim, -0.0)]
    return np.array(rows)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from(ALL_KINDS), st.integers(1, 4),
       st.sampled_from([1e-12, 1e-6, 1.0]))
def test_stacked_kernels_match_the_vector_kernels(data, kind, dim, cone_tol):
    with np.errstate(all="ignore"):  # entries near 1e308 overflow
        S = data.draw(_stacked_set(kind, dim))
        Y = _stacked_rows(data.draw, S)
        support = S._support(Y, cone_tol)
        recession = S._recession(Y)
        assert support.shape == Y.shape[:1] and recession.shape == Y.shape
        for y, value, rec in zip(Y, support, recession):
            assert repr(float(value)) == repr(float(S._support(y, cone_tol)))
            assert repr(rec.tolist()) == repr(S._recession(y).tolist())
            if isinstance(S, Box):
                assert (repr(float(S._support(y, cone_tol)))
                        == repr(float(_old_box_support(S, y))))
