import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from splitqp.linalg import (NotPositiveDefiniteError, SpdFactor, as_vector,
                            inf_norm, inf_norms, matvecs, spd_factor,
                            spectral_norm_est, symmetrize)


def test_as_vector_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        as_vector([1.0, np.nan])
    with pytest.raises(ValueError, match="non-finite"):
        as_vector([np.inf])


def test_as_vector_messages_and_check_order():
    with pytest.raises(ValueError, match=r"^q must be 1-dimensional, got shape \(1, 1\)$"):
        as_vector([[np.nan]], dim=3, name="q")
    # the finiteness check runs before the dimension check
    with pytest.raises(ValueError, match=r"^q has non-finite entries$"):
        as_vector([np.nan, 1.0], dim=3, name="q")
    with pytest.raises(ValueError, match=r"^q has dimension 2, expected 3$"):
        as_vector([0.0, 1.0], dim=3, name="q")
    v = np.array([1.0, 2.0])
    assert as_vector(v, dim=2) is v


def test_inf_norm_matches_max_abs():
    rng = np.random.default_rng(2)
    for v in (rng.normal(size=17), np.array([-3.0, 2.0]), np.zeros(0),
              np.array([1.0, np.nan])):
        expected = float(np.max(np.abs(v), initial=0.0))
        assert np.array_equal(inf_norm(v), expected, equal_nan=True)


def test_spd_factor_examples():
    f = spd_factor([[4.0]])
    assert np.allclose(f.solve([8.0]), [2.0])
    f = spd_factor(np.eye(2))
    assert np.allclose(f.solve([1.0, 2.0]), [1.0, 2.0])
    f = spd_factor([[2.0, 1.0], [1.0, 2.0]])
    s = f.solve([3.0, 3.0])
    assert np.allclose(s, [1.0, 1.0])
    # residual check of the derived value
    assert np.max(np.abs(np.array([[2.0, 1.0], [1.0, 2.0]]) @ s - [3.0, 3.0])) <= 1e-12


def test_spd_factor_rejects_nonsymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        spd_factor([[1.0, 0.5], [0.0, 1.0]])


def test_spd_factor_symmetry_message():
    with pytest.raises(
            ValueError,
            match=r"^matrix is not symmetric within tolerance 1e-12$"):
        spd_factor([[1.0, 2e-12], [0.0, 1.0]])


@pytest.mark.parametrize("n", [1, 2, 5, 40])
def test_factor_inverse_is_the_mirrored_potri_result(n):
    rng = np.random.default_rng(900 + n)
    G = rng.normal(size=(n, n))
    cho = scipy.linalg.cho_factor(G.T @ G + np.eye(n), lower=True)
    potri, = scipy.linalg.get_lapack_funcs(("potri",), (cho[0],))
    inv, info = potri(cho[0], lower=True)
    assert info == 0
    expected = np.tril(inv) + np.tril(inv, -1).T
    assert np.array_equal(SpdFactor(cho)._inverse, expected)


def test_spd_factor_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError, match="not positive definite"):
        spd_factor([[1.0, 0.0], [0.0, -1.0]])


def test_spd_factor_reconstruction():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = rng.integers(1, 8)
        G = rng.normal(size=(n, n))
        M = G.T @ G + np.eye(n)
        f = spd_factor(M)
        rel = np.linalg.norm(f._inverse @ symmetrize(M) - np.eye(n))
        assert rel <= 1e-10


def test_spd_solve_random_property():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = rng.integers(1, 12)
        G = rng.normal(size=(n, n))
        M = G.T @ G + np.eye(n)
        b = rng.normal(size=n)
        s = spd_factor(M).solve(b)
        bound = 1e-9 * (1.0 + np.max(np.abs(b)))
        assert np.max(np.abs(M @ s - b)) <= bound


def test_spd_solve_dimension_mismatch():
    f = spd_factor(np.eye(2))
    with pytest.raises(ValueError):
        f.solve([1.0, 2.0, 3.0])


@pytest.mark.parametrize("n", [*range(1, 13), 60, 300])
def test_spd_solve_is_bitwise_cho_solve(n):
    rng = np.random.default_rng(100 + n)
    G = rng.normal(size=(n, n))
    f = spd_factor(G.T @ G + np.eye(n))
    for _ in range(3):
        b = rng.normal(size=n)
        b_in = b.copy()
        s = f.solve(b)
        # the solve is one product with the stored inverse
        assert np.array_equal(s, f._inverse @ b)
        assert np.array_equal(b, b_in)  # the right-hand side is not overwritten
    assert np.array_equal(f._inverse, f._inverse.T)


@pytest.mark.parametrize("n", [20, 60, 300])
def test_spd_solve_accuracy_matches_cho_solve(n):
    # forward error of the inverse product stays within 4x that of
    # scipy's triangular solves, for cond(M) from 1e2 to 1e10; each error
    # is the largest over 16 right-hand sides, so one lucky rounding on
    # either side does not decide the comparison
    rng = np.random.default_rng(700 + n)
    U, _ = np.linalg.qr(rng.normal(size=(n, n)))
    for log_cond in (2, 4, 6, 8, 10):
        M = symmetrize((U * np.logspace(0, log_cond, n)) @ U.T)
        f = spd_factor(M)
        cho = scipy.linalg.cho_factor(M, lower=True)
        err = ref = 0.0
        for x_true in rng.normal(size=(16, n)):
            b = M @ x_true
            err = max(err, inf_norm(f.solve(b) - x_true))
            ref = max(ref, inf_norm(scipy.linalg.cho_solve(cho, b) - x_true))
        assert err <= 4.0 * ref


def test_spd_solve_empty_system():
    s = spd_factor(np.zeros((0, 0))).solve([])
    assert s.shape == (0,) and s.dtype == float


def test_spd_solve_rejects_bad_right_hand_side():
    f = spd_factor([[2.0, 1.0], [1.0, 2.0]])
    with pytest.raises(ValueError, match="right-hand side has dimension 1"):
        f.solve([1.0])
    with pytest.raises(ValueError, match="right-hand side has non-finite"):
        f.solve([1.0, np.inf])
    with pytest.raises(ValueError, match="right-hand side has non-finite"):
        f.solve([np.nan, 0.0])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_adjoint_consistency(seed):
    rng = np.random.default_rng(seed)
    m, n = rng.integers(1, 7, size=2)
    M = rng.normal(size=(m, n))
    x = rng.normal(size=n)
    y = rng.normal(size=m)
    lhs = float((M @ x) @ y)
    rhs = float(x @ (M.T @ y))
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_stacked_rows_match_vectors_bitwise(seed):
    # the trace's products and norms of a block, against one state's
    rng = np.random.default_rng(seed)
    m, n, k = rng.integers(1, 40, size=3)
    M = rng.normal(size=(m, n)) * 10.0 ** rng.integers(-5, 6)
    for A, V in ((M, rng.normal(size=(k, n))), (M.T, rng.normal(size=(k, m)))):
        V[rng.uniform(size=V.shape) < 0.1] = -0.0
        products = matvecs(A, V)
        norms = inf_norms(V)
        for row, product, norm in zip(V, products, norms):
            assert product.tobytes() == (A @ row.copy()).tobytes()
            assert repr(float(norm)) == repr(inf_norm(row))
        assert matvecs(A, V[0]).tobytes() == (A @ V[0]).tobytes()


def test_spectral_norm_estimate():
    rng = np.random.default_rng(5)
    for _ in range(10):
        M = rng.normal(size=(6, 4))
        est = spectral_norm_est(M)
        true = np.linalg.norm(M, 2)
        assert abs(est - true) <= 1e-6 * true
    assert spectral_norm_est(np.zeros((3, 2))) == 0.0
