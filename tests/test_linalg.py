import subprocess
import sys
import types
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from splitqp import linalg
from splitqp.linalg import (NotPositiveDefiniteError, SpdFactor, as_vector,
                            inf_norm, matvecs, scipy_seam,
                            spd_factor, spectral_norm_est, symmetrize)


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
        assert type(inf_norm(v)) is float
        assert np.array_equal(inf_norm(v), expected, equal_nan=True)
    # a stack gives each row's norm: a NaN row stays NaN, no columns 0.0
    stack = rng.normal(size=(4, 6))
    stack[2, 3] = np.nan
    norms = inf_norm(stack)
    assert np.array_equal(norms, [inf_norm(row) for row in stack],
                          equal_nan=True)
    assert np.isnan(norms).tolist() == [False, False, True, False]
    assert inf_norm(np.zeros((3, 0))).tolist() == [0.0, 0.0, 0.0]


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
@example(871)  # m = n = 1 with a -0.0 entry, where M.dot gave -0.0
@example(1827)
@example(5945)
def test_stacked_rows_match_vectors_bitwise(seed):
    # the trace's products and norms of a block, against one state's
    rng = np.random.default_rng(seed)
    m, n, k = rng.integers(1, 40, size=3)
    M = rng.normal(size=(m, n)) * 10.0 ** rng.integers(-5, 6)
    for A, V in ((M, rng.normal(size=(k, n))), (M.T, rng.normal(size=(k, m)))):
        V[rng.uniform(size=V.shape) < 0.1] = -0.0
        products = matvecs(A, V)
        norms = inf_norm(V)
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
    for shape in ((3, 2), (0, 3), (3, 0)):
        assert spectral_norm_est(np.zeros(shape)) == 0.0


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_spd_factor_rejects_a_symmetrization_that_overflows():
    # M is finite and symmetric, but M + M.T is not
    with pytest.raises(ValueError, match=r"^symmetrized matrix has non-finite"):
        spd_factor([[1e308, 0.0], [0.0, 1.0]])


def test_lapack_routines_are_scipys_compiled_ones():
    assert linalg._flapack.__name__ == "scipy.linalg._flapack"
    for name in ("dpotrf", "dpotrs", "dpotri"):
        assert getattr(linalg._flapack, name) is getattr(scipy.linalg.lapack, name)


@pytest.mark.parametrize("n", [1, 5, 40, 300])
def test_seam_is_bitwise_scipys_cho_factor_and_cho_solve(n):
    rng = np.random.default_rng(500 + n)
    G = rng.normal(size=(n, n))
    M = G.T @ G + np.eye(n)
    M_in = M.copy()
    ours = scipy_seam.linalg.cho_factor(M, lower=True, check_finite=False)
    ref = scipy.linalg.cho_factor(M, lower=True, check_finite=False)
    assert ours[1] is ref[1] is True
    assert np.array_equal(ours[0], ref[0])
    assert np.array_equal(M, M_in)  # no overwrite
    for b in (rng.normal(size=n), rng.normal(size=(n, 3))):
        b_in = b.copy()
        x = scipy_seam.linalg.cho_solve(ours, b, check_finite=False)
        assert x.shape == b.shape
        assert np.array_equal(x, scipy.linalg.cho_solve(ref, b,
                                                        check_finite=False))
        assert np.array_equal(b, b_in)


def test_seam_errors():
    seam = scipy_seam.linalg
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        seam.cho_factor(np.array([[1.0, 2.0], [2.0, 1.0]]), lower=True,
                        check_finite=False)
    factor = seam.cho_factor(np.eye(3), lower=True, check_finite=False)
    for b in (np.ones(2), np.ones((4, 2))):
        with pytest.raises(ValueError):
            seam.cho_solve(factor, b, check_finite=False)
    c, lower = seam.cho_factor(np.zeros((0, 0)))
    assert c.shape == (0, 0) and lower


def test_seam_reports_an_illegal_argument_as_a_value_error(monkeypatch):
    # potrf and potrs give info < 0 for an illegal argument
    monkeypatch.setattr(linalg, "_flapack", types.SimpleNamespace(
        dpotrf=lambda a, **kw: (a, -1), dpotrs=lambda c, b, **kw: (b, -2)))
    with pytest.raises(ValueError, match="potrf failed with info -1") as exc:
        linalg.cho_factor(np.eye(2))
    assert not isinstance(exc.value, np.linalg.LinAlgError)
    with pytest.raises(ValueError, match="potrs failed with info -2"):
        linalg.cho_solve((np.eye(2), True), np.ones(2))


def _fresh_python(code):
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True).stdout


@pytest.mark.parametrize("module", ["splitqp", "splitqp.cli"])
def test_import_leaves_scipy_linalg_out(module):
    out = _fresh_python(
        f"import sys, {module}; "
        "print([m for m in ('scipy.linalg', 'numpy.f2py') if m in sys.modules])")
    assert out == "[]\n"


SOLVE = """
import hashlib, sys
import numpy as np
from splitqp import dr_run, generate, pp_run
problem = generate("feasible", 7, 120, 180, "box").problem
h = hashlib.sha256()
for run in (dr_run, pp_run):
    r = run(problem)
    for a in (r.x, r.y, r.z, r.iterations):
        h.update(np.asarray(a).tobytes())
print(h.hexdigest(), "scipy.linalg" in sys.modules)
"""


def test_solve_bits_do_not_depend_on_scipy_linalg_import_order():
    # n = 120 takes PP through its Woodbury corrections as well
    before = _fresh_python("import scipy.linalg" + SOLVE).split()
    after = _fresh_python("import splitqp, scipy.linalg" + SOLVE).split()
    alone = _fresh_python(SOLVE).split()
    assert before[0] == after[0] == alone[0]
    assert (before[1], after[1], alone[1]) == ("True", "True", "False")


def _old_as_vector(x, dim=None, name="vector"):
    """``as_vector`` before its fast path: the oracle for it."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} has non-finite entries")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"{name} has dimension {v.shape[0]}, expected {dim}")
    return v


class _Subclass(np.ndarray):
    pass


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1.5, -3.0, 1e154, 1e200,
            1e308, -1e308, np.inf, -np.inf, np.nan]
_LAYOUTS = {
    "float64": lambda v: np.array(v, dtype=float),
    "float32": lambda v: np.array(v, dtype=np.float32),
    "big-endian": lambda v: np.array(v, dtype=">f8"),
    "int": lambda v: np.array(v, dtype=float).astype(np.int64),
    "list": list,
    "tuple": tuple,
    "0-d": lambda v: np.array(v[0] if v else 0.0),
    "2-d": lambda v: np.array(v, dtype=float).reshape(1, -1),
    "2-d empty": lambda v: np.zeros((0, len(v))),
    "strided": lambda v: np.array(v + v, dtype=float)[::2],
    "reversed": lambda v: np.array(v, dtype=float)[::-1],
    "read-only": lambda v: np.frombuffer(np.array(v, dtype=float).tobytes()),
    "subclass": lambda v: np.array(v, dtype=float).view(_Subclass),
}


def _outcome(fn, x, dim):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return "ok", fn(x, dim=dim, name="v")
        except ValueError as exc:
            return "error", str(exc)


@settings(max_examples=400, deadline=None)
@given(values=st.lists(st.sampled_from(_SPECIAL) | st.floats(), max_size=12),
       layout=st.sampled_from(sorted(_LAYOUTS)),
       dim_shift=st.sampled_from([None, 0, 1, -1]))
def test_as_vector_fast_path_matches_the_full_path(values, layout, dim_shift):
    # same verdict, message and returned object as the path without the
    # shortcut, and no warning on any input
    with np.errstate(all="ignore"):  # casts to float32 or int64
        x = _LAYOUTS[layout](values)
    dim = None if dim_shift is None else len(values) + dim_shift
    got, expected = _outcome(as_vector, x, dim), _outcome(_old_as_vector, x, dim)
    assert got[0] == expected[0]
    if got[0] == "error":
        assert got[1] == expected[1]
    else:
        assert (got[1] is x) == (expected[1] is x)
        assert type(got[1]) is type(expected[1]) is np.ndarray
        assert got[1].dtype == expected[1].dtype
        assert got[1].shape == expected[1].shape
        assert got[1].tobytes() == expected[1].tobytes()


def test_as_vector_returns_a_finite_float64_vector_itself():
    for v in (np.array([-0.0, 5e-324, 1e308, -1e308]), np.zeros(0),
              np.arange(10.0)[::3]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert as_vector(v, dim=v.shape[0]) is v
