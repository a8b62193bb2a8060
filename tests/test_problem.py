import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splitqp.dr import DrConfig, DrSolver
from splitqp.instances import (gen_dual_infeasible, gen_feasible,
                               gen_primal_infeasible)
from splitqp.problem import (ProblemData, check_dual_certificate,
                             check_primal_certificate, kkt_residuals)
from splitqp.sets import Box, NonnegativeOrthant, TranslatedCone

inf = np.inf


def box_problem(Q, q, A, lower, upper):
    return ProblemData(Q=np.atleast_2d(Q), q=np.atleast_1d(q),
                       A=np.atleast_2d(A), C=Box(lower, upper))


def test_problem_validation():
    with pytest.raises(ValueError, match="symmetric"):
        ProblemData(Q=[[0.0, 1.0], [0.0, 0.0]], q=[0.0, 0.0],
                    A=[[1.0, 0.0]], C=Box([0.0], [1.0]))
    with pytest.raises(ValueError, match="positive semidefinite"):
        ProblemData(Q=[[-1.0]], q=[0.0], A=[[1.0]], C=Box([0.0], [1.0]))
    with pytest.raises(ValueError, match="dimension"):
        ProblemData(Q=[[1.0]], q=[0.0], A=[[1.0]], C=Box([0.0, 0.0], [1.0, 1.0]))


def test_kkt_residual_examples():
    P = box_problem(0.0, 0.0, 1.0, [0.0], [inf])
    r = kkt_residuals(P, [1.0], [1.0], [0.0])
    assert r.primal == 0.0 and r.dual == 0.0
    r = kkt_residuals(P, [1.0], [0.0], [0.0])
    assert r.primal == pytest.approx(1.0) and r.dual == 0.0
    P2 = box_problem(1.0, 1.0, 1.0, [0.0], [inf])
    r = kkt_residuals(P2, [0.0], [0.0], [2.0])
    assert r.dual == pytest.approx(3.0)


def test_kkt_residuals_dimension_mismatch():
    P = box_problem(0.0, 0.0, 1.0, [0.0], [1.0])
    with pytest.raises(ValueError):
        kkt_residuals(P, [1.0, 2.0], [0.0], [0.0])


def test_primal_certificate_examples():
    # x in [1,2] and x in [3,4] cannot both hold
    P = ProblemData(Q=np.zeros((1, 1)), q=[0.0], A=[[1.0], [1.0]],
                    C=Box([1.0, 3.0], [2.0, 4.0]))
    ok, metrics = check_primal_certificate(P, [1.0, -1.0], 1e-6)
    assert ok
    assert metrics["norm_At_y"] == pytest.approx(0.0, abs=1e-15)
    assert metrics["support"] == pytest.approx(-1.0)

    ok, metrics = check_primal_certificate(P, [1.0, 1.0], 1e-6)
    assert not ok
    assert metrics["norm_At_y"] == pytest.approx(2.0)

    P3 = ProblemData(Q=np.zeros((1, 1)), q=[0.0], A=[[1.0], [1.0]],
                     C=NonnegativeOrthant(2))
    ok, metrics = check_primal_certificate(P3, [1.0, -1.0], 1e-6)
    assert not ok and metrics["support"] == inf


def test_symmetry_message_and_shape_attributes():
    with pytest.raises(ValueError,
                       match=r"^Q is not symmetric within tolerance 1e-12$"):
        ProblemData(Q=[[0.0, 1e-11], [0.0, 0.0]], q=[0.0, 0.0],
                    A=[[1.0, 0.0]], C=Box([0.0], [1.0]))
    P = ProblemData(Q=[[0.0, 1e-13], [0.0, 0.0]], q=[0.0, 0.0],
                    A=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                    C=NonnegativeOrthant(3))
    assert (P.m, P.n) == (3, 2) and vars(P)["m"] == 3 and vars(P)["n"] == 2
    assert type(P.m) is int and type(P.n) is int


def shifted_orthant_problem():
    """Feasible: x with (x, x) in (0, 5) + R^2_+, i.e. x >= 5."""
    return ProblemData(Q=np.zeros((1, 1)), q=[1.0], A=[[1.0], [1.0]],
                       C=TranslatedCone([0.0, 5.0], NonnegativeOrthant(2)))


def test_shifted_orthant_problem_is_solved_and_refuses_unit_candidates():
    P = shifted_orthant_problem()
    result = DrSolver(P).run()
    assert result.status == "solved" and result.iterations == 125
    for t in (1.0, 1e-3):
        ok, metrics = check_primal_certificate(P, t * np.array([1.0, -1.0]),
                                               1e-6)
        assert not ok and metrics["support"] == inf


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_small_false_certificate_is_refused():
    # polar membership is tested against an absolute floor below
    # ||y||_inf = 1, so t (1, -1) at t = 1e-7 passes with support -5e-7
    ok, _ = check_primal_certificate(shifted_orthant_problem(),
                                     [1e-7, -1e-7], 1e-6)
    assert not ok


def test_dual_certificate_examples():
    # minimize -x over x >= 0 is unbounded
    P = box_problem(0.0, -1.0, 1.0, [0.0], [inf])
    ok, metrics = check_dual_certificate(P, [1.0], 1e-6)
    assert ok
    assert metrics["dist_rec"] == 0.0 and metrics["q_dot_x"] == pytest.approx(-1.0)

    P2 = box_problem(0.0, 1.0, 1.0, [0.0], [inf])
    ok, metrics = check_dual_certificate(P2, [1.0], 1e-6)
    assert not ok and metrics["q_dot_x"] == pytest.approx(1.0)

    P3 = box_problem(1.0, -1.0, 1.0, [0.0], [inf])
    ok, metrics = check_dual_certificate(P3, [1.0], 1e-6)
    assert not ok and metrics["norm_Q_x"] == pytest.approx(1.0)


def test_certificate_zero_vector_rejected():
    P = box_problem(0.0, 0.0, 1.0, [0.0], [1.0])
    with pytest.raises(ValueError, match="nonzero"):
        check_primal_certificate(P, [0.0], 1e-6)
    with pytest.raises(ValueError, match="nonzero"):
        check_dual_certificate(P, [0.0], 1e-6)
    with pytest.raises(ValueError, match="positive"):
        check_primal_certificate(P, [1.0], 0.0)


@pytest.mark.parametrize("eps", [np.nan, np.inf, 0.0, -1.0])
def test_certificate_eps_must_be_positive_and_finite(eps):
    # a nan eps made every comparison false: a plain "fail", not an error
    P = box_problem(0.0, 0.0, 1.0, [0.0], [1.0])
    for check in (check_primal_certificate, check_dual_certificate):
        with pytest.raises(ValueError,
                           match="^eps must be positive and finite$"):
            check(P, [1.0], eps)


@settings(max_examples=60, deadline=None)
@given(st.floats(1e-6, 1e6), st.integers(0, 10**6))
def test_certificate_scaling_invariance(t, seed):
    rng = np.random.default_rng(seed)
    center = rng.normal(size=3)
    spread = np.abs(rng.normal(size=3)) + 0.1
    P = ProblemData(Q=np.zeros((2, 2)), q=rng.normal(size=2),
                    A=rng.normal(size=(3, 2)),
                    C=Box(center - spread, center + spread))
    y = rng.normal(size=3)
    ok1, _ = check_primal_certificate(P, y, 1e-6)
    ok2, _ = check_primal_certificate(P, t * y, 1e-6)
    assert ok1 == ok2
    x = rng.normal(size=2)
    ok1, _ = check_dual_certificate(P, x, 1e-6)
    ok2, _ = check_dual_certificate(P, t * x, 1e-6)
    assert ok1 == ok2


def test_generated_truths_pass_checkers():
    for seed in range(5):
        b = gen_primal_infeasible(100 + seed, 3, 5, "box")
        ok, _ = check_primal_certificate(b.problem, b.truth["vector"], 1e-9)
        assert ok
        b = gen_dual_infeasible(200 + seed, 3, 5, "orthant")
        ok, _ = check_dual_certificate(b.problem, b.truth["vector"], 1e-9)
        assert ok
        b = gen_feasible(300 + seed, 3, 5, "box")
        r = kkt_residuals(b.problem, b.truth["x"], b.truth["z"], b.truth["y"])
        assert max(r.primal, r.dual) <= 1e-9


def test_exclusivity_on_interior_feasible_instances():
    # solver differences on a strictly feasible problem never look like
    # certificates
    rng = np.random.default_rng(99)
    for trial in range(5):
        n, m = 3, 4
        G = rng.normal(size=(2 * n, n))
        Q = G.T @ G / (2 * n)
        x_star = rng.normal(size=n)
        A = rng.normal(size=(m, n))
        z_star = A @ x_star
        P = ProblemData(Q=Q, q=-(Q @ x_star), A=A,
                        C=Box(z_star - 1.0, z_star + 1.0))
        solver = DrSolver(P, DrConfig())
        state = solver.initial_state()
        for _ in range(200):
            state = solver.step(state)
            if state.n % 25 == 0:
                if np.max(np.abs(state.dy)) > 0:
                    ok, _ = check_primal_certificate(P, state.dy, 1e-5)
                    assert not ok
                if np.max(np.abs(state.dx)) > 0:
                    ok, _ = check_dual_certificate(P, state.dx, 1e-5)
                    assert not ok
