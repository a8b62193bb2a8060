import dataclasses
import gc
import weakref

import numpy as np
import pytest
import scipy.linalg

from splitqp.dr import DrConfig, DrSolver, dr_run
from splitqp.driver import SolverState, iterate
from splitqp.instances import (gen_dual_infeasible, gen_feasible,
                               gen_primal_infeasible, generate)
from splitqp.linalg import inf_norm, symmetrize
from splitqp.outcome import MAX_ITERATIONS
from splitqp.problem import ProblemData
from splitqp.sets import Box, Zero

from identities import aux_differences, residual_vectors, step_pairs

inf = np.inf

FAMILIES = ["box", "orthant", "translated_cone", "box_soc"]


def disjoint_interval_problem():
    return ProblemData(Q=np.zeros((1, 1)), q=[0.0], A=[[1.0], [1.0]],
                       C=Box([1.0, 3.0], [2.0, 4.0]))


def unbounded_problem():
    return ProblemData(Q=np.zeros((1, 1)), q=[-1.0], A=[[1.0]],
                       C=Box([0.0], [inf]))


def test_setup_subproblem_matrix():
    P = ProblemData(Q=np.zeros((1, 1)), q=[0.0], A=[[1.0]], C=Box([0.0], [1.0]))
    assert np.allclose(DrSolver(P)._factor._inverse, [[0.5]])
    P2 = ProblemData(Q=np.eye(1), q=[0.0], A=[[1.0]], C=Box([0.0], [1.0]))
    assert np.allclose(DrSolver(P2)._factor._inverse, [[1.0 / 3.0]])


def test_alpha_out_of_range():
    # the relaxation parameter must lie strictly inside (0, 2)
    with pytest.raises(ValueError, match="alpha out of range"):
        DrConfig(alpha=2.0)
    with pytest.raises(ValueError, match="alpha out of range"):
        DrConfig(alpha=0.0)
    DrConfig(alpha=1.999)


def test_step_hand_example():
    # Q=0, q=0, A=[[1]], C={0}, alpha=1, from (x, v) = (1, 1):
    # xt = (x - v) / 2 = 0, x1 = 0, v1 = 1
    P = ProblemData(Q=np.zeros((1, 1)), q=[0.0], A=[[1.0]], C=Zero(1))
    solver = DrSolver(P, DrConfig(alpha=1.0))
    state = solver.step(solver.initial_state(([1.0], [1.0])))
    assert state.x == pytest.approx([0.0])
    assert state.v == pytest.approx([1.0])


def test_fixed_point_is_invariant():
    # Q=0, q=0, A=I, C a box: any interior point with v = x is fixed
    P = ProblemData(Q=np.zeros((2, 2)), q=[0.0, 0.0], A=np.eye(2),
                    C=Box([0.0, 0.0], [1.0, 1.0]))
    solver = DrSolver(P, DrConfig(alpha=1.3))
    x = np.array([0.25, 0.75])
    state = solver.step(solver.initial_state((x, x)))
    assert np.max(np.abs(state.x - x)) <= 1e-15
    assert np.max(np.abs(state.v - x)) <= 1e-15


def test_kkt_warm_start_is_fixed_point():
    b = gen_feasible(7, 4, 6, "box")
    x, z, y = b.truth["x"], b.truth["z"], b.truth["y"]
    solver = DrSolver(b.problem)
    prev, state = next(step_pairs(solver, 1, warm=(x, z + y)))
    assert np.max(np.abs(state.x - x)) <= 1e-10
    assert np.max(np.abs(state.v - (z + y))) <= 1e-10
    prim, dual = map(inf_norm, residual_vectors(solver, prev, state)[:2])
    assert prim <= 1e-10 and dual <= 1e-10


def test_auxiliary_split_invariants():
    b = gen_feasible(3, 3, 5, "box_soc")
    solver = DrSolver(b.problem)
    state = solver.initial_state()
    for _ in range(50):
        state = solver.step(state)
        # bit-exact by construction: y is the projection residual of v
        assert np.array_equal(state.y, state.v - state.z)
        assert np.max(np.abs(state.z + state.y - state.v)) <= 1e-15
        # z is the projection of z + y
        back = b.problem.C.project(state.z + state.y)
        assert np.max(np.abs(back - state.z)) <= 1e-12


def test_residual_identities_on_random_instances():
    gens = [gen_feasible, gen_primal_infeasible, gen_dual_infeasible]
    for i in range(6):
        b = gens[i % 3](400 + i, 3 + i % 3, 5 + i % 2, FAMILIES[i % 4])
        solver = DrSolver(b.problem)
        for prev, state in step_pairs(solver, 200):
            pd, dd, pdir, ddir = residual_vectors(solver, prev, state)
            tol_p = 1e-10 * (1.0 + np.max(np.abs(pdir)))
            tol_d = 1e-10 * (1.0 + np.max(np.abs(ddir)))
            assert np.max(np.abs(pd - pdir)) <= tol_p
            assert np.max(np.abs(dd - ddir)) <= tol_d


def test_residuals_decrease_on_feasible_instance():
    b = gen_feasible(1, 4, 6, "box")
    solver = DrSolver(b.problem)
    state = solver.initial_state()
    values = []
    for _ in range(11):
        state = solver.step(state)
        values.append(max(solver.stopping_residuals(state)))
    assert all(values[i + 1] < values[i] for i in range(10))


def test_primal_residual_stalls_on_infeasible_instance():
    P = disjoint_interval_problem()
    solver = DrSolver(P, DrConfig(max_iter=10**6))
    norms = []
    for prev, state in step_pairs(solver, 400):
        norms.append(np.max(np.abs(state.dy)))
    prim = inf_norm(residual_vectors(solver, prev, state)[0])
    assert prim > 0.1                      # stalls strictly positive
    assert abs(norms[-1] - norms[-2]) <= 1e-9   # ||dy|| has stabilized


def test_detects_primal_infeasibility_with_known_direction():
    result = dr_run(disjoint_interval_problem())
    assert result.status == "primal_infeasible"
    v = result.certificate.vector
    direction = v / np.linalg.norm(v)
    target = np.array([1.0, -1.0]) / np.sqrt(2.0)
    assert np.linalg.norm(direction - target) <= 1e-3
    assert result.certificate.metrics["support"] < 0


def test_detects_dual_infeasibility_with_known_direction():
    result = dr_run(unbounded_problem())
    assert result.status == "dual_infeasible"
    v = result.certificate.vector
    assert v[0] > 0
    assert result.certificate.metrics["q_dot_x"] < 0


def test_solves_feasible_interior_instance():
    b = gen_feasible(21, 5, 7, "box")
    result = dr_run(b.problem)
    assert result.status == "solved"
    assert np.max(np.abs(result.x - b.truth["x"])) <= 1e-4
    prim, dual = result.residuals
    assert prim <= 1e-6 + 1e-6 * max(1.0, np.max(np.abs(result.z)))


def test_simultaneous_certificates_tie_break():
    # both the problem and its dual are strongly infeasible
    P = ProblemData(Q=np.zeros((1, 1)), q=[1.0], A=[[1.0], [0.0]],
                    C=Box([-inf, -inf], [inf, -1.0]))
    result = dr_run(P)
    assert result.status == "primal_infeasible"
    second = result.secondary_certificate
    assert second.kind == "dual_infeasibility"


def test_one_step_map_is_nonexpansive():
    rng = np.random.default_rng(17)
    for i in range(4):
        b = gen_feasible(600 + i, 3, 5, FAMILIES[i])
        solver = DrSolver(b.problem, DrConfig(alpha=1.9))
        for _ in range(100):
            x1, v1 = rng.normal(size=3), rng.normal(size=5)
            x2, v2 = rng.normal(size=3), rng.normal(size=5)
            s1 = solver.step(solver.initial_state((x1, v1)))
            s2 = solver.step(solver.initial_state((x2, v2)))
            before = np.sqrt(np.linalg.norm(x1 - x2) ** 2
                             + np.linalg.norm(v1 - v2) ** 2)
            after = np.sqrt(np.linalg.norm(s1.x - s2.x) ** 2
                            + np.linalg.norm(s1.v - s2.v) ** 2)
            assert after <= before + 1e-12


def test_delta_differences_decay():
    b = gen_primal_infeasible(31, 3, 4, "box")
    solver = DrSolver(b.problem, DrConfig(max_iter=10**6))
    last = None
    at_50 = at_5000 = None
    for prev, state in step_pairs(solver, 5000):
        cur = np.concatenate([state.dx, aux_differences(prev, state)[0]])
        if last is not None:
            if state.n == 50:
                at_50 = np.linalg.norm(cur - last)
            elif state.n == 5000:
                at_5000 = np.linalg.norm(cur - last)
        last = cur
    assert at_5000 <= 1e-2 * at_50


def test_max_iterations_status():
    b = gen_feasible(5, 4, 6, "box")
    result = dr_run(b.problem, DrConfig(max_iter=3))
    assert result.status == "max_iterations"
    assert result.iterations == 3
    assert result.x is not None


def test_warm_start_dimension_check():
    b = gen_feasible(5, 4, 6, "box")
    solver = DrSolver(b.problem)
    with pytest.raises(ValueError, match="warm start"):
        solver.initial_state((np.zeros(2), np.zeros(6)))


def test_trace_records():
    result = dr_run(disjoint_interval_problem(), collect_trace=True)
    trace = result.residual_history
    assert trace[0].n == 1 and trace[-1].n == result.iterations
    rec = trace[-1]
    assert rec.norm_dy > 0 and np.isfinite(rec.support_dy)
    assert rec.inner_iters is None


def _detect(solver):
    state = None
    for cur, out in iterate(solver):
        prev, state = state, cur
    assert out.status != MAX_ITERATIONS, "no detection within the budget"
    return out, prev, state


def test_structural_limits_at_detection():
    for i, fam in enumerate(FAMILIES):
        for gen, base in ((gen_primal_infeasible, 1300), (gen_dual_infeasible, 1400)):
            b = gen(base + i, 3 + i, 5 + i, fam)
            P = b.problem
            cfg = DrConfig()
            _, prev, state = _detect(DrSolver(P, cfg))
            dx, dy = state.dx, state.dy
            dz = aux_differences(prev, state)[1]
            assert np.max(np.abs(P.Q @ dx)) <= 1e-5 * (1 + np.max(np.abs(dx)))
            assert np.max(np.abs(P.A.T @ dy)) <= 1e-5 * (1 + np.max(np.abs(dy)))
            assert np.max(np.abs(P.A @ dx - dz)) <= 1e-5 * (1 + np.max(np.abs(dx)))


def test_cesaro_consistency_on_infeasible_instance():
    # running averages of the iterates approach the difference limits
    b = gen_primal_infeasible(321, 3, 4, "box")
    solver = DrSolver(b.problem, DrConfig(max_iter=10**6))
    for prev, state in step_pairs(solver, 10**5):
        pass
    avg = np.concatenate([state.x, state.v]) / state.n
    delta = np.concatenate([state.dx, aux_differences(prev, state)[0]])
    gap = np.linalg.norm(avg - delta)
    assert gap <= 1e-3 * (1.0 + np.linalg.norm(delta))


@pytest.mark.parametrize("gen", [gen_feasible, gen_primal_infeasible,
                                 gen_dual_infeasible])
def test_trajectory_matches_default_cho_solve_bitwise(gen):
    # reference DR loop solving with a product with the solver's cached
    # inverse; the validated solve must not move any iterate
    P = gen(2024, 20, 30, "box_soc").problem
    solver = DrSolver(P)
    alpha = solver.config.alpha
    state = solver.initial_state()
    x, v = state.x, state.v
    for _ in range(200):
        state = solver.step(state)
        z = P.C.project(v)
        xt = solver._factor._inverse @ (x - P.q + P.A.T @ (2.0 * z - v))
        x, v = x + alpha * (xt - x), v + alpha * (P.A @ xt - z)
        assert np.array_equal(state.x, x) and np.array_equal(state.v, v)


@pytest.mark.parametrize("k", [1, -1, 2, -2])
@pytest.mark.parametrize("family", ["box", "orthant"])
@pytest.mark.parametrize("kind", ["feasible", "primal_infeasible",
                                  "dual_infeasible"])
def test_outcome_matches_cho_solve_under_column_scaling(kind, family, k):
    # columns scaled alternately by 10^k and 10^-k make the subproblem
    # matrix ill-conditioned; solving with the cached inverse must end in
    # the same status after the same number of iterations as solving
    # with scipy's triangular solves on the same factor
    P = generate(kind, 9200, 20, 30, family).problem
    d = np.where(np.arange(P.n) % 2 == 0, 10.0 ** k, 10.0 ** -k)
    P = ProblemData(Q=P.Q * np.outer(d, d), q=P.q * d, A=P.A * d, C=P.C)
    cfg = DrConfig(max_iter=3000)
    ref = DrSolver(P, cfg)
    M = symmetrize(P.Q + np.eye(P.n) + P.A.T @ P.A)
    cho = scipy.linalg.cho_factor(M, lower=True)
    ref._factor.solve = lambda b: scipy.linalg.cho_solve(cho, b)
    got, want = DrSolver(P, cfg).run(), ref.run()
    assert (got.status, got.iterations) == (want.status, want.iterations)


def test_stepped_state_forms_its_differences_on_read_and_drops_its_parent():
    P = generate("primal_infeasible", 12, 6, 9, "box_soc").problem
    solver = DrSolver(P)
    first = solver.step(solver.initial_state())
    parent_y = first.y.copy()
    second = solver.step(first)
    parent = weakref.ref(first)
    del first
    gc.collect()
    assert parent() is None  # no chain of states
    assert isinstance(second, SolverState) and second.inner_iters is None
    assert not {"y", "dx", "dy"} & set(vars(second))  # nothing formed yet
    y = second.v - second.z
    assert second.y.tobytes() == y.tobytes()
    assert second.dy.tobytes() == (y - parent_y).tobytes()
    assert second.dx.tobytes() == (second.x - solver.step(
        solver.initial_state()).x).tobytes()
    copy = dataclasses.replace(second)
    assert all(getattr(copy, f.name) is getattr(second, f.name)
               for f in dataclasses.fields(SolverState))
    with pytest.raises(AttributeError):
        second.residuals
