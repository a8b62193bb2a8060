import numpy as np
import pytest
import scipy.linalg

from splitqp.dr import dr_run
from splitqp.driver import iterate
from splitqp.instances import (gen_dual_infeasible, gen_feasible,
                               gen_primal_infeasible, generate)
from splitqp.linalg import inf_norm
from splitqp.pp import InnerSolveError, PpConfig, PpSolver, pp_run
from splitqp.outcome import MAX_ITERATIONS
from splitqp.problem import ProblemData
from splitqp.sets import Box

from identities import aux_differences, residual_vectors, step_pairs

inf = np.inf

FAMILIES = ["box", "orthant", "translated_cone", "box_soc"]


def whole_space(dim):
    """The unconstrained set, a box with infinite bounds."""
    return Box(np.full(dim, -inf), np.full(dim, inf))


def test_config_validation():
    with pytest.raises(ValueError, match="gamma"):
        PpConfig(gamma=0.0)
    with pytest.raises(ValueError, match="inner_tol_abs"):
        PpConfig(inner_tol_abs=0.0)


def test_resolvent_whole_space():
    # projection is the identity, so y vanishes and x solves one linear system
    rng = np.random.default_rng(2)
    n, m = 3, 2
    G = rng.normal(size=(n, n))
    Q = G.T @ G
    q = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    P = ProblemData(Q=Q, q=q, A=A, C=whole_space(m))
    gamma = 0.7
    solver = PpSolver(P, PpConfig(gamma=gamma, inner_tol_abs=1e-12))
    x_prev = rng.normal(size=n)
    y_prev = rng.normal(size=m)
    x, y, iters, _, _ = solver.resolvent_solve(x_prev, y_prev, 1e-12)
    expected = np.linalg.solve(np.eye(n) + gamma * Q, x_prev - gamma * q)
    assert np.max(np.abs(x - expected)) <= 1e-10
    assert np.max(np.abs(y)) <= 1e-12


def test_resolvent_scalar_hand_example():
    # piecewise-linear equation x + 1 + min(x, 0) = 0 has root -1/2,
    # and the dual update gives y = -1/2
    P = ProblemData(Q=np.zeros((1, 1)), q=[0.0], A=[[1.0]], C=Box([0.0], [inf]))
    solver = PpSolver(P, PpConfig(gamma=1.0, inner_tol_abs=1e-12))
    x, y, *_ = solver.resolvent_solve(np.array([-1.0]), np.array([0.0]), 1e-12)
    assert x == pytest.approx([-0.5], abs=1e-10)
    assert y == pytest.approx([-0.5], abs=1e-10)
    # verify the root directly: F(x) = x + 1 + min(x, 0)
    assert x[0] + 1.0 + min(x[0], 0.0) == pytest.approx(0.0, abs=1e-10)


def test_resolvent_fixes_kkt_points():
    b = gen_feasible(11, 4, 6, "box")
    x, y = b.truth["x"], b.truth["y"]
    solver = PpSolver(b.problem, PpConfig(inner_tol_abs=1e-12))
    xn, yn, *_ = solver.resolvent_solve(x, y, 1e-12)
    assert np.max(np.abs(xn - x)) <= 1e-10
    assert np.max(np.abs(yn - y)) <= 1e-10


def test_whole_space_step_converges_to_unconstrained_minimizer():
    rng = np.random.default_rng(4)
    n = 4
    G = rng.normal(size=(n, n))
    Q = G.T @ G + 0.5 * np.eye(n)
    q = rng.normal(size=n)
    P = ProblemData(Q=Q, q=q, A=np.eye(n), C=whole_space(n))
    solver = PpSolver(P, PpConfig(inner_tol_abs=1e-12))
    state = solver.initial_state()
    errs = []
    target = np.linalg.solve(Q, -q)
    for _ in range(60):
        state = solver.step(state)
        errs.append(np.linalg.norm(state.x - target))
    assert errs[-1] <= 1e-8
    # linear convergence: steady contraction of the error
    assert errs[20] <= 0.5 * errs[10]


def test_residual_identities():
    gens = [gen_feasible, gen_primal_infeasible, gen_dual_infeasible]
    for i in range(6):
        b = gens[i % 3](700 + i, 3 + i % 3, 5, FAMILIES[i % 4])
        solver = PpSolver(b.problem, PpConfig(inner_tol_abs=1e-11))
        tol = max(1e-10, 10 * 1e-11)
        for prev, state in step_pairs(solver, 150):
            pd, dd, pdir, ddir = residual_vectors(solver, prev, state)
            assert np.max(np.abs(pd - pdir)) <= tol * (1 + np.max(np.abs(pdir)))
            assert np.max(np.abs(dd - ddir)) <= tol * (1 + np.max(np.abs(ddir)))


def test_auxiliary_split_invariant():
    # y equals gamma * (v - z) bit-for-bit: both are computed from the
    # same projection of the same auxiliary vector
    b = gen_feasible(13, 3, 5, "box_soc")
    gamma = 0.8
    solver = PpSolver(b.problem, PpConfig(gamma=gamma))
    state = solver.initial_state()
    for _ in range(30):
        state = solver.step(state)
        assert np.array_equal(state.y, gamma * (state.v - state.z))


def test_dual_iterates_stay_in_polar_recession():
    for i, fam in enumerate(FAMILIES):
        b = gen_primal_infeasible(800 + i, 3, 5, fam)
        solver = PpSolver(b.problem)
        state = solver.initial_state()
        C = b.problem.C
        for _ in range(60):
            state = solver.step(state)
            back = C.project_polar_recession(state.y)
            assert np.max(np.abs(back - state.y)) <= 1e-8


def test_one_step_map_is_nonexpansive():
    rng = np.random.default_rng(23)
    tol = 1e-9 + 10 * 1e-11
    for i in range(3):
        b = gen_feasible(900 + i, 3, 5, FAMILIES[i])
        solver = PpSolver(b.problem, PpConfig(inner_tol_abs=1e-11))
        for _ in range(60):
            x1, y1 = rng.normal(size=3), rng.normal(size=5)
            x2, y2 = rng.normal(size=3), rng.normal(size=5)
            s1 = solver.step(solver.initial_state((x1, y1)))
            s2 = solver.step(solver.initial_state((x2, y2)))
            before = np.sqrt(np.linalg.norm(x1 - x2) ** 2
                             + np.linalg.norm(y1 - y2) ** 2)
            after = np.sqrt(np.linalg.norm(s1.x - s2.x) ** 2
                            + np.linalg.norm(s1.y - s2.y) ** 2)
            assert after <= before + tol


def test_inner_solver_budget_error():
    # the badly scaled baseline problem: two Newton steps leave F near 1e-10
    P = ProblemData(Q=np.diag([1e-8, 1e8]), q=[1.0, -1e6],
                    A=[[1e6, 0.0], [0.0, 1e-6], [1.0, 1.0]],
                    C=Box([-1.0, -1.0, -1e9], [1.0, 1.0, 1e9]))
    solver = PpSolver(P, PpConfig(inner_tol_abs=1e-12, inner_max_iter=2))
    with pytest.raises(InnerSolveError) as info:
        solver.resolvent_solve(np.zeros(2), np.zeros(3), 1e-12)
    err = info.value
    assert err.best_x.shape == (2,)
    assert err.residual_norm > 0
    assert err.iterations == 2


def test_end_to_end_canonical_instances():
    disjoint = ProblemData(Q=np.zeros((1, 1)), q=[0.0], A=[[1.0], [1.0]],
                           C=Box([1.0, 3.0], [2.0, 4.0]))
    result = pp_run(disjoint)
    assert result.status == "primal_infeasible"
    direction = result.certificate.vector / np.linalg.norm(result.certificate.vector)
    assert np.linalg.norm(direction - np.array([1.0, -1.0]) / np.sqrt(2)) <= 1e-3

    unbounded = ProblemData(Q=np.zeros((1, 1)), q=[-1.0], A=[[1.0]],
                            C=Box([0.0], [inf]))
    result = pp_run(unbounded)
    assert result.status == "dual_infeasible"
    assert result.certificate.vector[0] > 0

    b = gen_feasible(21, 5, 7, "box")
    result = pp_run(b.problem)
    assert result.status == "solved"
    assert np.max(np.abs(result.x - b.truth["x"])) <= 1e-4


def test_dual_residual_stabilizes_on_unbounded_instance():
    P = ProblemData(Q=np.zeros((1, 1)), q=[-1.0], A=[[1.0]], C=Box([0.0], [inf]))
    solver = PpSolver(P, PpConfig(max_iter=10**6))
    state = solver.initial_state()
    values = []
    for _ in range(200):
        state = solver.step(state)
        values.append(solver.stopping_residuals(state)[1])
    assert values[-1] > 0.1
    assert abs(values[-1] - values[-2]) <= 1e-9


def test_delta_y_norm_stabilizes_on_disjoint_instance():
    P = ProblemData(Q=np.zeros((1, 1)), q=[0.0], A=[[1.0], [1.0]],
                    C=Box([1.0, 3.0], [2.0, 4.0]))
    solver = PpSolver(P, PpConfig(max_iter=10**6))
    state = solver.initial_state()
    norms = []
    for _ in range(300):
        state = solver.step(state)
        norms.append(np.max(np.abs(state.dy)))
    assert norms[-1] > 0.01
    assert abs(norms[-1] - norms[-2]) <= 1e-9


def test_agreement_with_douglas_rachford():
    def angle(u, v):
        c = float(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))
        return float(np.arccos(np.clip(c, -1.0, 1.0)))

    for i, fam in enumerate(FAMILIES):
        b = gen_primal_infeasible(950 + i, 3, 4, fam)
        rd = dr_run(b.problem)
        rp = pp_run(b.problem)
        assert rd.status == rp.status == "primal_infeasible"
        if b.unique_direction:
            assert angle(rd.certificate.vector, rp.certificate.vector) <= 1e-3


def test_trace_records_include_inner_iterations():
    b = gen_feasible(33, 3, 4, "box")
    result = pp_run(b.problem, collect_trace=True)
    assert result.residual_history[0].inner_iters >= 1


def _detect(solver):
    state = None
    for cur, out in iterate(solver):
        prev, state = state, cur
    assert out.status != MAX_ITERATIONS, "no detection within the budget"
    return out, prev, state


def test_structural_limits_at_detection():
    for i, fam in enumerate(FAMILIES):
        for gen, base in ((gen_primal_infeasible, 1500), (gen_dual_infeasible, 1600)):
            b = gen(base + i, 3 + i, 5 + i, fam)
            P = b.problem
            cfg = PpConfig()
            _, prev, state = _detect(PpSolver(P, cfg))
            dx, dy = state.dx, state.dy
            dz = aux_differences(prev, state)[1]
            assert np.max(np.abs(P.Q @ dx)) <= 1e-5 * (1 + np.max(np.abs(dx)))
            assert np.max(np.abs(P.A.T @ dy)) <= 1e-5 * (1 + np.max(np.abs(dy)))
            assert np.max(np.abs(P.A @ dx - dz)) <= 1e-5 * (1 + np.max(np.abs(dx)))


def test_cesaro_consistency_and_dv_structure():
    # the averaged primal iterate approaches the difference limit, and the
    # auxiliary difference decomposes as A dx + dy / gamma
    b = gen_primal_infeasible(321, 3, 4, "box")
    cfg = PpConfig(max_iter=10**6)
    solver = PpSolver(b.problem, cfg)
    for prev, state in step_pairs(solver, 10**5):
        pass
    gap = np.linalg.norm(state.x / state.n - state.dx)
    assert gap <= 1e-3 * (1.0 + np.linalg.norm(state.dx))
    dv = aux_differences(prev, state)[0]
    dv_structure = dv - (b.problem.A @ state.dx + state.dy / cfg.gamma)
    assert np.linalg.norm(dv_structure) <= 1e-6 * (1.0 + np.linalg.norm(dv))


# ------------------------------------------- the resolvent before its reuse

class _ReferencePpSolver(PpSolver):
    """``resolvent_solve`` and ``_f_value`` as they were before the start
    evaluation reused the previous step's ``A x`` and ``S x``: F is
    evaluated from scratch at ``x_prev`` and each F value is normed where
    it is tested."""

    def _f_value(self, x, x_prev, u_base):
        """``(F(x), u, Pi_C(u))``; ``u_base = y_prev / gamma`` is fixed."""
        P, g = self.problem, self.config.gamma
        u = P.A @ x + u_base
        z = P.C.project(u)
        return (self._S @ x - x_prev + g * P.q + (g * g) * (P.A.T @ (u - z)),
                u, z)

    def resolvent_solve(self, x_prev, y_prev, tol):
        P, cfg, g = self.problem, self.config, self.config.gamma
        u_base = y_prev / g
        x = np.asarray(x_prev, dtype=float).copy()
        Fx, u, z = self._f_value(x, x_prev, u_base)
        iters = 0
        best_x, best_norm = x, inf_norm(Fx)
        while inf_norm(Fx) > tol:
            if iters >= cfg.inner_max_iter:
                raise InnerSolveError(
                    f"inner solve did not reach tolerance {tol:g} within "
                    f"{cfg.inner_max_iter} iterations "
                    f"(best residual {best_norm:g})",
                    best_x=best_x, residual_norm=best_norm, iterations=iters)
            jac = P.C.projection_jacobian(u)
            key = jac.pattern_key()
            if key is None or key != self._factor_key:
                self._factor = scipy.linalg.cho_factor(
                    self.newton_matrix(jac), lower=True, check_finite=False)
                self._factor_key = key
            step = scipy.linalg.cho_solve(self._factor, -Fx,
                                          check_finite=False)
            norm_Fx = inf_norm(Fx)
            t = 1.0
            while t > 1e-12:
                x_trial = x + t * step
                trial = self._f_value(x_trial, x_prev, u_base)
                if inf_norm(trial[0]) <= (1.0 - 1e-4 * t) * norm_Fx:
                    break
                t *= 0.5
            else:
                x_trial = x + step
                trial = self._f_value(x_trial, x_prev, u_base)
            x = x_trial
            Fx, u, z = trial
            iters += 1
            norm = inf_norm(Fx)
            if norm < best_norm:
                best_x, best_norm = x, norm
        return x, g * (u - z), iters, u, z


def _assert_states_bitwise(a, b):
    assert a.n == b.n and a.inner_iters == b.inner_iters
    for name in ("x", "y", "v", "z", "dx", "dy"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


def _step_beside(new, ref, state_new, state_ref, steps):
    for _ in range(steps):
        state_new, state_ref = new.step(state_new), ref.step(state_ref)
        _assert_states_bitwise(state_new, state_ref)
        # the next start evaluation reuses this step's products
        assert new._last[0] is state_new.x
    return state_new, state_ref


@pytest.mark.parametrize("n,m", [(5, 8), (20, 30)])
@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("kind", ["feasible", "primal_infeasible",
                                  "dual_infeasible"])
def test_resolvent_reuse_matches_reference_bitwise(kind, family, n, m):
    P = generate(kind, 1200 + n, n, m, family).problem
    new, ref = PpSolver(P), _ReferencePpSolver(P)
    _step_beside(new, ref, new.initial_state(), ref.initial_state(), 60)


def test_resolvent_reuse_matches_reference_after_warm_start():
    P = generate("feasible", 1240, 20, 30, "box_soc").problem
    rng = np.random.default_rng(3)
    warm = (rng.normal(size=P.n), rng.normal(size=P.m))
    new, ref = PpSolver(P), _ReferencePpSolver(P)
    _step_beside(new, ref, new.initial_state(), ref.initial_state(), 5)
    # a warm start in the same solver recomputes its start products
    _step_beside(new, ref, new.initial_state(warm), ref.initial_state(warm),
                 30)


def test_resolvent_reuse_matches_reference_after_inner_error():
    P = generate("primal_infeasible", 1250, 20, 30, "box").problem
    tight = PpConfig(inner_max_iter=1)
    new, ref = PpSolver(P, tight), _ReferencePpSolver(P, tight)
    s_new, s_ref = new.initial_state(), ref.initial_state()
    exc_ref = None
    for _ in range(200):
        try:
            next_ref = ref.step(s_ref)
        except InnerSolveError as exc:
            exc_ref = exc
            break
        s_new, s_ref = new.step(s_new), next_ref
        _assert_states_bitwise(s_new, s_ref)
    assert exc_ref is not None, "no step exceeded one inner iteration"
    with pytest.raises(InnerSolveError) as info:
        new.step(s_new)
    exc_new = info.value
    assert str(exc_new) == str(exc_ref)
    assert exc_new.best_x.tobytes() == exc_ref.best_x.tobytes()
    assert exc_new.iterations == exc_ref.iterations
    assert new._last is None
    # the same solvers, with their factor caches, resume from the last state
    loose = PpConfig()
    new.config = ref.config = loose
    _step_beside(new, ref, s_new, s_ref, 30)
