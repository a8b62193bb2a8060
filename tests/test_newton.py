"""The structured Newton matrix of the PP inner solve and its factor reuse."""

import types

import numpy as np
import pytest
import scipy.linalg

from splitqp import pp
from splitqp.instances import gen_feasible, generate
from splitqp.pp import PpConfig, PpSolver
from splitqp.problem import ProblemData
from splitqp.sets import (Ball, Box, Cartesian, Halfspace, NonnegativeOrthant,
                          ProjectionJacobian, SecondOrderCone, Singleton,
                          TranslatedCone, Zero)

from jacobians import dense

inf = np.inf


# ------------------------------------------------- structured Jacobian cases

def _soc_points():
    return {
        "interior": np.array([3.0, 1.0, -1.0]),
        "polar": np.array([-3.0, 1.0, -1.0]),
        "boundary": np.array([0.5, 2.0, -1.0]),
        "kink_cone": np.array([5.0, 3.0, 4.0]),     # t == ||x||
        "kink_polar": np.array([-5.0, 3.0, 4.0]),   # t == -||x||
        "origin": np.zeros(3),
    }


def _cases():
    """``(name, set, points)`` covering every set kind, branch and kink."""
    rng = np.random.default_rng(3)
    box = Box([-inf, 0.0, -1.0, 2.0, -inf], [1.0, inf, 1.0, 2.0, inf])
    box_pts = [rng.normal(size=5) * 2.0,
               np.array([1.0, 0.0, -1.0, 2.0, 7.0]),    # every bound active
               np.array([-3.0, 5.0, 0.0, 1.0, -7.0])]
    soc = _soc_points()
    center = np.array([1.0, -2.0, 0.5])
    ball = Ball(center, 1.5)
    ball_pts = {"inside": center + 0.3,
                "on_boundary": center + np.array([1.5, 0.0, 0.0]),
                "outside": center + np.array([3.0, -1.0, 2.0])}
    half = Halfspace([1.0, -2.0, 0.5], 0.7)
    half_pts = {"inactive": np.array([0.0, 0.0, 0.0]),
                "active": np.array([3.0, -1.0, 1.0]),
                "kink": np.array([0.7, 0.0, 0.0])}
    tc_soc = TranslatedCone(np.array([1.0, 0.5, -0.5]), SecondOrderCone(3))
    tc_orth = TranslatedCone(np.array([0.5, -1.0]), NonnegativeOrthant(2))
    nested = Cartesian([
        Box([0.0, -1.0], [1.0, inf]),
        Cartesian([SecondOrderCone(3), half]),
        ball,
        Cartesian([Zero(1), Singleton([2.0]), tc_soc]),
    ])
    cases = [
        ("box", box, box_pts),
        ("orthant", NonnegativeOrthant(4),
         [rng.normal(size=4), np.array([0.0, 1.0, -1.0, 0.0])]),
        ("zero", Zero(3), [rng.normal(size=3)]),
        ("singleton", Singleton([1.0, 2.0]), [rng.normal(size=2)]),
        ("ball_center", Ball(np.zeros(2), 0.0), [np.zeros(2), np.ones(2)]),
        ("translated_orthant", tc_orth, [rng.normal(size=2), np.array([0.5, 0.0])]),
    ]
    cases += [(f"soc_{k}", SecondOrderCone(3), [v]) for k, v in soc.items()]
    cases += [(f"ball_{k}", ball, [v]) for k, v in ball_pts.items()]
    cases += [(f"halfspace_{k}", half, [v]) for k, v in half_pts.items()]
    cases += [(f"translated_soc_{k}", tc_soc, [v + tc_soc.offset])
              for k, v in soc.items()]
    nested_pts = [rng.normal(size=nested.dim) * 2.0 for _ in range(4)]
    nested_pts.append(np.concatenate([
        [1.0, -1.0], soc["kink_cone"], half_pts["kink"], ball_pts["on_boundary"],
        [0.0], [2.0], soc["boundary"] + tc_soc.offset]))
    cases.append(("nested_cartesian", nested, nested_pts))
    return cases


CASES = _cases()


def _solver_for(C, gamma, seed):
    rng = np.random.default_rng(seed)
    m, n = C.dim, 4
    G = rng.normal(size=(n, n))
    A = rng.normal(size=(m, n))
    P = ProblemData(Q=G.T @ G, q=rng.normal(size=n), A=A, C=C)
    return P, PpSolver(P, PpConfig(gamma=gamma))


@pytest.mark.parametrize("name,C,points", CASES, ids=[c[0] for c in CASES])
def test_newton_matrix_matches_dense_reference(name, C, points):
    gamma = 0.7
    P, solver = _solver_for(C, gamma, seed=len(name))
    S = np.eye(P.n) + gamma * P.Q
    for v in points:
        D = dense(C.projection_jacobian(v))
        reference = gamma ** 2 * (P.A.T @ ((np.eye(P.m) - D) @ P.A))
        assembled = solver.newton_matrix(C.projection_jacobian(v)) - S
        scale = max(1.0, float(np.max(np.abs(reference))))
        assert np.max(np.abs(assembled - reference)) <= 1e-12 * scale


def _two_temporary_newton_matrix(solver, jac):
    """``S + gamma^2 H``, the bracket H summed as ``newton_matrix`` does and
    scaled and shifted into new arrays."""
    A, g = solver.problem.A, solver.config.gamma
    clamped = jac.d == 0.0
    for start, stop, _ in jac.blocks:
        clamped[start:stop] = False
    A_C = A[clamped]
    H = A_C.T @ A_C
    for start, stop, alpha in jac.blocks:
        A_k = A[start:stop]
        H += (1.0 - alpha) * (A_k.T @ A_k)
    for start, U, N in jac.terms:
        W = A[start:start + U.shape[0]].T @ U
        H -= W @ N @ W.T
    return solver._S + (g * g) * H


@pytest.mark.parametrize("name,C,points", CASES, ids=[c[0] for c in CASES])
def test_newton_matrix_is_bitwise_the_two_temporary_sum(name, C, points):
    # scaling H in place and adding S to it rounds exactly as S + g^2 H
    for gamma in (0.1, 0.7, 10.0):
        P, solver = _solver_for(C, gamma, seed=len(name))
        for v in points:
            jac = C.projection_jacobian(v)
            assert (solver.newton_matrix(jac).tobytes()
                    == _two_temporary_newton_matrix(solver, jac).tobytes())


@pytest.mark.parametrize("name,C,points", CASES, ids=[c[0] for c in CASES])
def test_structured_jacobian_is_symmetric_with_spectrum_in_unit_interval(name, C, points):
    for v in points:
        D = dense(C.projection_jacobian(v))
        assert np.max(np.abs(D - D.T)) <= 1e-15
        eigs = np.linalg.eigvalsh(D)
        assert eigs[0] >= -1e-12 and eigs[-1] <= 1.0 + 1e-12


def test_pattern_key_identifies_piecewise_constant_jacobians():
    rng = np.random.default_rng(8)
    C = Cartesian([Box([-1.0, -1.0], [1.0, 1.0]), Halfspace([1.0, 1.0], 0.0),
                   SecondOrderCone(3)])
    seen = {}
    for _ in range(200):
        v = rng.normal(size=C.dim) * 2.0
        jac = C.projection_jacobian(v)
        key = jac.pattern_key()
        if key is None:
            assert jac.blocks
            continue
        seen.setdefault(key, dense(jac))
        assert np.array_equal(seen[key], dense(jac))
    assert len(seen) > 4


# ------------------------------------------------------------- factor reuse

class _CountingLinalg:
    """Stands in for ``pp.scipy``: counts factorizations and solves."""

    def __init__(self, on_solve=None):
        self.factors = 0
        self.solves = 0
        self._on_solve = on_solve
        self.linalg = types.SimpleNamespace(cho_factor=self.cho_factor,
                                            cho_solve=self.cho_solve)

    def cho_factor(self, *args, **kwargs):
        self.factors += 1
        return scipy.linalg.cho_factor(*args, **kwargs)

    def cho_solve(self, factor, b, **kwargs):
        self.solves += 1
        if self._on_solve is not None:
            self._on_solve(factor)
        return scipy.linalg.cho_solve(factor, b, **kwargs)


class DenseNewtonPp(PpSolver):
    """Reference inner solve: dense D and a fresh Cholesky every Newton step."""

    def resolvent_solve(self, x_prev, y_prev, tol):
        P, g = self.problem, self.config.gamma
        S = np.eye(P.n) + g * P.Q

        def F(x):
            u = P.A @ x + y_prev / g
            z = P.C.project(u)
            return S @ x - x_prev + g * P.q + g * g * (P.A.T @ (u - z)), u, z

        def norm(v):
            return float(np.max(np.abs(v)))

        x = np.array(x_prev, dtype=float)
        Fx, u, z = F(x)
        iters = 0
        while norm(Fx) > tol:
            assert iters < self.config.inner_max_iter
            D = dense(P.C.projection_jacobian(u))
            J = S + g * g * (P.A.T @ ((np.eye(P.m) - D) @ P.A))
            step = scipy.linalg.cho_solve(scipy.linalg.cho_factor(J, lower=True), -Fx)
            t = 1.0
            while t > 1e-12:
                trial = F(x + t * step)
                if norm(trial[0]) <= (1.0 - 1e-4 * t) * norm(Fx):
                    break
                t *= 0.5
            else:
                t = 1.0
                trial = F(x + step)
            x = x + t * step
            Fx, u, z = trial
            iters += 1
        return x, g * (u - z), iters, u, z


def test_factor_reuse_matches_dense_newton(monkeypatch):
    b = gen_feasible(60, 60, 90, "box")
    counting = _CountingLinalg()
    monkeypatch.setattr(pp, "scipy", counting)
    result = PpSolver(b.problem).run()
    reference = DenseNewtonPp(b.problem).run()
    assert result.status == reference.status == "solved"
    assert result.iterations == reference.iterations
    assert np.max(np.abs(result.x - reference.x)) <= 1e-10
    assert counting.solves >= result.iterations
    assert counting.factors < counting.solves


def test_pattern_flip_forces_refactor(monkeypatch):
    # F_i(x) = x_i - x_prev_i + q_i + min(x_i, 0) per coordinate. Coordinate
    # 0 stays clamped at its root -1; coordinate 1 starts clamped at -1 and
    # has its root 2 in the free region, so it flips after one Newton step.
    P = ProblemData(Q=np.zeros((2, 2)), q=[1.0, -3.0], A=np.eye(2),
                    C=Box([0.0, 0.0], [inf, inf]))
    solver = PpSolver(P, PpConfig(gamma=1.0))
    jacobians = []
    original = P.C.projection_jacobian

    def recording_jacobian(v):
        jacobians.append(original(v))
        return jacobians[-1]

    def check_fresh(factor):
        # the factor in use must be that of the current active pattern
        c, lower = factor
        L = np.tril(c) if lower else np.triu(c).T
        D = dense(jacobians[-1])
        assert np.allclose(L @ L.T, np.eye(2) + (np.eye(2) - D), rtol=0, atol=1e-14)

    monkeypatch.setattr(P.C, "projection_jacobian", recording_jacobian)
    counting = _CountingLinalg(on_solve=check_fresh)
    monkeypatch.setattr(pp, "scipy", counting)

    x_prev, y_prev = np.array([-1.0, -1.0]), np.zeros(2)
    for call in range(2):
        x, y, iters, _, _ = solver.resolvent_solve(x_prev, y_prev, 1e-12)
        assert np.allclose(x, [-1.0, 2.0], rtol=0, atol=1e-14)
        assert iters == 2
        # clamped -> free inside the call, then free -> clamped at the
        # start of the next call: every Newton step refactors
        assert counting.factors == counting.solves == 2 * (call + 1)
    assert [j.d.tolist() for j in jacobians] == [[0.0, 0.0], [0.0, 1.0]] * 2

    # a solve that stays on the last pattern reuses the cached factor
    x, _, iters, _, _ = solver.resolvent_solve(np.array([-1.0, 1.0]), y_prev, 1e-12)
    assert np.allclose(x, [-1.0, 4.0], rtol=0, atol=1e-14)
    assert iters == 1
    assert counting.factors == 4 and counting.solves == 5


# ------------------------------------------- low-rank updates of the factor

def _mask_solver(n, gamma, seed, C=None):
    """A solver on random data with m = 1.5 n; C defaults to the orthant.

    It corrects whenever ``6 k < n``, also below n = 100, where the
    solver's size floor would turn corrections off.
    """
    rng = np.random.default_rng(seed)
    m = 3 * n // 2
    G = rng.normal(size=(n, n)) / np.sqrt(n)
    C = NonnegativeOrthant(m) if C is None else C
    P = ProblemData(Q=G.T @ G, q=rng.normal(size=n), A=rng.normal(size=(m, n)),
                    C=C)
    solver = PpSolver(P, PpConfig(gamma=gamma))
    solver._max_flips = (n - 1) // 6
    return solver


def _fresh_direction(solver, jac, Fx):
    J = PpSolver.newton_matrix(solver, jac)
    return scipy.linalg.cho_solve(scipy.linalg.cho_factor(J, lower=True), -Fx)


def _flip_sequence(rng, m, n, steps=8):
    """0/1 masks: small flips both ways, repeats, returns to an earlier
    mask, large flips, and masks with few clamped rows (the rebuild)."""
    small = max(1, (n - 1) // 6)
    masks = [(rng.random(m) < 0.5).astype(float)]
    for _ in range(steps):
        d = masks[-1].copy()
        action = rng.choice(["small", "small", "small", "repeat", "return",
                             "large", "few_clamped"])
        if action == "repeat":
            pass
        elif action == "return":
            d = masks[rng.integers(len(masks))].copy()
        elif action == "few_clamped":
            d[:] = 1.0
            d[rng.choice(m, size=rng.integers(0, 4), replace=False)] = 0.0
        else:
            k = rng.integers(1, small + 1) if action == "small" else \
                rng.integers(small + 1, m // 2)
            rows = rng.choice(m, size=k, replace=False)
            d[rows] = 1.0 - d[rows]
        masks.append(d)
    return masks


@pytest.mark.parametrize("gamma", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("n,sequences", [(60, 56), (300, 12)])
def test_flip_sequences_match_fresh_factorizations(monkeypatch, n, sequences,
                                                   gamma):
    counting = _CountingLinalg()
    monkeypatch.setattr(pp, "scipy", counting)
    rng = np.random.default_rng(int(10 * gamma) + n)
    corrected_steps = folds = rebuilds = 0
    for seq in range(sequences):
        solver = _mask_solver(n, gamma, seed=seq)
        assembled = []

        def assemble(jac, solver=solver):
            assembled.append(jac)
            return PpSolver.newton_matrix(solver, jac)

        solver.newton_matrix = assemble
        for d in _flip_sequence(rng, solver.problem.m, n):
            jac = ProjectionJacobian(d)
            Fx = rng.normal(size=n)
            factors, had_kept = counting.factors, solver._kept is not None
            calls = len(assembled)
            step, corrected = solver._newton_direction(jac, Fx)
            reference = _fresh_direction(solver, jac, Fx)
            assert (np.max(np.abs(step - reference))
                    <= 1e-10 * (1.0 + np.max(np.abs(step))))
            corrected_steps += corrected
            if counting.factors > factors:
                assert not corrected
                assert solver._factor_key == jac.pattern_key()
                rebuilds += had_kept and len(assembled) > calls
                folds += had_kept and len(assembled) == calls
                # the new factor is that of the fresh matrix
                c, lower = solver._factor
                L = np.tril(c) if lower else np.triu(c).T
                J = PpSolver.newton_matrix(solver, jac)
                scale = max(1.0, float(np.max(np.abs(J))))
                assert np.max(np.abs(L @ L.T - J)) <= 1e-12 * scale
            # the kept matrix is that of the factored mask
            J = PpSolver.newton_matrix(solver,
                                       ProjectionJacobian(solver._kept_d.copy()))
            scale = max(1.0, float(np.max(np.abs(J))))
            assert np.max(np.abs(solver._kept - J)) <= 1e-12 * scale
    assert corrected_steps > 0 and folds > 0 and rebuilds > 0


def test_halfspace_terms_refactor_from_scratch(monkeypatch):
    n, m = 60, 90
    normal = np.array([1.0, -2.0, 0.5])
    C = Cartesian([NonnegativeOrthant(m - 3), Halfspace(normal, 0.0)])
    solver = _mask_solver(n, 1.0, seed=5, C=C)
    counting = _CountingLinalg()
    monkeypatch.setattr(pp, "scipy", counting)
    rng = np.random.default_rng(6)
    v = rng.normal(size=m)
    inactive, active = -normal, normal  # the halfspace part of v

    def direction(flip, halfspace):
        w = v.copy()
        w[flip] = -w[flip]
        w[m - 3:] = halfspace
        jac = C.projection_jacobian(w)
        Fx = rng.normal(size=n)
        step, corrected = solver._newton_direction(jac, Fx)
        return jac, Fx, step, corrected

    jac, _, _, _ = direction([], inactive)
    assert counting.factors == 1 and not jac.terms
    _, _, _, corrected = direction([0, 1], inactive)
    assert corrected and counting.factors == 1
    # a halfspace term appears, with the orthant mask unchanged: from scratch
    for flip, factors in (([0, 1], 2), ([0, 1, 2], 3)):
        jac, Fx, step, corrected = direction(flip, active)
        assert jac.terms and not corrected
        assert counting.factors == factors and solver._kept is None
        fresh = scipy.linalg.cho_solve(scipy.linalg.cho_factor(
            _two_temporary_newton_matrix(solver, jac), lower=True,
            check_finite=False), -Fx, check_finite=False)
        assert step.tobytes() == fresh.tobytes()
    # the term goes: the first mask is factored from scratch, then corrected
    _, _, _, corrected = direction([0, 1, 2], inactive)
    assert not corrected and counting.factors == 4
    assert solver._kept is not None
    _, _, _, corrected = direction([0], inactive)
    assert corrected and counting.factors == 4


@pytest.mark.parametrize("kind,seed", [("feasible", 120),
                                       ("primal_infeasible", 122)])
def test_corrections_match_dense_newton_on_orthant(monkeypatch, kind, seed):
    P = generate(kind, seed, 120, 180, "orthant").problem
    reference = DenseNewtonPp(P).run()
    patterns = set()
    original = P.C.projection_jacobian

    def recording_jacobian(v):
        jac = original(v)
        patterns.add(jac.pattern_key())
        return jac

    monkeypatch.setattr(P.C, "projection_jacobian", recording_jacobian)
    counting = _CountingLinalg()
    monkeypatch.setattr(pp, "scipy", counting)
    result = PpSolver(P).run()
    assert result.status == reference.status == (
        "solved" if kind == "feasible" else kind)
    assert result.iterations == reference.iterations
    assert None not in patterns
    assert counting.factors < len(patterns)


def test_curved_steps_are_bitwise_from_scratch():
    P = generate("primal_infeasible", 1270, 20, 30, "box_soc").problem
    curved = []

    class Checked(PpSolver):
        def _newton_direction(self, jac, Fx):
            step, corrected = super()._newton_direction(jac, Fx)
            if jac.pattern_key() is None:
                J = _two_temporary_newton_matrix(self, jac)
                fresh = scipy.linalg.cho_solve(
                    scipy.linalg.cho_factor(J, lower=True, check_finite=False),
                    -Fx, check_finite=False)
                assert not corrected and step.tobytes() == fresh.tobytes()
                curved.append(step)
            return step, corrected

    solver = Checked(P)
    state = solver.initial_state()
    for _ in range(200):
        state = solver.step(state)
    assert len(curved) > 50


def test_failed_search_on_corrected_direction_refactors_and_retries():
    P = generate("feasible", 120, 120, 180, "orthant").problem
    reference = PpSolver(P).run()
    retries = []

    class Uphill(PpSolver):
        """Every corrected direction points uphill, so its search fails."""

        def _corrected_direction(self, d, rows, Fx):
            return -super()._corrected_direction(d, rows, Fx)

        def _line_search(self, x, step, norm, x_prev, u_base):
            found = super()._line_search(x, step, norm, x_prev, u_base)
            retries.append(found[1] is None)
            return found

    result = Uphill(P).run()
    assert sum(retries) > 0
    assert result.status == reference.status == "solved"
    assert result.iterations == reference.iterations
    assert np.max(np.abs(result.x - reference.x)) <= 1e-8


@pytest.mark.parametrize("n,flips", [(2, 0), (60, 0), (99, 0), (100, 16),
                                     (300, 49)])
def test_corrections_need_six_k_below_n_from_n_100(n, flips):
    P = ProblemData(Q=np.zeros((n, n)), q=np.zeros(n), A=np.eye(n),
                    C=NonnegativeOrthant(n))
    assert PpSolver(P)._max_flips == flips
