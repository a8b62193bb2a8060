"""The shared driver against the per-solver loops it replaced.

``_reference_run`` is the run loop each solver used to carry, and
``_reference_check`` / ``_reference_trace`` the termination test and
trace record; the DR versions took the residuals directly at the
iterate, the PP versions from the scaled differences. The driver must
reproduce them bitwise on every schedule edge. The one addition to the
old termination test is the dual polish at the check after the last
allowed step.
"""

import dataclasses
import math

import numpy as np
import pytest

from splitqp import driver
from splitqp import outcome as oc
from splitqp.dr import DrConfig, DrSolver
from splitqp.driver import TRACE_BLOCK, SolverState, iterate
from splitqp.instances import SET_FAMILIES, generate
from splitqp.linalg import inf_norm
from splitqp.pp import PpConfig, PpSolver
from splitqp.problem import (Certificate, ProblemData,
                             check_dual_certificate, check_primal_certificate)
from splitqp.sets import (Ball, Box, Cartesian, Halfspace, Singleton,
                          TranslatedCone, Zero)

KINDS = ("feasible", "primal_infeasible", "dual_infeasible")
# the last two end some runs with a detection at the check after the
# final step, off the check_interval grid
SCHEDULES = [dict(), dict(max_iter=1), dict(max_iter=400, check_interval=1),
             dict(max_iter=37, check_interval=7),
             dict(max_iter=150, check_interval=40)]


def _reference_residuals(solver, state):
    if isinstance(solver, DrSolver):
        P = solver.problem
        prim = inf_norm(P.A @ state.x - state.z)
        dual = inf_norm(P.Q @ state.x + P.q + P.A.T @ state.y)
        return prim, dual
    g = solver.config.gamma
    return inf_norm(state.dy) / g, inf_norm(state.dx) / g


def _reference_check(self, state):
    P, cfg = self.problem, self.config
    Ax = P.A @ state.x
    Qx = P.Q @ state.x
    Aty = P.A.T @ state.y
    if isinstance(self, DrSolver):
        prim = inf_norm(Ax - state.z)
        dual = inf_norm(Qx + P.q + Aty)
    else:
        prim, dual = _reference_residuals(self, state)
    eps_prim = cfg.eps_abs + cfg.eps_rel * max(inf_norm(Ax), inf_norm(state.z))
    eps_dual = cfg.eps_abs + cfg.eps_rel * max(
        inf_norm(Qx), inf_norm(P.q), inf_norm(Aty))
    if prim <= eps_prim and dual <= eps_dual:
        return oc.SolveOutcome(
            status=oc.SOLVED, iterations=state.n,
            x=state.x.copy(), z=state.z.copy(), y=state.y.copy(),
            residuals=(prim, dual))

    primal_cert = None
    dual_cert = None
    if inf_norm(state.dy) > 0.0:
        ok, metrics = check_primal_certificate(P, state.dy, cfg.eps_pinf)
        if ok:
            primal_cert = Certificate(
                kind="primal_infeasibility", vector=state.dy.copy(),
                metrics={**metrics, "eps": cfg.eps_pinf})
    if inf_norm(state.dx) > 0.0:
        ok, metrics = check_dual_certificate(P, state.dx, cfg.eps_dinf)
        if ok:
            dual_cert = Certificate(
                kind="dual_infeasibility", vector=state.dx.copy(),
                metrics={**metrics, "eps": cfg.eps_dinf})
    if primal_cert is None and dual_cert is None and state.n >= cfg.max_iter:
        # the dual polish at the final check: dx projected onto null(Q)
        lam, V = np.linalg.eigh(P.Q)
        N = V[:, lam <= 1e-9 * max(lam[-1], 0.0)]
        xbar = N @ (N.T @ state.dx)
        if inf_norm(xbar) > 0.0:
            ok, metrics = check_dual_certificate(P, xbar, cfg.eps_dinf)
            if ok:
                cos = float(state.dx @ xbar) / (
                    np.linalg.norm(state.dx) * np.linalg.norm(xbar))
                dual_cert = Certificate(
                    kind="dual_infeasibility", vector=xbar.copy(),
                    metrics={**metrics, "eps": cfg.eps_dinf, "polished": 1.0,
                             "polish_angle": float(np.arccos(min(cos, 1.0)))})
    if primal_cert is not None:
        return oc.SolveOutcome(
            status=oc.PRIMAL_INFEASIBLE, iterations=state.n,
            x=state.x.copy(), z=state.z.copy(), y=state.y.copy(),
            certificate=primal_cert, residuals=(prim, dual),
            secondary_certificate=dual_cert)
    if dual_cert is not None:
        return oc.SolveOutcome(
            status=oc.DUAL_INFEASIBLE, iterations=state.n,
            x=state.x.copy(), z=state.z.copy(), y=state.y.copy(),
            certificate=dual_cert, residuals=(prim, dual))
    return None


def _reference_trace(self, state):
    P, cfg = self.problem, self.config
    prim, dual = _reference_residuals(self, state)
    return oc.TraceRecord(
        n=state.n, primal_res=prim, dual_res=dual,
        norm_dx=inf_norm(state.dx), norm_dy=inf_norm(state.dy),
        norm_At_dy=inf_norm(P.A.T @ state.dy),
        support_dy=float(P.C.support(state.dy, cone_tol=cfg.eps_pinf)),
        norm_Q_dx=inf_norm(P.Q @ state.dx),
        q_dot_dx=float(P.q @ state.dx),
        dist_rec=P.C.distance_to_recession(P.A @ state.dx),
        inner_iters=state.inner_iters)


def _reference_run(self, warm=None, collect_trace=False):
    cfg = self.config
    state = self.initial_state(warm)
    history = [] if collect_trace else None
    for _ in range(cfg.max_iter):
        state = self.step(state)
        if collect_trace:
            history.append(_reference_trace(self, state))
        if state.n >= 2 and state.n % cfg.check_interval == 0:
            result = _reference_check(self, state)
            if result is not None:
                result.residual_history = history
                return result
    if state.n >= 2:
        result = _reference_check(self, state)
        if result is not None:
            result.residual_history = history
            return result
    prim, dual = _reference_residuals(self, state)
    return oc.SolveOutcome(
        status=oc.MAX_ITERATIONS, iterations=state.n,
        x=state.x.copy(), z=state.z.copy(), y=state.y.copy(),
        residuals=(prim, dual), residual_history=history)


def _assert_same_certificate(a, b):
    assert (a is None) == (b is None)
    if a is not None:
        assert a.kind == b.kind
        assert np.array_equal(a.vector, b.vector)
        assert a.metrics == b.metrics


def _assert_same_outcome(got, ref):
    assert (got.status, got.iterations) == (ref.status, ref.iterations)
    for name in ("x", "z", "y"):
        assert np.array_equal(getattr(got, name), getattr(ref, name))
    assert got.residuals == ref.residuals
    _assert_same_certificate(got.certificate, ref.certificate)
    _assert_same_certificate(got.secondary_certificate,
                             ref.secondary_certificate)
    assert got.residual_history == ref.residual_history


@pytest.mark.parametrize("n", [5, 20])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("solver_cls,config_cls",
                         [(DrSolver, DrConfig), (PpSolver, PpConfig)])
def test_run_matches_reference_loop_bitwise(solver_cls, config_cls, kind, n):
    for f, family in enumerate(SET_FAMILIES):
        P = generate(kind, 700 + 10 * n + f, n, n + 3, family).problem
        for schedule in SCHEDULES:
            cfg = config_cls(**schedule)
            got = solver_cls(P, cfg).run(collect_trace=True)
            ref = _reference_run(solver_cls(P, cfg), collect_trace=True)
            _assert_same_outcome(got, ref)
            assert got.iterations <= cfg.max_iter


@pytest.mark.parametrize("solver_cls", [DrSolver, PpSolver])
def test_simultaneous_certificates_match_reference(solver_cls):
    # x1 in [1, 2] and in [3, 4]; x2 >= 0 with q2 < 0 and Q = 0
    P = ProblemData(Q=np.zeros((2, 2)), q=[0.0, -1.0],
                    A=[[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                    C=Box([1.0, 3.0, 0.0], [2.0, 4.0, np.inf]))
    got = solver_cls(P).run(collect_trace=True)
    assert got.status == oc.PRIMAL_INFEASIBLE
    assert got.secondary_certificate.kind == "dual_infeasibility"
    _assert_same_outcome(got, _reference_run(solver_cls(P), collect_trace=True))


@pytest.mark.parametrize("solver_cls", [DrSolver, PpSolver])
def test_warm_started_run_matches_reference(solver_cls):
    rng = np.random.default_rng(17)
    P = generate("primal_infeasible", 91, 6, 9, "box_soc").problem
    warm = (rng.normal(size=P.n), rng.normal(size=P.m))
    solver = solver_cls(P)
    for trace in (False, True):  # a traced run's first block from warm
        _assert_same_outcome(
            solver.run(warm=warm, collect_trace=trace),
            _reference_run(solver_cls(P), warm=warm, collect_trace=trace))
    assert np.array_equal(warm[0], solver.initial_state(warm).x)
    assert solver.initial_state(warm).x is not warm[0]


def _hand_built_sets():
    """Sets the instance generators never build, alone and as parts."""
    parts = [Ball([1.0, -2.0], 0.5), Halfspace([1.0, 2.0], 0.3),
             Singleton([0.7]), Zero(1),
             TranslatedCone([1.5, -0.5], Zero(2))]
    return {"ball": Ball([0.5, -1.0, 2.0], 1.5),
            "halfspace": Halfspace([1.0, -1.0, 0.5], -2.0),
            "singleton": Singleton([1.0, -2.0]),
            "zero": Zero(2),
            "translated_zero": TranslatedCone([0.5, -1.5], Zero(2)),
            "cartesian": Cartesian(parts)}


@pytest.mark.parametrize("name", list(_hand_built_sets()))
@pytest.mark.parametrize("solver_cls,config_cls",
                         [(DrSolver, DrConfig), (PpSolver, PpConfig)])
def test_block_trace_matches_reference_on_hand_built_sets(
        solver_cls, config_cls, name):
    # runs that end inside, on and just past the block edges
    C = _hand_built_sets()[name]
    rng = np.random.default_rng(31)
    G = rng.normal(size=(3, 3))
    P = ProblemData(Q=G @ G.T, q=rng.normal(size=3),
                    A=rng.normal(size=(C.dim, 3)), C=C)
    supports = []
    for steps in (1, TRACE_BLOCK - 1, TRACE_BLOCK, TRACE_BLOCK + 1,
                  2 * TRACE_BLOCK + 1):
        cfg = config_cls(max_iter=steps, check_interval=1000)
        solver = solver_cls(P, cfg)
        blocks, record = [], solver.trace_record

        def recording(states):
            blocks.append(len(states))
            formed = [sorted(s.__dict__) for s in states]
            rows = record(states)
            # the block forms a DR state's y, dx and dy without the state
            assert [sorted(s.__dict__) for s in states] == formed
            return rows

        solver.trace_record = recording
        got = solver.run(collect_trace=True)
        _assert_same_outcome(got, _reference_run(solver_cls(P, cfg),
                                                 collect_trace=True))
        assert len(got.residual_history) == got.iterations == steps
        full, rest = divmod(steps, TRACE_BLOCK)
        assert blocks == [TRACE_BLOCK] * full + ([rest] if rest else [])
        supports += [r.support_dy for r in got.residual_history]
    if name in ("halfspace", "cartesian"):
        assert any(math.isinf(v) for v in supports)


@pytest.mark.parametrize("field,bad", [("dy", [1.0, np.inf, 0.0, 0.0]),
                                       ("dx", [1e300, 1e300, 1e300])])
def test_trace_record_rejects_non_finite_rows(field, bad):
    # a non-finite dy or A dx raises the public set methods' error
    P = generate("feasible", 5, 3, 4, "box").problem
    P = ProblemData(Q=P.Q, q=P.q, A=1e300 * P.A, C=P.C)
    ok = SolverState(n=1, x=np.zeros(3), y=np.zeros(4), v=np.zeros(4),
                     z=np.zeros(4), dx=np.zeros(3), dy=np.ones(4))
    broken = dataclasses.replace(ok, **{field: np.array(bad)})
    solver = PpSolver(P)
    assert len(solver.trace_record([ok, ok])) == 2
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match="^vector has non-finite entries$"):
        solver.trace_record([ok, broken, ok])


def test_state_keeps_only_the_certificate_differences():
    assert [f.name for f in dataclasses.fields(SolverState)] == [
        "n", "x", "y", "v", "z", "dx", "dy", "inner_iters"]
    for cls in (DrSolver, PpSolver):
        assert not hasattr(cls, "residuals")
        assert not hasattr(cls, "residual_vectors")


@pytest.mark.parametrize("solver_cls,config_cls",
                         [(DrSolver, DrConfig), (PpSolver, PpConfig)])
def test_iterate_yields_every_state_and_one_outcome(solver_cls, config_cls):
    P = generate("dual_infeasible", 3, 4, 6, "orthant").problem
    for schedule in SCHEDULES[1:4]:
        pairs = list(iterate(solver_cls(P, config_cls(**schedule))))
        assert [s.n for s, _ in pairs] == list(range(1, len(pairs) + 1))
        assert all(out is None for _, out in pairs[:-1])
        state, out = pairs[-1]
        assert isinstance(state, SolverState)
        assert out.iterations == state.n
        assert out.residual_history is None


@pytest.mark.parametrize("solver_cls,config_cls",
                         [(DrSolver, DrConfig), (PpSolver, PpConfig)])
def test_termination_checks_each_state_once(solver_cls, config_cls):
    # a max_iter on the check grid is checked once, not again as the last step
    P = generate("feasible", 9, 6, 9, "box_soc").problem
    for schedule, expected in ((dict(max_iter=50, check_interval=25), [25, 50]),
                               (dict(max_iter=37, check_interval=7),
                                [7, 14, 21, 28, 35, 37]),
                               (dict(max_iter=3, check_interval=1), [2, 3]),
                               (dict(max_iter=1), [])):
        solver = solver_cls(P, config_cls(eps_abs=1e-15, eps_rel=1e-15,
                                          **schedule))
        checked, check = [], solver.check_termination

        def recording(state):
            checked.append(state.n)
            return check(state)

        solver.check_termination = recording
        assert solver.run().status == oc.MAX_ITERATIONS
        assert checked == expected


@pytest.mark.parametrize("solver_cls,config_cls",
                         [(DrSolver, DrConfig), (PpSolver, PpConfig)])
def test_final_check_polishes_dual_certificate(solver_cls, config_cls):
    # raw dx on this instance stalls with ||Q dx|| / ||dx|| near 3e-5
    P = generate("dual_infeasible", 34033, 60, 90, "orthant").problem
    cfg = config_cls(max_iter=500)
    out = solver_cls(P, cfg).run()
    assert (out.status, out.iterations) == (oc.DUAL_INFEASIBLE, 500)
    assert check_dual_certificate(P, out.certificate.vector, cfg.eps_dinf)[0]
    metrics = out.certificate.metrics
    assert metrics["polished"] == 1.0
    assert 0.0 < metrics["polish_angle"] < 0.1


def test_polish_gives_no_false_certificate():
    # the badly scaled feasible problem: null(Q) is e1 at this threshold,
    # but A e1 is not in the recession cone {0} of the bounded box
    P = ProblemData(Q=np.diag([1e-8, 1e8]), q=[1.0, -1e6],
                    A=[[1e6, 0.0], [0.0, 1e-6], [1.0, 1.0]],
                    C=Box([-1.0, -1.0, -1e9], [1.0, 1.0, 1e9]))
    for max_iter in (2, 20, 26):
        out = DrSolver(P, DrConfig(max_iter=max_iter)).run()
        assert (out.status, out.iterations) == (oc.MAX_ITERATIONS, max_iter)


def test_state_records_inner_iterations_for_pp_only():
    P = generate("feasible", 4, 3, 5, "box").problem
    (dr_state, _), = iterate(DrSolver(P, DrConfig(max_iter=1)))
    (pp_state, _), = iterate(PpSolver(P, PpConfig(max_iter=1)))
    assert dr_state.inner_iters is None
    assert pp_state.inner_iters >= 1


@pytest.mark.parametrize("config_cls", [DrConfig, PpConfig])
def test_loop_config_validation(config_cls):
    for field in ("eps_abs", "eps_rel", "eps_pinf", "eps_dinf"):
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            config_cls(**{field: 0.0})
    for field in ("max_iter", "check_interval"):
        with pytest.raises(ValueError, match=f"{field} must be at least 1"):
            config_cls(**{field: 0})


@pytest.mark.parametrize("config_cls", [DrConfig, PpConfig])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_loop_config_rejects_non_finite(config_cls, value):
    for field in ("eps_abs", "eps_rel", "eps_pinf", "eps_dinf"):
        with pytest.raises(ValueError,
                           match=f"^{field} must be positive and finite$"):
            config_cls(**{field: value})


def test_both_configs_carry_the_loop_fields_and_defaults():
    loop = [(f.name, f.default) for f in dataclasses.fields(driver.LoopConfig)]
    assert dict(loop) == dict(eps_abs=1e-6, eps_rel=1e-6, eps_pinf=1e-6,
                              eps_dinf=1e-6, max_iter=20000, check_interval=25)
    for config_cls in (DrConfig, PpConfig):
        fields = [(f.name, f.default) for f in dataclasses.fields(config_cls)]
        assert fields[:len(loop)] == loop
        assert all(getattr(config_cls(), name) == d for name, d in loop)
    assert DrConfig(1.3).alpha == 1.3
    assert PpConfig(2.0).gamma == 2.0
    with pytest.raises(TypeError):  # the loop fields are keyword-only
        DrConfig(1.3, 1e-6)
    with pytest.raises(TypeError):
        PpConfig(2.0, None, 1000, 1e-6)
    # a config checks its own fields before the loop fields
    with pytest.raises(ValueError, match="^alpha out of range"):
        DrConfig(alpha=3.0, max_iter=0)
    with pytest.raises(ValueError, match="^gamma must be"):
        PpConfig(gamma=0.0, eps_abs=0.0)


@pytest.mark.parametrize("field", ["gamma", "inner_tol_abs"])
@pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
def test_pp_config_rejects_bad_positive_fields(field, value):
    with pytest.raises(ValueError,
                       match=f"^{field} must be positive and finite$"):
        PpConfig(**{field: value})


@pytest.mark.parametrize("solver_cls", [DrSolver, PpSolver])
def test_warm_start_shape_is_checked(solver_cls):
    P = generate("feasible", 5, 3, 5, "box").problem
    with pytest.raises(ValueError, match="warm start dimensions"):
        solver_cls(P).initial_state((np.zeros(3), np.zeros(4)))
    with pytest.raises(ValueError, match="warm start dimensions"):
        solver_cls(P).initial_state((np.zeros((3, 1)), np.zeros(5)))


@pytest.mark.parametrize("solver_cls,dual_name", [(DrSolver, "v"),
                                                  (PpSolver, "y")])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_warm_start_values_are_checked(solver_cls, dual_name, bad):
    # rejected at the boundary, not deep inside the first step
    P = generate("feasible", 5, 3, 5, "box").problem
    x = np.zeros(3)
    x[1] = bad
    with pytest.raises(ValueError, match="^warm start x has non-finite"):
        solver_cls(P).run(warm=(x, np.zeros(5)))
    w = np.zeros(5)
    w[4] = bad
    with pytest.raises(ValueError,
                       match=f"^warm start {dual_name} has non-finite"):
        solver_cls(P).run(warm=(np.zeros(3), w))


@pytest.mark.parametrize("kind", ["feasible", "primal_infeasible",
                                  "dual_infeasible"])
@pytest.mark.parametrize("solver_cls", [DrSolver, PpSolver])
def test_checkers_see_only_candidates_that_pass_their_cheap_tests(
        solver_cls, kind, monkeypatch):
    # a dy that fails ||A'dy||_inf never reaches C.support, and a dx that
    # fails ||Q dx||_inf or <q, dx> never reaches the recession distance
    P = generate(kind, 61, 20, 30, "box_soc").problem
    screened = {"primal": [], "dual": []}
    reached = {"primal": [], "dual": []}

    def recording(side, screen):
        def wrapped(problem, vector, eps, norm):
            result = screen(problem, vector, eps, norm)
            screened[side].append((vector.tobytes(), result[0]))
            return result
        return wrapped

    def counting(side, method):
        def wrapped(vector, *args, **kwargs):
            reached[side].append(vector.tobytes())
            return method(vector, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(driver, "primal_screen",
                        recording("primal", driver.primal_screen))
    monkeypatch.setattr(driver, "dual_screen",
                        recording("dual", driver.dual_screen))
    monkeypatch.setattr(P.C, "support", counting("primal", P.C.support))
    monkeypatch.setattr(P.C, "distance_to_recession",
                        counting("dual", P.C.distance_to_recession))
    out = solver_cls(P).run()
    expected = {"feasible": oc.SOLVED, "primal_infeasible": oc.PRIMAL_INFEASIBLE,
                "dual_infeasible": oc.DUAL_INFEASIBLE}[kind]
    assert out.status == expected
    checks = out.iterations // DrConfig().check_interval  # PP's is equal
    assert len(screened["primal"]) == len(screened["dual"]) == checks - (
        kind == "feasible")
    assert reached["primal"] == [v for v, ok in screened["primal"] if ok]
    assert len(reached["dual"]) == sum(ok for _, ok in screened["dual"])
    if kind == "feasible":  # every candidate fails at once
        assert not any(ok for _, ok in screened["primal"] + screened["dual"])
        assert reached == {"primal": [], "dual": []}
    else:  # the certificate's own check comes last
        side = "primal" if kind == "primal_infeasible" else "dual"
        assert screened[side][-1][1] and reached[side]


@pytest.mark.parametrize("field,name", [("dy", "ybar"), ("dx", "xbar")])
@pytest.mark.parametrize("solver_cls", [DrSolver, PpSolver])
def test_a_non_finite_candidate_still_reaches_its_checker(solver_cls, field,
                                                          name):
    # an infinite candidate skips the cheap tests and is rejected by the
    # checker's own validation, as before they ran first
    P = generate("feasible", 5, 3, 4, "box").problem
    bad = np.zeros(P.m if field == "dy" else P.n)
    bad[:2] = np.inf, -np.inf  # inf - inf in any product
    ok = SolverState(n=2, x=np.zeros(3), y=np.zeros(4), v=np.zeros(4),
                     z=np.zeros(4), dx=np.ones(3), dy=np.ones(4))
    state = dataclasses.replace(ok, **{field: bad})
    with pytest.raises(ValueError, match=f"^{name} has non-finite entries$"):
        solver_cls(P).check_termination(state)
