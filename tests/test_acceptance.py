"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
The detection suites share one set of 300 seeded instances (100 per
truth family, rotating over the four set families, sizes capped well
under n, m = 20, half of them with m = n + 1 so the certificate
direction is unique by construction).
"""

import math
import time

import numpy as np
import pytest

from splitqp import fileio
from splitqp.cli import main
from splitqp.dr import DrConfig, DrSolver
from splitqp.driver import iterate
from splitqp.instances import (gen_dual_infeasible, gen_feasible,
                               gen_primal_infeasible)
from splitqp.linalg import inf_norm
from splitqp.outcome import MAX_ITERATIONS, SOLVED
from splitqp.pp import PpConfig, PpSolver
from splitqp.problem import (ProblemData, check_dual_certificate,
                             check_primal_certificate)
from splitqp.sets import Box, Halfspace, SecondOrderCone

from cesaro import cesaro_oracle, cesaro_triple
from identities import residual_vectors, step_pairs

FAMILIES = ["box", "orthant", "translated_cone", "box_soc"]
SET_KINDS = ["box", "orthant", "zero", "singleton", "halfspace", "ball",
             "soc", "translated_cone", "cartesian"]
inf = np.inf


def _sizes(i):
    n = 2 + (i % 9)
    m = n + 1 if i % 2 == 0 else n + 1 + (i % 5)
    return n, m


def _final(solver):
    """The outcome of a run and the state it stopped at."""
    for state, outcome in iterate(solver):
        pass
    return outcome, state


def _angle(u, v):
    c = float(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


@pytest.fixture(scope="module")
def suite():
    bundles = {"feasible": [], "primal_infeasible": [], "dual_infeasible": []}
    for i in range(100):
        n, m = _sizes(i)
        fam = FAMILIES[i % 4]
        bundles["feasible"].append(gen_feasible(11000 + i, n, m, fam))
        bundles["primal_infeasible"].append(
            gen_primal_infeasible(22000 + i, n, m, fam))
        bundles["dual_infeasible"].append(
            gen_dual_infeasible(33000 + i, n, m, fam))

    dr_cfg = DrConfig()
    t0 = time.monotonic()
    dr_results = {
        kind: [_final(DrSolver(b.problem, dr_cfg))
               for b in bs]
        for kind, bs in bundles.items()}
    dr_elapsed = time.monotonic() - t0

    pp_cfg = PpConfig(gamma=1.0)
    t0 = time.monotonic()
    pp_results = {
        kind: [_final(PpSolver(b.problem, pp_cfg))
               for b in bs]
        for kind, bs in bundles.items()}
    pp_elapsed = time.monotonic() - t0

    return {"bundles": bundles, "dr": dr_results, "pp": pp_results,
            "dr_cfg": dr_cfg, "pp_cfg": pp_cfg,
            "dr_elapsed": dr_elapsed, "pp_elapsed": pp_elapsed}


def test_acceptance_1_detection_suite(suite):
    correct = {}
    cert_failures = 0
    for kind, expected in (("feasible", SOLVED),
                           ("primal_infeasible", "primal_infeasible"),
                           ("dual_infeasible", "dual_infeasible")):
        hits = 0
        for bundle, (result, _) in zip(suite["bundles"][kind],
                                       suite["dr"][kind]):
            if result.status == expected:
                hits += 1
            if result.certificate is not None:
                checker = (check_primal_certificate
                           if result.certificate.kind == "primal_infeasibility"
                           else check_dual_certificate)
                ok, _ = checker(bundle.problem, result.certificate.vector, 1e-6)
                if not ok:
                    cert_failures += 1
        correct[kind] = hits
    ok = (all(v >= 99 for v in correct.values()) and cert_failures == 0
          and suite["dr_elapsed"] < 60.0)
    print(f"ACCEPTANCE 1: {'PASS' if ok else 'FAIL'} - DR detection "
          f"{correct} of 100 each, certificate failures {cert_failures}, "
          f"runtime {suite['dr_elapsed']:.1f}s (< 60s)")
    assert all(v >= 99 for v in correct.values()), correct
    assert cert_failures == 0
    assert suite["dr_elapsed"] < 60.0


def test_acceptance_2_pp_parity(suite):
    mismatches = 0
    compared = 0
    max_angle = 0.0
    angles = 0
    for kind in ("feasible", "primal_infeasible", "dual_infeasible"):
        for bundle, (dr_res, _), (pp_res, _) in zip(
                suite["bundles"][kind], suite["dr"][kind], suite["pp"][kind]):
            if MAX_ITERATIONS in (dr_res.status, pp_res.status):
                continue
            compared += 1
            if dr_res.status != pp_res.status:
                mismatches += 1
                continue
            if (bundle.unique_direction and dr_res.certificate is not None
                    and pp_res.certificate is not None):
                angles += 1
                max_angle = max(max_angle, _angle(
                    dr_res.certificate.vector, pp_res.certificate.vector))
    ok = (mismatches == 0 and max_angle <= 1e-3
          and suite["pp_elapsed"] < 120.0)
    print(f"ACCEPTANCE 2: {'PASS' if ok else 'FAIL'} - PP parity on "
          f"{compared} instances, {mismatches} status mismatches, max "
          f"certificate angle {max_angle:.2e} rad over {angles} unique "
          f"instances, runtime {suite['pp_elapsed']:.1f}s (< 120s)")
    assert mismatches == 0
    assert max_angle <= 1e-3
    assert suite["pp_elapsed"] < 120.0


def test_acceptance_3_residual_identities():
    gens = [gen_feasible, gen_primal_infeasible, gen_dual_infeasible]
    worst_dr = 0.0
    worst_pp = 0.0
    inner_tol = 1e-11
    pp_tol = max(1e-10, 10 * inner_tol)
    for i in range(20):
        n, m = 2 + i % 4, 4 + i % 3
        b = gens[i % 3](44000 + i, n, m, FAMILIES[i % 4])
        dr = DrSolver(b.problem, DrConfig())
        for prev, cur in step_pairs(dr, 200):
            pd, dd, pdir, ddir = residual_vectors(dr, prev, cur)
            worst_dr = max(
                worst_dr,
                np.max(np.abs(pd - pdir)) / (1 + np.max(np.abs(pdir))),
                np.max(np.abs(dd - ddir)) / (1 + np.max(np.abs(ddir))))
        pp = PpSolver(b.problem, PpConfig(inner_tol_abs=inner_tol))
        for prev, cur in step_pairs(pp, 200):
            pd, dd, pdir, ddir = residual_vectors(pp, prev, cur)
            worst_pp = max(
                worst_pp,
                np.max(np.abs(pd - pdir)) / (1 + np.max(np.abs(pdir))),
                np.max(np.abs(dd - ddir)) / (1 + np.max(np.abs(ddir))))
    ok = worst_dr <= 1e-10 and worst_pp <= pp_tol
    print(f"ACCEPTANCE 3: {'PASS' if ok else 'FAIL'} - residual identities, "
          f"worst DR gap {worst_dr:.2e} (<= 1e-10), worst PP gap "
          f"{worst_pp:.2e} (<= {pp_tol:.0e})")
    assert worst_dr <= 1e-10
    assert worst_pp <= pp_tol


def _stabilize_deltas(solver, state, budget=20000):
    """Continue a run until consecutive difference vectors stop moving.

    The limit identities concern the limits of the difference sequences;
    a detection can fire while a transient still dominates (the
    certificate test is direction-based and tolerance-based). Returns
    the state at numerical delta convergence plus the extra step count.
    """
    prev = np.concatenate([state.dx, state.dy])
    extra = 0
    for _ in range(budget):
        nxt = solver.step(state)
        cur = np.concatenate([nxt.dx, nxt.dy])
        extra += 1
        state = nxt
        if np.max(np.abs(cur - prev)) <= 1e-11 * (1.0 + np.max(np.abs(cur))):
            break
        prev = cur
    return state, extra


def test_acceptance_4_delta_limit_identities(suite):
    # identities evaluated on the detection run's stabilized differences
    alpha = suite["dr_cfg"].alpha
    gamma = suite["pp_cfg"].gamma
    worst_q = worst_s = 0.0
    checked_q = checked_s = 0
    continued = 0
    for kind in ("primal_infeasible", "dual_infeasible"):
        for bundle, (dr_res, dr_state), (pp_res, pp_state) in zip(
                suite["bundles"][kind], suite["dr"][kind], suite["pp"][kind]):
            P = bundle.problem
            for res, state, cfg, inv, with_Adx in (
                    (dr_res, dr_state, suite["dr_cfg"], 1.0 / alpha, True),
                    (pp_res, pp_state, suite["pp_cfg"], 1.0 / gamma, False)):
                if res.status not in ("primal_infeasible", "dual_infeasible"):
                    continue
                solver = (DrSolver(P, cfg) if with_Adx else PpSolver(P, cfg))
                state, extra = _stabilize_deltas(solver, state)
                continued += int(extra > 1)
                dx, dy = state.dx, state.dy
                checked_q += 1
                sq_dx = float(dx @ dx)
                lhs = float(P.q @ dx) + inv * sq_dx
                if with_Adx:
                    Adx = P.A @ dx
                    lhs += inv * float(Adx @ Adx)
                worst_q = max(worst_q, abs(lhs) / (1.0 + sq_dx))
                support = P.C.support(dy, cone_tol=1e-6)
                if math.isfinite(support):
                    checked_s += 1
                    sq_dy = float(dy @ dy)
                    worst_s = max(worst_s,
                                  abs(support + inv * sq_dy) / (1.0 + sq_dy))
    ok = worst_q <= 1e-4 and worst_s <= 1e-4
    print(f"ACCEPTANCE 4: {'PASS' if ok else 'FAIL'} - delta-limit identities "
          f"on stabilized detections: objective identity on {checked_q} "
          f"runs, worst {worst_q:.2e}; support identity on {checked_s} runs "
          f"with finite support, worst {worst_s:.2e} (<= 1e-4); "
          f"{continued} runs continued past detection")
    assert checked_q >= 390
    assert checked_s >= 190
    assert worst_q <= 1e-4
    assert worst_s <= 1e-4


def test_acceptance_5_cesaro_oracle():
    worst = 0.0
    membership = 0.0
    count = 0
    rng = np.random.default_rng(5150)
    for k, kind in enumerate(SET_KINDS):
        for j in range(6):
            S, ds, s0 = cesaro_triple(55000 + 31 * k + j, kind)
            count += 1
            p_avg, r_avg, inner = cesaro_oracle(S, ds, s0, 10**6)
            dp = S.project_recession(ds)
            dr_vec = S.project_polar_recession(ds)
            worst = max(worst,
                        float(np.linalg.norm(p_avg - dp)),
                        float(np.linalg.norm(r_avg - dr_vec)))
            support = S.support(dr_vec, cone_tol=1e-9)
            if math.isfinite(support):
                worst = max(worst, abs(inner - support))
            # item (i): the projection residual lies in the polar of the
            # recession cone
            s_n = s0 + 1e6 * ds
            r_n = s_n - S.project(s_n)
            for _ in range(5):
                d = S.project_recession(rng.normal(size=S.dim) * 3.0)
                scale = 1.0 + np.linalg.norm(r_n) * np.linalg.norm(d)
                membership = max(membership, float(r_n @ d) / scale)
    ok = worst <= 1e-3 and membership <= 1e-10 and count >= 50
    print(f"ACCEPTANCE 5: {'PASS' if ok else 'FAIL'} - averaged-projection "
          f"oracle on {count} triples, worst limit error {worst:.2e} "
          f"(<= 1e-3), worst polar-membership value {membership:.2e} "
          f"(<= 1e-10)")
    assert count >= 50
    assert worst <= 1e-3
    assert membership <= 1e-10


def test_acceptance_6_projection_calculus():
    rng = np.random.default_rng(6001)
    worst_idem = worst_firm = worst_moreau = worst_support = 0.0
    for kind in SET_KINDS:
        sets = [cesaro_triple(66000 + 13 * i, kind)[0] for i in range(4)]
        for S in sets:
            members = [S.project(rng.normal(size=S.dim) * 4.0)
                       for _ in range(20)]
            for _ in range(250):  # 1000 random inputs per descriptor kind
                u = rng.normal(size=S.dim) * 3.0
                v = rng.normal(size=S.dim) * 3.0
                pu = S.project(u)
                pv = S.project(v)
                worst_idem = max(worst_idem,
                                 float(np.max(np.abs(S.project(pu) - pu))))
                gap = (float(np.linalg.norm(pu - pv) ** 2)
                       - float((pu - pv) @ (u - v)))
                worst_firm = max(worst_firm, gap)
                p = S.project_recession(u)
                r = S.project_polar_recession(u)
                worst_moreau = max(
                    worst_moreau,
                    float(np.max(np.abs(p + r - u))),
                    abs(float(p @ r)) / (1.0 + float(u @ u)))
                sup = S.support(v)
                if math.isfinite(sup):
                    for z in members[:5]:
                        worst_support = max(worst_support, float(z @ v) - sup)
    ok = (worst_idem <= 1e-12 and worst_firm <= 1e-12
          and worst_moreau <= 1e-10 and worst_support <= 1e-10)
    print(f"ACCEPTANCE 6a: {'PASS' if ok else 'FAIL'} - projection calculus: "
          f"idempotence {worst_idem:.1e} (<=1e-12), firm nonexpansiveness "
          f"{worst_firm:.1e} (<=1e-12), Moreau {worst_moreau:.1e} (<=1e-10), "
          f"support inequality {worst_support:.1e} (<=1e-10)")
    assert worst_idem <= 1e-12
    assert worst_firm <= 1e-12
    assert worst_moreau <= 1e-10
    assert worst_support <= 1e-10

    # SOC and halfspace projections against brute-force distance
    # minimization over sampled feasible points
    worst_excess = 0.0
    for case in range(20):
        crng = np.random.default_rng(6100 + case)
        dim = 3 + case % 3
        S = SecondOrderCone(dim)
        v = crng.normal(size=dim) * 2.0
        p = S.project(v)
        assert inf_norm(p - S.project(p)) <= 1e-9
        X = crng.normal(size=(10**4, dim - 1)) * 2.0
        t = np.linalg.norm(X, axis=1) * (1.0 + np.abs(crng.normal(size=10**4)))
        samples = np.column_stack([t, X])  # members by construction
        dists = np.linalg.norm(samples - v, axis=1)
        worst_excess = max(worst_excess,
                           float(np.linalg.norm(v - p) - dists.min()))
    for case in range(20):
        crng = np.random.default_rng(6200 + case)
        dim = 2 + case % 4
        normal = crng.normal(size=dim)
        offset = float(crng.normal())
        S = Halfspace(normal, offset)
        v = crng.normal(size=dim) * 2.0
        p = S.project(v)
        assert inf_norm(p - S.project(p)) <= 1e-9
        raw = crng.normal(size=(4 * 10**4, dim)) * 3.0
        samples = raw[raw @ normal <= offset][:10**4]  # rejection sampling
        dists = np.linalg.norm(samples - v, axis=1)
        worst_excess = max(worst_excess,
                           float(np.linalg.norm(v - p) - dists.min()))
    ok = worst_excess <= 1e-6
    print(f"ACCEPTANCE 6b: {'PASS' if ok else 'FAIL'} - SOC/halfspace "
          f"projections beat 10^4-sample brute force, worst excess "
          f"{worst_excess:.2e} (<= 1e-6)")
    assert worst_excess <= 1e-6


def test_acceptance_7_feasible_accuracy(suite):
    hits = 0
    worst_err = 0.0
    for bundle, (dr_res, _), (pp_res, _) in zip(
            suite["bundles"]["feasible"], suite["dr"]["feasible"],
            suite["pp"]["feasible"]):
        x_star = bundle.truth["x"]
        if dr_res.status == SOLVED and pp_res.status == SOLVED:
            err = max(float(np.max(np.abs(dr_res.x - x_star))),
                      float(np.max(np.abs(pp_res.x - x_star))))
            worst_err = max(worst_err, err)
            if err <= 1e-4:
                hits += 1
    ok = hits >= 99
    print(f"ACCEPTANCE 7: {'PASS' if ok else 'FAIL'} - feasible accuracy: "
          f"{hits}/100 instances solved by both within 1e-4 "
          f"(worst solved error {worst_err:.2e})")
    assert hits >= 99


def test_acceptance_8_nonexpansiveness():
    rng = np.random.default_rng(8008)
    worst_dr = -np.inf
    worst_pp = -np.inf
    inner_tol = 1e-11
    for p in range(10):
        n, m = 2 + p % 4, 3 + p % 4
        b = gen_feasible(77000 + p, n, m, FAMILIES[p % 4])
        dr = DrSolver(b.problem, DrConfig())
        pp = PpSolver(b.problem, PpConfig(inner_tol_abs=inner_tol))
        for _ in range(1000):
            x1, v1 = rng.normal(size=n), rng.normal(size=m)
            x2, v2 = rng.normal(size=n), rng.normal(size=m)
            s1 = dr.step(dr.initial_state((x1, v1)))
            s2 = dr.step(dr.initial_state((x2, v2)))
            before = math.hypot(np.linalg.norm(x1 - x2), np.linalg.norm(v1 - v2))
            after = math.hypot(np.linalg.norm(s1.x - s2.x),
                               np.linalg.norm(s1.v - s2.v))
            worst_dr = max(worst_dr, after - before)
        for _ in range(1000):
            x1, y1 = rng.normal(size=n), rng.normal(size=m)
            x2, y2 = rng.normal(size=n), rng.normal(size=m)
            s1 = pp.step(pp.initial_state((x1, y1)))
            s2 = pp.step(pp.initial_state((x2, y2)))
            before = math.hypot(np.linalg.norm(x1 - x2), np.linalg.norm(y1 - y2))
            after = math.hypot(np.linalg.norm(s1.x - s2.x),
                               np.linalg.norm(s1.y - s2.y))
            worst_pp = max(worst_pp, after - before)
    pp_tol = 1e-9 + 10 * inner_tol
    ok = worst_dr <= 1e-12 and worst_pp <= pp_tol
    print(f"ACCEPTANCE 8: {'PASS' if ok else 'FAIL'} - nonexpansiveness over "
          f"10 problems x 1000 pairs: DR excess {worst_dr:.2e} (<= 1e-12), "
          f"PP excess {worst_pp:.2e} (<= {pp_tol:.1e})")
    assert worst_dr <= 1e-12
    assert worst_pp <= pp_tol


def test_acceptance_9_cli_contract(tmp_path):
    mismatched = 0
    for i in range(50):
        kind = ("feasible", "primal_infeasible", "dual_infeasible")[i % 3]
        fam = FAMILIES[i % 4]
        n, m = 2 + i % 5, 4 + i % 4
        path = tmp_path / f"gen{i}.json"
        code = main(["generate", kind, str(path), "--seed", str(88000 + i),
                     "-n", str(n), "-m", str(m), "--set-family", fam])
        assert code == 0
        original = path.read_text()
        problem, truth = fileio.loads_problem(original)
        if fileio.dumps_problem(problem, truth) != original:
            mismatched += 1

    canonical = {
        10: ProblemData(Q=np.zeros((1, 1)), q=[0.0], A=[[1.0], [1.0]],
                        C=Box([1.0, 3.0], [2.0, 4.0])),
        11: ProblemData(Q=np.zeros((1, 1)), q=[-1.0], A=[[1.0]],
                        C=Box([0.0], [inf])),
        0: ProblemData(Q=np.eye(1), q=[-0.5], A=[[1.0]], C=Box([0.0], [1.0])),
    }
    exit_ok = True
    for expected, problem in canonical.items():
        path = tmp_path / f"canonical{expected}.json"
        fileio.save_problem(path, problem)
        code = main(["solve", str(path), "--out",
                     str(tmp_path / f"out{expected}.json")])
        if code != expected:
            exit_ok = False
    ok = mismatched == 0 and exit_ok
    print(f"ACCEPTANCE 9: {'PASS' if ok else 'FAIL'} - CLI contract: 50/50 "
          f"round trips byte-identical ({50 - mismatched} ok), canonical "
          f"exit codes {'correct' if exit_ok else 'WRONG'}")
    assert mismatched == 0
    assert exit_ok
