import dataclasses
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import splitqp
from splitqp import fileio
from splitqp.cli import EXIT_BREAKDOWN, EXIT_CODES, main
from splitqp.dr import DrConfig
from splitqp.driver import LoopConfig
from splitqp.instances import SET_FAMILIES, generate
from splitqp.outcome import DUAL_INFEASIBLE, SolveOutcome
from splitqp.pp import PpConfig
from splitqp.problem import Certificate, ProblemData
from splitqp.sets import (Ball, Box, Cartesian, Halfspace, NonnegativeOrthant,
                          SecondOrderCone, Singleton, TranslatedCone, Zero)

inf = np.inf


def disjoint_problem():
    return ProblemData(Q=np.zeros((1, 1)), q=[0.0], A=[[1.0], [1.0]],
                       C=Box([1.0, 3.0], [2.0, 4.0]))


def unbounded_problem():
    return ProblemData(Q=np.zeros((1, 1)), q=[-1.0], A=[[1.0]],
                       C=Box([0.0], [inf]))


def feasible_problem():
    return ProblemData(Q=np.eye(1), q=[-0.5], A=[[1.0]], C=Box([0.0], [1.0]))


def both_infeasible_problem():
    # x1 in [1, 2] and in [3, 4], while x2 >= 0 lowers the cost unboundedly
    return ProblemData(Q=np.zeros((2, 2)), q=[0.0, -1.0],
                       A=[[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                       C=Box([1.0, 3.0, 0.0], [2.0, 4.0, inf]))


def all_set_types_problem():
    """A Cartesian of all nine set types, with -0.0 and infinite entries."""
    C = Cartesian([
        Box([-0.0, -inf, 1.5], [0.0, 2.0, inf]),
        NonnegativeOrthant(2),
        Zero(1),
        Singleton([-0.0, 3.25]),
        Halfspace([1.0, -0.0, 2.0], -0.5),
        Ball([0.0, -0.0], 2.5),
        SecondOrderCone(3),
        TranslatedCone([1.0, -0.0], NonnegativeOrthant(2)),
        TranslatedCone([0.5], Zero(1)),
        TranslatedCone([-0.0, 1.0, 2.0], SecondOrderCone(3)),
        Cartesian([Box([0.0], [1.0]), Cartesian([Zero(2)])]),
    ])
    A = np.arange(1.0, 3.0 * C.dim + 1.0).reshape(C.dim, 3)
    A[0, 0] = -0.0
    A[1] = 0.0
    Q = np.array([[2.0, -0.0, 0.5], [-0.0, 1.0, 0.0], [0.5, 0.0, 3.0]])
    return ProblemData(Q=Q, q=[1.0, -0.0, 0.25], A=A, C=C)


# (part index in all_set_types_problem, member) for every set type
SET_MEMBERS = [(0, "l"), (0, "u"), (1, "dim"), (2, "dim"), (3, "value"),
               (4, "normal"), (4, "offset"), (5, "center"), (5, "radius"),
               (6, "dim"), (7, "offset"), (7, "cone"), (10, "parts")]


# ------------------------------------------------------------------- format

def test_round_trip_is_byte_identical():
    for i in range(9):
        kind = ("feasible", "primal_infeasible", "dual_infeasible")[i % 3]
        bundle = generate(kind, 4200 + i, 2 + i % 3, 4 + i % 2, SET_FAMILIES[i % 4])
        text1 = fileio.dumps_problem(bundle.problem, bundle.truth)
        problem, truth = fileio.loads_problem(text1)
        text2 = fileio.dumps_problem(problem, truth)
        assert text1 == text2


def test_infinite_bounds_round_trip():
    P = ProblemData(Q=np.zeros((2, 2)), q=[0.0, 0.0], A=np.eye(2),
                    C=Box([0.0, -inf], [inf, 1.0]))
    text = fileio.dumps_problem(P)
    assert '"inf"' in text and '"-inf"' in text
    loaded, _ = fileio.loads_problem(text)
    assert loaded.C.upper[0] == inf
    assert loaded.C.lower[1] == -inf


def test_nested_set_round_trip():
    C = Cartesian([Box([0.0], [1.0]),
                   TranslatedCone([1.0, 2.0], SecondOrderCone(2))])
    P = ProblemData(Q=np.zeros((1, 1)), q=[0.0], A=[[1.0], [0.5], [0.25]], C=C)
    text = fileio.dumps_problem(P)
    loaded, _ = fileio.loads_problem(text)
    assert fileio.dumps_problem(loaded) == text


def test_all_set_types_round_trip_is_byte_identical():
    P = all_set_types_problem()
    text = fileio.dumps_problem(P)
    obj = json.loads(text)
    types = {part["type"] for part in obj["set"]["parts"]}
    assert types == {"box", "nonneg", "zero", "point", "halfspace", "ball",
                     "soc", "translated_cone", "cartesian"}
    assert obj["set"]["parts"][0]["l"] == [-0.0, "-inf", 1.5]
    assert math.copysign(1.0, obj["set"]["parts"][0]["l"][0]) == -1.0
    assert obj["set"]["parts"][0]["u"] == [0.0, 2.0, "inf"]
    assert [part["cone"]["type"] for part in obj["set"]["parts"][7:10]] == [
        "nonneg", "zero", "soc"]
    # -0.0 matrix entries are zeros and get no triplet
    assert obj["Q"] == [[0, 0, 2.0], [0, 2, 0.5], [1, 1, 1.0], [2, 2, 3.0]]
    assert obj["A"][:3] == [[0, 1, 2.0], [0, 2, 3.0], [2, 0, 7.0]]
    loaded, _ = fileio.loads_problem(text)
    assert fileio.dumps_problem(loaded) == text
    assert math.copysign(1.0, loaded.C.parts[3].point[0]) == -1.0


@pytest.mark.parametrize("bad", ["missing", "x", True],
                         ids=["missing", "wrong_type", "bool"])
@pytest.mark.parametrize("part,key", SET_MEMBERS)
def test_malformed_set_member_is_named(part, key, bad):
    obj = fileio.problem_to_obj(all_set_types_problem())
    if bad == "missing":
        del obj["set"]["parts"][part][key]
    else:
        obj["set"]["parts"][part][key] = bad
    anchor = re.escape(f"set.parts[{part}].{key}")
    with pytest.raises(fileio.ProblemFormatError, match=f"^{anchor}: "):
        fileio.problem_from_obj(obj)


def test_empty_point_is_named():
    # a point needs a coordinate, as the zero cone it translates does
    obj = fileio.problem_to_obj(all_set_types_problem())
    obj["set"]["parts"][3]["value"] = []
    with pytest.raises(fileio.ProblemFormatError,
                       match=r"^set\.parts\[3\]: dimension must be at least 1$"):
        fileio.problem_from_obj(obj)


def test_malformed_set_member_exits_2(tmp_path, capsys):
    obj = fileio.problem_to_obj(all_set_types_problem())
    del obj["set"]["parts"][5]["radius"]
    path = tmp_path / "p.json"
    path.write_text(json.dumps(obj))
    assert main(["solve", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: set.parts[5].radius: expected a number\n")


def test_rejects_nan_and_bad_members():
    good = json.loads(fileio.dumps_problem(disjoint_problem()))

    text = ('{"n": 1, "m": 1, "Q": [], "q": [NaN], "A": [[0, 0, 1.0]], '
            '"set": {"type": "box", "l": [0.0], "u": [1.0]}}')
    with pytest.raises(fileio.ProblemFormatError, match="NaN|non-finite"):
        fileio.loads_problem(text)

    bad = dict(good)
    bad["set"] = {"type": "simplex", "dim": 2}
    with pytest.raises(fileio.ProblemFormatError, match="unknown set type"):
        fileio.problem_from_obj(bad)

    wide = fileio.problem_to_obj(ProblemData(
        Q=np.zeros((2, 2)), q=[0.0, 0.0], A=[[1.0, 0.0]], C=Box([0.0], [1.0])))
    wide["Q"] = [[1, 0, 0.5]]  # below the diagonal
    with pytest.raises(fileio.ProblemFormatError, match="upper triangle"):
        fileio.problem_from_obj(wide)

    bad = dict(good)
    bad["A"] = [[0, 0, 1.0], [0, 0, 2.0]]
    with pytest.raises(fileio.ProblemFormatError, match="duplicate"):
        fileio.problem_from_obj(bad)

    bad = dict(good)
    bad["A"] = [[5, 0, 1.0]]
    with pytest.raises(fileio.ProblemFormatError, match="out of range"):
        fileio.problem_from_obj(bad)

    bad = dict(good)
    del bad["set"]
    with pytest.raises(fileio.ProblemFormatError, match="missing required"):
        fileio.problem_from_obj(bad)

    bad = dict(good)
    bad["m"] = 3  # set dimension no longer matches
    with pytest.raises(fileio.ProblemFormatError, match="does not match"):
        fileio.problem_from_obj(bad)


def test_parse_error_is_line_anchored():
    with pytest.raises(fileio.ProblemFormatError, match="line"):
        fileio.loads_problem('{"n": 1,\n  "m": }')


def test_truth_sidecar_round_trip():
    bundle = generate("feasible", 9, 3, 4, "box")
    text = fileio.dumps_problem(bundle.problem, bundle.truth)
    _, truth = fileio.loads_problem(text)
    assert truth["kind"] == "kkt"
    assert np.allclose(truth["x"], bundle.truth["x"])


def triplet_problem_obj():
    """n = 2, m = 3, with a nonzero triplet in both Q and A."""
    return fileio.problem_to_obj(ProblemData(
        Q=np.eye(2), q=[0.0, 0.0], A=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
        C=Box([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])))


# (triplets, message) for each fault that reads the same in Q and A
TRIPLET_FAULTS = [
    ({}, "{key}: expected an array of triplets"),
    ("x", "{key}: expected an array of triplets"),
    (["x"], "{key}[0]: expected [row, col, value]"),
    ([[0, 0]], "{key}[0]: expected [row, col, value]"),
    ([[0, 0, 1.0, 2.0]], "{key}[0]: expected [row, col, value]"),
    ([[True, 0, 1.0]], "{key}[0]: expected an integer index"),
    ([[0, False, 1.0]], "{key}[0]: expected an integer index"),
    ([[0.0, 0, 1.0]], "{key}[0]: expected an integer index"),
    ([[0, 1.0, 1.0]], "{key}[0]: expected an integer index"),
    ([[0, 0, inf]], "{key}[0]: value must be finite"),
    ([[0, 0, "1.0"]], "{key}[0]: expected a number"),
    ([[0, 0, 1.0], [0, 1, 2.0], [0, 0, 3.0]],
     "{key}[2]: duplicate entry (0, 0)"),
]
# (member, triplets, message): indices out of range, A being 3 x 2 and Q 2 x 2
RANGE_FAULTS = [
    ("A", [[3, 0, 1.0]], "A[0]: index 3 out of range [0, 3)"),
    ("A", [[-1, 0, 1.0]], "A[0]: index -1 out of range [0, 3)"),
    ("A", [[0, 2, 1.0]], "A[0]: index 2 out of range [0, 2)"),
    ("Q", [[2, 0, 1.0]], "Q[0]: index 2 out of range [0, 2)"),
    ("Q", [[0, -1, 1.0]], "Q[0]: index -1 out of range [0, 2)"),
    ("Q", [[0, 2, 1.0]], "Q[0]: index 2 out of range [0, 2)"),
]


def _assert_problem_fault(obj, text):
    with pytest.raises(fileio.ProblemFormatError, match=f"^{re.escape(text)}$"):
        fileio.problem_from_obj(obj)


@pytest.mark.parametrize("key", ["A", "Q"])
@pytest.mark.parametrize("triplets,message", TRIPLET_FAULTS)
def test_triplet_fault_is_named(key, triplets, message):
    obj = triplet_problem_obj()
    obj[key] = triplets
    _assert_problem_fault(obj, message.format(key=key))


@pytest.mark.parametrize("key,triplets,message", RANGE_FAULTS)
def test_triplet_index_out_of_range_is_named(key, triplets, message):
    obj = triplet_problem_obj()
    obj[key] = triplets
    _assert_problem_fault(obj, message)


def test_triplet_below_the_diagonal_of_q_is_named():
    obj = triplet_problem_obj()
    obj["Q"] = [[0, 0, 1.0], [1, 0, 0.5]]
    _assert_problem_fault(obj, "Q[1]: entry (1, 0) is below the diagonal; "
                          "store the upper triangle only")
    obj["A"] = [[1, 0, 0.5]]  # A keeps its lower triangle
    obj["Q"] = [[0, 0, 1.0]]
    problem, _ = fileio.problem_from_obj(obj)
    assert problem.A[1, 0] == 0.5


# A JSON number that cannot become a finite float: an integer beyond the
# float range, and a literal that parses to inf.
NON_FINITE_LITERALS = ["1" + "0" * 400, "1e400"]


def ball_problem():
    return ProblemData(Q=np.eye(1), q=[0.0], A=[[1.0]], C=Ball([0.0], 1.0))


@pytest.mark.parametrize("literal", NON_FINITE_LITERALS,
                         ids=["huge_int", "1e400"])
@pytest.mark.parametrize("problem,path,where", [
    (disjoint_problem, ("A", 0, 2), "A[0]"),
    (disjoint_problem, ("q", 0), "q[0]"),
    (disjoint_problem, ("set", "u", 1), "set.u[1]"),
    (ball_problem, ("set", "radius"), "set.radius"),
], ids=["triplet", "q", "box_bound", "ball_radius"])
def test_non_finite_problem_number_is_named(tmp_path, capsys, literal, problem,
                                            path, where):
    obj = fileio.problem_to_obj(problem())
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = "@NUMBER@"
    file = tmp_path / "p.json"
    file.write_text(json.dumps(obj).replace('"@NUMBER@"', literal))
    assert main(["solve", str(file)]) == 2
    assert capsys.readouterr().err == f"error: {where}: value must be finite\n"


@pytest.mark.parametrize("member,value,message", [
    ("n", 10 ** 7, "q: expected 10000000 entries, got 1"),
    ("m", 10 ** 7, "set: dimension 3 does not match m = 10000000"),
])
def test_huge_declared_size_is_named_before_allocation(
        tmp_path, capsys, monkeypatch, member, value, message):
    # a dense Q or A of 10^7 rows would not fit in memory
    obj = fileio.problem_to_obj(ProblemData(
        Q=np.eye(1), q=[1.0], A=np.ones((3, 1)), C=NonnegativeOrthant(3)))
    obj[member] = value

    def no_matrix(*args, **kwargs):
        raise AssertionError("a matrix was allocated")

    monkeypatch.setattr(fileio, "_matrix_from_triplets", no_matrix)
    path = tmp_path / "p.json"
    path.write_text(json.dumps(obj))
    assert main(["solve", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("literal", NON_FINITE_LITERALS,
                         ids=["huge_int", "1e400"])
def test_non_finite_candidate_number_is_named(tmp_path, capsys, literal):
    path = tmp_path / "p.json"
    fileio.save_problem(path, disjoint_problem())
    cand = tmp_path / "cand.json"
    cand.write_text('{"kind": "primal_infeasibility", "vector": [1.0, %s]}'
                    % literal)
    assert main(["check", str(path), str(cand)]) == 2
    assert capsys.readouterr().err == (
        "error: candidate.vector[1]: value must be finite\n")


@pytest.mark.parametrize("literal", NON_FINITE_LITERALS,
                         ids=["huge_int", "1e400"])
def test_non_finite_warm_start_number_is_named(tmp_path, capsys, literal):
    path = tmp_path / "p.json"
    fileio.save_problem(path, feasible_problem())
    warm = tmp_path / "warm.json"
    warm.write_text('{"x": [%s], "v": [0.5]}' % literal)
    assert main(["solve", str(path), "--warm", str(warm)]) == 2
    assert capsys.readouterr().err == "error: warm.x[0]: value must be finite\n"


# ---------------------------------------------------------------------- cli

def test_solve_exit_codes(tmp_path, capsys):
    cases = [(disjoint_problem(), 10), (unbounded_problem(), 11),
             (feasible_problem(), 0)]
    for i, (problem, expected) in enumerate(cases):
        path = tmp_path / f"p{i}.json"
        fileio.save_problem(path, problem)
        for solver in ("dr", "pp"):
            code = main(["solve", str(path), "--solver", solver,
                         "--out", str(tmp_path / f"o{i}{solver}.json")])
            assert code == expected, (solver, i)


def test_solve_max_iterations_exit_code(tmp_path):
    path = tmp_path / "p.json"
    fileio.save_problem(path, feasible_problem())
    code = main(["solve", str(path), "--max-iter", "2",
                 "--out", str(tmp_path / "o.json")])
    assert code == 12


def test_solve_writes_outcome_and_trace(tmp_path):
    path = tmp_path / "p.json"
    fileio.save_problem(path, disjoint_problem())
    out = tmp_path / "outcome.json"
    trace = tmp_path / "trace.csv"
    code = main(["solve", str(path), "--solver", "dr",
                 "--out", str(out), "--trace", str(trace)])
    assert code == 10
    outcome = json.loads(out.read_text())
    assert outcome["status"] == "primal_infeasible"
    assert outcome["certificate"]["kind"] == "primal_infeasibility"
    assert outcome["config_echo"]["solver"] == "dr"
    assert outcome["config_echo"]["alpha"] == 1.6
    lines = trace.read_text().strip().splitlines()
    assert lines[0] == ("iter,primal_res,dual_res,norm_dx,norm_dy,"
                        "norm_At_dy,support_dy,norm_Q_dx,q_dot_dx,dist_rec")
    assert len(lines) == outcome["iterations"] + 1
    # every field parses as a float ('inf' allowed for the support column)
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 10
        [float(f) for f in fields]


@pytest.mark.parametrize("solver", ["dr", "pp"])
@pytest.mark.parametrize("problem,eps,statuses", [
    (feasible_problem(), [], ("solved", "solved")),
    (disjoint_problem(), [], ("max_iterations", "primal_infeasible")),
    (generate("feasible", 9, 6, 9, "box_soc").problem,
     ["--eps-abs", "1e-15", "--eps-rel", "1e-15"],
     ("max_iterations", "max_iterations"))])
def test_trace_has_a_row_per_iteration_off_the_block_grid(
        tmp_path, solver, problem, eps, statuses):
    # trace rows are evaluated per block of steps; a run that stops
    # inside a block still gets a row for each of its steps
    path = tmp_path / "p.json"
    fileio.save_problem(path, problem)
    out = tmp_path / "o.json"
    trace = tmp_path / "trace.csv"
    code = main(["solve", str(path), "--solver", solver, "--max-iter", "37",
                 "--check-interval", "7", *eps, "--out", str(out),
                 "--trace", str(trace)])
    outcome = json.loads(out.read_text())
    assert outcome["status"] == statuses[solver == "pp"]
    assert code == EXIT_CODES[outcome["status"]]
    iterations = outcome["iterations"]
    assert iterations % 25 != 0
    rows = trace.read_text().splitlines()[1:]
    assert [int(r.split(",")[0]) for r in rows] == list(
        range(1, iterations + 1))


def test_pp_trace_has_inner_iters_column(tmp_path):
    path = tmp_path / "p.json"
    fileio.save_problem(path, feasible_problem())
    trace = tmp_path / "trace.csv"
    code = main(["solve", str(path), "--solver", "pp", "--trace", str(trace),
                 "--out", str(tmp_path / "o.json")])
    assert code == 0
    header = trace.read_text().splitlines()[0]
    assert header.endswith(",inner_iters")


def test_support_column_renders_inf(tmp_path):
    from splitqp.outcome import TraceRecord
    rec = TraceRecord(n=1, primal_res=0.5, dual_res=0.25, norm_dx=1.0,
                      norm_dy=2.0, norm_At_dy=0.1, support_dy=math.inf,
                      norm_Q_dx=0.0, q_dot_dx=-1.0, dist_rec=0.0)
    path = tmp_path / "trace.csv"
    fileio.write_trace_csv(path, [rec])
    line = path.read_text().splitlines()[1]
    assert line.split(",")[6] == "inf"


def test_emitted_certificate_passes_check(tmp_path):
    path = tmp_path / "p.json"
    fileio.save_problem(path, disjoint_problem())
    out = tmp_path / "o.json"
    assert main(["solve", str(path), "--out", str(out)]) == 10
    outcome = json.loads(out.read_text())
    cand = tmp_path / "cand.json"
    cand.write_text(json.dumps({
        "kind": outcome["certificate"]["kind"],
        "vector": outcome["certificate"]["vector"]}))
    assert main(["check", str(path), str(cand), "--eps", "1e-6"]) == 0


@pytest.mark.parametrize("solver", ["dr", "pp"])
def test_outcome_keeps_the_secondary_certificate(tmp_path, solver):
    path = tmp_path / "p.json"
    fileio.save_problem(path, both_infeasible_problem())
    out = tmp_path / "o.json"
    assert main(["solve", str(path), "--solver", solver,
                 "--out", str(out)]) == 10
    outcome = json.loads(out.read_text())
    assert list(outcome)[:4] == ["status", "iterations", "certificate",
                                 "secondary_certificate"]
    for key, kind in (("certificate", "primal_infeasibility"),
                      ("secondary_certificate", "dual_infeasibility")):
        assert outcome[key]["kind"] == kind
        cand = tmp_path / f"{key}.json"
        cand.write_text(json.dumps({"kind": kind,
                                    "vector": outcome[key]["vector"]}))
        assert main(["check", str(path), str(cand)]) == 0

    fileio.save_problem(path, disjoint_problem())
    assert main(["solve", str(path), "--solver", solver,
                 "--out", str(out)]) == 10
    assert "secondary_certificate" not in json.loads(out.read_text())


def test_check_reports_metrics(tmp_path, capsys):
    path = tmp_path / "p.json"
    fileio.save_problem(path, disjoint_problem())
    cand = tmp_path / "cand.json"
    cand.write_text(json.dumps({"kind": "primal_infeasibility",
                                "vector": [1.0, -1.0]}))
    assert main(["check", str(path), str(cand)]) == 0
    captured = capsys.readouterr().out
    assert "norm_At_y" in captured and "pass" in captured

    cand.write_text(json.dumps({"kind": "primal_infeasibility",
                                "vector": [1.0, 1.0]}))
    assert main(["check", str(path), str(cand)]) == 1
    captured = capsys.readouterr().out
    assert "2.000000e+00" in captured and "fail" in captured

    cand.write_text(json.dumps({"kind": "primal_infeasibility",
                                "vector": [0.0, 0.0]}))
    assert main(["check", str(path), str(cand)]) == 2


@pytest.mark.parametrize("problem, kind, vector, code, lines", [
    (disjoint_problem, "primal_infeasibility", [1.0, -1.0], 0,
     ["norm_At_y: 0.000000e+00", "support: -1.000000e+00"]),
    (unbounded_problem, "primal_infeasibility", [1.0], 1,
     ["norm_At_y: 1.000000e+00", "support: inf"]),
    (unbounded_problem, "dual_infeasibility", [1.0], 0,
     ["norm_Q_x: 0.000000e+00", "dist_rec: 0.000000e+00",
      "q_dot_x: -1.000000e+00"]),
])
def test_check_stdout_is_pinned(tmp_path, capsys, problem, kind, vector,
                                code, lines):
    path, cand = tmp_path / "p.json", tmp_path / "cand.json"
    fileio.save_problem(path, problem())
    cand.write_text(json.dumps({"kind": kind, "vector": vector}))
    assert main(["check", str(path), str(cand)]) == code
    result = "pass" if code == 0 else "fail"
    assert capsys.readouterr().out == "\n".join(
        [f"kind: {kind}", *lines, f"result: {result} (eps = 1e-06)", ""])


def test_generate_is_deterministic(tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["generate", "primal_infeasible", "--seed", "3", "-n", "3", "-m", "4"]
    assert main(args[:2] + [str(f1)] + args[2:]) == 0
    assert main(args[:2] + [str(f2)] + args[2:]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    problem, truth = fileio.load_problem(f1)
    assert truth["kind"] == "primal_certificate"


def test_generated_file_truth_validates(tmp_path):
    from splitqp.problem import kkt_residuals
    path = tmp_path / "feas.json"
    assert main(["generate", "feasible", str(path), "--seed", "1",
                 "-n", "5", "-m", "8"]) == 0
    problem, truth = fileio.load_problem(path)
    r = kkt_residuals(problem, truth["x"], truth["z"], truth["y"])
    assert max(r.primal, r.dual) <= 1e-9

    path2 = tmp_path / "pinf.json"
    assert main(["generate", "primal_infeasible", str(path2), "--seed", "2",
                 "-n", "3", "-m", "4"]) == 0
    problem, truth = fileio.load_problem(path2)
    cand = tmp_path / "cand.json"
    cand.write_text(json.dumps({"kind": "primal_infeasibility",
                                "vector": list(truth["vector"])}))
    assert main(["check", str(path2), str(cand), "--eps", "1e-9"]) == 0


def test_solve_matches_bundle_truth(tmp_path):
    path = tmp_path / "feas.json"
    assert main(["generate", "feasible", str(path), "--seed", "21",
                 "-n", "5", "-m", "7"]) == 0
    out = tmp_path / "o.json"
    assert main(["solve", str(path), "--out", str(out)]) == 0
    outcome = json.loads(out.read_text())
    _, truth = fileio.load_problem(path)
    err = np.max(np.abs(np.array(outcome["x"]) - truth["x"]))
    assert err <= 1e-4


def test_generate_rejects_bad_family(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["generate", "sideways", str(tmp_path / "x.json"),
              "-n", "3", "-m", "4"])
    assert info.value.code == 2


def test_solve_bad_file_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 1')
    assert main(["solve", str(path), "--out", str(tmp_path / "o.json")]) == 2
    assert main(["solve", str(tmp_path / "missing.json")]) == 2


def test_inner_breakdown_is_not_an_input_error(tmp_path, capsys):
    # badly scaled but feasible: PP's inner solve cannot reach its absolute
    # tolerance floor and gives up
    P = ProblemData(Q=np.diag([1e-8, 1e8]), q=[1.0, -1e6],
                    A=[[1e6, 0.0], [0.0, 1e-6], [1.0, 1.0]],
                    C=Box([-1.0, -1.0, -1e9], [1.0, 1.0, 1e9]))
    path = tmp_path / "p.json"
    fileio.save_problem(path, P)
    out = tmp_path / "o.json"
    code = main(["solve", str(path), "--solver", "pp", "--out", str(out)])
    assert code == EXIT_BREAKDOWN == 3
    assert code not in EXIT_CODES.values()
    err = capsys.readouterr().err
    assert err.startswith("numerical breakdown: inner solve did not reach")
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("solver,a", [("dr", 1e200), ("pp", 1e200),
                                      ("dr", 1e154)],
                         ids=["dr", "pp", "dr-symmetrized"])
def test_overflow_is_a_breakdown(tmp_path, capsys, solver, a):
    # finite, valid data whose A'A overflows: DR's subproblem matrix and
    # PP's Newton residual turn non-finite once the solver starts. At
    # 1e154, A'A + I is finite and only its symmetrization overflows; PP
    # never symmetrizes, and breaks down in its inner solve instead
    P = ProblemData(Q=np.zeros((1, 1)), q=[1.0], A=[[a]],
                    C=Box([-1.0], [1.0]))
    path = tmp_path / "p.json"
    fileio.save_problem(path, P)
    out = tmp_path / "o.json"
    code = main(["solve", str(path), "--solver", solver, "--out", str(out)])
    assert code == EXIT_BREAKDOWN
    err = capsys.readouterr().err
    assert err.startswith("numerical breakdown: ")
    assert "non-finite entries" in err
    assert not out.exists()


def test_bad_flag_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "p.json"
    fileio.save_problem(path, feasible_problem())
    out = tmp_path / "o.json"
    assert main(["solve", str(path), "--alpha", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: alpha out of range")
    assert main(["solve", str(path), "--solver", "pp", "--gamma", "0",
                 "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("args,field",
                         [(["--eps-abs", "nan"], "eps_abs"),
                          (["--max-iter", "50", "--eps-rel", "inf"], "eps_rel"),
                          (["--solver", "pp", "--gamma", "nan"], "gamma"),
                          (["--solver", "pp", "--gamma", "inf"], "gamma")])
def test_non_finite_flag_is_an_input_error(tmp_path, capsys, args, field):
    # nan passed every `<= 0` test and inf accepted any iterate as solved
    path = tmp_path / "f.json"
    fileio.save_bundle(path, generate("feasible", 5, 3, 4))
    out = tmp_path / "o.json"
    assert main(["solve", str(path), *args, "--out", str(out)]) == 2
    assert (capsys.readouterr().err
            == f"error: {field} must be positive and finite\n")
    assert not out.exists()


@pytest.mark.parametrize("eps", ["nan", "inf", "0"])
def test_check_rejects_bad_eps(tmp_path, capsys, eps):
    path = tmp_path / "p.json"
    fileio.save_bundle(path, generate("primal_infeasible", 5, 3, 4))
    cand = tmp_path / "cand.json"
    cand.write_text(json.dumps({"kind": "primal_infeasibility",
                                "vector": [1.0, 0.0, 0.0, 0.0]}))
    assert main(["check", str(path), str(cand), "--eps", eps]) == 2
    assert capsys.readouterr().err == "error: eps must be positive and finite\n"


CONFIGS = {"dr": DrConfig, "pp": PpConfig}
# an out-of-range and an in-range value for each solver's own solve flag
OWN_FLAG_VALUES = {"alpha": ("3", "1.0"), "gamma": ("-5", "2")}


def _own_fields(solver):
    """The fields the solver's config adds to LoopConfig's."""
    loop = {f.name for f in dataclasses.fields(LoopConfig)}
    return [f.name for f in dataclasses.fields(CONFIGS[solver])
            if f.name not in loop]


def test_own_flag_values_cover_every_own_flag(capsys):
    with pytest.raises(SystemExit):
        main(["solve", "--help"])
    usage = capsys.readouterr().out
    flagged = {name for solver in CONFIGS for name in _own_fields(solver)
               if f"--{name.replace('_', '-')} " in usage}
    assert flagged == set(OWN_FLAG_VALUES)


@pytest.mark.parametrize("solver,flag,value,owner", [
    (solver, f"--{name}", value, owner)
    for owner in CONFIGS for name in _own_fields(owner)
    if name in OWN_FLAG_VALUES for value in OWN_FLAG_VALUES[name]
    for solver in CONFIGS if solver != owner])
def test_flag_for_the_other_solver_is_an_input_error(tmp_path, capsys, solver,
                                                     flag, value, owner):
    path = tmp_path / "p.json"
    fileio.save_bundle(path, generate("feasible", 5, 3, 4))
    out = tmp_path / "o.json"
    assert main(["solve", str(path), "--solver", solver, flag, value,
                 "--out", str(out)]) == 2
    assert (capsys.readouterr().err
            == f"error: {flag} applies only to --solver {owner}\n")
    assert not out.exists()


def _solve_subprocess(path, solver, out, *args):
    src = os.path.dirname(os.path.dirname(os.path.abspath(splitqp.__file__)))
    env = {**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "default"}
    return subprocess.run(
        [sys.executable, "-m", "splitqp.cli", "solve", str(path),
         "--solver", solver, "--out", str(out), *args],
        capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("solver", ["dr", "pp"])
def test_cli_stderr_is_one_line(tmp_path, solver):
    # the overflow breakdown reports itself without numpy's warnings,
    # traced or not
    P = ProblemData(Q=np.zeros((1, 1)), q=[1.0], A=[[1e200]],
                    C=Box([-1.0], [1.0]))
    path = tmp_path / "p.json"
    fileio.save_problem(path, P)
    out = tmp_path / "o.json"
    trace = tmp_path / "t.csv"
    for args in ([], ["--trace", str(trace)]):
        proc = _solve_subprocess(path, solver, out, *args)
        assert proc.returncode == EXIT_BREAKDOWN
        assert re.fullmatch(r"numerical breakdown: [^\n]*\n",
                            proc.stderr), proc.stderr
        assert not out.exists() and not trace.exists()
    fileio.save_problem(path, feasible_problem())
    proc = _solve_subprocess(path, solver, out)
    assert proc.returncode == 0
    assert re.fullmatch(r"status: solved after \d+ iterations\n",
                        proc.stderr), proc.stderr


@pytest.mark.parametrize("solver,config",
                         [("dr", DrConfig()), ("pp", PpConfig())])
def test_solve_defaults_are_the_config_defaults(tmp_path, solver, config):
    path = tmp_path / "p.json"
    fileio.save_problem(path, feasible_problem())
    out = tmp_path / "o.json"
    assert main(["solve", str(path), "--solver", solver,
                 "--out", str(out)]) == 0
    echo = json.loads(out.read_text())["config_echo"]
    assert echo == {"solver": solver, **dataclasses.asdict(config)}


def test_outcome_encodes_negative_infinite_metric():
    cert = Certificate(kind="dual_infeasibility", vector=np.array([1.0]),
                       metrics={"norm_Q_x": 1.6, "dist_rec": 0.0,
                                "q_dot_x": -math.inf, "eps": 1e-6})
    result = SolveOutcome(status=DUAL_INFEASIBLE, iterations=25,
                          certificate=cert, residuals=(0.5, 0.25))
    metrics = json.loads(fileio.dumps_outcome(result, {}))["certificate"][
        "metrics"]
    assert metrics == {"norm_Q_x": 1.6, "dist_rec": 0.0, "q_dot_x": "-inf",
                       "eps": 1e-6}


def test_warm_start_file(tmp_path):
    path = tmp_path / "p.json"
    fileio.save_problem(path, feasible_problem())
    warm = tmp_path / "warm.json"
    warm.write_text(json.dumps({"x": [0.5], "v": [0.5]}))
    assert main(["solve", str(path), "--warm", str(warm),
                 "--out", str(tmp_path / "o.json")]) == 0
    warm.write_text(json.dumps({"x": [0.5]}))
    assert main(["solve", str(path), "--warm", str(warm),
                 "--out", str(tmp_path / "o.json")]) == 2


def test_candidate_dimension_mismatch(tmp_path):
    path = tmp_path / "p.json"
    fileio.save_problem(path, disjoint_problem())
    cand = tmp_path / "cand.json"
    cand.write_text(json.dumps({"kind": "primal_infeasibility",
                                "vector": [1.0, -1.0, 0.0]}))
    assert main(["check", str(path), str(cand)]) == 2


@pytest.mark.parametrize("solver,dual,other", [("dr", "v", "y"),
                                               ("pp", "y", "v")])
def test_warm_start_reads_the_solvers_dual_member(tmp_path, capsys, solver,
                                                  dual, other):
    path = tmp_path / "p.json"
    fileio.save_problem(path, feasible_problem())
    warm = tmp_path / "warm.json"
    warm.write_text(json.dumps({"x": [0.5], dual: [0.5]}))
    args = ["solve", str(path), "--solver", solver, "--warm", str(warm),
            "--out", str(tmp_path / "o.json")]
    assert main(args) == 0
    warm.write_text(json.dumps({"x": [0.5], other: [0.5]}))
    capsys.readouterr()
    assert main(args) == 2
    assert capsys.readouterr().err == (
        f"error: warm start: needs members 'x' and '{dual}'\n")
    warm.write_text(json.dumps({"x": [0.5, 1.0], dual: [0.5]}))
    assert main(args) == 2
    assert capsys.readouterr().err == (
        "error: warm.x: expected 1 entries, got 2\n")


def test_choices_come_from_the_tables(capsys):
    for argv, names in ((["solve", "p.json", "--solver", "cg"],
                         splitqp.cli.SOLVERS),
                        (["generate", "weak", "o.json", "-n", "1", "-m", "1"],
                         splitqp.instances.KINDS)):
        with pytest.raises(SystemExit):
            main(argv)
        tail = capsys.readouterr().err.split("choose from", 1)[1]
        assert re.findall(r"\w+", tail) == list(names)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_check_refuses_a_small_false_certificate(tmp_path):
    # feasible (x >= 5), yet t (1, -1) at t = 1e-7 passes the polar test
    path = tmp_path / "p.json"
    fileio.save_problem(path, ProblemData(
        Q=np.zeros((1, 1)), q=[1.0], A=[[1.0], [1.0]],
        C=TranslatedCone([0.0, 5.0], NonnegativeOrthant(2))))
    cand = tmp_path / "cand.json"
    cand.write_text(json.dumps({"kind": "primal_infeasibility",
                                "vector": [1e-7, -1e-7]}))
    assert main(["check", str(path), str(cand)]) == 1
