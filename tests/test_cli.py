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
from splitqp.instances import SET_FAMILIES, generate
from splitqp.outcome import DUAL_INFEASIBLE, SolveOutcome
from splitqp.pp import PpConfig
from splitqp.problem import Certificate, ProblemData
from splitqp.sets import Box, Cartesian, SecondOrderCone, TranslatedCone

inf = np.inf


def disjoint_problem():
    return ProblemData(Q=np.zeros((1, 1)), q=[0.0], A=[[1.0], [1.0]],
                       C=Box([1.0, 3.0], [2.0, 4.0]))


def unbounded_problem():
    return ProblemData(Q=np.zeros((1, 1)), q=[-1.0], A=[[1.0]],
                       C=Box([0.0], [inf]))


def feasible_problem():
    return ProblemData(Q=np.eye(1), q=[-0.5], A=[[1.0]], C=Box([0.0], [1.0]))


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
@pytest.mark.parametrize("solver", ["dr", "pp"])
def test_overflow_is_a_breakdown(tmp_path, capsys, solver):
    # finite, valid data whose A'A overflows: DR's subproblem matrix and
    # PP's Newton residual turn non-finite once the solver starts
    P = ProblemData(Q=np.zeros((1, 1)), q=[1.0], A=[[1e200]],
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


@pytest.mark.parametrize("solver,flag,value,owner",
                         [("pp", "--alpha", "3", "dr"),
                          ("pp", "--alpha", "1.0", "dr"),
                          ("dr", "--gamma", "-5", "pp"),
                          ("dr", "--gamma", "2", "pp")])
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


def _solve_subprocess(path, solver, out):
    src = os.path.dirname(os.path.dirname(os.path.abspath(splitqp.__file__)))
    env = {**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "default"}
    return subprocess.run(
        [sys.executable, "-m", "splitqp.cli", "solve", str(path),
         "--solver", solver, "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("solver", ["dr", "pp"])
def test_cli_stderr_is_one_line(tmp_path, solver):
    # the overflow breakdown reports itself without numpy's warnings
    P = ProblemData(Q=np.zeros((1, 1)), q=[1.0], A=[[1e200]],
                    C=Box([-1.0], [1.0]))
    path = tmp_path / "p.json"
    fileio.save_problem(path, P)
    out = tmp_path / "o.json"
    proc = _solve_subprocess(path, solver, out)
    assert proc.returncode == EXIT_BREAKDOWN
    assert re.fullmatch(r"numerical breakdown: [^\n]*\n", proc.stderr), \
        proc.stderr
    assert not out.exists()
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
