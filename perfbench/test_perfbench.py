"""Tests of the benchmark's own code: span self time, statistics, verdicts.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from splitqp import DrSolver, instances  # noqa: E402


def span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("solve.dr", 0.0, 10.0, -1),      # 0
        span("dr.step", 1.0, 5.0, 0),         # 1
        span("sets.project", 2.0, 4.0, 1),    # 2
        span("sets.project", 2.5, 3.0, 2),    # 3: nested in the sets layer
        span("dr.check_termination", 6.0, 9.0, 0),  # 4
    ]
    agg = tracing.aggregate(spans)
    assert agg["solve.dr"]["self_s"] == pytest.approx(10.0 - 4.0 - 3.0)
    assert agg["dr.step"]["self_s"] == pytest.approx(4.0 - 2.0)
    assert agg["sets.project"]["self_s"] == pytest.approx((2.0 - 0.5) + 0.5)
    assert agg["dr.check_termination"]["self_s"] == pytest.approx(3.0)
    # the nested projection is not a call into the sets layer
    assert agg["sets.project"]["calls"] == 1
    assert agg["solve.covered_s"]["self_s"] == pytest.approx(7.0)
    total_self = sum(agg[n]["self_s"] for n in
                     ("solve.dr", "dr.step", "sets.project", "dr.check_termination"))
    assert total_self == pytest.approx(10.0)


def test_projections_under_resolvent_are_counted():
    spans = [
        span("pp.resolvent_solve", 0.0, 4.0, -1),
        span("sets.project", 1.0, 2.0, 0),
        span("sets.project", 1.2, 1.5, 1),
        span("sets.project", 5.0, 6.0, -1),
    ]
    agg = tracing.aggregate(spans)
    assert agg["sets.project.under_resolvent"]["calls"] == 1
    assert agg["sets.project"]["calls"] == 2


def test_merge_adds_sums():
    a = {"x": {"calls": 1, "self_s": 0.5, "total_s": 1.0}}
    b = {"x": {"calls": 2, "self_s": 0.25, "total_s": 0.5},
         "y": {"calls": 1, "self_s": 1.0, "total_s": 1.0}}
    tracing.merge(a, b)
    assert a["x"] == {"calls": 3, "self_s": 0.75, "total_s": 1.5}
    assert a["y"]["calls"] == 1


def test_wrapper_closes_span_and_observes_exceptions():
    tracer = tracing.Tracer()
    seen = []

    def boom():
        raise ValueError("x")

    wrapped = tracer.wrap("f", boom, lambda result, exc: seen.append(exc))
    with pytest.raises(ValueError):
        wrapped()
    assert tracer.stack == []
    assert tracer.spans[0][2] >= tracer.spans[0][1]
    assert isinstance(seen[0], ValueError)


def test_install_fires_spans_and_uninstall_restores():
    import splitqp.dr
    import splitqp.sets
    original_step = DrSolver.step
    original_factor = splitqp.dr.spd_factor
    original_project = splitqp.sets.Box.__dict__["project"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        bundle = instances.generate("primal_infeasible", 3, 4, 6, "box")
        DrSolver(bundle.problem).run()
    finally:
        tracer.uninstall()
    names = {s[0] for s in tracer.spans}
    assert {"instances.generate", "problem.build", "dr.setup",
            "linalg.spd_factor", "linalg.solve", "dr.step", "sets.project",
            "dr.check_termination", "problem.check_primal_certificate"} <= names
    assert tracer.counters["check_hits.dr"] == 1
    assert DrSolver.step is original_step
    assert splitqp.dr.spd_factor is original_factor
    assert splitqp.sets.Box.__dict__["project"] is original_project


def test_percentile_and_tail_sample_rule():
    values = list(range(1, 101))
    assert checks.percentile(values, 50) == pytest.approx(50.5)
    assert checks.percentile(values, 90) == pytest.approx(90.1)
    assert checks.percentile([7.0], 90) == 7.0
    # at least ten samples must lie beyond the percentile
    assert not checks.tail_supported(99, 90)
    assert checks.tail_supported(100, 90)
    assert not checks.tail_supported(999, 99)
    assert checks.tail_supported(1000, 99)
    assert checks.tail_supported(20, 50)
    assert not checks.tail_supported(19, 50)


def test_geomean_and_trimmed_geomean():
    assert checks.geomean([1.0, 4.0]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        checks.geomean([1.0, 0.0])
    assert checks.trimmed_geomean([100.0, 1.0, 4.0, 0.01]) == pytest.approx(2.0)
    assert checks.trimmed_geomean([1.0, 4.0, 16.0]) == pytest.approx(4.0)


@pytest.fixture(scope="module")
def bundles():
    return {kind: instances.generate(kind, 5, 4, 6, "box")
            for kind in ("feasible", "primal_infeasible", "dual_infeasible")}


def test_classifier_accepts_truth(bundles):
    feas = bundles["feasible"]
    t = feas.truth
    assert checks.classify(feas.problem, "feasible", "solved",
                           x=t["x"], z=t["z"], y=t["y"]) == checks.OK
    p = bundles["primal_infeasible"]
    assert checks.classify(p.problem, "primal_infeasible", "primal_infeasible",
                           certificate=p.truth["vector"], cert_eps=1e-6) == checks.OK


def test_classifier_rejects_wrong_answers(bundles):
    feas, p = bundles["feasible"], bundles["primal_infeasible"]
    assert checks.classify(p.problem, "primal_infeasible", "solved",
                           x=np.zeros(4), z=np.zeros(6), y=np.zeros(6)) \
        == checks.WRONG_STATUS
    assert checks.classify(feas.problem, "feasible", "max_iterations") \
        == checks.MAX_ITERATIONS
    bad = np.ones(6)
    assert checks.classify(p.problem, "primal_infeasible", "primal_infeasible",
                           certificate=bad, cert_eps=1e-6) == checks.BAD_CERTIFICATE
    assert checks.classify(p.problem, "primal_infeasible", "primal_infeasible",
                           certificate=np.zeros(6), cert_eps=1e-6) \
        == checks.BAD_CERTIFICATE
    t = feas.truth
    assert checks.classify(feas.problem, "feasible", "solved",
                           x=t["x"] + 1e-3, z=t["z"], y=t["y"]) == checks.KKT_RESIDUAL
    verdict = checks.classify(feas.problem, "feasible", None,
                              error="InnerSolveError")
    assert verdict == "error:InnerSolveError"
    assert verdict not in checks.WRONG_ANSWERS
    assert checks.MAX_ITERATIONS not in checks.WRONG_ANSWERS


def test_compare_flags_status_and_iteration_changes(tmp_path):
    row = {"workload": "w", "solver": "dr", "truth": "feasible", "family": "box",
           "n": 5, "m": 8, "seed": 1, "status": "solved", "iterations": 100}
    old = tmp_path / "old.json"
    new = tmp_path / "new.json"
    old.write_text(json.dumps({"rows": [row, {**row, "solver": "pp"}]}))
    new.write_text(json.dumps({"rows": [{**row, "iterations": 125},
                                        {**row, "solver": "pp"}]}))
    assert run.compare(old, old) == 0
    assert run.compare(old, new) == 1
