"""One workload process: set up, run timed solves, check every answer.

Started by ``run.py``; not meant to be run by hand. With ``--setup-only``
it sets up and exits, so the orchestrator can time set-up several times;
with ``--import-only`` it exits once splitqp is imported.
Writes one JSON result file (``--out``) and nothing to stdout.
"""

from __future__ import annotations

import time

T_START_NS = time.monotonic_ns()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import splitqp  # noqa: E402
from splitqp import fileio, instances  # noqa: E402
from splitqp.cli import EXIT_CODES  # noqa: E402
from splitqp.dr import DrSolver  # noqa: E402
from splitqp.pp import PpSolver  # noqa: E402

T_IMPORTED_NS = time.monotonic_ns()

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("small_mixed", "large_dense", "cli_trace")
KINDS = ("feasible", "primal_infeasible", "dual_infeasible")
SIZES = {
    "small_mixed": ((5, 8), (20, 30), (60, 90)),
    "large_dense": ((300, 450),),
    # n=60 is left out: its traced PP solves on infeasible cells take up to
    # 5 s each, and a pass with it took 42 s.
    "cli_trace": ((10, 15), (20, 30)),
}
SOLVER_CLASSES = {"dr": DrSolver, "pp": PpSolver}
# Solves of one cell per pass. PP's cost per iteration at n=300 differs by
# 10-15% between repeats of the same solve, and only four PP cells fit in a
# pass, so each is solved twice.
REPEATS = {("large_dense", "pp"): 2}
# The speed reference for solves: n=300 iterations are memory-bound, the
# others interpreter-bound (see speed.py). Set-up and start-up always use
# the interpreter kernel.
SOLVE_KERNELS = {"small_mixed": speed.InterpreterKernel,
                 "large_dense": speed.MemoryKernel,
                 "cli_trace": speed.InterpreterKernel}
CLI_TIMEOUT_S = 150


@dataclass(frozen=True)
class Cell:
    kind: str
    family: str
    n: int
    m: int
    seed: int
    solvers: tuple


def make_cells(workload, seed):
    """The workload's instances; each gets its own seed derived from ``seed``."""
    cells = []
    for n, m in SIZES[workload]:
        for kind in KINDS:
            for family in instances.SET_FAMILIES:
                # PP needs 400 to 3000+ outer steps on the n=300 infeasible
                # cells (3-20 s each), which would not fit in a run.
                solvers = (("dr",) if workload == "large_dense" and kind != "feasible"
                           else ("dr", "pp"))
                cells.append(Cell(kind, family, n, m, seed * 1000 + len(cells),
                                  solvers))
    return cells


def setup(workload, seed, workdir):
    cells = make_cells(workload, seed)
    bundles = [instances.generate(c.kind, c.seed, c.n, c.m, c.family) for c in cells]
    paths = []
    if workload == "cli_trace":
        workdir.mkdir(parents=True, exist_ok=True)
        for i, bundle in enumerate(bundles):
            paths.append(workdir / f"cell{i:02d}.json")
            fileio.save_bundle(paths[-1], bundle)
    return cells, bundles, paths


class Runner:
    """Runs solve units, times them, and classifies every answer."""

    def __init__(self, workload, cells, bundles, paths, workdir, reference):
        self.workload = workload
        self.cells = cells
        self.bundles = bundles
        self.paths = paths
        self.workdir = workdir
        self.units = [(i, s) for i, c in enumerate(cells) for s in c.solvers]
        self.plan = [u for u in self.units
                     for _ in range(REPEATS.get((workload, u[1]), 1))]
        self.samples = []
        self.rows = {}
        self.layers = {}
        self.counters = {}
        self.tracer = None
        self.reference = reference
        self._ref_before = reference.measure()

    # -- one solve -------------------------------------------------------

    def solve(self, unit):
        if self.workload == "cli_trace":
            sample = self._solve_cli(unit)
        else:
            sample = self._solve_in_process(unit)
        ref_after = self.reference.measure()
        sample["speed"] = speed.factor(self.reference,
                                       0.5 * (self._ref_before + ref_after))
        self._ref_before = ref_after
        self._record(unit, sample)
        return sample

    def _solve_in_process(self, unit):
        i, solver = unit
        problem = self.bundles[i].problem
        tracer = self.tracer
        if tracer is not None:
            tracer.solve_id = len(self.samples)
            span = tracer.begin(f"solve.{solver}")
        t0 = time.perf_counter()
        try:
            out = SOLVER_CLASSES[solver](problem).run()
        except Exception as exc:  # a raising solve is a counted failure
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.end(span)
            return {"time_s": elapsed, "status": "error",
                    "iterations": None,
                    "verdict": checks.classify(problem, self.cells[i].kind, None,
                                               error=type(exc).__name__)}
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.end(span)
        cert = out.certificate
        verdict = checks.classify(
            problem, self.cells[i].kind, out.status, x=out.x, z=out.z, y=out.y,
            certificate=None if cert is None else cert.vector,
            cert_eps=None if cert is None else cert.metrics["eps"])
        return {"time_s": elapsed, "status": out.status,
                "iterations": out.iterations, "verdict": verdict}

    def _solve_cli(self, unit):
        i, solver = unit
        tag = f"cell{i:02d}-{solver}"
        files = {k: self.workdir / f"{tag}.{k}" for k in
                 ("timing.json", "outcome.json", "trace.csv", "spans.json")}
        for f in files.values():
            f.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "cli_entry.py"),
                "--timing", str(files["timing.json"])]
        if self.tracer is not None:
            argv += ["--spans", str(files["spans.json"])]
        argv += ["solve", str(self.paths[i]), "--solver", solver,
                 "--trace", str(files["trace.csv"]),
                 "--out", str(files["outcome.json"])]
        spawn_ns = time.monotonic_ns()
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S, check=False)
        end_ns = time.monotonic_ns()
        timing = json.loads(files["timing.json"].read_text())
        # A call that fails before the solve has no run instants.
        timing.setdefault("run_start_ns", timing["main_start_ns"])
        timing.setdefault("run_end_ns", timing["main_end_ns"])
        sample = {
            "time_s": (end_ns - spawn_ns) * 1e-9,
            "run_s": (timing["run_end_ns"] - timing["run_start_ns"]) * 1e-9,
            "interpreter_s": (timing["start_ns"] - spawn_ns) * 1e-9,
            "import_s": (timing["imported_ns"] - timing["start_ns"]) * 1e-9,
        }
        if self.tracer is not None:
            child = json.loads(files["spans.json"].read_text())
            tracing.merge(self.layers, child["layers"])
            for key, value in child["counters"].items():
                if key.endswith(".max"):
                    self.counters[key] = max(self.counters.get(key, 0), value)
                else:
                    self.counters[key] = self.counters.get(key, 0) + value
        problem = self.bundles[i].problem
        kind = self.cells[i].kind
        if proc.returncode not in EXIT_CODES.values():
            sample.update(status="error", iterations=None,
                          verdict=checks.classify(problem, kind, None,
                                                  error=f"exit{proc.returncode}"),
                          stderr=proc.stderr.strip()[-300:])
            return sample
        obj = json.loads(files["outcome.json"].read_text())
        status, iterations = obj["status"], obj["iterations"]
        cert = obj.get("certificate")
        arrays = {k: np.array(obj[k]) for k in ("x", "z", "y") if k in obj}
        verdict = checks.classify(
            problem, kind, status,
            certificate=None if cert is None else np.array(cert["vector"]),
            cert_eps=None if cert is None else cert["metrics"]["eps"], **arrays)
        if proc.returncode != EXIT_CODES[status]:
            verdict = checks.EXIT_CODE
        with open(files["trace.csv"]) as fh:
            trace_rows = sum(1 for _ in fh) - 1
        if trace_rows != iterations:
            verdict = checks.TRACE_ROWS
        sample.update(status=status, iterations=iterations, verdict=verdict)
        return sample

    def _record(self, unit, sample):
        """Keep the sample; a unit must give the same answer every time."""
        key = (sample["status"], sample["iterations"])
        first = self.rows.setdefault(unit, key)
        if first != key:
            sample["verdict"] = checks.NONDETERMINISTIC
        sample["unit"] = self.units.index(unit)
        sample["traced"] = self.tracer is not None
        self.samples.append(sample)

    # -- passes ----------------------------------------------------------

    def full_pass(self):
        """Solve every unit of the plan; returns the summed corrected solve time."""
        return sum(corrected(self.solve(u)) for u in self.plan)

    def run_untraced(self, seconds):
        """Whole passes, then units in pass order until ``seconds`` elapse."""
        deadline = time.perf_counter() + seconds
        walls = [self.full_pass()]
        while time.perf_counter() < deadline:
            total = 0.0
            for unit in self.plan:
                if time.perf_counter() >= deadline:
                    return walls
                total += corrected(self.solve(unit))
            walls.append(total)
        return walls

    def run_traced(self, seconds, tracer):
        """Alternate untraced and traced whole passes for at least ``seconds``."""
        deadline = time.perf_counter() + seconds
        untraced, traced = [], []
        while not (untraced and traced) or time.perf_counter() < deadline:
            if len(traced) < len(untraced):
                self.tracer = tracer
                tracer.install()
                try:
                    traced.append(self.full_pass())
                finally:
                    tracer.uninstall()
                    self.tracer = None
            else:
                untraced.append(self.full_pass())
        return untraced, traced


# -- metrics ----------------------------------------------------------------
# Times below are corrected to the reference kernel's nominal speed (see
# speed.py). Samples from traced passes only feed the per-layer metrics.

def corrected(sample, key="time_s"):
    return sample[key] * sample["speed"]


def _unit_times(runner, key="time_s"):
    times = {}
    for s in runner.samples:
        if not s["traced"]:
            times.setdefault(s["unit"], []).append(corrected(s, key))
    return times


def us_per_iter(runner, solver, key):
    """Trimmed geometric mean over the solver's units of median time per iteration.

    The cheapest and dearest unit are left out: one instance can double a
    unit's cost per iteration (a boundary point of a translated cone sends
    the SOC projection Jacobian down its dense branch), which with four PP
    units at n=300 moved the plain mean by 20% between seeds.
    """
    times = _unit_times(runner, key)
    per_iter = []
    for k, (i, s) in enumerate(runner.units):
        iterations = runner.rows[(i, s)][1]
        if s == solver and iterations:
            per_iter.append(statistics.median(times[k]) / iterations * 1e6)
    return checks.trimmed_geomean(per_iter)


def latency_ms(samples):
    """Median and, when ten samples lie beyond it, p90 of solve times in ms."""
    values = [corrected(s) * 1e3 for s in samples]
    return {"p50": statistics.median(values),
            "p90": (checks.percentile(values, 90)
                    if checks.tail_supported(len(values), 90) else None),
            "samples": len(values)}


def solve_ms(runner, solver):
    return latency_ms(s for s in runner.samples
                      if runner.units[s["unit"]][1] == solver)


def behaviour(runner, workload):
    """Per-solve rows: what was solved and the answer; ``ms`` is informational."""
    times = _unit_times(runner)
    rows = []
    for k, unit in enumerate(runner.units):
        i, solver = unit
        c = runner.cells[i]
        status, iterations = runner.rows[unit]
        rows.append({"workload": workload, "solver": solver, "truth": c.kind,
                     "family": c.family, "n": c.n, "m": c.m, "seed": c.seed,
                     "status": status, "iterations": iterations,
                     "ms": statistics.median(times[k]) * 1e3,
                     "samples": len(times[k])})
    return rows


def failed_share(runner):
    failed = sum(1 for s in runner.samples if s["verdict"] != checks.OK)
    return failed / len(runner.samples)


def iterations_per_pass(runner, solver):
    return sum(it or 0 for (i, s), (_, it) in runner.rows.items() if s == solver)


def end_to_end(runner, workload, walls):
    cli = workload == "cli_trace"
    key = "run_s" if cli else "time_s"
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    metrics = {
        "dr_us_per_iter": us_per_iter(runner, "dr", key),
        "pp_us_per_iter": us_per_iter(runner, "pp", key),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "machine_speed": statistics.median(s["speed"] for s in runner.samples),
        "wall_s": statistics.median(walls),
        "failed_share": failed_share(runner),
        "dr_iterations": iterations_per_pass(runner, "dr"),
        "pp_iterations": iterations_per_pass(runner, "pp"),
        "dr_solve_ms": solve_ms(runner, "dr"),
        "pp_solve_ms": solve_ms(runner, "pp"),
    }
    if cli:
        metrics["cli_ms"] = latency_ms(runner.samples)
        metrics["startup_ms"] = statistics.median(
            (corrected(s, "interpreter_s") + corrected(s, "import_s")) * 1e3
            for s in runner.samples)
    return metrics


def per_layer(runner, workload, setup_layers, untraced, traced):
    """Per-layer metrics: set-up once plus the average traced pass."""
    passes = len(traced)
    layers, counters = runner.layers, runner.counters

    def get(name, key):
        return (setup_layers.get(name, {}).get(key, 0)
                + layers.get(name, {}).get(key, 0) / passes)

    out = {}
    for meth in tracing.SET_METHODS:
        out[f"sets.{meth}.calls"] = get(f"sets.{meth}", "calls")
        out[f"sets.{meth}.self_s"] = get(f"sets.{meth}", "self_s")
    out["linalg.solve.calls"] = get("linalg.solve", "calls")
    for name in ("linalg.solve", "linalg.spd_factor", "dr.setup",
                 "pp.resolvent_solve", "pp.cho_factor", "pp.cho_solve",
                 "fileio.load_problem", "fileio.dumps_outcome",
                 "fileio.write_trace_csv", "cli.main", "instances.generate",
                 "problem.build"):
        out[f"{name}.self_s"] = get(name, "self_s")
    out["pp.cho_factor.calls"] = get("pp.cho_factor", "calls")
    inner_total = counters.get("pp.inner_iters.total", 0)
    pp_steps = layers.get("pp.step", {}).get("calls", 0)
    out["pp.inner_iters.total"] = inner_total / passes
    out["pp.inner_iters.max"] = counters.get("pp.inner_iters.max", 0)
    out["pp.inner_per_step"] = inner_total / pp_steps if pp_steps else 0.0
    under = layers.get("sets.project.under_resolvent", {}).get("calls", 0)
    out["pp.project_per_inner"] = under / inner_total if inner_total else 0.0
    out["pp.inner_solve_error.count"] = (
        counters.get("pp.inner_solve_error.count", 0) / passes)
    for solver in ("dr", "pp"):
        for part in ("step", "check_termination", "trace_record"):
            out[f"{solver}.{part}.calls"] = get(f"{solver}.{part}", "calls")
            out[f"{solver}.{part}.self_s"] = get(f"{solver}.{part}", "self_s")
        checks_made = layers.get(f"{solver}.check_termination", {}).get("calls", 0)
        hits = counters.get(f"check_hits.{solver}", 0)
        out[f"{solver}.check_termination.hit_ratio"] = (
            hits / checks_made if checks_made else 0.0)
    for checker in ("check_primal_certificate", "check_dual_certificate"):
        out[f"problem.{checker}.calls"] = get(f"problem.{checker}", "calls")
        out[f"problem.{checker}.self_s"] = get(f"problem.{checker}", "self_s")

    wall = statistics.median(untraced)
    traced_wall = statistics.median(traced)
    out["wall_s"] = wall
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_ratio"] = traced_wall / wall
    if workload == "cli_trace":
        samples = runner.samples
        # Top-level spans of a call: interpreter start, import, cli.main.
        traced_samples = [s for s in samples if s["traced"]]
        covered = (sum(s["interpreter_s"] + s["import_s"] for s in traced_samples)
                   + layers.get("cli.main", {}).get("total_s", 0.0))
        out["trace.covered_share"] = covered / sum(s["time_s"] for s in traced_samples)
        out["cli.interpreter_s"] = statistics.median(corrected(s, "interpreter_s")
                                                     for s in samples)
        out["cli.import_s"] = statistics.median(corrected(s, "import_s")
                                                for s in samples)
    else:
        solve_total = sum(layers.get(f"solve.{s}", {}).get("total_s", 0.0)
                          for s in ("dr", "pp"))
        out["trace.covered_share"] = (
            layers.get("solve.covered_s", {}).get("self_s", 0.0) / solve_total)
    expected = tracing.CLI_SPANS if workload == "cli_trace" else tracing.IN_PROCESS_SPANS
    missing = [n for n in expected
               if setup_layers.get(n, {}).get("calls", 0)
               + layers.get(n, {}).get("calls", 0) == 0]
    return out, missing


# -- entry ------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--import-only", action="store_true")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    workdir = HERE / "out" / f"work-{args.workload}-{args.seed}"
    reference = speed.InterpreterKernel()
    ref_imported = reference.measure()
    if args.import_only:
        args.out.write_text(json.dumps(
            {"start_ns": T_START_NS, "imported_ns": T_IMPORTED_NS,
             "speed_import": speed.factor(reference, ref_imported)}))
        return 0
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None and not args.setup_only:
        tracer.install()
    try:
        cells, bundles, paths = setup(args.workload, args.seed, workdir)
    finally:
        if tracer is not None:
            tracer.uninstall()
    t_ready_ns = time.monotonic_ns()
    result = {"start_ns": T_START_NS, "imported_ns": T_IMPORTED_NS,
              "ready_ns": t_ready_ns,
              "speed_import": speed.factor(reference, ref_imported),
              "speed": speed.factor(reference,
                                    0.5 * (ref_imported + reference.measure()))}
    if args.setup_only:
        args.out.write_text(json.dumps(result))
        return 0

    runner = Runner(args.workload, cells, bundles, paths, workdir,
                    SOLVE_KERNELS[args.workload]())
    if tracer is None:
        walls = runner.run_untraced(args.seconds)
        result["metrics"] = end_to_end(runner, args.workload, walls)
    else:
        setup_layers = tracing.aggregate(tracer.spans)
        tracer.spans.clear()
        untraced, traced = runner.run_traced(args.seconds, tracer)
        if args.workload != "cli_trace":
            runner.layers = tracing.aggregate(tracer.spans)
            runner.counters = tracer.counters
        metrics, missing = per_layer(runner, args.workload, setup_layers,
                                     untraced, traced)
        result["metrics"] = metrics
        result["missing_spans"] = missing
        for k in ("dr", "pp"):
            metrics[f"{k}_iterations"] = iterations_per_pass(runner, k)
        metrics["failed_share"] = failed_share(runner)
    result["attempted"] = len(runner.samples)
    result["verdicts"] = {}
    for s in runner.samples:
        result["verdicts"][s["verdict"]] = result["verdicts"].get(s["verdict"], 0) + 1
    result["rows"] = behaviour(runner, args.workload)
    result["environment"] = environment()
    args.out.write_text(json.dumps(result, indent=1))
    return 0


def environment():
    import platform
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "splitqp": splitqp.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


if __name__ == "__main__":
    sys.exit(main())
