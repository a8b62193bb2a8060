"""splitqp benchmark: time to a checked answer, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload small_mixed --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --compare OLD.json NEW.json

The first form sets up the workload several times in fresh processes (the
median is ``setup_s``), runs its timed solves for ``--seconds``, checks
every answer against the instance's generated truth, prints a table, and
ends with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace
1`` the per-layer ones. Full results, including the per-solve behaviour
rows, go to ``perfbench/out/<workload>-seed<seed>-trace<t>.json``. The
second form diffs the behaviour rows of two such files and exits 1 when
any status or iteration count changed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402

WORKLOADS = ("small_mixed", "large_dense", "cli_trace")
# Set-up runs per untraced benchmark run: this many set-up-only processes
# plus the measuring process itself. In-process workloads also start this
# many import-only processes, so their start-up time has enough samples.
SETUP_PROBES = 2
IMPORT_PROBES = 8
# Every process of a run must have ended this long after the run started.
RUN_TIMEOUT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def spawn_worker(argv, env, deadline):
    """Run one worker to completion by ``deadline``; returns (spawn_ns, result)."""
    out = argv[argv.index("--out") + 1]
    Path(out).unlink(missing_ok=True)
    spawn_ns = time.monotonic_ns()
    # A session of its own, so a timeout also ends the CLI calls it started.
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                            env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed (exit {proc.returncode}):\n{stderr}")
    return spawn_ns, json.loads(Path(out).read_text())


def process_times(spawn_ns, res):
    """Set-up and start-up times of one worker, corrected to nominal speed.

    Start-up uses the speed measured right after the imports; set-up, the
    mean of that and the speed measured after set-up.
    """
    k = res["speed_import"]
    times = {"interpreter_s": (res["start_ns"] - spawn_ns) * 1e-9 * k,
             "import_s": (res["imported_ns"] - res["start_ns"]) * 1e-9 * k,
             "startup_ms": (res["imported_ns"] - spawn_ns) * 1e-6 * k}
    if "ready_ns" in res:
        times["setup_s"] = (res["ready_ns"] - spawn_ns) * 1e-9 * res["speed"]
    return times


def unit_of(name, declared):
    if name in declared:
        return declared[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share", "_per_step", "_per_inner", "_speed")):
        return "ratio"
    return "count"


def run(args):
    deadline = time.monotonic() + RUN_TIMEOUT_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "splitqp" / "__init__.py").is_file():
        raise FileNotFoundError(f"no splitqp sources under {ROOT / 'src'}")
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    # One CPU for every process of the run, so the speed reference the
    # worker measures is taken where the measured work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    outdir = HERE / "out"
    outdir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--trace", str(args.trace)]

    procs = []
    if args.workload != "cli_trace":
        for k in range(IMPORT_PROBES):
            spawn_ns, res = spawn_worker(
                base + ["--import-only", "--out", str(outdir / f"{tag}-import{k}.json")],
                env, deadline)
            procs.append(process_times(spawn_ns, res))
    for k in range(0 if args.trace else SETUP_PROBES):
        spawn_ns, res = spawn_worker(
            base + ["--setup-only", "--out", str(outdir / f"{tag}-setup{k}.json")],
            env, deadline)
        procs.append(process_times(spawn_ns, res))
    spawn_ns, res = spawn_worker(
        base + ["--seconds", str(args.seconds), "--out", str(outdir / f"{tag}-worker.json")],
        env, deadline)
    procs.append(process_times(spawn_ns, res))

    metrics = dict(res["metrics"])
    metrics["setup_s"] = statistics.median(p["setup_s"] for p in procs if "setup_s" in p)
    # cli_trace measures start-up on every CLI call instead.
    for name, key in (("startup_ms", "startup_ms"),
                      ("cli.interpreter_s", "interpreter_s"),
                      ("cli.import_s", "import_s")):
        metrics.setdefault(name, statistics.median(p[key] for p in procs))

    if res.get("missing_spans"):
        raise RuntimeError("spans never fired on this workload (wrapper patched "
                           f"under a name nobody calls?): {res['missing_spans']}")
    failed = sum(n for v, n in res["verdicts"].items() if v != checks.OK)
    correct = not any(v in checks.WRONG_ANSWERS for v in res["verdicts"])
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    declared = {m["name"]: m["unit"] for m in section}
    missing = [name for name in declared if name not in metrics]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")

    full = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "correct": correct,
            "attempted": res["attempted"], "failed": failed,
            "verdicts": res["verdicts"], "processes": procs,
            "metrics": metrics, "environment": res["environment"],
            "rows": res["rows"]}
    (outdir / f"{tag}.json").write_text(json.dumps(full, indent=1))

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print_table(full, declared, units)
    line = {"correct": correct, "attempted": res["attempted"], "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in declared.items()}}
    print(json.dumps(line))
    return 0


def print_table(full, declared, units):
    env = full["environment"]
    print(f"# {full['workload']} seed={full['seed']} trace={full['trace']} "
          f"python {env['python']} numpy {env['numpy']} scipy {env['scipy']} "
          f"blas {env['blas']} nproc {env['nproc']} threads {env['threads']}")
    print(f"# attempted {full['attempted']} failed {full['failed']} "
          f"verdicts {full['verdicts']} correct {full['correct']}")
    for name, value in full["metrics"].items():
        if isinstance(value, dict):  # a latency distribution
            p90 = ("n/a (fewer than 100 samples)" if value["p90"] is None
                   else f"{value['p90']:.4f}")
            print(f"{name}_p50 {value['p50']:.4f} ms  {name}_p90 {p90}  "
                  f"samples {value['samples']}")
        else:
            mark = "" if name in declared else "  (not gated)"
            print(f"{name} {value:.6g} {unit_of(name, units)}{mark}")


def compare(old_path, new_path):
    """Diff behaviour rows; returns the number of changed or missing rows."""
    def rows(path):
        data = json.loads(Path(path).read_text())
        return {(r["workload"], r["solver"], r["truth"], r["family"], r["n"],
                 r["m"], r["seed"]): (r["status"], r["iterations"])
                for r in data["rows"]}

    old, new = rows(old_path), rows(new_path)
    changes = 0
    for key in sorted(old.keys() | new.keys(), key=str):
        a, b = old.get(key), new.get(key)
        if a != b:
            changes += 1
            print(f"CHANGED {key}: {a} -> {b}")
    print(f"{changes} of {len(old.keys() | new.keys())} rows changed")
    return changes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args(argv)
    if args.compare:
        return 1 if compare(*args.compare) else 0
    if args.workload is None or args.seed is None:
        ap.error("--workload and --seed are required")
    try:
        return run(args)
    except (OSError, RuntimeError, KeyError, ValueError,
            subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
