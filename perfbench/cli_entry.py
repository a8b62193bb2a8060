"""Run ``splitqp.cli.main`` as ``splitqp`` would, recording when it got there.

    python3 cli_entry.py --timing T.json [--spans S.json] solve PROBLEM ...

Everything after the entry's own flags goes to ``splitqp.cli.main``
unchanged, and its return value becomes the exit code. ``--timing``
receives the monotonic-clock instants of interpreter start, import done,
``main`` start and end, and start and end of the solver's ``run`` (which
includes a trace record per iteration). With ``--spans``, the public
callables are traced and their per-name sums are written there.
"""

import time

START_NS = time.monotonic_ns()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def _take(argv, flag):
    if argv and argv[0] == flag:
        return argv[1], argv[2:]
    return None, argv


def _timed(run, timing):
    def timed_run(*args, **kwargs):
        timing["run_start_ns"] = time.monotonic_ns()
        try:
            return run(*args, **kwargs)
        finally:
            timing["run_end_ns"] = time.monotonic_ns()
    return timed_run


def main():
    timing_path, rest = _take(sys.argv[1:], "--timing")
    spans_path, rest = _take(rest, "--spans")
    import splitqp.cli
    timing = {"start_ns": START_NS, "imported_ns": time.monotonic_ns()}
    from splitqp.dr import DrSolver
    from splitqp.pp import PpSolver
    for cls in (DrSolver, PpSolver):
        cls.run = _timed(cls.run, timing)
    tracer = None
    if spans_path is not None:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    timing["main_start_ns"] = time.monotonic_ns()
    try:
        code = splitqp.cli.main(rest)
    finally:
        timing["main_end_ns"] = time.monotonic_ns()
        if tracer is not None:
            tracer.uninstall()
            Path(spans_path).write_text(json.dumps(
                {"layers": tracing.aggregate(tracer.spans),
                 "counters": tracer.counters}))
        if timing_path is not None:
            Path(timing_path).write_text(json.dumps(timing))
    return code


if __name__ == "__main__":
    sys.exit(main())
