"""In-memory span tracing of splitqp's public callables, installed from outside.

``install`` replaces each traced callable under the name its caller looks
up (a module attribute, or a method on the class) with a wrapper that
records a span ``[name, start, end, parent, solve_id]``. Spans stay in a
list until ``aggregate`` folds them into per-name call counts and self
times; self time is a span's duration minus the time its direct children
cover. ``uninstall`` restores every original.
"""

from __future__ import annotations

import time
import types

# Span names every workload must fire; a wrapper patched under a name its
# caller never looks up shows here as a missing span.
IN_PROCESS_SPANS = (
    "sets.project", "sets.support", "sets.projection_jacobian",
    "sets.distance_to_recession", "linalg.solve", "linalg.spd_factor",
    "dr.setup", "dr.step", "dr.check_termination",
    "pp.step", "pp.check_termination", "pp.resolvent_solve",
    "pp.cho_factor", "pp.cho_solve",
    "problem.check_primal_certificate", "problem.check_dual_certificate",
    "instances.generate", "problem.build",
)
CLI_SPANS = IN_PROCESS_SPANS + (
    "dr.trace_record", "pp.trace_record", "fileio.load_problem",
    "fileio.dumps_outcome", "fileio.write_trace_csv", "cli.main",
)

SET_METHODS = ("project", "support", "projection_jacobian",
               "distance_to_recession")


class Tracer:
    """Span recorder plus the counters some wrappers observe."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.solve_id = -1
        self.counters = {"check_hits.dr": 0, "check_hits.pp": 0,
                         "pp.inner_iters.total": 0, "pp.inner_iters.max": 0,
                         "pp.inner_solve_error.count": 0}
        self._patches = []

    def begin(self, name):
        parent = self.stack[-1] if self.stack else -1
        span = [name, 0.0, 0.0, parent, self.solve_id]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def end(self, span):
        span[2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn, observe=None):
        """Return ``fn`` wrapped in a span; ``observe(result, exc)`` sees its outcome."""
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            span = begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if observe is not None:
                    observe(None, exc)
                raise
            finally:
                end(span)
            if observe is not None:
                observe(result, None)
            return result

        return traced

    def patch(self, owner, attr, name, observe=None):
        original = getattr(owner, attr) if isinstance(owner, types.ModuleType) \
            else owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, observe))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- observers -------------------------------------------------------

    def _check_observer(self, solver):
        key = f"check_hits.{solver}"

        def observe(result, exc):
            if result is not None:
                self.counters[key] += 1
        return observe

    def _resolvent_observer(self, result, exc):
        c = self.counters
        if exc is not None:
            c["pp.inner_solve_error.count"] += 1
            iters = getattr(exc, "iterations", 0)
        else:
            iters = result[2]
        c["pp.inner_iters.total"] += iters
        c["pp.inner_iters.max"] = max(c["pp.inner_iters.max"], iters)

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap splitqp's public callables under the names callers use."""
        import scipy.linalg
        from splitqp import cli, dr, fileio, instances, linalg, pp, problem, sets

        for cls in vars(sets).values():
            if isinstance(cls, type) and issubclass(cls, sets.SetDescriptor):
                for meth in SET_METHODS:
                    if meth in cls.__dict__:
                        self.patch(cls, meth, f"sets.{meth}")
        self.patch(linalg.SpdFactor, "solve", "linalg.solve")
        self.patch(dr, "spd_factor", "linalg.spd_factor")
        self.patch(problem.ProblemData, "__post_init__", "problem.build")
        for mod, cls, solver in ((dr, dr.DrSolver, "dr"), (pp, pp.PpSolver, "pp")):
            self.patch(cls, "__init__", f"{solver}.setup")
            self.patch(cls, "step", f"{solver}.step")
            self.patch(cls, "check_termination", f"{solver}.check_termination",
                       self._check_observer(solver))
            self.patch(cls, "trace_record", f"{solver}.trace_record")
            for checker in ("check_primal_certificate", "check_dual_certificate"):
                self.patch(mod, checker, f"problem.{checker}")
        self.patch(pp.PpSolver, "resolvent_solve", "pp.resolvent_solve",
                   self._resolvent_observer)
        # pp calls scipy.linalg.cho_factor through its own ``scipy`` global;
        # a proxy there leaves the same functions untraced inside linalg.
        proxy_linalg = types.SimpleNamespace(
            cho_factor=self.wrap("pp.cho_factor", scipy.linalg.cho_factor),
            cho_solve=self.wrap("pp.cho_solve", scipy.linalg.cho_solve))
        self._patches.append((pp, "scipy", pp.scipy))
        pp.scipy = types.SimpleNamespace(linalg=proxy_linalg)
        self.patch(instances, "generate", "instances.generate")
        for fn in ("load_problem", "dumps_outcome", "write_trace_csv"):
            self.patch(fileio, fn, f"fileio.{fn}")
        self.patch(cli, "main", "cli.main")


def aggregate(spans):
    """Fold spans into mergeable per-name sums.

    Returns ``{name: {"calls", "self_s", "total_s"}}`` plus two extra
    entries: ``"sets.project.under_resolvent"`` counts projections called
    from inside ``pp.resolvent_solve``, and ``"solve.covered_s"`` sums the
    time the direct children of each ``solve.*`` span cover. ``calls``
    counts only calls made from outside the layer (a set method called by
    another set method is not a call into the sets layer), while ``self_s``
    includes nested calls.
    """
    child_time = [0.0] * len(spans)
    in_sets = [False] * len(spans)
    in_resolvent = [False] * len(spans)
    out = {}
    covered = 0.0
    under_resolvent = 0
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            pname = spans[parent][0]
            child_time[parent] += end - start
            in_sets[i] = in_sets[parent] or pname.startswith("sets.")
            in_resolvent[i] = in_resolvent[parent] or pname == "pp.resolvent_solve"
            if pname.startswith("solve."):
                covered += end - start
        if name == "sets.project" and in_resolvent[i] and not in_sets[i]:
            under_resolvent += 1
    for i, (name, start, end, parent, _) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        if not in_sets[i]:
            entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[i]
        entry["total_s"] += end - start
    out["sets.project.under_resolvent"] = {"calls": under_resolvent,
                                           "self_s": 0.0, "total_s": 0.0}
    out["solve.covered_s"] = {"calls": 0, "self_s": covered, "total_s": 0.0}
    return out


def merge(into, other):
    """Add one ``aggregate`` result into another, in place."""
    for name, entry in other.items():
        acc = into.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for key in ("calls", "self_s", "total_s"):
            acc[key] += entry[key]
    return into
