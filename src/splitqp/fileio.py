"""Problem, outcome, and trace serialization.

Problem files are JSON with a fixed member order so that parsing and
re-serializing a file reproduces it byte for byte:

    {
      "n": 2, "m": 3,
      "Q": [[0, 0, 1.0], [0, 1, 0.5]],      # upper triangle triplets
      "q": [0.0, -1.0],
      "A": [[0, 0, 1.0], [1, 1, 2.0]],      # triplets, row-major order
      "set": {"type": "box", "l": [0.0, "-inf", 0.0], "u": [1.0, 2.0, "inf"]},
      "truth": {...}                        # optional sidecar
    }

Q is stored upper-triangle-only and mirrored on load, which enforces
symmetry at the format level. Infinite box bounds are the strings
"inf" / "-inf"; NaN is rejected everywhere. Unknown set types are
rejected.
"""

from __future__ import annotations

import dataclasses
import json
import math
import operator

import numpy as np

from .instances import InstanceBundle
from .outcome import TraceRecord
from .problem import Certificate, ProblemData
from .sets import (Ball, Box, Cartesian, Halfspace, NonnegativeOrthant,
                   SecondOrderCone, SetDescriptor, Singleton, TranslatedCone,
                   Zero)


class ProblemFormatError(ValueError):
    """Malformed problem, candidate, or warm-start file."""


def _reject_constant(name):
    raise ProblemFormatError(f"non-finite JSON literal {name} is not allowed")


def _loads(text):
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        # exc.msg carries line and column anchors
        raise ProblemFormatError(f"invalid JSON: {exc}") from exc


def _finite(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProblemFormatError(f"{where}: expected a number")
    v = float(value)
    if not math.isfinite(v):
        raise ProblemFormatError(f"{where}: value must be finite")
    return v


def _finite_list(values, where, length=None):
    if not isinstance(values, list):
        raise ProblemFormatError(f"{where}: expected an array")
    if length is not None and len(values) != length:
        raise ProblemFormatError(
            f"{where}: expected {length} entries, got {len(values)}")
    return np.array([_finite(v, f"{where}[{i}]") for i, v in enumerate(values)])


def _bound(value, where):
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    return _finite(value, where)


def _encode_bound(x):
    if x == math.inf:
        return "inf"
    if x == -math.inf:
        return "-inf"
    return float(x)


def _index(value, limit, where):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProblemFormatError(f"{where}: expected an integer index")
    if not 0 <= value < limit:
        raise ProblemFormatError(f"{where}: index {value} out of range [0, {limit})")
    return value


def _positive_int(value, where):
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ProblemFormatError(f"{where}: expected a positive integer")
    return value


def set_to_obj(S):
    """Encode a set descriptor as its JSON object."""
    if isinstance(S, Box):
        return {"type": "box",
                "l": [_encode_bound(v) for v in S.lower],
                "u": [_encode_bound(v) for v in S.upper]}
    if isinstance(S, NonnegativeOrthant):
        return {"type": "nonneg", "dim": S.dim}
    if isinstance(S, Zero):
        return {"type": "zero", "dim": S.dim}
    if isinstance(S, Singleton):
        return {"type": "point", "value": [float(v) for v in S.point]}
    if isinstance(S, Halfspace):
        return {"type": "halfspace",
                "normal": [float(v) for v in S.normal],
                "offset": float(S.offset)}
    if isinstance(S, Ball):
        return {"type": "ball",
                "center": [float(v) for v in S.center],
                "radius": float(S.radius)}
    if isinstance(S, SecondOrderCone):
        return {"type": "soc", "dim": S.dim}
    if isinstance(S, TranslatedCone):
        return {"type": "translated_cone",
                "offset": [float(v) for v in S.offset],
                "cone": set_to_obj(S.cone)}
    if isinstance(S, Cartesian):
        return {"type": "cartesian", "parts": [set_to_obj(p) for p in S.parts]}
    raise ProblemFormatError(f"cannot serialize set of type {type(S).__name__}")


def set_from_obj(obj, where="set"):
    """Decode a set descriptor; raises ProblemFormatError on bad input."""
    if not isinstance(obj, dict):
        raise ProblemFormatError(f"{where}: expected an object")
    kind = obj.get("type")
    try:
        if kind == "box":
            if not isinstance(obj.get("l"), list) or not isinstance(obj.get("u"), list):
                raise ProblemFormatError(f"{where}: box needs 'l' and 'u' arrays")
            lower = [_bound(v, f"{where}.l[{i}]") for i, v in enumerate(obj["l"])]
            upper = [_bound(v, f"{where}.u[{i}]") for i, v in enumerate(obj["u"])]
            return Box(lower, upper)
        if kind == "nonneg":
            return NonnegativeOrthant(_positive_int(obj.get("dim"), f"{where}.dim"))
        if kind == "zero":
            return Zero(_positive_int(obj.get("dim"), f"{where}.dim"))
        if kind == "point":
            return Singleton(_finite_list(obj["value"], f"{where}.value"))
        if kind == "halfspace":
            return Halfspace(_finite_list(obj["normal"], f"{where}.normal"),
                             _finite(obj["offset"], f"{where}.offset"))
        if kind == "ball":
            return Ball(_finite_list(obj["center"], f"{where}.center"),
                        _finite(obj["radius"], f"{where}.radius"))
        if kind == "soc":
            return SecondOrderCone(_positive_int(obj.get("dim"), f"{where}.dim"))
        if kind == "translated_cone":
            return TranslatedCone(
                _finite_list(obj["offset"], f"{where}.offset"),
                set_from_obj(obj["cone"], f"{where}.cone"))
        if kind == "cartesian":
            parts = obj.get("parts")
            if not isinstance(parts, list):
                raise ProblemFormatError(f"{where}: cartesian needs a 'parts' array")
            return Cartesian([set_from_obj(p, f"{where}.parts[{i}]")
                              for i, p in enumerate(parts)])
    except ProblemFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ProblemFormatError(f"{where}: {exc}") from exc
    raise ProblemFormatError(f"{where}: unknown set type {kind!r}")


def _triplets_from_matrix(M, upper_only=False):
    rows, cols = M.shape
    out = []
    for r in range(rows):
        for c in range(r if upper_only else 0, cols):
            v = M[r, c]
            if v != 0.0:
                out.append([r, c, float(v)])
    return out


def _matrix_from_triplets(entries, rows, cols, where, mirror=False):
    if not isinstance(entries, list):
        raise ProblemFormatError(f"{where}: expected an array of triplets")
    M = np.zeros((rows, cols))
    seen = set()
    for i, item in enumerate(entries):
        anchor = f"{where}[{i}]"
        if not isinstance(item, list) or len(item) != 3:
            raise ProblemFormatError(f"{anchor}: expected [row, col, value]")
        r = _index(item[0], rows, anchor)
        c = _index(item[1], cols, anchor)
        v = _finite(item[2], anchor)
        if mirror and r > c:
            raise ProblemFormatError(
                f"{anchor}: entry ({r}, {c}) is below the diagonal; "
                "store the upper triangle only")
        if (r, c) in seen:
            raise ProblemFormatError(f"{anchor}: duplicate entry ({r}, {c})")
        seen.add((r, c))
        M[r, c] = v
        if mirror:
            M[c, r] = v
    return M


def truth_to_obj(truth):
    kind = truth.get("kind")
    if kind == "kkt":
        return {"kind": "kkt",
                "x": [float(v) for v in truth["x"]],
                "z": [float(v) for v in truth["z"]],
                "y": [float(v) for v in truth["y"]]}
    if kind in ("primal_certificate", "dual_certificate"):
        return {"kind": kind, "vector": [float(v) for v in truth["vector"]]}
    raise ProblemFormatError(f"unknown truth kind {kind!r}")


def truth_from_obj(obj, n, m):
    if not isinstance(obj, dict):
        raise ProblemFormatError("truth: expected an object")
    kind = obj.get("kind")
    if kind == "kkt":
        return {"kind": "kkt",
                "x": _finite_list(obj.get("x"), "truth.x", n),
                "z": _finite_list(obj.get("z"), "truth.z", m),
                "y": _finite_list(obj.get("y"), "truth.y", m)}
    if kind == "primal_certificate":
        return {"kind": kind,
                "vector": _finite_list(obj.get("vector"), "truth.vector", m)}
    if kind == "dual_certificate":
        return {"kind": kind,
                "vector": _finite_list(obj.get("vector"), "truth.vector", n)}
    raise ProblemFormatError(f"truth: unknown kind {kind!r}")


def problem_to_obj(problem, truth=None):
    obj = {
        "n": problem.n,
        "m": problem.m,
        "Q": _triplets_from_matrix(problem.Q, upper_only=True),
        "q": [float(v) for v in problem.q],
        "A": _triplets_from_matrix(problem.A),
        "set": set_to_obj(problem.C),
    }
    if truth is not None:
        obj["truth"] = truth_to_obj(truth)
    return obj


def problem_from_obj(obj):
    if not isinstance(obj, dict):
        raise ProblemFormatError("top level: expected an object")
    for key in ("n", "m", "Q", "q", "A", "set"):
        if key not in obj:
            raise ProblemFormatError(f"missing required member {key!r}")
    n = _positive_int(obj["n"], "n")
    m = _positive_int(obj["m"], "m")
    Q = _matrix_from_triplets(obj["Q"], n, n, "Q", mirror=True)
    q = _finite_list(obj["q"], "q", n)
    A = _matrix_from_triplets(obj["A"], m, n, "A")
    C = set_from_obj(obj["set"])
    if C.dim != m:
        raise ProblemFormatError(
            f"set: dimension {C.dim} does not match m = {m}")
    try:
        problem = ProblemData(Q=Q, q=q, A=A, C=C)
    except ValueError as exc:
        raise ProblemFormatError(str(exc)) from exc
    truth = None
    if "truth" in obj:
        truth = truth_from_obj(obj["truth"], n, m)
    return problem, truth


def dumps_problem(problem, truth=None):
    """Canonical text form; parsing and re-dumping is byte-identical."""
    return json.dumps(problem_to_obj(problem, truth), indent=2) + "\n"


def loads_problem(text):
    return problem_from_obj(_loads(text))


def save_problem(path, problem, truth=None):
    with open(path, "w") as fh:
        fh.write(dumps_problem(problem, truth))


def load_problem(path):
    with open(path) as fh:
        return loads_problem(fh.read())


def save_bundle(path, bundle: InstanceBundle):
    save_problem(path, bundle.problem, bundle.truth)


def load_candidate(path, n, m):
    """Load a certificate candidate: {"kind": ..., "vector": [...]}."""
    with open(path) as fh:
        obj = _loads(fh.read())
    if not isinstance(obj, dict):
        raise ProblemFormatError("candidate: expected an object")
    kind = obj.get("kind")
    if kind == "primal_infeasibility":
        vector = _finite_list(obj.get("vector"), "candidate.vector", m)
    elif kind == "dual_infeasibility":
        vector = _finite_list(obj.get("vector"), "candidate.vector", n)
    else:
        raise ProblemFormatError(f"candidate: unknown kind {kind!r}")
    return kind, vector


def load_warm(path, first_key, second_key, n, m):
    """Load a warm start {"x": [...], "<v|y>": [...]}."""
    with open(path) as fh:
        obj = _loads(fh.read())
    if not isinstance(obj, dict):
        raise ProblemFormatError("warm start: expected an object")
    if first_key not in obj or second_key not in obj:
        raise ProblemFormatError(
            f"warm start: needs members {first_key!r} and {second_key!r}")
    return (_finite_list(obj[first_key], f"warm.{first_key}", n),
            _finite_list(obj[second_key], f"warm.{second_key}", m))


def certificate_to_obj(cert: Certificate):
    """Infinite metrics become the strings "inf" / "-inf", like box bounds."""
    return {"kind": cert.kind,
            "vector": [float(v) for v in cert.vector],
            "metrics": {key: _encode_bound(value)
                        for key, value in cert.metrics.items()}}


def outcome_to_obj(result, config_echo):
    obj = {"status": result.status, "iterations": result.iterations}
    if result.certificate is not None:
        obj["certificate"] = certificate_to_obj(result.certificate)
    else:
        obj["x"] = [float(v) for v in result.x]
        obj["z"] = [float(v) for v in result.z]
        obj["y"] = [float(v) for v in result.y]
    if result.residuals is not None:
        obj["residuals"] = {"primal": result.residuals[0],
                            "dual": result.residuals[1]}
    obj["config_echo"] = config_echo
    return obj


def dumps_outcome(result, config_echo):
    return json.dumps(outcome_to_obj(result, config_echo), indent=2) + "\n"


# a record's fields in order: dataclasses.astuple without its deepcopy
_trace_fields = operator.attrgetter(
    *(f.name for f in dataclasses.fields(TraceRecord)))
TRACE_COLUMNS = ["iter", "primal_res", "dual_res", "norm_dx", "norm_dy",
                 "norm_At_dy", "support_dy", "norm_Q_dx", "q_dot_dx",
                 "dist_rec"]


def write_trace_csv(path, records):
    """Trace CSV with a mandatory header, one row per record's fields.

    Values are ``repr``s, so an unbounded ``support_dy`` renders as
    ``inf``. An ``inner_iters`` column follows when the records carry
    inner iteration counts (PP traces).
    """
    include_inner = bool(records) and records[0].inner_iters is not None
    columns = TRACE_COLUMNS + (["inner_iters"] if include_inner else [])
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for rec in records:
            fh.write(",".join(map(repr, _trace_fields(rec)[:len(columns)]))
                     + "\n")
