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
"inf" / "-inf"; NaN is rejected everywhere. ``_SET_TYPES`` is the one
list of set types and their members: encoding and decoding both read it,
and any other type is rejected. An error names the member it is about,
e.g. ``set.parts[3].value: expected an array``.
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
                   SecondOrderCone, Singleton, TranslatedCone, Zero)


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
    try:
        v = float(value)
    except OverflowError:  # an integer beyond the float range
        v = math.inf
    if not math.isfinite(v):
        raise ProblemFormatError(f"{where}: value must be finite")
    return v


def _array(values, where, length=None, item=_finite):
    """Check a JSON array and decode each entry at ``where[i]``."""
    if not isinstance(values, list):
        raise ProblemFormatError(f"{where}: expected an array")
    if length is not None and len(values) != length:
        raise ProblemFormatError(
            f"{where}: expected {length} entries, got {len(values)}")
    return [item(v, f"{where}[{i}]") for i, v in enumerate(values)]


def _finite_list(values, where, length=None):
    return np.array(_array(values, where, length))


def _floats(values):
    return [float(v) for v in values]


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


# A codec is (encode, decode): encode maps a set's attribute to its JSON
# value; decode(value, where) checks a member and converts it back.
_BOUNDS = (lambda values: [_encode_bound(v) for v in values],
           lambda value, where: _array(value, where, item=_bound))
_DIM = (int, _positive_int)
_VECTOR = (_floats, _finite_list)
_NUMBER = (float, _finite)
_SET = (lambda S: set_to_obj(S), lambda value, where: set_from_obj(value, where))
_SETS = (lambda parts: [set_to_obj(p) for p in parts],
         lambda value, where: _array(value, where, item=set_from_obj))

# JSON type -> (class, members as (key, attribute, codec) in constructor
# order). The one list of set types; encoding tries the classes in order,
# so "point" must precede "translated_cone": a Singleton is a TranslatedCone.
_SET_TYPES = {
    "box": (Box, (("l", "lower", _BOUNDS), ("u", "upper", _BOUNDS))),
    "nonneg": (NonnegativeOrthant, (("dim", "dim", _DIM),)),
    "zero": (Zero, (("dim", "dim", _DIM),)),
    "point": (Singleton, (("value", "point", _VECTOR),)),
    "halfspace": (Halfspace, (("normal", "normal", _VECTOR),
                              ("offset", "offset", _NUMBER))),
    "ball": (Ball, (("center", "center", _VECTOR),
                    ("radius", "radius", _NUMBER))),
    "soc": (SecondOrderCone, (("dim", "dim", _DIM),)),
    "translated_cone": (TranslatedCone, (("offset", "offset", _VECTOR),
                                         ("cone", "cone", _SET))),
    "cartesian": (Cartesian, (("parts", "parts", _SETS),)),
}


def set_to_obj(S):
    """Encode a set descriptor as its JSON object."""
    for kind, (cls, members) in _SET_TYPES.items():
        if isinstance(S, cls):
            return {"type": kind, **{key: encode(getattr(S, attr))
                                     for key, attr, (encode, _) in members}}
    raise ProblemFormatError(f"cannot serialize set of type {type(S).__name__}")


def set_from_obj(obj, where="set"):
    """Decode a set descriptor; raises ProblemFormatError on bad input."""
    if not isinstance(obj, dict):
        raise ProblemFormatError(f"{where}: expected an object")
    kind = obj.get("type")
    if not isinstance(kind, str) or kind not in _SET_TYPES:
        raise ProblemFormatError(f"{where}: unknown set type {kind!r}")
    cls, members = _SET_TYPES[kind]
    args = [decode(obj.get(key), f"{where}.{key}")
            for key, _, (_, decode) in members]
    try:
        return cls(*args)
    except ValueError as exc:
        raise ProblemFormatError(f"{where}: {exc}") from exc


def _triplets_from_matrix(M, upper_only=False):
    """Row-major ``[row, col, value]`` of the nonzero entries (-0.0 is zero)."""
    if upper_only:
        M = np.triu(M)
    rows, cols = np.nonzero(M)
    return [list(t) for t in zip(rows.tolist(), cols.tolist(),
                                 M[rows, cols].tolist())]


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


# kind -> its vector members as (key, length "n" or "m")
_TRUTH_KINDS = {
    "kkt": (("x", "n"), ("z", "m"), ("y", "m")),
    "primal_certificate": (("vector", "m"),),
    "dual_certificate": (("vector", "n"),),
}
_CANDIDATE_KINDS = {
    "primal_infeasibility": (("vector", "m"),),
    "dual_infeasibility": (("vector", "n"),),
}


def _vectors_from_obj(obj, where, kinds, n, m):
    """Decode ``{"kind": ..., <vector members>}`` by the ``kinds`` table."""
    if not isinstance(obj, dict):
        raise ProblemFormatError(f"{where}: expected an object")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise ProblemFormatError(f"{where}: unknown kind {kind!r}")
    length = {"n": n, "m": m}
    return {"kind": kind, **{key: _finite_list(obj.get(key), f"{where}.{key}",
                                               length[size])
                             for key, size in kinds[kind]}}


def truth_to_obj(truth):
    kind = truth.get("kind")
    if not isinstance(kind, str) or kind not in _TRUTH_KINDS:
        raise ProblemFormatError(f"unknown truth kind {kind!r}")
    return {"kind": kind, **{key: _floats(truth[key])
                             for key, _ in _TRUTH_KINDS[kind]}}


def problem_to_obj(problem, truth=None):
    obj = {
        "n": problem.n,
        "m": problem.m,
        "Q": _triplets_from_matrix(problem.Q, upper_only=True),
        "q": _floats(problem.q),
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
    # q and the set confirm the declared sizes before Q and A are allocated
    q = _finite_list(obj["q"], "q", n)
    C = set_from_obj(obj["set"])
    if C.dim != m:
        raise ProblemFormatError(
            f"set: dimension {C.dim} does not match m = {m}")
    Q = _matrix_from_triplets(obj["Q"], n, n, "Q", mirror=True)
    A = _matrix_from_triplets(obj["A"], m, n, "A")
    try:
        problem = ProblemData(Q=Q, q=q, A=A, C=C)
    except ValueError as exc:
        raise ProblemFormatError(str(exc)) from exc
    truth = (_vectors_from_obj(obj["truth"], "truth", _TRUTH_KINDS, n, m)
             if "truth" in obj else None)
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
        obj = _vectors_from_obj(_loads(fh.read()), "candidate",
                                _CANDIDATE_KINDS, n, m)
    return obj["kind"], obj["vector"]


def load_warm(path, dual_key, n, m):
    """Load a warm start {"x": [...], dual_key: [...]}; "v" (DR) or "y" (PP)."""
    with open(path) as fh:
        obj = _loads(fh.read())
    if not isinstance(obj, dict):
        raise ProblemFormatError("warm start: expected an object")
    if "x" not in obj or dual_key not in obj:
        raise ProblemFormatError(
            f"warm start: needs members 'x' and {dual_key!r}")
    return (_finite_list(obj["x"], "warm.x", n),
            _finite_list(obj[dual_key], f"warm.{dual_key}", m))


def certificate_to_obj(cert: Certificate):
    """Infinite metrics become the strings "inf" / "-inf", like box bounds."""
    return {"kind": cert.kind,
            "vector": _floats(cert.vector),
            "metrics": {key: _encode_bound(value)
                        for key, value in cert.metrics.items()}}


def outcome_to_obj(result, config_echo):
    obj = {"status": result.status, "iterations": result.iterations}
    if result.certificate is not None:
        obj["certificate"] = certificate_to_obj(result.certificate)
        if result.secondary_certificate is not None:
            obj["secondary_certificate"] = certificate_to_obj(
                result.secondary_certificate)
    else:
        obj.update((key, _floats(getattr(result, key))) for key in "xzy")
    if result.residuals is not None:
        obj["residuals"] = {"primal": result.residuals[0],
                            "dual": result.residuals[1]}
    obj["config_echo"] = config_echo
    return obj


def dumps_outcome(result, config_echo):
    return json.dumps(outcome_to_obj(result, config_echo), indent=2) + "\n"


_TRACE_NAMES = [f.name for f in dataclasses.fields(TraceRecord)]
# a record's fields in order: dataclasses.astuple without its deepcopy
_trace_fields = operator.attrgetter(*_TRACE_NAMES)
# the counter n is written as "iter"; inner_iters is optional per file
TRACE_COLUMNS = ["iter", *_TRACE_NAMES[1:-1]]


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
