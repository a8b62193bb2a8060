"""Solve outcomes and per-iteration trace records shared by both solvers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .problem import Certificate

SOLVED = "solved"
PRIMAL_INFEASIBLE = "primal_infeasible"
DUAL_INFEASIBLE = "dual_infeasible"
MAX_ITERATIONS = "max_iterations"


@dataclass
class TraceRecord:
    """One iteration's diagnostics; ``support_dy`` may be +inf."""

    n: int
    primal_res: float
    dual_res: float
    norm_dx: float
    norm_dy: float
    norm_At_dy: float
    support_dy: float
    norm_Q_dx: float
    q_dot_dx: float
    dist_rec: float
    inner_iters: Optional[int] = None


@dataclass
class SolveOutcome:
    """Result of a solver run.

    ``x``, ``z``, ``y`` hold the last iterates (the solution when
    ``status == "solved"``); ``certificate`` is set for the two
    infeasible statuses. ``residuals`` are the primal/dual residual
    inf-norms at the final iterate. ``secondary_certificate`` is the
    dual certificate of a ``primal_infeasible`` run that found both.
    """

    status: str
    iterations: int
    x: Optional[np.ndarray] = None
    z: Optional[np.ndarray] = None
    y: Optional[np.ndarray] = None
    certificate: Optional[Certificate] = None
    residuals: Optional[tuple] = None
    residual_history: Optional[list] = None
    secondary_certificate: Optional[Certificate] = None
