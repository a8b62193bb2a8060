"""splitqp: convex QP solving with strong-infeasibility certificates.

Solves ``minimize 0.5 <Qx, x> + <q, x> subject to Ax in C`` for a
compositional family of closed convex sets C, via Douglas-Rachford
splitting or a proximal-point iteration on the KKT operator. Both loops
watch the differences of consecutive iterates; their limits certify
primal or dual strong infeasibility when nonzero.
"""

from .dr import DrConfig, DrSolver, dr_run
from .driver import SolverState, iterate
from .instances import (InstanceBundle, SplitMix64, gen_dual_infeasible,
                        gen_feasible, gen_primal_infeasible, generate)
from .linalg import (NotPositiveDefiniteError, SpdFactor, as_matrix,
                     as_vector, spd_factor, spectral_norm_est)
from .outcome import (DUAL_INFEASIBLE, MAX_ITERATIONS, PRIMAL_INFEASIBLE,
                      SOLVED, SolveOutcome, TraceRecord)
from .pp import InnerSolveError, PpConfig, PpSolver, pp_run
from .problem import (Certificate, KktResiduals, ProblemData,
                      check_dual_certificate, check_primal_certificate,
                      kkt_residuals)
from .sets import (Ball, Box, Cartesian, Halfspace, NonnegativeOrthant,
                   SecondOrderCone, SetDescriptor, Singleton, TranslatedCone,
                   Zero)

__all__ = [
    "Ball", "Box", "Cartesian", "Certificate", "DrConfig", "DrSolver",
    "DUAL_INFEASIBLE", "Halfspace", "InnerSolveError", "InstanceBundle",
    "KktResiduals", "MAX_ITERATIONS", "NonnegativeOrthant",
    "NotPositiveDefiniteError", "PpConfig", "PpSolver", "PRIMAL_INFEASIBLE",
    "ProblemData", "SecondOrderCone", "SetDescriptor", "Singleton",
    "SolveOutcome", "SolverState", "SOLVED", "SpdFactor", "SplitMix64",
    "TraceRecord", "TranslatedCone", "Zero", "as_matrix", "as_vector",
    "check_dual_certificate", "check_primal_certificate", "dr_run",
    "gen_dual_infeasible", "gen_feasible", "gen_primal_infeasible",
    "generate", "iterate", "kkt_residuals", "pp_run", "spd_factor",
    "spectral_norm_est",
]

__version__ = "0.1.0"
