"""Whether a generated instance's certificate direction is unique."""

import numpy as np


def unique_direction(bundle):
    """True when the bundle's certificate is the only direction, up to scale.

    Dual certificates count as unique: the generator makes Q of rank
    n - 1 with ``xbar`` spanning its null space. A primal certificate is
    unique when the null space of ``A.T`` is one-dimensional, that is
    when ``m - rank(A) == 1`` at tolerance 1e-8. A KKT truth has none.
    """
    kind = bundle.truth["kind"]
    if kind == "dual_certificate":
        return True
    if kind == "primal_certificate":
        A = bundle.problem.A
        return bool(A.shape[0] - np.linalg.matrix_rank(A, tol=1e-8) == 1)
    return False
