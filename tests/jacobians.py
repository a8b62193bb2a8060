"""The dense matrix of a structured projection Jacobian, for tests."""

import numpy as np


def dense(J):
    """The matrix ``diag(J.d) + sum of E U N U.T E.T`` as a dense array."""
    D = np.diag(J.d)
    for start, U, N in J.terms:
        sl = slice(start, start + U.shape[0])
        D[sl, sl] += U @ N @ U.T
    return D
