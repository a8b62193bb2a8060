"""The residual identities of both solvers, as a test-only reference.

Each identity writes an optimality residual two ways: from the
differences of two consecutive states ``prev`` and ``cur`` (the delta
form), and directly from the iterates (the direct form). A solver state
keeps only ``dx`` and ``dy``; the auxiliary differences ``dv`` and
``dz`` here are the subtractions a step would take, ``cur.v - prev.v``
and ``cur.z - prev.z``.

DR, at the earlier iterate, with relaxation ``alpha``:

    A x_n - z_n         = -(A dx_n+1 - dv_n+1) / alpha
    Q x_n + q + A.T y_n = -((Q+I) dx_n+1 + A.T dv_n+1) / alpha

up to the accuracy of the subproblem solve. PP, at the later iterate:

    A x_n+1 - z_n+1                          =  dy_n+1 / gamma   (exact)
    Q x_n+1 + q + gamma A.T (v_n+1 - z_n+1)  = -dx_n+1 / gamma   (up to
                                                the inner tolerance)
"""

from splitqp.dr import DrSolver


def aux_differences(prev, cur):
    """``(dv, dz)`` between two consecutive states."""
    return cur.v - prev.v, cur.z - prev.z


def residual_vectors(solver, prev, cur):
    """``(prim_delta, dual_delta, prim_direct, dual_direct)`` of one step."""
    P = solver.problem
    if isinstance(solver, DrSolver):
        alpha = solver.config.alpha
        dv, _ = aux_differences(prev, cur)
        prim_delta = -(P.A @ cur.dx - dv) / alpha
        dual_delta = -(cur.dx + P.Q @ cur.dx + P.A.T @ dv) / alpha
        prim_direct = P.A @ prev.x - prev.z
        dual_direct = P.Q @ prev.x + P.q + P.A.T @ prev.y
    else:
        g = solver.config.gamma
        prim_delta = cur.dy / g
        dual_delta = -cur.dx / g
        prim_direct = P.A @ cur.x - cur.z
        dual_direct = P.Q @ cur.x + P.q + g * (P.A.T @ (cur.v - cur.z))
    return prim_delta, dual_delta, prim_direct, dual_direct


def step_pairs(solver, steps, warm=None):
    """Yield ``(prev, cur)`` for each of ``steps`` steps from the start."""
    cur = solver.initial_state(warm)
    for _ in range(steps):
        prev, cur = cur, solver.step(cur)
        yield prev, cur
