"""Averaged-projection oracles for the set tests.

``cesaro_triple`` draws a seeded (set, direction, start) triple of one
of nine descriptor kinds; ``cesaro_oracle`` evaluates the averaged
projection limits along the ray ``s0 + n * delta_s``.
"""

import numpy as np

from splitqp.instances import SplitMix64, _box_around
from splitqp.sets import (Ball, Cartesian, Halfspace, NonnegativeOrthant,
                          SecondOrderCone, Singleton, TranslatedCone, Zero)


def cesaro_oracle(S, delta_s, s0, n):
    """Numerical witnesses for the averaged projection limits.

    With ``s_n = s0 + n * delta_s`` returns the triple

        ((1/n) proj_S(s_n),  (1/n) (s_n - proj_S(s_n)),
         (1/n) <proj_S(s_n), s_n - proj_S(s_n)>)

    which converge to ``project_recession(S, delta_s)``,
    ``project_polar_recession(S, delta_s)``, and
    ``support(S, project_polar_recession(S, delta_s))``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    delta_s = np.asarray(delta_s, dtype=float)
    s0 = np.asarray(s0, dtype=float)
    if delta_s.shape != (S.dim,) or s0.shape != (S.dim,):
        raise ValueError("direction and start must match the set dimension")
    s_n = s0 + float(n) * delta_s
    p = S.project(s_n)
    r = s_n - p
    return p / n, r / n, float(p @ r) / n


def cesaro_triple(seed, kind):
    """A seeded (set, direction, start) triple for asymptotics tests."""
    rng = SplitMix64(seed)
    dim = 2 + rng.next_u64() % 4
    if kind == "box":
        z = rng.vector(dim)
        S, _ = _box_around(rng, z)
    elif kind == "orthant":
        S = NonnegativeOrthant(dim)
    elif kind == "zero":
        S = Zero(dim)
    elif kind == "singleton":
        S = Singleton(rng.vector(dim))
    elif kind == "halfspace":
        normal = rng.vector(dim)
        while float(np.linalg.norm(normal)) < 1e-3:
            normal = rng.vector(dim)
        S = Halfspace(normal, rng.symmetric())
    elif kind == "ball":
        S = Ball(rng.vector(dim), rng.uniform_in(0.2, 2.0))
    elif kind == "soc":
        S = SecondOrderCone(dim)
    elif kind == "translated_cone":
        inner = (NonnegativeOrthant(dim) if rng.uniform() < 0.5
                 else SecondOrderCone(dim))
        S = TranslatedCone(rng.vector(dim), inner)
    elif kind == "cartesian":
        z = rng.vector(dim)
        box, _ = _box_around(rng, z)
        S = Cartesian([box, SecondOrderCone(1 + rng.next_u64() % 3)])
    else:
        raise ValueError(f"unknown descriptor kind {kind!r}")
    delta_s = rng.vector(S.dim)
    s0 = rng.vector(S.dim)
    return S, delta_s, s0
