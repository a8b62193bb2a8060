import numpy as np
import pytest

from splitqp import fileio, instances
from splitqp.instances import (SET_FAMILIES, SplitMix64, gen_dual_infeasible,
                               gen_feasible, gen_primal_infeasible, generate)
from splitqp.linalg import spectral_norm_est
from splitqp.problem import (check_dual_certificate, check_primal_certificate,
                             kkt_residuals)
from splitqp.sets import Ball, Box, NonnegativeOrthant

from cesaro import cesaro_oracle, cesaro_triple
from directions import unique_direction


def test_splitmix64_reference_vector():
    # published test vector for the splitmix64 generator, seed 1234567
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(5)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]


def test_splitmix64_uniform_range():
    rng = SplitMix64(9)
    values = [rng.symmetric() for _ in range(2000)]
    assert all(-1.0 <= v < 1.0 for v in values)
    assert abs(np.mean(values)) < 0.05


class ScalarSplitMix64(SplitMix64):
    """Uniform blocks, vectors and matrices drawn one scalar at a time."""

    def uniforms(self, n):
        return np.array([self.uniform() for _ in range(n)])

    def vector(self, n):
        return np.array([self.symmetric() for _ in range(n)])

    def matrix(self, m, n):
        return np.array([[self.symmetric() for _ in range(n)]
                         for _ in range(m)])


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, -5])
def test_block_draws_match_scalar_stream(seed):
    rng, ref = SplitMix64(seed), SplitMix64(seed)
    assert rng.state == ref.state == seed % 2**64
    draws = [("vector", (0,)), ("uniforms", (0,)), ("vector", (7,)),
             ("matrix", (3, 4)), ("scalar", ()), ("uniforms", (6,)),
             ("matrix", (0, 5)), ("matrix", (5, 0)), ("vector", (1,)),
             ("scalar", ()), ("uniforms", (6,)), ("matrix", (1, 9))]
    for method, shape in draws:
        if method == "scalar":
            assert rng.symmetric() == ref.symmetric()
        else:
            got = getattr(rng, method)(*shape)
            count = int(np.prod(shape))
            draw = ref.uniform if method == "uniforms" else ref.symmetric
            want = np.array([draw() for _ in range(count)])
            assert got.shape == shape and got.dtype == np.float64
            assert got.tobytes() == want.tobytes()
        assert rng.state == ref.state


def test_generated_instances_match_scalar_draws(monkeypatch):
    block = {}
    for kind in ("feasible", "primal_infeasible", "dual_infeasible"):
        for family in SET_FAMILIES:
            for n in (1, 5, 60):
                block[kind, family, n] = generate(kind, 9000 + n, n, n + 1,
                                                  family)
    monkeypatch.setattr(instances, "SplitMix64", ScalarSplitMix64)
    for (kind, family, n), b in block.items():
        ref = generate(kind, 9000 + n, n, n + 1, family)
        for name in ("Q", "q", "A"):
            assert (getattr(b.problem, name).tobytes()
                    == getattr(ref.problem, name).tobytes())
        # the canonical text holds the set arrays and the truth exactly
        assert (fileio.dumps_problem(b.problem, b.truth)
                == fileio.dumps_problem(ref.problem, ref.truth))


def test_generator_determinism():
    for kind in ("feasible", "primal_infeasible", "dual_infeasible"):
        for family in SET_FAMILIES:
            a = generate(kind, 77, 4, 6, family)
            b = generate(kind, 77, 4, 6, family)
            assert np.array_equal(a.problem.Q, b.problem.Q)
            assert np.array_equal(a.problem.q, b.problem.q)
            assert np.array_equal(a.problem.A, b.problem.A)
            for key, val in a.truth.items():
                if isinstance(val, np.ndarray):
                    assert np.array_equal(val, b.truth[key])
                else:
                    assert val == b.truth[key]


def test_generator_truths_validate():
    for i in range(12):
        family = SET_FAMILIES[i % 4]
        n = 2 + i % 5
        m = n + 1 + i % 3
        b = gen_feasible(1000 + i, n, m, family)
        r = kkt_residuals(b.problem, b.truth["x"], b.truth["z"], b.truth["y"])
        assert max(r.primal, r.dual) <= 1e-9
        b = gen_primal_infeasible(2000 + i, n, m, family)
        ok, _ = check_primal_certificate(b.problem, b.truth["vector"], 1e-9)
        assert ok
        b = gen_dual_infeasible(3000 + i, n, m, family)
        ok, _ = check_dual_certificate(b.problem, b.truth["vector"], 1e-9)
        assert ok


def test_generated_matrices_are_unit_scaled():
    for i in range(6):
        b = gen_feasible(50 + i, 3, 5, SET_FAMILIES[i % 4])
        assert abs(spectral_norm_est(b.problem.A) - 1.0) <= 0.1
        eigs = np.linalg.eigvalsh(b.problem.Q)
        assert eigs[0] > 0  # positive definite


def test_unique_direction_flags():
    b = gen_primal_infeasible(5, 4, 5, "box")   # m = n + 1
    assert unique_direction(b)
    b = gen_primal_infeasible(5, 3, 8, "box")   # wide null space
    assert not unique_direction(b)
    b = gen_dual_infeasible(5, 4, 5, "box")
    assert unique_direction(b)


def test_generator_argument_validation():
    with pytest.raises(ValueError, match="unknown set family"):
        gen_feasible(1, 3, 4, "polytope")
    with pytest.raises(ValueError, match="m >= 2"):
        gen_primal_infeasible(1, 3, 1, "box")
    with pytest.raises(ValueError, match="unknown instance kind"):
        generate("weakly_infeasible", 1, 3, 4, "box")
    for gen in (gen_feasible, gen_primal_infeasible, gen_dual_infeasible):
        for n, m in ((0, 4), (3, 0)):
            with pytest.raises(ValueError,
                               match="n and m must be at least 1"):
                gen(1, n, m, "box")


def test_generate_dispatches_through_the_kinds_table():
    assert tuple(instances.KINDS) == ("feasible", "primal_infeasible",
                                      "dual_infeasible")
    for kind, gen in instances.KINDS.items():
        a = generate(kind, 11, 4, 6, "box_soc")
        b = gen(11, 4, 6, "box_soc")
        assert fileio.dumps_problem(a.problem, a.truth) == \
            fileio.dumps_problem(b.problem, b.truth)


def test_cesaro_oracle_examples():
    # compact set: averaged projections vanish, residual recovers the drift
    S = Ball([0.0, 0.0], 1.0)
    ds = np.array([0.3, -0.4])
    p, r, _ = cesaro_oracle(S, ds, np.array([5.0, 5.0]), 10**6)
    assert np.linalg.norm(p) <= 1e-3
    assert np.linalg.norm(r - ds) <= 1e-3

    # drift inside the recession cone: residual average vanishes
    S = NonnegativeOrthant(2)
    p, r, _ = cesaro_oracle(S, np.array([0.5, 1.0]), np.array([-3.0, 2.0]), 10**6)
    assert np.linalg.norm(r) <= 1e-3

    # bounded box: inner products converge to the support value
    S = Box([0.0], [1.0])
    p, r, inner = cesaro_oracle(S, np.array([1.0]), np.array([0.0]), 10**6)
    assert np.linalg.norm(p) <= 1e-3
    assert abs(inner - 1.0) <= 1e-3  # support of [0,1] at dr = 1


def test_cesaro_oracle_rate_on_box_family():
    for seed in (101, 202):
        S, ds, s0 = cesaro_triple(seed, "box")
        target_p = S.project_recession(ds)
        target_r = S.project_polar_recession(ds)
        for n, tol in ((10**6, 1e-3), (10**7, 1e-4)):
            p, r, _ = cesaro_oracle(S, ds, s0, n)
            assert np.linalg.norm(p - target_p) <= tol
            assert np.linalg.norm(r - target_r) <= tol


def test_cesaro_oracle_validation():
    S = Box([0.0], [1.0])
    with pytest.raises(ValueError):
        cesaro_oracle(S, np.array([1.0]), np.array([1.0]), 0)
    with pytest.raises(ValueError):
        cesaro_oracle(S, np.array([1.0, 2.0]), np.array([1.0]), 10)
