import hashlib
import json

import numpy as np
import pytest

from projconst import (GuardRefusal, PreconditionError, SignMatrix,
                       WeightVector, alternate_maximize, alternating_pi,
                       exhaustive_pi, gruenbaum_floor, kyfan_sum, perron,
                       pi_n_general, sign_matrix_of)
from projconst.search import _canonical_reps, restart_weights
from projconst.seeds import C_ICOSA

PHI = (1 + np.sqrt(5)) / 2
HEX_S = 2 * np.eye(3) - np.ones((3, 3))


def uniform(d):
    return WeightVector(np.full(d, 1.0 / d))


class TestGruenbaumFloor:
    def test_values(self):
        assert abs(gruenbaum_floor(1) - 0.7978845608) <= 1e-10
        assert abs(gruenbaum_floor(2) - 1.1283791671) <= 1e-10
        assert abs(gruenbaum_floor(4) - 1.5957691216) <= 1e-10

    def test_rejects_zero(self):
        with pytest.raises(PreconditionError):
            gruenbaum_floor(0)


class TestAlternateMaximize:
    def test_hexagon_fixed_point(self):
        res = alternate_maximize(2, SignMatrix(HEX_S), uniform(3))
        assert res.converged and res.iterations == 1
        assert abs(res.value - 4 / 3) <= 1e-12
        assert np.array_equal(res.S.entries, HEX_S)
        assert np.allclose(res.D.w, 1 / 3)

    def test_icosahedral_fixed_point(self):
        s0 = SignMatrix(np.eye(6) + C_ICOSA)
        res = alternate_maximize(3, s0, uniform(6))
        assert res.converged and res.iterations == 1
        assert abs(res.value - PHI) <= 1e-12
        assert np.array_equal(res.S.entries, s0.entries)

    def test_rank_one_value_one(self):
        # pi_1(sqrt(D) S sqrt(D)) <= 1 with equality attained; the all-plus
        # class reaches it from any start, and the exhaustive search always
        # returns exactly 1 (alternation alone can stall below 1 on
        # adversarial starts whose maximizer has zero entries)
        for d in (2, 3, 5):
            res = alternate_maximize(1, SignMatrix(np.ones((d, d))),
                                     uniform(d))
            assert abs(res.value - 1.0) <= 1e-9
        res = alternate_maximize(1, SignMatrix(HEX_S), uniform(3))
        assert res.value <= 1.0 + 1e-9
        for d in (1, 2, 3, 4):
            assert abs(exhaustive_pi(1, d).value - 1.0) <= 1e-9

    def test_objective_monotone(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            n = int(rng.integers(1, d + 1))
            upper = rng.integers(0, 2, size=(d, d))
            s = np.triu(2.0 * upper - 1.0, 1)
            s0 = SignMatrix(s + s.T + np.eye(d))
            w = rng.dirichlet(np.ones(d))
            w = (w + 1e-3) / (1 + d * 1e-3)
            res = alternate_maximize(n, s0, WeightVector(w / w.sum()))
            hist = np.asarray(res.history)
            assert np.all(np.diff(hist) >= -1e-12)

    def test_substep_inequalities(self):
        # one alternation step by hand: each update must not decrease the
        # bilinear objective
        rng = np.random.default_rng(14)
        for _ in range(10):
            d = int(rng.integers(3, 7))
            n = int(rng.integers(1, d))
            upper = rng.integers(0, 2, size=(d, d))
            s = np.triu(2.0 * upper - 1.0, 1)
            s = s + s.T + np.eye(d)
            w = rng.dirichlet(np.ones(d)) + 1e-3
            w = w / w.sum()
            sq = np.sqrt(w)
            a = s * sq[:, None] * sq[None, :]
            v0, p = kyfan_sum(a, n)
            s1 = sign_matrix_of(p).entries
            t1 = np.trace((s1 * sq[:, None] * sq[None, :]) @ p.entries)
            assert t1 >= v0 - 1e-12
            if np.all(np.abs(p.entries) > 0):
                _, vec = perron(np.abs(p.entries))
                w2 = vec * vec
                sq2 = np.sqrt(w2 / w2.sum())
                t2 = np.trace((s1 * sq2[:, None] * sq2[None, :]) @ p.entries)
                assert t2 >= t1 - 1e-12
                v1, _ = kyfan_sum(s1 * sq2[:, None] * sq2[None, :], n)
                assert v1 >= t2 - 1e-12

    def test_requires_positive_weights(self):
        with pytest.raises(PreconditionError):
            alternate_maximize(1, SignMatrix(HEX_S),
                               WeightVector([1.0, 0.0, 0.0]))

    def test_result_consistency(self):
        rng = np.random.default_rng(15)
        upper = rng.integers(0, 2, size=(5, 5))
        s = np.triu(2.0 * upper - 1.0, 1)
        res = alternate_maximize(2, SignMatrix(s + s.T + np.eye(5)),
                                 uniform(5))
        sq = np.sqrt(res.D.w)
        a = res.S.entries * sq[:, None] * sq[None, :]
        assert abs(pi_n_general(a, 2) - res.value) <= 1e-9
        assert abs(np.trace(a @ res.P.entries) - res.value) <= 1e-9


class TestCanonicalEnumeration:
    def test_class_counts(self):
        # numbers of graphs on 1..6 unlabeled vertices
        for d, count in ((1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156)):
            assert len(_canonical_reps(d)) == count

    def test_restart_weights_deterministic(self):
        a = restart_weights(4, 5)
        b = restart_weights(4, 5)
        assert len(a) == 5
        for x, y in zip(a, b):
            assert np.array_equal(x.w, y.w)
            assert x.is_strictly_positive()


class TestExhaustive:
    def test_hexagon_value(self):
        res = exhaustive_pi(2, 3)
        assert abs(res.value - 4 / 3) <= 1e-9
        assert np.array_equal(res.S.entries, HEX_S)
        assert np.allclose(res.D.w, 1 / 3, atol=1e-9)

    def test_trivial_dimension(self):
        res = exhaustive_pi(1, 1)
        assert res.value == 1.0

    def test_guard(self):
        with pytest.raises(GuardRefusal) as err:
            exhaustive_pi(2, 9)
        assert err.value.candidates == 2 ** 36

    def test_dominates_alternating(self):
        rng = np.random.default_rng(16)
        for n, d in ((2, 3), (2, 4)):
            ex = exhaustive_pi(n, d)
            for _ in range(10):
                upper = rng.integers(0, 2, size=(d, d))
                s = np.triu(2.0 * upper - 1.0, 1)
                s0 = SignMatrix(s + s.T + np.eye(d))
                w = rng.dirichlet(np.ones(d)) + 1e-3
                w = w / w.sum()
                run = alternate_maximize(n, s0, WeightVector(w))
                assert ex.value >= run.value - 1e-8

    def test_monotone_in_d(self):
        values = {d: exhaustive_pi(2, d).value for d in (3, 4, 5)}
        assert values[3] <= values[4] + 1e-8
        assert values[4] <= values[5] + 1e-8

    def test_exceeds_gruenbaum_floor_at_maximal_instance(self):
        assert exhaustive_pi(2, 3).value >= gruenbaum_floor(2)

    def test_general_matrix_bound(self):
        # random contraction-entry matrices never beat the sign-matrix
        # optimum at the same size
        rng = np.random.default_rng(17)
        cache = {}
        for _ in range(60):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(1, d + 1))
            if (n, d) not in cache:
                cache[(n, d)] = exhaustive_pi(n, d).value
            s_hat = rng.uniform(-1, 1, size=(d, d))
            dd = rng.dirichlet(np.ones(d))
            val = pi_n_general(s_hat @ np.diag(dd), n)
            if val == -np.inf:
                continue
            assert val <= cache[(n, d)] + 1e-8


class TestAlternating:
    @pytest.mark.parametrize("n, d, restarts, digest", [
        (2, 5, 4, "88943761012e8ca9806acdc2413f9fd5"
                  "103472fb6d9517205a1e252a8dba0f5c"),
        (3, 8, 6, "afcd6529809d04006282fa20db4bb11b"
                  "6b686c9847d6f5686515731df83188fb"),
    ])
    def test_reproduces_cli_output(self, n, d, restarts, digest):
        # sha256 of the stdout of
        # `projconst search --alternating --n N --d D --restarts R`
        text = json.dumps(alternating_pi(n, d, restarts).to_json(), indent=2)
        assert hashlib.sha256((text + "\n").encode()).hexdigest() == digest

    def test_rejects_zero_restarts(self):
        with pytest.raises(PreconditionError):
            alternating_pi(2, 4, 0)
