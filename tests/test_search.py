import functools
import hashlib
import itertools
import json

import numpy as np
import pytest

from projconst import (GuardRefusal, PreconditionError, SignMatrix,
                       WeightVector, alternate_maximize, alternating_pi,
                       etf_bound, exhaustive_pi, gruenbaum_floor, kyfan_sum,
                       perron, pi_n_general, sign_matrix_of)
from projconst.search import (_ascend, _canonical_reps, _decode,
                              restart_weights)
from projconst.seeds import C_ICOSA

PHI = (1 + np.sqrt(5)) / 2
HEX_S = 2 * np.eye(3) - np.ones((3, 3))

# sha256 of the stdout of
# `projconst search --exhaustive --n N --d D --restarts R`, recorded before
# the ascent was batched.
EXHAUSTIVE_DIGESTS = {
    (2, 3, 5): "55d1cbea6144f60bdcaf795d7380b4b0"
               "4abd9e7573ec8f76f2b77c3547c5a8f5",
    (1, 4, 5): "e059a23a0524917285ac39b06ac910c0"
               "af617d6c4b1cb8d1edc2d6434d142926",
    (2, 4, 5): "7a438525c42494f194ed33c02b6ff984"
               "3be8ee42703829048eee0470e50feca7",
    (3, 4, 5): "9ff49a7e04791fb066eb5e7bef5609df"
               "7eb4e10a222fcb90662a739c15783b67",
    (2, 5, 5): "6bb343f9e263792a200bf0ef2d585c3a"
               "0e44b27b618812c4ef77b97182647833",
    (3, 5, 5): "a7926c2f84970be26aea4673387c6921"
               "543092949d232036099d36d80b385c2f",
    (4, 5, 5): "9479a6662368b41f936ddea985f4f5de"
               "4a19010e0e69c60519cf544b435c0568",
    (3, 6, 5): "fd34a7d57f16e76afd3f42384d874937"
               "f8ed20e4400bbae20024a6c9fba07d94",
    (1, 7, 1): "2ee4e12bd50810c8cbed25dfc5d1d0ef"
               "9237ecd8fc3a5b623baf2f68beabe33c",
}


# sha256 of ",".join(map(str, _canonical_reps(d))), recorded when the
# classes were filtered through a float bit matrix.
CANONICAL_DIGESTS = {
    5: "92c2b3d1c584d2f0669963008afd7bb79a0681db4bd98acf595a4dfb16d63df6",
    6: "995555965de9494ff13be62e028482bc78db6d92f400fc8304bc44cfd92b4609",
    7: "cb0450eee4c3f597f4eb71166861586c9206aa5166d274300f16003ec6288482",
}


def uniform(d):
    return WeightVector(np.full(d, 1.0 / d))


@functools.lru_cache(maxsize=None)
def exhaustive_cached(n, d, restarts):
    return exhaustive_pi(n, d, restarts)


def orbit_minima(d):
    """Smallest image of every upper-triangle code under all vertex
    permutations, by Python loops over each permutation and bit."""
    slots = list(itertools.combinations(range(d), 2))
    length = len(slots)
    targets = [[slots.index(tuple(sorted((perm[i], perm[j]))))
                for i, j in slots]
               for perm in itertools.permutations(range(d))]

    def image(code, target):
        return sum(1 << (length - 1 - t) for e, t in enumerate(target)
                   if code >> (length - 1 - e) & 1)

    return [min(image(code, t) for t in targets)
            for code in range(1 << length)]


def cli_digest(result):
    text = json.dumps(result.to_json(), indent=2)
    return hashlib.sha256((text + "\n").encode()).hexdigest()


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
        # numbers of graphs on 1..7 unlabeled vertices
        for d, count in ((1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156),
                         (7, 1044)):
            assert len(_canonical_reps(d)) == count

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_representatives_are_orbit_minima(self, d):
        reps = _canonical_reps(d)
        assert list(reps) == sorted(set(reps))
        minima = orbit_minima(d)
        assert set(minima) <= set(reps)
        for code in reps:
            assert minima[code] == code

    @pytest.mark.parametrize("d", sorted(CANONICAL_DIGESTS))
    def test_representatives_pinned(self, d):
        text = ",".join(map(str, _canonical_reps(d)))
        assert hashlib.sha256(text.encode()).hexdigest() == \
            CANONICAL_DIGESTS[d]

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

    @pytest.mark.parametrize("n, d, restarts", list(EXHAUSTIVE_DIGESTS))
    def test_reproduces_cli_output(self, n, d, restarts):
        result = exhaustive_cached(n, d, restarts)
        assert cli_digest(result) == EXHAUSTIVE_DIGESTS[n, d, restarts]

    def test_counters_cover_every_start(self):
        # one ascent run per (class representative, weight restart); the
        # totals are those of the per-start search before batching
        results = [exhaustive_cached(*key) for key in EXHAUSTIVE_DIGESTS]
        assert sum(r.runs for r in results) == 2519
        assert sum(r.ascent_iterations for r in results) == 21810
        assert sum(r.nonconverged for r in results) == 0
        hexagon = exhaustive_cached(3, 6, 5)
        assert (hexagon.runs, hexagon.ascent_iterations) == (780, 13994)

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


class TestClosedForms:
    @pytest.mark.parametrize("n, d", [(n, d) for d in range(2, 7)
                                      for n in range(1, d)])
    def test_etf_bound(self, n, d):
        gap = etf_bound(n, d) - exhaustive_cached(n, d, 5).value
        assert gap >= -1e-12
        if n == 1 or n == d - 1 or (n, d) == (3, 6):
            assert gap <= 1e-12
        else:
            assert gap > 0.03

    @pytest.mark.parametrize("n, d", [(0, 3), (4, 3), (1, 0)])
    def test_etf_bound_rejects_n_outside_1_to_d(self, n, d):
        with pytest.raises(PreconditionError, match=f"n={n} .*d={d}"):
            etf_bound(n, d)

    def test_three_in_five(self):
        # Chalmers and Lewicki: Pi(3, 5) = (5 + 4 sqrt 2) / 7
        value = exhaustive_cached(3, 5, 5).value
        assert abs(value - (5 + 4 * np.sqrt(2)) / 7) <= 1e-11


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
        assert cli_digest(alternating_pi(n, d, restarts)) == digest

    def test_rejects_zero_restarts(self):
        with pytest.raises(PreconditionError):
            alternating_pi(2, 4, 0)

    @pytest.mark.parametrize("n, d", [(2, 0), (2, -1), (5, 4), (0, 3)])
    def test_rejects_n_outside_1_to_d(self, n, d):
        with pytest.raises(PreconditionError, match=f"n={n} .*d={d}"):
            alternating_pi(n, d)


class TestAscentKernel:
    @pytest.mark.parametrize("max_iter", [3, 100])
    def test_lanes_match_single_runs(self, max_iter):
        # every (class, restart) start at d = 5 stepped as one batch gives
        # each lane the bits of its start run alone; at max_iter = 3 the
        # batch mixes converged lanes with lanes that ran out of iterations
        n, d = 2, 5
        starts = [(_decode(code, d), w) for code in _canonical_reps(d)
                  for w in restart_weights(d, 5)]
        lanes = _ascend(n, np.stack([s.entries for s, _ in starts]),
                        np.stack([w.w for _, w in starts]), max_iter)
        if max_iter == 3:
            assert 0 < np.count_nonzero(lanes.converged) < len(starts)
        for i, (s0, d0) in enumerate(starts):
            alone = alternate_maximize(n, s0, d0, max_iter=max_iter)
            k = alone.iterations
            assert lanes.iterations[i] == k
            assert lanes.converged[i] == alone.converged
            assert lanes.value[i] == alone.value
            assert np.array_equal(lanes.history[i, :k], alone.history)
            assert np.all(np.isnan(lanes.history[i, k:]))
            assert np.array_equal(lanes.s[i], alone.S.entries)
            assert np.array_equal(lanes.w[i], alone.D.w)
            assert np.array_equal(lanes.p[i], alone.P.entries)
        assert lanes.result(0).runs == len(starts)
