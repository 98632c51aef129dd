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
# `projconst search --exhaustive --n N --d D --restarts R`, recorded when the
# starts became sign matrices with row 0 all +1 over the graph classes on
# d - 1 vertices.
EXHAUSTIVE_DIGESTS = {
    (2, 3, 5): "fc3ff42d1b352d0bcdcb223ab3b5fe71"
               "4dbc1eff518f1daeb8286e71f66917fc",
    (1, 4, 5): "460d5bbccf41a8e6e6d50385b81a7551"
               "bb223e937d30f454763df67a60626b13",
    (2, 4, 5): "c00627200c3bb145e902bec6d678b463"
               "3abb3e133c4169e6dd34507985f33e20",
    (3, 4, 5): "7513ad99be524f5cd69e9eca57f15c75"
               "14f5dca744066ef4b26a923975da45b8",
    (2, 5, 5): "07ca30523c07694794b87078af793b22"
               "f924f754cc0d86f7f95574a6ba2aca75",
    (3, 5, 5): "18b498ca97b02084f743e22c790998c6"
               "9a1f0580312eb949bcbc21a0c0d6182d",
    (4, 5, 5): "5abb9479ee0b2c3edb5439a307069ae0"
               "c3e1f3dd6176a438a63e5f43809e19cc",
    (3, 6, 5): "eddb8105e4e59766b3f8f17033ea74d1"
               "2bfc3164239897625b307f246db30dbe",
    (1, 7, 1): "3ca6039b8328657e82975363ee614225"
               "d9ab89be3beb1118c0016bbaff63230e",
}


# sha256 of ",".join(map(str, _canonical_reps(d))), recorded when the
# classes were filtered through a float bit matrix.
CANONICAL_DIGESTS = {
    5: "92c2b3d1c584d2f0669963008afd7bb79a0681db4bd98acf595a4dfb16d63df6",
    6: "995555965de9494ff13be62e028482bc78db6d92f400fc8304bc44cfd92b4609",
    7: "cb0450eee4c3f597f4eb71166861586c9206aa5166d274300f16003ec6288482",
}


# exhaustive_pi(n, d, restarts).value of the search that started from every
# graph class on d vertices (commit d927666), keyed (n, d, restarts).
UNREDUCED_VALUES = {
    (1, 1, 5): 1.0,
    (1, 2, 5): 1.0000000000000002,
    (2, 2, 5): 1.0000000000000002,
    (1, 3, 5): 1.0000000000000004,
    (2, 3, 5): 1.3333333333333333,
    (3, 3, 5): 1.0000000000000004,
    (1, 4, 5): 1.0000000000000004,
    (2, 4, 5): 1.3333333333333308,
    (3, 4, 5): 1.5000000000000009,
    (4, 4, 5): 1.0000000000000002,
    (1, 5, 5): 1.0000000000000007,
    (2, 5, 5): 1.3333333333333321,
    (3, 5, 5): 1.5224077499252011,
    (4, 5, 5): 1.6000000000000008,
    (5, 5, 5): 1.0,
    (1, 6, 5): 1.000000000000001,
    (2, 6, 5): 1.3333333333333337,
    (3, 6, 5): 1.618033988749895,
    (4, 6, 5): 1.6666666666666672,
    (5, 6, 5): 1.6666666666666676,
    (6, 6, 5): 1.0000000000000002,
    (1, 7, 5): 1.000000000000001,
    (2, 7, 5): 1.3333333333333337,
    (3, 7, 5): 1.6180339887498785,
    (4, 7, 5): 1.7397684553298496,
    (5, 7, 5): 1.7536285900761852,
    (6, 7, 5): 1.7142857142857142,
    (7, 7, 5): 1.0000000000000002,
    (1, 7, 1): 1.0000000000000009,
}

# Pi(n, 8) for n = 1..8; 7/4 = 2 - 2/8 at n = 7 attains etf_bound(7, 8).
PI_8 = {1: 1.0, 2: 4 / 3, 3: PHI, 4: 1.792301511352, 5: 1.837703961051,
        6: 1.825707106918, 7: 1.75, 8: 1.0}


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


def encode(s):
    """Upper-triangle code of the sign matrix s, bit 1 meaning +1, the
    (0,1) slot most significant."""
    d = len(s)
    code = 0
    for i, j in itertools.combinations(range(d), 2):
        code = 2 * code + int(s[i, j] > 0)
    return code


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

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7])
    def test_decode_matches_encoding(self, d):
        # every code at d <= 5 and the class representatives at d = 6, 7,
        # against a slot-by-slot decode: the (0,1) slot is the most
        # significant bit and bit 1 means +1
        slots = list(itertools.combinations(range(d), 2))
        length = len(slots)
        codes = range(1 << length) if d <= 5 else _canonical_reps(d)
        stack = _decode(codes, d)
        assert stack.shape == (len(codes), d, d)
        for code, s in zip(codes, stack):
            expected = np.ones((d, d))
            for e, (i, j) in enumerate(slots):
                if not code >> (length - 1 - e) & 1:
                    expected[i, j] = expected[j, i] = -1.0
            assert np.array_equal(s, expected)
            assert np.array_equal(SignMatrix(s).entries, expected)

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
        # a switching of HEX_S: switching keeps the triangle product
        # s01 s02 s12, and on 3 vertices that product fixes the class
        s = res.S.entries
        assert s[0, 1] * s[0, 2] * s[1, 2] == -1
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
        # one ascent run per (lower-block class of d - 1 vertices, weight
        # restart)
        results = [exhaustive_cached(*key) for key in EXHAUSTIVE_DIGESTS]
        assert sum(r.runs for r in results) == 561
        assert sum(r.ascent_iterations for r in results) == 5241
        assert sum(r.nonconverged for r in results) == 0
        hexagon = exhaustive_cached(3, 6, 5)
        assert (hexagon.runs, hexagon.ascent_iterations) == (170, 3082)

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


class TestSwitchingReduction:
    @pytest.mark.parametrize("n, d, restarts", list(UNREDUCED_VALUES))
    def test_agrees_with_unreduced_search(self, n, d, restarts):
        # the ascent stops at _VALUE_TOL = 1e-11, so the two searches may
        # end a few ulps apart; (3, 5) differs by 1.1e-14
        value = exhaustive_cached(n, d, restarts).value
        assert abs(value - UNREDUCED_VALUES[n, d, restarts]) <= 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_every_sign_matrix_reaches_a_start(self, d):
        # switching by E = diag(S[0]) makes row and column 0 all +1, and a
        # permutation fixing vertex 0 takes the lower block to its orbit
        # minimum, which must be a lower block the search starts from
        starts = set(_canonical_reps(d - 1))
        minima = orbit_minima(d - 1)
        for s in _decode(range(1 << d * (d - 1) // 2), d):
            switched = s * s[0][:, None] * s[0][None, :]
            assert np.all(switched[0] == 1) and np.all(switched[:, 0] == 1)
            assert minima[encode(switched[1:, 1:])] in starts

    def test_switching_leaves_objective_invariant(self):
        # sqrt(D) ESE sqrt(D) = E (sqrt(D) S sqrt(D)) E is similar to the
        # unswitched matrix, so the value is the same and P becomes EPE
        rng = np.random.default_rng(18)
        for _ in range(30):
            d = int(rng.integers(2, 9))
            n = int(rng.integers(1, d + 1))
            upper = np.triu(2.0 * rng.integers(0, 2, size=(d, d)) - 1.0, 1)
            s = upper + upper.T + np.eye(d)
            e = 2.0 * rng.integers(0, 2, size=d) - 1.0
            sq = np.sqrt(rng.dirichlet(np.ones(d)))
            value, p = kyfan_sum(s * sq[:, None] * sq[None, :], n)
            switched = e[:, None] * s * e[None, :]
            value_e, p_e = kyfan_sum(switched * sq[:, None] * sq[None, :], n)
            assert abs(value_e - value) <= 1e-12
            assert np.abs(p_e.entries
                          - e[:, None] * p.entries * e[None, :]).max() \
                <= 1e-12

    @pytest.mark.parametrize("n", sorted(PI_8))
    def test_pi_n_8(self, n):
        assert abs(exhaustive_pi(n, 8).value - PI_8[n]) <= 1e-9


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
        starts = [(SignMatrix(s), w) for s in _decode(_canonical_reps(d), d)
                  for w in restart_weights(d, 5)]
        lanes = _ascend(n, np.stack([s.entries for s, _ in starts]),
                        np.stack([w.w for _, w in starts]), max_iter)
        if max_iter == 3:
            assert 0 < np.count_nonzero(lanes.converged) < len(starts)
        for i, (s0, d0) in enumerate(starts):
            # converged or not, a lane's value and P belong to the (S, D)
            # it reports
            sq = np.sqrt(lanes.w[i])
            a = lanes.s[i] * sq[:, None] * sq[None, :]
            assert abs(np.linalg.eigvalsh(a)[-n:].sum()
                       - lanes.value[i]) <= 1e-12
            assert np.abs(a @ lanes.p[i] - lanes.p[i] @ a).max() <= 1e-12
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
