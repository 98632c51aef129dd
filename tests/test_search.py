import functools
import hashlib
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from projconst import (PreconditionError, ResourceExhausted, SignMatrix,
                       WeightVector, alternate_maximize, alternating_pi,
                       certify, etf_bound, exhaustive_pi, gruenbaum_floor,
                       kyfan_sum, perron, pi_n_general, sign_matrix_of)
from projconst.matcore import _perron_weights
from projconst.search import (_ascend, _canonical_reps, _check_lanes,
                              _decode, _image_tables, _two_graph_reps,
                              restart_weights)
from projconst.seeds import C_ICOSA

PHI = (1 + np.sqrt(5)) / 2
HEX_S = 2 * np.eye(3) - np.ones((3, 3))

# sha256 of the stdout of
# `projconst search --exhaustive --n N --d D --restarts R`, recorded when the
# starts became sign matrices with row 0 all +1 over the graph classes on
# d - 1 vertices; (2, 4, 5) and (3, 5, 5) re-pinned when the starts became
# one per two-graph, whose kept lanes have the same bits.
EXHAUSTIVE_DIGESTS = {
    (2, 3, 5): "fc3ff42d1b352d0bcdcb223ab3b5fe71"
               "4dbc1eff518f1daeb8286e71f66917fc",
    (1, 4, 5): "460d5bbccf41a8e6e6d50385b81a7551"
               "bb223e937d30f454763df67a60626b13",
    (2, 4, 5): "2851607a6a20a5cde3e12f630e47dc9d"
               "79403b81b8aae1b5def965c3b812df33",
    (3, 4, 5): "7513ad99be524f5cd69e9eca57f15c75"
               "14f5dca744066ef4b26a923975da45b8",
    (2, 5, 5): "07ca30523c07694794b87078af793b22"
               "f924f754cc0d86f7f95574a6ba2aca75",
    (3, 5, 5): "6c893088588fc0caa3cb0dc98c7a0c80"
               "ccf356dc6fe146ae4c4c29499f970409",
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

# sha256 of ",".join(map(str, _two_graph_reps(d))), recorded when the
# exhaustive starts became one per two-graph.
TWO_GRAPH_DIGESTS = {
    6: "5083b50c83cda4a78a457c03f0f77ccc5da079da8c3d31562858dcc1841af178",
    7: "0a38bd5556e3002ae1e4ef940819fecdc1b51e66cdb2d63f2ea1af87f1994fd8",
    8: "f0cfb6efba9862af55c98efe4d104fcaa55187350662902b1e8826d19da8d6fd",
}

# exhaustive_pi(n, d, 5).value of the search that started once per graph
# class on d - 1 vertices (commit 6c48233), keyed (n, d).
GRAPH_START_VALUES = {
    (1, 7): 1.0000000000000009,
    (2, 7): 1.3333333333333335,
    (3, 7): 1.6180339887498776,
    (4, 7): 1.7397684553298487,
    (5, 7): 1.7536285900761852,
    (6, 7): 1.7142857142857142,
    (7, 7): 1.0000000000000002,
    (1, 8): 1.0000000000000013,
    (2, 8): 1.333333333333334,
    (3, 8): 1.6180339887498791,
    (4, 8): 1.7923015113517349,
    (5, 8): 1.8377039610514547,
    (6, 8): 1.8257071069180693,
    (7, 8): 1.7500000000000004,
    (8, 8): 1.0000000000000004,
}

# Pi(n, 8) for n = 1..8; 7/4 = 2 - 2/8 at n = 7 attains etf_bound(7, 8).
PI_8 = {1: 1.0, 2: 4 / 3, 3: PHI, 4: 1.792301511352, 5: 1.837703961051,
        6: 1.825707106918, 7: 1.75, 8: 1.0}


def uniform(d):
    return WeightVector(np.full(d, 1.0 / d))


@functools.lru_cache(maxsize=None)
def exhaustive_cached(n, d, restarts):
    return exhaustive_pi(n, d, restarts)


def orbit_minima(d, switching=False):
    """Smallest image of every upper-triangle code under all vertex
    permutations, by Python loops over each permutation and bit; with
    ``switching``, under all 2^d switchings S -> ESE followed by all
    permutations.  A switching flips the slots (i, j) with e_i != e_j."""
    slots = list(itertools.combinations(range(d), 2))
    length = len(slots)
    targets = [[slots.index(tuple(sorted((perm[i], perm[j]))))
                for i, j in slots]
               for perm in itertools.permutations(range(d))]

    def image(code, target):
        return sum(1 << (length - 1 - t) for e, t in enumerate(target)
                   if code >> (length - 1 - e) & 1)

    minima = [min(image(code, t) for t in targets)
              for code in range(1 << length)]
    if not switching:
        return minima
    flips = [sum(1 << (length - 1 - e) for e, (i, j) in enumerate(slots)
                 if signs[i] != signs[j])
             for signs in itertools.product((1, -1), repeat=d)]
    return [min(minima[code ^ flip] for flip in flips)
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

    @pytest.mark.parametrize("block", [1 << 12, 1 << 20])
    def test_image_block_does_not_change_the_classes(self, monkeypatch,
                                                     block):
        # 2^12 entries filter one permutation at a time while more than
        # 2^11 codes survive; 2^20 takes 32 permutations in the first step.
        # The two-graph starts at d = 8 read the cached classes on 7
        # vertices, so those are recomputed here under the patched block.
        monkeypatch.setattr("projconst.search._IMAGE_BLOCK", block)
        assert _canonical_reps.__wrapped__(6) == _canonical_reps(6)
        text = ",".join(map(str, _canonical_reps.__wrapped__(7)))
        assert hashlib.sha256(text.encode()).hexdigest() == \
            CANONICAL_DIGESTS[7]

    def test_image_tables_are_read_only(self):
        # one cached table build serves both filters, so no caller may
        # write to it
        tables = _image_tables(4)
        assert _image_tables(4) is tables
        assert not tables.flags.writeable
        with pytest.raises(ValueError):
            tables[0, 0, 0] = 0

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
        assert a.shape == (5, 4)
        assert np.array_equal(a, b)
        assert np.all(a > 0)
        assert np.all(np.abs(a.sum(axis=1) - 1.0) <= 1e-12)


class TestTwoGraphStarts:
    def test_class_counts(self):
        # numbers of two-graphs on 1..8 unlabeled vertices
        for d, count in enumerate((1, 1, 2, 3, 7, 16, 54, 243), start=1):
            assert len(_two_graph_reps(d)) == count

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_every_sign_matrix_reaches_exactly_one_start(self, d):
        # a start is row 0 all +1 over a lower block L, so its code is
        # d - 1 one bits above L; every switching class must hold
        # exactly one start, that is, the starts' classes are distinct
        # and cover every class
        length = d * (d - 1) // 2
        high = ((1 << d - 1) - 1) << (length - d + 1)
        starts = [high | code for code in _two_graph_reps(d)]
        minima = orbit_minima(d, switching=True)
        assert sorted({minima[code] for code in starts}) == \
            sorted(set(minima))
        assert len(starts) == len(set(minima))
        assert set(_two_graph_reps(d)) <= set(_canonical_reps(d - 1))

    @pytest.mark.parametrize("d", sorted(TWO_GRAPH_DIGESTS))
    def test_starts_pinned(self, d):
        text = ",".join(map(str, _two_graph_reps(d)))
        assert hashlib.sha256(text.encode()).hexdigest() == \
            TWO_GRAPH_DIGESTS[d]

    @pytest.mark.parametrize("block", [1 << 12, 1 << 20])
    def test_image_block_does_not_change_the_starts(self, monkeypatch,
                                                    block):
        monkeypatch.setattr("projconst.search._IMAGE_BLOCK", block)
        text = ",".join(map(str, _two_graph_reps.__wrapped__(8)))
        assert hashlib.sha256(text.encode()).hexdigest() == \
            TWO_GRAPH_DIGESTS[8]

    @pytest.mark.parametrize("n, d", list(GRAPH_START_VALUES))
    def test_agrees_with_graph_class_starts(self, n, d):
        value = exhaustive_cached(n, d, 5).value
        assert abs(value - GRAPH_START_VALUES[n, d]) <= 1e-12


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
        with pytest.raises(ResourceExhausted, match="2\\^28"):
            exhaustive_pi(2, 9)

    def test_d9_refused_before_any_allocation(self, monkeypatch):
        # the codes are the first array the enumeration builds
        def arange(*args, **kwargs):
            raise AssertionError("allocated past the entry budget")

        monkeypatch.setattr(np, "arange", arange)
        with pytest.raises(ResourceExhausted, match="2\\^24-entry budget"):
            exhaustive_pi(2, 9)

    def test_refusal_builds_nothing_at_any_d(self):
        # the budget is decided on the exponent, so the count 2^199970001
        # of d = 20,000, a 25 MiB integer, is never built
        tracemalloc.start()
        try:
            with pytest.raises(ResourceExhausted,
                               match="the 2\\^199970001 codes"):
                exhaustive_pi(2, 20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        with pytest.raises(ResourceExhausted, match="2\\^24-entry budget"):
            exhaustive_pi(2, 10**11)

    @pytest.mark.parametrize("search", [exhaustive_pi, alternating_pi])
    def test_refuses_lanes_beyond_the_budget(self, monkeypatch, search):
        # 10^20 lanes cannot be allocated; the refusal comes before any
        # start is decoded or any weight drawn
        def unreachable(*args):
            raise AssertionError("reached past the lane budget")

        for name in ("_decode", "restart_weights", "_floored_dirichlet"):
            monkeypatch.setattr(f"projconst.search.{name}", unreachable)
        with pytest.raises(ResourceExhausted, match="2\\^24-entry budget"):
            search(2, 2, 10 ** 20)

    def test_lane_budget_is_two_to_the_24_entries(self):
        # lanes x max(d^2, max_iter): the sign stack or the value history;
        # 690 restarts of the 243 two-graphs at d = 8 fit, 691 do not
        for lanes, d, max_iter in ((1 << 20, 4, 16), (1 << 16, 4, 256),
                                   (243 * 690, 8, 100)):
            _check_lanes(lanes, d, max_iter)
        for lanes, d, max_iter in (((1 << 20) + 1, 4, 16),
                                   ((1 << 16) + 1, 4, 256),
                                   (243 * 691, 8, 100)):
            with pytest.raises(ResourceExhausted):
                _check_lanes(lanes, d, max_iter)

    @pytest.mark.parametrize("n, d, restarts", list(EXHAUSTIVE_DIGESTS))
    def test_reproduces_cli_output(self, n, d, restarts):
        result = exhaustive_cached(n, d, restarts)
        assert cli_digest(result) == EXHAUSTIVE_DIGESTS[n, d, restarts]

    def test_counters_cover_every_start(self):
        # one ascent run per (two-graph on d vertices, weight restart)
        results = [exhaustive_cached(*key) for key in EXHAUSTIVE_DIGESTS]
        assert sum(r.runs for r in results) == 294
        assert sum(r.ascent_iterations for r in results) == 2795
        assert sum(r.nonconverged for r in results) == 0
        hexagon = exhaustive_cached(3, 6, 5)
        assert (hexagon.runs, hexagon.ascent_iterations) == (80, 1456)

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
        result = exhaustive_pi(n, 8)
        assert abs(result.value - PI_8[n]) <= 1e-9
        # the l1 norm of P is its largest absolute row sum, bit for bit
        cert = certify(result.P)
        assert cert.op_norm_l1 == cert.R


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
        with pytest.raises(PreconditionError,
                           match=rf"n={n} out of range 1\.\.{d}$"):
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
        (5, 12, 20, "1579379b967e031c46c64733e29e4846"
                    "8fa5d248eaf0ea55ed368fd936402e2b"),
    ])
    def test_reproduces_cli_output(self, n, d, restarts, digest):
        # sha256 of the stdout of
        # `projconst search --alternating --n N --d D --restarts R`; at
        # d = 12 the Ky Fan matmul takes another BLAS path when its
        # operands change layout, which moves these bits
        assert cli_digest(alternating_pi(n, d, restarts)) == digest

    def test_rejects_zero_restarts(self):
        with pytest.raises(PreconditionError):
            alternating_pi(2, 4, 0)

    @pytest.mark.parametrize("n, d", [(2, 0), (2, -1), (5, 4), (0, 3)])
    def test_rejects_n_outside_1_to_d(self, n, d):
        with pytest.raises(PreconditionError,
                           match=rf"n={n} out of range 1\.\.{d}$"):
            alternating_pi(n, d)

    def test_lane_budget_counts_the_value_history(self, monkeypatch):
        # 83,887 lanes of 3 x 3 signs fit the budget; their 200-step value
        # histories do not, and the refusal comes before any draw
        def unreachable(*args):
            raise AssertionError("drew past the lane budget")

        monkeypatch.setattr("projconst.search._floored_dirichlet", unreachable)
        with pytest.raises(ResourceExhausted, match="200-step histories"):
            alternating_pi(1, 3, 2**24 // 200 + 1)


class TestAscentKernel:
    @pytest.mark.parametrize("max_iter", [3, 100])
    def test_lanes_match_single_runs(self, max_iter):
        # every (class, restart) start at d = 5 stepped as one batch gives
        # each lane the bits of its start run alone; at max_iter = 3 the
        # batch mixes converged lanes with lanes that ran out of iterations
        n, d = 2, 5
        starts = [(SignMatrix(s), WeightVector(w))
                  for s in _decode(_canonical_reps(d), d)
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
            alone = _ascend(n, s0.entries[None], d0.w[None],
                            max_iter).result(0)
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

    def test_perron_step_skips_stalled_lanes(self, monkeypatch):
        # a lane whose value stalled stops with the weights it stepped
        # from, so its Perron step is never taken: 64 of the 1,456
        # lane-iterations of exhaustive_pi(3, 6, 5) stall or have a zero
        # in |P|
        rows = []

        def counted(a):
            rows.append(len(a))
            return _perron_weights(a)

        monkeypatch.setattr("projconst.search._perron_weights", counted)
        result = exhaustive_pi(3, 6, 5)
        assert result.ascent_iterations == 1456
        assert sum(rows) == 1392
        assert cli_digest(result) == EXHAUSTIVE_DIGESTS[3, 6, 5]


@pytest.mark.parametrize("search, n, d", [
    (exhaustive_pi, 2, 3), (exhaustive_pi, 2, 5), (exhaustive_pi, 3, 6),
    (alternating_pi, 2, 6), (alternating_pi, 3, 7)])
def test_result_is_kyfan_sum_of_its_weighted_sign_matrix(search, n, d):
    # the ascent takes the Ky Fan step of kyfan_sum, bit for bit
    res = search(n, d)
    sq = np.sqrt(res.D.w)
    value, p = kyfan_sum(res.S.entries * sq[:, None] * sq[None, :], n)
    assert value == res.value
    assert np.array_equal(p.entries, res.P.entries)


# Refusals of alternate_maximize: (n, sign matrix, weights, message).
ALTERNATE_REFUSALS = [
    (4, HEX_S, np.full(3, 1 / 3), r"n=4 out of range 1\.\.3"),
    (1, HEX_S, np.full(2, 1 / 2),
     "weight dimension does not match sign matrix"),
    # WeightVector admits a zero weight; only alternate_maximize refuses it
    (1, HEX_S, np.array([0.5, 0.5, 0.0]),
     "initial weights must be strictly positive"),
]


@pytest.mark.parametrize("n, s, w, message", ALTERNATE_REFUSALS)
def test_alternate_maximize_refusals(n, s, w, message):
    with pytest.raises(PreconditionError, match=message):
        alternate_maximize(n, SignMatrix(s), WeightVector(w))
