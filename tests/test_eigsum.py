from itertools import combinations

import numpy as np
import pytest

from projconst import (PreconditionError, cucc_selection, equality_case,
                       kyfan_sum, pi_n_general, spectral_gap_bound,
                       validate_projection)
from projconst.eigsum import _REAL_AXIS_TOL
from projconst.seeds import C_ICOSA, icosa6

J3 = np.ones((3, 3))
PHI = (1 + np.sqrt(5)) / 2


def random_projection(rng, d, n):
    q, _ = np.linalg.qr(rng.standard_normal((d, n)))
    return validate_projection(q @ q.T, n)


def pi_n_bruteforce(m, n):
    """Independent oracle: enumerate all size-n eigenvalue subsets and keep
    those closed under conjugation."""
    evals = np.linalg.eigvals(np.asarray(m, dtype=float))
    best = -np.inf
    for comb in combinations(range(evals.size), n):
        chosen = sorted(evals[list(comb)], key=lambda z: (z.real, z.imag))
        conj = sorted(np.conj(evals[list(comb)]),
                      key=lambda z: (z.real, z.imag))
        if all(abs(a - b) <= 1e-8 for a, b in zip(chosen, conj)):
            best = max(best, float(sum(z.real for z in chosen)))
    return best


class TestKyFan:
    def test_hexagon_sign_matrix(self):
        value, p = kyfan_sum(2 * np.eye(3) - J3, 2)
        assert abs(value - 4.0) <= 1e-12
        assert np.abs(p.entries - (np.eye(3) - J3 / 3)).max() <= 1e-12

    def test_identity(self):
        for d, n in ((3, 1), (5, 5), (6, 2)):
            value, _ = kyfan_sum(np.eye(d), n)
            assert abs(value - n) <= 1e-12

    def test_icosahedral(self):
        value, p = kyfan_sum(np.eye(6) + C_ICOSA, 3)
        assert abs(value - 3 * (1 + np.sqrt(5))) <= 1e-10
        assert np.abs(p.entries - icosa6().entries).max() <= 1e-10

    def test_trace_consistency(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((7, 7))
        a = a + a.T
        value, p = kyfan_sum(a, 3)
        assert abs(np.trace(a @ p.entries) - value) <= 1e-9

    def test_rank_out_of_range(self):
        with pytest.raises(PreconditionError):
            kyfan_sum(np.eye(3), 0)
        with pytest.raises(PreconditionError):
            kyfan_sum(np.eye(3), 4)


class TestPiNGeneral:
    def test_rotation_needs_both(self):
        rot = [[0.0, -1.0], [1.0, 0.0]]
        assert pi_n_general(rot, 1) == -np.inf
        assert abs(pi_n_general(rot, 2)) <= 1e-12

    def test_symmetric_equals_kyfan_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            d = int(rng.integers(2, 9))
            n = int(rng.integers(1, d + 1))
            a = rng.standard_normal((d, d))
            a = 0.5 * (a + a.T)
            assert pi_n_general(a, n) == kyfan_sum(a, n)[0]

    def check_against_bruteforce(self, m, n):
        sel = cucc_selection(m, n)
        want = pi_n_bruteforce(m, n)
        if want == -np.inf:
            assert sel is None
            return
        assert abs(sel.value - want) <= 1e-12
        # a chosen pair start comes with its LAPACK partner at i + 1
        evals = np.linalg.eigvals(np.asarray(m, dtype=float))
        for i in sel.indices:
            if evals[i].imag > _REAL_AXIS_TOL:
                assert i + 1 in sel.indices

    def test_against_bruteforce(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            d = int(rng.integers(2, 7))
            n = int(rng.integers(1, d + 1))
            self.check_against_bruteforce(rng.standard_normal((d, d)), n)

    def test_repeated_rotation_blocks(self):
        # equal conjugate pairs 0.8 +- 0.6i (three times) and 0.5 +- 0.5i
        rot = np.array([[0.8, -0.6], [0.6, 0.8]])
        m = np.zeros((9, 9))
        for k in range(3):
            m[2 * k:2 * k + 2, 2 * k:2 * k + 2] = rot
        m[6:8, 6:8] = [[0.5, -0.5], [0.5, 0.5]]
        m[8, 8] = 0.9
        for n in range(1, 10):
            self.check_against_bruteforce(m, n)

    def test_near_real_pair_counts_as_two_reals(self):
        m = [[1.0, 1e-10], [-1e-10, 1.0]]
        assert pi_n_general(m, 1) == 1.0
        for n in (1, 2):
            self.check_against_bruteforce(m, n)

    @pytest.mark.parametrize("n", [1, 3])
    def test_odd_n_without_real_eigenvalue(self, n):
        m = np.zeros((4, 4))
        m[:2, :2] = [[0.0, -1.0], [1.0, 0.0]]
        m[2:, 2:] = [[2.0, -3.0], [3.0, 2.0]]
        assert cucc_selection(m, n) is None
        assert pi_n_general(m, n) == -np.inf
        self.check_against_bruteforce(m, n)

    def test_integer_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            d = int(rng.integers(2, 8))
            n = int(rng.integers(1, d + 1))
            m = rng.integers(-2, 3, (d, d)).astype(float)
            self.check_against_bruteforce(m, n)

    @pytest.mark.parametrize("m", [[[np.nan, 0.0], [0.0, 1.0]],
                                   [[np.inf, 0.0], [0.0, 1.0]],
                                   np.ones((2, 3))])
    def test_rejects_non_finite_or_non_square(self, m):
        with pytest.raises(PreconditionError):
            pi_n_general(m, 1)

    def test_selection_closed_under_conjugation(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            d = int(rng.integers(2, 8))
            n = int(rng.integers(1, d + 1))
            sel = cucc_selection(rng.standard_normal((d, d)), n)
            if sel is None:
                continue
            assert len(sel.indices) == n
            chosen = sorted(sel.eigenvalues, key=lambda z: (z.real, z.imag))
            conj = sorted((z.conjugate() for z in sel.eigenvalues),
                          key=lambda z: (z.real, z.imag))
            assert all(abs(a - b) <= 1e-7 for a, b in zip(chosen, conj))


class TestKyFanInequality:
    def test_random_pairs(self):
        rng = np.random.default_rng(5)
        violations = 0
        for _ in range(200):
            d = int(rng.integers(2, 11))
            n = int(rng.integers(1, d + 1))
            a = rng.standard_normal((d, d))
            a = a + a.T
            p = random_projection(rng, d, n)
            if np.trace(a @ p.entries) > pi_n_general(a, n) + 1e-9:
                violations += 1
        assert violations == 0

    def test_equality_forces_commuting(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            d = int(rng.integers(2, 11))
            n = int(rng.integers(1, d + 1))
            a = rng.standard_normal((d, d))
            a = a + a.T
            _, p = kyfan_sum(a, n)  # a maximizer by construction
            assert abs(np.trace(a @ p.entries) - pi_n_general(a, n)) <= 1e-10
            assert np.abs(a @ p.entries - p.entries @ a).max() <= 1e-7


class TestEqualityCase:
    def test_hexagon(self):
        p = validate_projection(np.eye(3) - J3 / 3, 2)
        res = equality_case(2 * np.eye(3) - J3, p)
        assert res.commutes and res.is_maximizer

    def test_coordinate_projections(self):
        a = np.diag([2.0, 1.0])
        top = validate_projection(np.diag([1.0, 0.0]), 1)
        bottom = validate_projection(np.diag([0.0, 1.0]), 1)
        res = equality_case(a, top)
        assert res.commutes and res.is_maximizer
        res = equality_case(a, bottom)
        assert res.commutes and not res.is_maximizer


class TestSpectralGapBound:
    def test_hexagon(self):
        res = spectral_gap_bound(validate_projection(np.eye(3) - J3 / 3, 2))
        # |P| = (I + J)/3 has eigenvalues 4/3, 1/3, 1/3
        assert res.applicable
        expected_bound = np.sqrt(2) / (4 / 3) - (4 / 3) / (2 * np.sqrt(2))
        assert abs(res.bound - expected_bound) <= 1e-12
        assert abs(res.c - 0.25) <= 1e-12
        assert 0 < res.c < res.bound < 1

    def test_icosahedral(self):
        res = spectral_gap_bound(icosa6())
        lam2 = 0.5 - 0.5 / np.sqrt(5)
        assert res.applicable
        assert abs(res.c - lam2 / PHI) <= 1e-12
        expected_bound = np.sqrt(3) / PHI - PHI / (2 * np.sqrt(3))
        assert abs(res.bound - expected_bound) <= 1e-12
        assert 0 < res.c < res.bound < 1

    def test_not_applicable_branch(self):
        # rank-2 projector with positive |P| but only slightly negative
        # entries, keeping the top |P| eigenvalue below the
        # (sqrt(3)-1) sqrt(2) ~ 1.0353 threshold
        d, t = 16, 0.04
        w = np.array([1.0] * 8 + [-(1 + t)] * 4 + [-(1 - t)] * 4)
        j = np.ones(d) / np.sqrt(d)
        w = w - (w @ j) * j
        w = w / np.linalg.norm(w)
        p = validate_projection(np.outer(j, j) + np.outer(w, w), 2)
        assert p.abs_is_positive()
        res = spectral_gap_bound(p)
        assert not res.applicable

    def test_rank_one_rejected(self):
        p = validate_projection(J3 / 3, 1)
        with pytest.raises(PreconditionError):
            spectral_gap_bound(p)

    def test_nonpositive_rejected(self):
        p = validate_projection(np.diag([1.0, 0.0, 1.0]), 2)
        with pytest.raises(PreconditionError):
            spectral_gap_bound(p)


# Refusals at the public entry points of eigsum: (call, message).
EIGSUM_REFUSALS = [
    pytest.param(lambda: equality_case([[np.nan, 0.0], [0.0, 1.0]],
                                       validate_projection(np.diag([1.0, 0.0]),
                                                           1)),
                 "equality_case input contains non-finite entries",
                 id="equality-case-nan"),
    pytest.param(lambda: equality_case(np.ones((2, 3)),
                                       validate_projection(np.eye(2), 2)),
                 r"equality_case input must be square, got shape \(2, 3\)",
                 id="equality-case-not-square"),
    pytest.param(lambda: cucc_selection(np.eye(3), 4),
                 r"n=4 out of range 1\.\.3", id="cucc-n-beyond-d"),
]


@pytest.mark.parametrize("call, message", EIGSUM_REFUSALS)
def test_eigsum_refusals(call, message):
    with pytest.raises(PreconditionError, match=message):
        call()
