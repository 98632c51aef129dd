import numpy as np
import pytest

from projconst import (BlockProjection, BlowupSpec, OrthoProjection,
                       PreconditionError, ResourceExhausted, SignMatrix,
                       blow_up, pi_n_general, weighted_equivalent)
from projconst.seeds import C_ICOSA

HEX_S = 2 * np.eye(3) - np.ones((3, 3))


def random_sign_matrix(rng, m):
    upper = rng.integers(0, 2, size=(m, m))
    s = np.triu(2.0 * upper - 1.0, 1)
    return SignMatrix(s + s.T + np.eye(m))


class TestBlowUp:
    def test_single_vertex_three_copies(self):
        spec = BlowupSpec(SignMatrix(np.array([[1.0]])), (3,))
        assert np.array_equal(blow_up(spec).entries, np.ones((3, 3)))

    def test_identity_multiplicities(self):
        spec = BlowupSpec(SignMatrix(HEX_S), (1, 1, 1))
        assert np.array_equal(blow_up(spec).entries, HEX_S)

    def test_hexagon_doubling_spectrum(self):
        spec = BlowupSpec(SignMatrix(HEX_S), (2, 2, 2))
        big = blow_up(spec)
        nonzero = sorted(x for x in np.linalg.eigvalsh(big.entries)
                         if abs(x) > 1e-8)
        assert np.allclose(nonzero, [-2.0, 4.0, 4.0], atol=1e-8)

    def test_rejects_bad_multiplicities(self):
        with pytest.raises(PreconditionError):
            BlowupSpec(SignMatrix(HEX_S), (1, 1))
        with pytest.raises(PreconditionError):
            BlowupSpec(SignMatrix(HEX_S), (1, 0, 2))

    def test_output_is_valid_sign_matrix(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            m = int(rng.integers(1, 5))
            spec = BlowupSpec(random_sign_matrix(rng, m),
                              tuple(int(x) for x in rng.integers(1, 4, m)))
            big = blow_up(spec)  # SignMatrix constructor validates
            assert big.d == spec.d


class TestWeightedEquivalent:
    def test_single_vertex(self):
        spec = BlowupSpec(SignMatrix(np.array([[1.0]])), (3,))
        weighted = weighted_equivalent(spec)
        assert np.allclose(weighted.entries, [[1.0]])
        assert abs(3 * pi_n_general(weighted.entries, 1)
                   - pi_n_general(blow_up(spec).entries, 1)) <= 1e-9

    def test_hexagon_doubling(self):
        spec = BlowupSpec(SignMatrix(HEX_S), (2, 2, 2))
        weighted = weighted_equivalent(spec)
        assert np.allclose(weighted.entries, HEX_S / 3)
        lhs = pi_n_general(blow_up(spec).entries, 2)
        assert abs(lhs - 8.0) <= 1e-9
        assert abs(lhs - 6 * pi_n_general(weighted.entries, 2)) <= 1e-9

    def test_trivial_multiplicities_identity(self):
        s = SignMatrix(np.eye(6) + C_ICOSA)
        spec = BlowupSpec(s, (1,) * 6)
        assert np.allclose(weighted_equivalent(spec).entries, s.entries / 6)

    def test_spectral_identity_random(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            m = int(rng.integers(1, 6))
            mult = tuple(int(x) for x in rng.integers(1, 5, m))
            spec = BlowupSpec(random_sign_matrix(rng, m), mult)
            big = blow_up(spec)
            p_sqrt = np.diag(np.sqrt(np.asarray(mult, dtype=float)))
            small = p_sqrt @ spec.base.entries @ p_sqrt
            big_evals = np.sort(np.linalg.eigvalsh(big.entries))
            padded = np.sort(np.concatenate(
                [np.linalg.eigvalsh(small), np.zeros(spec.d - m)]))
            assert np.abs(big_evals - padded).max() <= 1e-8

    def test_pi_n_identity_random(self):
        # equality needs the n-th weighted eigenvalue to be nonnegative;
        # otherwise the blow-up kernel pads the top-n sum and only the
        # inequality pi_n(blow-up) >= d pi_n(weighted) survives
        rng = np.random.default_rng(23)
        for _ in range(20):
            m = int(rng.integers(1, 5))
            mult = tuple(int(x) for x in rng.integers(1, 4, m))
            spec = BlowupSpec(random_sign_matrix(rng, m), mult)
            big = blow_up(spec)
            weighted = weighted_equivalent(spec)
            evals = np.sort(np.linalg.eigvalsh(weighted.entries))[::-1]
            for n in range(1, m + 1):
                lhs = pi_n_general(big.entries, n)
                rhs = spec.d * pi_n_general(weighted.entries, n)
                if evals[n - 1] >= 1e-9:
                    assert abs(lhs - rhs) <= 1e-8
                else:
                    assert lhs >= rhs - 1e-8


class TestDenseCap:
    # 10^12 copies would not fit in memory: the cap is checked first
    @pytest.mark.parametrize("mult", [(2049, 2048), (10**12, 1)])
    def test_blow_up_refuses_before_allocating(self, mult):
        spec = BlowupSpec(SignMatrix(np.ones((2, 2))), mult)
        with pytest.raises(ResourceExhausted, match="4096"):
            blow_up(spec)

    @pytest.mark.parametrize("mult", [(2049, 2048), (10**12, 1)])
    def test_dense_projection_refuses_before_allocating(self, mult):
        blocks = BlockProjection(OrthoProjection(np.full((2, 2), 0.5), 1),
                                 mult)
        with pytest.raises(ResourceExhausted, match="4096"):
            blocks.dense()
