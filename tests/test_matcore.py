import json

import numpy as np
import pytest

from projconst import (InvariantViolation, OrthoProjection,
                       PreconditionError, SignMatrix, Spectrum, SymMatrix,
                       WeightVector, alternate_maximize, alternating_pi,
                       certify, cucc_selection, eig_sym, etf_bound,
                       exhaustive_pi, kyfan_sum, matrix_from_json,
                       matrix_to_json, perron, sign_matrix_of,
                       validate_projection)
from projconst.seeds import icosa6

J3 = np.ones((3, 3))


def hex_projection():
    return validate_projection(np.eye(3) - J3 / 3, 2)


class TestTypes:
    def test_sym_matrix_symmetrizes_exactly(self):
        a = np.array([[1.0, 0.3], [0.1, 2.0]])
        m = SymMatrix(a)
        assert np.array_equal(m.entries, m.entries.T)

    def test_sym_matrix_rejects_nonsquare(self):
        with pytest.raises(PreconditionError):
            SymMatrix(np.ones((2, 3)))

    def test_sign_matrix_validation(self):
        SignMatrix(2 * np.eye(3) - J3)
        with pytest.raises(InvariantViolation):
            SignMatrix(np.eye(3))  # zeros off-diagonal
        with pytest.raises(InvariantViolation):
            SignMatrix(-(2 * np.eye(3) - J3))  # -1 diagonal

    def test_weight_vector_validation(self):
        WeightVector([0.5, 0.5])
        with pytest.raises(InvariantViolation):
            WeightVector([0.5, 0.6])
        with pytest.raises(InvariantViolation):
            WeightVector([1.5, -0.5])

    @pytest.mark.parametrize("w", [[np.nan, 1.0], [np.inf, 0.0],
                                   [0.5, 0.5, -np.inf]])
    def test_weight_vector_rejects_non_finite(self, w):
        with pytest.raises(PreconditionError, match="non-finite"):
            WeightVector(w)

    def test_values_are_immutable(self):
        m = SymMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5.0


class TestEigSym:
    def test_identity(self):
        spec = eig_sym(np.eye(3))
        assert np.allclose(spec.eigenvalues, [1, 1, 1])

    def test_2i_minus_j(self):
        # characteristic polynomial of 2I - J factors as (2-t)^2 (-1-t)
        spec = eig_sym(2 * np.eye(3) - J3)
        assert np.allclose(spec.eigenvalues, [2, 2, -1], atol=1e-12)

    def test_all_ones(self):
        spec = eig_sym(J3)
        assert np.allclose(spec.eigenvalues, [3, 0, 0], atol=1e-12)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(42)
        for d in (2, 5, 17, 50):
            a = rng.standard_normal((d, d))
            a = a + a.T
            spec = eig_sym(a)
            v = spec.eigenvectors
            assert np.abs((v * spec.eigenvalues) @ v.T - a).max() <= 1e-9
            assert np.abs(spec.eigenvectors.T @ spec.eigenvectors
                          - np.eye(d)).max() <= 1e-9

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 6))
        a = a + a.T
        v1 = eig_sym(a).eigenvectors
        v2 = eig_sym(a.copy()).eigenvectors
        assert np.array_equal(v1, v2)
        lead = np.argmax(np.abs(v1) > 1e-9, axis=0)
        assert np.all(v1[lead, np.arange(6)] > 0)


class TestPerron:
    def test_constant_row_sum(self):
        rho, v = perron((np.eye(3) + J3) / 3)
        assert abs(rho - 4 / 3) <= 1e-12
        assert np.allclose(v, np.full(3, 1 / np.sqrt(3)))

    def test_rank_one(self):
        for d in (2, 4, 9):
            rho, v = perron(np.ones((d, d)) / d)
            assert abs(rho - 1.0) <= 1e-12
            assert np.all(v > 0)

    def test_icosahedral_abs_projection(self):
        absp = icosa6().abs_entries()
        rho, v = perron(absp)
        assert abs(rho - (1 + np.sqrt(5)) / 2) <= 1e-12
        # cross-check against a direct eigendecomposition
        assert abs(rho - eig_sym(absp).eigenvalues[0]) <= 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(PreconditionError):
            perron(np.eye(2))

    def test_residual_and_positivity(self):
        rng = np.random.default_rng(11)
        for d in (3, 8, 20):
            m = rng.random((d, d)) + 0.1
            with pytest.raises(PreconditionError, match="symmetric"):
                perron(m)
            m = 0.5 * (m + m.T)
            rho, v = perron(m)
            assert np.linalg.norm(m @ v - rho * v) <= 1e-10
            assert np.all(v > 0)
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12

    def test_repairs_a_top_vector_with_a_zero_entry(self):
        # eigh's top vector is [1, 0]; one application of the matrix makes
        # it strictly positive, else the call would be refused
        rho, v = perron([[1.0, 1e-300], [1e-300, 1e-300]])
        assert rho == 1.0
        assert np.array_equal(v, [1.0, 1e-300])

    def test_large_symmetric(self):
        # d > 512 takes the same eigh path as every smaller d
        rng = np.random.default_rng(12)
        d = 520
        m = (rng.random((d, d)) + 0.01) / d
        m = 0.5 * (m + m.T)
        rho, v = perron(m)
        assert abs(rho - eig_sym(m).eigenvalues[0]) <= 1e-12
        assert np.linalg.norm(m @ v - rho * v) <= 1e-10
        assert np.all(v > 0)


class TestSignPattern:
    """Sgn(a) as built by sign_matrix_of."""

    def test_hex(self):
        s = sign_matrix_of(np.eye(3) - J3 / 3)
        assert np.array_equal(s.entries, 2 * np.eye(3) - J3)

    def test_zero_matrix(self):
        assert np.all(sign_matrix_of(np.zeros((2, 2))).entries == 1)

    def test_threshold(self):
        a = np.array([[0.0, -1e-12], [-1e-12, 0.0]])
        assert sign_matrix_of(a, tau=1e-9).entries[0, 1] == 1
        assert sign_matrix_of(a, tau=1e-13).entries[0, 1] == -1

    def test_zero_completion(self):
        s = sign_matrix_of(np.diag([1.0, -2.0]))
        assert np.array_equal(s.entries, np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_asymmetric_input_keeps_smaller_sign(self):
        s = sign_matrix_of(np.array([[1.0, -0.5], [0.5, 1.0]]))
        assert np.array_equal(s.entries, 2 * np.eye(2) - np.ones((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(PreconditionError, match="finite"):
            sign_matrix_of(np.array([[1.0, bad], [bad, 1.0]]))


class TestValidateProjection:
    def test_accepts_hexagon(self):
        p = hex_projection()
        assert p.n == 2 and p.d == 3

    def test_accepts_rank_one_mean(self):
        validate_projection(J3 / 3, 1)

    def test_rejects_trace_mismatch(self):
        with pytest.raises(InvariantViolation) as err:
            validate_projection(J3 / 3, 2)
        assert "trace" in str(err.value)

    def test_constructor_checks_invariants(self):
        with pytest.raises(InvariantViolation) as err:
            OrthoProjection(J3 / 3, 2)
        assert "trace" in str(err.value)

    def test_rejects_non_idempotent(self):
        with pytest.raises(InvariantViolation):
            validate_projection(0.5 * np.eye(3), 1)

    def test_reports_worst_violation(self):
        # diag(1, 1/2, 1/2) has trace 2 and is symmetric, so idempotence is
        # its worst violation; the identity at rank 2 fails the trace; a
        # hexagon skewed within tolerance comes back exactly symmetrized
        with pytest.raises(InvariantViolation) as err:
            validate_projection(np.diag([1.0, 0.5, 0.5]), 2)
        assert err.value.invariant == "idempotence"
        assert err.value.violation == 0.25
        with pytest.raises(InvariantViolation) as err:
            validate_projection(np.eye(3), 2)
        assert err.value.invariant == "trace equals rank"
        skew = np.eye(3) - J3 / 3
        skew[0, 1] += 1e-12
        p = validate_projection(skew, 2)
        assert np.array_equal(p.entries, 0.5 * (skew + skew.T))
        assert np.array_equal(p.entries, p.entries.T)
        assert np.abs(p.entries - hex_projection().entries).max() <= 1e-12

    def test_trace_equals_eigenvalue_one_multiplicity(self):
        rng = np.random.default_rng(5)
        for d, n in ((4, 2), (7, 3), (10, 5)):
            q, _ = np.linalg.qr(rng.standard_normal((d, n)))
            p = validate_projection(q @ q.T, n)
            evals = eig_sym(p.entries).eigenvalues
            assert int((evals > 0.5).sum()) == n


class TestRowSums:
    def test_hexagon(self):
        cert = certify(hex_projection())
        assert abs(cert.r - 4 / 3) <= 1e-12
        assert abs(cert.R - 4 / 3) <= 1e-12
        assert cert.gap_rows <= 1e-12

    def test_icosa(self):
        cert = certify(icosa6())
        phi = (1 + np.sqrt(5)) / 2
        assert abs(cert.r - phi) <= 1e-12 and abs(cert.R - phi) <= 1e-12

    def test_rank_one_diag(self):
        cert = certify(validate_projection(np.diag([1.0, 0.0]), 1))
        assert cert.r == 0.0 and cert.R == 1.0


class TestPerronRowSumBounds:
    def test_r_le_rho_le_R(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            d = int(rng.integers(2, 9))
            n = int(rng.integers(1, d))
            q, _ = np.linalg.qr(rng.standard_normal((d, n)))
            p = validate_projection(q @ q.T, n)
            if not np.all(np.abs(p.entries) > 0):
                continue
            rho, _ = perron(p.abs_entries())
            cert = certify(p)
            assert cert.r - 1e-9 <= rho <= cert.R + 1e-9


def test_matrix_json_roundtrip():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4))
    blob = json.dumps(matrix_to_json(a))
    back = matrix_from_json(json.loads(blob))
    assert np.array_equal(back, a)


def test_matrix_json_rejects_bad_shape():
    with pytest.raises(PreconditionError):
        matrix_from_json({"d": 3, "rows": [[1.0, 2.0], [3.0, 4.0]]})


# Refusals of the matcore constructors and matrix JSON reader:
# (call, error, message).
MATCORE_REFUSALS = [
    pytest.param(lambda: SignMatrix([[1.0, -1.0], [1.0, 1.0]]),
                 InvariantViolation, "sign matrix symmetry",
                 id="sign-matrix-asymmetric"),
    pytest.param(lambda: WeightVector([]), PreconditionError,
                 "weights must be a nonempty vector", id="weights-empty"),
    pytest.param(lambda: OrthoProjection(np.eye(2), 3), PreconditionError,
                 "rank 3 out of range for d=2", id="projection-rank"),
    pytest.param(lambda: matrix_from_json([]), PreconditionError,
                 'must have keys "d" and "rows"', id="json-not-a-dict"),
    pytest.param(lambda: matrix_from_json({"d": 2}), PreconditionError,
                 'must have keys "d" and "rows"', id="json-no-rows"),
    pytest.param(lambda: matrix_from_json({"d": 2, "rows": [[1, 0], [0]]}),
                 PreconditionError, "rows is not a float array",
                 id="json-ragged-rows"),
    pytest.param(lambda: Spectrum(np.ones(2), np.eye(3)), PreconditionError,
                 "spectrum shape mismatch", id="spectrum-shape"),
    pytest.param(lambda: Spectrum([1.0, 2.0], np.eye(2)), InvariantViolation,
                 "eigenvalues sorted descending", id="spectrum-ascending"),
]


@pytest.mark.parametrize("call, error, message", MATCORE_REFUSALS)
def test_matcore_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()


# Every entry point that takes a rank n of a d-dimensional problem refuses
# n outside 1..d through matcore's one rank check, with one message:
# (call of n at d = 3).
RANK_CHECKED = [
    pytest.param(lambda n: etf_bound(n, 3), id="etf_bound"),
    pytest.param(lambda n: exhaustive_pi(n, 3), id="exhaustive_pi"),
    pytest.param(lambda n: alternating_pi(n, 3), id="alternating_pi"),
    pytest.param(lambda n: alternate_maximize(
        n, SignMatrix(2 * np.eye(3) - J3), WeightVector(np.full(3, 1 / 3))),
        id="alternate_maximize"),
    pytest.param(lambda n: kyfan_sum(np.eye(3), n), id="kyfan_sum"),
    pytest.param(lambda n: cucc_selection(np.eye(3), n), id="cucc_selection"),
]


@pytest.mark.parametrize("n", [0, 4])
@pytest.mark.parametrize("call", RANK_CHECKED)
def test_rank_refusals(call, n):
    with pytest.raises(PreconditionError,
                       match=rf"^n={n} out of range 1\.\.3$"):
        call(n)
