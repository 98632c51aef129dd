import numpy as np
import pytest
from scipy.optimize import linprog

from projconst import (InvariantViolation, PreconditionError,
                       ResourceExhausted, SignMatrix, SubspaceBasis,
                       WitnessConstraintError,
                       WitnessNormalizationError,
                       attainment_check, eig_sym, min_projection_norm, nu1,
                       operator_norm, trace_certificate)
from projconst.seeds import C_ICOSA, icosa6, paley

PHI = (1 + np.sqrt(5)) / 2
J3 = np.ones((3, 3))

HEX_BASIS = SubspaceBasis(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]))


def icosa_basis():
    return SubspaceBasis(eig_sym(icosa6().entries).eigenvectors[:, :3])


def highs_min_projection_norm(v, space):
    """The same LP in the form Q = V M with M V = I_n, solved by HiGHS."""
    d, n = v.shape
    nm, nb = n * d, d * d
    q_of_m = np.kron(v, np.eye(d))              # vec(V M), row-major
    sums = (np.kron(np.ones((1, d)), np.eye(d)) if space == "l1"
            else np.kron(np.eye(d), np.ones((1, d))))
    a_ub = np.block([
        [q_of_m, -np.eye(nb), np.zeros((nb, 1))],
        [-q_of_m, -np.eye(nb), np.zeros((nb, 1))],
        [np.zeros((d, nm)), sums, -np.ones((d, 1))],
    ])
    a_eq = np.hstack([np.kron(np.eye(n), v.T), np.zeros((n * n, nb + 1))])
    c = np.zeros(nm + nb + 1)
    c[-1] = 1.0
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(2 * nb + d), A_eq=a_eq,
                  b_eq=np.eye(n).ravel(),
                  bounds=[(None, None)] * nm + [(0, None)] * (nb + 1),
                  method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def differential_cases():
    """Random subspaces with d <= 8 (every fifth rounded to integers,
    rank-deficient ones skipped), two d = 8, n = 4 draws from the
    degenerate-pivot tail, seeded n = d/2 subspaces at d = 10 and 12,
    and the hexagon and icosahedral ranges."""
    rng = np.random.default_rng(2029)
    cases, k = [], 0
    while len(cases) < 200:
        d = int(rng.integers(2, 9))
        n = int(rng.integers(1, d + 1))
        space = ("l1", "linf")[k % 2]
        v = rng.standard_normal((d, n))
        if k % 5 == 0:
            v = np.round(v)
        if np.linalg.matrix_rank(v) == n:
            cases.append(pytest.param(v, space, id=f"k{k}-{space}-d{d}-n{n}"))
        k += 1
    for gen, space in ((1002, "l1"), (1000, "linf")):
        v = np.random.default_rng(gen).standard_normal((8, 4))
        cases.append(pytest.param(v, space, id=f"tail{gen}-{space}"))
    for d in (10, 12):
        v = np.random.default_rng(3000 + d).standard_normal((d, d // 2))
        for space in ("l1", "linf"):
            cases.append(pytest.param(v, space,
                                      id=f"large-{space}-d{d}-n{d // 2}"))
    for name, basis in (("hex3", HEX_BASIS), ("icosa6", icosa_basis())):
        for space in ("l1", "linf"):
            cases.append(pytest.param(basis.V, space, id=f"{name}-{space}"))
    return cases


class TestNu1:
    def test_identity_linf(self):
        for d in (1, 3, 6):
            assert nu1(np.eye(d), "linf") == d

    def test_scaled_hexagon_sign(self):
        assert abs(nu1((2 * np.eye(3) - J3) / 3, "l1") - 1.0) <= 1e-12

    def test_zero(self):
        assert nu1(np.zeros((4, 4)), "l1") == 0.0
        assert nu1(np.zeros((4, 4)), "linf") == 0.0

    def test_is_a_norm(self):
        rng = np.random.default_rng(50)
        for space in ("l1", "linf"):
            for _ in range(30):
                d = int(rng.integers(1, 7))
                a = rng.standard_normal((d, d))
                b = rng.standard_normal((d, d))
                t = float(rng.standard_normal())
                assert nu1(a + b, space) <= nu1(a, space) + nu1(b, space) + 1e-12
                assert abs(nu1(t * a, space) - abs(t) * nu1(a, space)) <= 1e-12
                if nu1(a, space) == 0.0:
                    assert np.all(a == 0)


class TestSubspaceBasis:
    def test_rejects_rank_deficient(self):
        with pytest.raises(InvariantViolation):
            SubspaceBasis(np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]]))

    def test_json_roundtrip(self):
        blob = {"d": HEX_BASIS.d, "n": HEX_BASIS.n,
                "columns": HEX_BASIS.V.T.tolist()}
        back = SubspaceBasis.from_json(blob)
        assert np.array_equal(back.V, HEX_BASIS.V)


class TestMinProjectionNorm:
    def test_hexagon_l1(self):
        res = min_projection_norm(HEX_BASIS, "l1")
        assert abs(res.value - 4 / 3) <= 1e-7
        assert np.abs(res.Q @ res.Q - res.Q).max() <= 1e-8

    def test_coordinate_line_linf(self):
        basis = SubspaceBasis(np.array([[1.0], [0.0], [0.0]]))
        res = min_projection_norm(basis, "linf")
        assert abs(res.value - 1.0) <= 1e-9
        e11 = np.zeros((3, 3))
        e11[0, 0] = 1.0
        assert np.abs(res.Q - e11).max() <= 1e-8

    def test_icosahedral_l1(self):
        value = min_projection_norm(icosa_basis(), "l1").value
        assert abs(value - PHI) <= 1e-6

    def test_whole_space_identity(self):
        for d in (1, 2, 4):
            basis = SubspaceBasis(np.eye(d))
            for space in ("l1", "linf"):
                res = min_projection_norm(basis, space)
                assert abs(res.value - 1.0) <= 1e-9
                assert np.abs(res.Q - np.eye(d)).max() <= 1e-8

    @pytest.mark.parametrize("v, space", differential_cases())
    def test_matches_highs(self, v, space):
        value = min_projection_norm(SubspaceBasis(v), space).value
        assert abs(value - highs_min_projection_norm(v, space)) <= 1e-9

    @pytest.mark.parametrize("v, space", differential_cases())
    def test_dual_witness_certifies_value(self, v, space):
        basis = SubspaceBasis(v)
        res = min_projection_norm(basis, space)
        witness = trace_certificate(res.witness.A,
                                    basis.orthogonal_projection(), space)
        assert abs(witness.value - res.value) <= 1e-9

    @pytest.mark.parametrize("q", [13, 17])
    def test_paley_range(self, q):
        # (I + C/sqrt(q))/2 has all absolute row sums (1 + sqrt(q))/2
        p = (np.eye(q + 1) + paley(q) / np.sqrt(q)) / 2
        basis = SubspaceBasis(eig_sym(p).eigenvectors[:, :(q + 1) // 2])
        res = min_projection_norm(basis, "l1")
        exact = (1 + np.sqrt(q)) / 2
        assert abs(res.value - exact) <= 1e-12
        assert abs(operator_norm(res.Q, "l1") - exact) <= 1e-12
        witness = trace_certificate(res.witness.A,
                                    basis.orthogonal_projection(), "l1")
        assert abs(witness.value - exact) <= 1e-12
        assert res.pivots > 0

    def test_updated_inverse_across_refactorizations(self):
        # about 448 pivots, so B is factorized afresh at least six times
        # on schedule between the start and the optimum
        v = np.random.default_rng(16).standard_normal((16, 8))
        res = min_projection_norm(SubspaceBasis(v), "linf")
        assert res.pivots // 64 >= 6
        assert res.refactorizations >= 1 + res.pivots // 64
        assert abs(res.witness.value - res.value) <= 1e-9
        assert abs(res.value - highs_min_projection_norm(v, "linf")) <= 1e-7

    def test_below_orthogonal_projection(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            n = int(rng.integers(1, d + 1))
            basis = SubspaceBasis(rng.standard_normal((d, n)))
            p_orth = basis.orthogonal_projection()
            for space in ("l1", "linf"):
                res = min_projection_norm(basis, space)
                q = res.Q
                assert res.value <= operator_norm(p_orth, space) + 1e-7
                assert np.abs(q @ basis.V - basis.V).max() <= 1e-8
                assert np.abs(q @ q - q).max() <= 1e-8


class TestTraceCertificate:
    def test_hexagon_witness(self):
        witness = trace_certificate(
            (2 * np.eye(3) - J3) / 3, HEX_BASIS.orthogonal_projection(), "l1")
        assert abs(witness.value - 4 / 3) <= 1e-12

    def test_icosahedral_witness(self):
        witness = trace_certificate((np.eye(6) + C_ICOSA) / 6,
                                    icosa_basis().orthogonal_projection(),
                                    "l1")
        assert abs(witness.value - PHI) <= 1e-12

    def test_normalization_error(self):
        with pytest.raises(WitnessNormalizationError):
            trace_certificate(np.eye(3), HEX_BASIS.orthogonal_projection(),
                              "linf")

    def test_constraint_error(self):
        # nu1-normalized but not commuting with the hexagon projection
        a = np.zeros((3, 3))
        a[0, 1] = 1.0
        assert abs(nu1(a, "l1") - 1.0) <= 1e-12
        with pytest.raises(WitnessConstraintError):
            trace_certificate(a, HEX_BASIS.orthogonal_projection(), "l1")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        a = (2 * np.eye(3) - J3) / 3
        a[0, 1] = bad
        with pytest.raises(PreconditionError, match="finite"):
            trace_certificate(a, HEX_BASIS.orthogonal_projection(), "l1")

    def test_size_mismatch(self):
        with pytest.raises(PreconditionError, match=r"\(4, 4\).*d=3"):
            trace_certificate(np.eye(4) / 4,
                              HEX_BASIS.orthogonal_projection(), "l1")

    def test_requires_the_projection(self):
        # a basis or a raw matrix is not a validated projection onto E
        witness = (2 * np.eye(3) - J3) / 3
        for p in (HEX_BASIS, np.eye(3) - J3 / 3):
            with pytest.raises(PreconditionError, match="OrthoProjection"):
                trace_certificate(witness, p, "l1")

    def test_weak_duality_on_examples(self):
        for witness_mat, basis in (
                ((2 * np.eye(3) - J3) / 3, HEX_BASIS),
                ((np.eye(6) + C_ICOSA) / 6, icosa_basis())):
            witness = trace_certificate(
                witness_mat, basis.orthogonal_projection(), "l1")
            lp_value = min_projection_norm(basis, "l1").value
            assert witness.value <= lp_value + 1e-7
            assert abs(witness.value - lp_value) <= 1e-7


class TestAttainment:
    def test_hexagon_attained(self):
        res = attainment_check(SignMatrix(2 * np.eye(3) - J3), 2,
                               reference=4 / 3)
        assert res.attained and res.equalities_hold
        assert abs(res.value - 4 / 3) <= 1e-9

    def test_icosahedral_attained(self):
        res = attainment_check(SignMatrix(np.eye(6) + C_ICOSA), 3,
                               reference=PHI)
        assert res.attained and res.equalities_hold
        assert abs(res.value - PHI) <= 1e-9

    def test_all_plus_not_attained(self):
        res = attainment_check(SignMatrix(J3), 2, reference=4 / 3)
        assert not res.attained
        assert abs(res.value - 1.0) <= 1e-9


# Refusals at the public entry points of relproj: (call, message).
RELPROJ_REFUSALS = [
    pytest.param(lambda: nu1([[np.nan, 0.0], [0.0, 1.0]], "l1"),
                 "nu1 input contains non-finite entries", id="nu1-nan"),
    pytest.param(lambda: nu1([[np.inf, 0.0], [0.0, 1.0]], "linf"),
                 "nu1 input contains non-finite entries", id="nu1-inf"),
    pytest.param(lambda: nu1([[1.0, 0.0]], "l1"),
                 r"nu1 input must be square, got shape \(1, 2\)",
                 id="nu1-not-square"),
    pytest.param(lambda: operator_norm([[np.nan, 0.0], [0.0, 1.0]], "l1"),
                 "operator_norm input contains non-finite entries",
                 id="operator-norm-nan"),
    pytest.param(lambda: operator_norm(np.ones((2, 3)), "l1"),
                 r"operator_norm input must be square, got shape \(2, 3\)",
                 id="operator-norm-not-square"),
    pytest.param(lambda: SubspaceBasis(np.ones((2, 3))),
                 r"basis must be d x n with d >= n >= 1, got \(2, 3\)",
                 id="basis-wide"),
    pytest.param(lambda: SubspaceBasis.from_json({"d": 3}),
                 'basis JSON must have key "columns"', id="json-no-columns"),
    pytest.param(lambda: SubspaceBasis.from_json(
        {"d": 3, "columns": [1.0, 0.0, 0.0]}),
        "basis columns must form a 2-d array", id="json-1d-columns"),
    pytest.param(lambda: SubspaceBasis.from_json(
        {"d": 4, "columns": [[1.0, 0.0, 0.0]]}),
        "basis JSON d does not match columns", id="json-d-mismatch"),
    pytest.param(lambda: SubspaceBasis.from_json(
        {"n": 3, "columns": [[1, 0, 0], [0, 1, 0]]}),
        "basis JSON n does not match columns", id="json-n-mismatch"),
    pytest.param(lambda: min_projection_norm(SubspaceBasis(np.eye(3)[:, :1]),
                                             "l2"),
                 r"space must be one of \('l1', 'linf'\)", id="space-l2"),
]


@pytest.mark.parametrize("call, message", RELPROJ_REFUSALS)
def test_relproj_refusals(call, message):
    with pytest.raises(PreconditionError, match=message):
        call()


class _Built(Exception):
    """Raised by the patched np.kron: the LP build has started."""


@pytest.fixture
def kron_raises(monkeypatch):
    def kron(*args):
        raise _Built

    monkeypatch.setattr(np, "kron", kron)


def random_basis(d, n):
    return SubspaceBasis(np.random.default_rng(d).standard_normal((d, n)))


@pytest.mark.parametrize("d, n, rows, cols", [(51, 25, 2652, 6554),
                                              (64, 32, 4160, 10305)])
def test_lp_above_entry_budget_refused_before_building(kron_raises, d, n,
                                                       rows, cols):
    # (d^2 + d) x (2n(d - n) + 2d^2 + d + 1) constraint entries above 2^24
    # are refused before the first np.kron, so nothing of that size is built
    with pytest.raises(ResourceExhausted,
                       match=rf"^relproj refused: the {rows * cols} entries "
                             rf"of the {rows} x {cols} LP exceed the "
                             rf"2\^24-entry budget$"):
        min_projection_norm(random_basis(d, n), "l1")


@pytest.mark.parametrize("d, n", [(50, 25), (32, 16), (28, 7)])
def test_lp_within_entry_budget_is_built(kron_raises, d, n):
    # (50, 25) has 16,067,550 entries, the largest n = d/2 LP under 2^24
    with pytest.raises(_Built):
        min_projection_norm(random_basis(d, n), "linf")
