import functools

import numpy as np
import pytest
from scipy.linalg import expm

from projconst import (BlockProjection, BlowupSpec, OrthoProjection,
                       PreconditionError, ResourceExhausted, SignMatrix,
                       WitnessConstraintError, almost_minimal, almostmin,
                       blow_up, certify, choose_k, dirichlet_approx, eig_sym,
                       eta_of_eps, exhaustive_pi, kyfan_sum, perron,
                       sign_matrix_of, trace_certificate, validate_projection,
                       weighted_equivalent)
from projconst.almostmin import _lift
from projconst.seeds import get_seed, paley, perturbed_hex3

PHI = (1 + np.sqrt(5)) / 2
J3 = np.ones((3, 3))


class TestEta:
    def test_saturation_point(self):
        assert eta_of_eps(1, 32.0) == 1.0

    def test_quadratic_regime(self):
        assert abs(eta_of_eps(4, 0.32) - 5e-5) <= 1e-18

    def test_clamp(self):
        assert eta_of_eps(1, 64.0) == 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(PreconditionError):
            eta_of_eps(2, 0.0)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, eps):
        with pytest.raises(PreconditionError):
            eta_of_eps(2, eps)

    @pytest.mark.parametrize("eps", [1e-170, 5e-324])
    def test_rejects_eps_whose_budget_underflows(self, eps):
        # (eps/32)^2 is 0 in floating point
        with pytest.raises(PreconditionError, match=f"eps {eps!r} "):
            eta_of_eps(2, eps)


class TestCertify:
    def test_hexagon_all_equal(self):
        cert = certify(get_seed("hex3"))
        for x in (cert.rho, cert.r, cert.R, cert.op_norm_l1,
                  cert.lower_bound):
            assert abs(x - 4 / 3) <= 1e-10
        assert cert.gap_rows <= 1e-10
        assert cert.gap_minimality <= 1e-10

    def test_icosahedral_all_equal(self):
        cert = certify(get_seed("icosa6"))
        for x in (cert.rho, cert.r, cert.R, cert.op_norm_l1,
                  cert.lower_bound):
            assert abs(x - PHI) <= 1e-10

    @pytest.mark.parametrize("q", [13, 17])
    def test_paley_all_equal(self, q):
        # (I + C/sqrt(q))/2 attains the ETF bound (1 + sqrt(q))/2
        p = validate_projection((np.eye(q + 1) + paley(q) / np.sqrt(q)) / 2,
                                (q + 1) // 2)
        cert = certify(p)
        for x in (cert.rho, cert.r, cert.R, cert.lower_bound):
            assert abs(x - (1 + np.sqrt(q)) / 2) <= 1e-12
        assert cert.op_norm_l1 == cert.R
        assert cert.witness_kind == "perron"

    def test_coordinate_projection_absent_fields(self):
        cert = certify(validate_projection(np.diag([1.0, 0.0, 0.0]), 1))
        assert cert.rho is None and cert.lower_bound is None
        assert cert.r == 0.0 and cert.R == 1.0 and cert.op_norm_l1 == 1.0

    def test_ordering_invariants(self):
        rng = np.random.default_rng(60)
        for _ in range(40):
            d = int(rng.integers(2, 8))
            n = int(rng.integers(1, d + 1))
            q, _ = np.linalg.qr(rng.standard_normal((d, n)))
            p = validate_projection(q @ q.T, n)
            cert = certify(p)
            assert cert.r <= cert.R + 1e-12
            if cert.rho is not None:
                assert cert.r - 1e-9 <= cert.rho <= cert.R + 1e-9
            if cert.lower_bound is not None:
                assert cert.lower_bound <= cert.op_norm_l1 + 1e-9


def lift(spec, n):
    """The block form of the rank-n Ky Fan maximizer of blow_up(spec);
    PreconditionError when it is not block-constant."""
    p = np.asarray(spec.multiplicities, dtype=float)
    core = _lift(spec.base.entries, p / p.sum(), n)
    return BlockProjection(validate_projection(core, n), spec.multiplicities)


def inertia_deficient_seed():
    """A rank-6 projection on R^9 with positive |P| whose Sgn(P) has only
    five positive eigenvalues (the sixth is -0.2043)."""
    rng = np.random.default_rng(0)
    for _ in range(66):
        q = np.linalg.qr(rng.standard_normal((9, 6)))[0]
    return validate_projection(q @ q.T, 6)


def circulant_projection(m, modes):
    """The real circulant projection of R^m onto the Fourier modes
    ``modes`` (closed under k -> m - k)."""
    j = np.arange(m)
    c = sum(np.cos(2 * np.pi * k * j / m) for k in modes) / m
    return validate_projection(c[(j[:, None] - j[None, :]) % m], len(modes))


def pipeline_spec(seed, n, eps, q_cap=None):
    """The blow-up that almost_minimal builds from ``seed``."""
    _, v = perron(seed.abs_entries())
    weights = v * v
    weights = weights / weights.sum()
    k = choose_k(n, seed.d, eta_of_eps(n, eps), float(weights.min()))
    return BlowupSpec(sign_matrix_of(seed),
                      dirichlet_approx(weights, k, q_cap).p)


def rotated_hex3(rng_seed):
    """hex3 with its plane rotated slightly, so that the Perron weights
    are no longer uniform."""
    g = np.random.default_rng(rng_seed).standard_normal((3, 3)) * 0.05
    rot = expm(g - g.T)
    return validate_projection(rot @ get_seed("hex3").entries @ rot.T, 2)


class TestLifting:
    @pytest.mark.parametrize("seed,n,eps,d", [
        (get_seed("hex3"), 2, 0.1, 3),
        (get_seed("icosa6"), 3, 0.1, 6),
        (rotated_hex3(61), 2, 32.0, 515),
    ], ids=["hex3", "icosa6", "rotated-hex3-d515"])
    def test_matches_dense_eigensolve(self, seed, n, eps, d):
        spec = pipeline_spec(seed, n, eps)
        assert spec.d == d
        dense = eig_sym(blow_up(spec))
        # the top-n eigenspace is unique, so both projectors must agree
        assert dense.eigenvalues[n - 1] - dense.eigenvalues[n] > 1e-9
        v = dense.eigenvectors[:, :n]
        p = lift(spec, n)
        assert p.d == d
        assert np.abs(v @ v.T - p.dense().entries).max() <= 1e-8


class TestPipeline:
    @pytest.mark.parametrize("name,n,d_expected,rho_expected", [
        ("hex3", 2, 3, 4 / 3),
        ("icosa6", 3, 6, PHI),
        ("trivial1", 1, 1, 1.0),
    ])
    def test_fixed_point_seeds(self, name, n, d_expected, rho_expected):
        res = almost_minimal(n, 0.1, get_seed(name))
        assert res.converged
        assert res.d == d_expected
        assert abs(res.cert.rho - rho_expected) <= 1e-10
        assert res.cert.gap_rows <= 1e-9
        assert res.cert.gap_minimality <= 1e-9
        # P and S commute; sign pattern matches S on positive |P|
        sp = res.S.entries @ res.P.entries - res.P.entries @ res.S.entries
        assert np.abs(sp).max() <= 1e-8
        if res.P.abs_is_positive():
            from projconst import sign_matrix_of
            assert np.array_equal(sign_matrix_of(res.P).entries,
                                  res.S.entries)

    @pytest.mark.parametrize("name,n", [("hex3", 2), ("icosa6", 3),
                                        ("trivial1", 1)])
    def test_row_sum_display(self, name, n):
        res = almost_minimal(n, 0.1, get_seed(name))
        abs_sum = float(res.P.abs_entries().sum())
        # j^t |P| j <= d rho(|P|) always; converged runs stay within eta
        assert abs_sum <= res.d * res.cert.rho + 1e-9
        assert res.d * res.cert.rho <= abs_sum + res.eta

    def test_sandwich_within_eps(self):
        for name, n in (("hex3", 2), ("icosa6", 3)):
            res = almost_minimal(n, 0.1, get_seed(name))
            assert res.converged
            assert res.cert.lower_bound <= res.cert.op_norm_l1
            assert res.cert.op_norm_l1 - res.cert.lower_bound <= 0.1
            assert res.cert.gap_rows <= 0.1

    def test_rejects_seed_with_zeros(self):
        seed = validate_projection(np.diag([1.0, 0.0, 0.0]), 1)
        with pytest.raises(PreconditionError):
            almost_minimal(1, 0.5, seed)

    def test_rejects_rank_mismatch(self):
        with pytest.raises(PreconditionError):
            almost_minimal(3, 0.5, get_seed("hex3"))

    @pytest.mark.parametrize("name", ["hex3", "icosa6", "paley13",
                                      "paley17", "trivial1"])
    def test_named_seeds_are_perron_weighted_maximizers(self, name):
        seed = get_seed(name)
        assert almost_minimal(seed.n, 0.1, seed).seed_gap <= 1e-12

    def test_rejects_seed_whose_signs_lack_n_positive_eigenvalues(self):
        seed = inertia_deficient_seed()
        assert seed.abs_is_positive()
        evals = eig_sym(sign_matrix_of(seed)).eigenvalues
        assert abs(evals[5] - (-0.2043)) <= 1e-4
        with pytest.raises(PreconditionError,
                           match="fewer than n=6 positive eigenvalues"):
            almost_minimal(6, 32.0, seed)

    @pytest.mark.parametrize("modes", [(0, 1, 7, 2, 6), (0, 2, 6, 3, 5)])
    def test_exact_zero_eigenvalue_is_decided_exactly(self, monkeypatch,
                                                      modes):
        # the two circulant rank-5 seeds of R^8 are one seed up to the
        # permutation j -> 3j mod 8: Sgn has spectrum (4, 4, 2.83, 2.83,
        # 0, 0, -2.83, -2.83), and its fifth eigenvalue, 0, comes out of
        # eigh as a rounding error of either sign; the exact count refuses
        # both
        seed = circulant_projection(8, modes)
        evals = eig_sym(sign_matrix_of(seed)).eigenvalues
        assert abs(evals[4]) <= 1e-12
        counted = []
        exact = almostmin._positive_eigenvalues

        def count(s):
            counted.append(exact(s))
            return counted[-1]

        monkeypatch.setattr(almostmin, "_positive_eigenvalues", count)
        with pytest.raises(PreconditionError,
                           match="fewer than n=5 positive eigenvalues"):
            almost_minimal(5, 32.0, seed)
        assert counted == [4]

    def test_exact_positive_eigenvalue_count(self):
        rng = np.random.default_rng(73)
        for _ in range(60):
            m = int(rng.integers(1, 10))
            upper = np.triu(2.0 * rng.integers(0, 2, size=(m, m)) - 1.0, 1)
            s = upper + upper.T + np.eye(m)
            expected = np.count_nonzero(np.linalg.eigvalsh(s) > 1e-9)
            assert almostmin._positive_eigenvalues(s) == expected
        # spectra (9, 0, ..., 0) and (0, ..., 0, -9): the zero
        # coefficients of x^8 (x - 9) and x^8 (x + 9) carry no sign
        assert almostmin._positive_eigenvalues(np.ones((9, 9))) == 1
        assert almostmin._positive_eigenvalues(-np.ones((9, 9))) == 0

    def test_refinement_validates_only_its_result(self, monkeypatch):
        # the first lift of this circulant seed changes its signs, so the
        # refinement takes two steps on m x m arrays
        built = []

        class Counted(OrthoProjection):
            def __post_init__(self, tol):
                built.append(self.d)
                super().__post_init__(tol)

        monkeypatch.setattr(almostmin, "OrthoProjection", Counted)
        res = almost_minimal(3, 32.0, circulant_projection(8, (0, 1, 7)))
        assert (res.d, res.iterations, res.converged) == (8, 2, True)
        assert built == [8]
        assert isinstance(res.blocks.core, Counted)

    def test_seed_gap_flags_a_seed_off_the_premise(self):
        # the Ky Fan maximizer for random weights, not for the Perron
        # weights of its own |P|: the gaps stay put as eps shrinks
        seed = perturbed_hex3(np.random.default_rng(3))
        res = almost_minimal(2, 32.0, seed)
        assert res.seed_gap > 0.1
        assert "seed_gap" not in res.to_json()

    def test_perturbed_seed_still_certifies(self):
        # a near-hexagonal subspace: the hexagon plane rotated slightly,
        # so the Perron weights are no longer exactly uniform
        seed = rotated_hex3(61)
        assert seed.abs_is_positive()
        res = almost_minimal(2, 32.0, seed)
        assert res.d == 515 and res.converged
        cert = res.cert
        assert cert.r - 1e-9 <= cert.rho <= cert.R + 1e-9
        assert cert.witness_kind == "uniform"
        assert cert.lower_bound <= cert.op_norm_l1 + 1e-9


BAND_EPS = 24.0


@functools.lru_cache(maxsize=None)
def band_seeds():
    """The first perturbed_hex3 draw of default_rng(3) per blow-up band at
    eps = 24, d in [300, 350), [450, 500), ..., [900, 950)."""
    rng = np.random.default_rng(3)
    out = []
    for lo in (300, 450, 600, 750, 900):
        while True:
            seed = perturbed_hex3(rng)
            if np.abs(seed.entries).min() <= 1e-6:
                continue
            try:
                d = pipeline_spec(seed, 2, BAND_EPS, q_cap=10**4).d
            except ResourceExhausted:
                continue
            if lo <= d < lo + 50:
                out.append(seed)
                break
    return out


def dense_pipeline(seed, n, eps):
    """almost_minimal on dense d x d matrices: the dense Ky Fan maximizer
    of the blow-up and of every refined sign matrix, certified densely."""
    s = blow_up(pipeline_spec(seed, n, eps))
    _, p = kyfan_sum(s.entries, n)
    converged = False
    for iterations in range(1, 65):
        s_next = sign_matrix_of(p)
        if np.array_equal(s_next.entries, s.entries):
            converged = True
            break
        s = s_next
        _, p = kyfan_sum(s.entries, n)
    return p, s, certify(p), converged, iterations


CERT_FIELDS = ("rho", "r", "R", "op_norm_l1", "lower_bound", "gap_rows",
               "gap_minimality")


def assert_certs_agree(a, b, tol):
    assert a.witness_kind == b.witness_kind
    for name in CERT_FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert abs(x - y) <= tol, name


class TestBlockForm:
    def test_sign_of_lift_is_blowup_of_block_signs(self):
        rng = np.random.default_rng(70)
        moved = fixed = 0
        for _ in range(60):
            m = int(rng.integers(2, 7))
            upper = np.triu(2.0 * rng.integers(0, 2, size=(m, m)) - 1.0, 1)
            base = SignMatrix(upper + upper.T + np.eye(m))
            mult = tuple(int(x) for x in rng.integers(1, 5, m))
            n = int(rng.integers(1, m + 1))
            try:
                p = lift(BlowupSpec(base, mult), n)
            except PreconditionError:
                # Sylvester's law of inertia: no weights give n positive
                # eigenvalues to a pattern without them
                assert np.linalg.eigvalsh(base.entries)[-n] <= 1e-12
                continue
            lifted = sign_matrix_of(p.dense())
            beta = p.core.entries / np.sqrt(np.outer(mult, mult))
            block_signs = BlowupSpec(sign_matrix_of(beta), mult)
            assert np.array_equal(lifted.entries,
                                  blow_up(block_signs).entries)
            assert np.array_equal(sign_matrix_of(p.core).entries,
                                  block_signs.base.entries)
            if np.array_equal(block_signs.base.entries, base.entries):
                fixed += 1
            else:
                moved += 1
        # both kinds of lift occur: fixed points and lifts that refine
        assert moved >= 10 and fixed >= 10

    def test_certify_block_form_matches_dense(self):
        # random ranges (no witness), Ky Fan lifts of random sign patterns
        # and named seeds blown up evenly (Perron witness)
        rng = np.random.default_rng(71)
        cases = [BlockProjection(get_seed(name), (k,) * get_seed(name).d)
                 for name, k in (("hex3", 4), ("icosa6", 3))]
        for _ in range(30):
            m = int(rng.integers(2, 6))
            n = int(rng.integers(1, m))
            mult = tuple(int(x) for x in rng.integers(1, 6, m))
            q, _ = np.linalg.qr(rng.standard_normal((m, n)))
            cases.append(BlockProjection(validate_projection(q @ q.T, n),
                                         mult))
            upper = np.triu(2.0 * rng.integers(0, 2, size=(m, m)) - 1.0, 1)
            spec = BlowupSpec(SignMatrix(upper + upper.T + np.eye(m)), mult)
            try:
                cases.append(lift(spec, n))
            except PreconditionError:
                pass  # fewer than n positive eigenvalues: no lift
        kinds = set()
        for blocks in cases:
            cert, dense = certify(blocks), certify(blocks.dense())
            assert_certs_agree(cert, dense, 1e-12)
            assert cert.op_norm_l1 == cert.R and dense.op_norm_l1 == dense.R
            kinds.add(cert.witness_kind)
        assert kinds == {"perron", "uniform", None}

    def test_dense_fallback_when_kernel_enters(self):
        # the all-plus pattern has weighted spectrum (1, 0) for any
        # weights: at n = 2 the maximizer of the blow-up would take a
        # vector of its kernel and not be block-constant, so the lift
        # refuses it instead of falling back to a dense maximizer
        w = np.array([2.0, 3.0]) / 5
        with pytest.raises(PreconditionError,
                           match="fewer than n=2 positive eigenvalues"):
            _lift(np.ones((2, 2)), w, 2)
        with pytest.raises(PreconditionError,
                           match="fewer than n=2 positive eigenvalues"):
            lift(BlowupSpec(SignMatrix(np.ones((2, 2))), (2, 3)), 2)
        sq = np.sqrt(w)
        assert np.abs(_lift(np.ones((2, 2)), w, 1)
                      - np.outer(sq, sq)).max() <= 1e-15

    def test_dense_fallback_is_guarded(self):
        # at d = 4097 the lift works on the 2 x 2 pattern alone: it
        # refuses n = 2 and lifts n = 1 without a d x d matrix
        spec = BlowupSpec(SignMatrix(np.ones((2, 2))), (2049, 2048))
        with pytest.raises(PreconditionError,
                           match="fewer than n=2 positive eigenvalues"):
            lift(spec, 2)
        p = lift(spec, 1)
        assert p.d == 4097 and p.core.entries.shape == (2, 2)
        w = np.array([2049.0, 2048.0]) / 4097
        assert np.abs(p.core.entries
                      - np.outer(np.sqrt(w), np.sqrt(w))).max() <= 1e-15

    def test_core_is_kyfan_sum_of_the_weighted_problem(self):
        rng = np.random.default_rng(72)
        icosa = BlowupSpec(sign_matrix_of(get_seed("icosa6")),
                           (1, 2, 3, 1, 2, 3))
        cases = [(icosa, 3)]
        for _ in range(45):
            m = int(rng.integers(2, 7))
            upper = np.triu(2.0 * rng.integers(0, 2, size=(m, m)) - 1.0, 1)
            mult = tuple(int(x) for x in rng.integers(1, 5, m))
            cases.append((BlowupSpec(SignMatrix(upper + upper.T + np.eye(m)),
                                     mult), int(rng.integers(1, m + 1))))
        block_form = 0
        for spec, n in cases:
            # a nonzero eigenvalue of a +-1 matrix with m <= 6 is far
            # from 0, so eigvalsh tells the exact inertia here
            lam = np.linalg.eigvalsh(spec.base.entries)[-n]
            try:
                p = lift(spec, n)
            except PreconditionError:
                assert lam <= 1e-9
                continue  # fewer than n positive eigenvalues: no lift
            assert lam > 1e-9
            _, core = kyfan_sum(weighted_equivalent(spec), n)
            assert np.array_equal(p.core.entries, core.entries)
            block_form += 1
        assert block_form >= 20

    @staticmethod
    def scale_cases():
        """(core, p, expected witness kind) for hex3, icosa6 and the Ky
        Fan core of the Pi(3, 5) maximizer blown up by (3, 5, 2, 4, 7)."""
        mult = (3, 5, 2, 4, 7)
        p = lift(BlowupSpec(exhaustive_pi(3, 5).S, mult), 3)
        return [(get_seed("hex3"), (1,) * 3, "perron"),
                (get_seed("icosa6"), (1,) * 6, "perron"),
                (p.core, mult, "uniform")]

    def test_certify_is_scale_free(self):
        # the same core blown up by c p certifies the same numbers at any
        # d, up to d = 6e15 for icosa6
        for core, mult, kind in self.scale_cases():
            ref = certify(BlockProjection(core, mult))
            assert ref.witness_kind == kind
            for c in (10**3, 10**6, 10**9, 10**12, 10**15):
                cert = certify(BlockProjection(core, [c * x for x in mult]))
                assert cert.witness_kind == kind, c
                for name in ("r", "R", "lower_bound"):
                    assert abs(getattr(cert, name)
                               - getattr(ref, name)) <= 1e-12, (c, name)

    def test_non_commuting_witness_rejected_at_any_d(self):
        rng = np.random.default_rng(73)
        for core, mult, _ in self.scale_cases():
            for d in (10**6, 10**9, 10**15):
                c = round(d / sum(mult))
                blocks = BlockProjection(core, [c * x for x in mult])
                alpha = rng.standard_normal((blocks.m, blocks.m))
                alpha /= (blocks.sizes * np.abs(alpha).max(axis=1)).sum()
                with pytest.raises(WitnessConstraintError):
                    trace_certificate(alpha, blocks, "l1")

    def test_dense_output_is_guarded(self):
        res = almost_minimal(2, 16.0, perturbed_hex3(np.random.default_rng(3)))
        assert res.d == 27207 and res.converged
        assert res.cert.lower_bound is not None
        for name in ("P", "S"):
            with pytest.raises(ResourceExhausted, match="27207"):
                getattr(res, name)

    @pytest.mark.parametrize("case", [
        "hex3", "icosa6", "trivial1", "rotated-hex3-d515", "band0", "band1",
        "band2", "band3", "band4"])
    def test_compressed_matches_dense_pipeline(self, case):
        n, eps = 2, BAND_EPS
        if case in ("hex3", "icosa6", "trivial1"):
            seed = get_seed(case)
            n, eps = seed.n, 0.1
        elif case == "rotated-hex3-d515":
            seed, eps = rotated_hex3(61), 32.0
        else:
            seed = band_seeds()[int(case[-1])]
        res = almost_minimal(n, eps, seed)
        assert res.d <= 2048
        p, s, cert, converged, iterations = dense_pipeline(seed, n, eps)
        assert (res.d, res.converged, res.iterations) == (
            p.d, converged, iterations)
        assert np.array_equal(res.S.entries, s.entries)
        assert np.abs(res.P.entries - p.entries).max() <= 1e-10
        assert_certs_agree(res.cert, cert, 1e-10)
