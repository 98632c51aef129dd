import numpy as np
import pytest
from scipy.linalg import expm

from projconst import (BlowupSpec, PreconditionError, almost_minimal,
                       blow_up, certify, choose_k, dirichlet_approx, eig_sym,
                       eta_of_eps, perron, sign_matrix_of,
                       validate_projection)
from projconst.almostmin import _kyfan_via_lifting
from projconst.seeds import get_seed, paley

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


def pipeline_spec(seed, n, eps):
    """The blow-up that almost_minimal builds from ``seed``."""
    _, v = perron(seed.abs_entries())
    weights = v * v
    weights = weights / weights.sum()
    k = choose_k(n, seed.d, eta_of_eps(n, eps), float(weights.min()))
    return BlowupSpec(sign_matrix_of(seed), dirichlet_approx(weights, k).p)


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
        p = _kyfan_via_lifting(spec, n)
        assert np.abs(v @ v.T - p.entries).max() <= 1e-8


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

    def test_perturbed_seed_still_certifies(self):
        # a near-hexagonal subspace: rotate the hexagon plane slightly so
        # the Perron weights are no longer exactly uniform
        from scipy.linalg import expm

        from projconst import ResourceExhausted
        rng = np.random.default_rng(61)
        base = get_seed("hex3").entries
        g = rng.standard_normal((3, 3)) * 0.05
        g = g - g.T  # skew-symmetric generator
        rot = expm(g)
        seed = validate_projection(rot @ base @ rot.T, 2)
        if not seed.abs_is_positive():
            pytest.skip("perturbation produced a zero entry")
        try:
            res = almost_minimal(2, 32.0, seed)
        except ResourceExhausted:
            pytest.skip("irrational weights demanded an oversized blow-up")
        cert = res.cert
        assert cert.r - 1e-9 <= cert.rho <= cert.R + 1e-9
        if res.converged and cert.lower_bound is not None:
            assert cert.lower_bound <= cert.op_norm_l1 + 1e-9
