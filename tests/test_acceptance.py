"""Acceptance suite: one test per shipped guarantee.

Each test prints a single PASS/FAIL line (visible with
``pytest tests/test_acceptance.py -s`` or in the captured output).
All tolerances are pinned here, not configurable.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from projconst import (BlowupSpec, ResourceExhausted, SignMatrix,
                       SubspaceBasis, almost_minimal, attainment_check,
                       blow_up, certify, dirichlet_approx, eig_sym,
                       exhaustive_pi, gruenbaum_floor, kyfan_sum,
                       min_projection_norm, nu1, perron, pi_n_general,
                       sign_matrix_of, spectral_gap_bound, trace_certificate,
                       validate_projection)
from projconst.cli import main as cli_main
from projconst.seeds import C_ICOSA, get_seed

PHI = (1 + np.sqrt(5)) / 2
GAP_THRESHOLD = np.sqrt(3.0) - 1.0


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {description}")
        raise
    print(f"[PASS] criterion {num}: {description}")


@pytest.fixture(scope="module")
def hex_search():
    t0 = time.perf_counter()
    result = exhaustive_pi(2, 3)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def icosa_search():
    t0 = time.perf_counter()
    result = exhaustive_pi(3, 6)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def pipelines():
    return {name: almost_minimal(n, 0.1, get_seed(name))
            for name, n in (("hex3", 2), ("icosa6", 3))}


def test_criterion_01_hexagon_exhaustive(capsys):
    with criterion(1, "Pi(2,3) = 4/3 via CLI exhaustive search, < 1 s"):
        t0 = time.perf_counter()
        code = cli_main(["search", "--n", "2", "--d", "3", "--exhaustive"])
        elapsed = time.perf_counter() - t0
        out = capsys.readouterr().out
        assert code == 0
        assert abs(json.loads(out)["value"] - 4 / 3) <= 1e-9
        assert elapsed < 1.0


def test_criterion_02_golden_ratio_certificates():
    with criterion(2, "icosahedral certificate and LP both give phi, < 5 s"):
        t0 = time.perf_counter()
        cert = certify(get_seed("icosa6"))
        for x in (cert.rho, cert.r, cert.R, cert.op_norm_l1,
                  cert.lower_bound):
            assert abs(x - PHI) <= 1e-10
        basis = SubspaceBasis(
            eig_sym(get_seed("icosa6").entries).eigenvectors[:, :3])
        lp_value, _ = min_projection_norm(basis, "l1")
        assert abs(lp_value - PHI) <= 1e-6
        assert time.perf_counter() - t0 < 5.0


def test_criterion_03_exhaustive_n3_d6(icosa_search):
    with criterion(3, "exhaustive (3,6) attains phi with all equalities, "
                      "< 60 s"):
        result, elapsed = icosa_search
        assert result.value >= PHI - 1e-8
        att = attainment_check(result.S, 3, reference=PHI)
        assert att.equalities_hold and att.attained
        assert elapsed < 60.0


def test_criterion_04_pipeline_fixed_points(pipelines):
    with criterion(4, "pipeline on hex3/icosa6 at eps=0.1: zero gaps and "
                      "the row-sum display"):
        for res in pipelines.values():
            assert res.converged
            assert abs(res.cert.gap_rows) <= 1e-9
            assert abs(res.cert.gap_minimality) <= 1e-9
            abs_sum = float(res.P.abs_entries().sum())
            assert abs_sum <= res.d * res.cert.rho + 1e-9
            assert res.d * res.cert.rho <= abs_sum + res.eta


def test_criterion_05_kyfan_suite():
    with criterion(5, "Ky Fan bound on 500 random pairs; equality cases "
                      "commute"):
        rng = np.random.default_rng(2024)
        violations = 0
        for _ in range(500):
            d = int(rng.integers(2, 11))
            n = int(rng.integers(1, d + 1))
            a = rng.standard_normal((d, d))
            a = a + a.T
            q, _ = np.linalg.qr(rng.standard_normal((d, n)))
            p = q @ q.T
            if float(np.trace(a @ p)) > pi_n_general(a, n) + 1e-9:
                violations += 1
        assert violations == 0
        for _ in range(100):
            d = int(rng.integers(2, 11))
            n = int(rng.integers(1, d + 1))
            a = rng.standard_normal((d, d))
            a = a + a.T
            value, p = kyfan_sum(a, n)
            assert abs(np.trace(a @ p.entries) - value) <= 1e-10
            assert np.abs(a @ p.entries - p.entries @ a).max() <= 1e-7


def test_criterion_06_blowup_spectra():
    with criterion(6, "blow-up spectral identity on 200 random specs"):
        rng = np.random.default_rng(2025)
        for _ in range(200):
            m = int(rng.integers(1, 6))
            upper = rng.integers(0, 2, size=(m, m))
            s = np.triu(2.0 * upper - 1.0, 1)
            base = SignMatrix(s + s.T + np.eye(m))
            mult = tuple(int(x) for x in rng.integers(1, 5, m))
            spec = BlowupSpec(base, mult)
            big = blow_up(spec)
            p_sqrt = np.diag(np.sqrt(np.asarray(mult, dtype=float)))
            padded = np.sort(np.concatenate([
                np.linalg.eigvalsh(p_sqrt @ base.entries @ p_sqrt),
                np.zeros(spec.d - m)]))
            big_evals = np.sort(np.linalg.eigvalsh(big.entries))
            assert np.abs(big_evals - padded).max() <= 1e-8


def test_criterion_07_dirichlet_suite():
    with criterion(7, "Dirichlet approximation bounds on 100 weight "
                      "vectors, no cap exhaustion"):
        rng = np.random.default_rng(2026)
        exhausted = 0
        for _ in range(100):
            m = int(rng.integers(1, 5))
            w = (0.6 * rng.dirichlet(np.ones(m)) + 0.1) / (0.6 + 0.1 * m)
            w = w / w.sum()
            kmin = int((m - 1) / w.min()) + 1
            k = int(rng.integers(min(kmin, 50), 51))
            try:
                res = dirichlet_approx(w, k)
            except ResourceExhausted:
                exhausted += 1
                continue
            approx = np.asarray(res.p, dtype=float) / res.q
            if m > 1:
                head = np.abs(w[:-1] - approx[:-1]).max()
                assert res.q * head <= 1 / k + 1e-12
            assert np.abs(w - approx).sum() <= 2 * (m - 1) / k + 1e-12
        assert exhausted == 0


def test_criterion_08_weak_duality():
    with criterion(8, "trace certificates match/bound the LP on named and "
                      "random subspaces"):
        hex_basis = SubspaceBasis(
            np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]))
        hex_witness = trace_certificate(
            (2 * np.eye(3) - np.ones((3, 3))) / 3,
            hex_basis.orthogonal_projection(), "l1")
        hex_lp, _ = min_projection_norm(hex_basis, "l1")
        assert abs(hex_witness.value - hex_lp) <= 1e-7

        icosa_basis = SubspaceBasis(
            eig_sym(get_seed("icosa6").entries).eigenvectors[:, :3])
        icosa_witness = trace_certificate(
            (np.eye(6) + C_ICOSA) / 6, icosa_basis.orthogonal_projection(),
            "l1")
        icosa_lp, _ = min_projection_norm(icosa_basis, "l1")
        assert abs(icosa_witness.value - icosa_lp) <= 1e-7

        # A = P D Sgn(P), D the Perron weights of |P|, satisfies AP = PAP
        # by construction, so every draw with positive |P| reaches the LP.
        rng = np.random.default_rng(2027)
        checked = 0
        for _ in range(100):
            d = int(rng.integers(2, 9))
            n = int(rng.integers(1, min(d, 3) + 1))
            basis = SubspaceBasis(rng.standard_normal((d, n)))
            p = validate_projection(basis.orthogonal_projection(), n)
            if not p.abs_is_positive():
                continue
            _, v = perron(p.abs_entries())
            weights = v * v
            witness_mat = p.entries @ (
                (weights / weights.sum())[:, None]
                * sign_matrix_of(p).entries)
            witness_mat = witness_mat / nu1(witness_mat, "l1")
            witness = trace_certificate(
                witness_mat, basis.orthogonal_projection(), "l1")
            lp_value, _ = min_projection_norm(basis, "l1")
            assert witness.value <= lp_value + 1e-7
            checked += 1
        # all 92 draws of this seed with positive |P|
        assert checked == 92


def test_criterion_09_gruenbaum_floor(hex_search):
    with criterion(9, "Pi(2,3) = 4/3 exceeds the sqrt(2/pi) sqrt(2) floor"):
        result, _ = hex_search
        floor = gruenbaum_floor(2)
        assert abs(floor - 1.1283791671) <= 1e-9
        assert result.value > floor


def test_criterion_10_spectral_gap_bound(hex_search, icosa_search,
                                         pipelines):
    with criterion(10, "gap bound lambda2/lambda1 < sqrt(n)/l1 - "
                       "l1/(2 sqrt(n)) on all produced projections"):
        produced = [hex_search[0].P, icosa_search[0].P]
        produced += [res.P for res in pipelines.values()]
        checked = 0
        for p in produced:
            if p.n < 2 or not p.abs_is_positive():
                continue
            lam1 = eig_sym(p.abs_entries()).eigenvalues[0]
            if lam1 <= GAP_THRESHOLD * np.sqrt(p.n):
                continue
            res = spectral_gap_bound(p)
            assert res.applicable
            assert 0 < res.c < res.bound < 1
            checked += 1
        assert checked >= 4
