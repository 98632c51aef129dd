import numpy as np
import pytest

from projconst import (PreconditionError, ResourceExhausted, choose_k,
                       dirichlet_approx)


class TestChooseK:
    def test_examples(self):
        # 4 * 2 * sqrt(2) / (1/3) = 24 sqrt(2) ~ 33.94 -> 34
        assert choose_k(2, 3, 1.0, 1 / 3) == 34
        # m = 1 makes the bound zero -> smallest admissible k is 1
        assert choose_k(1, 1, 1.0, 1.0) == 1
        # 4 * 1 * 2 / 0.25 = 32, strictly greater -> 33
        assert choose_k(4, 2, 0.5, 0.5) == 33

    def test_rejects_bad_inputs(self):
        with pytest.raises(PreconditionError):
            choose_k(1, 1, 0.0, 1.0)
        with pytest.raises(PreconditionError):
            choose_k(0, 1, 1.0, 1.0)

    @pytest.mark.parametrize("eps, eps0", [(np.nan, 0.5), (1.0, np.nan),
                                           (np.inf, 0.5), (1.0, np.inf)])
    def test_rejects_non_finite(self, eps, eps0):
        with pytest.raises(PreconditionError, match="finite and positive"):
            choose_k(1, 2, eps, eps0)

    # eps * eps0 underflows to 0, or is 1e-310 and the bound overflows
    @pytest.mark.parametrize("eps, eps0", [(1e-200, 1e-200),
                                           (1e-300, 1e-10)])
    def test_rejects_eps_too_small_for_a_finite_k(self, eps, eps0):
        with pytest.raises(PreconditionError, match="finite k"):
            choose_k(2, 3, eps, eps0)


def assert_matches_plain_scan(w, k, q_cap):
    """The scan grows its chunks; the first hit and the first global
    minimum of one plain scan over q = 1..q_cap must not change."""
    prod = np.arange(1, q_cap + 1, dtype=float)[:, None] * w[:-1]
    errs = np.abs(prod - np.round(prod)).max(axis=1)
    hits = np.flatnonzero(errs <= 1 / k) + 1
    if hits.size:
        res = dirichlet_approx(w, k, q_cap=q_cap)
        assert res.q == hits[0]
        assert res.p[:-1] == tuple(int(x) for x in np.round(hits[0] * w[:-1]))
    else:
        with pytest.raises(ResourceExhausted) as err:
            dirichlet_approx(w, k, q_cap=q_cap)
        assert err.value.best_err == errs.min()
        assert err.value.best_q == int(np.argmin(errs)) + 1


class TestDirichletApprox:
    def test_already_rational(self):
        res = dirichlet_approx([1 / 3, 1 / 3, 1 / 3], 10)
        assert res.q == 3 and res.p == (1, 1, 1)

    def test_sqrt2_weights(self):
        res = dirichlet_approx([np.sqrt(2) - 1, 2 - np.sqrt(2)], 5)
        assert res.q == 2 and res.p == (1, 1)

    def test_halves(self):
        res = dirichlet_approx([0.5, 0.5], 100)
        assert res.q == 2 and res.p == (1, 1)

    def test_single_weight(self):
        res = dirichlet_approx([1.0], 7)
        assert res.q == 1 and res.p == (1,)

    def test_rejects_bad_weights(self):
        with pytest.raises(PreconditionError):
            dirichlet_approx([0.5, 0.6], 5)
        with pytest.raises(PreconditionError):
            dirichlet_approx([1.0, 0.0], 5)
        with pytest.raises(PreconditionError, match="finite"):
            dirichlet_approx([np.nan, 0.5], 3)

    def test_resource_error_reports_best(self):
        with pytest.raises(ResourceExhausted) as err:
            dirichlet_approx([1 / np.sqrt(2), 1 - 1 / np.sqrt(2)], 10**6,
                             q_cap=50)
        assert err.value.best_q is not None and 1 <= err.value.best_q <= 50

    def test_random_suite_invariants(self):
        # k is drawn above (m-1)/min(w), the regime where the rounded
        # multiplicities are guaranteed positive
        rng = np.random.default_rng(30)
        for _ in range(100):
            m = int(rng.integers(1, 5))
            w = (0.6 * rng.dirichlet(np.ones(m)) + 0.1) / (0.6 + 0.1 * m)
            w = w / w.sum()
            kmin = int((m - 1) / w.min()) + 1
            k = int(rng.integers(kmin, 51))
            res = dirichlet_approx(w, k)
            assert sum(res.p) == res.q
            assert all(x >= 1 for x in res.p)
            approx = np.asarray(res.p, dtype=float) / res.q
            if m > 1:
                head_err = np.abs(w[:-1] - approx[:-1]).max()
                assert res.q * head_err <= 1 / k + 1e-12
            assert np.abs(w - approx).sum() <= 2 * (m - 1) / k + 1e-12

    def test_minimality_of_q(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            m = int(rng.integers(2, 4))
            w = (0.6 * rng.dirichlet(np.ones(m)) + 0.1) / (0.6 + 0.1 * m)
            w = w / w.sum()
            kmin = int((m - 1) / w.min()) + 1
            k = int(rng.integers(kmin, 51))
            res = dirichlet_approx(w, k)
            for q in range(1, res.q):
                prod = q * w[:-1]
                assert np.abs(prod - np.round(prod)).max() > 1 / k

    @pytest.mark.parametrize("k, q_cap", [
        (40, 5000), (2000, 5000), (10**6, 5000), (10**6, 256), (10**6, 257)])
    def test_matches_linear_scan(self, k, q_cap):
        rng = np.random.default_rng(32)
        for m in (2, 3, 4):
            assert_matches_plain_scan(rng.dirichlet(np.ones(m)), k, q_cap)

    @pytest.mark.parametrize("q", [256, 257, 768, 769, 1793])
    def test_matches_linear_scan_at_chunk_edges(self, q):
        # 101/q + 1e-10 is within 1/k of a multiple only at q (k = 10^6),
        # and q is the unique best denominator below the cap (k = 10^8)
        w = np.array([101 / q + 1e-10, 1 - 101 / q - 1e-10])
        assert_matches_plain_scan(w, 10**6, q + 50)
        assert dirichlet_approx(w, 10**6, q_cap=q + 50).q == q
        assert_matches_plain_scan(w, 10**8, q + 50)

    def test_cap_exhausted_reports_first_minimum(self):
        # exact dyadic errors: q = 1 and q = 511 (another chunk) tie at
        # 1/512, and the tie goes to q = 1
        assert_matches_plain_scan(np.array([1 / 512, 511 / 512]), 1000, 511)
        with pytest.raises(ResourceExhausted) as err:
            dirichlet_approx([1 / 512, 511 / 512], 1000, q_cap=511)
        assert err.value.best_q == 1 and err.value.best_err == 1 / 512

    def test_dirichlet_guarantee_within_bound(self):
        # existence below k^(m-1) for irrational weights
        w = np.array([1 / np.sqrt(2), 1 - 1 / np.sqrt(2)])
        for k in (4, 7, 20):
            res = dirichlet_approx(w, k)
            assert res.q < k ** (len(w) - 1) + 1


# Refusals of dirichlet_approx: (weights, k, q_cap, error, message).
DIRICHLET_REFUSALS = [
    ([0.01, 0.99], 2, None, PreconditionError,
     r"rounded multiplicity nonpositive at q=1: \(0, 1\) "
     r"\(k too small for these weights\)"),
    ([], 3, None, PreconditionError, "weights must be a nonempty vector"),
    ([0.5, 0.5], 0, None, PreconditionError, "k must be >= 1"),
    ([1.0], 3, 0, PreconditionError, "q_cap must be >= 1"),
]


@pytest.mark.parametrize("weights, k, q_cap, error, message",
                         DIRICHLET_REFUSALS)
def test_dirichlet_refusals(weights, k, q_cap, error, message):
    with pytest.raises(error, match=message):
        dirichlet_approx(weights, k, q_cap)
