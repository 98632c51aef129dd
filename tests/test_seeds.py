import numpy as np
import pytest

from projconst import PreconditionError, etf_bound
from projconst.seeds import C_ICOSA, SEEDS, get_seed, paley, perturbed_hex3

PHI = (1 + np.sqrt(5)) / 2


def test_conference_matrix_identity():
    assert np.array_equal(C_ICOSA, C_ICOSA.T)
    assert np.all(np.diag(C_ICOSA) == 0)
    assert np.all(np.abs(C_ICOSA + np.eye(6) * 1) >= 1)  # off-diagonal +-1
    assert np.array_equal(C_ICOSA @ C_ICOSA, 5 * np.eye(6))


@pytest.mark.parametrize("q", [5, 13, 17, 29])
def test_paley_conference_matrix(q):
    c = paley(q)
    assert c.shape == (q + 1, q + 1)
    assert np.array_equal(c, c.T)
    assert np.all(np.diag(c) == 0)
    assert np.array_equal(np.abs(c) + np.eye(q + 1), np.ones((q + 1, q + 1)))
    assert np.array_equal(c @ c, q * np.eye(q + 1))


@pytest.mark.parametrize("q", [1, 3, 7, 9, 25])
def test_paley_rejects_bad_order(q):
    with pytest.raises(PreconditionError, match="prime"):
        paley(q)


def test_all_seeds_validate():
    for name in SEEDS:
        p = get_seed(name)
        assert np.abs(p.entries @ p.entries - p.entries).max() <= 1e-12


def test_positivity_of_named_seeds():
    assert get_seed("hex3").abs_is_positive()
    assert get_seed("icosa6").abs_is_positive()


def test_icosa_row_sums_are_golden():
    sums = np.abs(get_seed("icosa6").entries).sum(axis=1)
    assert np.abs(sums - PHI).max() <= 1e-12


@pytest.mark.parametrize("name, q", [("icosa6", 5), ("paley13", 13),
                                     ("paley17", 17)])
def test_paley_seed_row_sums_attain_etf_bound(name, q):
    p = get_seed(name)
    assert (p.d, p.n) == (q + 1, (q + 1) // 2)
    sums = np.abs(p.entries).sum(axis=1)
    assert np.abs(sums - etf_bound(p.n, p.d)).max() <= 1e-12
    assert np.abs(sums - (1 + np.sqrt(q)) / 2).max() <= 1e-12


def test_unknown_seed():
    with pytest.raises(PreconditionError):
        get_seed("nosuch")


def test_perturbed_hex3_keeps_the_hexagonal_pattern():
    rng = np.random.default_rng(3)
    for _ in range(5):
        p = perturbed_hex3(rng)
        assert p.n == 2 and p.abs_is_positive()
        assert np.array_equal(np.sign(p.entries), 2 * np.eye(3) - 1)
