"""Public constructors refuse non-finite and negative parameters, and
closed forms refuse integers past the float range."""

import math

import numpy as np
import pytest

from projconst import (InvariantViolation, PreconditionError, choose_k,
                       etf_bound, eta_of_eps, gruenbaum_floor, sign_matrix_of,
                       validate_projection)
from projconst.relproj import SubspaceBasis

HEX_P = np.eye(3) - np.ones((3, 3)) / 3
BAD = [float("nan"), float("inf"), -float("inf"), -1e-12]


@pytest.mark.parametrize("tau", BAD)
def test_sign_matrix_rejects_bad_tau(tau):
    with pytest.raises(PreconditionError, match="tau must be finite"):
        sign_matrix_of(HEX_P, tau)


@pytest.mark.parametrize("tol", BAD)
def test_projection_rejects_bad_tol(tol):
    with pytest.raises(PreconditionError, match="tol must be finite"):
        validate_projection(HEX_P, 2, tol)


def test_zero_tolerances_are_exact():
    assert sign_matrix_of(np.zeros((2, 2)), 0.0).entries.min() == 1.0
    assert validate_projection(np.diag([1.0, 0.0]), 1, 0.0).n == 1
    # exactly symmetric but not idempotent
    with pytest.raises(InvariantViolation, match="idempotence"):
        validate_projection([[1.0, 0.3], [0.3, 0.0]], 1, 0.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_subspace_basis_rejects_non_finite(bad):
    v = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, bad]])
    with pytest.raises(PreconditionError, match="non-finite"):
        SubspaceBasis(v)


# Closed forms whose square root meets an integer past the float range:
# (call, message).  numpy's sqrt turns an int from 2^64 on into an object
# array, and math.sqrt overflows from 2^1024 - 2^970 on.
CLOSED_FORM_REFUSALS = [
    pytest.param(lambda: eta_of_eps(10**400, 1.0), "n does not fit",
                 id="eta-of-eps"),
    pytest.param(lambda: choose_k(10**400, 3, 0.5, 0.1), "n does not fit",
                 id="choose-k"),
    pytest.param(lambda: gruenbaum_floor(10**400), "n does not fit",
                 id="gruenbaum-floor"),
    pytest.param(lambda: etf_bound(1, 10**200),
                 r"n\(d-1\)\(d-n\) does not fit", id="etf-bound"),
]


@pytest.mark.parametrize("call, message", CLOSED_FORM_REFUSALS)
def test_closed_forms_refuse_integers_past_the_float_range(call, message):
    with pytest.raises(PreconditionError, match=message):
        call()


def test_closed_forms_take_integers_numpy_cannot():
    # 2^64 and the etf product n(d-1)(d-n) ~ 2^94 fit a float
    assert gruenbaum_floor(2**64) == math.sqrt(2 / math.pi) * 2.0**32
    assert etf_bound(2**31, 2**32) == 0.5 + math.sqrt(
        float(2**31 * (2**32 - 1) * 2**31)) / 2**32
