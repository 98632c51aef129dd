"""Public constructors refuse non-finite and negative parameters."""

import numpy as np
import pytest

from projconst import (InvariantViolation, PreconditionError, sign_matrix_of,
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
