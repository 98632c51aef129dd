import math

import numpy as np
import pytest
from scipy.optimize import linprog

from projconst import SubspaceBasis, _simplex, min_projection_norm
from projconst._simplex import solve_lp
from projconst.errors import NumericalError


def with_slacks(a_ub):
    """[A | I]: one slack column per row of A."""
    a_ub = np.asarray(a_ub, dtype=float)
    return np.hstack([a_ub, np.eye(a_ub.shape[0])])


def vertex_basis(a, b, cost):
    """A feasible basis of a x = b, x >= 0: the support of the vertex that
    HiGHS finds for the bounded objective ``cost`` >= 0, completed to m
    independent columns."""
    found = linprog(cost, A_eq=a, b_eq=b, bounds=(0, None),
                    method="highs-ds")
    assert found.status == 0, found.message
    basis = [int(j) for j in np.nonzero(found.x > 1e-9)[0]]
    for j in range(a.shape[1]):
        if len(basis) == a.shape[0]:
            break
        if j not in basis and np.linalg.matrix_rank(
                a[:, basis + [j]]) == len(basis) + 1:
            basis.append(j)
    assert np.linalg.matrix_rank(a[:, basis]) == a.shape[0]
    return basis


class TestKnownSolutions:
    def test_bounded_box(self):
        a = with_slacks([[1, 1], [1, 0], [0, 1]])
        res = solve_lp([-1, -2, 0, 0, 0], a, [4, 3, 2], [2, 3, 4])
        assert np.allclose(res.x, [2, 2, 0, 1, 0])
        assert abs(res.value + 6) <= 1e-9

    def test_equality_only(self):
        # min x1 + x2 s.t. x1 - x2 = 1, from x1 = 1
        res = solve_lp([1, 1], [[1, -1]], [1], [0])
        assert np.allclose(res.x, [1, 0]) and abs(res.value - 1.0) <= 1e-9

    def test_minimax_form(self):
        # min t s.t. x1 + x2 = 1, x1 - t + s1 = 0, x2 - t + s2 = 0, from
        # the basis x1 = 1, t = 1, s2 = 1
        a = [[1, 1, 0, 0, 0], [1, 0, -1, 1, 0], [0, 1, -1, 0, 1]]
        res = solve_lp([0, 0, 1, 0, 0], a, [1, 0, 0], [0, 2, 4])
        assert abs(res.value - 0.5) <= 1e-9 and res.iterations > 0

    def test_degenerate_cycling_guard(self):
        # Beale's classic cycling example; Bland's rule must terminate
        c = [-0.75, 150, -0.02, 6, 0, 0, 0]
        a = with_slacks([[0.25, -60, -0.04, 9],
                         [0.5, -90, -0.02, 3],
                         [0, 0, 1, 0]])
        res = solve_lp(c, a, [0, 0, 1], [4, 5, 6])
        assert abs(res.value + 0.05) <= 1e-9

    def test_kuhn_cycles_until_bland(self):
        # Kuhn's example cycles under Dantzig pricing with the largest-pivot
        # tie-break; only the switch to Bland's rule after 64 degenerate
        # pivots reaches the optimum
        c = [-2, -3, 1, 12, 0, 0, 0]
        a = with_slacks([[-2, -9, 1, 9],
                         [1 / 3, 1, -1 / 3, -2],
                         [2, 3, -1, -12]])
        b = [0, 0, 2]
        res = solve_lp(c, a, b, [4, 5, 6])
        ref = linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
        assert ref.status == 0, ref.message
        assert abs(res.value - ref.fun) <= 1e-9
        assert abs(res.value + 2) <= 1e-9
        assert res.iterations > 64

    def test_hall_mckinnon_cycles_until_bland(self):
        # Hall and McKinnon's 2 x 4 cycling LP (maximize, negated here):
        # Bland's rule escapes the cycle and finds the unbounded ray
        c = [-2.3, -2.15, 13.55, 0.4, 0, 0]
        a = with_slacks([[0.4, 0.2, -1.4, -0.2],
                         [-7.8, -1.4, 7.8, 0.4]])
        ref = linprog(c, A_eq=a, b_eq=[0, 0], bounds=(0, None),
                      method="highs")
        assert ref.status == 3, ref.message
        with pytest.raises(NumericalError, match="unbounded"):
            solve_lp(c, a, [0, 0], [4, 5])

    def test_unbounded_raises(self):
        # min -x s.t. -x + s = 0
        with pytest.raises(NumericalError, match="unbounded"):
            solve_lp([-1, 0], [[-1, 1]], [0], [1])


def random_feasible_problems():
    """120 draws of equality and inequality rows with a feasible point x0,
    in the form [[A_eq, 0], [A_ub, I]] x = b, each with the real objective
    c and a start basis at a vertex that HiGHS finds for a positive
    objective."""
    rng = np.random.default_rng(40)
    for _ in range(120):
        nv = int(rng.integers(2, 8))
        me = int(rng.integers(0, 3))
        mu = int(rng.integers(1, 7))
        x0 = rng.random(nv)
        a_eq = rng.standard_normal((me, nv))
        a_ub = rng.standard_normal((mu, nv))
        a = np.block([[a_eq, np.zeros((me, mu))], [a_ub, np.eye(mu)]])
        b = np.concatenate([a_eq @ x0, a_ub @ x0 + rng.random(mu)])
        c = np.concatenate([rng.standard_normal(nv), np.zeros(mu)])
        yield c, a, b, vertex_basis(a, b, rng.random(nv + mu))


class TestAgainstScipy:
    def test_random_feasible_problems(self):
        # against HiGHS on the real objective
        solved = 0
        for c, a, b, start in random_feasible_problems():
            ref = linprog(c, A_eq=a, b_eq=b, bounds=(0, None),
                          method="highs")
            if ref.status == 3:
                with pytest.raises(NumericalError, match="unbounded"):
                    solve_lp(c, a, b, start)
                continue
            assert ref.status == 0, ref.message
            res = solve_lp(c, a, b, start)
            scale = max(1.0, abs(ref.fun))
            assert abs(res.value - ref.fun) <= 1e-9 * scale
            assert np.all(res.x >= 0)
            assert np.abs(a @ res.x - b).max() <= 1e-9
            assert abs(b @ res.duals - res.value) <= 1e-9 * scale
            assert np.min(c - a.T @ res.duals) >= -1e-9
            solved += 1
        # the other 41 draws of this seed are unbounded
        assert solved == 79


def fresh_and_updated(monkeypatch, solve):
    """``solve()`` with B factorized afresh on every pivot, then with the
    default rank-one updates of B^-1 between factorizations; an error
    comes back as its message."""
    outcomes = []
    for every in (1, _simplex._REFACTOR_EVERY):
        with monkeypatch.context() as m:
            m.setattr(_simplex, "_REFACTOR_EVERY", every)
            try:
                outcomes.append(solve())
            except NumericalError as exc:
                outcomes.append(str(exc))
    return outcomes


def fresh_at_optimum(pivots):
    """The fewest factorizations of B that end on a fresh one: the start,
    then one at the end of each run of up to _REFACTOR_EVERY pivots."""
    return 1 + math.ceil(pivots / _simplex._REFACTOR_EVERY)


class TestUpdatedInverse:
    # At pivot 6 of the d = 10 linf LP, Dantzig pricing sees several
    # reduced costs equal to within 4e-15, and the two paths pick
    # different columns.
    NEAR_TIES = {(10, "linf")}

    def test_random_feasible_problems(self, monkeypatch):
        for c, a, b, start in random_feasible_problems():
            fresh, updated = fresh_and_updated(
                monkeypatch, lambda: solve_lp(c, a, b, start))
            if isinstance(fresh, str):
                assert updated == fresh
                continue
            assert updated.iterations == fresh.iterations
            assert fresh.refactorizations == fresh.iterations + 1
            assert (updated.refactorizations
                    >= fresh_at_optimum(updated.iterations))
            assert abs(updated.value - fresh.value) <= 1e-12
            assert abs(b @ updated.duals - updated.value) <= 1e-9
            assert np.min(c - a.T @ updated.duals) >= -1e-9

    @pytest.mark.parametrize("d, space", [(10, "l1"), (10, "linf"),
                                          (12, "l1"), (12, "linf")])
    def test_relproj_lps(self, monkeypatch, d, space):
        # the d = 10 and 12 LPs of test_relproj's differential cases
        v = np.random.default_rng(3000 + d).standard_normal((d, d // 2))
        basis = SubspaceBasis(v)
        fresh, updated = fresh_and_updated(
            monkeypatch, lambda: min_projection_norm(basis, space))
        assert abs(updated.value - fresh.value) <= 1e-12
        assert abs(updated.witness.value - updated.value) <= 1e-9
        if (d, space) not in self.NEAR_TIES:
            assert updated.pivots == fresh.pivots
        assert fresh.refactorizations == fresh.pivots + 1
        assert (fresh_at_optimum(updated.pivots) <= updated.refactorizations
                < fresh.refactorizations)


class TestFeasibleStart:
    def test_slack_start_matches_two_phase(self):
        # [A | I] x = b with b >= 0 from the slack basis, against HiGHS
        rng = np.random.default_rng(41)
        solved = 0
        for _ in range(120):
            nv = int(rng.integers(2, 8))
            m = int(rng.integers(1, 7))
            a = with_slacks(rng.standard_normal((m, nv)))
            b = rng.random(m)
            c = np.concatenate([rng.standard_normal(nv), np.zeros(m)])
            slacks = nv + np.arange(m)
            ref = linprog(c, A_eq=a, b_eq=b, bounds=(0, None), method="highs")
            if ref.status == 3:
                with pytest.raises(NumericalError, match="unbounded"):
                    solve_lp(c, a, b, slacks)
                continue
            assert ref.status == 0, ref.message
            res = solve_lp(c, a, b, slacks)
            scale = max(1.0, abs(ref.fun))
            assert abs(res.value - ref.fun) <= 1e-9 * scale
            assert np.all(res.x >= 0)
            assert np.abs(a @ res.x - b).max() <= 1e-9
            assert abs(b @ res.duals - res.value) <= 1e-9 * scale
            # dual feasibility: no column prices below zero
            assert np.min(c - a.T @ res.duals) >= -1e-9
            solved += 1
        # the other 58 draws of this seed are unbounded
        assert solved == 62

    def test_duals_in_caller_signs(self):
        # min x1 + 2 x2 s.t. x1 + x2 = 1 and -x2 + s = -0.25 (a negative
        # rhs kept as given): x = (0.75, 0.25, 0) with duals (1, -1)
        res = solve_lp([1, 2, 0], [[1, 1, 0], [0, -1, 1]], [1, -0.25],
                       [0, 1])
        assert abs(res.value - 1.25) <= 1e-12
        assert np.allclose(res.x, [0.75, 0.25, 0], atol=1e-12)
        assert np.allclose(res.duals, [1.0, -1.0], atol=1e-12)

    def test_infeasible_start_raises(self):
        # the slack basis s = -1 violates x >= 1, written -x + s = -1
        with pytest.raises(NumericalError, match="infeasible start"):
            solve_lp([1, 0], [[-1, 1]], [-1], [1])

    def test_singular_start_raises(self):
        with pytest.raises(NumericalError, match="singular start"):
            solve_lp([1, 1, 0, 0], with_slacks([[1, 1], [2, 2]]), [1, 2],
                     [0, 1])
