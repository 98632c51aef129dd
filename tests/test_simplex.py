import numpy as np
import pytest
from scipy.optimize import linprog

from projconst._simplex import solve_lp
from projconst.errors import NumericalError


class TestKnownSolutions:
    def test_bounded_box(self):
        res = solve_lp([-1, -2], a_ub=[[1, 1], [1, 0], [0, 1]], b_ub=[4, 3, 2])
        assert np.allclose(res.x, [2, 2]) and abs(res.value + 6) <= 1e-9

    def test_equality_only(self):
        res = solve_lp([1, 1], a_eq=[[1, -1]], b_eq=[1])
        assert abs(res.value - 1.0) <= 1e-9

    def test_minimax_form(self):
        res = solve_lp([0, 0, 1], a_eq=[[1, 1, 0]], b_eq=[1],
                       a_ub=[[1, 0, -1], [0, 1, -1]], b_ub=[0, 0])
        assert abs(res.value - 0.5) <= 1e-9

    def test_degenerate_cycling_guard(self):
        # Beale's classic cycling example; Bland's rule must terminate
        c = [-0.75, 150, -0.02, 6]
        a_ub = [[0.25, -60, -0.04, 9],
                [0.5, -90, -0.02, 3],
                [0, 0, 1, 0]]
        b_ub = [0, 0, 1]
        res = solve_lp(c, a_ub=a_ub, b_ub=b_ub)
        assert abs(res.value + 0.05) <= 1e-9

    def test_negative_rhs(self):
        # x >= 1 written as -x <= -1
        res = solve_lp([1], a_ub=[[-1]], b_ub=[-1])
        assert abs(res.value - 1.0) <= 1e-9

    def test_infeasible_raises(self):
        with pytest.raises(NumericalError):
            solve_lp([1], a_eq=[[1], [1]], b_eq=[1, 2])

    def test_unbounded_raises(self):
        with pytest.raises(NumericalError):
            solve_lp([-1], a_ub=[[-1]], b_ub=[0])

    def test_redundant_equalities(self):
        res = solve_lp([1, 1], a_eq=[[1, 1], [2, 2]], b_eq=[1, 2])
        assert abs(res.value - 1.0) <= 1e-9


class TestAgainstScipy:
    def test_random_feasible_problems(self):
        rng = np.random.default_rng(40)
        for _ in range(120):
            nv = int(rng.integers(2, 8))
            me = int(rng.integers(0, 3))
            mu = int(rng.integers(1, 7))
            x0 = rng.random(nv)
            a_eq = rng.standard_normal((me, nv)) if me else None
            b_eq = a_eq @ x0 if me else None
            a_ub = rng.standard_normal((mu, nv))
            b_ub = a_ub @ x0 + rng.random(mu)
            c = rng.standard_normal(nv)
            ref = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                          bounds=(0, None))
            if ref.status == 3:  # unbounded
                with pytest.raises(NumericalError):
                    solve_lp(c, a_eq, b_eq, a_ub, b_ub)
                continue
            assert ref.status == 0
            res = solve_lp(c, a_eq, b_eq, a_ub, b_ub)
            assert abs(res.value - ref.fun) <= 1e-6 * max(1.0, abs(ref.fun))
            # feasibility of the returned point
            assert np.all(res.x >= -1e-9)
            if me:
                assert np.abs(a_eq @ res.x - b_eq).max() <= 1e-7
            assert np.max(a_ub @ res.x - b_ub) <= 1e-7


class TestFeasibleStart:
    def test_slack_start_matches_two_phase(self):
        rng = np.random.default_rng(41)
        solved = 0
        for _ in range(120):
            nv = int(rng.integers(2, 8))
            mu = int(rng.integers(1, 7))
            a_ub = rng.standard_normal((mu, nv))
            b_ub = rng.random(mu)
            c = rng.standard_normal(nv)
            slacks = nv + np.arange(mu)
            try:
                ref = solve_lp(c, a_ub=a_ub, b_ub=b_ub)
            except NumericalError:
                with pytest.raises(NumericalError, match="unbounded"):
                    solve_lp(c, a_ub=a_ub, b_ub=b_ub, start=slacks)
                continue
            res = solve_lp(c, a_ub=a_ub, b_ub=b_ub, start=slacks)
            scale = max(1.0, abs(ref.value))
            assert abs(res.value - ref.value) <= 1e-9 * scale
            assert np.max(a_ub @ res.x - b_ub) <= 1e-7
            assert abs(b_ub @ res.duals - res.value) <= 1e-9 * scale
            assert np.all(res.duals <= 1e-9)
            solved += 1
        # the other 58 draws of this seed are unbounded
        assert solved == 62

    def test_duals_in_caller_signs(self):
        # min x1 + 2 x2 s.t. x1 + x2 = 1 and -x2 <= -0.25 (stored negated,
        # as its rhs is negative): x = (0.75, 0.25) with duals (1, -1)
        for start in (None, [0, 1]):
            res = solve_lp([1, 2], a_eq=[[1, 1]], b_eq=[1],
                           a_ub=[[0, -1]], b_ub=[-0.25], start=start)
            assert abs(res.value - 1.25) <= 1e-12
            assert np.allclose(res.duals, [1.0, -1.0], atol=1e-12)

    def test_infeasible_start_raises(self):
        # x = 0 (the slack basis) violates x >= 1
        with pytest.raises(NumericalError, match="infeasible start"):
            solve_lp([1], a_ub=[[-1]], b_ub=[-1], start=[1])

    def test_singular_start_raises(self):
        with pytest.raises(NumericalError, match="singular start"):
            solve_lp([1, 1], a_ub=[[1, 1], [2, 2]], b_ub=[1, 2],
                     start=[0, 1])
