import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from maxent_lab import (
    build_space,
    derive_lattice,
    entropy_bits,
    rational_tilt,
    solve_maxent,
)
from maxent_lab import solver
from maxent_lab.errors import (
    BoundaryTargetError,
    ConvergenceError,
    InternalCheckError,
    MaxentLabError,
    SingularCovarianceError,
)
from maxent_lab.solver import covariance_matrix, logsumexp

from conftest import BRANDEIS_MASSES


class TestSolveMaxent:
    def test_brandeis_masses(self, dice, dice_constraint, dice_solution):
        assert np.abs(dice_solution.pmf - np.array(BRANDEIS_MASSES)).max() < 1e-4

    def test_unconstrained_optimum_is_prior(self, dice):
        cons = derive_lattice([[x] for x in range(1, 7)], ["7/2"])
        sol = solve_maxent(dice, cons)
        assert np.abs(sol.beta).max() < 1e-8
        assert np.abs(sol.pmf - dice.prior).max() < 1e-10
        assert abs(sol.entropy_bits) < 1e-12

    def test_binary_mean_pins_distribution(self, coin, coin03_solution):
        assert coin03_solution.pmf[1] == pytest.approx(0.3, abs=1e-12)
        assert coin03_solution.pmf[0] == pytest.approx(0.7, abs=1e-12)

    def test_residual_within_tolerance(self, dice_solution):
        assert dice_solution.residual <= 1e-10

    def test_masses_normalized(self, dice_solution, cube3_solution):
        assert abs(dice_solution.pmf.sum() - 1.0) < 1e-12
        assert abs(cube3_solution.pmf.sum() - 1.0) < 1e-12

    def test_monotone_dual_descent(self, dice_solution):
        path = dice_solution.dual_path
        assert all(b < a for a, b in zip(path, path[1:]))

    def test_ratio_constancy_across_equal_statistic_values(self):
        space = build_space("abc", [1, 2, 3])
        cons = derive_lattice([[1], [1], [2]], [Fraction(3, 2)])
        sol = solve_maxent(space, cons)
        ratios = sol.pmf / space.prior
        assert abs(ratios[0] / ratios[1] - 1.0) < 1e-12

    def test_boundary_target_rejected(self, coin):
        cons = derive_lattice([[0], [1]], [0])
        with pytest.raises(BoundaryTargetError):
            solve_maxent(coin, cons)

    def test_combined_dice_constraint_is_boundary(self, dice):
        # the three-constraint variant concentrates all mass on {4, 5}
        values = [[x, int(x == 4), int(x == 5)] for x in range(1, 7)]
        cons = derive_lattice(values,
                              [Fraction(9, 2), Fraction(1, 2), Fraction(1, 2)])
        with pytest.raises(BoundaryTargetError):
            solve_maxent(dice, cons)

    def test_affinely_dependent_coordinates_rejected(self, pair):
        values = [[0, 0], [1, 2], [1, 2], [2, 4]]
        cons = derive_lattice(values, [1, 2])
        with pytest.raises(SingularCovarianceError):
            solve_maxent(pair, cons)

    def test_no_convergence_error(self, dice, dice_constraint, monkeypatch):
        monkeypatch.setattr(solver, "MAX_ITER", 1)
        with pytest.raises(ConvergenceError):
            solve_maxent(dice, dice_constraint)

    @pytest.mark.parametrize("instance", ["dice", "pair"])
    def test_gradient_matches_finite_differences(self, instance, dice,
                                                 dice_constraint, pair,
                                                 pair_constraint):
        space, constraint = {
            "dice": (dice, dice_constraint),
            "pair": (pair, pair_constraint),
        }[instance]
        values = constraint.values_float
        target = constraint.target_float
        logq = np.log(space.prior)
        k = constraint.dim

        def dual(beta):
            logw = logq - values @ beta
            m = logw.max()
            return m + math.log(np.exp(logw - m).sum()) + float(beta @ target)

        def gradient(beta):
            logw = logq - values @ beta
            p = np.exp(logw - logw.max())
            p /= p.sum()
            return target - p @ values

        rng = np.random.default_rng(12345)
        step = 1e-6
        for _ in range(10):
            beta = rng.normal(size=k)
            grad = gradient(beta)
            for j in range(k):
                e = np.zeros(k)
                e[j] = step
                fd = (dual(beta + e) - dual(beta - e)) / (2 * step)
                assert abs(fd - grad[j]) < 1e-4


class TestCovariance:
    def test_fair_coin(self, coin, coin_constraint, coin_solution):
        sigma = covariance_matrix(coin_solution.pmf,
                                  coin_constraint.values_float)
        assert sigma.shape == (1, 1)
        assert sigma[0, 0] == pytest.approx(0.25, abs=1e-12)

    def test_cube_diagonal(self, cube3, cube3_constraint, cube3_solution):
        sigma = covariance_matrix(cube3_solution.pmf,
                                  cube3_constraint.values_float)
        assert np.abs(sigma - np.diag([0.25] * 3)).max() < 1e-12

    def test_brandeis_variance_direct_sum(self, dice_constraint, dice_solution):
        # independent oracle: plain mass-weighted second moment
        p = dice_solution.pmf
        x = np.arange(1, 7)
        direct = float((p * x * x).sum() - (p * x).sum() ** 2)
        assert dice_solution.covariance[0, 0] == pytest.approx(direct, abs=1e-12)

    def test_symmetric_psd(self, cube3_solution):
        sigma = cube3_solution.covariance
        assert np.abs(sigma - sigma.T).max() < 1e-14
        assert np.linalg.eigvalsh(sigma).min() >= -1e-14


class TestEntropyBits:
    def test_zero_at_prior(self, dice):
        cons = derive_lattice([[x] for x in range(1, 7)], ["7/2"])
        assert abs(entropy_bits(solve_maxent(dice, cons))) < 1e-12

    def test_biased_coin_hand_formula(self, coin03_solution):
        expected = -(0.3 * math.log2(0.3 / 0.5) + 0.7 * math.log2(0.7 / 0.5))
        assert entropy_bits(coin03_solution) == pytest.approx(expected, abs=1e-12)

    def test_dual_formula_cross_check(self, dice_solution):
        direct = entropy_bits(dice_solution)
        closed = (float(dice_solution.beta @ dice_solution.target)
                  + dice_solution.logz) / math.log(2)
        assert abs(direct - closed) < 1e-10

    def test_nonpositive(self, dice_solution, coin03_solution):
        assert dice_solution.entropy_bits < 0
        assert coin03_solution.entropy_bits < 0

    def test_corrupt_solution_raises_typed_error(self, dice_solution):
        corrupt = dataclasses.replace(dice_solution, logz=dice_solution.logz + 1e-6)
        with pytest.raises(InternalCheckError, match="entropy cross-check"):
            entropy_bits(corrupt)
        assert issubclass(InternalCheckError, MaxentLabError)

    def test_failed_check_after_convergence_raises_typed_error(
            self, dice, dice_constraint, monkeypatch):
        sum_bits = solver._entropy_sum_bits
        monkeypatch.setattr(solver, "_entropy_sum_bits",
                            lambda pmf, prior: sum_bits(pmf, prior) + 1e-6)
        with pytest.raises(InternalCheckError, match="after convergence"):
            solve_maxent(dice, dice_constraint)


class TestLogSumExp:
    def test_bit_identical_to_scipy(self):
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(20240301)
        for trial in range(2000):
            a = rng.normal(size=int(rng.integers(1, 200))) \
                * 10.0 ** rng.uniform(-3, 3)
            if trial % 3 == 0:
                a = np.round(a)  # repeated maxima
            if trial % 5 == 0:
                a[rng.integers(0, a.size)] = -np.inf
            assert logsumexp(a) == special.logsumexp(a)
        for a in ([np.inf, 1.0], [-np.inf, -np.inf], [1e308, 1e308]):
            assert logsumexp(np.array(a)) == special.logsumexp(np.array(a))


class TestRationalTilt:
    def test_exact_normalization(self, dice, dice_constraint):
        masses = rational_tilt(dice, dice_constraint, [Fraction(2, 3)])
        assert sum(masses) == 1
        assert all(m > 0 for m in masses)

    def test_constant_ratio_on_constraint_levels(self, dice, dice_constraint):
        masses = rational_tilt(dice, dice_constraint, [Fraction(2, 3)])
        # ratio to the prior is geometric in the unit coordinate
        for i, (m, q) in enumerate(zip(masses, dice.prior_fractions)):
            u = dice_constraint.units[i][0]
            expected = (m / q) / (masses[0] / dice.prior_fractions[0])
            assert expected == Fraction(2, 3) ** u


@st.composite
def interior_problems(draw):
    """(space, constraint) with |X| <= 8, k <= 3, affinely independent
    rational statistic rows and a target that is a convex combination of
    them with every weight >= 1/100, so strictly inside the hull."""
    k = draw(st.integers(1, 3))
    size = draw(st.integers(k + 1, 8))
    prior = draw(st.lists(st.integers(1, 12), min_size=size, max_size=size))
    scales = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    values = [[Fraction(draw(st.integers(-4, 4)), d) for d in scales]
              for _ in range(size)]
    rows = np.array([[float(v) for v in row] + [1.0] for row in values])
    assume(np.linalg.matrix_rank(rows) == k + 1)
    raw = draw(st.lists(st.integers(1, 100), min_size=size, max_size=size))
    lam = [Fraction(1, 100) + Fraction(100 - size, 100) * Fraction(w, sum(raw))
           for w in raw]
    target = [sum(l * row[j] for l, row in zip(lam, values)) for j in range(k)]
    return build_space(list(range(size)), prior), derive_lattice(values, target)


def _bracketed_root(prior, values, target):
    """beta with E_beta[T] = target for k = 1, by bisection: the tilted mean
    q(x) exp(-beta x) / Z falls strictly in beta."""
    def mean(beta):
        logw = np.log(prior) - beta * values
        w = np.exp(logw - logw.max())
        return float(w @ values / w.sum())

    lo, hi = -1.0, 1.0
    while mean(lo) <= target:
        lo *= 2.0
    while mean(hi) >= target:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if mean(mid) > target else (lo, mid)
    return 0.5 * (lo + hi)


class TestEveryInteriorTargetSolves:
    @settings(max_examples=300, deadline=None)
    @given(interior_problems())
    def test_solves_within_tolerance(self, problem):
        space, constraint = problem
        sol = solve_maxent(space, constraint)
        assert sol.residual <= 1e-10
        assert entropy_bits(sol) == sol.entropy_bits
        if constraint.dim == 1:
            values = constraint.values_float[:, 0]
            root = _bracketed_root(space.prior, values, constraint.target_float[0])
            # |beta - beta*| = residual / Var(T) at a point between them
            variance = float(sol.covariance[0, 0])
            assert abs(sol.beta[0] - root) <= \
                2.0 * 1e-10 / variance + 1e-12 * max(1.0, abs(root))

    @pytest.mark.parametrize("tenths", range(11, 60))
    def test_every_die_target(self, dice, tenths):
        cons = derive_lattice([[x] for x in range(1, 7)], [Fraction(tenths, 10)])
        assert solve_maxent(dice, cons).residual <= 1e-10
