import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from maxent_lab import (
    SumTableProvider,
    build_space,
    central_series,
    constraint_prob,
    convolve,
    derive_lattice,
    rational_tilt,
    sum_distribution,
)
from maxent_lab import sumdist
from maxent_lab.errors import LatticeBlowupError, ValidationError


class TestSumDistribution:
    def test_coin_three_steps_binomial(self, coin, coin_constraint):
        sd = sum_distribution(coin, coin_constraint, 3, mode="rational")
        assert dict(sd.items()) == {
            (0,): Fraction(1, 8), (1,): Fraction(3, 8),
            (2,): Fraction(3, 8), (3,): Fraction(1, 8),
        }

    def test_empty_sum_is_point_mass(self, dice, dice_constraint):
        sd = sum_distribution(dice, dice_constraint, 0, mode="rational")
        assert dict(sd.items()) == {(0,): Fraction(1)}
        assert sd.mass_at_target() == 1

    def test_dice_pair_sum_nine(self, dice, dice_constraint):
        # oracle: direct enumeration of the 36 ordered pairs
        pairs = sum(1 for a, b in itertools.product(range(1, 7), repeat=2)
                    if a + b == 9)
        sd = sum_distribution(dice, dice_constraint, 2, mode="rational")
        # unit coordinates: sum 9 sits at 9 - 2*offset
        assert sd.mass_units((9 - 2,)) == Fraction(pairs, 36)
        assert pairs == 4

    def test_float_matches_rational(self, dice, dice_constraint):
        exact = sum_distribution(dice, dice_constraint, 6, mode="rational")
        numeric = sum_distribution(dice, dice_constraint, 6, mode="float")
        for units, mass in exact.items():
            assert numeric.mass_units(units) == pytest.approx(float(mass),
                                                              rel=1e-12)

    def test_total_mass(self, dice, dice_constraint):
        assert sum_distribution(dice, dice_constraint, 7).total() == \
            pytest.approx(1.0, abs=1e-9)
        assert sum_distribution(dice, dice_constraint, 5,
                                mode="rational").total() == 1

    def test_maxent_measure(self, dice, dice_constraint, dice_solution):
        sd = sum_distribution(dice, dice_constraint, 2, measure=dice_solution)
        p6 = dice_solution.pmf[5]
        assert sd.mass_units((10,)) == pytest.approx(p6 * p6, rel=1e-12)
        assert sd.measure_id == "maxent"


class TestConstraintProb:
    def test_coin_half(self, coin, coin_constraint):
        assert constraint_prob(coin, coin_constraint, 2,
                               mode="rational") == Fraction(1, 2)

    def test_infeasible_size_is_zero(self, dice, dice_constraint):
        assert constraint_prob(dice, dice_constraint, 1) == 0.0
        assert constraint_prob(dice, dice_constraint, 3,
                               mode="rational") == Fraction(0)

    def test_dice_pair(self, dice, dice_constraint):
        assert constraint_prob(dice, dice_constraint, 2,
                               mode="rational") == Fraction(1, 9)


class TestConvolution:
    @pytest.mark.parametrize("n1,n2", [(1, 1), (2, 3), (4, 2)])
    def test_exact_consistency(self, dice, dice_constraint, n1, n2):
        a = sum_distribution(dice, dice_constraint, n1, mode="rational")
        b = sum_distribution(dice, dice_constraint, n2, mode="rational")
        direct = sum_distribution(dice, dice_constraint, n1 + n2,
                                  mode="rational")
        assert dict(convolve(a, b).items()) == dict(direct.items())

    def test_exact_consistency_multidim(self, pair, pair_constraint):
        a = sum_distribution(pair, pair_constraint, 2, mode="rational")
        b = sum_distribution(pair, pair_constraint, 3, mode="rational")
        direct = sum_distribution(pair, pair_constraint, 5, mode="rational")
        assert dict(convolve(a, b).items()) == dict(direct.items())

    def test_float_consistency(self, dice, dice_constraint):
        a = sum_distribution(dice, dice_constraint, 3)
        b = sum_distribution(dice, dice_constraint, 4)
        direct = sum_distribution(dice, dice_constraint, 7)
        conv = convolve(a, b)
        for units, mass in direct.items():
            assert conv.mass_units(units) == pytest.approx(mass, rel=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=4),
           st.integers(min_value=0, max_value=4))
    def test_exact_consistency_tilted(self, n1, n2):
        space = build_space("abcd", [1, 2, 3, 4])
        cons = derive_lattice([[0], [1], [3], [6]], [2])
        tilt = ("tilt", rational_tilt(space, cons, [Fraction(3, 5)]))
        a = sum_distribution(space, cons, n1, measure=tilt, mode="rational")
        b = sum_distribution(space, cons, n2, measure=tilt, mode="rational")
        direct = sum_distribution(space, cons, n1 + n2, measure=tilt,
                                  mode="rational")
        assert dict(convolve(a, b).items()) == dict(direct.items())


class TestCentralSeries:
    def test_matches_pointwise(self, dice, dice_constraint):
        series = central_series(dice, dice_constraint, 8)
        for n in range(1, 9):
            assert series[n] == pytest.approx(
                constraint_prob(dice, dice_constraint, n), rel=1e-12)

    def test_rational_mode(self, coin, coin_constraint):
        series = central_series(coin, coin_constraint, 4, mode="rational")
        assert series == [1, Fraction(0), Fraction(1, 2), Fraction(0),
                          Fraction(3, 8)]


class TestGuards:
    def test_cell_budget(self, pair, pair_constraint):
        # both arithmetics refuse the final table size (about 1e10 cells)
        # before building any table
        for mode in ("float", "rational"):
            with pytest.raises(LatticeBlowupError):
                sum_distribution(pair, pair_constraint, 10 ** 5, mode=mode)

    def test_negative_n(self, dice, dice_constraint):
        with pytest.raises(ValidationError):
            sum_distribution(dice, dice_constraint, -1)

    def test_provider_budget(self, pair, pair_constraint):
        # the tables to m = 10**4 would hold about 3.3e11 cells together
        provider = SumTableProvider(pair, pair_constraint)
        with pytest.raises(LatticeBlowupError):
            provider.table(10 ** 4)

    def test_refused_provider_request_builds_nothing(self, dice, dice_constraint,
                                                     monkeypatch):
        steps = []
        dense_step = sumdist._dense_step
        monkeypatch.setattr(sumdist, "_dense_step",
                            lambda *args: steps.append(1) or dense_step(*args))
        provider = SumTableProvider(dice, dice_constraint)
        for _ in range(2):
            with pytest.raises(LatticeBlowupError):
                provider.table(10 ** 4)
        assert steps == []
        assert provider.table(0).mass_at_target() == 1


class TestProvider:
    def test_tables_match_direct(self, dice, dice_constraint):
        provider = SumTableProvider(dice, dice_constraint)
        direct = sum_distribution(dice, dice_constraint, 5)
        for units, mass in direct.items():
            assert provider.mass(5, units) == pytest.approx(mass, rel=1e-12)

    def test_rational_provider(self, coin, coin_constraint):
        provider = SumTableProvider(coin, coin_constraint, mode="rational")
        assert provider.mass(4, (2,)) == Fraction(6, 16)
