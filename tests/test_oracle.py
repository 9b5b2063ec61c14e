from fractions import Fraction

import pytest

from maxent_lab import (
    SumTableProvider,
    conditional_marginal,
    constraint_prob,
    enumerate_oracle,
    rational_tilt,
)
from maxent_lab.errors import EnumerationInfeasibleError


class TestOracleBasics:
    def test_coin_two_steps(self, coin, coin_constraint):
        oracle = enumerate_oracle(coin, coin_constraint, 2)
        assert oracle.prob_constraint == Fraction(1, 2)
        assert oracle.conditional == {
            (0, 1): Fraction(1, 2), (1, 0): Fraction(1, 2)}

    def test_dice_pair(self, dice, dice_constraint):
        oracle = enumerate_oracle(dice, dice_constraint, 2)
        assert oracle.prob_constraint == Fraction(1, 9)
        assert len(oracle.conditional) == 4
        assert set(oracle.conditional.values()) == {Fraction(1, 4)}

    def test_conditional_masses_sum_to_one(self, pair, pair_constraint):
        oracle = enumerate_oracle(pair, pair_constraint, 4)
        assert sum(oracle.conditional.values()) == 1

    def test_tilted_measure(self, coin, coin_constraint):
        tilt = ("tilt", rational_tilt(coin, coin_constraint, [Fraction(1, 3)]))
        oracle = enumerate_oracle(coin, coin_constraint, 2, measure=tilt)
        # conditioning removes the tilt on the constraint set
        assert oracle.conditional == {
            (0, 1): Fraction(1, 2), (1, 0): Fraction(1, 2)}

    def test_size_guard(self, dice, dice_constraint):
        with pytest.raises(EnumerationInfeasibleError):
            enumerate_oracle(dice, dice_constraint, 10)


class TestFloatDpAgreement:
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_dice_constraint_probability(self, dice, dice_constraint, n):
        oracle = enumerate_oracle(dice, dice_constraint, n)
        dp = constraint_prob(dice, dice_constraint, n)
        assert dp == pytest.approx(float(oracle.prob_constraint), rel=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_coin_marginals(self, coin, coin_constraint, n):
        oracle = enumerate_oracle(coin, coin_constraint, n)
        marg = conditional_marginal(SumTableProvider(coin, coin_constraint, n),
                                    1, n)
        for key, mass in oracle.marginal(1).items():
            assert marg.masses[key] == pytest.approx(float(mass), rel=1e-12)

    def test_dice_two_symbol_marginal(self, dice, dice_constraint):
        oracle = enumerate_oracle(dice, dice_constraint, 6)
        marg = conditional_marginal(
            SumTableProvider(dice, dice_constraint, 6), 2, 6)
        for key, mass in oracle.marginal(2).items():
            assert marg.masses[key] == pytest.approx(float(mass), rel=1e-12)
        # prefixes the oracle never saw carry no conditional mass
        for key, mass in marg.masses.items():
            if key not in oracle.marginal(2):
                assert mass == pytest.approx(0.0, abs=1e-15)
