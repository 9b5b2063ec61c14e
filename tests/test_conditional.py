from fractions import Fraction

import pytest

from maxent_lab import (
    BigramDeviationEvent,
    BoxEvent,
    FrequencyDeviationEvent,
    always_event,
    conditional_event_prob,
    conditional_marginal,
    enumerate_oracle,
    never_event,
)
from maxent_lab.errors import (
    EnumerationInfeasibleError,
    LatticeBlowupError,
    ValidationError,
)

from conftest import BRANDEIS_MASSES


class TestTrivialEvents:
    def test_always(self, dice, dice_constraint):
        result = conditional_event_prob(dice, dice_constraint,
                                        always_event(dice), 4)
        assert result.conditional == pytest.approx(1.0, abs=1e-12)
        assert result.prob_event == pytest.approx(1.0, abs=1e-12)

    def test_never(self, dice, dice_constraint):
        result = conditional_event_prob(dice, dice_constraint,
                                        never_event(dice), 4)
        assert result.conditional == 0.0
        assert result.prob_event == 0.0

    def test_infeasible_n_gives_undefined_conditional(self, dice,
                                                      dice_constraint):
        result = conditional_event_prob(dice, dice_constraint,
                                        always_event(dice), 3)
        assert result.prob_constraint == 0.0
        assert result.conditional is None


class TestFrequencyDeviation:
    def test_brandeis_n4_vs_enumeration(self, dice, dice_constraint):
        event = FrequencyDeviationEvent.make(Fraction(3, 10),
                                             list(BRANDEIS_MASSES))
        oracle = enumerate_oracle(dice, dice_constraint, 4, events=[event])
        for mode in ("rational", "float"):
            dp = conditional_event_prob(dice, dice_constraint, event, 4,
                                        mode=mode)
            want = oracle.event_results[0]
            assert float(dp.prob_event) == pytest.approx(
                float(want.prob_event), rel=1e-12)
            assert float(dp.prob_joint) == pytest.approx(
                float(want.prob_joint), rel=1e-12)
            assert float(dp.conditional) == pytest.approx(
                float(want.conditional), rel=1e-12)

    def test_exact_equality_in_rational_mode(self, dice, dice_constraint):
        event = FrequencyDeviationEvent.make(Fraction(1, 4),
                                             [Fraction(1, 6)] * 6)
        oracle = enumerate_oracle(dice, dice_constraint, 4, events=[event])
        dp = conditional_event_prob(dice, dice_constraint, event, 4,
                                    mode="rational")
        assert dp.prob_event == oracle.event_results[0].prob_event
        assert dp.prob_joint == oracle.event_results[0].prob_joint

    def test_cell_budget(self, dice, dice_constraint):
        # the count DP at n = 10**4 holds 10001 x 50001 cells per table
        event = FrequencyDeviationEvent.make(Fraction(1, 5),
                                             [Fraction(1, 6)] * 6)
        for mode in ("float", "rational"):
            with pytest.raises(LatticeBlowupError):
                conditional_event_prob(dice, dice_constraint, event, 10 ** 4,
                                       mode=mode)

    def test_multidim_constraint(self, pair, pair_constraint):
        event = FrequencyDeviationEvent.make(Fraction(1, 5),
                                             [Fraction(1, 4)] * 4)
        oracle = enumerate_oracle(pair, pair_constraint, 6, events=[event])
        dp = conditional_event_prob(pair, pair_constraint, event, 6,
                                    mode="rational")
        assert dp.prob_event == oracle.event_results[0].prob_event
        assert dp.prob_joint == oracle.event_results[0].prob_joint


class TestBoxEvent:
    def test_vs_enumeration(self, dice, dice_constraint):
        event = BoxEvent.make([[x * x] for x in range(1, 7)],
                              [10], [14])
        oracle = enumerate_oracle(dice, dice_constraint, 3, events=[event])
        dp = conditional_event_prob(dice, dice_constraint, event, 3,
                                    mode="rational")
        assert dp.prob_event == oracle.event_results[0].prob_event
        assert dp.prob_joint == oracle.event_results[0].prob_joint

    def test_outside_flag(self, dice, dice_constraint):
        inside = BoxEvent.make([[x] for x in range(1, 7)], [3], [4])
        outside = BoxEvent.make([[x] for x in range(1, 7)], [3], [4],
                                inside=False)
        a = conditional_event_prob(dice, dice_constraint, inside, 4,
                                   mode="rational")
        b = conditional_event_prob(dice, dice_constraint, outside, 4,
                                   mode="rational")
        assert a.prob_event + b.prob_event == 1
        assert a.prob_joint + b.prob_joint == a.prob_constraint

    def test_unbounded_sides(self, dice, dice_constraint):
        event = BoxEvent.make([[x] for x in range(1, 7)], [None], [3])
        oracle = enumerate_oracle(dice, dice_constraint, 4, events=[event])
        dp = conditional_event_prob(dice, dice_constraint, event, 4,
                                    mode="rational")
        assert dp.prob_event == oracle.event_results[0].prob_event


class TestBigramDeviation:
    @pytest.mark.parametrize("n", [2, 4, 5])
    def test_vs_enumeration(self, dice, dice_constraint, n):
        event = BigramDeviationEvent.make(4, 5, Fraction(1, 4))
        oracle = enumerate_oracle(dice, dice_constraint, n, events=[event])
        dp = conditional_event_prob(dice, dice_constraint, event, n,
                                    mode="rational")
        assert dp.prob_event == oracle.event_results[0].prob_event
        assert dp.prob_joint == oracle.event_results[0].prob_joint
        assert dp.prob_constraint == oracle.prob_constraint

    def test_restricted_pair_space(self):
        from maxent_lab import build_space, derive_lattice
        space = build_space([4, 5], [1, 1])
        cons = derive_lattice([[4], [5]], [Fraction(9, 2)])
        event = BigramDeviationEvent.make(4, 5, Fraction(1, 4))
        oracle = enumerate_oracle(space, cons, 6, events=[event])
        dp = conditional_event_prob(space, cons, event, 6, mode="rational")
        assert dp.prob_event == oracle.event_results[0].prob_event
        assert dp.prob_joint == oracle.event_results[0].prob_joint


class TestConditionalMarginal:
    def test_coin_symmetry(self, coin, coin_constraint):
        marg = conditional_marginal(coin, coin_constraint, 1, 2,
                                    mode="rational")
        assert marg.masses == {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}

    def test_rows_are_distributions(self, dice, dice_constraint):
        for n in (2, 4, 8):
            marg = conditional_marginal(dice, dice_constraint, 1, n)
            assert marg.total() == pytest.approx(1.0, abs=1e-9)

    def test_tower_property_exact(self, dice, dice_constraint):
        larger = conditional_marginal(dice, dice_constraint, 2, 6,
                                      mode="rational")
        smaller = conditional_marginal(dice, dice_constraint, 1, 6,
                                       mode="rational")
        assert larger.marginalize_last().masses == smaller.masses

    def test_tower_property_float(self, pair, pair_constraint):
        larger = conditional_marginal(pair, pair_constraint, 2, 8)
        smaller = conditional_marginal(pair, pair_constraint, 1, 8)
        folded = larger.marginalize_last().masses
        for key, mass in smaller.masses.items():
            assert folded[key] == pytest.approx(mass, rel=1e-12)

    def test_matches_oracle(self, dice, dice_constraint):
        oracle = enumerate_oracle(dice, dice_constraint, 6)
        want = oracle.marginal(2)
        got = conditional_marginal(dice, dice_constraint, 2, 6,
                                   mode="rational")
        for key, mass in want.items():
            assert got.masses[key] == mass
        total_on_support = sum(want.values())
        assert total_on_support == 1

    def test_tv_decreases_to_projection(self, dice, dice_constraint,
                                        dice_solution):
        tvs = [conditional_marginal(dice, dice_constraint, 1, n)
               .tv_to_product(dice_solution.pmf) for n in (2, 10, 50, 200)]
        assert all(b < a for a, b in zip(tvs, tvs[1:]))
        assert tvs[-1] < 0.01

    def test_m_over_cap(self, dice, dice_constraint):
        with pytest.raises(EnumerationInfeasibleError):
            conditional_marginal(dice, dice_constraint, 9, 20)

    def test_infeasible_n(self, dice, dice_constraint):
        with pytest.raises(ValidationError):
            conditional_marginal(dice, dice_constraint, 1, 3)
