import math
from fractions import Fraction

import pytest

from maxent_lab import (
    BigramDeviationEvent,
    BoxEvent,
    FrequencyDeviationEvent,
    SumTableProvider,
    conditional_event_prob,
    conditional_marginal,
    enumerate_oracle,
)
from maxent_lab import lattice
from maxent_lab.errors import (
    EnumerationInfeasibleError,
    LatticeBlowupError,
    ValidationError,
)
from maxent_lab.sumdist import EXACT, FLOAT, _binomial_weight_vector

from conftest import BRANDEIS_MASSES, fold_last


class TestTrivialEvents:
    def test_always(self, dice, dice_constraint):
        always = BoxEvent.make([0] * 6, [None], [None])
        result = conditional_event_prob(dice, dice_constraint, always, 4)
        assert result.conditional == pytest.approx(1.0, abs=1e-12)
        assert result.prob_event == pytest.approx(1.0, abs=1e-12)

    def test_never(self, dice, dice_constraint):
        never = BoxEvent.make([0] * 6, [1], [2])
        result = conditional_event_prob(dice, dice_constraint, never, 4)
        assert result.conditional == 0.0
        assert result.prob_event == 0.0

    def test_infeasible_n_gives_undefined_conditional(self, dice,
                                                      dice_constraint):
        always = BoxEvent.make([0] * 6, [None], [None])
        result = conditional_event_prob(dice, dice_constraint, always, 3)
        assert result.prob_constraint == 0.0
        assert result.conditional is None


class TestFrequencyDeviation:
    def test_brandeis_n4_vs_enumeration(self, dice, dice_constraint):
        event = FrequencyDeviationEvent.make(Fraction(3, 10),
                                             list(BRANDEIS_MASSES))
        oracle = enumerate_oracle(dice, dice_constraint, 4, events=[event])
        for mode in (EXACT, FLOAT):
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
                                    mode=EXACT)
        assert dp.prob_event == oracle.event_results[0].prob_event
        assert dp.prob_joint == oracle.event_results[0].prob_joint

    def test_cell_budget(self, dice, dice_constraint):
        # the count DP at n = 10**4 holds 10001 x 50001 cells per table
        event = FrequencyDeviationEvent.make(Fraction(1, 5),
                                             [Fraction(1, 6)] * 6)
        for mode in (FLOAT, EXACT):
            with pytest.raises(LatticeBlowupError):
                conditional_event_prob(dice, dice_constraint, event, 10 ** 4,
                                       mode=mode)

    @pytest.mark.parametrize("n", [1030, 1100, 1400])
    def test_coefficients_past_the_float_binomial(self, n):
        # C(n, n/2) overflows a float, but every coefficient
        # C(n - used, n/2) 2^-(n/2) is a normal float and keeps its digits
        nu = n // 2
        got = _binomial_weight_vector(n, nu, 0.5)
        want = [float(Fraction(math.comb(n - used, nu), 2 ** nu))
                for used in range(n - nu + 1)]
        assert max(abs(g / w - 1.0) for g, w in zip(got, want)) <= 1e-11

    def test_coefficients_beyond_the_float_range(self):
        # C(3000, 1500) 2^-1500 is about e^1035
        with pytest.raises(LatticeBlowupError, match="float range"):
            _binomial_weight_vector(3000, 1500, 0.5)

    def test_multidim_constraint(self, pair, pair_constraint):
        event = FrequencyDeviationEvent.make(Fraction(1, 5),
                                             [Fraction(1, 4)] * 4)
        oracle = enumerate_oracle(pair, pair_constraint, 6, events=[event])
        dp = conditional_event_prob(pair, pair_constraint, event, 6,
                                    mode=EXACT)
        assert dp.prob_event == oracle.event_results[0].prob_event
        assert dp.prob_joint == oracle.event_results[0].prob_joint


class TestBoxEvent:
    def test_vs_enumeration(self, dice, dice_constraint):
        event = BoxEvent.make([[x * x] for x in range(1, 7)],
                              [10], [14])
        oracle = enumerate_oracle(dice, dice_constraint, 3, events=[event])
        dp = conditional_event_prob(dice, dice_constraint, event, 3,
                                    mode=EXACT)
        assert dp.prob_event == oracle.event_results[0].prob_event
        assert dp.prob_joint == oracle.event_results[0].prob_joint

    def test_outside_flag(self, dice, dice_constraint):
        inside = BoxEvent.make([[x] for x in range(1, 7)], [3], [4])
        outside = BoxEvent.make([[x] for x in range(1, 7)], [3], [4],
                                inside=False)
        a = conditional_event_prob(dice, dice_constraint, inside, 4,
                                   mode=EXACT)
        b = conditional_event_prob(dice, dice_constraint, outside, 4,
                                   mode=EXACT)
        assert a.prob_event + b.prob_event == 1
        assert a.prob_joint + b.prob_joint == a.prob_constraint

    def test_unbounded_sides(self, dice, dice_constraint):
        event = BoxEvent.make([[x] for x in range(1, 7)], [None], [3])
        oracle = enumerate_oracle(dice, dice_constraint, 4, events=[event])
        dp = conditional_event_prob(dice, dice_constraint, event, 4,
                                    mode=EXACT)
        assert dp.prob_event == oracle.event_results[0].prob_event


class TestBigramDeviation:
    @pytest.mark.parametrize("n", [2, 4, 5])
    def test_vs_enumeration(self, dice, dice_constraint, n):
        event = BigramDeviationEvent.make(4, 5, Fraction(1, 4))
        oracle = enumerate_oracle(dice, dice_constraint, n, events=[event])
        dp = conditional_event_prob(dice, dice_constraint, event, n,
                                    mode=EXACT)
        assert dp.prob_event == oracle.event_results[0].prob_event
        assert dp.prob_joint == oracle.event_results[0].prob_joint
        assert dp.prob_constraint == oracle.prob_constraint

    def test_restricted_pair_space(self):
        from maxent_lab import build_space, derive_lattice
        space = build_space([4, 5], [1, 1])
        cons = derive_lattice([[4], [5]], [Fraction(9, 2)])
        event = BigramDeviationEvent.make(4, 5, Fraction(1, 4))
        oracle = enumerate_oracle(space, cons, 6, events=[event])
        dp = conditional_event_prob(space, cons, event, 6, mode=EXACT)
        assert dp.prob_event == oracle.event_results[0].prob_event
        assert dp.prob_joint == oracle.event_results[0].prob_joint


class TestConditionalMarginal:
    def test_coin_symmetry(self, coin, coin_constraint):
        marg = conditional_marginal(
            SumTableProvider(coin, coin_constraint, 2, mode=EXACT), 1, 2)
        assert marg.masses == {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}

    def test_rows_are_distributions(self, dice, dice_constraint):
        provider = SumTableProvider(dice, dice_constraint, 8)
        for n in (2, 4, 8):
            marg = conditional_marginal(provider, 1, n)
            assert sum(marg.masses.values()) == pytest.approx(1.0, abs=1e-9)

    def test_tower_property_exact(self, dice, dice_constraint):
        provider = SumTableProvider(dice, dice_constraint, 6, mode=EXACT)
        larger = conditional_marginal(provider, 2, 6)
        smaller = conditional_marginal(provider, 1, 6)
        assert fold_last(larger.masses) == smaller.masses

    def test_tower_property_float(self, pair, pair_constraint):
        provider = SumTableProvider(pair, pair_constraint, 8)
        larger = conditional_marginal(provider, 2, 8)
        smaller = conditional_marginal(provider, 1, 8)
        folded = fold_last(larger.masses)
        for key, mass in smaller.masses.items():
            assert folded[key] == pytest.approx(mass, rel=1e-12)

    def test_matches_oracle(self, dice, dice_constraint):
        oracle = enumerate_oracle(dice, dice_constraint, 6)
        want = oracle.marginal(2)
        got = conditional_marginal(
            SumTableProvider(dice, dice_constraint, 6, mode=EXACT), 2, 6)
        for key, mass in want.items():
            assert got.masses[key] == mass
        total_on_support = sum(want.values())
        assert total_on_support == 1

    def test_tv_decreases_to_projection(self, dice, dice_constraint,
                                        dice_solution):
        provider = SumTableProvider(dice, dice_constraint, 200)
        tvs = [conditional_marginal(provider, 1, n)
               .tv_to_product(dice_solution.pmf) for n in (2, 10, 50, 200)]
        assert all(b < a for a, b in zip(tvs, tvs[1:]))
        assert tvs[-1] < 0.01

    def test_m_over_cap(self, dice, dice_constraint):
        with pytest.raises(EnumerationInfeasibleError):
            conditional_marginal(SumTableProvider(dice, dice_constraint, 20),
                                 9, 20)

    def test_prefix_count_reads_the_live_budget(self, dice, dice_constraint,
                                                monkeypatch):
        # 6^3 = 216 prefixes exceed a budget patched to 100 cells
        monkeypatch.setattr(lattice, "CELL_BUDGET", 100)
        with pytest.raises(EnumerationInfeasibleError, match=r"6\^3 prefixes"):
            conditional_marginal(SumTableProvider(dice, dice_constraint, 8),
                                 3, 8)

    def test_infeasible_n(self, dice, dice_constraint):
        with pytest.raises(ValidationError):
            conditional_marginal(SumTableProvider(dice, dice_constraint, 3),
                                 1, 3)

    def test_provider_fixes_measure_and_mode(self, dice, dice_constraint):
        # prefix weights and suffix tables both come from the one provider
        tilt = ("tilt", [Fraction(i, 21) for i in range(1, 7)])
        tables = SumTableProvider(dice, dice_constraint, 4, measure=tilt,
                                  mode=EXACT)
        got = conditional_marginal(tables, 1, 4)
        assert got.measure_id == "tilt"
        assert sum(got.masses.values()) == 1
        assert all(isinstance(m, Fraction) for m in got.masses.values())
        floats = conditional_marginal(SumTableProvider(dice, dice_constraint, 4),
                                      1, 4)
        assert floats.measure_id == "q"
        assert all(isinstance(m, float) for m in floats.masses.values())
