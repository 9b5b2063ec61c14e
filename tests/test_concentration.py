import math
from fractions import Fraction

import pytest

from maxent_lab import (
    BoxEvent,
    FrequencyDeviationEvent,
    SumTableProvider,
    build_space,
    clt_limit,
    concentration_constants,
    conditional_event_prob,
    conditional_marginal,
    corollary1_residuals,
    derive_lattice,
    enumerate_constraint_sequences,
    enumerate_oracle,
    rational_tilt,
    representative_sequence,
    solve_maxent,
)
from maxent_lab.errors import ValidationError
from maxent_lab.sumdist import EXACT, FLOAT


def exact_central_binomial(n):
    """C(n, n/2) 2^-n for even n, as an exact fraction."""
    return Fraction(math.comb(n, n // 2), 2 ** n)


class TestConstants:
    def test_coin_limit_formula(self, coin_constraint, coin_solution):
        # spans 1, covariance 1/4: limit is sqrt(2/pi)
        assert clt_limit(coin_constraint, coin_solution) == pytest.approx(
            math.sqrt(2.0 / math.pi), rel=1e-12)

    def test_coin_c_n_matches_exact_binomial(self, coin, coin_constraint,
                                             coin_solution):
        report = concentration_constants(coin, coin_constraint, coin_solution,
                                         [100, 1000])
        for record in report.records:
            exact = math.sqrt(record.n) * float(exact_central_binomial(record.n))
            assert record.c_n == pytest.approx(exact, rel=1e-10)

    def test_coin_c_n_near_limit(self, coin, coin_constraint, coin_solution):
        report = concentration_constants(coin, coin_constraint, coin_solution,
                                         [1000])
        limit = report.limit_value
        assert abs(report.records[0].c_n - limit) / limit < 0.02

    def test_d_n_approaches_one(self, coin, coin_constraint, coin_solution,
                                dice, dice_constraint, dice_solution,
                                pair, pair_constraint, pair_solution):
        for space, cons, sol in ((coin, coin_constraint, coin_solution),
                                 (dice, dice_constraint, dice_solution),
                                 (pair, pair_constraint, pair_solution)):
            report = concentration_constants(space, cons, sol, [100, 1000])
            d100, d1000 = (r.d_n for r in report.records)
            assert d100 > 0 and d1000 > 0
            assert abs(d1000 - 1) < abs(d100 - 1)

    def test_d_n_approaches_one_k3(self, cube3, cube3_constraint,
                                   cube3_solution):
        # n = 1000 would blow the k=3 cell budget; check the trend lower down
        report = concentration_constants(cube3, cube3_constraint,
                                         cube3_solution, [60, 180])
        d60, d180 = (r.d_n for r in report.records)
        assert d60 > 0 and d180 > 0
        assert abs(d180 - 1) < abs(d60 - 1)

    def test_infeasible_sizes_reported_not_raised(self, dice, dice_constraint,
                                                  dice_solution):
        report = concentration_constants(dice, dice_constraint, dice_solution,
                                         [1, 2, 3, 4])
        flags = {r.n: r.feasible for r in report.records}
        assert flags == {1: False, 2: True, 3: False, 4: True}
        infeasible = [r for r in report.records if not r.feasible]
        assert all(r.c_n is None and r.d_n is None for r in infeasible)

    def test_unreachable_lattice_targets_are_infeasible(self):
        # steps (0, 0), (2, 1), (1, 2) at mean (1, 1): the target cell is on
        # the lattice at every size but first reached at n = 3
        space = build_space(["a", "b", "c"], [1, 1, 1])
        constraint = derive_lattice([[0, 0], [2, 1], [1, 2]], [1, 1])
        solution = solve_maxent(space, constraint)
        report = concentration_constants(space, constraint, solution, [1, 2, 3])
        assert [r.feasible for r in report.records] == [False, False, True]
        records = corollary1_residuals(space, constraint, solution, [1, 2, 3])
        assert [r.feasible for r in records] == [False, False, True]

    def test_unreachable_targets_past_the_walk_budget_are_infeasible(self):
        # the same steps at n = 337: the target is on the lattice but off the
        # sublattice the steps span, so its 0.0 mass is exact; the reachability
        # tables of a walk to n = 337 together exceed the cell budget, one
        # feasibility table does not
        space = build_space(["a", "b", "c"], [1, 1, 1])
        constraint = derive_lattice([[0, 0], [2, 1], [1, 2]], [1, 1])
        solution = solve_maxent(space, constraint)
        report = concentration_constants(space, constraint, solution, [3, 337])
        assert [r.feasible for r in report.records] == [True, False]
        records = corollary1_residuals(space, constraint, solution, [3, 337])
        assert [r.feasible for r in records] == [True, False]

    def test_marginals_share_one_sum_sweep(self, dice, dice_constraint,
                                           dice_solution, monkeypatch):
        # the TV(m, n) of every size, for `concentrate` and `condlimit`
        # alike, comes from one provider under q
        from maxent_lab import experiments, sumdist
        starts = []
        initial = sumdist._initial
        monkeypatch.setattr(sumdist, "_initial", lambda *args: (
            starts.append(args[1]), initial(*args))[1])
        sizes = [4, 8, 12]
        ctx = {"space": dice, "constraint": dice_constraint,
               "solution": dice_solution, "mode": FLOAT}
        tvs = experiments._tv_series(ctx, 2, sizes)
        assert starts.count("q") == 1
        for n, tv in zip(sizes, tvs):
            fresh = conditional_marginal(
                SumTableProvider(dice, dice_constraint, n), 2, n)
            assert tv.hex() == fresh.tv_to_product(dice_solution.pmf).hex()


class TestTheoremOneChecks:
    def test_item1_inequality(self, dice, dice_constraint, dice_solution):
        events = [
            FrequencyDeviationEvent.make(Fraction(3, 10),
                                         list(dice_solution.pmf)),
            BoxEvent.make([[x] for x in range(1, 7)], [4], [5]),
        ]
        report = concentration_constants(dice, dice_constraint, dice_solution,
                                         [2, 4, 6, 8], events=events)
        for record in report.records:
            for check in record.events:
                assert check.slack_item1 >= -1e-12

    def test_item2_equality_float(self, dice, dice_constraint, dice_solution):
        events = [FrequencyDeviationEvent.make(Fraction(3, 10),
                                               list(dice_solution.pmf))]
        report = concentration_constants(dice, dice_constraint, dice_solution,
                                         [2, 4, 6, 8, 10], events=events)
        for record in report.records:
            for check in record.events:
                assert abs(check.residual_item2) <= 1e-12

    def test_item2_equality_exact_rational(self, dice, dice_constraint):
        # rational member of the exponential family stands in for the
        # projection; the identity must then hold with zero slack
        tilt = ("tilt", rational_tilt(dice, dice_constraint, [Fraction(3, 4)]))
        event = FrequencyDeviationEvent.make(Fraction(1, 4),
                                             [Fraction(1, 6)] * 6)
        for n in (2, 4, 6, 8, 10):
            under_p = conditional_event_prob(dice, dice_constraint, event, n,
                                             measure=tilt, mode=EXACT)
            under_q = conditional_event_prob(dice, dice_constraint, event, n,
                                             measure="q", mode=EXACT)
            # P(A and C) = P(C) * Q(A | C), exactly
            assert under_p.prob_joint * under_q.prob_constraint == \
                under_p.prob_constraint * under_q.prob_joint

    def test_single_sequence_event_equality(self, coin, coin_constraint):
        # an event that is one constraint sequence: P(A) = P(C) Q(A|C) exactly
        tilt = ("tilt", rational_tilt(coin, coin_constraint, [Fraction(2, 5)]))
        n = 4
        oracle_p = enumerate_oracle(coin, coin_constraint, n, measure=tilt)
        oracle_q = enumerate_oracle(coin, coin_constraint, n)
        seq = next(iter(oracle_p.conditional))
        mass_p = oracle_p.conditional[seq] * oracle_p.prob_constraint
        mass_q = oracle_q.conditional[seq]
        assert mass_p == oracle_p.prob_constraint * mass_q


class TestRatioConstancyKeystone:
    def test_projection_to_prior_ratio_constant_on_constraint_set(
            self, dice, dice_constraint, dice_solution):
        sequences = enumerate_constraint_sequences(dice, dice_constraint, 6)
        assert sequences
        ratios = []
        for seq in sequences:
            num = math.prod(float(dice_solution.pmf[i]) for i in seq)
            den = math.prod(float(dice.prior[i]) for i in seq)
            ratios.append(num / den)
        first = ratios[0]
        assert all(abs(r / first - 1.0) < 1e-12 for r in ratios)


class TestEventProbabilitiesUnderBothMeasures:
    def test_conditional_equal_under_projection_and_prior(
            self, dice, dice_constraint, dice_solution):
        # conditioning washes out the tilt: Q(A|C) = P(A|C)
        event = FrequencyDeviationEvent.make(Fraction(1, 4),
                                             [Fraction(1, 6)] * 6)
        for n in (2, 4, 6):
            under_q = conditional_event_prob(dice, dice_constraint, event, n)
            under_p = conditional_event_prob(dice, dice_constraint, event, n,
                                             measure=dice_solution)
            assert under_p.conditional == pytest.approx(under_q.conditional,
                                                        rel=1e-10)


class TestRepresentativeSequence:
    def test_satisfies_constraint(self, dice, dice_constraint):
        for n in (2, 4, 10, 2000):
            rep = representative_sequence(dice, dice_constraint, n)
            assert len(rep) == n
            total = sum(dice_constraint.values[i][0] for i in rep)
            assert total == n * dice_constraint.target[0]

    def test_block_path_for_large_k3(self, cube3, cube3_constraint):
        rep = representative_sequence(cube3, cube3_constraint, 200)
        assert len(rep) == 200
        for j in range(3):
            total = sum(cube3_constraint.values[i][j] for i in rep)
            assert total == 100

    def test_infeasible_raises(self, dice, dice_constraint):
        with pytest.raises(ValidationError):
            representative_sequence(dice, dice_constraint, 3)

    def test_block_pair_past_the_walk_budget(self):
        # T in {0, 3, 5} at mean 1: the windows of the walk's tables to
        # n = 7909 hold 5.005e7 cells, past the cell budget, and no first
        # feasible size (3, 5, 6, 8) divides 7909, so two blocks of 5 and
        # 2633 of 3 make the sequence
        space = build_space(["a", "b", "c"], [1, 1, 1])
        constraint = derive_lattice([[0], [3], [5]], ["1"])
        rep = representative_sequence(space, constraint, 7909)
        assert len(rep) == 7909
        assert sum(constraint.values[i][0] for i in rep) == 7909
        blocks = (representative_sequence(space, constraint, 5),
                  representative_sequence(space, constraint, 3))
        assert rep == blocks[0] * 2 + blocks[1] * 2633
