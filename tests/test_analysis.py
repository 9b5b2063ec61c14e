import math
from fractions import Fraction

import pytest

from maxent_lab import (
    IIDPredictor,
    SumTableProvider,
    build_space,
    concentration_constants,
    conditioned_prior_predictor,
    corollary1_residuals,
    derive_lattice,
    maxent_predictor,
    mixture_gap_series,
    play_coding_game,
    rissanen_prior,
    solve_maxent,
    verify_minimax_constancy,
)
from maxent_lab.errors import LatticeBlowupError, ValidationError


class TestMinimaxConstancy:
    def test_biased_coin_all_sequences_identical(self, coin, coin03_constraint,
                                                 coin03_solution):
        report = verify_minimax_constancy(coin, coin03_constraint,
                                          coin03_solution, 10)
        assert report.sequence_count == math.comb(10, 3)
        assert report.max_abs_deviation <= 1e-10
        assert report.constant == coin03_solution.closed_entropy_bits

    def test_prior_projection_constant_zero(self, dice):
        cons = derive_lattice([[x] for x in range(1, 7)], ["7/2"])
        sol = solve_maxent(dice, cons)
        report = verify_minimax_constancy(dice, cons, sol, 4)
        assert abs(report.constant) < 1e-12
        assert report.max_abs_deviation <= 1e-10

    @pytest.mark.parametrize("n", [4, 8])
    def test_deviation_is_the_spread_not_the_solver_residual(
            self, dice, dice_constraint, dice_solution, n):
        # every sequence of C_n gives the closed-form entropy; the direct
        # mass sum differs from it by 1.1e-14 on the die at 9/2, which a
        # deviation measured from that sum would report
        report = verify_minimax_constancy(dice, dice_constraint,
                                          dice_solution, n)
        assert report.max_abs_deviation <= 1e-15

    def test_alternatives_respect_lower_bound(self, coin, coin03_constraint,
                                              coin03_solution):
        alternatives = [
            conditioned_prior_predictor(
                SumTableProvider(coin, coin03_constraint, 10), 10),
            IIDPredictor(coin, [0.5, 0.5], "prior"),
            IIDPredictor(coin, [0.9, 0.1], "skew"),
        ]
        report = verify_minimax_constancy(coin, coin03_constraint,
                                          coin03_solution, 10,
                                          alternatives=alternatives)
        assert all(check.satisfied for check in report.alternatives)

    def test_conditioned_prior_achieves_the_bound(self, coin,
                                                  coin03_constraint,
                                                  coin03_solution):
        # the conditioned prior beats the projection by exactly the all-n
        # concentration penalty, so its worst case sits on the bound
        alt = conditioned_prior_predictor(
            SumTableProvider(coin, coin03_constraint, 10), 10)
        report = verify_minimax_constancy(coin, coin03_constraint,
                                          coin03_solution, 10,
                                          alternatives=[alt])
        check = report.alternatives[0]
        assert check.worst_per_symbol == pytest.approx(check.lower_bound,
                                                       abs=1e-9)


class TestCorollaryOneResiduals:
    def test_residual_equals_identity(self, dice, dice_constraint,
                                      dice_solution):
        records = corollary1_residuals(dice, dice_constraint, dice_solution,
                                       [2, 10, 100, 500])
        for record in records:
            assert record.residual_direct == pytest.approx(
                record.residual_identity, abs=1e-9)

    def test_dice_large_n_small_residual(self, dice, dice_constraint,
                                         dice_solution):
        records = corollary1_residuals(dice, dice_constraint, dice_solution,
                                       [100, 2000])
        r100, r2000 = records
        assert abs(r2000.residual_direct) < 0.05
        assert abs(r2000.residual_direct) < abs(r100.residual_direct)

    def test_coin_residual_positive_shrinking(self, coin, coin_constraint,
                                              coin_solution):
        # exact central binomial sits below its normal approximation, so
        # d_n < 1 and the residual -log2 d_n is positive, shrinking to 0
        records = corollary1_residuals(coin, coin_constraint, coin_solution,
                                       [2, 10, 100, 1000])
        values = [r.residual_direct for r in records]
        assert all(v > 0 for v in values)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_coin_identity_against_exact_binomial(self, coin, coin_constraint,
                                                  coin_solution):
        records = corollary1_residuals(coin, coin_constraint, coin_solution,
                                       [10, 100])
        for record in records:
            exact = Fraction(math.comb(record.n, record.n // 2),
                             2 ** record.n)
            d_exact = float(exact) * math.sqrt(2 * math.pi * record.n * 0.25)
            assert record.d_n == pytest.approx(d_exact, rel=1e-10)

    def test_infeasible_rows_flagged(self, dice, dice_constraint,
                                     dice_solution):
        records = corollary1_residuals(dice, dice_constraint, dice_solution,
                                       [2, 3])
        assert records[1].feasible is False
        assert records[1].residual_direct is None

    def test_prior_mass_underflow_is_typed(self, dice):
        # at mean 5, P_q(C_n) underflows to 0.0 from n = 1741 on while
        # P_p > 0; the prior's series to n = 2000 refuses its first underflow
        constraint = derive_lattice([[x] for x in range(1, 7)], [5])
        solution = solve_maxent(dice, constraint)
        assert corollary1_residuals(dice, constraint, solution, [1000])[0] \
            .feasible
        with pytest.raises(LatticeBlowupError, match="the mass at n=1741"):
            corollary1_residuals(dice, constraint, solution, [2000])


class TestMixtureGapSeries:
    def test_cube3_small_scale_positive(self, cube3, cube3_constraint,
                                        cube3_solution):
        prior = rissanen_prior(60)
        records = mixture_gap_series(cube3, cube3_constraint, cube3_solution,
                                     prior, n_max=60, horizon=120)
        by_n = {r.n: r for r in records}
        assert set(by_n) == set(range(2, 61, 2))
        assert all(r.gap_bits > 0 for n, r in by_n.items() if n >= 20)

    def test_coin_gaps_fail_to_stay_positive(self, coin, coin_constraint,
                                             coin_solution):
        records = mixture_gap_series(coin, coin_constraint, coin_solution,
                                     rissanen_prior(60), n_max=60, horizon=120)
        late = [r.gap_bits for r in records if r.n >= 20]
        assert all(g < 0 for g in late)

    def test_pair_gaps_fail_to_stay_positive(self, pair, pair_constraint,
                                             pair_solution):
        records = mixture_gap_series(pair, pair_constraint, pair_solution,
                                     rissanen_prior(60), n_max=100,
                                     horizon=200)
        late = [r.gap_bits for r in records if r.n >= 20]
        assert all(g < 0 for g in late)
        # slow decay rather than the k=1 collapse
        assert late[0] > -3.0

    def test_prior_mass_underflow_is_typed(self, dice):
        # at mean 5 every size from 1741 on is feasible, but its prior mass
        # underflows to 0.0; dropping those sizes would renormalize the
        # component weights over fewer sizes
        constraint = derive_lattice([[x] for x in range(1, 7)], [5])
        solution = solve_maxent(dice, constraint)
        with pytest.raises(LatticeBlowupError, match="n=1741"):
            mixture_gap_series(dice, constraint, solution,
                               rissanen_prior(3000), n_max=5, horizon=3000)

    def test_component_indexing(self, coin, coin_constraint, coin_solution):
        records = mixture_gap_series(coin, coin_constraint, coin_solution,
                                     rissanen_prior(8), n_max=8, horizon=16)
        assert [(r.n, r.component) for r in records] == \
            [(2, 1), (4, 2), (6, 3), (8, 4)]


class TestPlayCodingGame:
    def test_sizes_below_one_rejected(self, coin, coin_constraint,
                                      coin_solution):
        # one n_list check serves the game, the constants and corollary 1
        predictors = {"maxent": maxent_predictor(coin, coin_solution)}
        runs = [
            lambda sizes: play_coding_game(coin, coin_constraint, coin_solution,
                                           predictors, sizes),
            lambda sizes: concentration_constants(coin, coin_constraint,
                                                  coin_solution, sizes),
            lambda sizes: corollary1_residuals(coin, coin_constraint,
                                               coin_solution, sizes),
        ]
        for run in runs:
            for sizes in ([0, 2], [], [-2]):
                with pytest.raises(ValidationError, match="n_list"):
                    run(sizes)

    def test_shared_sequences_and_gaps(self, coin, coin_constraint,
                                       coin_solution):
        provider = SumTableProvider(coin, coin_constraint, 4)
        predictors = {
            "maxent": maxent_predictor(coin, coin_solution),
            "conditioned": lambda n: conditioned_prior_predictor(provider, n),
        }
        report = play_coding_game(coin, coin_constraint, coin_solution,
                                  predictors, [2, 3, 4])
        assert report.skipped_sizes == (3,)
        by_key = {(r.n, r.predictor): r for r in report.codelengths}
        assert set(by_key) == {(2, "maxent"), (2, "conditioned"),
                               (4, "maxent"), (4, "conditioned")}
        for n in (2, 4):
            assert by_key[(n, "maxent")].gap_vs_maxent_bits == \
                pytest.approx(0.0, abs=1e-12)
            # the conditioned prior saves -log2 P(C_n) bits on its horizon
            saving = by_key[(n, "conditioned")].gap_vs_maxent_bits
            assert saving < 0

    def test_projection_gap_is_exactly_zero(self):
        # the baseline is the projection predictor's own codelength; a sum of
        # log2 masses taken apart from it rounds to a gap of -1.8e-15 here
        space = build_space(["x0", "x1", "x2", "x3"], [2, 4, 4, 3])
        rows = [(0, 1, 1, 0), (1, 2, 0, 2), (1, 0, 1, 1)]
        constraint = derive_lattice([[row[i] for row in rows]
                                     for i in range(4)],
                                    ["3/8", "13/8", "3/4"])
        solution = solve_maxent(space, constraint)
        report = play_coding_game(
            space, constraint, solution,
            {"maxent": maxent_predictor(space, solution)}, [8])
        (record,) = report.codelengths
        assert record.codelength_bits == 13.999999999999995
        assert record.gap_vs_maxent_bits == 0.0
