import json
import math

import numpy as np
import pytest

from maxent_lab import (
    hypercompression_check,
    hypercompression_exact_prob,
    lattice,
    recurrence_simulation,
)
from maxent_lab.cli import main
from maxent_lab.errors import LatticeBlowupError, ValidationError


def binomial_visit_sum(steps):
    """Exact expected origin visits of the fair-coin walk: the sum of central
    binomial probabilities over even times up to ``steps``."""
    total, term = 0.0, 1.0
    for m in range(1, steps // 2 + 1):
        term *= (2 * m - 1) / (2 * m)
        total += term
    return total


class TestRecurrence:
    def test_coin_matches_binomial_oracle(self, coin_solution,
                                          coin_constraint):
        result = recurrence_simulation(coin_solution, coin_constraint,
                                       steps=20000, reps=150, seed=424242,
                                       checkpoints=(20000,))
        oracle = binomial_visit_sum(20000)
        assert abs(result.mean_visits[0] - oracle) / oracle < 0.10

    def test_cube3_transience_plateau(self, cube3_solution, cube3_constraint):
        result = recurrence_simulation(cube3_solution, cube3_constraint,
                                       steps=20000, reps=40, seed=99,
                                       checkpoints=(2000, 20000))
        growth = result.mean_visits[1] - result.mean_visits[0]
        assert 0.0 <= growth < 1.0

    def test_counts_nonnegative_nondecreasing(self, coin_solution,
                                              coin_constraint):
        result = recurrence_simulation(coin_solution, coin_constraint,
                                       steps=5000, reps=10, seed=5,
                                       checkpoints=(100, 1000, 5000))
        visits = result.mean_visits
        assert visits[0] >= 0
        assert all(b >= a for a, b in zip(visits, visits[1:]))

    def test_deterministic_given_seed(self, coin_solution, coin_constraint):
        a = recurrence_simulation(coin_solution, coin_constraint, steps=2000,
                                  reps=5, seed=31, checkpoints=(2000,))
        b = recurrence_simulation(coin_solution, coin_constraint, steps=2000,
                                  reps=5, seed=31, checkpoints=(2000,))
        assert a.mean_visits == b.mean_visits

    def test_bad_arguments(self, coin_solution, coin_constraint):
        with pytest.raises(ValidationError):
            recurrence_simulation(coin_solution, coin_constraint, steps=0,
                                  reps=1, seed=1)
        with pytest.raises(ValidationError):
            recurrence_simulation(coin_solution, coin_constraint, steps=10,
                                  reps=1, seed=1, checkpoints=(20,))


class TestHypercompression:
    def test_identical_predictors_never_exceed(self, coin, coin_solution):
        # the fair coin at mean 1/2 is its own projection, so the prior's
        # code is the projection's
        result = hypercompression_check(coin, coin_solution, n=50, k_bits=5.0,
                                        samples=2000, seed=3)
        assert result.frequency == 0.0

    @pytest.mark.parametrize("k_bits", [1.0, 5.0, 10.0])
    def test_bound_respected(self, dice, dice_solution, k_bits):
        result = hypercompression_check(dice, dice_solution, n=100,
                                        k_bits=k_bits, samples=20000, seed=7)
        assert result.frequency <= result.bound + 3.0 * result.sigma

    def test_exact_probability_cross_check(self, dice, dice_constraint,
                                           dice_solution):
        exact = hypercompression_exact_prob(dice, dice_constraint,
                                            dice_solution, n=100, k_bits=1.0)
        assert exact <= 0.5
        result = hypercompression_check(dice, dice_solution, n=100,
                                        k_bits=1.0, samples=100000, seed=13)
        sigma = math.sqrt(max(exact, 1e-12) * (1 - exact) / result.samples)
        assert abs(result.frequency - exact) <= 4 * sigma + 1e-6

    def test_deterministic_given_seed(self, dice, dice_solution):
        kwargs = dict(n=40, k_bits=2.0, samples=5000, seed=101)
        a = hypercompression_check(dice, dice_solution, **kwargs)
        b = hypercompression_check(dice, dice_solution, **kwargs)
        assert a.frequency == b.frequency

    def test_zero_mass_symbol_costs_inf_only_where_it_occurs(self):
        from maxent_lab.simulate import _iid_codelengths
        counts = np.array([[2, 1, 0], [1, 1, 1], [0, 0, 3]])
        lengths = _iid_codelengths(counts, [0.5, 0.5, 0.0])
        assert lengths[0] == 3.0
        assert np.isinf(lengths[1:]).all() and not np.isnan(lengths).any()


class TestBudget:
    # the tables are checked before they are drawn, so a low budget stands
    # in for a large block and nothing large is allocated
    def test_counts_past_the_budget_are_refused(self, dice, dice_solution,
                                                monkeypatch):
        monkeypatch.setattr(lattice, "CELL_BUDGET", 60)
        kwargs = dict(n=40, k_bits=2.0, seed=101)
        hypercompression_check(dice, dice_solution, samples=10, **kwargs)
        with pytest.raises(LatticeBlowupError,
                           match="counts of 11 samples") as refused:
            hypercompression_check(dice, dice_solution, samples=11, **kwargs)
        assert "reduce samples" in str(refused.value)
        assert "reduce n" not in str(refused.value)

    def test_recurrence_sums_past_the_budget_are_refused(
            self, cube3_solution, cube3_constraint, monkeypatch):
        # the k = 3 walk holds `steps` cells at a time, one coordinate's
        # running sums, so that is all it is charged
        monkeypatch.setattr(lattice, "CELL_BUDGET", 250)
        for steps in (100, 250):
            recurrence_simulation(cube3_solution, cube3_constraint,
                                  steps=steps, reps=2, seed=5)
        with pytest.raises(LatticeBlowupError,
                           match="recurrence sums of 251 steps needs 251 "
                                 "cells") as refused:
            recurrence_simulation(cube3_solution, cube3_constraint, steps=251,
                                  reps=2, seed=5)
        assert "reduce steps" in str(refused.value)
        assert "reduce n" not in str(refused.value)

    def test_an_oversized_block_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(lattice, "CELL_BUDGET", 1000)
        config = tmp_path / "recur.json"
        config.write_text(json.dumps({
            "problem": {"outcomes": ["0", "1"], "prior": ["1", "1"],
                        "T": [["0", "1"]], "target": ["1/2"]},
            "experiments": [{"kind": "recur", "steps": 1001, "reps": 1,
                             "seed": 0}]}))
        assert main(["run", "-c", str(config), "-o",
                     str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "recurrence sums of 1001 steps" in err
        assert "reduce steps" in err and "reduce n" not in err
