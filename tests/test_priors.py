import math

import pytest

from maxent_lab import rissanen_prior
from maxent_lab.errors import ValidationError
from maxent_lab.predictors import neg_log2


class TestRissanenPrior:
    def test_masses_sum_exactly_to_one(self):
        prior = rissanen_prior(512)
        assert sum(prior.masses) == 1

    def test_positive_and_decreasing(self):
        prior = rissanen_prior(64)
        assert all(m > 0 for m in prior.masses)
        assert all(a > b for a, b in zip(prior.masses, prior.masses[1:]))

    def test_loglog_overhead_bound(self):
        # -log2 pi(j) - log2 j <= 3 log2 log2 (j + 2) + constant
        prior = rissanen_prior(4096)
        constant = 2.0
        for j in (1, 2, 3, 5, 10, 100, 1000, 4096):
            overhead = -math.log2(prior.mass(j)) - math.log2(j)
            assert overhead <= 3.0 * math.log2(math.log2(j + 2)) + constant

    def test_mass_bounds(self):
        prior = rissanen_prior(8)
        with pytest.raises(ValidationError):
            prior.mass(0)
        with pytest.raises(ValidationError):
            prior.mass(9)

    def test_neg_log2_matches_mass(self):
        prior = rissanen_prior(32)
        for j in (1, 7, 32):
            assert neg_log2(prior.mass(j)) == pytest.approx(
                -math.log2(float(prior.mass(j))), rel=1e-12)
