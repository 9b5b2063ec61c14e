import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from maxent_lab import (
    IIDPredictor,
    SumTableProvider,
    build_space,
    conditioned_prior_predictor,
    constraint_prob,
    derive_lattice,
    enumerate_constraint_sequences,
    enumerate_oracle,
    first_feasible_sizes,
    maxent_predictor,
    mixture_gap_series,
    mixture_predictor,
    renewal_compose,
    representative_sequence,
    rissanen_prior,
)
from maxent_lab.errors import ValidationError
from maxent_lab.sumdist import EXACT

from conftest import BRANDEIS_MASSES
from test_window import problems


def _exact(space, constraint, horizon):
    """Rational sum tables of the prior to ``horizon``."""
    return SumTableProvider(space, constraint, horizon, mode=EXACT)


class TestMaxentPredictor:
    def test_single_symbol_codelength(self, dice, dice_solution):
        predictor = maxent_predictor(dice, dice_solution)
        # outcome 6 carries the published projection mass
        got = predictor.sequence_codelength((5,))
        assert got == pytest.approx(-math.log2(BRANDEIS_MASSES[5]), abs=1e-4)

    def test_uniform_two_symbols(self, dice):
        predictor = IIDPredictor(dice, [Fraction(1, 6)] * 6, "uniform")
        assert predictor.sequence_codelength((0, 3)) == \
            pytest.approx(2 * math.log2(6), rel=1e-12)

    def test_additivity_over_concatenation(self, dice, dice_solution):
        predictor = maxent_predictor(dice, dice_solution)
        a, b = (0, 2, 4), (5, 5)
        assert predictor.sequence_codelength(a + b) == pytest.approx(
            predictor.sequence_codelength(a) + predictor.sequence_codelength(b),
            rel=1e-12)


class TestConditionedPrior:
    def test_coin_two_step_masses(self, coin, coin_constraint):
        oracle = enumerate_oracle(coin, coin_constraint, 2)
        predictor = conditioned_prior_predictor(
            _exact(coin, coin_constraint, 2), 2)
        for seq in itertools.product(range(2), repeat=2):
            want = oracle.conditional.get(seq, Fraction(0))
            assert math.prod(predictor.masses(seq)) == want

    def test_codelength_is_conditioning_identity(self, dice, dice_constraint):
        n = 4
        predictor = conditioned_prior_predictor(
            _exact(dice, dice_constraint, n), n)
        prob_c = constraint_prob(dice, dice_constraint, n, mode=EXACT)
        for seq in enumerate_constraint_sequences(dice, dice_constraint, n)[:20]:
            mass_q = Fraction(1, 6 ** n)
            want = -(math.log2(mass_q.numerator) - math.log2(mass_q.denominator)) \
                + (math.log2(prob_c.numerator) - math.log2(prob_c.denominator))
            assert predictor.sequence_codelength(seq) == pytest.approx(
                want, rel=1e-12)

    def test_killing_step_gets_zero_mass(self, coin, coin_constraint):
        predictor = conditioned_prior_predictor(
            _exact(coin, coin_constraint, 4), 4)
        # three heads cannot be balanced by one remaining symbol
        masses = list(predictor.masses((1, 1, 1, 0)))
        assert all(m > 0 for m in masses[:2])
        assert masses[2] == 0
        assert math.prod(predictor.masses((1, 1, 1, 0))) == 0
        assert predictor.sequence_codelength((1, 1, 1, 0)) == math.inf

    def test_continues_iid_after_horizon(self, coin, coin_constraint):
        predictor = conditioned_prior_predictor(
            _exact(coin, coin_constraint, 2), 2)
        mass = math.prod(predictor.masses((0, 1, 1, 1)))
        assert mass == Fraction(1, 2) * Fraction(1, 4)

    def test_infeasible_horizon_rejected(self, dice, dice_constraint):
        with pytest.raises(ValidationError):
            conditioned_prior_predictor(
                SumTableProvider(dice, dice_constraint, 3), 3)


@settings(max_examples=60, deadline=None)
@given(problems(), st.integers(1, 4))
def test_conditioned_prior_matches_the_oracle(problem, n):
    # exact: the product of the conditionals along each length-n sequence is
    # its conditional mass given C_n, zero off the constraint set
    space, constraint, measure, _ = problem
    provider = SumTableProvider(space, constraint, n, measure=measure,
                                mode=EXACT)
    oracle = enumerate_oracle(space, constraint, n, measure=measure)
    if oracle.prob_constraint == 0:
        with pytest.raises(ValidationError):
            conditioned_prior_predictor(provider, n)
        return
    predictor = conditioned_prior_predictor(provider, n)
    for seq in itertools.product(range(space.size), repeat=n):
        assert math.prod(predictor.masses(seq)) == \
            oracle.conditional.get(seq, 0)


def _prefix_consistency_exact(predictor, size, depth):
    """Sum of masses over X^m equals 1 for every m <= depth (exact)."""
    for m in range(1, depth + 1):
        total = sum(math.prod(predictor.masses(seq))
                    for seq in itertools.product(range(size), repeat=m))
        assert total == 1


class TestPrefixConsistency:
    def test_conditioned_prior_exact(self, coin, coin_constraint):
        predictor = conditioned_prior_predictor(
            _exact(coin, coin_constraint, 4), 4)
        _prefix_consistency_exact(predictor, 2, 6)

    def test_mixture_exact(self, coin, coin_constraint):
        # the coin's feasible sizes are the even ones
        predictor = mixture_predictor(_exact(coin, coin_constraint, 8),
                                      rissanen_prior(4))
        _prefix_consistency_exact(predictor, 2, 6)

    def test_renewal_exact(self, coin, coin_constraint):
        provider = _exact(coin, coin_constraint, 6)
        factory = lambda: mixture_predictor(provider, rissanen_prior(3))
        predictor = renewal_compose(coin, coin_constraint, factory)
        _prefix_consistency_exact(predictor, 2, 6)

    def test_float_conditionals_sum_to_one(self, dice, dice_constraint,
                                           dice_solution):
        provider = SumTableProvider(dice, dice_constraint, 8)
        predictor = conditioned_prior_predictor(provider, 8)
        seq = (3, 4, 2)
        for t in range(len(seq)):
            total = sum(list(predictor.masses(seq[:t] + (x,)))[-1]
                        for x in range(dice.size))
            assert total == pytest.approx(1.0, abs=1e-9)


class TestMixture:
    def test_single_component_degenerates(self, coin, coin_constraint):
        provider = _exact(coin, coin_constraint, 2)
        mixture = mixture_predictor(provider, rissanen_prior(1))
        conditioned = conditioned_prior_predictor(provider, 2)
        for seq in itertools.product(range(2), repeat=4):
            assert math.prod(mixture.masses(seq)) == \
                math.prod(conditioned.masses(seq))

    def test_mixture_lower_bound(self, coin, coin_constraint):
        prior = rissanen_prior(4)
        provider = _exact(coin, coin_constraint, 8)
        sizes = [2, 4, 6, 8]
        mixture = mixture_predictor(provider, prior)
        for j, n_j in enumerate(sizes, start=1):
            component = conditioned_prior_predictor(provider, n_j)
            for seq in itertools.product(range(2), repeat=4):
                assert math.prod(mixture.masses(seq)) >= \
                    prior.mass(j) * math.prod(component.masses(seq))

    def test_arithmetic_follows_the_provider(self, coin, coin_constraint):
        # a rational provider makes the weights and every conditional exact
        mixture = mixture_predictor(_exact(coin, coin_constraint, 6),
                                    rissanen_prior(3))
        seq = (0, 1, 1, 0)
        assert all(isinstance(c, Fraction) for c in mixture.masses(seq))
        assert math.prod(mixture.masses(seq)) == Fraction(359940716346852413,
                                                          2772133847403501930)
        floats = mixture_predictor(SumTableProvider(coin, coin_constraint, 6),
                                   rissanen_prior(3))
        assert all(isinstance(c, float) for c in floats.masses(seq))
        assert math.prod(floats.masses(seq)) == 0.12984247376222044

    def test_one_table_lookup_per_scored_symbol(self, coin, coin_constraint,
                                                monkeypatch):
        # each component reads its horizon mass once when it is built, then
        # one suffix mass per symbol before its horizon, which is the next
        # symbol's denominator; every table read goes through the provider
        from maxent_lab.sumdist import SumDistribution
        calls, reads = [], []
        mass, mass_units = SumTableProvider.mass, SumDistribution.mass_units
        monkeypatch.setattr(SumTableProvider, "mass", lambda self, m, units:
                            calls.append(m) or mass(self, m, units))
        monkeypatch.setattr(SumDistribution, "mass_units", lambda self, units:
                            reads.append(self.n) or mass_units(self, units))
        sizes = [2, 4, 6]
        mixture = mixture_predictor(_exact(coin, coin_constraint, 6),
                                    rissanen_prior(3))
        assert sorted(calls) == sizes
        seq = (0, 1, 1, 0, 0, 1, 1, 0)  # on target at 2, 4 and 6
        scores = []
        for _ in range(2):  # a predictor keeps no state between sequences
            del calls[:]
            scores.append(math.prod(mixture.masses(seq)))
            assert sorted(calls) == sorted(n_j - t - 1 for n_j in sizes
                                           for t in range(n_j))
        assert scores[0] == scores[1] > 0
        assert len(reads) == len(sizes) + 2 * len(calls)

    @pytest.mark.parametrize("horizon,gaps", [(8, (0.86398, -0.86866)),
                                              (16, (0.83107, -0.77259))])
    def test_gap_series_measures_the_mixture_to_its_horizon(
            self, coin, coin_constraint, coin_solution, horizon, gaps):
        # the gaps at a horizon are those of the mixture over the feasible
        # sizes up to it: 4 components at horizon 8, all 8 at horizon 16
        prior = rissanen_prior(8)
        mixture = mixture_predictor(
            SumTableProvider(coin, coin_constraint, horizon), prior)
        assert len(mixture.components) == horizon // 2
        series = mixture_gap_series(coin, coin_constraint, coin_solution,
                                    prior, n_max=4, horizon=horizon)
        proj = maxent_predictor(coin, coin_solution)
        for record, gap in zip(series, gaps):
            direct = min(
                math.log2(float(math.prod(mixture.masses(seq))))
                + proj.sequence_codelength(seq)
                for seq in enumerate_constraint_sequences(
                    coin, coin_constraint, record.n))
            assert record.gap_bits == pytest.approx(direct, abs=1e-9)
            assert record.gap_bits == pytest.approx(gap, abs=1e-5)
        assert [r.n for r in series] == [2, 4]

    def test_gap_series_matches_direct_minimum(self, coin, coin_constraint,
                                               coin_solution):
        # closed-form series against brute-force minimum over the constraint set
        prior = rissanen_prior(8)
        mixture = mixture_predictor(
            SumTableProvider(coin, coin_constraint, 16), prior)
        series = mixture_gap_series(coin, coin_constraint, coin_solution,
                                    prior, n_max=8, horizon=16)
        proj = maxent_predictor(coin, coin_solution)
        for record in series:
            direct = min(
                math.log2(float(math.prod(mixture.masses(seq))))
                - (-proj.sequence_codelength(seq))
                for seq in enumerate_constraint_sequences(
                    coin, coin_constraint, record.n)
            )
            assert record.gap_bits == pytest.approx(direct, abs=1e-9)


    def test_long_prefix_matches_the_log_domain_sum(self):
        # eight outcomes with T = 0..7 at mean 7/2: 210 components condition
        # on n = 2, 4, ..., 420. On the representative at n = 400 only the
        # 11 of sizes 400..420 stay live, and unscaled posteriors of weight
        # times prefix mass underflow about 1074 bits in
        space = build_space([f"x{i}" for i in range(8)], [1] * 8)
        constraint = derive_lattice([[i] for i in range(8)], ["7/2"])
        prior = rissanen_prior(210)
        sizes = first_feasible_sizes(space, constraint, prior.j_max, 420)
        mixture = mixture_predictor(
            SumTableProvider(space, constraint, sizes[-1]), prior)
        seq = representative_sequence(space, constraint, 400)
        live = [(w, bits) for w, c in zip(mixture.weights, mixture.components)
                if (bits := c.sequence_codelength(seq)) < math.inf]
        assert len(live) == 11
        low = min(bits for _, bits in live)
        expected = low - math.log2(sum(w * 2.0 ** (low - bits)
                                       for w, bits in live))
        assert expected == pytest.approx(1206.6143, abs=1e-4)
        assert mixture.sequence_codelength(seq) == \
            pytest.approx(expected, rel=1e-12)


def _unscaled_mixture_masses(mixture, sequence):
    """The mixture recursion with plain posteriors, weight times prefix
    mass, which underflow on long prefixes."""
    posteriors = list(mixture.weights)
    streams = [c.masses(sequence) for c in mixture.components]
    for conds in zip(*streams):
        total = sum(posteriors)
        if total == 0:
            yield 1.0 / mixture.space.size
            continue
        acc = None
        for post, cond in zip(posteriors, conds):
            if post != 0:
                acc = post * cond if acc is None else acc + post * cond
        yield acc / total
        posteriors = [post if post == 0 else post * cond
                      for post, cond in zip(posteriors, conds)]


@settings(max_examples=80, deadline=None)
@given(problems(), st.integers(1, 6), st.data())
def test_mixture_scaling_keeps_every_bit(problem, j_max, data):
    # on short sequences the plain posteriors stay normal floats, and there
    # the shared power-of-two scale must not move any bit of any mass
    space, constraint, _, _ = problem
    sizes = first_feasible_sizes(space, constraint, j_max, n_cap=12)
    assume(sizes)
    mixture = mixture_predictor(SumTableProvider(space, constraint, sizes[-1]),
                                rissanen_prior(j_max))
    seq = data.draw(st.lists(st.integers(0, space.size - 1),
                             max_size=2 * sizes[-1] + 2))
    assert [m.hex() for m in mixture.masses(seq)] == \
        [m.hex() for m in _unscaled_mixture_masses(mixture, seq)]


class TestRenewal:
    def test_iid_block_is_noop(self, coin, coin_solution, coin_constraint):
        composed = renewal_compose(coin, coin_constraint,
                                   lambda: maxent_predictor(coin, coin_solution))
        iid = maxent_predictor(coin, coin_solution)
        for seq in itertools.product(range(2), repeat=6):
            assert composed.sequence_codelength(seq) == pytest.approx(
                iid.sequence_codelength(seq), rel=1e-12)

    def test_masses_sum_to_one(self, coin, coin_constraint):
        provider = _exact(coin, coin_constraint, 6)
        factory = lambda: mixture_predictor(provider, rissanen_prior(3))
        composed = renewal_compose(coin, coin_constraint, factory)
        for m in (1, 3, 6):
            total = sum(math.prod(composed.masses(seq))
                        for seq in itertools.product(range(2), repeat=m))
            assert total == 1

    def test_alpha_block_lower_bound_pattern(self, coin, coin_constraint,
                                             coin_solution):
        # p_alpha mixes a challenger with the projection; the composed mass is
        # at least alpha^m (1 - alpha) 2^(m c'') times the projection mass,
        # with c'' measured as the challenger's worst gap on constraint blocks
        alpha = Fraction(3, 4)
        prior = rissanen_prior(4)
        provider = _exact(coin, coin_constraint, 8)

        def challenger():
            return mixture_predictor(provider, prior)

        # p_alpha = alpha * challenger + (1 - alpha) * projection
        from maxent_lab.predictors import MixturePredictor

        def p_alpha():
            return MixturePredictor(
                coin,
                [challenger(), IIDPredictor(coin, [Fraction(1, 2)] * 2, "proj")],
                [alpha, 1 - alpha], EXACT)

        composed = renewal_compose(coin, coin_constraint, p_alpha)
        proj = IIDPredictor(coin, [Fraction(1, 2)] * 2, "proj")

        # measure c'' over constraint blocks up to length 6
        chall = challenger()
        c2 = min(
            math.log2(float(math.prod(chall.masses(seq)))) -
            math.log2(float(math.prod(proj.masses(seq))))
            for n in (2, 4, 6)
            for seq in enumerate_constraint_sequences(coin, coin_constraint, n)
        )
        for seq in itertools.product(range(2), repeat=6):
            hits = 0
            units = 0
            for i, idx in enumerate(seq, start=1):
                units += idx
                if 2 * units == i:
                    hits += 1
            lower = float(alpha) ** hits * float(1 - alpha) \
                * 2.0 ** (hits * c2) * float(math.prod(proj.masses(seq)))
            assert float(math.prod(composed.masses(seq))) >= \
                lower * (1 - 1e-12)
