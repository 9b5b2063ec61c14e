"""Rational mode against the enumeration oracle on random rational problems.

Priors draw their weights over mixed denominators, so the common step
denominator D and the D**n bookkeeping of the integer DPs are exercised in a
way the uniform-die fixtures cannot; a tilted measure whose weights do not sum
to one checks that no DP assumes a normalized measure.
"""

import math
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from maxent_lab import (
    BigramDeviationEvent,
    BoxEvent,
    FrequencyDeviationEvent,
    SumTableProvider,
    build_space,
    central_series,
    conditional_event_prob,
    conditional_marginal,
    convolve,
    derive_lattice,
    enumerate_oracle,
    sum_distribution,
)
from maxent_lab.sumdist import EXACT, FLOAT

weights_st = st.builds(Fraction, st.integers(1, 9), st.integers(2, 12))


@st.composite
def problems(draw):
    """(space, constraint, measure, n) with |X| <= 5, k <= 2, n <= 6."""
    size = draw(st.integers(2, 5))
    k = draw(st.integers(1, 2))
    space = build_space(list(range(size)),
                        draw(st.lists(weights_st, min_size=size, max_size=size)))
    values = draw(st.lists(
        st.lists(st.integers(0, 3), min_size=k, max_size=k),
        min_size=size, max_size=size))
    for j in range(k):
        assume(len({row[j] for row in values}) > 1)
    # the target is the average of a short sequence, so some sizes are feasible
    block = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=3))
    target = [Fraction(sum(values[i][j] for i in block), len(block))
              for j in range(k)]
    constraint = derive_lattice(values, target)
    if draw(st.booleans()):
        measure = "q"
    else:
        tilt = draw(st.lists(weights_st, min_size=size, max_size=size))
        assume(sum(tilt) != 1)
        measure = ("tilt", tilt)
    n = draw(st.integers(1, 6))
    return space, constraint, measure, n


def _exact(value):
    return isinstance(value, Fraction)


def _measure_weights(measure, space):
    return space.prior_fractions if measure == "q" else measure[1]


@settings(max_examples=40, deadline=None)
@given(problems())
def test_sum_tables_match_oracle(problem):
    space, constraint, measure, n = problem
    series = central_series(space, constraint, n, measure=measure,
                            mode=EXACT)
    assert all(_exact(v) for v in series)
    for size in range(1, n + 1):
        want = enumerate_oracle(space, constraint, size,
                                measure=measure).prob_constraint
        assert series[size] == want
        table = sum_distribution(space, constraint, size, measure=measure,
                                 mode=EXACT)
        assert _exact(table.mass_at_target())
        assert table.mass_at_target() == want
    direct = sum_distribution(space, constraint, n, measure=measure,
                              mode=EXACT)
    assert sum(m for _, m in direct.items()) == \
        sum(_measure_weights(measure, space)) ** n
    for n1 in range(n + 1):
        a = sum_distribution(space, constraint, n1, measure=measure,
                             mode=EXACT)
        b = sum_distribution(space, constraint, n - n1, measure=measure,
                             mode=EXACT)
        joined = convolve(a, b)
        assert _exact(joined.mass_at_target())
        assert joined.mass_at_target() == series[n]
        assert dict(joined.items()) == dict(direct.items())
        assert all(_exact(m) for _, m in joined.items())


@settings(max_examples=40, deadline=None)
@given(problems(), st.data())
def test_event_probabilities_match_oracle(problem, data):
    space, constraint, measure, n = problem
    size = space.size
    labels = st.sampled_from(space.outcomes)
    eps = st.builds(Fraction, st.integers(1, 5), st.just(10))
    lower = data.draw(st.builds(Fraction, st.integers(0, 8), st.just(4)))
    width = data.draw(st.builds(Fraction, st.integers(0, 6), st.just(4)))
    events = [
        FrequencyDeviationEvent.make(data.draw(eps), space.prior_fractions),
        BoxEvent.make(data.draw(st.lists(st.integers(0, 3), min_size=size,
                                         max_size=size)),
                      [lower], [lower + width], inside=data.draw(st.booleans())),
        BigramDeviationEvent.make(data.draw(labels), data.draw(labels),
                                  data.draw(eps)),
    ]
    oracle = enumerate_oracle(space, constraint, n, measure=measure,
                              events=events)
    for event, want in zip(events, oracle.event_results):
        got = conditional_event_prob(space, constraint, event, n,
                                     measure=measure, mode=EXACT)
        for field in ("prob_event", "prob_joint", "prob_constraint"):
            assert _exact(getattr(got, field))
            assert getattr(got, field) == getattr(want, field)


@settings(max_examples=40, deadline=None)
@given(problems(), st.integers(1, 3))
def test_conditional_marginal_matches_oracle(problem, m):
    space, constraint, measure, n = problem
    assume(m < n)
    oracle = enumerate_oracle(space, constraint, n, measure=measure)
    assume(oracle.prob_constraint != 0)
    got = conditional_marginal(
        SumTableProvider(space, constraint, n, measure=measure,
                         mode=EXACT),
        m, n)
    want = oracle.marginal(m)
    assert all(_exact(v) for v in got.masses.values())
    assert {p: v for p, v in got.masses.items() if v != 0} == want


def _float_loop_tv(marginal, pmf) -> float:
    """TV to the product of ``pmf`` by float operations in prefix order: the
    bits a ``FLOAT`` marginal must give."""
    tv = 0.0
    for prefix, mass in marginal.masses.items():
        prod = 1.0
        for idx in prefix:
            prod *= float(pmf[idx])
        tv += abs(float(mass) - prod)
    return 0.5 * tv


@settings(max_examples=40, deadline=None)
@given(problems(), st.integers(1, 2), st.data())
def test_tv_is_summed_in_the_marginal_arithmetic(problem, m, data):
    space, constraint, measure, n = problem
    assume(m < n)
    center = constraint.center_units(n)
    exact = SumTableProvider(space, constraint, n, measure=measure, mode=EXACT)
    assume(center is not None and exact.mass(n, center) != 0)
    pmf = [float(w) for w in data.draw(st.lists(
        weights_st, min_size=space.size, max_size=space.size))]
    marginal = conditional_marginal(exact, m, n)
    want = sum(abs(mass - math.prod(Fraction(pmf[i]) for i in prefix))
               for prefix, mass in marginal.masses.items()) / 2
    assert marginal.tv_to_product(pmf) == float(want)
    marginal = conditional_marginal(
        SumTableProvider(space, constraint, n, measure=measure, mode=FLOAT),
        m, n)
    assert marginal.tv_to_product(pmf).hex() == \
        _float_loop_tv(marginal, pmf).hex()
