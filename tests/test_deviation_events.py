"""A rare deviation event keeps its digits.

The coin fixture's frequency event, |count/n - 1/2| > 1/5 under the fair
projection, has the exact mass of a binomial tail. The float event DP must
give it within 1e-12 relative at every size of the fixture's ``concentrate``
block. A DP that takes the event mass as the all-counts mass less the
in-band mass cancels: it is 1.4e-12 off at n = 100 and gives 0.0 at n = 1000,
for a tail of 7.5e-38. The exact twin of a float run, ``EXACT`` on the same
measure, is the reference: it reads each float mass as its binary rational
and gives the tail exactly.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from maxent_lab import (
    FrequencyDeviationEvent,
    build_space,
    conditional_event_prob,
    derive_lattice,
)
from maxent_lab.config import build_event, load_config
from maxent_lab.fixtures import load_fixture
from maxent_lab.sumdist import EXACT, FLOAT

def _binomial_tail(n: int, epsilon: Fraction) -> Fraction:
    """P(|X/n - 1/2| > epsilon) for X ~ Binomial(n, 1/2), exactly."""
    return sum(Fraction(math.comb(n, k), 2 ** n) for k in range(n + 1)
               if abs(Fraction(k, n) - Fraction(1, 2)) > epsilon)


def _coin_event():
    """(space, constraint, solution, concentrate block, event spec, event)
    of the coin fixture."""
    config = load_config(load_fixture("coin"))
    space, constraint = config.problem.build()
    solution = config.problem.solve()
    block, = (b for b in config.experiments if b["kind"] == "concentrate")
    spec, = block["events"]
    return (space, constraint, solution, block, spec,
            build_event(spec, space, solution))


@pytest.mark.parametrize("n", [2, 10, 100, 1000])
def test_coin_frequency_event_is_the_binomial_tail(n):
    space, constraint, solution, block, spec, event = _coin_event()
    assert n in block["n_list"]
    got = conditional_event_prob(space, constraint, event, n,
                                 measure=solution).prob_event
    want = float(_binomial_tail(n, Fraction(spec["epsilon"])))
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("n", [100, 200])
def test_exact_twin_is_the_binomial_tail(n):
    # the projection's masses are the floats 0.5, read exactly as 1/2
    space, constraint, solution, _, spec, event = _coin_event()
    got = conditional_event_prob(space, constraint, event, n,
                                 measure=solution, mode=EXACT).prob_event
    assert got == _binomial_tail(n, Fraction(spec["epsilon"]))


# (value of T, prior weight) per outcome
outcomes_st = st.lists(st.tuples(st.integers(0, 3), st.integers(1, 9)),
                       min_size=2, max_size=4)
# (outcomes, block, epsilon, n) whose event holds less than 1e-10 of the
# constraint mass: the fair coin, and three outcomes at mean 1 whose joint
# mass is rarer still
RARE = [([(0, 1), (1, 1)], [0, 1], Fraction(9, 20), 48),
        ([(0, 1), (1, 1), (2, 1)], [1], Fraction(11, 20), 48)]


def _twin_masses(outcomes, block, epsilon, n):
    """Event DP results in ``FLOAT`` and ``EXACT`` on one float pmf, with the
    target the mean of ``block`` and the event's reference that pmf."""
    values = [[v] for v, _ in outcomes]
    space = build_space(list(range(len(outcomes))), [w for _, w in outcomes])
    constraint = derive_lattice(
        values, [Fraction(sum(values[i][0] for i in block), len(block))])
    pmf = [float(p) for p in space.prior_fractions]
    event = FrequencyDeviationEvent.make(epsilon, pmf)
    return [conditional_event_prob(space, constraint, event, n,
                                   measure=("p", pmf), mode=mode)
            for mode in (FLOAT, EXACT)]


@example(*RARE[0])
@example(*RARE[1])
@settings(max_examples=60, deadline=None)
@given(outcomes_st, st.lists(st.integers(0, 3), min_size=1, max_size=3),
       st.builds(Fraction, st.integers(1, 11), st.just(20)),
       st.integers(1, 48))
def test_float_event_masses_match_the_exact_twin(outcomes, block, epsilon, n):
    # a wide band around the measure's own pmf leaves a rare event
    assume(len({v for v, _ in outcomes}) > 1)
    got, want = _twin_masses(outcomes, [i % len(outcomes) for i in block],
                             epsilon, n)
    for g, w in ((got.prob_event, want.prob_event),
                 (got.prob_joint, want.prob_joint)):
        assert abs(g - float(w)) <= 1e-12 * float(w)


@pytest.mark.parametrize("problem", RARE)
def test_twin_examples_are_rare(problem):
    _, want = _twin_masses(*problem)
    assert 0 < want.prob_event < Fraction(1, 10 ** 10) * want.prob_constraint


def test_die_at_mean_5_keeps_its_rate_at_n_420():
    # the frequency event (epsilon 1/5 around the projection) of the die at
    # mean 5: -ln P~(A)/n falls toward its limit I(A) = 0.081426 nats
    # (ROADMAP item 24), and at n = 420 P~(A) is about 1e-16
    config = load_config({
        "problem": {"outcomes": [str(x) for x in range(1, 7)],
                    "prior": ["1/6"] * 6, "T": [[str(x) for x in range(1, 7)]],
                    "target": ["5"]},
        "experiments": [{"kind": "solve"}]})
    space, constraint = config.problem.build()
    solution = config.problem.solve()
    event = build_event({"type": "freq_deviation", "epsilon": "1/5",
                         "reference": "maxent"}, space, solution)
    rate = {}
    for n in (300, 420):
        ptilde = conditional_event_prob(space, constraint, event, n,
                                        measure=solution).prob_event
        assert ptilde > 0
        rate[n] = -math.log(ptilde) / n
    assert 0.081426 < rate[420] < rate[300]
