"""A rare deviation event keeps its digits (ROADMAP item 19's gate).

The coin fixture's frequency event, |count/n - 1/2| > 1/5 under the fair
projection, has the exact mass of a binomial tail. The float event DP must
give it within 1e-12 relative at every size of the fixture's ``concentrate``
block. Today the DP takes the event mass as the all-counts mass less the
in-band mass, which cancels: at n = 100 it is 1.4e-12 off, and at n = 1000
it returns 0.0 for a tail of 7.5e-38. Those sizes are strict expected
failures until item 19 sums the event mass directly. The exact twin of the
float run, ``EXACT`` on the same projection, is the reference: it reads each
float mass as its binary rational and gives the tail exactly.
"""

import math
from fractions import Fraction

import pytest

from maxent_lab import conditional_event_prob
from maxent_lab.config import build_event, load_config
from maxent_lab.fixtures import load_fixture
from maxent_lab.sumdist import EXACT

CANCELS = pytest.mark.xfail(
    strict=True, reason="item 19: the frequency event's mass is a difference "
    "of two masses near 1, which cancels")


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


@pytest.mark.parametrize("n", [2, 10, pytest.param(100, marks=CANCELS),
                               pytest.param(1000, marks=CANCELS)])
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
