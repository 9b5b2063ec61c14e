"""The hit-cost minima of the worst-case mixture gap, in closed form.

``mixture_gap_series`` takes its hit-cost minima from
``analysis._hit_cost_minima``: by the first-return decomposition the minimum
at a size n is ``costs[n]`` itself, except below the first size whose
constraint set holds a nonzero centred step T(x) - t, where every path hits at
every size and the minimum is the running sum of the costs. Random problems,
half of them with an outcome whose statistic equals the target, check it bit
for bit against the min-plus sweep ``min_hit_cost_series``; a problem with two
such sizes checks the whole gap series against a brute-force minimum.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from maxent_lab import (
    build_space,
    derive_lattice,
    enumerate_constraint_sequences,
    feasible_sizes,
    maxent_predictor,
    mixture_gap_series,
    mixture_predictor,
    rissanen_prior,
    solve_maxent,
)
from maxent_lab.analysis import _hit_cost_minima, min_hit_cost_series

costs_st = st.floats(min_value=2.0 ** -30, max_value=2.0 ** 30)


@st.composite
def problems(draw):
    """(space, constraint) with |X| <= 6, k <= 3 and statistic values in
    -2..3; the target is an outcome's own value or a short block average."""
    size = draw(st.integers(2, 6))
    k = draw(st.integers(1, 3))
    space = build_space(list(range(size)), [1] * size)
    values = draw(st.lists(
        st.lists(st.integers(-2, 3), min_size=k, max_size=k),
        min_size=size, max_size=size))
    for j in range(k):
        assume(len({row[j] for row in values}) > 1)
    if draw(st.booleans()):
        block = [draw(st.integers(0, size - 1))]
    else:
        block = draw(st.lists(st.integers(0, size - 1), min_size=2,
                              max_size=3))
    target = [Fraction(sum(values[i][j] for i in block), len(block))
              for j in range(k)]
    return space, derive_lattice(values, target)


@settings(max_examples=150, deadline=None)
@given(problems(), st.integers(1, 8), st.integers(0, 3), st.data())
def test_closed_form_matches_sweep(problem, n_max, extra, data):
    space, constraint = problem
    sizes = feasible_sizes(space, constraint, n_max + extra).sizes()
    sizes = sizes[: data.draw(st.integers(0, len(sizes)))]
    costs = {m: data.draw(costs_st) for m in sizes}
    sweep = min_hit_cost_series(constraint, costs, n_max)
    closed = _hit_cost_minima(constraint, costs, n_max)
    assert {m: v.hex() for m, v in closed.items()} == \
        {m: v.hex() for m, v in sweep.items()}


def test_gap_series_with_zero_step_matches_direct_minimum():
    # outcomes {0, 1, 3} at target 1: C_1 = {(1,)} and C_2 = {(1, 1)} hold
    # only the zero step, so sizes 1 and 2 pay the running sum; C_3 also
    # holds (0, 0, 3)
    space = build_space([0, 1, 3], [1, 1, 1])
    constraint = derive_lattice([[0], [1], [3]], [1])
    solution = solve_maxent(space, constraint)
    prior = rissanen_prior(8)
    mixture = mixture_predictor(space, constraint, prior, n_cap=16)
    series = mixture_gap_series(space, constraint, solution, prior, n_max=6,
                                horizon=16)
    assert [r.n for r in series] == [1, 2, 3, 4, 5, 6]
    proj = maxent_predictor(space, solution)
    for record in series:
        direct = min(
            math.log2(float(mixture.sequence_mass(seq)))
            - (-proj.sequence_codelength(seq))
            for seq in enumerate_constraint_sequences(space, constraint,
                                                      record.n)
        )
        assert record.gap_bits == pytest.approx(direct, abs=1e-9)
