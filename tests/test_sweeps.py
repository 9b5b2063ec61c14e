"""Every caller of the two table sweeps reads the same tables.

The sum-table sweep feeds ``sum_distribution``, ``central_series`` and
``SumTableProvider``; the reachability sweep feeds ``feasible_sizes``,
``first_feasible_sizes``, ``enumerate_constraint_sequences`` and
``representative_sequence``. Random rational problems check that the callers
agree exactly with one another, and the sequence walk against brute force.
"""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from maxent_lab import (
    SumTableProvider,
    build_space,
    central_series,
    derive_lattice,
    enumerate_constraint_sequences,
    feasible_sizes,
    first_feasible_sizes,
    representative_sequence,
    sum_distribution,
)
from maxent_lab.errors import LatticeBlowupError
from maxent_lab.lattice import _layout, _window
from maxent_lab.sumdist import EXACT, FLOAT

weights_st = st.builds(Fraction, st.integers(1, 9), st.integers(2, 12))


@st.composite
def problems(draw):
    """(space, constraint, measure, mode) with |X| <= 6 and k <= 3."""
    size = draw(st.integers(2, 6))
    k = draw(st.integers(1, 3))
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
    mode = draw(st.sampled_from([FLOAT, EXACT]))
    measure = "q"
    if mode is EXACT and draw(st.booleans()):
        measure = ("tilt", draw(st.lists(weights_st, min_size=size,
                                         max_size=size)))
    return space, constraint, measure, mode


def _masses(table, cells):
    """The masses of ``cells`` in a form that compares exactly: Fractions as
    they are, floats by their bits."""
    return [(type(m), m.hex() if isinstance(m, float) else m)
            for m in map(table.mass_units, cells)]


@settings(max_examples=60, deadline=None)
@given(problems(), st.integers(0, 5))
def test_provider_central_series_and_sum_distribution_agree(problem, n_max):
    # the provider at horizon n_max keeps the cells of each table's window,
    # and each of them holds the full table's mass
    space, constraint, measure, mode = problem
    provider = SumTableProvider(space, constraint, n_max, measure=measure,
                                mode=mode)
    series = central_series(space, constraint, n_max, measure=measure, mode=mode)
    assert len(series) == n_max + 1
    for n in range(n_max + 1):
        direct = sum_distribution(space, constraint, n, measure=measure, mode=mode)
        cached = provider.table(n)
        assert direct.n == cached.n == n
        origin, shape = _window(constraint, n_max, n)
        layout = _layout(constraint, shape) if n else shape
        assert cached.origin == origin and cached.table.shape == layout
        cells = list(product(*(range(o, o + s) for o, s in zip(origin, shape))))
        assert _masses(cached, cells) == _masses(direct, cells)
        # the layout's pad cells hold the sum's identity
        pad = set(product(*map(range, layout))) - set(product(*map(range, shape)))
        zero = np.zeros(1, dtype=cached.table.dtype).item()
        assert all(type(cached.table.item(i)) is type(zero)
                   and cached.table.item(i) == 0 for i in pad)
        assert series[n] == direct.mass_at_target()
        assert type(series[n]) is type(direct.mass_at_target())


@settings(max_examples=60, deadline=None)
@given(problems(), st.integers(1, 8), st.data())
def test_first_feasible_sizes_prefix_of_feasible_sizes(problem, n_max, data):
    space, constraint, _, _ = problem
    sizes = feasible_sizes(space, constraint, n_max)
    count = data.draw(st.integers(0, len(sizes) + 1))
    assert first_feasible_sizes(space, constraint, count, n_cap=n_max) \
        == sizes[:count]


@settings(max_examples=60, deadline=None)
@given(problems(), st.integers(1, 5))
def test_walk_matches_brute_force_and_representative(problem, n):
    space, constraint, _, _ = problem
    assume(space.size ** n <= 4000)
    center = constraint.center_units(n)
    brute = [seq for seq in product(range(space.size), repeat=n)
             if center is not None and tuple(
                 sum(constraint.units[i][j] for i in seq) for j in range(constraint.dim)
             ) == center]
    assert enumerate_constraint_sequences(space, constraint, n) == brute
    assert bool(brute) == (n in feasible_sizes(space, constraint, n))
    if brute:
        assert representative_sequence(space, constraint, n) == brute[0]


def test_provider_raises_again_after_a_sparse_blowup(dice, dice_constraint):
    # a block of sizes shares one provider and carries on past a failed size;
    # the tables to m = 10**4 (about 2.5e8 cells) are refused on every call
    provider = SumTableProvider(dice, dice_constraint, 10 ** 4, mode=EXACT)
    for _ in range(2):
        with pytest.raises(LatticeBlowupError):
            provider.table(10 ** 4)
    assert provider.table(0).mass_at_target() == 1


def test_enumeration_refuses_oversized_reachability_tables(cube3, cube3_constraint):
    # the tables to n = 400 would hold about 6.5e9 cells
    with pytest.raises(LatticeBlowupError):
        enumerate_constraint_sequences(cube3, cube3_constraint, 400)
