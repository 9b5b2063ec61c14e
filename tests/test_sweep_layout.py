"""A windowed sweep step makes one copy: the cut, in the layout the next step reads.

``lattice._grow`` cuts each table of a windowed sweep to its ``_window`` and
writes it in its ``_layout``: ``unit_max_j`` more cells on each inner axis
j >= 1, at the combine's identity, which is the shape ``_shift_combine``
shifts as one flat slice. So on a windowed sweep the kernel pads only the
size-0 table, a step holds one table-sized array less than when the kernel
padded a copy of its own, and a pad cell reads as a cell outside the window.
"""

import tracemalloc
from itertools import islice, product
from math import prod
from operator import add

import pytest
from hypothesis import assume, given, settings, strategies as st

from maxent_lab import SumTableProvider, lattice, sumdist
from maxent_lab.lattice import _layout, _Reach, _reach_sweep, _window
from maxent_lab.sumdist import EXACT, FLOAT, _central_masses

from test_window import _exact, problems


@settings(max_examples=40, deadline=None)
@given(problems(), st.integers(1, 6))
def test_windowed_sweeps_pad_only_the_size_0_table(problem, horizon):
    space, constraint, _, _ = problem
    assume(constraint.dim >= 2)
    kernel = lattice._shift_combine
    sweeps = [sumdist._sweep(constraint,
                             *sumdist.resolve_measure(space, "q", mode), mode,
                             horizon) for mode in (FLOAT, EXACT)]
    sweeps.append(_reach_sweep(constraint, horizon))
    for sweep in sweeps:
        laid_out = []

        def spy(new, table, *args):
            laid_out.append(table.shape[1:] == new.shape[1:])
            return kernel(new, table, *args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lattice, "_shift_combine", spy)
            patch.setattr(sumdist, "_shift_combine", spy)
            for _ in islice(sweep, horizon + 1):
                pass
        assert laid_out == [False] + [True] * (horizon - 1)


@settings(max_examples=60, deadline=None)
@given(problems(), st.integers(1, 6), st.data())
def test_a_pad_cell_reads_as_a_cell_outside_the_window(problem, horizon, data):
    space, constraint, measure, mode = problem
    assume(constraint.dim >= 2)
    m = data.draw(st.integers(1, horizon))
    provider = SumTableProvider(space, constraint, horizon, measure=measure,
                                mode=mode)
    reach = _Reach(constraint, horizon)
    origin, shape = _window(constraint, horizon, m)
    pad = set(product(*map(range, _layout(constraint, shape)))) \
        - set(product(*map(range, shape)))
    # below the window on every axis, and past it on axis 0, which has no pad
    outside = [tuple(o - 1 for o in origin),
               (origin[0] + shape[0],) + origin[1:]]

    def reads(units):
        return (_exact(provider.table(m).mass_units(units)),
                _exact(provider.mass(m, units)), reach(m, units))

    want = reads(outside[0])
    assert reads(outside[1]) == want
    for index in pad:
        assert reads(tuple(map(add, origin, index))) == want


def test_cube3_central_sweep_holds_about_three_grown_boxes(cube3,
                                                           cube3_constraint):
    # a step holds the table it grows from, its product with a step weight
    # and the grown box, then the cut; at horizon 60 the largest grown box
    # is 32**3 float64 cells and the sweep peaks near three of them (it
    # peaked at 3.9 when the kernel padded a copy of each table)
    box = 8 * prod(map(add, _window(cube3_constraint, 60, 30)[1],
                       cube3_constraint.unit_max))
    tracemalloc.start()
    try:
        _central_masses(cube3, cube3_constraint, 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * box
