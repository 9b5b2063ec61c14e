"""The horizon window cuts sweeps to the cells that can still reach a target.

``lattice._window`` keeps, at size m, only the cells from which the target of
some size <= H is reachable. The windowed sum sweep (``sumdist._central_masses``)
must give the central masses of the full sweep (``central_series``) bit for bit
and in the same type, and the windowed sequence walk must yield exactly the
sequences of an unwindowed walk, and the first feasible sizes read from the
windowed reachability sweep must be those of the full box. A window narrowed
by one cell on either side must break all three.
"""

from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from maxent_lab import build_space, central_series, derive_lattice, lattice, sumdist
from maxent_lab.lattice import (
    _dense_shape,
    _layout,
    _sequences_on_target,
    _window,
)
from maxent_lab.sumdist import EXACT, FLOAT, _central_masses

weights_st = st.builds(Fraction, st.integers(1, 9), st.integers(2, 12))


@st.composite
def problems(draw):
    """(space, constraint, measure, mode) with |X| <= 6 and k <= 3; the
    statistic is a product of per-coordinate values or arbitrary rows."""
    size = draw(st.integers(2, 6))
    k = draw(st.integers(1, 3))
    space = build_space(list(range(size)),
                        draw(st.lists(weights_st, min_size=size, max_size=size)))
    if draw(st.booleans()):
        # product statistic: each outcome is a tuple of per-coordinate levels
        levels = [draw(st.lists(st.integers(0, 3), min_size=2, max_size=2,
                                unique=True)) for _ in range(k)]
        values = [[levels[j][(i >> j) % 2] for j in range(k)]
                  for i in range(size)]
    else:
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


def _exact(value):
    """A mass in a form that compares exactly: floats by their bits."""
    return (type(value), value.hex() if isinstance(value, float) else value)


def _reference_walk(space, constraint, n):
    """The length-n on-target sequences in lexicographic order, from a
    depth-first walk over sets of reachable unit sums with no window."""
    center = constraint.center_units(n)
    if center is None:
        return []
    reach = [{(0,) * constraint.dim}]
    for _ in range(n):
        reach.append({tuple(a + b for a, b in zip(s, u))
                      for s in reach[-1] for u in constraint.units})
    out = []

    def walk(prefix, total):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for idx, u in enumerate(constraint.units):
            nxt = tuple(a + b for a, b in zip(total, u))
            needed = tuple(c - s for c, s in zip(center, nxt))
            if needed in reach[n - len(prefix) - 1]:
                walk(prefix + [idx], nxt)

    walk([], (0,) * constraint.dim)
    return out


@settings(max_examples=80, deadline=None)
@given(problems(), st.integers(0, 7))
def test_windowed_central_masses_equal_central_series(problem, n_max):
    # the windowed series sweeps in FLOAT; the EXACT windows are checked
    # cell for cell below
    space, constraint, measure, _ = problem
    full = central_series(space, constraint, n_max, measure=measure)
    [windowed] = _central_masses(space, constraint, n_max, (measure,))
    assert list(map(_exact, windowed)) == list(map(_exact, full))


@settings(max_examples=60, deadline=None)
@given(problems(), st.integers(0, 6))
def test_windowed_tables_match_the_full_tables_cell_for_cell(problem, horizon):
    space, constraint, measure, mode = problem
    measure_id, weights = sumdist.resolve_measure(space, measure, mode)
    full = sumdist._sweep(constraint, measure_id, weights, mode)
    cut = sumdist._sweep(constraint, measure_id, weights, mode, horizon)
    for m, (a, b) in enumerate(islice(zip(full, cut), horizon + 1)):
        origin, shape = _window(constraint, horizon, m)
        # past size 0 each window is kept in its layout, the pad at the
        # sum's identity
        assert b.origin == origin
        assert b.table.shape == (_layout(constraint, shape) if m else shape)
        assert a.table.shape == _dense_shape(m, constraint.unit_max)
        region = tuple(slice(o, o + s) for o, s in zip(origin, shape))
        window = tuple(map(slice, shape))
        assert [_exact(v) for v in a.table[region].ravel().tolist()] == \
            [_exact(v) for v in b.table[window].ravel().tolist()]
        pad = np.ones(b.table.shape, dtype=bool)
        pad[window] = False
        zero = _exact(np.zeros(1, dtype=b.table.dtype).item())
        assert all(_exact(v) == zero for v in b.table[pad].tolist())


@settings(max_examples=80, deadline=None)
@given(problems(), st.integers(1, 6))
def test_windowed_walk_equals_unwindowed_walk(problem, n):
    space, constraint, _, _ = problem
    want = _reference_walk(space, constraint, n)
    assume(len(want) <= 5000)
    assert list(_sequences_on_target(space, constraint, n)) == want


def _narrowed(side):
    """``_window`` with one cell cut from its low or its high side."""
    def window(constraint, horizon, m):
        origin, shape = _window(constraint, horizon, m)
        if side == "lo":
            origin = tuple(o + 1 for o in origin)
        return origin, tuple(s - 1 for s in shape)
    return window


@pytest.mark.parametrize("side", ["lo", "hi"])
def test_a_narrowed_window_is_caught(side, monkeypatch, dice, dice_constraint,
                                     pair, pair_constraint):
    # the die at mean 9/2 and two fair bits at (1/2, 1/2): on-lattice targets
    # at every even size, so both window edges are tight there
    problems = [(dice, dice_constraint), (pair, pair_constraint)]
    want = [(central_series(s, c, 6), _reference_walk(s, c, 4))
            for s, c in problems]
    monkeypatch.setattr(lattice, "_window", _narrowed(side))
    for (space, constraint), (masses, walk) in zip(problems, want):
        assert _central_masses(space, constraint, 6) != [masses]
        assert list(_sequences_on_target(space, constraint, 4)) != walk
        assert lattice.first_feasible_sizes(space, constraint, 6, n_cap=6) \
            != lattice.feasible_sizes(space, constraint, 6)


def _peak_cells(monkeypatch, constraint, horizon):
    """Largest table, in cells, that the windowed sum sweep builds to the
    horizon: the box each table grows to before it is cut to its window.
    Only the shapes are read, so the step returns a zero table."""
    shapes = []

    def step(table, shape_new, cells):
        shapes.append(shape_new)
        return np.zeros(shape_new)

    monkeypatch.setattr(sumdist, "_dense_step", step)
    sweep = sumdist._sweep(constraint, "q", [0.125] * 8, FLOAT, horizon)
    for _ in islice(sweep, horizon + 1):
        pass
    assert len(shapes) == horizon
    return max(int(np.prod(s)) for s in shapes)


def test_cube3_tables_stay_in_the_window(monkeypatch, cube3_constraint):
    # the gaps-k3 benchmark's horizon: size 50 keeps 0..50 on each coordinate
    # and grows by one cell on each before its cut; the full box at n = 100
    # holds 101**3 cells
    assert _peak_cells(monkeypatch, cube3_constraint, 100) == 52 ** 3
    # the cube3 fixture's horizon of 300: every cell 0..150 of size 150 still
    # reaches the n = 300 target; the full box holds 301**3 cells
    assert _peak_cells(monkeypatch, cube3_constraint, 300) == 152 ** 3


def test_cube3_walk_tables_stay_in_the_window(monkeypatch, cube3,
                                              cube3_constraint):
    sizes = []
    step = lattice._reach_step

    def recording(reach, shape_new, unit_cells):
        sizes.append(int(np.prod(shape_new)))
        return step(reach, shape_new, unit_cells)

    monkeypatch.setattr(lattice, "_reach_step", recording)
    assert next(_sequences_on_target(cube3, cube3_constraint, 100)) is not None
    assert max(sizes) == 52 ** 3
