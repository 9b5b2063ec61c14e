"""One budget rule: a lattice table is charged for the cells it keeps.

``lattice._WindowCache`` keeps the tables of a sweep cut to their
``lattice._window``, each in its ``lattice._layout``, and charges the cells
it keeps together; each box a step grows before its cut must fit the budget
too. ``_Reach`` and ``SumTableProvider`` are such caches.
``_central_masses`` streams its tables and is charged, before it starts,
for the largest it builds: the box grown from its widest window, the one
at n // 2. The guards are tested with ``lattice.CELL_BUDGET`` patched low, so no large
table is built; the refused sizes are worked out from ``_window`` and
``_layout`` alone.
"""

from math import prod
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from maxent_lab import SumTableProvider, central_series, lattice, sumdist
from maxent_lab.concentration import representative_sequence
from maxent_lab.errors import LatticeBlowupError
from maxent_lab.lattice import (
    _dense_shape,
    _layout,
    _Reach,
    _sequences_on_target,
    _window,
)
from maxent_lab.sumdist import _central_masses

from test_window import _exact, problems

dense_step = sumdist._dense_step


def _kept(constraint, horizon, m):
    """Cells of the tables of sizes 0..m at the horizon: the one cell of
    size 0, and each later window in its ``_layout``."""
    return 1 + sum(prod(_layout(constraint, _window(constraint, horizon, s)[1]))
                   for s in range(1, m + 1))


def _step(constraint, horizon, m):
    """Cells of the largest box a step to size <= m grows before its cut."""
    return max((prod(map(add, _window(constraint, horizon, s - 1)[1],
                         constraint.unit_max)) for s in range(1, m + 1)),
               default=0)


def _full(constraint, m):
    """Cells of the full-box tables of sizes 0..m."""
    return sum(prod(_dense_shape(s, constraint.unit_max)) for s in range(m + 1))


def _caches(problem, horizon):
    """(make, ask) for a reachability cache and a sum-table provider at the
    horizon: ``ask(cache, m)`` reads size m from the cache."""
    space, constraint, measure, mode = problem
    origin = (0,) * constraint.dim  # inside every m-step box
    return [(lambda: _Reach(constraint, horizon),
             lambda cache, m: cache(m, origin)),
            (lambda: SumTableProvider(space, constraint, horizon,
                                      measure=measure, mode=mode),
             lambda cache, m: cache.table(m))]


@settings(max_examples=60, deadline=None)
@given(problems(), st.integers(1, 6), st.data())
def test_a_cache_refuses_exactly_past_the_cells_it_keeps(problem, horizon,
                                                         data):
    constraint = problem[1]
    m = data.draw(st.integers(1, horizon))
    need = max(_kept(constraint, horizon, m), _step(constraint, horizon, m))
    # the largest size that fits under a budget one cell short of size m's
    fits = max(s for s in range(m) if max(_kept(constraint, horizon, s),
                                          _step(constraint, horizon, s)) < need)
    named = (f"to n={m} needs {need} cells"
             if _kept(constraint, horizon, m) == need else
             f"sweep step to n=\\d+ needs {need} cells")
    for make, ask in _caches(problem, horizon):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lattice, "CELL_BUDGET", need - 1)
            cache = make()
            with pytest.raises(LatticeBlowupError, match=named):
                ask(cache, m)
            # a refused growth sweeps nothing, and a smaller size answers
            assert len(cache._tables) == 1
            ask(cache, fits)
            assert len(cache._tables) == fits + 1
            with pytest.raises(LatticeBlowupError):
                ask(cache, m)
            patch.setattr(lattice, "CELL_BUDGET", need)
            ask(cache, m)
            assert len(cache._tables) == m + 1


@settings(max_examples=60, deadline=None)
@given(problems(), st.integers(1, 6))
def test_kept_windows_give_the_full_sweep_past_the_full_box_budget(problem,
                                                                   horizon):
    # under a budget that fits the windows and the steps but, on most
    # problems drawn, not the full boxes, the provider's target masses and
    # _central_masses are central_series's, in FLOAT, with the budget restored
    space, constraint, measure, mode = problem
    want = central_series(space, constraint, horizon, measure=measure,
                          mode=mode)
    want_float = central_series(space, constraint, horizon, measure=measure)
    need = max(_kept(constraint, horizon, horizon),
               _step(constraint, horizon, horizon))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lattice, "CELL_BUDGET", need)
        provider = SumTableProvider(space, constraint, horizon,
                                    measure=measure, mode=mode)
        got = [provider.table(n).mass_at_target() for n in range(horizon + 1)]
        assert list(map(_exact, got)) == list(map(_exact, want))
        [streamed] = _central_masses(space, constraint, horizon, (measure,))
        assert list(map(_exact, streamed)) == list(map(_exact, want_float))


@settings(max_examples=60, deadline=None)
@given(problems(), st.integers(1, 8))
def test_central_masses_are_charged_for_their_largest_table(problem,
                                                           horizon):
    space, constraint, measure, _ = problem
    widths = [_window(constraint, horizon, m)[1] for m in range(horizon + 1)]
    # each width is the same at m and at horizon - m, and concave in m, so
    # the step from the window at horizon // 2 grows the largest box
    for j in range(constraint.dim):
        column = [w[j] for w in widths]
        assert column == column[::-1]
        assert all(2 * b >= a + c for a, b, c in zip(column, column[1:],
                                                     column[2:]))
    largest = _step(constraint, horizon, horizon)
    assert largest == prod(map(add, widths[horizon // 2], constraint.unit_max))
    want = central_series(space, constraint, horizon, measure=measure)
    steps = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sumdist, "_dense_step",
                      lambda *args: steps.append(1) or dense_step(*args))
        patch.setattr(lattice, "CELL_BUDGET", largest - 1)
        with pytest.raises(LatticeBlowupError,
                           match=f"sweep step to n={horizon // 2 + 1} needs "
                                 f"{largest} cells"):
            _central_masses(space, constraint, horizon, (measure,))
        assert steps == []  # refused before the sweep starts
        patch.setattr(lattice, "CELL_BUDGET", largest)
        [got] = _central_masses(space, constraint, horizon, (measure,))
        assert list(map(_exact, got)) == list(map(_exact, want))


def test_budget_rule_leaves_no_full_box_charge(cube3, cube3_constraint,
                                              monkeypatch):
    # cube3 at horizon 40: the tables kept to 40, each window in its layout,
    # hold 110,261 cells and the full boxes 741,321, so a budget between
    # them separates the two rules
    kept = _kept(cube3_constraint, 40, 40)
    assert (kept, _full(cube3_constraint, 40)) == (110_261, 741_321)
    monkeypatch.setattr(lattice, "CELL_BUDGET", kept)
    provider = SumTableProvider(cube3, cube3_constraint, 40)
    assert provider.table(40).mass_at_target() > 0
    reach = _Reach(cube3_constraint, 40)
    assert reach(40, cube3_constraint.center_units(40))
    assert next(_sequences_on_target(cube3, cube3_constraint, 40)) == \
        (0,) * 20 + (7,) * 20


def test_cube3_representative_at_150_comes_from_the_walk(cube3,
                                                         cube3_constraint):
    # the full boxes to n = 150 would hold 1.32e8 cells, past the budget,
    # and were once refused, so the representative was built from blocks of
    # the first feasible size 2: (0, 7) * 75; the windows, in their
    # layouts, hold 1.73e7 cells
    assert _full(cube3_constraint, 150) > lattice.CELL_BUDGET
    assert _kept(cube3_constraint, 150, 149) < lattice.CELL_BUDGET
    rep = representative_sequence(cube3, cube3_constraint, 150)
    assert rep == (0,) * 75 + (7,) * 75
