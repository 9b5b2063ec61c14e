"""One rule tells an exact zero mass from a float that lost its mass.

``lattice._Reach.exact(n, units, mass, where)`` returns ``mass``, except that
a zero at a target cell that some length-n sequence reaches raises
``LatticeBlowupError``: such a mass was positive before the float lost it.
One ``_Reach`` at the largest size H decides every size n <= H, because the
target cell of each such size lies in the window at H. Checked against the
full-box ``feasible_sizes`` sweep over random rational problems. The central
series (``sumdist._central_masses``) applies the same rule from one streamed
reachability sweep, which keeps no table.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from maxent_lab import (
    build_space,
    central_series,
    corollary1_residuals,
    derive_lattice,
    lattice,
    mixture_gap_series,
    rissanen_prior,
    solve_maxent,
)
from maxent_lab.errors import LatticeBlowupError
from maxent_lab.lattice import _Reach, feasible_sizes
from maxent_lab.sumdist import EXACT, FLOAT, _central_masses

from test_window import problems


@settings(max_examples=80, deadline=None)
@given(problems(), st.integers(1, 6))
def test_a_zero_raises_exactly_at_feasible_sizes(problem, horizon):
    space, constraint, _, _ = problem
    feasible = feasible_sizes(space, constraint, horizon)
    reach = _Reach(constraint, horizon)
    for n in range(1, horizon + 1):
        center = constraint.center_units(n)
        if n in feasible:
            with pytest.raises(LatticeBlowupError,
                               match=f"^where: the mass at n={n} underflows"):
                reach.exact(n, center, 0.0, "where")
        else:
            assert reach.exact(n, center, 0.0, "where") == 0.0
        assert reach.exact(n, None, 0.0, "where") == 0.0


@settings(max_examples=40, deadline=None)
@given(problems(), st.integers(1, 6),
       st.one_of(st.floats(min_value=5e-324, max_value=1.0),
                 st.fractions(min_value=Fraction(1, 10 ** 9), max_value=1)))
def test_a_nonzero_mass_comes_back_unchanged(problem, horizon, mass):
    _, constraint, _, _ = problem
    reach = _Reach(constraint, horizon)
    for n in range(1, horizon + 1):
        for units in (constraint.center_units(n), None):
            assert reach.exact(n, units, mass, "where") is mass


def test_kept_tables_fit_the_cell_budget(monkeypatch):
    # only sizes divisible by 3 reach the target (1, 1), so the central
    # masses of every other size are 0.0; _Reach would keep a table per size,
    # past 1e6 cells by n = 91 at horizon 200 while no table holds more than
    # 4.1e4, but the gaps decide those zeros by one streamed sweep
    space = build_space(["a", "b", "c"], [1, 1, 1])
    constraint = derive_lattice([[0, 0], [2, 1], [1, 2]], [1, 1])
    solution = solve_maxent(space, constraint)
    prior = rissanen_prior(8)
    monkeypatch.setattr(lattice, "CELL_BUDGET", 1_000_000)
    for n_max, horizon in [(60, 120), (100, 200)]:
        gaps = mixture_gap_series(space, constraint, solution, prior, n_max,
                                  horizon)
        assert [r.n for r in gaps] == [3, 6, 9, 12, 15, 18, 21, 24]
    reach = _Reach(constraint, 200)
    with pytest.raises(LatticeBlowupError,
                       match="reachability tables to n=91 needs"):
        reach(91, constraint.center_units(91))
    # a refused sweep leaves the kept tables as they were
    assert reach(30, constraint.center_units(30))
    with pytest.raises(LatticeBlowupError):
        reach(150, constraint.center_units(150))
    assert reach(30, constraint.center_units(30))
    assert not reach(31, (31, 31))


def test_central_masses_refuse_the_first_underflow(dice):
    # the die at mean 5: P_q(C_n) underflows to 0.0 from n = 1741 on, a size
    # that sequences reach, so the series to 2000 stops there
    constraint = derive_lattice([[x] for x in range(1, 7)], [5])
    assert _central_masses(dice, constraint, 1740)[0][1740] > 0
    with pytest.raises(LatticeBlowupError, match="^central masses under q to "
                       "n=2000: the mass at n=1741 underflows"):
        _central_masses(dice, constraint, 2000)


@pytest.mark.parametrize("mode", [FLOAT, EXACT])
def test_central_masses_keep_exact_zeros(mode):
    # T in {0, 3, 5} at mean 1: no sequence of size 1, 2, 4 or 7 sums to n;
    # the windowed series sweeps in FLOAT and has the zeros of either
    # arithmetic's full sweep
    space = build_space(["a", "b", "c"], [1, 1, 1])
    constraint = derive_lattice([[0], [3], [5]], [1])
    masses = central_series(space, constraint, 12, mode=mode)
    assert [n for n, mass in enumerate(masses) if mass == 0] == [1, 2, 4, 7]
    [windowed] = _central_masses(space, constraint, 12)
    assert [mass == 0 for mass in windowed] == [mass == 0 for mass in masses]


def test_corollary1_sweeps_reachability_once(monkeypatch):
    # steps (0, 0), (2, 1), (1, 2) at their mean (1, 1): the target is on the
    # lattice at sizes divisible by 3 only, so both central series (p and q)
    # hold exact zeros, which one _Reach to 337 decides for both
    space = build_space(["a", "b", "c"], [1, 1, 1])
    constraint = derive_lattice([[0, 0], [2, 1], [1, 2]], [1, 1])
    solution = solve_maxent(space, constraint)
    step = lattice._reach_step
    calls = []
    monkeypatch.setattr(lattice, "_reach_step",
                        lambda *args: calls.append(1) or step(*args))
    first, last = corollary1_residuals(space, constraint, solution, [3, 337])
    assert len(calls) == 337  # 674 when each series held its own _Reach
    assert (first.residual_direct, first.residual_identity) == \
        (0.31091012233057214, 0.3109101223305717)
    assert not last.feasible and last.residual_direct is None
