"""One rule tells an exact zero mass from a float that lost its mass.

``lattice._Reach.exact(n, units, mass, where)`` returns ``mass``, except that
a zero at a target cell that some length-n sequence reaches raises
``LatticeBlowupError``: such a mass was positive before the float lost it.
One ``_Reach`` at the largest size H decides every size n <= H, because the
target cell of each such size lies in the window at H. Checked against the
full-box ``feasible_sizes`` sweep over random rational problems.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from maxent_lab.errors import LatticeBlowupError
from maxent_lab.lattice import _Reach, feasible_sizes

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
