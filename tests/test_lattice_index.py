"""The lattice that the unit steps span: its index in Z^k (the gcd of the
k x k minors of the step differences, and |det| of their Hermite normal form)
and the local-CLT constant index * prod(h_j) that d_n is normalised by."""

import math
from fractions import Fraction
from itertools import combinations

from hypothesis import assume, given, settings, strategies as st

from maxent_lab import build_space, derive_lattice, solve_maxent
from maxent_lab.concentration import concentration_constants
from maxent_lab.errors import DegenerateCoordinateError


def _hermite_index(rows, k):
    """|det| of the Hermite normal form of the lattice the integer ``rows``
    span in Z^k, by Euclid on each column in turn; 0 below rank k."""
    rows = [list(r) for r in rows]
    basis = []
    for j in range(k):
        live = [r for r in rows if r[j] != 0]
        if not live:
            return 0
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[j]))
            for r in live[1:]:
                q = r[j] // live[0][j]
                r[:] = [a - q * b for a, b in zip(r, live[0])]
            live = [live[0]] + [r for r in live[1:] if r[j] != 0]
        pivot = live[0] if live[0][j] > 0 else [-a for a in live[0]]
        rows = [r for r in rows if r is not live[0]]
        for b in basis:
            q = b[j] // pivot[j]
            b[:] = [a - q * c for a, c in zip(b, pivot)]
        basis.append(pivot)
    for i, b in enumerate(basis):
        assert all(a == 0 for a in b[:i]) and b[i] > 0
        assert all(0 <= c[i] < b[i] for c in basis[:i])
    return math.prod(b[i] for i, b in enumerate(basis))


def _det(rows):
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * a * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, a in enumerate(rows[0]))


def _d_n(values, target, n):
    space = build_space(range(len(values)), [1] * len(values))
    constraint = derive_lattice(values, target)
    solution = solve_maxent(space, constraint)
    record, = concentration_constants(space, constraint, solution, [n]).records
    return constraint.index, record.d_n


def test_square_statistic_spans_an_index_two_lattice():
    # T = (x, x^2) on {0..3}: x^2 - x is even, so the steps fill half of Z^2
    index, d_n = _d_n([[x, x * x] for x in range(4)], ["7/4", "15/4"], 200)
    assert index == 2
    assert abs(d_n - 1.0) < 5e-3


def test_three_steps_span_an_index_three_lattice():
    index, d_n = _d_n([[0, 0], [2, 1], [1, 2]], [1, 1], 300)
    assert index == 3
    assert abs(d_n - 1.0) < 5e-3


def test_shipped_lattices_have_index_one(dice_constraint, cube3_constraint,
                                         pair_constraint):
    for constraint in (dice_constraint, cube3_constraint, pair_constraint):
        assert type(constraint.index) is int and constraint.index == 1


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: st.lists(
    st.lists(st.integers(0, 6), min_size=k, max_size=k),
    min_size=2, max_size=7)))
def test_minors_gcd_is_the_hermite_determinant(values):
    try:
        constraint = derive_lattice(
            values, [Fraction(sum(col), len(values)) for col in zip(*values)])
    except DegenerateCoordinateError:
        assume(False)
    steps = [[a - b for a, b in zip(u, constraint.units[0])]
             for u in constraint.units[1:]]
    minors = math.gcd(*map(_det, combinations(steps, constraint.dim)))
    assert minors == _hermite_index(steps, constraint.dim) == constraint.index
    if constraint.dim == 1:
        assert constraint.index == 1
