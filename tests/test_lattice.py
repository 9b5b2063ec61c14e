import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from maxent_lab import (
    build_space,
    derive_lattice,
    feasible_sizes,
    first_feasible_sizes,
    hull_position,
)
from maxent_lab.errors import (
    DegenerateCoordinateError,
    TargetOutsideHullError,
    ValidationError,
)


class TestBuildSpace:
    def test_uniform_six(self):
        space = build_space(range(6), [1] * 6)
        assert space.prior_fractions == (Fraction(1, 6),) * 6

    def test_zero_mass_dropped_with_record(self):
        space = build_space(["a", "b", "c"], [1, 0, 1])
        assert space.outcomes == ("a", "c")
        assert space.prior_fractions == (Fraction(1, 2), Fraction(1, 2))
        assert space.dropped == (("b", Fraction(0)),)

    def test_normalization(self):
        space = build_space("abc", [1, 2, 3])
        assert space.prior_fractions == (
            Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))

    def test_fraction_strings(self):
        space = build_space("ab", ["0.25", "3/4"])
        assert space.prior_fractions == (Fraction(1, 4), Fraction(3, 4))

    @pytest.mark.parametrize("labels,weights", [
        ([], []),
        (["a", "a"], [1, 1]),
        (["a", "b"], [0, 0]),
        (["a", "b"], [1, -1]),
        (["a"], [1, 2]),
    ])
    def test_bad_inputs(self, labels, weights):
        with pytest.raises(ValidationError):
            build_space(labels, weights)

    def test_floats_rejected(self):
        with pytest.raises(ValidationError):
            build_space("ab", [0.5, 0.5])

    @pytest.mark.parametrize("weights", ["13", {"a": 1, "b": 3}, iter([1, 3])])
    def test_prior_must_be_a_list(self, weights):
        # a string would be read character by character, as the prior (1, 3)
        with pytest.raises(ValidationError, match="must be a list"):
            build_space(["a", "b"], weights)


class TestDeriveLattice:
    def test_dice_consecutive(self, dice_constraint):
        assert dice_constraint.scale == (1,)
        assert dice_constraint.offsets == (1,)
        assert dice_constraint.spans == (1,)

    def test_arithmetic_progression(self):
        cons = derive_lattice([[2], [5], [8]], [5])
        assert cons.offsets == (2,)
        assert cons.spans == (3,)

    def test_half_integers(self):
        cons = derive_lattice([[Fraction(1, 2)], [Fraction(3, 2)]],
                              [Fraction(3, 4)])
        assert cons.scale == (2,)
        assert cons.offsets == (1,)
        assert cons.spans == (2,)
        # scaled values must all sit on {offset + s * span}
        scaled = [int(v[0] * 2) for v in cons.values]
        lattice = {1 + 2 * s for s in range(5)}
        assert set(scaled) <= lattice

    def test_constant_coordinate_rejected(self):
        with pytest.raises(DegenerateCoordinateError):
            derive_lattice([[1, 3], [1, 4]], [1, Fraction(7, 2)])

    def test_target_outside_hull(self):
        with pytest.raises(TargetOutsideHullError):
            derive_lattice([[x] for x in range(1, 7)], [7])

    def test_spans_original_units(self):
        cons = derive_lattice([[Fraction(1, 2)], [Fraction(3, 2)]],
                              [Fraction(3, 4)])
        assert cons.spans_original == (Fraction(1),)


def _span_is_maximal(values, offset, span):
    # no larger step h' > span keeps every value on {offset + s h'}
    for h_prime in range(span + 1, max(v - offset for v in values) + 2):
        if all((v - offset) % h_prime == 0 for v in values):
            return False
    return True


class TestSpanMaximality:
    def test_direct_cases(self):
        for values in ([[1], [2], [3]], [[2], [5], [8]], [[0], [6], [10]]):
            cons = derive_lattice(values, [values[1][0]])
            scaled = [int(v[0] * cons.scale[0]) for v in cons.values]
            assert _span_is_maximal(scaled, cons.offsets[0], cons.spans[0])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=-20, max_value=20), min_size=2,
                    max_size=6, unique=True))
    def test_random_integer_sets(self, vals):
        target = Fraction(min(vals) + max(vals), 2)
        cons = derive_lattice([[v] for v in vals], [target])
        assert _span_is_maximal(sorted(vals), cons.offsets[0], cons.spans[0])


def _brute_feasible(space, values, target, n):
    for seq in itertools.product(range(space.size), repeat=n):
        total = sum((values[i][0] for i in seq), Fraction(0))
        if total == n * target:
            return True
    return False


class TestFeasibleSizes:
    def test_dice_mean_45(self, dice, dice_constraint):
        assert feasible_sizes(dice, dice_constraint, 5) == [2, 4]

    def test_dice_brute_force_agreement(self, dice, dice_constraint):
        values = dice_constraint.values
        target = dice_constraint.target[0]
        sizes = feasible_sizes(dice, dice_constraint, 5)
        for n in range(1, 6):
            assert (n in sizes) == _brute_feasible(dice, values, target, n)

    def test_boundary_point_all_feasible(self, dice):
        cons = derive_lattice([[x] for x in range(1, 7)], [6])
        assert feasible_sizes(dice, cons, 7) == list(range(1, 8))

    def test_closure_under_addition(self, dice, dice_constraint, pair,
                                    pair_constraint):
        for space, cons in ((dice, dice_constraint), (pair, pair_constraint)):
            sizes = set(feasible_sizes(space, cons, 24))
            for n1 in sizes:
                for n2 in sizes:
                    if n1 + n2 <= 24:
                        assert n1 + n2 in sizes

    def test_lattice_validity_of_feasible_sizes(self, dice, dice_constraint):
        for n in feasible_sizes(dice, dice_constraint, 12):
            assert dice_constraint.center_units(n) is not None

    def test_first_feasible_sizes(self, dice, dice_constraint):
        assert first_feasible_sizes(dice, dice_constraint, 4, 8) == [2, 4, 6, 8]

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_dp_equals_enumeration_small(self, data):
        size = data.draw(st.integers(min_value=2, max_value=4))
        vals = data.draw(st.lists(st.integers(min_value=0, max_value=6),
                                  min_size=size, max_size=size).filter(
                                      lambda v: len(set(v)) >= 2))
        space = build_space(range(size), [1] * size)
        lo, hi = min(vals), max(vals)
        num = data.draw(st.integers(min_value=2 * lo, max_value=2 * hi))
        target = Fraction(num, 2)
        cons = derive_lattice([[v] for v in vals], [target])
        sizes = feasible_sizes(space, cons, 6)
        for n in range(1, 7):
            assert (n in sizes) == \
                _brute_feasible(space, cons.values, target, n)


class TestHullPosition:
    def test_one_dimensional(self):
        values = [[1], [2], [6]]
        assert hull_position(values, [1]) == "boundary"
        assert hull_position(values, [6]) == "boundary"
        assert hull_position(values, [3]) == "interior"
        assert hull_position(values, [7]) == "outside"

    def test_two_dimensional(self):
        square = [[0, 0], [0, 1], [1, 0], [1, 1]]
        assert hull_position(square, [Fraction(1, 2), Fraction(1, 2)]) == "interior"
        assert hull_position(square, [0, Fraction(1, 2)]) == "boundary"
        assert hull_position(square, [2, 0]) == "outside"

    def test_combined_dice_target_is_boundary(self):
        # mean 4.5 with indicator constraints forcing all mass onto {4, 5}
        values = [[x, int(x == 4), int(x == 5)] for x in range(1, 7)]
        target = [Fraction(9, 2), Fraction(1, 2), Fraction(1, 2)]
        assert hull_position(values, target) == "boundary"

    def test_near_facet_target_is_interior(self):
        # a float LP with a 1e-9 margin calls this "boundary"
        square = [[0, 0], [0, 1], [1, 0], [1, 1]]
        target = [Fraction(1, 10 ** 12), Fraction(1, 2)]
        assert hull_position(square, target) == "interior"


_COORD = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def _points_and_face(draw):
    """Up to 8 rational points in 2 or 3 dimensions, a direction c, and the
    points on the supporting face that maximizes c . v."""
    k = draw(st.integers(2, 3))
    points = draw(st.lists(st.tuples(*[_COORD] * k), min_size=2, max_size=8))
    c = draw(st.tuples(*[st.integers(-3, 3)] * k))
    height = [sum(a * b for a, b in zip(c, v)) for v in points]
    face = [v for v, h in zip(points, height) if h == max(height)]
    return points, c, face


def _combine(points, weights):
    total = sum(weights)
    return [sum(w * v[j] for w, v in zip(weights, points)) / total
            for j in range(len(points[0]))]


class TestHullPositionProperties:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_combination_with_weights_at_least_one_percent_is_interior(self, data):
        points, _, _ = data.draw(_points_and_face())
        m = len(points)
        raw = data.draw(st.lists(st.integers(0, 20), min_size=m, max_size=m))
        rest = 1 - Fraction(m, 100)
        weights = [Fraction(1, 100) + (rest * r / sum(raw) if sum(raw) else rest / m)
                   for r in raw]
        assert min(weights) >= Fraction(1, 100) and sum(weights) == 1
        assert hull_position(points, _combine(points, weights)) == "interior"

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_combination_on_a_supporting_face_is_boundary(self, data):
        points, _, face = data.draw(_points_and_face())
        assume(len(face) < len(points))  # some point lies off the face
        weights = data.draw(st.lists(st.integers(1, 9), min_size=len(face),
                                     max_size=len(face)))
        assert hull_position(points, _combine(face, weights)) == "boundary"

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_point_pushed_past_a_face_is_outside(self, data):
        points, c, face = data.draw(_points_and_face())
        assume(any(c))
        weights = data.draw(st.lists(st.integers(1, 9), min_size=len(face),
                                     max_size=len(face)))
        push = data.draw(st.fractions(min_value=Fraction(1, 1000), max_value=2))
        target = [t + push * cj for t, cj in zip(_combine(face, weights), c)]
        assert hull_position(points, target) == "outside"
