"""The contiguous walk kernels give the numbers of the strided ones.

``lattice._shift_combine`` pads a table's inner axes with the combine's
identity, unless a windowed sweep's cut has laid them out so already, and
applies each shift as one slice of the flattened ``new``. Each must agree
bit for bit (floats) or exactly (ints, bools) with the strided kernel copied
below as it was written before, for every (combine, term) pair the package
uses: the sum sweep's add over float64 and object-int tables, reachability's
OR and the min-plus reference's minimum.

``simulate.recurrence_simulation`` draws its symbols by counting the
cumulative masses at or below each uniform (``simulate._draws``, checked
against ``Generator.choice`` on twin streams) and sums the centred steps of
all coordinates packed into int64 words (``simulate._packed_steps``). It must
give the results of the (steps, k) walk below, which draws with
``Generator.choice``, whether the coordinates share one word or each has
its own.

``test_event_kernels`` builds its reference dense step on the live
``_shift_combine``; this file is the check that does not.
"""

import math
from contextlib import contextmanager
from fractions import Fraction
from operator import add
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from maxent_lab import derive_lattice, simulate, sumdist
from maxent_lab.errors import DegenerateCoordinateError
from maxent_lab.lattice import _check_budget, _shift_combine
from maxent_lab.simulate import RecurrenceResult, _streams, recurrence_simulation

# ---------------------------------------------------------------------------
# Reference kernels: the strided shift and the (steps, k) walk.
# ---------------------------------------------------------------------------


def _strided_shift_combine(new, table, cells, combine, term):
    for u, w in cells:
        region = tuple(slice(uj, uj + s) for uj, s in zip(u, table.shape))
        combine(new[region], term(w, table), out=new[region])
    return new


def _strided_recurrence(solution, constraint, steps, reps, seed, checkpoints):
    checkpoints = tuple(sorted(set(int(c) for c in checkpoints)))
    k = constraint.dim
    _check_budget((steps, k), f"recurrence sums of {steps} steps; reduce steps")
    units = np.array(constraint.units, dtype=np.int64)
    nums = np.array([s.numerator for s in constraint.center_step], dtype=np.int64)
    dens = np.array([s.denominator for s in constraint.center_step], dtype=np.int64)
    pmf = solution.pmf / solution.pmf.sum()
    idx_steps = np.arange(1, steps + 1, dtype=np.int64)

    visit_counts = np.zeros((reps, len(checkpoints)))
    for r, rng in enumerate(_streams(seed, reps)):
        draws = rng.choice(len(pmf), size=steps, p=pmf)
        sums = np.cumsum(units[draws], axis=0)
        on_center = np.ones(steps, dtype=bool)
        for j in range(k):
            on_center &= sums[:, j] * dens[j] == idx_steps * nums[j]
        cumulative = np.cumsum(on_center)
        visit_counts[r] = cumulative[np.array(checkpoints) - 1]
    mean = visit_counts.mean(axis=0)
    err = visit_counts.std(axis=0, ddof=1) / math.sqrt(reps) if reps > 1 \
        else np.zeros(len(checkpoints))
    return RecurrenceResult(steps=steps, reps=reps, seed=seed,
                            checkpoints=checkpoints,
                            mean_visits=tuple(float(v) for v in mean),
                            stderr=tuple(float(v) for v in err))


# ---------------------------------------------------------------------------
# Shift kernel
# ---------------------------------------------------------------------------

FLOAT_WEIGHTS = (0.25, 0.1, 1 / 3, 0.7, 1e-300)


@st.composite
def shifts(draw, weights):
    """(table shape, new shape, cells, rng, lay): a table of up to 3 axes,
    ``new`` wider by 0..3 on each axis, and cells that keep the shifted
    table inside ``new``, inner components 0 included. ``lay(table,
    identity)`` hands the kernel the table as it is or, as a windowed
    sweep's cut does, already laid out with ``new``'s inner axes, its
    extra cells at the identity."""
    k = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, 4)) for _ in range(k))
    extra = tuple(draw(st.integers(0, 3)) for _ in range(k))
    cell = st.tuples(*(st.integers(0, e) for e in extra))
    cells = draw(st.lists(st.tuples(cell, st.sampled_from(weights)),
                          min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape_new = tuple(map(add, shape, extra))
    laid_out = draw(st.booleans())

    def lay(table, identity):
        if not laid_out:
            return table
        out = np.full(shape[:1] + shape_new[1:], identity, dtype=table.dtype)
        out[tuple(map(slice, shape))] = table
        return out
    return shape, shape_new, cells, rng, lay


def _hex(array):
    return [float(x).hex() for x in array.ravel().tolist()]


@settings(max_examples=150, deadline=None)
@given(shifts(FLOAT_WEIGHTS))
def test_float_sum_step_matches_strided(problem):
    shape, shape_new, cells, rng, lay = problem
    table = rng.random(shape) * (rng.random(shape) < 0.7)
    got = sumdist._dense_step(lay(table, 0.0), shape_new, cells)
    want = _strided_shift_combine(np.zeros(shape_new), table, cells, np.add,
                                  lambda w, table: w * table)
    assert _hex(got) == _hex(want)


@settings(max_examples=100, deadline=None)
@given(shifts((1, 2, 3, 7, 10 ** 30)))
def test_object_int_sum_step_matches_strided(problem):
    shape, shape_new, cells, rng, lay = problem
    values = rng.integers(0, 1000, shape) * (rng.random(shape) < 0.7)
    table = np.array(values.tolist(), dtype=object).reshape(shape)
    got = sumdist._dense_step(lay(table, 0), shape_new, cells)
    want = _strided_shift_combine(np.zeros(shape_new, dtype=object), table,
                                  cells, np.add, lambda w, table: w * table)
    assert got.dtype == object
    assert got.ravel().tolist() == want.ravel().tolist()
    assert all(type(v) is int for v in got.ravel().tolist())


@settings(max_examples=100, deadline=None)
@given(shifts((None,)))
def test_boolean_or_matches_strided(problem):
    shape, shape_new, cells, rng, lay = problem
    table = rng.random(shape) < 0.5
    args = (table, cells, np.logical_or, lambda w, table: table)
    got = _shift_combine(np.zeros(shape_new, dtype=bool), lay(table, False),
                         *args[1:])
    want = _strided_shift_combine(np.zeros(shape_new, dtype=bool), *args)
    assert got.dtype == bool
    assert np.array_equal(got, want)


@settings(max_examples=100, deadline=None)
@given(shifts((None,)))
def test_min_over_inf_matches_strided(problem):
    shape, shape_new, cells, rng, lay = problem
    table = np.where(rng.random(shape) < 0.3, np.inf, rng.random(shape))
    args = (table, cells, np.minimum, lambda w, table: table)
    got = _shift_combine(np.full(shape_new, np.inf), lay(table, np.inf),
                         *args[1:])
    want = _strided_shift_combine(np.full(shape_new, np.inf), *args)
    assert _hex(got) == _hex(want)


def test_cube_step_fills_the_grown_box():
    # the k = 3 sweep's own step: a full table grown by the unit box, where
    # the shift by (1, 1, 1) ends exactly at the end of ``new``
    table = np.random.default_rng(5).random((6, 5, 4))
    cells = [(u, 0.125) for u in np.ndindex(2, 2, 2)]
    got = sumdist._dense_step(table, (7, 6, 5), cells)
    want = _strided_shift_combine(np.zeros((7, 6, 5)), table, cells, np.add,
                                  lambda w, table: w * table)
    assert _hex(got) == _hex(want)


# ---------------------------------------------------------------------------
# Recurrence walk
# ---------------------------------------------------------------------------

# T in {0, 1, 2} at mean 1: centred steps -1, 0 and +1
ZERO_STEP = ([[0], [1], [2]], [1, 1, 1], 60, 3, 7, [1, 10, 60])


@st.composite
def walks(draw):
    """(values, weights, steps, reps, seed, checkpoints) of a walk whose
    target is the mean of T under the weights, so the walk is centred and
    its steps take both signs, and zero where a value is on target."""
    k = draw(st.integers(1, 3))
    size = draw(st.integers(2, 5))
    values = [[draw(st.integers(0, 3)) for _ in range(k)] for _ in range(size)]
    weights = [draw(st.integers(0, 3)) for _ in range(size)]
    steps = draw(st.integers(1, 300))
    checkpoints = draw(st.lists(st.integers(1, steps), min_size=1, max_size=4))
    return (values, weights, steps, draw(st.integers(1, 4)),
            draw(st.integers(0, 2 ** 32 - 1)), checkpoints)


def _walk_args(walk):
    """recurrence_simulation's arguments for a drawn walk."""
    values, weights, steps, reps, seed, checkpoints = walk
    assume(sum(weights) > 0)
    target = [Fraction(sum(w * v[j] for w, v in zip(weights, values)),
                       sum(weights)) for j in range(len(values[0]))]
    try:
        constraint = derive_lattice(values, target)
    except DegenerateCoordinateError:
        assume(False)
    solution = SimpleNamespace(pmf=np.array(weights, dtype=float))
    return solution, constraint, steps, reps, seed, checkpoints


@settings(max_examples=150, deadline=None)
@given(walks())
@example(ZERO_STEP)
def test_recurrence_matches_strided_walk(walk):
    args = _walk_args(walk)
    assert recurrence_simulation(*args) == _strided_recurrence(*args)


@contextmanager
def word_counts(bound=None):
    """The number of packed words of each walk run inside, with
    ``simulate._WORD_BOUND`` set to ``bound`` if one is given."""
    counts = []
    pack = simulate._packed_steps

    def counted(centred, steps):
        words = pack(centred, steps)
        counts.append(len(words))
        return words
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate, "_packed_steps", counted)
        if bound is not None:
            patch.setattr(simulate, "_WORD_BOUND", bound)
        yield counts


@settings(max_examples=60, deadline=None)
@given(walks())
@example(ZERO_STEP)
def test_a_word_per_coordinate_gives_the_packed_walk(walk):
    # under a bound of 1 no two radices share a word, which is the walk of a
    # problem whose radices do not fit one word
    args = _walk_args(walk)
    packed = recurrence_simulation(*args)
    with word_counts(bound=1) as counts:
        apart = recurrence_simulation(*args)
    assert counts == [args[1].dim]
    assert apart == packed == _strided_recurrence(*args)


@pytest.mark.parametrize("steps, words", [(10 ** 5, 1), (10 ** 6, 2)])
def test_cube3_walk_packs_by_its_length(steps, words):
    # centred steps of +-1 take radices of 2 steps + 1: three of them fit
    # below 2^62 at 10^5 steps and two at 10^6
    cube = [[int(c) for c in f"{i:03b}"] for i in range(8)]
    constraint = derive_lattice(cube, [Fraction(1, 2)] * 3)
    args = (SimpleNamespace(pmf=np.full(8, 0.125)), constraint, steps, 1, 3,
            [steps])
    with word_counts() as counts:
        packed = recurrence_simulation(*args)
    assert counts == [words]
    with word_counts(bound=1):
        assert recurrence_simulation(*args) == packed


@st.composite
def pmfs(draw):
    """A normalised pmf on 2 to 300 outcomes, with zero masses likely at
    either end and inside, so indices of one and of two bytes occur."""
    size = draw(st.integers(2, 300))
    weights = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-12, 1.0)),
                            min_size=size, max_size=size))
    assume(sum(weights) > 0)
    pmf = np.array(weights)
    return pmf / pmf.sum()


@settings(max_examples=150, deadline=None)
@given(pmfs(), st.integers(1, 5000), st.integers(0, 2 ** 32 - 1))
@example(np.array([0.0, 0.25, 0.0, 0.75, 0.0]), 5000, 1)
@example(np.r_[0.0, np.full(298, 1 / 298), 0.0], 5000, 2)
def test_draws_are_generator_choice(pmf, steps, seed):
    got = simulate._draws(np.random.Generator(np.random.Philox(seed)), pmf,
                          steps)
    want = np.random.Generator(np.random.Philox(seed)).choice(
        len(pmf), size=steps, p=pmf)
    assert got.dtype == np.min_scalar_type(len(pmf) - 1)
    assert got.tolist() == want.tolist()


def test_walk_needs_every_coordinate():
    # on the fair cube each coordinate alone returns far more often than all
    # three together, so a walk that skipped one would count more visits
    cube = [[int(c) for c in f"{i:03b}"] for i in range(8)]
    constraint = derive_lattice(cube, [Fraction(1, 2)] * 3)
    solution = SimpleNamespace(pmf=np.full(8, 0.125))
    args = (solution, constraint, 400, 5, 3, [10, 100, 400])
    got = recurrence_simulation(*args)
    assert got == _strided_recurrence(*args)
    assert got.mean_visits[-1] > 0
