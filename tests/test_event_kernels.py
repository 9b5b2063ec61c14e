"""The fast event kernels give the same numbers as the plain ones.

The box and bigram DPs key their dict states by packed ints, the frequency
count DP touches only the cells that can be nonzero, and ``_dense_step``
reuses one product across a run of equal step weights. Each keeps every
float operation and its order, so each must agree bit for bit (floats) or
exactly (rational mode) with the straightforward kernels copied below, on
random rational problems.
"""

import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from maxent_lab import (
    BigramDeviationEvent,
    BoxEvent,
    build_space,
    conditional,
    derive_lattice,
    sumdist,
)
from maxent_lab.lattice import (
    LatticeGeometry,
    _check_budget,
    _dense_shape,
    _shift_combine,
)
from maxent_lab.sumdist import EXACT, FLOAT, resolve_measure

# ---------------------------------------------------------------------------
# Reference kernels: the straightforward versions, as they were written
# before the packed keys, the cropped count DP and the reused products; the
# count DP's reference shifts whole planes of the same flagged table.
# ---------------------------------------------------------------------------


def _dense_step(table: np.ndarray, shape_new, cells) -> np.ndarray:
    return _shift_combine(np.zeros(shape_new, dtype=table.dtype), table, cells,
                          np.add, lambda w, table: w * table)


def _sparse_step(table: dict, cells) -> dict:
    new: dict = {}
    for u0, m in table.items():
        for u, w in cells:
            key = tuple(a + b for a, b in zip(u0, u))
            prev = new.get(key)
            new[key] = m * w if prev is None else prev + m * w
    _check_budget((len(new),), "sparse sum support")
    return new


def _freq_layer(constraint, n, steps, bounds, mode):
    """Count-layered DP with an out-of-band flag: returns (total mass, mass on
    the target cell) of sequences with some count outside ``bounds``, and the
    mass on the target cell of those with none, as step sums. Plane 0 holds
    the prefixes with every count in band, plane 1 the others; every shift
    covers the whole plane and the last outcome fills every row."""
    shape_t = _dense_shape(n, constraint.unit_max)
    shape = (2, n + 1) + shape_t
    _check_budget(shape, f"frequency count DP at n={n}")
    table = np.zeros(shape, dtype=mode.dtype)
    table[(0, 0) + (0,) * constraint.dim] = 1
    for u, w, (lo, hi) in zip(constraint.units, steps, bounds):
        new = np.zeros_like(table)
        coefs = [mode.coefficients(n, nu, w) for nu in range(n + 1)]

        def shift_add(plane, source, nu):
            # cells whose shift would leave the table carry zero mass anyway
            dst = tuple(slice(nu * uj, s) for uj, s in zip(u, shape_t))
            src = tuple(slice(0, s - nu * uj) for uj, s in zip(u, shape_t))
            new[plane][(slice(nu, None),) + dst] += \
                source[(slice(0, n + 1 - nu),) + src] * coefs[nu].reshape(
                    (-1,) + (1,) * constraint.dim)

        for nu in range(lo, hi + 1):
            shift_add(0, table[0], nu)
        merged = table[0] + table[1]  # every prefix
        for nu in range(n + 1):
            shift_add(1, table[1] if lo <= nu <= hi else merged, nu)
        table = new
    out, inside = table[1, n], table[0, n]
    center = constraint.center_units(n)
    if center is None:
        return out.sum(keepdims=True).item(), 0, 0
    return out.sum(keepdims=True).item(), out.item(center), inside.item(center)


def _box_event(space, constraint, event: BoxEvent, n, steps, mode):
    geometry = LatticeGeometry.from_values(event.statistic, allow_constant=True)
    cells = []
    for ut, us, w in zip(constraint.units, geometry.units, steps):
        cells.append((ut + us, w))
    table = {(0,) * (constraint.dim + geometry.dim): 1}
    for _ in range(n):
        table = _sparse_step(table, cells)
    center = constraint.center_units(n)
    k = constraint.dim
    prob_event = prob_joint = prob_constraint = 0
    for state, mass in table.items():
        ut, us = state[:k], state[k:]
        averages = [
            Fraction(n * b + h * uj, s * n)
            for uj, b, h, s in zip(us, geometry.offsets, geometry.spans,
                                   geometry.scale)
        ]
        in_box = event.average_in_box(averages)
        holds = in_box if event.inside else not in_box
        at_center = center is not None and ut == center
        if holds:
            prob_event += mass
            if at_center:
                prob_joint += mass
        if at_center:
            prob_constraint += mass
    return prob_event, prob_joint, prob_constraint


def _bigram_event(space, constraint, event: BigramDeviationEvent, n, steps, mode):
    ij = space.index(event.j)
    ijp = space.index(event.jprime)
    # state: T-units, count_j, count_jprime, bigram count, last-symbol-is-jprime
    start = (0,) * constraint.dim + (0, 0, 0, 0)
    table = {start: 1}
    k = constraint.dim
    for _ in range(n):
        new: dict = {}
        for state, mass in table.items():
            ut, cj, cjp, cbig, last = state[:k], state[k], state[k + 1], \
                state[k + 2], state[k + 3]
            for idx, (u, w) in enumerate(zip(constraint.units, steps)):
                key = (
                    tuple(a + b for a, b in zip(ut, u))
                    + (cj + (idx == ij), cjp + (idx == ijp),
                       cbig + (last and idx == ij), int(idx == ijp))
                )
                prev = new.get(key)
                add = mass * w
                new[key] = add if prev is None else prev + add
        _check_budget((len(new),), "bigram DP step")
        table = new
    center = constraint.center_units(n)
    prob_event = prob_joint = prob_constraint = 0
    decided: dict = {}  # the event depends on the counts only
    for state, mass in table.items():
        ut, counts = state[:k], state[k:]
        holds = decided.get(counts)
        if holds is None:
            cj, cjp, cbig, last = counts
            denom = cjp - last
            holds = decided[counts] = denom > 0 and abs(
                Fraction(cj, n) - Fraction(cbig, denom)
            ) > event.epsilon
        at_center = center is not None and ut == center
        if holds:
            prob_event += mass
            if at_center:
                prob_joint += mass
        if at_center:
            prob_constraint += mass
    return prob_event, prob_joint, prob_constraint


weights_st = st.builds(Fraction, st.integers(1, 9), st.integers(2, 12))


@st.composite
def problems(draw):
    """(space, constraint, mode, steps): |X| <= 6, k <= 3, statistic values
    that may be negative, and the step values of per-outcome weights drawn
    from a pool of at most three values, so equal weights repeat and
    interleave."""
    size = draw(st.integers(2, 6))
    k = draw(st.integers(1, 3))
    space = build_space(list(range(size)),
                        draw(st.lists(weights_st, min_size=size, max_size=size)))
    values = draw(st.lists(
        st.lists(st.integers(-2, 3), min_size=k, max_size=k),
        min_size=size, max_size=size))
    for j in range(k):
        assume(len({row[j] for row in values}) > 1)
    block = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=3))
    target = [Fraction(sum(values[i][j] for i in block), len(block))
              for j in range(k)]
    constraint = derive_lattice(values, target)
    mode = draw(st.sampled_from([FLOAT, EXACT]))
    measure = "q"
    if draw(st.booleans()):
        pool = draw(st.lists(weights_st, min_size=1, max_size=3))
        measure = ("tilt", [pool[draw(st.integers(0, len(pool) - 1))]
                            for _ in range(size)])
    return (space, constraint, mode,
            mode.steps(resolve_measure(space, measure, mode)[1])[0])


def _exact(value):
    """A value in a form that compares exactly: its type, and a float by its
    bits."""
    return type(value), value.hex() if isinstance(value, float) else value


def _same(got, want):
    assert [_exact(v) for v in got] == [_exact(v) for v in want]


@settings(max_examples=150, deadline=None)
@given(problems(), st.integers(1, 7), st.data())
def test_count_dp_matches_reference(problem, n, data):
    space, constraint, mode, steps = problem
    # some bounds have lo > hi, which leaves no sequence in band
    bounds = data.draw(st.lists(
        st.tuples(st.integers(0, n + 1), st.integers(-1, n)),
        min_size=space.size, max_size=space.size))
    for b in (bounds, [(0, n)] * space.size):
        _same(conditional._freq_layer(constraint, n, steps, b, mode),
              _freq_layer(constraint, n, steps, b, mode))


bound_st = st.one_of(st.none(), st.builds(Fraction, st.integers(-9, 9),
                                          st.integers(1, 4)))


@settings(max_examples=150, deadline=None)
@given(problems(), st.integers(1, 7), st.data())
def test_box_event_matches_reference(problem, n, data):
    space, constraint, mode, steps = problem
    # coordinates may be constant or negative
    dim = data.draw(st.integers(1, 2))
    statistic = data.draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=dim, max_size=dim),
        min_size=space.size, max_size=space.size))
    event = BoxEvent.make(
        statistic, data.draw(st.lists(bound_st, min_size=dim, max_size=dim)),
        data.draw(st.lists(bound_st, min_size=dim, max_size=dim)),
        inside=data.draw(st.booleans()))
    args = (space, constraint, event, n, steps, mode)
    _same(conditional._box_event(*args), _box_event(*args))


@settings(max_examples=150, deadline=None)
@given(problems(), st.integers(1, 7), st.data())
def test_bigram_event_matches_reference(problem, n, data):
    space, constraint, mode, steps = problem
    # j == j' is allowed
    j, jprime = data.draw(st.lists(st.integers(0, space.size - 1),
                                   min_size=2, max_size=2))
    event = BigramDeviationEvent.make(
        j, jprime, data.draw(st.builds(Fraction, st.integers(1, 3),
                                       st.integers(4, 12))))
    args = (space, constraint, event, n, steps, mode)
    _same(conditional._bigram_event(*args), _bigram_event(*args))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.sampled_from([FLOAT, EXACT]), st.data())
def test_dense_step_matches_reference(k, mode, data):
    shape = tuple(data.draw(st.lists(st.integers(1, 5), min_size=k, max_size=k)))
    units = data.draw(st.lists(
        st.tuples(*[st.integers(0, 2)] * k), min_size=1, max_size=6,
        unique=True))
    # weights from a pool of two, e.g. [a, b, a]: runs repeat and interleave
    pool = data.draw(st.lists(
        st.floats(1e-3, 1.0) if mode is FLOAT else st.integers(1, 9),
        min_size=2, max_size=2))
    cells = [(u, pool[data.draw(st.integers(0, 1))]) for u in units]
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.random(shape) * (rng.random(shape) < 0.7)
    table = values if mode is FLOAT else \
        np.array((values * 1000).astype(int).tolist(), dtype=object)
    shape_new = tuple(s + max(u[j] for u in units)
                      for j, s in enumerate(shape))
    got = sumdist._dense_step(table, shape_new, cells)
    want = _dense_step(table, shape_new, cells)
    assert got.dtype == want.dtype
    _same(got.ravel().tolist(), want.ravel().tolist())


def test_dense_step_peak_memory_not_above_reference():
    # distinct weights interleaved: a held product must be dropped before
    # the next one is built, or the step holds two table-sized temporaries.
    # The slack covers the few small Python objects that hold the product;
    # a second product would add table.nbytes (512,000 bytes).
    table = np.random.default_rng(0).random((40, 40, 40))
    cells = [(u, w) for u, w in zip(product(range(2), repeat=3),
                                    [0.25, 0.75] * 4)]

    def peak(step):
        step(table, (41, 41, 41), cells)  # warm up numpy's own caches
        tracemalloc.start()
        try:
            step(table, (41, 41, 41), cells)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(sumdist._dense_step) <= peak(_dense_step) + 4096
