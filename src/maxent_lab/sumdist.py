"""Distributions of n-step sums of a lattice statistic under a product measure.

Tables are indexed by unit coordinates: the scaled sum after n steps equals
n * offset + span * units, coordinatewise. Every table is one dense array over
the bounding box of the reachable sums, in the run's ``Arithmetic``: ``FLOAT``
holds float64 masses, ``EXACT`` an object array of exact integer numerators.
Under ``EXACT`` each step weight is written a_i / D over D = lcm of the weight
denominators, the sweep adds and multiplies the a_i, and a table after n steps
carries the single denominator D**n, applied as a Fraction only when a mass is
read out. Float tables self-normalize because every step convolves probability
masses, so no log-domain rescaling is needed at the sizes this package allows.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from operator import sub

import numpy as np

from .errors import LatticeBlowupError, ValidationError
from .lattice import (
    REDUCE_N,
    ConstraintSpec,
    SampleSpace,
    _check_budget,
    _dense_shape,
    _grow,
    _Reach,
    _shift_combine,
    _underflow,
    _WindowCache,
    as_exact,
    first_feasible_sizes,
)
from .solver import MaxEntSolution


def _binomial_weight_vector(n: int, nu: int, w: float) -> np.ndarray:
    """C(n - used, nu) * w^nu for used = 0..n-nu, safe against overflow.

    Uses the exact binomial when it fits a float, otherwise a log-domain
    start; the ratio chain C(m-1, nu) = C(m, nu) (m - nu) / m fills the rest.
    """
    if nu == 0:
        return np.ones(n + 1)
    log_start = (math.lgamma(n + 1) - math.lgamma(nu + 1)
                 - math.lgamma(n - nu + 1) + nu * math.log(w))
    if log_start > 700.0:
        raise LatticeBlowupError(
            "count DP coefficients exceed the float range; reduce n"
        )
    m = np.arange(n, nu, -1, dtype=float)
    try:
        start = float(math.comb(n, nu)) * w ** nu
    except OverflowError:
        # the chain would run below 1/C(n, nu), out of the float range;
        # from the start value each partial product is a coefficient
        return np.cumprod(np.concatenate(([math.exp(log_start)], (m - nu) / m)))
    return start * np.concatenate(([1.0], np.cumprod((m - nu) / m)))


def _exact_weight_vector(n: int, nu: int, w: int) -> np.ndarray:
    """Integer form of ``_binomial_weight_vector``: C(n - used, nu) * w^nu for
    used = 0..n-nu, as Python ints."""
    w_nu = w ** nu
    return np.array([math.comb(n - used, nu) * w_nu
                     for used in range(n - nu + 1)], dtype=object)


def _exact_steps(weights):
    """The integer numerators a_i over D = lcm(denominators), and 1/D."""
    denom = math.lcm(*(w.denominator for w in weights))
    return ([w.numerator * (denom // w.denominator) for w in weights],
            Fraction(1, denom))


@dataclass(frozen=True)
class Arithmetic:
    """The arithmetic a run computes its masses in; ``str()`` is its name.

    Tables hold ``dtype``, and a weight w is held as ``value(w)``: ``EXACT``
    reads a float as its binary rational, so on the projection it is a float
    run's exact twin. ``steps`` gives the DP step values and the unit u with
    weights[i] == steps[i] * u, so a value after n steps reads out as
    value * u**n (u = 1.0 for floats, bit for bit); ``coefficients(n, nu, w)``
    is the count DP's C(n - used, nu) * w**nu for used = 0..n-nu.
    """

    name: str
    dtype: type
    value: Callable
    steps: Callable
    coefficients: Callable

    def __str__(self) -> str:
        return self.name


FLOAT = Arithmetic("float", np.float64, float, lambda weights: (weights, 1.0),
                   _binomial_weight_vector)
EXACT = Arithmetic("rational", object, as_exact, _exact_steps,
                   _exact_weight_vector)
# a config's ``mode`` name -> its arithmetic
ARITHMETICS = {str(a): a for a in (FLOAT, EXACT)}


def resolve_measure(space: SampleSpace, measure, mode: Arithmetic):
    """Normalize a measure argument to (measure_id, per-outcome weights).

    Accepts 'q' (the prior), a MaxEntSolution or a ``(tag, weights)`` pair;
    ``EXACT`` reads a finite float weight as the binary rational it holds.
    """
    if measure == "q":
        measure_id, weights = "q", space.prior_fractions
    elif isinstance(measure, MaxEntSolution):
        measure_id, weights = measure.measure_id, measure.pmf
    elif isinstance(measure, tuple) and len(measure) == 2:
        measure_id, weights = str(measure[0]), measure[1]
    else:
        raise ValidationError(f"cannot interpret measure {measure!r}")
    weights = [mode.value(w) for w in weights]
    if len(weights) != space.size:
        raise ValidationError("measure weights must match the outcome count")
    return measure_id, weights


def _one_step_cells(constraint: ConstraintSpec, weights, mode: Arithmetic):
    """Distinct unit cells of one step with their summed step weights, and
    the step unit (see ``Arithmetic.steps``)."""
    steps, unit = mode.steps(weights)
    agg: dict = {}
    for u, w in zip(constraint.units, steps):
        prev = agg.get(u)
        agg[u] = w if prev is None else prev + w
    return sorted(agg.items()), unit


def _dense_step(table: np.ndarray, shape_new, cells) -> np.ndarray:
    # a run of cells with equal (positive) weights shares one product, and it
    # is dropped before the next is built, so one product is alive at a time
    held = [None, None]

    def term(w, table):
        if held[0] != w:
            held[1] = None
            held[:] = w, w * table
        return held[1]

    return _shift_combine(np.zeros(shape_new, dtype=table.dtype), table, cells,
                          np.add, term)


def _sparse_step(table: dict, moves) -> dict:
    """One dict-DP step over int-packed states: a state ``code`` takes the
    (offset, weight) moves in ``moves[code % len(moves)]``, each applied from
    ``code - code % len(moves)``, so a shift is one addition."""
    new: dict = {}
    radix = len(moves)
    for code, m in table.items():
        low = code % radix
        base = code - low
        for d, w in moves[low]:
            key = base + d
            prev = new.get(key)
            new[key] = m * w if prev is None else prev + m * w
    _check_budget((len(new),), f"dict DP states; {REDUCE_N}")
    return new


@dataclass
class SumDistribution:
    """Distribution of the n-step unit-sum vector under one product measure.

    The table stores values whose masses are value * scale: integer
    numerators with scale Fraction(1, D**n) under ``EXACT``, floats with
    scale 1.0 under ``FLOAT``. Index i of the table is unit cell origin + i; a
    windowed sweep keeps a table that does not start at the zero cell.
    """

    n: int
    measure_id: str
    mode: Arithmetic
    constraint: ConstraintSpec
    table: np.ndarray
    scale: object
    origin: tuple[int, ...]

    def _mass(self, stored):
        """Mass of a stored Python value: a float, or an exact Fraction."""
        return stored * self.scale

    def mass_units(self, units):
        index = tuple(map(sub, units, self.origin))
        inside = all(0 <= i < s for i, s in zip(index, self.table.shape))
        return self._mass(self.table.item(index) if inside else 0)

    def mass_at_target(self):
        """Mass of the cell where the n-sample average equals the target;
        zero when that cell is off the lattice."""
        center = self.constraint.center_units(self.n)
        return self._mass(0) if center is None else self.mass_units(center)

    def _stored(self):
        """Support cells with their stored (unscaled) nonzero values."""
        for i in map(tuple, np.argwhere(self.table > 0).tolist()):
            yield tuple(a + o for a, o in zip(i, self.origin)), self.table.item(i)

    def items(self):
        """Support cells with nonzero mass."""
        for u, m in self._stored():
            yield u, self._mass(m)


def _initial(constraint: ConstraintSpec, measure_id: str, mode: Arithmetic,
             unit) -> SumDistribution:
    """The empty sum: stored value 1 at the origin, with scale unit**0."""
    table = np.ones((1,) * constraint.dim, dtype=mode.dtype)
    return SumDistribution(n=0, measure_id=measure_id, mode=mode,
                           constraint=constraint, table=table, scale=unit ** 0,
                           origin=(0,) * constraint.dim)


def _sweep(constraint: ConstraintSpec, measure_id: str, weights, mode: Arithmetic,
           horizon: int | None = None):
    """Yield the sum tables for n = 0, 1, 2, ... under one measure.

    Each table is built only when the caller asks for it, so ``islice`` and
    ``next`` take exactly the sizes they need. With a horizon each table
    is cut to its ``lattice._window``, whose cells carry the masses of the
    full sweep bit for bit; the target masses up to the horizon are all in
    it. ``lattice._grow`` works out and checks each step and writes the
    window in the layout the next step reads, its pad at zero; a caller
    checks the tables it keeps, or the largest it streams, before it asks.
    """
    cells, unit = _one_step_cells(constraint, weights, mode)
    sd = _initial(constraint, measure_id, mode, unit)
    while True:
        yield sd
        shape, cut, origin = _grow(constraint, horizon, sd.n + 1)
        sd = SumDistribution(n=sd.n + 1, measure_id=measure_id, mode=mode,
                             constraint=constraint, scale=sd.scale * unit,
                             table=cut(_dense_step(sd.table, shape, cells)),
                             origin=origin)


def sum_distribution(space: SampleSpace, constraint: ConstraintSpec, n: int,
                     measure="q", mode: Arithmetic = FLOAT) -> SumDistribution:
    """Distribution of the n-step statistic sum by successive convolution."""
    if n < 0:
        raise ValidationError("n must be >= 0")
    measure_id, weights = resolve_measure(space, measure, mode)
    _check_budget(_dense_shape(n, constraint.unit_max),
                  f"sum distribution at n={n}; {REDUCE_N}")
    return next(islice(_sweep(constraint, measure_id, weights, mode), n, None))


def convolve(a: SumDistribution, b: SumDistribution) -> SumDistribution:
    """Exact convolution of two sum distributions of the same statistic."""
    if a.constraint is not b.constraint or a.measure_id != b.measure_id \
            or a.mode != b.mode:
        raise ValidationError("can only convolve tables of one statistic and measure")
    n = a.n + b.n
    shape = _dense_shape(n, a.constraint.unit_max)
    _check_budget(shape, f"convolution at n={n}; {REDUCE_N}")
    return SumDistribution(n=n, measure_id=a.measure_id, mode=a.mode,
                           constraint=a.constraint,
                           table=_dense_step(a.table, shape, list(b._stored())),
                           scale=a.scale * b.scale, origin=a.origin)


def constraint_prob(space: SampleSpace, constraint: ConstraintSpec, n: int,
                    measure="q", mode: Arithmetic = FLOAT):
    """Probability that the n-sample average of the statistic is on target.

    Zero (not an error) for infeasible n, so sweeps over n stay uninterrupted.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    return sum_distribution(space, constraint, n, measure=measure,
                            mode=mode).mass_at_target()


def central_series(space: SampleSpace, constraint: ConstraintSpec, n_max: int,
                   measure="q", mode: Arithmetic = FLOAT) -> list:
    """Constraint probabilities for every n up to n_max in one sweep.

    Keeps only the running table, so memory stays at one table of the largest
    size. Entry 0 is the empty-sum mass 1. This sweep fills the full box;
    the package reads the same masses from ``_central_masses``, and this is
    its reference.
    """
    measure_id, weights = resolve_measure(space, measure, mode)
    _check_budget(_dense_shape(n_max, constraint.unit_max),
                  f"central-mass sweep to n={n_max}; {REDUCE_N}")
    sweep = _sweep(constraint, measure_id, weights, mode)
    return [sd.mass_at_target() for sd in islice(sweep, n_max + 1)]


def _central_masses(space: SampleSpace, constraint: ConstraintSpec, n_max: int,
                    measures=("q",)) -> list[list]:
    """``central_series`` of each of ``measures``, from tables cut to their
    ``lattice._window``, bit for bit. Its largest step, from the widest
    window at n_max // 2 (widths are concave in m and equal at n_max - m),
    is checked before it sweeps. Every zero is exact: a 0.0 at a target that
    sequences of its size reach has underflowed and raises. One streamed
    reachability sweep, to the last size with a zero on the lattice, decides
    the zeros of all the series, so each measure must charge every outcome."""
    resolved = [resolve_measure(space, measure, FLOAT) for measure in measures]
    _grow(constraint, n_max, n_max // 2 + 1)
    series = [[sd.mass_at_target() for sd in
               islice(_sweep(constraint, measure_id, weights, FLOAT, n_max),
                      n_max + 1)]
              for measure_id, weights in resolved]
    zeros = [n for n in range(n_max + 1)
             if any(masses[n] == 0 for masses in series)
             and constraint.center_units(n) is not None]
    if zeros:
        reached = set(first_feasible_sizes(space, constraint, zeros[-1],
                                           zeros[-1]))
        for (measure_id, _), masses in zip(resolved, series):
            for n in zeros:
                if masses[n] == 0 and n in reached:
                    raise _underflow(
                        f"central masses under {measure_id} to n={n_max}", n)
    return series


class SumTableProvider(_WindowCache):
    """Lazily grown cache of sum distributions for sizes 0..m <= ``horizon``.

    It is the one source of the problem, the measure with its weights and
    the arithmetic for the conditioned marginals and predictors built on it.
    A ``lattice._WindowCache``: each table holds and is charged for its
    ``lattice._window`` at the horizon, in its ``lattice._layout``, and
    every cell that a conditioned predictor or marginal of a size <= horizon
    reads is in it, with the mass of the full table bit for bit; the cells
    outside, the layout's pad among them, read as zero.

    ``mass`` returns only exact zeros, by ``lattice._Reach.exact``: a 0.0 at
    a cell that some sequence reaches is an underflow and raises
    ``LatticeBlowupError``. The measure must charge every outcome.

    Not thread-safe; confine one provider to one thread of work. Concurrent
    runs should build independent providers, which compute identical values.
    """

    def __init__(self, space: SampleSpace, constraint: ConstraintSpec,
                 horizon: int, measure="q", mode: Arithmetic = FLOAT):
        self.mode = mode
        self.space = space
        self.measure_id, self.weights = resolve_measure(space, measure, mode)
        sweep = _sweep(constraint, self.measure_id, self.weights, mode, horizon)
        super().__init__(constraint, horizon, sweep, "cached sum tables")
        self._reach = _Reach(constraint, horizon)

    def table(self, m: int) -> SumDistribution:
        return self._kept(m)

    def mass(self, m: int, units):
        """The size-m mass at unit cell ``units``, zero only if exact."""
        return self._reach.exact(m, units, self.table(m).mass_units(units),
                                 f"sum tables to n={self.horizon}")
