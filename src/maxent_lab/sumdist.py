"""Distributions of n-step sums of a lattice statistic under a product measure.

Tables are indexed by unit coordinates: the scaled sum after n steps equals
n * offset + span * units, coordinatewise. Every table is one dense array over
the bounding box of the reachable sums, in either arithmetic: float64 masses,
or (rational mode) an object array of exact integer numerators. Each rational
step weight is written a_i / D over D = lcm of the weight denominators, the
sweep adds and multiplies the a_i, and a table after n steps carries the single
denominator D**n, applied as a Fraction only when a mass is read out. Float
tables self-normalize because every step convolves probability masses, so no
log-domain rescaling is needed at the sizes this package allows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import numpy as np

from .errors import ValidationError
from .lattice import (
    ConstraintSpec,
    SampleSpace,
    _check_budget,
    _dense_shape,
    _shift_combine,
    _tables_cells,
    as_fraction,
)
from .solver import MaxEntSolution


def resolve_measure(space: SampleSpace, measure, mode: str):
    """Normalize a measure argument to (measure_id, per-outcome weights).

    Accepts 'q' (the prior), a MaxEntSolution (float mode only), or a
    ``(tag, weights)`` pair with exact rationals in rational mode.
    """
    if measure == "q":
        measure_id, weights = "q", space.prior_fractions
    elif isinstance(measure, MaxEntSolution):
        if mode == "rational":
            raise ValidationError("the projection has irrational masses; "
                                  "rational mode needs a rational measure")
        measure_id, weights = measure.measure_id, measure.pmf
    elif isinstance(measure, tuple) and len(measure) == 2:
        tag, weights = measure
        weights = list(weights)
        if len(weights) != space.size:
            raise ValidationError("measure weights must match the outcome count")
        measure_id = str(tag)
    else:
        raise ValidationError(f"cannot interpret measure {measure!r}")
    if mode == "rational":
        return measure_id, [as_fraction(w) for w in weights]
    return measure_id, [float(w) for w in weights]


def step_weights(weights, mode: str):
    """Per-step DP weights and the unit u with weights[i] == steps[i] * u.

    In rational mode the steps are the integer numerators a_i over
    D = lcm(denominators) and u = Fraction(1, D), so a DP adds and multiplies
    plain ints and a value after n steps reads out exactly as value * u**n.
    Float weights pass through with u = 1.0, which leaves float results bit
    for bit unchanged.
    """
    if mode == "rational":
        denom = math.lcm(*(w.denominator for w in weights))
        return ([w.numerator * (denom // w.denominator) for w in weights],
                Fraction(1, denom))
    return weights, 1.0


def _one_step_cells(constraint: ConstraintSpec, weights, mode: str):
    """Distinct unit cells of one step with their summed step weights, and
    the step unit (see ``step_weights``)."""
    steps, unit = step_weights(weights, mode)
    agg: dict = {}
    for u, w in zip(constraint.units, steps):
        prev = agg.get(u)
        agg[u] = w if prev is None else prev + w
    return sorted(agg.items()), unit


# dtype of the stored table values per arithmetic: float64 masses, or Python
# int numerators over D**n
TABLE_DTYPE = {"float": np.float64, "rational": object}


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


@dataclass
class SumDistribution:
    """Distribution of the n-step unit-sum vector under one product measure.

    The table stores values whose masses are value * scale: integer
    numerators with scale Fraction(1, D**n) in rational mode, floats with
    scale 1.0 otherwise.
    """

    n: int
    measure_id: str
    mode: str
    constraint: ConstraintSpec
    table: np.ndarray
    scale: object

    def _mass(self, stored):
        """Mass of a stored Python value: a float, or an exact Fraction."""
        return stored * self.scale

    def mass_units(self, units):
        units = tuple(units)
        for uj, s in zip(units, self.table.shape):
            if uj < 0 or uj >= s:
                return self._mass(0)
        return self._mass(self.table.item(units))

    def mass_at_target(self):
        """Mass of the cell where the n-sample average equals the target;
        zero when that cell is off the lattice."""
        center = self.constraint.center_units(self.n)
        return self._mass(0) if center is None else self.mass_units(center)

    def total(self):
        return self._mass(self.table.sum(keepdims=True).item())

    def _stored(self):
        """Support cells with their stored (unscaled) nonzero values."""
        for u in map(tuple, np.argwhere(self.table > 0).tolist()):
            yield u, self.table.item(u)

    def items(self):
        """Support cells with nonzero mass."""
        for u, m in self._stored():
            yield u, self._mass(m)


def _initial(constraint: ConstraintSpec, measure_id: str, mode: str,
             unit) -> SumDistribution:
    """The empty sum: stored value 1 at the origin, with scale unit**0."""
    table = np.ones((1,) * constraint.dim, dtype=TABLE_DTYPE[mode])
    return SumDistribution(n=0, measure_id=measure_id, mode=mode,
                           constraint=constraint, table=table, scale=unit ** 0)


def _sweep(constraint: ConstraintSpec, measure_id: str, weights, mode: str):
    """Yield the sum tables for n = 0, 1, 2, ... under one measure.

    Each table is built only when the caller asks for it, so ``islice`` and
    ``next`` take exactly the sizes they need. The sweep does not check the
    cell budget: each caller checks the tables it asks for before it asks.
    """
    cells, unit = _one_step_cells(constraint, weights, mode)
    sd = _initial(constraint, measure_id, mode, unit)
    while True:
        yield sd
        shape = _dense_shape(sd.n + 1, constraint.unit_max)
        sd = SumDistribution(n=sd.n + 1, measure_id=measure_id, mode=mode,
                             constraint=constraint, scale=sd.scale * unit,
                             table=_dense_step(sd.table, shape, cells))


def sum_distribution(space: SampleSpace, constraint: ConstraintSpec, n: int,
                     measure="q", mode: str = "float") -> SumDistribution:
    """Distribution of the n-step statistic sum by successive convolution."""
    if n < 0:
        raise ValidationError("n must be >= 0")
    measure_id, weights = resolve_measure(space, measure, mode)
    _check_budget(_dense_shape(n, constraint.unit_max), f"sum distribution at n={n}")
    return next(islice(_sweep(constraint, measure_id, weights, mode), n, None))


def convolve(a: SumDistribution, b: SumDistribution) -> SumDistribution:
    """Exact convolution of two sum distributions of the same statistic."""
    if a.constraint is not b.constraint or a.measure_id != b.measure_id \
            or a.mode != b.mode:
        raise ValidationError("can only convolve tables of one statistic and measure")
    n = a.n + b.n
    shape = _dense_shape(n, a.constraint.unit_max)
    _check_budget(shape, f"convolution at n={n}")
    return SumDistribution(n=n, measure_id=a.measure_id, mode=a.mode,
                           constraint=a.constraint,
                           table=_dense_step(a.table, shape, list(b._stored())),
                           scale=a.scale * b.scale)


def constraint_prob(space: SampleSpace, constraint: ConstraintSpec, n: int,
                    measure="q", mode: str = "float"):
    """Probability that the n-sample average of the statistic is on target.

    Zero (not an error) for infeasible n, so sweeps over n stay uninterrupted.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    return sum_distribution(space, constraint, n, measure=measure,
                            mode=mode).mass_at_target()


def central_series(space: SampleSpace, constraint: ConstraintSpec, n_max: int,
                   measure="q", mode: str = "float") -> list:
    """Constraint probabilities for every n up to n_max in one sweep.

    Keeps only the running table, so memory stays at one table of the largest
    size. Entry 0 is the empty-sum mass 1.
    """
    measure_id, weights = resolve_measure(space, measure, mode)
    _check_budget(_dense_shape(n_max, constraint.unit_max),
                  f"central-mass sweep to n={n_max}")
    sweep = _sweep(constraint, measure_id, weights, mode)
    return [sd.mass_at_target() for sd in islice(sweep, n_max + 1)]


class SumTableProvider:
    """Lazily grown cache of sum distributions for sizes 0..m.

    The cached tables 0..m together must fit the cell budget; a request that
    does not is refused before any table is built, so it leaves the cache as
    it was.

    Not thread-safe; confine one provider to one thread of work. Concurrent
    runs should build independent providers, which compute identical values.
    """

    def __init__(self, space: SampleSpace, constraint: ConstraintSpec,
                 measure="q", mode: str = "float"):
        self.mode = mode
        self.constraint = constraint
        self.measure_id, self.weights = resolve_measure(space, measure, mode)
        self._sweep = _sweep(constraint, self.measure_id, self.weights, mode)
        self._tables = [next(self._sweep)]

    def table(self, m: int) -> SumDistribution:
        if m < 0:
            raise ValidationError("suffix size must be >= 0")
        if m >= len(self._tables):
            _check_budget((_tables_cells(self.constraint, m),),
                          f"cached sum tables to n={m}")
        while len(self._tables) <= m:
            self._tables.append(next(self._sweep))
        return self._tables[m]

    def mass(self, m: int, units):
        return self.table(m).mass_units(units)
