"""Finite sample spaces, exact rational priors, and integer-lattice statistics.

All constraint arithmetic here is exact: inputs are rationals, each statistic
coordinate is rescaled to integers, and spans/offsets/feasibility are derived
with gcd arithmetic. Floats only appear as cached views for the numeric layers.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from math import gcd, isfinite, lcm, prod
from operator import add, mul, sub

import numpy as np

from .errors import (
    DegenerateCoordinateError,
    InternalCheckError,
    LatticeBlowupError,
    TargetOutsideHullError,
    ValidationError,
)

# the most cells any lattice table, or set of tables kept together, may hold,
# and the advice of a refusal whose table grows with the sample size n
CELL_BUDGET = 50_000_000
REDUCE_N = "reduce n or coarsen the statistic"


def as_fraction(value) -> Fraction:
    """Parse an exact rational: Fraction, int, or a string like '1/6' or '0.25'.

    Floats are rejected; lattice derivation is not float-safe. So are bools,
    which type() tells from ints.
    """
    if isinstance(value, Fraction):
        return value
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"cannot parse {value!r} as a rational") from exc
    raise ValidationError(
        f"expected an exact rational (Fraction, int, or string), got {type(value).__name__}"
    )


def as_exact(value) -> Fraction:
    """``as_fraction``, but a finite float reads as its binary rational."""
    if not isinstance(value, float):
        return as_fraction(value)
    if not isfinite(value):
        raise ValidationError(f"cannot read {value!r} as an exact rational")
    return Fraction(value)


@dataclass(frozen=True)
class SampleSpace:
    """Finite outcome set with a strictly positive rational prior: the
    ``labels`` of the problem less those of zero mass."""

    outcomes: tuple
    prior_fractions: tuple[Fraction, ...]
    labels: tuple

    @property
    def dropped(self) -> tuple:
        """The zero-mass labels, each with its weight 0."""
        return tuple((label, Fraction(0)) for label in self.labels
                     if label not in self._index)

    def columns(self, rows) -> list[list]:
        """Per outcome, its values in ``rows``: matrix rows whose entry j
        belongs to ``labels[j]``, so the entries of dropped labels are
        left out."""
        if any(len(row) != len(self.labels) for row in rows):
            raise ValidationError("statistic rows must have one entry per outcome")
        keep = [self.labels.index(label) for label in self.outcomes]
        return [[row[i] for row in rows] for i in keep]

    @cached_property
    def prior(self) -> np.ndarray:
        return np.array([float(w) for w in self.prior_fractions])

    @cached_property
    def _index(self) -> dict:
        return {label: i for i, label in enumerate(self.outcomes)}

    @property
    def size(self) -> int:
        return len(self.outcomes)

    def index(self, label) -> int:
        try:
            return self._index[label]
        except (KeyError, TypeError):
            raise ValidationError(f"unknown outcome {label!r}") from None


def build_space(labels, prior_weights) -> SampleSpace:
    """Build a sample space from labels and non-negative rational weights.

    Weights are normalized to sum exactly to one; zero-weight outcomes are
    dropped and recorded in ``dropped``.
    """
    labels = list(labels)
    if not labels:
        raise ValidationError("empty outcome list")
    if any(isinstance(label, (list, dict)) for label in labels):
        raise ValidationError("outcome labels must be strings or numbers")
    if len(set(labels)) != len(labels):
        raise ValidationError("outcome labels must be distinct")
    if not isinstance(prior_weights, (list, tuple)):
        raise ValidationError("prior weights must be a list")
    weights = [as_fraction(w) for w in prior_weights]
    if len(weights) != len(labels):
        raise ValidationError("labels and weights must have equal length")
    if any(w < 0 for w in weights):
        raise ValidationError("prior weights must be non-negative")
    total = sum(weights)
    if total == 0:
        raise ValidationError("all prior weights are zero")
    kept = [(label, w) for label, w in zip(labels, weights) if w > 0]
    return SampleSpace(
        outcomes=tuple(label for label, _ in kept),
        prior_fractions=tuple(w / total for _, w in kept),
        labels=tuple(labels),
    )


@dataclass(frozen=True)
class LatticeGeometry:
    """Integer-lattice form of a rational statistic.

    For coordinate j, every value satisfies scaled(x) = offset[j] + s * span[j]
    with s a non-negative integer (the unit); span[j] is maximal by gcd
    construction. ``scale[j]`` maps original values to the scaled integers.
    """

    dim: int
    scale: tuple[int, ...]
    offsets: tuple[int, ...]
    spans: tuple[int, ...]
    units: tuple[tuple[int, ...], ...]

    @cached_property
    def unit_max(self) -> tuple[int, ...]:
        return tuple(max(u[j] for u in self.units) for j in range(self.dim))

    @classmethod
    def from_values(cls, values, allow_constant: bool = False) -> "LatticeGeometry":
        values = [tuple(as_fraction(v) for v in row) for row in values]
        dim = len(values[0])
        if any(len(row) != dim for row in values):
            raise ValidationError("statistic rows must share one dimension")
        scale, offsets, spans = [], [], []
        columns = []
        for j in range(dim):
            col = [row[j] for row in values]
            mult = lcm(*(v.denominator for v in col))
            scaled = [int(v * mult) for v in col]
            b = min(scaled)
            h = 0
            for v in scaled:
                h = gcd(h, v - b)
            if h == 0:
                if not allow_constant:
                    raise DegenerateCoordinateError(
                        f"degenerate constraint coordinate {j}: statistic is constant"
                    )
                h = 1
            scale.append(mult)
            offsets.append(b)
            spans.append(h)
            columns.append([(v - b) // h for v in scaled])
        units = tuple(tuple(columns[j][i] for j in range(dim)) for i in range(len(values)))
        return cls(dim=dim, scale=tuple(scale), offsets=tuple(offsets),
                   spans=tuple(spans), units=units)


def _pivot(rows: list, cost: list, basis: list, r: int, col: int) -> None:
    """Make ``col`` basic in row r: scale row r to a unit pivot and clear the
    column from every other row, the cost row included."""
    pivot = rows[r][col]
    rows[r] = [a / pivot for a in rows[r]]
    for row in rows + [cost]:
        if row is not rows[r] and row[col] != 0:
            f = row[col]
            row[:] = [a - f * b for a, b in zip(row, rows[r])]
    basis[r] = col


def _bland(rows: list, cost: list, basis: list, n: int) -> None:
    """Pivot until no column < n has a positive reduced cost. Bland's rule
    (lowest entering index, lowest leaving basis index on ratio ties) cannot
    cycle, so this terminates on degenerate problems too."""
    while True:
        col = next((j for j in range(n) if cost[j] > 0), None)
        if col is None:
            return
        leave = None
        for i, row in enumerate(rows):
            if row[col] > 0:
                ratio = row[-1] / row[col]
                if leave is None or ratio < best or \
                        (ratio == best and basis[i] < basis[leave]):
                    leave, best = i, ratio
        if leave is None:
            raise InternalCheckError("unbounded LP")  # every LP here is bounded
        _pivot(rows, cost, basis, leave, col)


def _lp_max(a_eq, b_eq, c) -> Fraction | None:
    """Exact optimum of max c.x subject to a_eq x = b_eq, x >= 0, or None when
    the constraints are infeasible; the problem must be bounded.

    Two-phase dense-tableau simplex over Fractions with Bland's rule (Bland
    1977). Each tableau row is [a_1 .. a_n, artificial_1 .. artificial_m, b];
    a cost row holds reduced costs and, in its last entry, minus the objective.
    """
    m, n = len(a_eq), len(c)
    rows = []
    for i, (a, b) in enumerate(zip(a_eq, b_eq)):
        sign = -1 if b < 0 else 1
        rows.append([sign * Fraction(x) for x in a]
                    + [Fraction(int(r == i)) for r in range(m)]
                    + [sign * Fraction(b)])
    basis = list(range(n, n + m))
    # phase 1: maximize minus the sum of the artificials
    cost = [sum(col) for col in zip(*rows)]
    cost[n:n + m] = [Fraction(0)] * m
    _bland(rows, cost, basis, n)
    if cost[-1] != 0:
        return None
    # drive zero-level artificials out of the basis; a row with no real
    # column left is a redundant constraint
    for i in reversed(range(m)):
        if basis[i] >= n:
            col = next((j for j in range(n) if rows[i][j] != 0), None)
            if col is None:
                del rows[i], basis[i]
            else:
                _pivot(rows, cost, basis, i, col)
    rows = [row[:n] + row[-1:] for row in rows]
    # phase 2: reduced costs of c in the feasible basis
    cost = [Fraction(x) for x in c] + [Fraction(0)]
    for row, j in zip(rows, basis):
        if cost[j] != 0:
            f = cost[j]
            cost = [a - f * b for a, b in zip(cost, row)]
    _bland(rows, cost, basis, n)
    return -cost[-1]


def hull_position(values, target) -> str:
    """Classify a target against the convex hull of the statistic values.

    Returns 'interior' (relative interior), 'boundary', or 'outside', exactly.
    The per-coordinate range check settles dim 1 and most outside targets; for
    dim >= 2 an exact LP maximizes the smallest convex weight eps over the
    representations t = sum_i lambda_i v_i, sum_i lambda_i = 1, lambda_i >= eps:
    the target is interior iff eps* > 0, boundary iff eps* = 0, and outside iff
    no representation exists.
    """
    values = [tuple(as_fraction(v) for v in row) for row in values]
    target = tuple(as_fraction(t) for t in target)
    dim = len(target)
    for j in range(dim):
        col = [row[j] for row in values]
        if target[j] < min(col) or target[j] > max(col):
            return "outside"
    if dim == 1:
        col = [row[0] for row in values]
        return "boundary" if target[0] in (min(col), max(col)) else "interior"

    # with lambda_i = mu_i + eps, variables mu_1..mu_m, eps >= 0 (eps* >= 0
    # whenever a representation exists)
    m = len(values)
    a_eq = [[row[j] for row in values] + [sum(row[j] for row in values)]
            for j in range(dim)]
    a_eq.append([1] * m + [m])
    eps = _lp_max(a_eq, list(target) + [1], [0] * m + [1])
    if eps is None:
        return "outside"
    return "interior" if eps > 0 else "boundary"


@dataclass(frozen=True)
class ConstraintSpec(LatticeGeometry):
    """A rational statistic T and a target for its mean, on the lattice
    ``LatticeGeometry.from_values`` derives from T.

    ``position`` is the target's exact ``hull_position``, 'interior' or
    'boundary'."""

    values: tuple[tuple[Fraction, ...], ...]
    target: tuple[Fraction, ...]
    position: str

    @cached_property
    def values_float(self) -> np.ndarray:
        return np.array([[float(v) for v in row] for row in self.values])

    @cached_property
    def target_float(self) -> np.ndarray:
        return np.array([float(t) for t in self.target])

    @cached_property
    def spans_original(self) -> tuple[Fraction, ...]:
        """Spans of T in its original units (scaled span / scale)."""
        return tuple(Fraction(h, s) for h, s in zip(self.spans, self.scale))

    @cached_property
    def index(self) -> int:
        """Index in Z^k of the lattice the unit-step differences span: the gcd
        of their k x k minors, |det| of their Hermite normal form (Cohen, *A
        Course in Computational Algebraic Number Theory*, 2.4), so the product
        of the pivots Euclid's row reduction leaves; 0 below rank k."""
        rows = [list(map(sub, u, self.units[0])) for u in self.units[1:]]
        index = 1
        for j in range(self.dim):
            while len(live := [r for r in rows if r[j]]) > 1:
                pivot = min(live, key=lambda r: abs(r[j]))
                for r in live:
                    if r is not pivot:
                        q = r[j] // pivot[j]
                        r[:] = [a - q * b for a, b in zip(r, pivot)]
            index *= abs(live[0][j]) if live else 0
            rows = [r for r in rows if r not in live]
        return index

    @cached_property
    def center_step(self) -> tuple[Fraction, ...]:
        """Per-step unit drift of the target: center_units(n) = n * center_step."""
        return tuple(
            Fraction(t * s - b, h)
            for t, s, b, h in zip(self.target, self.scale, self.offsets, self.spans)
        )

    @cached_property
    def center_ints(self) -> tuple[tuple[int, int], ...]:
        """``center_step`` as (numerator, denominator) pairs of ints."""
        return tuple((s.numerator, s.denominator) for s in self.center_step)

    def center_units(self, n: int) -> tuple[int, ...] | None:
        """Unit coordinates of the cell where the n-sample average hits the
        target, or None when that cell is off the lattice."""
        out = []
        for (num, den), m in zip(self.center_ints, self.unit_max):
            c, rest = divmod(n * num, den)
            if rest or not 0 <= c <= n * m:
                return None
            out.append(c)
        return tuple(out)


def derive_lattice(values, target) -> ConstraintSpec:
    """Derive the integer-lattice representation of a rational statistic.

    ``values`` holds one k-vector per outcome (scalars accepted for k = 1),
    ``target`` the desired mean. Constant coordinates and targets outside the
    convex hull are rejected; the hull position is classified here, once.
    """
    rows = []
    for row in values:
        if isinstance(row, (list, tuple)):
            rows.append(tuple(as_fraction(v) for v in row))
        else:
            rows.append((as_fraction(row),))
    if len(rows) < 2:
        raise ValidationError("need at least two outcomes")
    if not isinstance(target, (list, tuple)):
        target = (target,)
    target = tuple(as_fraction(t) for t in target)
    if len(target) != len(rows[0]):
        raise ValidationError("target dimension does not match statistic dimension")
    geometry = asdict(LatticeGeometry.from_values(rows))
    position = hull_position(rows, target)
    if position == "outside":
        raise TargetOutsideHullError(
            f"target {tuple(str(t) for t in target)} outside the convex hull of statistic values"
        )
    return ConstraintSpec(**geometry, values=tuple(rows), target=target,
                          position=position)


def _dense_shape(n: int, unit_max: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(n * m + 1 for m in unit_max)


def _check_budget(shape: tuple[int, ...], what: str) -> None:
    """Raise ``LatticeBlowupError`` when a table of ``shape`` would hold more
    than ``CELL_BUDGET`` cells; ``what`` is "<table>; <the caller's advice>"."""
    cells = prod(shape)
    if cells > CELL_BUDGET:
        table, sep, advice = what.partition(";")
        raise LatticeBlowupError(
            f"lattice blow-up: {table} needs {cells} cells "
            f"(budget {CELL_BUDGET}){sep}{advice}")


def _window(constraint: ConstraintSpec, horizon: int,
            m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Origin and shape of the part of the size-m table that a sweep to
    ``horizon`` H keeps: per coordinate the cells lo_j..hi_j with
    hi_j = min(m u_j, floor(H sigma_j)) and
    lo_j = max(0, m u_j - (H u_j - floor(H sigma_j))), for u = ``unit_max``
    and sigma = ``center_step``. Steps only add 0..u_j to a coordinate, so no
    cell outside can reach the target of any size m..H. A predecessor of a
    kept cell at size m + 1 is kept at size m or lies outside the full box,
    so every kept cell sums the same terms, in the same order, as in the
    full sweep."""
    origin, shape = [], []
    for u, (num, den) in zip(constraint.unit_max, constraint.center_ints):
        top = horizon * num // den
        lo, hi = max(0, m * u - horizon * u + top), min(m * u, top)
        origin.append(lo)
        shape.append(hi - lo + 1)
    return tuple(origin), tuple(shape)


def _layout(constraint: ConstraintSpec, shape: tuple[int, ...]) -> tuple[int, ...]:
    """The shape ``_grow`` keeps a window in: ``unit_max_j`` more cells on
    each inner axis j >= 1."""
    return shape[:1] + tuple(map(add, shape[1:], constraint.unit_max[1:]))


def _grow(constraint: ConstraintSpec, horizon: int | None, n: int):
    """Step n of a sweep to ``horizon``, from the size n - 1 ``_window`` or,
    with no horizon, the full box: the shape of the box it grows to, which
    must fit the cell budget, a function that cuts that box to the size-n
    table, and the table's origin. With no horizon nothing is cut; with
    one, the cut is the step's one copy, the size-n window in its
    ``_layout`` with the pad at the combine's identity (0 or False), so the
    next step's ``_shift_combine`` pads nothing."""
    if horizon is None:
        origin, shape = (0,) * constraint.dim, _dense_shape(n - 1, constraint.unit_max)
    else:
        origin, shape = _window(constraint, horizon, n - 1)
    grown = tuple(map(add, shape, constraint.unit_max))
    _check_budget(grown, f"sweep step to n={n}; {REDUCE_N}")
    if horizon is None:
        return grown, lambda table: table, origin
    new_origin, new_shape = _window(constraint, horizon, n)
    starts = tuple(map(sub, new_origin, origin))
    index = tuple(map(slice, starts, map(add, starts, new_shape)))
    if constraint.dim == 1:  # the layout is the window: a plain copy
        return grown, lambda table: table[index].copy(), new_origin

    def cut(table):
        kept = np.empty(_layout(constraint, new_shape), dtype=table.dtype)
        kept[tuple(map(slice, new_shape))] = table[index]
        for j in range(1, constraint.dim):  # the pad past axis j's window
            kept[(slice(None),) * j + (slice(new_shape[j], None),)] = 0
        return kept
    return grown, cut, new_origin


def _shift_combine(new: np.ndarray, table: np.ndarray, cells, combine,
                   term) -> np.ndarray:
    """One step of a lattice sweep: for each ``(u, w)`` in ``cells``, in order,
    combine ``term(w, table)`` into the region of ``new`` shifted by unit cell
    u. ``new``, a fresh C-ordered array at the combine's identity, is
    returned. A table whose inner axes are not laid out as ``new``'s, as
    ``_grow``'s cut lays out a windowed one, is padded to them with that
    identity, so each shift is one contiguous slice of flat ``new`` at
    offset u . strides, cut at its end. A shifted table must fit in
    ``new``: the padded cells that then wrap into the next row, or are
    cut, add only the identity."""
    if table.shape[1:] != new.shape[1:]:
        padded = np.full(table.shape[:1] + new.shape[1:], new.flat[0],
                         dtype=table.dtype)
        padded[tuple(map(slice, table.shape))] = table
        table = padded
    flat = new.reshape(-1)
    strides = [s // new.itemsize for s in new.strides]
    for u, w in cells:
        start = sum(map(mul, u, strides))
        part = flat[start:start + table.size]
        combine(part, term(w, table).reshape(-1)[:part.size], out=part)
    return new


def _reach_step(reach: np.ndarray, shape_new: tuple[int, ...], unit_cells) -> np.ndarray:
    return _shift_combine(np.zeros(shape_new, dtype=bool), reach,
                          [(u, None) for u in unit_cells], np.logical_or,
                          lambda w, table: table)


def _reach_sweep(constraint: ConstraintSpec, horizon: int | None = None):
    """Yield (table, origin) for n = 0, 1, 2, ...: index i of boolean table n
    is True when some length-n sequence has unit sum origin + i. With a
    horizon each table is cut to its ``_window`` in its ``_layout``, whose
    pad reads False; without, every origin is the zero cell. ``_grow``
    checks each step against the cell budget."""
    unit_cells = sorted(set(constraint.units))
    reach = np.ones((1,) * constraint.dim, dtype=bool)
    origin = (0,) * constraint.dim
    n = 0
    while True:
        yield reach, origin
        n += 1
        shape, cut, origin = _grow(constraint, horizon, n)
        reach = cut(_reach_step(reach, shape, unit_cells))


def _reads(table: np.ndarray, origin: tuple[int, ...], units) -> bool:
    """Cell ``units`` of a table whose index 0 is cell ``origin``; False outside."""
    index = tuple(map(sub, units, origin))
    return all(0 <= i < s for i, s in zip(index, table.shape)) \
        and bool(table[index])


class _WindowCache:
    """``_kept(m)``: table m <= ``horizon`` of a sweep, cut to its ``_window``
    in its ``_layout``, swept on first use and kept. The cells kept
    together, and each box a step grows (``_grow``), must fit the cell
    budget: a growth that would not is refused before it sweeps, and the
    kept tables stay as they were. ``what`` names the tables in a refusal."""

    def __init__(self, constraint: ConstraintSpec, horizon: int, sweep,
                 what: str):
        self.constraint = constraint
        self.horizon = horizon
        self._sweep = sweep
        self._what = what
        self._tables, self._cells = [next(sweep)], 1  # size 0: one cell

    def _kept(self, m: int):
        if not 0 <= m <= self.horizon:
            raise ValidationError(f"suffix size must be in 0..{self.horizon}, got {m}")
        have = len(self._tables)
        if have <= m:
            shapes = [_window(self.constraint, self.horizon, size)[1]
                      for size in range(have, m + 1)]
            cells = self._cells + sum(prod(_layout(self.constraint, s)) for s in shapes)
            _check_budget((cells,), f"{self._what} to n={m}; {REDUCE_N}")
            # widths peak at size horizon // 2: the step from there grows most
            _grow(self.constraint, self.horizon,
                  max(have, min(m, self.horizon // 2 + 1)))
            self._cells = cells
            self._tables.extend(islice(self._sweep, m + 1 - have))
        return self._tables[m]


class _Reach(_WindowCache):
    """``reach(m, units)``: whether some length-m sequence, m <= ``horizon``,
    has unit sum ``units``. A cell outside the m-step box answers without a
    table; any other is read from the kept ``_reach_sweep`` tables, so a
    cell that reaches no target of a size up to the horizon reads False."""

    def __init__(self, constraint: ConstraintSpec, horizon: int):
        super().__init__(constraint, horizon, _reach_sweep(constraint, horizon),
                         "reachability tables")

    def __call__(self, m: int, units) -> bool:
        if not all(0 <= x <= m * u
                   for x, u in zip(units, self.constraint.unit_max)):
            return False
        return _reads(*self._kept(m), units)

    def exact(self, m: int, units, mass, where: str):
        """``mass``, a size-m mass at ``units`` (None: off the lattice) under
        a measure that charges every outcome, once known exact: a zero at a
        cell some length-m sequence reaches has underflowed, and raises."""
        if mass == 0 and units is not None and self(m, units):
            raise _underflow(where, m)
        return mass


def _underflow(where: str, m: int) -> LatticeBlowupError:
    """The refusal of a size-m mass of 0.0 at a cell that sequences reach."""
    return LatticeBlowupError(
        f"{where}: the mass at n={m} underflows the float range; reduce n")


def _sequences_on_target(space: SampleSpace, constraint: ConstraintSpec, n: int):
    """Yield the length-n sequences (index tuples) whose statistic average is
    on target, in lexicographic order.

    A depth-first walk over the outcome indices that extends one prefix list
    in place and enters a prefix only when ``_Reach`` at horizon n finds the
    unit sum still needed reachable in the steps left, so it never meets a
    dead end and the first sequence costs at most n * |X| probes. A walk
    whose windows do not fit the cell budget is refused before any sweep.
    """
    center = constraint.center_units(n)
    if center is None:
        return
    reach = _Reach(constraint, n)
    prefix: list[int] = []
    sums = [(0,) * constraint.dim]  # unit sum of each prefix of ``prefix``

    def extend(start: int) -> bool:
        """Append the first outcome >= start that leaves the prefix completable."""
        left = n - len(prefix) - 1
        for idx in range(start, space.size):
            candidate = tuple(map(add, sums[-1], constraint.units[idx]))
            if reach(left, tuple(map(sub, center, candidate))):
                prefix.append(idx)
                sums.append(candidate)
                return True
        return False

    start = 0
    while True:
        if len(prefix) == n:
            yield tuple(prefix)
        elif extend(start):
            start = 0
            continue
        if not prefix:
            return
        start = prefix.pop() + 1
        sums.pop()


def feasible_sizes(space: SampleSpace, constraint: ConstraintSpec,
                   n_max: int) -> list[int]:
    """The sizes n in 1..n_max, in increasing order, at which some length-n
    sequence has its statistic average exactly on target, from the full-box
    sweep: the reference for the windows of ``first_feasible_sizes``."""
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    _check_budget(_dense_shape(n_max, constraint.unit_max),
                  f"feasibility table to n={n_max}; {REDUCE_N}")
    return _on_target(constraint, _reach_sweep(constraint), n_max, n_max)


def first_feasible_sizes(space: SampleSpace, constraint: ConstraintSpec, count: int,
                         n_cap: int) -> list[int]:
    """First ``count`` feasible sizes in increasing order (stops at n_cap), from
    the sweep cut to its ``_window`` at n_cap, which keeps every target cell."""
    return _on_target(constraint, _reach_sweep(constraint, n_cap), count, n_cap)


def _on_target(constraint: ConstraintSpec, sweep, count: int, n_cap: int):
    """First ``count`` sizes in 1..n_cap whose target cell ``sweep`` reaches."""
    sizes = (n for n, table in enumerate(islice(sweep, 1, n_cap + 1), start=1)
             if (c := constraint.center_units(n)) is not None and _reads(*table, c))
    return list(islice(sizes, count))
