"""Finite sample spaces, exact rational priors, and integer-lattice statistics.

All constraint arithmetic here is exact: inputs are rationals, each statistic
coordinate is rescaled to integers, and spans/offsets/feasibility are derived
with gcd arithmetic. Floats only appear as cached views for the numeric layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from math import gcd, lcm, prod

import numpy as np

from .errors import (
    DegenerateCoordinateError,
    InternalCheckError,
    LatticeBlowupError,
    TargetOutsideHullError,
    ValidationError,
)

# the most cells any lattice table, or set of tables kept together, may hold
CELL_BUDGET = 50_000_000


def as_fraction(value) -> Fraction:
    """Parse an exact rational: Fraction, int, or a string like '1/6' or '0.25'.

    Floats are rejected; lattice derivation is not float-safe.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"cannot parse {value!r} as a rational") from exc
    raise ValidationError(
        f"expected an exact rational (Fraction, int, or string), got {type(value).__name__}"
    )


@dataclass(frozen=True)
class SampleSpace:
    """Finite outcome set with a strictly positive rational prior."""

    outcomes: tuple
    prior_fractions: tuple[Fraction, ...]
    dropped: tuple = ()

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
        except KeyError:
            raise ValidationError(f"unknown outcome {label!r}") from None


def build_space(labels, prior_weights) -> SampleSpace:
    """Build a sample space from labels and non-negative rational weights.

    Weights are normalized to sum exactly to one; zero-weight outcomes are
    dropped and recorded in ``dropped``.
    """
    labels = list(labels)
    if not labels:
        raise ValidationError("empty outcome list")
    if len(set(labels)) != len(labels):
        raise ValidationError("outcome labels must be distinct")
    weights = [as_fraction(w) for w in prior_weights]
    if len(weights) != len(labels):
        raise ValidationError("labels and weights must have equal length")
    if any(w < 0 for w in weights):
        raise ValidationError("prior weights must be non-negative")
    total = sum(weights)
    if total == 0:
        raise ValidationError("all prior weights are zero")
    kept, dropped = [], []
    for label, w in zip(labels, weights):
        (kept if w > 0 else dropped).append((label, w))
    return SampleSpace(
        outcomes=tuple(label for label, _ in kept),
        prior_fractions=tuple(w / total for _, w in kept),
        dropped=tuple(dropped),
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
class ConstraintSpec:
    """A rational statistic T, a target for its mean, and the derived lattice.

    ``position`` is the target's exact ``hull_position``, 'interior' or
    'boundary'."""

    dim: int
    values: tuple[tuple[Fraction, ...], ...]
    target: tuple[Fraction, ...]
    geometry: LatticeGeometry
    position: str

    @cached_property
    def values_float(self) -> np.ndarray:
        return np.array([[float(v) for v in row] for row in self.values])

    @cached_property
    def target_float(self) -> np.ndarray:
        return np.array([float(t) for t in self.target])

    @property
    def scale(self) -> tuple[int, ...]:
        return self.geometry.scale

    @property
    def offsets(self) -> tuple[int, ...]:
        return self.geometry.offsets

    @property
    def spans(self) -> tuple[int, ...]:
        return self.geometry.spans

    @property
    def units(self) -> tuple[tuple[int, ...], ...]:
        return self.geometry.units

    @property
    def unit_max(self) -> tuple[int, ...]:
        return self.geometry.unit_max

    @cached_property
    def spans_original(self) -> tuple[Fraction, ...]:
        """Spans of T in its original units (scaled span / scale)."""
        return tuple(Fraction(h, s) for h, s in zip(self.spans, self.scale))

    @cached_property
    def center_step(self) -> tuple[Fraction, ...]:
        """Per-step unit drift of the target: center_units(n) = n * center_step."""
        return tuple(
            Fraction(t * s - b, h)
            for t, s, b, h in zip(self.target, self.scale, self.offsets, self.spans)
        )

    def center_units(self, n: int) -> tuple[int, ...] | None:
        """Unit coordinates of the cell where the n-sample average hits the
        target, or None when that cell is off the lattice."""
        out = []
        for sigma, m in zip(self.center_step, self.unit_max):
            c = n * sigma
            if c.denominator != 1 or c < 0 or c > n * m:
                return None
            out.append(int(c))
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
    geometry = LatticeGeometry.from_values(rows)
    position = hull_position(rows, target)
    if position == "outside":
        raise TargetOutsideHullError(
            f"target {tuple(str(t) for t in target)} outside the convex hull of statistic values"
        )
    return ConstraintSpec(dim=len(target), values=tuple(rows), target=target,
                          geometry=geometry, position=position)


@dataclass(frozen=True)
class FeasibilityTable:
    """Which sample sizes admit at least one constraint-satisfying sequence."""

    n_max: int
    flags: tuple[bool, ...]

    def is_feasible(self, n: int) -> bool:
        if not 1 <= n <= self.n_max:
            raise ValidationError(f"n={n} outside table range 1..{self.n_max}")
        return self.flags[n]

    def sizes(self) -> list[int]:
        return [n for n in range(1, self.n_max + 1) if self.flags[n]]


def _dense_shape(n: int, unit_max: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(n * m + 1 for m in unit_max)


def _check_budget(shape: tuple[int, ...], what: str) -> None:
    """Raise ``LatticeBlowupError`` when a table of ``shape`` would hold more
    than ``CELL_BUDGET`` cells."""
    cells = prod(shape)
    if cells > CELL_BUDGET:
        raise LatticeBlowupError(
            f"lattice blow-up: {what} needs {cells} cells (budget {CELL_BUDGET}); "
            "reduce n or coarsen the statistic"
        )


def _tables_cells(constraint: ConstraintSpec, n: int) -> int:
    """Cells of the dense lattice tables for sizes 0..n together."""
    return sum(prod(_dense_shape(m, constraint.unit_max)) for m in range(n + 1))


def _shift_combine(new: np.ndarray, table: np.ndarray, cells, combine,
                   term) -> np.ndarray:
    """One step of a lattice sweep: for each ``(u, w)`` in ``cells``, in order,
    combine ``term(w, table)`` into the region of ``new`` shifted by unit cell
    u. ``new`` starts at the combine's identity and is returned."""
    for u, w in cells:
        region = tuple(slice(uj, uj + s) for uj, s in zip(u, table.shape))
        combine(new[region], term(w, table), out=new[region])
    return new


def _reach_step(reach: np.ndarray, shape_new: tuple[int, ...], unit_cells) -> np.ndarray:
    return _shift_combine(np.zeros(shape_new, dtype=bool), reach,
                          [(u, None) for u in unit_cells], np.logical_or,
                          lambda w, table: table)


def _reach_sweep(constraint: ConstraintSpec):
    """Yield the boolean reachability tables for n = 0, 1, 2, ...: cell u of
    table n is True when some length-n sequence has unit sum u. Each table is
    checked against the cell budget before it is built."""
    unit_cells = sorted(set(constraint.units))
    reach = np.ones((1,) * constraint.dim, dtype=bool)
    n = 0
    while True:
        yield reach
        n += 1
        shape = _dense_shape(n, constraint.unit_max)
        _check_budget(shape, f"feasibility sweep at n={n}")
        reach = _reach_step(reach, shape, unit_cells)


def _on_target(constraint: ConstraintSpec, n: int, reach: np.ndarray) -> bool:
    """Whether size n >= 1 is feasible, given its reachability table."""
    center = constraint.center_units(n) if n > 0 else None
    return center is not None and bool(reach[center])


def _sequences_on_target(space: SampleSpace, constraint: ConstraintSpec, n: int):
    """Yield the length-n sequences (index tuples) whose statistic average is
    on target, in lexicographic order.

    A depth-first walk over the outcome indices that extends one prefix list
    in place and enters a prefix only when the unit sum still needed is
    reachable in the steps left, so it never meets a dead end and the first
    sequence costs at most n * |X| probes. The reachability tables for sizes
    0..n together must fit the cell budget; that is checked before any is
    built.
    """
    center = constraint.center_units(n)
    if center is None:
        return
    _check_budget((_tables_cells(constraint, n),), f"reachability tables to n={n}")
    reach = list(islice(_reach_sweep(constraint), n))
    prefix: list[int] = []
    sums = [(0,) * constraint.dim]  # unit sum of each prefix of ``prefix``

    def extend(start: int) -> bool:
        """Append the first outcome >= start that leaves the prefix completable."""
        table = reach[n - len(prefix) - 1]
        for idx in range(start, space.size):
            candidate = tuple(a + b for a, b in zip(sums[-1], constraint.units[idx]))
            needed = tuple(c - u for c, u in zip(center, candidate))
            if all(0 <= x < s for x, s in zip(needed, table.shape)) and table[needed]:
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
                   n_max: int) -> FeasibilityTable:
    """Tabulate, for n = 1..n_max, whether some length-n sequence has its
    statistic average exactly on target.

    Reachability runs as a boolean sweep over unit sums; a size is feasible
    when the target cell is on the lattice and reachable.
    """
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    _check_budget(_dense_shape(n_max, constraint.unit_max),
                  f"feasibility table to n={n_max}")
    sweep = islice(_reach_sweep(constraint), n_max + 1)
    return FeasibilityTable(n_max=n_max, flags=tuple(
        _on_target(constraint, n, reach) for n, reach in enumerate(sweep)))


def first_feasible_sizes(space: SampleSpace, constraint: ConstraintSpec, count: int,
                         n_cap: int = 100_000) -> list[int]:
    """First ``count`` feasible sizes in increasing order (stops at n_cap)."""
    sweep = islice(_reach_sweep(constraint), n_cap + 1)
    feasible = (n for n, reach in enumerate(sweep) if _on_target(constraint, n, reach))
    return list(islice(feasible, count))


def exact_mean(space: SampleSpace, values) -> tuple[Fraction, ...]:
    """Exact prior mean of a rational statistic, handy for building targets."""
    rows = [tuple(as_fraction(v) for v in (row if isinstance(row, (list, tuple)) else (row,)))
            for row in values]
    dim = len(rows[0])
    return tuple(
        sum(w * row[j] for w, row in zip(space.prior_fractions, rows))
        for j in range(dim)
    )
