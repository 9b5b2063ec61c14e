"""Conditioned-prior probabilities of events and marginals, by exact DP.

Every computation here conditions on the n-sample statistic average hitting
the target. Event probabilities come from joint dynamic programs whose state
carries exactly what the event needs (count layers, auxiliary statistic sums,
or bigram bookkeeping); conditional marginals read suffix sum tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import lattice
from .errors import EnumerationInfeasibleError, ValidationError
from .events import BigramDeviationEvent, BoxEvent, FrequencyDeviationEvent
from .lattice import (
    REDUCE_N,
    ConstraintSpec,
    LatticeGeometry,
    SampleSpace,
    _check_budget,
    _dense_shape,
    _Reach,
)
from .sumdist import FLOAT, Arithmetic, SumTableProvider, _sparse_step, resolve_measure

# longest prefix whose conditioned marginal is enumerated symbol by symbol
MARGINAL_M_CAP = 8


@dataclass
class EventProbabilityResult:
    """Unconditional, joint, and constraint probabilities of one event."""

    n: int
    measure_id: str
    prob_event: object
    prob_joint: object
    prob_constraint: object

    @property
    def conditional(self):
        """P(event | constraint), or None when the constraint has mass zero."""
        if self.prob_constraint == 0:
            return None
        return self.prob_joint / self.prob_constraint


def _freq_layer(constraint, n, steps, bounds, mode):
    """Count-layered DP with an out-of-band flag: the total and target-cell
    masses of the sequences with some count outside its ``bounds``, and the
    target-cell mass of those with none, as step sums of nonnegative terms
    (floats, or integer numerators over D**n when ``steps`` are integers).

    Plane 0 holds the prefixes with every count in band, plane 1 the others.
    A shift-add covers only the (count, T-unit) cells of its plane that can
    be nonzero, and the last outcome fills only row n, the one row read:
    every skipped term is an exact zero, so the results keep their bits."""
    shape = (n + 1,) + _dense_shape(n, constraint.unit_max)
    _check_budget((2,) + shape, f"frequency count DP at n={n}; {REDUCE_N}")
    table = np.zeros((2,) + shape, dtype=mode.dtype)
    table[(0, 0) + (0,) * constraint.dim] = 1
    extents = [[(0, 0)] * len(shape)] * 2  # nonzero (first, last) per axis
    for i, (u, w, (lo, hi)) in enumerate(zip(constraint.units, steps, bounds)):
        step = (1,) + u
        first_row = n if i == len(bounds) - 1 else 0
        coefs = [mode.coefficients(n, nu, w) for nu in range(n + 1)]
        new = np.zeros_like(table)
        counts = ((lo, hi), (0, n))  # the counts shifted into each plane
        for plane, (nu_lo, nu_hi) in enumerate(counts):
            if plane:  # an out-of-band count takes every prefix to plane 1
                table[0] += table[1]
            for nu in range(nu_lo, nu_hi + 1):
                # source cells whose shift stays inside the table
                src = [(a, min(b, s - 1 - nu * d))
                       for (a, b), s, d in zip(extents[plane], shape, step)]
                src[0] = (max(src[0][0], first_row - nu), src[0][1])
                if any(a > b for a, b in src):
                    continue
                new[plane][tuple(slice(a + nu * d, b + 1 + nu * d)
                                 for (a, b), d in zip(src, step))] += \
                    table[plane if lo <= nu <= hi else 0][
                        tuple(slice(a, b + 1) for a, b in src)] * \
                    coefs[nu][src[0][0]:src[0][1] + 1].reshape(
                        (-1,) + (1,) * constraint.dim)
        extents = [[(a + nu_lo * d, min(b + nu_hi * d, s - 1))
                    for (a, b), s, d in zip(extent, shape, step)]
                   for extent, (nu_lo, nu_hi) in zip(extents, counts)]
        table = new
    center = constraint.center_units(n)
    targets = (0, 0) if center is None else (table[1, n].item(center),
                                             table[0, n].item(center))
    return (table[1, n].sum(keepdims=True).item(), *targets)


def _freq_event(space, constraint, event, n, weights, mode):
    # the counts of each outcome whose frequency is inside the epsilon box
    bounds = [(max(0, math.ceil(n * (ref - event.epsilon))),
               min(n, math.floor(n * (ref + event.epsilon))))
              for ref in event.reference]
    out_total, out_target, in_target = _freq_layer(constraint, n, weights,
                                                   bounds, mode)
    return out_total, out_target, in_target + out_target


def _place_values(radices):
    """Place value of each digit of a mixed-radix int, the last digit lowest."""
    return [math.prod(radices[j + 1:]) for j in range(len(radices))]


def _pack(digits, places) -> int:
    return sum(d * p for d, p in zip(digits, places))


def _unpack(code, radices) -> list:
    return [code // p % r for r, p in zip(radices, _place_values(radices))]


def _packed_event(constraint, n, steps, low_radices, low_moves, holds_for):
    """(event, joint, constraint) masses, as step sums, by one dict DP over
    packed states: the T-units are the high digits, the event's digits
    (radices ``low_radices``) the low ones. ``low_moves[v]`` gives each
    outcome's event digits added to a state whose lowest digit v is cleared;
    ``holds_for`` decides the event once per distinct list of event digits."""
    radices = [n * m + 1 for m in constraint.unit_max] + low_radices
    places = _place_values(radices)
    moves = [[(_pack(u + low, places), w)
              for u, low, w in zip(constraint.units, lows, steps)]
             for lows in low_moves]
    table = {0: 1}
    for _ in range(n):
        table = _sparse_step(table, moves)
    split = math.prod(low_radices)
    center = constraint.center_units(n)
    target = None if center is None else _pack(center, places)
    prob_event = prob_joint = prob_constraint = 0
    decided: dict = {}
    for code, mass in table.items():
        low = code % split
        holds = decided.get(low)
        if holds is None:
            holds = decided[low] = holds_for(_unpack(low, low_radices))
        at_center = code - low == target
        if holds:
            prob_event += mass
            if at_center:
                prob_joint += mass
        if at_center:
            prob_constraint += mass
    return prob_event, prob_joint, prob_constraint


def _box_event(space, constraint, event: BoxEvent, n, weights, mode):
    geometry = LatticeGeometry.from_values(event.statistic, allow_constant=True)

    def holds_for(units):
        averages = [Fraction(n * b + h * uj, s * n) for uj, b, h, s in
                    zip(units, geometry.offsets, geometry.spans, geometry.scale)]
        in_box = event.average_in_box(averages)
        return in_box if event.inside else not in_box

    # event digits: the S-units
    return _packed_event(constraint, n, weights,
                         [n * m + 1 for m in geometry.unit_max],
                         [geometry.units], holds_for)


def _bigram_event(space, constraint, event: BigramDeviationEvent, n, weights, mode):
    ij = space.index(event.j)
    ijp = space.index(event.jprime)
    # event digits: count_j, count_jprime, bigram count and, lowest,
    # last-symbol-is-jprime, which picks the move list
    low_moves = [[(idx == ij, idx == ijp, last and idx == ij, idx == ijp)
                  for idx in range(space.size)] for last in (0, 1)]

    def holds_for(digits):
        cj, cjp, cbig, last = digits
        denom = cjp - last
        return denom > 0 and abs(
            Fraction(cj, n) - Fraction(cbig, denom)) > event.epsilon

    return _packed_event(constraint, n, weights, [n + 1] * 3 + [2], low_moves,
                         holds_for)


def conditional_event_prob(space: SampleSpace, constraint: ConstraintSpec,
                           event, n: int, measure="q", mode: Arithmetic = FLOAT
                           ) -> EventProbabilityResult:
    """Probability of an event, jointly with and conditioned on the constraint.

    Infeasible n gives a zero-mass constraint and ``conditional`` None rather
    than an error, so sweeps over n run uninterrupted. That zero is exact:
    a constraint mass that underflowed raises (``lattice._Reach.exact``).
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    measure_id, weights = resolve_measure(space, measure, mode)
    steps, unit = mode.steps(weights)
    if isinstance(event, FrequencyDeviationEvent):
        if len(event.reference) != space.size:
            raise ValidationError("reference masses must match the outcome count")
        out = _freq_event(space, constraint, event, n, steps, mode)
    elif isinstance(event, BoxEvent):
        if len(event.statistic) != space.size:
            raise ValidationError("auxiliary statistic must cover every outcome")
        out = _box_event(space, constraint, event, n, steps, mode)
    elif isinstance(event, BigramDeviationEvent):
        out = _bigram_event(space, constraint, event, n, steps, mode)
    else:
        raise ValidationError(f"unknown event type {type(event).__name__}")
    scale = unit ** n  # every event DP returns step sums
    *probs, prob_constraint = (mass * scale for mass in out)
    return EventProbabilityResult(n, measure_id, *probs, _Reach(constraint, n).exact(
        n, constraint.center_units(n), prob_constraint, f"event DP under {measure_id}"))


@dataclass
class ConditionalMarginal:
    """Conditioned-prior distribution of the first m symbols given the
    constraint holds at n."""

    m: int
    n: int
    measure_id: str
    mode: Arithmetic
    masses: dict

    def tv_to_product(self, pmf) -> float:
        """Total-variation distance to the i.i.d. product of ``pmf``, summed
        in the marginal's arithmetic and rounded once."""
        w = [self.mode.value(p) for p in pmf]
        tv = 0  # a loop: from Python 3.12 sum() compensates float additions
        for prefix, mass in self.masses.items():
            tv += abs(mass - math.prod(w[i] for i in prefix))
        return float(tv / 2)


def conditional_marginal(provider: SumTableProvider, m: int, n: int
                         ) -> ConditionalMarginal:
    """Exact marginal of the first m symbols under the conditioned prior.

    Each prefix mass is weight(prefix) * W_{n-m}(needed suffix) / W_n(target),
    where W are the provider's masses; a mass that underflows raises
    ``LatticeBlowupError`` from the provider.
    """
    space, constraint = provider.space, provider.constraint
    if not 1 <= m <= min(n - 1, MARGINAL_M_CAP):
        raise EnumerationInfeasibleError(
            f"enumeration infeasible: need 1 <= m <= min(n-1, {MARGINAL_M_CAP}), "
            f"got m={m}, n={n}"
        )
    if space.size ** m > lattice.CELL_BUDGET:
        raise EnumerationInfeasibleError(
            f"enumeration infeasible: {space.size}^{m} prefixes exceed the budget"
        )
    center = constraint.center_units(n)
    denom = 0 if center is None else provider.mass(n, center)
    if denom == 0:
        raise ValidationError(f"n={n} is infeasible for this constraint")
    weights = provider.weights
    masses: dict = {}

    def descend(prefix, units, weight, depth):
        if depth == m:
            needed = tuple(c - uj for c, uj in zip(center, units))
            masses[prefix] = weight * provider.mass(n - m, needed) / denom
            return
        for idx in range(space.size):
            descend(prefix + (idx,),
                    tuple(a + b for a, b in zip(units, constraint.units[idx])),
                    weight * weights[idx], depth + 1)

    descend((), (0,) * constraint.dim, 1, 0)
    return ConditionalMarginal(m=m, n=n, measure_id=provider.measure_id,
                               mode=provider.mode, masses=masses)
