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

from .errors import EnumerationInfeasibleError, LatticeBlowupError, ValidationError
from .events import BigramDeviationEvent, BoxEvent, FrequencyDeviationEvent
from .lattice import (
    DEFAULT_CELL_BUDGET,
    ConstraintSpec,
    LatticeGeometry,
    SampleSpace,
    _check_budget,
    _dense_shape,
)
from .sumdist import (TABLE_DTYPE, SumTableProvider, _sparse_step, resolve_measure,
                      step_weights)


@dataclass
class EventProbabilityResult:
    """Unconditional, joint, and constraint probabilities of one event."""

    n: int
    event_kind: str
    measure_id: str
    mode: str
    prob_event: object
    prob_joint: object
    prob_constraint: object

    @property
    def conditional(self):
        """P(event | constraint), or None when the constraint has mass zero."""
        if self.prob_constraint == 0:
            return None
        return self.prob_joint / self.prob_constraint


def _count_bounds(n: int, reference, epsilon):
    """Allowed per-outcome counts for frequencies inside the epsilon box."""
    bounds = []
    for ref in reference:
        lo = max(0, math.ceil(n * (ref - epsilon)))
        hi = min(n, math.floor(n * (ref + epsilon)))
        bounds.append((lo, hi))
    return bounds


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
    try:
        start = float(math.comb(n, nu)) * math.exp(nu * math.log(w))
    except OverflowError:
        start = math.exp(log_start)
    m = np.arange(n, nu, -1, dtype=float)
    return start * np.concatenate(([1.0], np.cumprod((m - nu) / m)))


def _exact_weight_vector(n: int, nu: int, w: int) -> np.ndarray:
    """Integer form of ``_binomial_weight_vector``: C(n - used, nu) * w^nu for
    used = 0..n-nu, as Python ints."""
    w_nu = w ** nu
    return np.array([math.comb(n - used, nu) * w_nu
                     for used in range(n - nu + 1)], dtype=object)


def _freq_layer(constraint, n, weights, bounds, mode, cell_budget):
    """Count-layered DP: returns (total mass, mass on the target cell) of
    sequences whose per-outcome counts respect ``bounds``, as floats or as
    integer numerators over D**n when ``weights`` are the integer steps."""
    shape_t = _dense_shape(n, constraint.unit_max)
    shape = (n + 1,) + shape_t
    _check_budget(shape, cell_budget, f"frequency count DP at n={n}")
    coefficients = _exact_weight_vector if mode == "rational" \
        else _binomial_weight_vector
    table = np.zeros(shape, dtype=TABLE_DTYPE[mode])
    table[(0,) + (0,) * constraint.dim] = 1
    for u, w, (lo, hi) in zip(constraint.units, weights, bounds):
        if lo > hi:
            return 0, 0
        new = np.zeros_like(table)
        for nu in range(lo, hi + 1):
            coef = coefficients(n, nu, w)
            # cells whose shift would leave the table carry zero mass anyway
            dst = tuple(slice(nu * uj, s) for uj, s in zip(u, shape_t))
            src = tuple(slice(0, s - nu * uj) for uj, s in zip(u, shape_t))
            new[(slice(nu, None),) + dst] += \
                table[(slice(0, n + 1 - nu),) + src] * coef.reshape(
                    (-1,) + (1,) * constraint.dim)
        table = new
    final = table[n]
    center = constraint.center_units(n)
    on_target = final.item(center) if center is not None else 0
    return final.sum(keepdims=True).item(), on_target


def _freq_event(space, constraint, event, n, weights, mode, cell_budget):
    bounds = _count_bounds(n, event.reference, event.epsilon)
    free = [(0, n)] * space.size
    steps, unit = step_weights(weights, mode)
    box_total, box_center = _freq_layer(constraint, n, steps, bounds, mode,
                                        cell_budget)
    all_total, all_center = _freq_layer(constraint, n, steps, free, mode,
                                        cell_budget)
    scale = unit ** n
    # float round-off can dip below 0; exact differences never do, and max
    # returns its first argument on a tie, so they stay Fractions
    prob_event = max((all_total - box_total) * scale, 0.0)
    prob_joint = max((all_center - box_center) * scale, 0.0)
    return prob_event, prob_joint, all_center * scale


def _box_event(space, constraint, event: BoxEvent, n, weights, mode, cell_budget):
    geometry = LatticeGeometry.from_values(event.statistic, allow_constant=True)
    steps, unit = step_weights(weights, mode)
    cells = []
    for ut, us, w in zip(constraint.units, geometry.units, steps):
        cells.append((ut + us, w))
    table = {(0,) * (constraint.dim + geometry.dim): 1}
    for _ in range(n):
        table = _sparse_step(table, cells, cell_budget)
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
    scale = unit ** n
    return prob_event * scale, prob_joint * scale, prob_constraint * scale


def _bigram_event(space, constraint, event: BigramDeviationEvent, n, weights,
                  mode, cell_budget):
    ij = space.index(event.j)
    ijp = space.index(event.jprime)
    steps, unit = step_weights(weights, mode)
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
        if len(new) > cell_budget:
            raise LatticeBlowupError(
                f"lattice blow-up: bigram DP reached {len(new)} states"
            )
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
    scale = unit ** n
    return prob_event * scale, prob_joint * scale, prob_constraint * scale


def conditional_event_prob(space: SampleSpace, constraint: ConstraintSpec,
                           event, n: int, measure="q", mode: str = "float",
                           cell_budget: int = DEFAULT_CELL_BUDGET
                           ) -> EventProbabilityResult:
    """Probability of an event, jointly with and conditioned on the constraint.

    Infeasible n gives a zero-mass constraint and ``conditional`` None rather
    than an error, so sweeps over n run uninterrupted.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    measure_id, weights = resolve_measure(space, measure, mode)
    if isinstance(event, FrequencyDeviationEvent):
        if len(event.reference) != space.size:
            raise ValidationError("reference masses must match the outcome count")
        out = _freq_event(space, constraint, event, n, weights, mode,
                          cell_budget)
    elif isinstance(event, BoxEvent):
        if len(event.statistic) != space.size:
            raise ValidationError("auxiliary statistic must cover every outcome")
        out = _box_event(space, constraint, event, n, weights, mode, cell_budget)
    elif isinstance(event, BigramDeviationEvent):
        out = _bigram_event(space, constraint, event, n, weights, mode, cell_budget)
    else:
        raise ValidationError(f"unknown event type {type(event).__name__}")
    prob_event, prob_joint, prob_constraint = out
    return EventProbabilityResult(
        n=n, event_kind=event.kind, measure_id=measure_id, mode=mode,
        prob_event=prob_event, prob_joint=prob_joint,
        prob_constraint=prob_constraint,
    )


@dataclass
class ConditionalMarginal:
    """Conditioned-prior distribution of the first m symbols given the
    constraint holds at n."""

    m: int
    n: int
    measure_id: str
    mode: str
    masses: dict

    def total(self):
        return sum(self.masses.values())

    def marginalize_last(self) -> "ConditionalMarginal":
        out: dict = {}
        for prefix, mass in self.masses.items():
            key = prefix[:-1]
            prev = out.get(key)
            out[key] = mass if prev is None else prev + mass
        return ConditionalMarginal(m=self.m - 1, n=self.n,
                                   measure_id=self.measure_id, mode=self.mode,
                                   masses=out)

    def tv_to_product(self, pmf) -> float:
        """Total-variation distance to the i.i.d. product of ``pmf``."""
        tv = 0.0
        for prefix, mass in self.masses.items():
            prod = 1.0
            for idx in prefix:
                prod *= float(pmf[idx])
            tv += abs(float(mass) - prod)
        return 0.5 * tv


def conditional_marginal(space: SampleSpace, constraint: ConstraintSpec,
                         m: int, n: int, measure="q", mode: str = "float",
                         m_cap: int = 8, provider: SumTableProvider | None = None,
                         cell_budget: int = DEFAULT_CELL_BUDGET
                         ) -> ConditionalMarginal:
    """Exact marginal of the first m symbols under the conditioned prior.

    Each prefix mass is weight(prefix) * W_{n-m}(needed suffix) / W_n(target),
    where W are sum-distribution tables under the same measure.
    """
    if not 1 <= m <= min(n - 1, m_cap):
        raise EnumerationInfeasibleError(
            f"enumeration infeasible: need 1 <= m <= min(n-1, {m_cap}), got m={m}, n={n}"
        )
    if space.size ** m > cell_budget:
        raise EnumerationInfeasibleError(
            f"enumeration infeasible: {space.size}^{m} prefixes exceed the budget"
        )
    if provider is None:
        provider = SumTableProvider(space, constraint, measure=measure, mode=mode,
                                    cell_budget=cell_budget)
    else:
        if provider.mode != mode:
            raise ValidationError("provider mode mismatch")
    center = constraint.center_units(n)
    denom = provider.table(n).mass_units(center) if center is not None else 0
    if denom == 0:
        raise ValidationError(f"n={n} is infeasible for this constraint")
    _, weights = resolve_measure(space, measure, mode)
    suffix = provider.table(n - m)
    masses: dict = {}

    def descend(prefix, units, weight, depth):
        if depth == m:
            needed = tuple(c - uj for c, uj in zip(center, units))
            masses[prefix] = weight * suffix.mass_units(needed) / denom
            return
        for idx in range(space.size):
            descend(prefix + (idx,),
                    tuple(a + b for a, b in zip(units, constraint.units[idx])),
                    weight * weights[idx], depth + 1)

    descend((), (0,) * constraint.dim, 1, 0)
    return ConditionalMarginal(m=m, n=n, measure_id=provider.measure_id,
                               mode=mode, masses=masses)
