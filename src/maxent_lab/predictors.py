"""Sequential predictors with codelength accounting in bits.

A predictor is a stateful object: it emits a conditional mass function for the
next symbol, is advanced symbol by symbol, and accumulates -log2 of the
conditionals it assigned. Masses may be exact rationals (rational mode) or
floats; a mass of zero yields an infinite codelength and consumers must cope.
Instances are single-threaded; run independent copies for parallel work.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ValidationError
from .lattice import ConstraintSpec, SampleSpace
from .priors import IntegerPrior
from .solver import MaxEntSolution
from .sumdist import SumTableProvider


def neg_log2(mass) -> float:
    """Codelength in bits of one assigned mass; infinite at mass zero."""
    if mass == 0:
        return math.inf
    if isinstance(mass, Fraction):
        return math.log2(mass.denominator) - math.log2(mass.numerator)
    return -math.log2(mass)


class Predictor:
    """Base class: subclasses implement ``conditionals``, ``_step`` and
    ``fresh``."""

    def __init__(self, space: SampleSpace, tag: str):
        self.space = space
        self.tag = tag
        self.codelength_bits = 0.0
        self.steps = 0

    def conditionals(self) -> list:
        raise NotImplementedError

    def _step(self, idx: int) -> None:
        raise NotImplementedError

    def fresh(self) -> "Predictor":
        raise NotImplementedError

    def push(self, idx: int) -> None:
        """Advance state without touching the codelength."""
        self._step(idx)
        self.steps += 1

    def advance(self, idx: int):
        mass = self.conditionals()[idx]
        self.codelength_bits += neg_log2(mass)
        self.push(idx)
        return mass

    def feed(self, sequence) -> float:
        for idx in sequence:
            self.advance(idx)
        return self.codelength_bits

    def sequence_codelength(self, sequence) -> float:
        return self.fresh().feed(sequence)

    def sequence_mass(self, sequence):
        """Product of conditionals along ``sequence`` from a fresh state;
        exact when the predictor emits rationals."""
        p = self.fresh()
        mass = None
        for idx in sequence:
            c = p.conditionals()[idx]
            mass = c if mass is None else mass * c
            p.push(idx)
        return 1 if mass is None else mass


class IIDPredictor(Predictor):
    """Memoryless predictor emitting one fixed mass function every step."""

    def __init__(self, space: SampleSpace, pmf, tag: str):
        super().__init__(space, tag)
        pmf = list(pmf)
        if len(pmf) != space.size:
            raise ValidationError("pmf length must match the outcome count")
        self.pmf = pmf

    def conditionals(self) -> list:
        return self.pmf

    def _step(self, idx: int) -> None:
        pass

    def fresh(self) -> "IIDPredictor":
        return IIDPredictor(self.space, self.pmf, self.tag)


def maxent_predictor(space: SampleSpace, solution: MaxEntSolution) -> IIDPredictor:
    """The i.i.d. projection predictor."""
    return IIDPredictor(space, [float(p) for p in solution.pmf], "maxent")


class ConditionedPriorPredictor(Predictor):
    """The provider measure conditioned on hitting the target at ``horizon``.

    Conditionals before the horizon weight each symbol by the suffix mass that
    still reaches the target cell; prefixes that cannot reach it get mass zero
    and the predictor goes dead (it keeps emitting the base measure so its
    conditionals stay proper). Beyond the horizon it continues i.i.d.
    """

    def __init__(self, provider: SumTableProvider, horizon: int):
        super().__init__(provider.space, f"conditioned[{horizon}]")
        self.constraint = provider.constraint
        self.provider = provider
        self.horizon = horizon
        self.center = self.constraint.center_units(horizon)
        if self.center is None or \
                provider.table(horizon).mass_units(self.center) == 0:
            raise ValidationError(f"horizon n={horizon} is infeasible")
        self.units = (0,) * self.constraint.dim
        self.dead = False

    def conditionals(self) -> list:
        base = self.provider.weights
        if self.dead or self.steps >= self.horizon:
            return list(base)
        remaining = self.horizon - self.steps
        needed = tuple(c - u for c, u in zip(self.center, self.units))
        denom = self.provider.mass(remaining, needed)
        if denom == 0:
            self.dead = True
            return list(base)
        suffix = self.provider.table(remaining - 1)
        out = []
        for w, u in zip(base, self.constraint.units):
            rest = tuple(a - b for a, b in zip(needed, u))
            out.append(w * suffix.mass_units(rest) / denom)
        return out

    def _step(self, idx: int) -> None:
        if self.steps < self.horizon:
            self.units = tuple(a + b for a, b in
                               zip(self.units, self.constraint.units[idx]))

    def fresh(self) -> "ConditionedPriorPredictor":
        return ConditionedPriorPredictor(self.provider, self.horizon)


def conditioned_prior_predictor(provider: SumTableProvider, horizon: int
                                ) -> ConditionedPriorPredictor:
    return ConditionedPriorPredictor(provider, horizon)


class MixturePredictor(Predictor):
    """Bayesian mixture of component predictors advanced in lockstep, with
    the weights scaled to sum to one. A step reuses the component
    conditionals that ``conditionals`` computed at the same state."""

    def __init__(self, space: SampleSpace, components, weights, tag: str):
        super().__init__(space, tag)
        if len(components) != len(weights) or not components:
            raise ValidationError("need matching nonempty components and weights")
        self._ctor = (list(components), list(weights))
        self.components = [c.fresh() for c in components]
        total = sum(weights)
        self.posteriors = [w / total for w in weights]
        # (steps, component conditionals) of the last ``conditionals`` call
        self._conds = (None, None)

    def conditionals(self) -> list:
        total = sum(self.posteriors)
        if total == 0:
            flat = Fraction(1, self.space.size) \
                if any(isinstance(w, Fraction) for w in self._ctor[1]) \
                else 1.0 / self.space.size
            return [flat] * self.space.size
        conds = [c.conditionals() for c in self.components]
        self._conds = (self.steps, conds)
        out = []
        for idx in range(self.space.size):
            acc = None
            for post, cond in zip(self.posteriors, conds):
                if post == 0:
                    continue
                term = post * cond[idx]
                acc = term if acc is None else acc + term
            out.append(acc / total)
        return out

    def _step(self, idx: int) -> None:
        steps, conds = self._conds
        for i, comp in enumerate(self.components):
            if self.posteriors[i] != 0:
                cond = conds[i] if steps == self.steps else comp.conditionals()
                self.posteriors[i] = self.posteriors[i] * cond[idx]
            comp.push(idx)

    def fresh(self) -> "MixturePredictor":
        return MixturePredictor(self.space, *self._ctor, self.tag)


def mixture_predictor(provider: SumTableProvider, prior: IntegerPrior,
                      sizes) -> MixturePredictor:
    """Mixture of conditioned priors at the given feasible sizes.

    ``sizes`` are the first feasible sizes in increasing order, as
    ``first_feasible_sizes(space, constraint, prior.j_max)`` gives them, all
    within the provider's horizon. Component j (1-based) conditions on
    ``sizes[j - 1]`` and carries prior mass pi(j), normalized over the
    components built.
    """
    if not sizes:
        raise ValidationError("no feasible sizes for the mixture")
    components = [ConditionedPriorPredictor(provider, n_j) for n_j in sizes]
    weights = [prior.mass(j) for j in range(1, len(sizes) + 1)]
    if provider.mode == "float":
        weights = [float(w) for w in weights]
    return MixturePredictor(provider.space, components, weights, "mixture")


class RenewalComposedPredictor(Predictor):
    """Restarts a block predictor at every constraint-hitting time.

    The composed mass of a sequence is the product of the block predictor's
    masses over the segments between consecutive hitting times, which is again
    a proper process measure.
    """

    def __init__(self, space: SampleSpace, constraint: ConstraintSpec,
                 block_factory, tag: str):
        super().__init__(space, tag)
        self.constraint = constraint
        self.block_factory = block_factory
        self.block = block_factory()
        self.units = (0,) * constraint.dim

    def conditionals(self) -> list:
        return self.block.conditionals()

    def _step(self, idx: int) -> None:
        self.block.push(idx)
        self.units = tuple(a + b for a, b in
                           zip(self.units, self.constraint.units[idx]))
        if self.constraint.center_units(self.steps + 1) == self.units:
            self.block = self.block_factory()

    def fresh(self) -> "RenewalComposedPredictor":
        return RenewalComposedPredictor(self.space, self.constraint,
                                        self.block_factory, self.tag)


def renewal_compose(space: SampleSpace, constraint: ConstraintSpec,
                    block_factory) -> RenewalComposedPredictor:
    return RenewalComposedPredictor(space, constraint, block_factory, "renewal")
