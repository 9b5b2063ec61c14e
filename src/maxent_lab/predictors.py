"""Sequential predictors with codelength accounting in bits.

A predictor is a code over sequences: ``masses(sequence)`` yields the
conditional mass of each symbol of ``sequence`` in turn, starting from the
predictor's initial state, and the codelength is the sum of -log2 of those
masses. Only the symbol that occurs is scored. A predictor holds no scoring
state, so one instance scores any number of sequences. Masses may be exact
rationals (rational mode) or floats. A mass of zero is exact, because the
provider's masses are (a float that underflows raises
``LatticeBlowupError`` there), and yields an infinite codelength.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice
from operator import add, sub

from .errors import ValidationError
from .lattice import ConstraintSpec, SampleSpace
from .priors import IntegerPrior
from .solver import MaxEntSolution
from .sumdist import Arithmetic, SumTableProvider


def neg_log2(mass) -> float:
    """Codelength in bits of one assigned mass; infinite at mass zero."""
    if mass == 0:
        return math.inf
    if isinstance(mass, Fraction):
        return math.log2(mass.denominator) - math.log2(mass.numerator)
    return -math.log2(mass)


class Predictor:
    """Base class: subclasses implement ``masses``."""

    def __init__(self, space: SampleSpace, tag: str):
        self.space = space
        self.tag = tag

    def masses(self, sequence):
        """Yield the conditional mass of each symbol of ``sequence``."""
        raise NotImplementedError

    def sequence_codelength(self, sequence) -> float:
        bits = 0.0
        for mass in self.masses(sequence):
            bits += neg_log2(mass)
        return bits


class IIDPredictor(Predictor):
    """Memoryless predictor emitting one fixed mass function every step."""

    def __init__(self, space: SampleSpace, pmf, tag: str):
        super().__init__(space, tag)
        pmf = list(pmf)
        if len(pmf) != space.size:
            raise ValidationError("pmf length must match the outcome count")
        self.pmf = pmf

    def masses(self, sequence):
        for idx in sequence:
            yield self.pmf[idx]


def maxent_predictor(space: SampleSpace, solution: MaxEntSolution) -> IIDPredictor:
    """The i.i.d. projection predictor."""
    return IIDPredictor(space, [float(p) for p in solution.pmf], "maxent")


class ConditionedPriorPredictor(Predictor):
    """The provider measure conditioned on hitting the target at ``horizon``.

    Before the horizon, symbol x after a prefix of unit sum u gets
    w(x) W_{r-1}(c - u - u(x)) / W_r(c - u), where W_r is the provider's
    size-r table, r the steps left and c the target cell. The numerator's
    suffix mass is the next step's denominator, so each symbol costs one
    lookup. The provider's zeros are exact, so a prefix that gets mass zero
    cannot reach the target and the predictor goes dead: it emits the base
    measure from then on, as it does beyond the horizon. At an infeasible
    horizon ``total`` is 0: ``conditioned_prior_predictor`` refuses it and
    ``mixture_predictor`` skips it.
    """

    def __init__(self, provider: SumTableProvider, horizon: int):
        super().__init__(provider.space, f"conditioned[{horizon}]")
        self.provider = provider
        self.horizon = horizon
        self.center = provider.constraint.center_units(horizon)
        self.total = 0 if self.center is None \
            else provider.mass(horizon, self.center)

    def masses(self, sequence):
        base, units = self.provider.weights, self.provider.constraint.units
        needed, denom = self.center, self.total
        for t, idx in enumerate(sequence):
            if t >= self.horizon or denom == 0:
                yield base[idx]
                continue
            needed = tuple(map(sub, needed, units[idx]))
            rest = self.provider.mass(self.horizon - t - 1, needed)
            yield base[idx] * rest / denom
            denom = rest


def conditioned_prior_predictor(provider: SumTableProvider, horizon: int
                                ) -> ConditionedPriorPredictor:
    predictor = ConditionedPriorPredictor(provider, horizon)
    if predictor.total == 0:
        raise ValidationError(f"horizon n={horizon} is infeasible")
    return predictor


class MixturePredictor(Predictor):
    """Bayesian mixture of component predictors run in lockstep, with the
    weights scaled to sum to one. Each symbol's mass is the posterior
    average of the component masses; a component's posterior is its weight
    times its mass of the prefix, rescaled after each symbol by one power of
    two shared by all components. That keeps the posteriors from underflowing
    on long prefixes and moves no bit where they would stay normal floats.
    Once every posterior is zero, a symbol gets the uniform mass in ``mode``."""

    def __init__(self, space: SampleSpace, components, weights,
                 mode: Arithmetic):
        super().__init__(space, "mixture")
        if len(components) != len(weights) or not components:
            raise ValidationError("need matching nonempty components and weights")
        self.components = list(components)
        total = sum(weights)
        self.weights = [w / total for w in weights]
        self.uniform = mode.value(Fraction(1, space.size))

    def masses(self, sequence):
        posteriors = list(self.weights)
        streams = [c.masses(sequence) for c in self.components]
        for conds in zip(*streams):
            total = sum(posteriors)
            if total == 0:
                yield self.uniform
                continue
            acc = None
            for post, cond in zip(posteriors, conds):
                if post == 0:
                    continue
                term = post * cond
                acc = term if acc is None else acc + term
            yield acc / total
            # 2**1023 is the largest power of two that is a finite float
            scale = 2 ** min(max(0, -math.frexp(acc)[1]), 1023)
            posteriors = [post if post == 0 else post * cond * scale
                          for post, cond in zip(posteriors, conds)]


def mixture_predictor(provider: SumTableProvider,
                      prior: IntegerPrior) -> MixturePredictor:
    """Mixture of conditioned priors at the first feasible sizes.

    The components condition on the first ``prior.j_max`` sizes n up to the
    provider's horizon whose target mass is nonzero; the provider's zeros
    are exact, so these are the feasible sizes. Component j (1-based)
    carries prior mass pi(j), normalized over the components built.
    """
    probes = (ConditionedPriorPredictor(provider, n)
              for n in range(1, provider.horizon + 1))
    components = list(islice((c for c in probes if c.total != 0),
                             prior.j_max))
    if not components:
        raise ValidationError("no feasible sizes for the mixture")
    weights = [provider.mode.value(prior.mass(j))
               for j in range(1, len(components) + 1)]
    return MixturePredictor(provider.space, components, weights, provider.mode)


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

    def masses(self, sequence):
        block = self.block_factory()
        stream = block.masses(sequence)
        units = (0,) * self.constraint.dim
        for t, idx in enumerate(sequence, start=1):
            yield next(stream)
            units = tuple(map(add, units, self.constraint.units[idx]))
            if self.constraint.center_units(t) == units:
                stream = block.masses(sequence[t:])


def renewal_compose(space: SampleSpace, constraint: ConstraintSpec,
                    block_factory) -> RenewalComposedPredictor:
    return RenewalComposedPredictor(space, constraint, block_factory, "renewal")
