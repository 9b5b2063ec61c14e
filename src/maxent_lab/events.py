"""Sequence events with both a direct evaluator and a DP-friendly shape.

The event language is closed: sup-norm frequency deviation, a box on an
auxiliary additive statistic, and the bigram-deviation event. Each event can
be checked literally on an explicit sequence (``holds``), which is what the
enumeration oracle uses; the DP routes live in ``conditional``. Thresholds,
statistics and bounds are exact rationals (``as_fraction``); only the
reference masses of a frequency event may be floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError
from .lattice import SampleSpace, as_exact, as_fraction


@dataclass(frozen=True)
class FrequencyDeviationEvent:
    """Holds when some outcome frequency deviates from its reference mass by
    more than epsilon (sup-norm over outcomes)."""

    epsilon: Fraction
    reference: tuple[Fraction, ...]

    kind = "freq_deviation"

    @classmethod
    def make(cls, epsilon, reference) -> "FrequencyDeviationEvent":
        eps = as_fraction(epsilon)
        if eps <= 0:
            raise ValidationError("epsilon must be positive")
        # float masses (the projection's) are taken at their exact binary
        # value, so DP readouts and the enumeration oracle compare identically
        return cls(epsilon=eps, reference=tuple(as_exact(r) for r in reference))

    def holds(self, sequence, space: SampleSpace) -> bool:
        n = len(sequence)
        if n == 0:
            return False
        counts = [0] * space.size
        for idx in sequence:
            counts[idx] += 1
        return any(
            abs(Fraction(c, n) - r) > self.epsilon
            for c, r in zip(counts, self.reference)
        )


@dataclass(frozen=True)
class BoxEvent:
    """Per-coordinate interval condition on the average of an additive
    statistic; ``inside=False`` flips to the complement region."""

    statistic: tuple[tuple[Fraction, ...], ...]
    lower: tuple
    upper: tuple
    inside: bool = True

    kind = "box"

    @classmethod
    def make(cls, statistic, lower, upper, inside: bool = True) -> "BoxEvent":
        rows = []
        for row in statistic:
            if isinstance(row, (list, tuple)):
                rows.append(tuple(as_fraction(v) for v in row))
            else:
                rows.append((as_fraction(row),))
        dim = len(rows[0])
        lo = tuple(None if b is None else as_fraction(b) for b in lower)
        hi = tuple(None if b is None else as_fraction(b) for b in upper)
        if len(lo) != dim or len(hi) != dim:
            raise ValidationError("box bounds must match the statistic dimension")
        return cls(statistic=tuple(rows), lower=lo, upper=hi, inside=inside)

    def average_in_box(self, averages) -> bool:
        for avg, lo, hi in zip(averages, self.lower, self.upper):
            if lo is not None and avg < lo:
                return False
            if hi is not None and avg > hi:
                return False
        return True

    def holds(self, sequence, space: SampleSpace) -> bool:
        n = len(sequence)
        if n == 0:
            return False
        dim = len(self.statistic[0])
        sums = [Fraction(0)] * dim
        for idx in sequence:
            for j in range(dim):
                sums[j] += self.statistic[idx][j]
        in_box = self.average_in_box([s / n for s in sums])
        return in_box if self.inside else not in_box


@dataclass(frozen=True)
class BigramDeviationEvent:
    """Holds when the frequency of ``j`` differs by more than epsilon from the
    empirical frequency of ``j`` immediately after ``jprime``.

    With no occurrence of ``jprime`` among the first n-1 symbols the ratio is
    undefined and the event is defined not to hold.
    """

    j: object
    jprime: object
    epsilon: Fraction

    kind = "bigram_deviation"

    @classmethod
    def make(cls, j, jprime, epsilon) -> "BigramDeviationEvent":
        eps = as_fraction(epsilon)
        if eps <= 0:
            raise ValidationError("epsilon must be positive")
        return cls(j=j, jprime=jprime, epsilon=eps)

    def holds(self, sequence, space: SampleSpace) -> bool:
        n = len(sequence)
        if n == 0:
            return False
        ij = space.index(self.j)
        ijp = space.index(self.jprime)
        count_j = sum(1 for idx in sequence if idx == ij)
        denom = sum(1 for idx in sequence[: n - 1] if idx == ijp)
        if denom == 0:
            return False
        bigram = sum(
            1 for a, b in zip(sequence[: n - 1], sequence[1:])
            if a == ijp and b == ij
        )
        return abs(Fraction(count_j, n) - Fraction(bigram, denom)) > self.epsilon
