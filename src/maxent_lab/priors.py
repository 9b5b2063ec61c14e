"""Universal prior over positive integers for mixture weighting."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError


@dataclass(frozen=True)
class IntegerPrior:
    """Prior masses for j = 1..j_max as exact rationals summing to one."""

    masses: tuple[Fraction, ...]

    @property
    def j_max(self) -> int:
        return len(self.masses)

    def mass(self, j: int) -> Fraction:
        if not 1 <= j <= self.j_max:
            raise ValidationError(f"j={j} outside prior support 1..{self.j_max}")
        return self.masses[j - 1]


def rissanen_prior(j_max: int) -> IntegerPrior:
    """Prior proportional to 1 / (j * (log2(j + 1))^2), truncated at j_max.

    Satisfies -log2 pi(j) = log2 j + O(log log j). Raw float weights are taken
    at their exact binary values and normalized exactly, so the masses are
    honest rationals summing to one.
    """
    if j_max < 1:
        raise ValidationError("j_max must be >= 1")
    raw = [Fraction(1.0 / ((j + 1) * math.log2(j + 2) ** 2))
           for j in range(j_max)]
    total = sum(raw)
    return IntegerPrior(masses=tuple(w / total for w in raw))
