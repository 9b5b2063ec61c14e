"""Seeded simulations: recurrence of the centered constraint walk and the
no-hypercompression exceedance check.

Randomness comes from counter-based Philox streams spawned per replica, so
every reported number is bit-reproducible from the recorded seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationInfeasibleError, ValidationError
from .lattice import ConstraintSpec, SampleSpace
from .predictors import IIDPredictor, Predictor
from .solver import MaxEntSolution
from .sumdist import sum_distribution

LN2 = math.log(2.0)
# most symbols (samples * n) a hypercompression check codes one at a time
# with stateful predictors
STATEFUL_SYMBOL_BUDGET = 10 ** 7


def _streams(seed: int, count: int):
    root = np.random.Generator(np.random.Philox(seed))
    return root.spawn(count)


@dataclass
class RecurrenceResult:
    steps: int
    reps: int
    seed: int
    checkpoints: tuple[int, ...]
    mean_visits: tuple[float, ...]
    stderr: tuple[float, ...]


def recurrence_simulation(solution: MaxEntSolution, constraint: ConstraintSpec,
                          steps: int, reps: int, seed: int,
                          checkpoints=None) -> RecurrenceResult:
    """Count visits of the centered statistic walk to the origin.

    Draws i.i.d. symbols from the projection and counts the times n at which
    the running statistic average sits exactly on target, averaged over
    ``reps`` independently seeded replicas.
    """
    if steps < 1 or reps < 1:
        raise ValidationError("steps and reps must be >= 1")
    if checkpoints is None:
        checkpoints = tuple(10 ** e for e in range(1, 12) if 10 ** e < steps) \
            + (steps,)
    checkpoints = tuple(sorted(set(int(c) for c in checkpoints)))
    if any(c < 1 or c > steps for c in checkpoints):
        raise ValidationError("checkpoints must lie in 1..steps")
    # visit at n needs n * center_step integral; representable sizes must exist
    lat = 1
    for sigma in constraint.center_step:
        lat = lat * sigma.denominator // math.gcd(lat, sigma.denominator)
    if constraint.center_units(lat) is None:
        raise ValidationError("target is not lattice-representable at any n")

    k = constraint.dim
    units = np.array(constraint.units, dtype=np.int64)
    nums = np.array([s.numerator for s in constraint.center_step], dtype=np.int64)
    dens = np.array([s.denominator for s in constraint.center_step], dtype=np.int64)
    pmf = solution.pmf / solution.pmf.sum()
    idx_steps = np.arange(1, steps + 1, dtype=np.int64)

    visit_counts = np.zeros((reps, len(checkpoints)))
    for r, rng in enumerate(_streams(seed, reps)):
        draws = rng.choice(len(pmf), size=steps, p=pmf)
        sums = np.cumsum(units[draws], axis=0)
        on_center = np.ones(steps, dtype=bool)
        for j in range(k):
            on_center &= sums[:, j] * dens[j] == idx_steps * nums[j]
        cumulative = np.cumsum(on_center)
        visit_counts[r] = cumulative[np.array(checkpoints) - 1]
    mean = visit_counts.mean(axis=0)
    err = visit_counts.std(axis=0, ddof=1) / math.sqrt(reps) if reps > 1 \
        else np.zeros(len(checkpoints))
    return RecurrenceResult(steps=steps, reps=reps, seed=seed,
                            checkpoints=checkpoints,
                            mean_visits=tuple(float(v) for v in mean),
                            stderr=tuple(float(v) for v in err))


@dataclass
class HypercompressionResult:
    n: int
    k_bits: float
    samples: int
    seed: int
    base_tag: str
    challenger_tag: str
    frequency: float
    bound: float
    sigma: float

    @property
    def within_bound(self) -> bool:
        return self.frequency <= self.bound + 3.0 * self.sigma


def hypercompression_check(base: Predictor, challenger: Predictor,
                           solution: MaxEntSolution, n: int, k_bits: float,
                           samples: int, seed: int) -> HypercompressionResult:
    """Frequency with which the challenger saves at least ``k_bits`` over the
    base code on projection-sampled sequences of length n.

    For data sampled from the base's own distribution this frequency obeys the
    2^-K bound up to binomial sampling slack.
    """
    if k_bits <= 0 or samples < 1 or n < 1:
        raise ValidationError("need K > 0, samples >= 1, n >= 1")
    pmf = solution.pmf / solution.pmf.sum()
    rng = _streams(seed, 1)[0]
    if isinstance(base, IIDPredictor) and isinstance(challenger, IIDPredictor):
        counts = rng.multinomial(n, pmf, size=samples)
        len_base = _iid_codelengths(counts, base.pmf)
        len_chall = _iid_codelengths(counts, challenger.pmf)
        exceed = len_base >= len_chall + k_bits
        frequency = float(np.mean(exceed))
    else:
        if samples * n > STATEFUL_SYMBOL_BUDGET:
            raise EnumerationInfeasibleError(
                "stateful predictors over this many samples exceed the budget; "
                "use i.i.d. predictors or fewer samples"
            )
        hits = 0
        for _ in range(samples):
            seq = rng.choice(len(pmf), size=n, p=pmf)
            if base.sequence_codelength(seq) >= \
                    challenger.sequence_codelength(seq) + k_bits:
                hits += 1
        frequency = hits / samples
    bound = 2.0 ** (-k_bits)
    sigma = math.sqrt(bound * (1.0 - bound) / samples)
    return HypercompressionResult(n=n, k_bits=float(k_bits), samples=samples,
                                  seed=seed, base_tag=base.tag,
                                  challenger_tag=challenger.tag,
                                  frequency=frequency, bound=bound, sigma=sigma)


def _iid_codelengths(counts: np.ndarray, pmf) -> np.ndarray:
    """Total codelengths for count matrices under an i.i.d. code; symbols with
    mass zero make the whole sequence cost infinite when they occur."""
    masses = np.array([float(p) for p in pmf])
    finite = masses > 0.0
    bits = np.zeros(len(masses))
    bits[finite] = -np.log2(masses[finite])
    lengths = counts @ bits
    if not finite.all():
        lengths = np.where(counts[:, ~finite].sum(axis=1) > 0, math.inf,
                           lengths)
    return lengths


def hypercompression_exact_prob(space: SampleSpace, constraint: ConstraintSpec,
                                solution: MaxEntSolution, n: int,
                                k_bits: float) -> float:
    """Exact probability that coding with the prior saves >= k_bits over the
    projection code on projection-sampled data.

    The per-sequence saving is affine in the statistic sum, so it is a
    deterministic function of the lattice cell and sums exactly over the sum
    distribution. Cross-checks the sampled frequency for the prior challenger.
    """
    sd = sum_distribution(space, constraint, n, measure=solution)
    beta = solution.beta
    total = 0.0
    for units, mass in sd.items():
        t_sum = [
            (n * b + h * u) / s
            for u, b, h, s in zip(units, constraint.offsets, constraint.spans,
                                  constraint.scale)
        ]
        saving = (float(np.dot(beta, t_sum)) + n * solution.logz) / LN2
        if saving >= k_bits:
            total += mass
    return total
