"""Seeded simulations: recurrence of the centered constraint walk and the
no-hypercompression exceedance check.

Randomness comes from counter-based Philox streams spawned per replica, so
every reported number is bit-reproducible from the recorded seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .lattice import ConstraintSpec, SampleSpace, _check_budget
from .solver import MaxEntSolution
from .sumdist import sum_distribution

LN2 = math.log(2.0)


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


# a packed word's radices multiply to less than this, so its running sums,
# at most half the product in magnitude, fit an int64
_WORD_BOUND = 2 ** 62


def _draws(rng: np.random.Generator, pmf: np.ndarray, steps: int) -> np.ndarray:
    """``rng.choice(len(pmf), size=steps, p=pmf)``, bit for bit and from the
    same uniforms, for the normalised ``pmf``.

    ``choice`` inverts the CDF ``pmf.cumsum() / its last entry`` with
    ``searchsorted(side='right')``: an index is the count of cumulative
    masses at or below its uniform, zero masses included. Here that count
    is taken by one comparison per outcome, sequential inversion (Devroye,
    Non-Uniform Random Variate Generation, 1986, Ch. III.2), into the
    smallest unsigned dtype. That is no slower than ``searchsorted`` up to
    about 64 outcomes and grows linearly past them; the fixtures and
    benchmark problems have at most 8. The uniforms die on return.
    """
    cdf = pmf.cumsum()
    cdf /= cdf[-1]
    uniforms = rng.random(steps)
    indices = np.zeros(steps, dtype=np.min_scalar_type(len(pmf) - 1))
    for mass in cdf[:-1]:  # the last is 1.0, above every uniform
        indices += uniforms >= mass
    return indices


def _packed_steps(centred: list[np.ndarray], steps: int) -> list[np.ndarray]:
    """Each coordinate's centred steps by outcome packed into int64 words.

    Coordinate j takes a place in a balanced mixed radix of
    2 * steps * max|c_j| + 1, which holds every running sum of up to
    ``steps`` of its steps; a word takes coordinates while the product of
    its radices stays below ``_WORD_BOUND``. A word's running sum is then
    0 exactly when each of its coordinates' sums is 0. A coordinate whose
    radix alone reaches the bound sits in a word of its own, at place 1.
    """
    words, place = [], _WORD_BOUND
    for column in centred:
        radix = 2 * steps * int(np.abs(column).max()) + 1
        if place * radix >= _WORD_BOUND:
            words.append(np.zeros_like(column))
            place = 1
        words[-1] += column * place
        place *= radix
    return words


def recurrence_simulation(solution: MaxEntSolution, constraint: ConstraintSpec,
                          steps: int, reps: int, seed: int,
                          checkpoints=None) -> RecurrenceResult:
    """Count visits of the centered statistic walk to the origin.

    Draws i.i.d. symbols from the projection and counts the times n at which
    the running statistic average sits exactly on target, averaged over
    ``reps`` independently seeded replicas. A replica draws its symbols as
    ``Generator.choice`` would (``_draws``), gathers their packed centred
    steps (``_packed_steps``) and takes one running sum per word: one word
    holds all three coordinates of a cube3 walk of 10^5 steps. It holds
    ``steps`` cells at a time, a word's sums, and is charged for them
    against the cell budget.
    """
    if steps < 1 or reps < 1:
        raise ValidationError("steps and reps must be >= 1")
    if checkpoints is None:
        checkpoints = tuple(10 ** e for e in range(1, 12) if 10 ** e < steps) \
            + (steps,)
    checkpoints = tuple(sorted(set(int(c) for c in checkpoints)))
    if any(c < 1 or c > steps for c in checkpoints):
        raise ValidationError("checkpoints must lie in 1..steps")

    _check_budget((steps,),
                  f"recurrence sums of {steps} steps; reduce steps")
    units = np.array(constraint.units, dtype=np.int64)
    # per coordinate j, the centred steps u_j den_j - num_j: their running sum
    # is den_j S_j(n) - n num_j, zero exactly when the average is on target
    centred = [units[:, j] * den - num
               for j, (num, den) in enumerate(constraint.center_ints)]
    words = _packed_steps(centred, steps)
    pmf = solution.pmf / solution.pmf.sum()
    segments = list(zip((0,) + checkpoints, checkpoints))

    visit_counts = np.zeros((reps, len(checkpoints)))
    for r, rng in enumerate(_streams(seed, reps)):
        draws = _draws(rng, pmf, steps)
        on_center = np.ones(steps, dtype=bool)
        for word in words:
            walk = word[draws]
            on_center &= np.cumsum(walk, out=walk) == 0
        visit_counts[r] = np.cumsum([np.count_nonzero(on_center[a:b])
                                     for a, b in segments])
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
    samples: int
    seed: int
    frequency: float
    bound: float
    sigma: float


def hypercompression_check(space: SampleSpace, solution: MaxEntSolution,
                           n: int, k_bits: float, samples: int,
                           seed: int) -> HypercompressionResult:
    """Frequency with which the prior's i.i.d. code saves at least ``k_bits``
    over the projection's on projection-sampled sequences of length n.

    Both codes are i.i.d., so each sample is scored from its symbol counts;
    the samples x |X| table of counts must fit the cell budget. For data
    sampled from the projection this frequency obeys the 2^-K bound up to
    binomial sampling slack.
    """
    if k_bits <= 0 or samples < 1 or n < 1:
        raise ValidationError("need K > 0, samples >= 1, n >= 1")
    pmf = solution.pmf / solution.pmf.sum()
    _check_budget((samples, len(pmf)), f"counts of {samples} samples; reduce samples")
    counts = _streams(seed, 1)[0].multinomial(n, pmf, size=samples)
    exceed = _iid_codelengths(counts, solution.pmf) >= \
        _iid_codelengths(counts, space.prior) + k_bits
    frequency = float(np.mean(exceed))
    bound = 2.0 ** (-k_bits)
    sigma = math.sqrt(bound * (1.0 - bound) / samples)
    return HypercompressionResult(n=n, samples=samples, seed=seed,
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
