"""Exhaustive exact-rational enumeration over all length-n sequences.

Ground truth for the DP layers. Constraint membership is decided from the raw
rational statistic values (own scaling, no span/offset geometry) and events
are evaluated by their literal definitions, so agreement with the lattice DP
is a real cross-check and not a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .conditional import EventProbabilityResult
from .errors import EnumerationInfeasibleError, ValidationError
from .lattice import ConstraintSpec, SampleSpace
from .sumdist import EXACT, resolve_measure

SIZE_GUARD = 10 ** 7
EVENT_SIZE_GUARD = 10 ** 6


@dataclass
class EnumerationOracle:
    """Exact conditional mass table plus event probabilities at one n."""

    n: int
    measure_id: str
    prob_constraint: Fraction
    conditional: dict
    event_results: tuple[EventProbabilityResult, ...]

    def marginal(self, m: int) -> dict:
        """Exact conditional marginal of the first m symbols (zero-mass
        prefixes omitted)."""
        if not 1 <= m <= self.n:
            raise ValidationError("need 1 <= m <= n")
        out: dict = {}
        for seq, mass in self.conditional.items():
            key = seq[:m]
            prev = out.get(key)
            out[key] = mass if prev is None else prev + mass
        return out


def enumerate_oracle(space: SampleSpace, constraint: ConstraintSpec, n: int,
                     measure="q", events=(), size_guard: int = SIZE_GUARD
                     ) -> EnumerationOracle:
    """Enumerate all |X|^n sequences exactly.

    Guarded at ``size_guard`` leaves (and a tighter guard when events are
    requested, since each leaf then costs an O(n) evaluation).
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    m = space.size
    leaves = m ** n
    if leaves > size_guard:
        raise EnumerationInfeasibleError(
            f"enumeration infeasible: {m}^{n} sequences exceed guard {size_guard}"
        )
    if events and leaves > EVENT_SIZE_GUARD:
        raise EnumerationInfeasibleError(
            f"enumeration infeasible: event evaluation over {m}^{n} sequences"
        )
    measure_id, weights = resolve_measure(space, measure, EXACT)

    # Own integer scaling, independent of the constraint's derived geometry.
    dim = constraint.dim
    mults = []
    scaled_values = []
    scaled_targets = []
    for j in range(dim):
        col = [row[j] for row in constraint.values]
        mult = lcm(constraint.target[j].denominator,
                   *(v.denominator for v in col))
        mults.append(mult)
        scaled_values.append([int(v * mult) for v in col])
        scaled_targets.append(int(constraint.target[j] * mult) * n)

    denom = lcm(*(w.denominator for w in weights))
    numerators = [int(w * denom) for w in weights]

    members: dict = {}
    total_c = 0
    event_list = list(events)
    event_num = [0] * len(event_list)
    event_joint_num = [0] * len(event_list)
    total_all = 0

    seq = [0] * n

    def descend(depth: int, sums: tuple[int, ...], num: int) -> None:
        nonlocal total_c, total_all
        if depth == n:
            total_all += num
            in_c = all(s == t for s, t in zip(sums, scaled_targets))
            if in_c:
                total_c += num
                members[tuple(seq)] = num
            if event_list:
                frozen = tuple(seq)
                for i, ev in enumerate(event_list):
                    if ev.holds(frozen, space):
                        event_num[i] += num
                        if in_c:
                            event_joint_num[i] += num
            return
        for idx in range(m):
            seq[depth] = idx
            descend(depth + 1,
                    tuple(s + scaled_values[j][idx] for j, s in enumerate(sums)),
                    num * numerators[idx])

    descend(0, (0,) * dim, 1)
    # every sequence enumerated once: (sum of numerators)**n, which is
    # denom**n for a normalized measure
    assert total_all == sum(numerators) ** n

    total_mass = Fraction(total_c, denom ** n)
    conditional = {s: Fraction(v, total_c) for s, v in members.items()} \
        if total_c else {}
    results = tuple(
        EventProbabilityResult(
            n=n, measure_id=measure_id, prob_event=Fraction(num, denom ** n),
            prob_joint=Fraction(joint, denom ** n),
            prob_constraint=total_mass,
        )
        for num, joint in zip(event_num, event_joint_num)
    )
    return EnumerationOracle(n=n, measure_id=measure_id,
                             prob_constraint=total_mass,
                             conditional=conditional, event_results=results)
