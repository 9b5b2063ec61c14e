"""Concentration constants and their local-CLT limit, with event checks.

For feasible n, c_n is n^(k/2) times the projection's probability of hitting
the target average, and d_n is the ratio of that probability to its normal
approximation; c_n tends to index * prod(h_j) / sqrt((2 pi)^k det Sigma),
with the index of the steps' lattice (``ConstraintSpec.index``), and d_n to 1.
Event records check the concentration inequality (and its equality case for
events inside the constraint set) with c_n taken from the same run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conditional import conditional_event_prob
from .errors import EnumerationInfeasibleError, LatticeBlowupError, ValidationError
from .lattice import ConstraintSpec, SampleSpace, _sequences_on_target, first_feasible_sizes
from .solver import MaxEntSolution
from .sumdist import FLOAT, Arithmetic, _central_masses


class LocalClt:
    """Local-CLT scale of a solved constraint: the dimension k, det Sigma and
    the lattice constant index * prod(h_j) of the steps' span in original
    units, with c_n, d_n and their limit."""

    def __init__(self, constraint: ConstraintSpec, solution: MaxEntSolution):
        self.k = constraint.dim
        self.det_sigma = float(np.linalg.det(solution.covariance))
        self.spans = constraint.index * math.prod(
            float(h) for h in constraint.spans_original)

    @property
    def limit(self) -> float:
        return self.spans / math.sqrt((2.0 * math.pi) ** self.k * self.det_sigma)

    def constants(self, n: int, p_c: float) -> tuple[float, float]:
        """(c_n, d_n) for the constraint probability ``p_c`` at size n; the d_n
        of ``p_c`` = 1.0 is the normaliser sqrt((2 pi n)^k det Sigma) / spans."""
        c_n = n ** (self.k / 2.0) * p_c
        d_n = p_c * math.sqrt((2.0 * math.pi * n) ** self.k * self.det_sigma) \
            / self.spans
        return c_n, d_n


def sorted_sizes(n_list) -> list[int]:
    """The distinct sizes of ``n_list`` in increasing order, all >= 1."""
    sizes = sorted(set(int(n) for n in n_list))
    if not sizes or sizes[0] < 1:
        raise ValidationError("n_list must hold sizes >= 1")
    return sizes


def clt_limit(constraint: ConstraintSpec, solution: MaxEntSolution) -> float:
    """Limit of c_n: spans (original units) over sqrt((2 pi)^k det Sigma)."""
    return LocalClt(constraint, solution).limit


@dataclass
class EventCheck:
    n: int
    conditional_q: float
    prob_maxent: float
    slack_item1: float
    residual_item2: float


@dataclass
class ConcentrationRecord:
    n: int
    feasible: bool
    prob_constraint: float
    c_n: float | None
    d_n: float | None
    events: tuple[EventCheck, ...]


@dataclass
class ConcentrationReport:
    limit_value: float
    det_sigma: float
    records: tuple[ConcentrationRecord, ...]


def concentration_constants(space: SampleSpace, constraint: ConstraintSpec,
                            solution: MaxEntSolution, n_list, events=(),
                            mode: Arithmetic = FLOAT) -> ConcentrationReport:
    """Fill per-n concentration records for the given sizes.

    Infeasible sizes, those of exact zero mass, produce records flagged
    infeasible, so n sweeps run whole. A float mass that underflows to 0.0
    raises ``LatticeBlowupError`` where it is computed.
    """
    n_list = sorted_sizes(n_list)
    k = constraint.dim
    clt = LocalClt(constraint, solution)
    [centrals] = _central_masses(space, constraint, n_list[-1], (solution,))
    records = []
    for n in n_list:
        p_c = float(centrals[n])
        if p_c == 0:
            records.append(ConcentrationRecord(
                n=n, feasible=False, prob_constraint=0.0, c_n=None, d_n=None,
                events=()))
            continue
        c_n, d_n = clt.constants(n, p_c)
        checks = []
        for event in events:
            under_q = conditional_event_prob(space, constraint, event, n,
                                             measure="q", mode=mode)
            under_p = conditional_event_prob(space, constraint, event, n,
                                             measure=solution, mode=FLOAT)
            cond_q = under_q.conditional
            rhs = n ** (-k / 2.0) * c_n * float(cond_q)
            checks.append(EventCheck(
                n=n, conditional_q=float(cond_q),
                prob_maxent=float(under_p.prob_event),
                slack_item1=float(under_p.prob_event) - rhs,
                residual_item2=float(under_p.prob_joint) - rhs))
        records.append(ConcentrationRecord(
            n=n, feasible=True, prob_constraint=p_c, c_n=c_n, d_n=d_n,
            events=tuple(checks)))
    return ConcentrationReport(limit_value=clt.limit, det_sigma=clt.det_sigma,
                               records=tuple(records))


def representative_sequence(space: SampleSpace, constraint: ConstraintSpec,
                            n: int) -> tuple[int, ...]:
    """Some length-n outcome sequence (as indices) satisfying the constraint.

    The lexicographically first one when the reachability tables fit the
    budget, else one glued from blocks of the first four feasible sizes below n.
    """
    try:
        first = next(_sequences_on_target(space, constraint, n), None)
    except LatticeBlowupError:
        pass  # the walk's tables exceed the budget: compose small blocks
    else:
        if first is None:
            raise ValidationError(f"n={n} is infeasible for this constraint")
        return first

    small = first_feasible_sizes(space, constraint, count=4, n_cap=n - 1)
    for n1 in small:
        if n % n1 == 0:
            block = representative_sequence(space, constraint, n1)
            return block * (n // n1)
    for n1 in small:
        for n2 in small:
            if n2 == n1:
                continue
            b = 1
            while b * n2 < n:
                if (n - b * n2) % n1 == 0:
                    block1 = representative_sequence(space, constraint, n1)
                    block2 = representative_sequence(space, constraint, n2)
                    return block2 * b + block1 * ((n - b * n2) // n1)
                b += 1
    raise EnumerationInfeasibleError(
        f"no representative for n={n} from feasible blocks below it")
