"""Concentration constants and their local-CLT limit, with event checks.

For feasible n, c_n is n^(k/2) times the projection's probability of hitting
the target average, and d_n is the ratio of that probability to its normal
approximation; c_n tends to prod(h_j) / sqrt((2 pi)^k det Sigma) and d_n to 1.
Event records check the concentration inequality (and its equality case for
events inside the constraint set) with c_n taken from the same run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conditional import conditional_event_prob, conditional_marginal
from .errors import EnumerationInfeasibleError, ValidationError
from .lattice import (
    CELL_BUDGET,
    ConstraintSpec,
    SampleSpace,
    _sequences_on_target,
    _tables_cells,
    first_feasible_sizes,
)
from .solver import MaxEntSolution
from .sumdist import central_series


class LocalClt:
    """Local-CLT scale of a solved constraint: the dimension k, det Sigma and
    the span product prod(h_j) in original units, with c_n, d_n and their
    limit."""

    def __init__(self, constraint: ConstraintSpec, solution: MaxEntSolution):
        self.k = constraint.dim
        self.det_sigma = float(np.linalg.det(solution.covariance))
        self.spans = math.prod(float(h) for h in constraint.spans_original)

    @property
    def limit(self) -> float:
        return self.spans / math.sqrt((2.0 * math.pi) ** self.k * self.det_sigma)

    def constants(self, n: int, p_c: float) -> tuple[float, float]:
        """(c_n, d_n) for the constraint probability ``p_c`` at size n."""
        c_n = n ** (self.k / 2.0) * p_c
        d_n = p_c * math.sqrt((2.0 * math.pi * n) ** self.k * self.det_sigma) \
            / self.spans
        return c_n, d_n


def clt_limit(constraint: ConstraintSpec, solution: MaxEntSolution) -> float:
    """Limit of c_n: spans (original units) over sqrt((2 pi)^k det Sigma)."""
    return LocalClt(constraint, solution).limit


@dataclass
class EventCheck:
    event_kind: str
    n: int
    conditional_q: float | None
    prob_maxent: float
    joint_maxent: float
    slack_item1: float | None
    residual_item2: float | None


@dataclass
class ConcentrationRecord:
    n: int
    feasible: bool
    prob_constraint: float
    c_n: float | None
    d_n: float | None
    events: tuple[EventCheck, ...]
    tv: float | None


@dataclass
class ConcentrationReport:
    limit_value: float
    det_sigma: float
    records: tuple[ConcentrationRecord, ...]


def concentration_constants(space: SampleSpace, constraint: ConstraintSpec,
                            solution: MaxEntSolution, n_list, events=(),
                            tv_m: int | None = None, mode: str = "float"
                            ) -> ConcentrationReport:
    """Fill per-n concentration records for the given sizes.

    Infeasible sizes produce records flagged infeasible with undefined
    constants instead of raising, so n sweeps run whole.
    """
    n_list = sorted(set(int(n) for n in n_list))
    if not n_list or n_list[0] < 1:
        raise ValidationError("n_list must hold sizes >= 1")
    k = constraint.dim
    clt = LocalClt(constraint, solution)
    centrals = central_series(space, constraint, n_list[-1], measure=solution,
                              mode="float")
    records = []
    for n in n_list:
        p_c = float(centrals[n])
        feasible = p_c > 0.0
        if not feasible:
            records.append(ConcentrationRecord(
                n=n, feasible=False, prob_constraint=0.0, c_n=None, d_n=None,
                events=(), tv=None))
            continue
        c_n, d_n = clt.constants(n, p_c)
        checks = []
        for event in events:
            under_q = conditional_event_prob(space, constraint, event, n,
                                             measure="q", mode=mode)
            under_p = conditional_event_prob(space, constraint, event, n,
                                             measure=solution, mode="float")
            cond_q = under_q.conditional
            if cond_q is None:
                slack = residual = None
            else:
                rhs = n ** (-k / 2.0) * c_n * float(cond_q)
                slack = float(under_p.prob_event) - rhs
                residual = float(under_p.prob_joint) - rhs
            checks.append(EventCheck(
                event_kind=event.kind, n=n,
                conditional_q=None if cond_q is None else float(cond_q),
                prob_maxent=float(under_p.prob_event),
                joint_maxent=float(under_p.prob_joint),
                slack_item1=slack, residual_item2=residual))
        tv = None
        if tv_m is not None and 1 <= tv_m < n:
            marg = conditional_marginal(space, constraint, tv_m, n,
                                        measure="q", mode="float")
            tv = marg.tv_to_product(solution.pmf)
        records.append(ConcentrationRecord(
            n=n, feasible=True, prob_constraint=p_c, c_n=c_n, d_n=d_n,
            events=tuple(checks), tv=tv))
    return ConcentrationReport(limit_value=clt.limit, det_sigma=clt.det_sigma,
                               records=tuple(records))


def representative_sequence(space: SampleSpace, constraint: ConstraintSpec,
                            n: int) -> tuple[int, ...]:
    """Some length-n outcome sequence (as indices) satisfying the constraint.

    The lexicographically first one when the reachability tables fit the
    budget, otherwise a concatenation of short feasible blocks.
    """
    if constraint.center_units(n) is None:
        raise ValidationError(f"n={n} is infeasible for this constraint")
    if _tables_cells(constraint, n) <= CELL_BUDGET:
        first = next(_sequences_on_target(space, constraint, n), None)
        if first is None:
            raise ValidationError(f"n={n} is infeasible for this constraint")
        return first

    # Large instance: compose small feasible blocks.
    small = first_feasible_sizes(space, constraint, count=4, n_cap=24)
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
        f"no representative for n={n} from feasible blocks up to 24"
    )
