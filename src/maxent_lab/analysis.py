"""Codelength analyses of the coding game.

Covers the per-symbol minimax constancy of the projection code on
constraint-satisfying sequences, the coding-theoretic concentration residual
(which collapses to -log2 d_n), and the closed-form series of worst-case gaps
between the integer-prior mixture and the projection code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .concentration import LocalClt, representative_sequence
from .errors import EnumerationInfeasibleError, LatticeBlowupError, ValidationError
from .lattice import (
    ConstraintSpec,
    SampleSpace,
    _check_budget,
    _dense_shape,
    _reach_sweep,
    _sequences_on_target,
    _shift_combine,
    feasible_sizes,
)
from .priors import IntegerPrior
from .solver import MaxEntSolution
from .sumdist import central_series, constraint_prob


def enumerate_constraint_sequences(space: SampleSpace, constraint: ConstraintSpec,
                                   n: int, limit: int = 10 ** 6) -> list:
    """All length-n sequences (as index tuples) satisfying the constraint, in
    lexicographic order, from the reachability-pruned walk that also gives
    ``representative_sequence``. Raises ``LatticeBlowupError`` before any
    table is built when the reachability tables exceed the cell budget."""
    walk = _sequences_on_target(space, constraint, n)
    out = list(islice(walk, limit + 1))
    if len(out) > limit:
        raise EnumerationInfeasibleError(
            f"constraint set at n={n} exceeds {limit} sequences"
        )
    return out


@dataclass
class AlternativeCheck:
    tag: str
    worst_per_symbol: float
    lower_bound: float
    satisfied: bool


@dataclass
class MinimaxReport:
    n: int
    constant: float
    max_abs_deviation: float
    sequence_count: int
    alternatives: tuple[AlternativeCheck, ...]


def verify_minimax_constancy(space: SampleSpace, constraint: ConstraintSpec,
                             solution: MaxEntSolution, n: int,
                             alternatives=(), limit: int = 10 ** 6
                             ) -> MinimaxReport:
    """Check that the projection's per-symbol redundancy against the prior is
    one constant on every constraint-satisfying sequence of length n.

    The constant is the relative entropy of the solution (in bits, negative
    unless the projection is the prior). Supplied alternative predictors are
    checked against the exact lower bound constant - (k/2n) log2 n +
    (1/n) log2 c_n, with c_n computed in the same run.
    """
    sequences = enumerate_constraint_sequences(space, constraint, n, limit)
    if not sequences:
        raise ValidationError(f"n={n} is infeasible for this constraint")
    logp = np.log2(solution.pmf)
    logq = np.log2(space.prior)
    constant = solution.entropy_bits
    max_dev = 0.0
    for seq in sequences:
        value = -sum(logp[idx] - logq[idx] for idx in seq) / n
        max_dev = max(max_dev, abs(value - constant))

    checks = []
    if alternatives:
        p_c = constraint_prob(space, constraint, n, measure=solution,
                              mode="float")
        c_n, _ = LocalClt(constraint, solution).constants(n, p_c)
        bound = constant - (constraint.dim / (2.0 * n)) * math.log2(n) \
            + math.log2(c_n) / n
        for alt in alternatives:
            worst = -math.inf
            for seq in sequences:
                lq = -sum(logq[idx] for idx in seq)
                worst = max(worst,
                            (alt.sequence_codelength(seq) - lq) / n)
            checks.append(AlternativeCheck(
                tag=alt.tag, worst_per_symbol=worst, lower_bound=bound,
                satisfied=worst >= bound - 1e-9))
    return MinimaxReport(n=n, constant=constant, max_abs_deviation=max_dev,
                         sequence_count=len(sequences),
                         alternatives=tuple(checks))


@dataclass
class ResidualRecord:
    n: int
    feasible: bool
    c_n: float | None
    d_n: float | None
    residual_direct: float | None
    residual_identity: float | None


def corollary1_residuals(space: SampleSpace, constraint: ConstraintSpec,
                         solution: MaxEntSolution, n_list
                         ) -> list[ResidualRecord]:
    """Concentration residual per n, computed two ways.

    Direct: codelength of a representative constraint sequence under the
    projection, minus its conditioned-prior codelength, minus
    (k/2) log2(2 pi n) + log2 sqrt(det Sigma) - sum_j log2 h_j.
    Identity: -log2 d_n. The two agree up to float rounding.
    """
    n_list = sorted(set(int(n) for n in n_list))
    if not n_list or n_list[0] < 1:
        raise ValidationError("n_list must hold sizes >= 1")
    n_max = n_list[-1]
    k = constraint.dim
    clt = LocalClt(constraint, solution)
    central_p = central_series(space, constraint, n_max, measure=solution,
                               mode="float")
    central_q = central_series(space, constraint, n_max, measure="q",
                               mode="float")
    logp = np.log2(solution.pmf)
    logq = np.log2(space.prior)
    out = []
    for n in n_list:
        p_c = float(central_p[n])
        if p_c <= 0.0:
            out.append(ResidualRecord(n=n, feasible=False, c_n=None, d_n=None,
                                      residual_direct=None,
                                      residual_identity=None))
            continue
        c_n, d_n = clt.constants(n, p_c)
        rep = representative_sequence(space, constraint, n)
        counts = np.bincount(np.array(rep), minlength=space.size)
        p_q = float(central_q[n])
        if p_q <= 0.0:
            raise LatticeBlowupError(
                f"corollary 1 at n={n}: the prior constraint mass underflows "
                f"the float range while the projection gives {p_c:.3g}; reduce n")
        len_proj = -float(counts @ logp)
        len_cond = -float(counts @ logq) + math.log2(p_q)
        penalty = (k / 2.0) * math.log2(2.0 * math.pi * n) \
            + 0.5 * math.log2(clt.det_sigma) - math.log2(clt.spans)
        out.append(ResidualRecord(
            n=n, feasible=True, c_n=c_n, d_n=d_n,
            residual_direct=len_proj - len_cond - penalty,
            residual_identity=-math.log2(d_n)))
    return out


def min_hit_cost_series(constraint: ConstraintSpec, costs: dict,
                        n_max: int) -> dict:
    """Minimum accumulated hit cost over constraint-satisfying sequences.

    Walking the unit lattice, a path pays ``costs[m]`` whenever its length-m
    prefix sits on the target cell. Returns, for each m in ``costs`` up to
    n_max, the minimum total cost over paths ending on the target at m
    (including their own hit at m).

    This dense min-plus sweep is the reference for ``_hit_cost_minima``, which
    gives the same dict in closed form; nothing in the package calls it. It
    is kept because the benchmark's tracer and self-tests name it.
    """
    _check_budget(_dense_shape(n_max, constraint.unit_max),
                  f"min-cost sweep to n={n_max}")
    cells = [(u, None) for u in sorted(set(constraint.units))]
    table = np.zeros((1,) * constraint.dim)
    out: dict = {}
    for m in range(1, n_max + 1):
        new = np.full(_dense_shape(m, constraint.unit_max), np.inf)
        table = _shift_combine(new, table, cells, np.minimum,
                               lambda w, table: table)
        center = constraint.center_units(m)
        if center is not None and np.isfinite(table[center]):
            if m in costs:
                table[center] += costs[m]
                out[m] = float(table[center])
    return out


def _hit_cost_minima(constraint: ConstraintSpec, costs: dict,
                     n_max: int) -> dict:
    """``min_hit_cost_series`` in closed form, for positive costs keyed by
    feasible sizes.

    First-return decomposition (Feller, Vol. I, Ch. XIII): if C_n holds a
    sequence with a nonzero centred step T(x) - t, order its steps by the sign
    of a functional that is nonzero on every nonzero centred step (positive,
    zero, negative). That walk first returns to the target at n carrying 0.0,
    so the minimum is costs[n] exactly. Below the first such size n0, which
    exceeds 1 only when some outcome has T(x) = t, C_n holds only that zero
    step repeated, every prefix hits, and the minimum is the running sum of
    the costs, added in increasing size as the sweep adds them.
    """
    zero = constraint.center_units(1)
    n0 = 1
    if zero in constraint.units:
        # n0 is the first size whose target cell a nonzero last step reaches
        others = set(constraint.units) - {zero}
        n0 = n_max + 1
        sweep = islice(_reach_sweep(constraint), n_max)
        for n, reach in enumerate(sweep, start=1):
            center = constraint.center_units(n)
            lasts = (tuple(c - uj for c, uj in zip(center, u)) for u in others)
            if any(all(0 <= x < s for x, s in zip(cell, reach.shape))
                   and reach[cell] for cell in lasts):
                n0 = n
                break
    out: dict = {}
    total = 0.0
    for n in sorted(m for m in costs if m <= n_max):
        total += costs[n]
        out[n] = total if n < n0 else costs[n]
    return out


@dataclass
class GapRecord:
    n: int
    component: int
    gap_bits: float
    gap_per_log2n: float


@dataclass
class CodelengthRecord:
    n: int
    predictor: str
    codelength_bits: float
    gap_vs_maxent_bits: float


@dataclass
class GameReport:
    """Aggregated coding-game results for one problem instance."""

    codelengths: tuple[CodelengthRecord, ...] = ()
    skipped_sizes: tuple[int, ...] = ()


def play_coding_game(space: SampleSpace, constraint: ConstraintSpec,
                     solution: MaxEntSolution, predictors: dict,
                     n_list) -> GameReport:
    """Codelength table for named predictors over shared sequences.

    For each feasible n one representative constraint sequence is drawn and
    every predictor is scored on it, so the reported gaps compare like with
    like. The projection codelength is the gap baseline. A dict value may be
    a predictor or a callable building one from n (for horizon-dependent
    predictors). Infeasible sizes are skipped and recorded.
    """
    logp = np.log2(solution.pmf)
    records = []
    skipped = []
    for n in sorted(set(int(n) for n in n_list)):
        try:
            rep = representative_sequence(space, constraint, n)
        except (ValidationError, EnumerationInfeasibleError):
            skipped.append(n)
            continue
        baseline = -float(sum(logp[idx] for idx in rep))
        for tag, entry in predictors.items():
            predictor = entry(n) if callable(entry) else entry
            length = predictor.sequence_codelength(rep)
            records.append(CodelengthRecord(
                n=n, predictor=tag, codelength_bits=length,
                gap_vs_maxent_bits=length - baseline))
    return GameReport(codelengths=tuple(records),
                      skipped_sizes=tuple(skipped))


def mixture_gap_series(space: SampleSpace, constraint: ConstraintSpec,
                       solution: MaxEntSolution, prior: IntegerPrior,
                       n_max: int, horizon: int | None = None
                       ) -> list[GapRecord]:
    """Worst-case codelength gap of the mixture over the projection, per n.

    For each feasible n up to n_max this computes min over constraint
    sequences of log2(mixture mass / projection mass) in closed form: the
    mixture's mass ratio to the prior decomposes into hit terms plus a tail
    over components beyond n, and the projection's ratio to the prior is
    constant on the constraint set. The hit terms are smallest on a sequence
    whose walk first returns to the target at n, which pays only the n-th
    term (``_hit_cost_minima``). Raises ``LatticeBlowupError`` when the prior
    mass of a feasible size at or below the horizon underflows to 0.0.
    """
    if horizon is None:
        horizon = 2 * n_max
    if horizon < n_max:
        raise ValidationError("horizon must cover n_max")
    central_q = central_series(space, constraint, horizon, measure="q",
                               mode="float")
    zeros = [m for m in range(1, horizon + 1)
             if central_q[m] == 0.0 and constraint.center_units(m) is not None]
    if zeros:
        flags = feasible_sizes(space, constraint, zeros[-1]).flags
        lost = next((m for m in zeros if flags[m]), None)
        if lost is not None:
            raise LatticeBlowupError(
                f"mixture gaps at n={lost}: the prior constraint mass "
                "underflows the float range; reduce the horizon")
    # with no mass lost, a size is feasible exactly when its prior mass is > 0
    sizes = [m for m in range(1, horizon + 1) if central_q[m] > 0.0]
    sizes = sizes[: prior.j_max]
    if not sizes:
        raise ValidationError("no feasible sizes below the horizon")
    weights = [float(prior.mass(j)) for j in range(1, len(sizes) + 1)]
    total = sum(weights)
    weights = [w / total for w in weights]
    costs = {n_j: weights[j] / float(central_q[n_j])
             for j, n_j in enumerate(sizes)}
    minima = _hit_cost_minima(constraint, costs, n_max)
    entropy = solution.entropy_bits
    out = []
    for j, n_j in enumerate(sizes):
        if n_j > n_max:
            break
        tail = 0.0
        for jp in range(j + 1, len(sizes)):
            gain = float(central_q[sizes[jp] - n_j])
            if gain > 0.0:
                tail += weights[jp] * gain / float(central_q[sizes[jp]])
        ratio_min = minima[n_j] + tail
        gap = math.log2(ratio_min) + n_j * entropy
        out.append(GapRecord(n=n_j, component=j + 1, gap_bits=gap,
                             gap_per_log2n=gap / math.log2(n_j) if n_j > 1
                             else gap))
    return out
