"""Corollary 1 from the central masses alone: ``residual_direct`` is
n H - log2 P_q(C_n) - log2 N_n, which every sequence of C_n gives, so no
sequence is walked and sizes past any walk budget are answered."""

import csv
import json
import math
from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from maxent_lab import (
    build_space,
    corollary1_residuals,
    derive_lattice,
    solve_maxent,
)
from maxent_lab import analysis, concentration, lattice
from maxent_lab.analysis import enumerate_constraint_sequences
from maxent_lab.cli import main
from maxent_lab.errors import MaxentLabError


def test_sizes_past_the_walk_budget_are_answered(tmp_path):
    # the prior's own mean: the first feasible size is 29, so the parent's
    # fallback of feasible blocks up to 24 had no block to glue at n = 40600
    config = tmp_path / "coin.json"
    config.write_text(json.dumps({
        "problem": {"outcomes": ["0", "1"], "prior": ["28", "1"],
                    "T": [["0", "1"]], "target": ["1/29"]},
        "experiments": [{"kind": "corollary1", "n_list": [29, 40600]}]}))
    out = tmp_path / "out"
    assert main(["run", "-c", str(config), "-o", str(out)]) == 0
    text = next(out.glob("*corollary1*.csv")).read_text()
    rows = list(csv.DictReader(text.splitlines()))
    assert [row["n"] for row in rows] == ["29", "40600"]
    for row in rows:
        assert abs(float(row["residual_direct"])
                   - float(row["residual_identity"])) <= 1e-9


def test_no_sequence_is_walked(dice, dice_constraint, dice_solution,
                               monkeypatch):
    sizes = [3, 4, 40, 400, 1000]
    expected = corollary1_residuals(dice, dice_constraint, dice_solution,
                                    sizes)

    def refuse(*args, **kwargs):
        raise AssertionError("corollary 1 walked a sequence")

    for module in (analysis, concentration):
        monkeypatch.setattr(module, "representative_sequence", refuse)
    for module in (analysis, concentration, lattice):
        monkeypatch.setattr(module, "_sequences_on_target", refuse)
    assert corollary1_residuals(dice, dice_constraint, dice_solution,
                                sizes) == expected
    assert [r.feasible for r in expected] == [False, True, True, True, True]


def _counts_residual(space, constraint, solution, seq, p_q):
    """The codelength residual of one constraint sequence, read from its
    symbol counts: projection codelength less conditioned-prior codelength,
    less the log2 of the local-CLT normaliser, whose lattice constant is
    index * prod(h_j)."""
    n, k = len(seq), constraint.dim
    det_sigma = float(np.linalg.det(solution.covariance))
    spans = constraint.index * math.prod(
        float(h) for h in constraint.spans_original)
    counts = np.bincount(np.array(seq), minlength=space.size)
    len_proj = -float(counts @ np.log2(solution.pmf))
    len_cond = -float(counts @ np.log2(space.prior)) + math.log2(p_q)
    penalty = (k / 2.0) * math.log2(2.0 * math.pi * n) \
        + 0.5 * math.log2(det_sigma) - math.log2(spans)
    return len_proj - len_cond - penalty


@st.composite
def _problems(draw):
    """A small rational problem whose target is the mean of a sequence that
    uses every outcome, so it lies inside the hull."""
    size = draw(st.integers(2, 4))
    k = draw(st.integers(1, 2))
    values = [[Fraction(draw(st.integers(0, 4)), draw(st.integers(1, 3)))
               for _ in range(k)] for _ in range(size)]
    prior = [draw(st.integers(1, 4)) for _ in range(size)]
    extra = draw(st.lists(st.integers(0, size - 1), max_size=8 - size))
    seq = list(range(size)) + extra
    target = [sum(values[i][j] for i in seq) / len(seq) for j in range(k)]
    return values, prior, target


@settings(max_examples=40, deadline=None)
@given(_problems())
def test_every_sequence_gives_the_direct_residual(problem):
    values, prior, target = problem
    space = build_space(range(len(values)), prior)
    try:
        constraint = derive_lattice(values, target)
        solution = solve_maxent(space, constraint)
    except MaxentLabError:
        assume(False)  # a constant or affinely dependent coordinate
    checked = 0
    for record in corollary1_residuals(space, constraint, solution,
                                       range(1, 9)):
        sequences = enumerate_constraint_sequences(space, constraint,
                                                   record.n)
        assert record.feasible == bool(sequences)
        if not sequences:
            continue
        p_q = float(sum(math.prod(space.prior_fractions[i] for i in seq)
                        for seq in sequences))
        for seq in sequences:
            reference = _counts_residual(space, constraint, solution, seq, p_q)
            assert abs(reference - record.residual_direct) <= 1e-12 * record.n
            checked += 1
    assert checked
