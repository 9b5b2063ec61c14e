"""One event DP per measure serves every size, and the prior's side is cut.

``conditional_event_series`` runs one box or bigram DP to the last size and
reads each size at its own step; with ``target_only`` every DP drops the
cells that cannot reach the target. Both must give each size's masses bit
for bit (floats) or exactly (rational mode) as the per-size
``conditional_event_prob``, on random k = 1 and k = 2 problems whose size
lists hold infeasible sizes, an infeasible last size among them.
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from maxent_lab import (
    BigramDeviationEvent,
    BoxEvent,
    FrequencyDeviationEvent,
    build_space,
    concentration_constants,
    conditional,
    conditional_event_prob,
    derive_lattice,
    feasible_sizes,
    solve_maxent,
)
from maxent_lab.conditional import conditional_event_series
from maxent_lab.experiments import run_config
from maxent_lab.sumdist import EXACT, FLOAT

ROOT = Path(__file__).resolve().parents[1]
SIZE_MAX = 8

weights_st = st.builds(Fraction, st.integers(1, 9), st.integers(2, 12))


@st.composite
def problems(draw):
    """(space, constraint): |X| <= 5, k in {1, 2}, statistic values that may
    be negative, and a target that is the mean of a block of outcomes."""
    size = draw(st.integers(2, 5))
    k = draw(st.integers(1, 2))
    space = build_space(list(range(size)),
                        draw(st.lists(weights_st, min_size=size, max_size=size)))
    values = draw(st.lists(
        st.lists(st.integers(-2, 3), min_size=k, max_size=k),
        min_size=size, max_size=size))
    for j in range(k):
        assume(len({row[j] for row in values}) > 1)
    block = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=3))
    target = [Fraction(sum(values[i][j] for i in block), len(block))
              for j in range(k)]
    return space, derive_lattice(values, target)


@st.composite
def events(draw, space):
    kind = draw(st.sampled_from(["box", "bigram", "freq"]))
    if kind == "box":
        dim = draw(st.integers(1, 2))
        bound = st.one_of(st.none(), st.builds(Fraction, st.integers(-9, 9),
                                               st.integers(1, 4)))
        return BoxEvent.make(
            draw(st.lists(st.lists(st.integers(-3, 3), min_size=dim,
                                   max_size=dim),
                          min_size=space.size, max_size=space.size)),
            draw(st.lists(bound, min_size=dim, max_size=dim)),
            draw(st.lists(bound, min_size=dim, max_size=dim)),
            inside=draw(st.booleans()))
    if kind == "bigram":
        j, jprime = draw(st.lists(st.integers(0, space.size - 1),
                                  min_size=2, max_size=2))
        return BigramDeviationEvent.make(
            j, jprime, draw(st.builds(Fraction, st.integers(1, 3),
                                      st.integers(4, 12))))
    reference = draw(st.lists(weights_st, min_size=space.size,
                              max_size=space.size))
    total = sum(reference)
    return FrequencyDeviationEvent.make(
        draw(st.builds(Fraction, st.integers(1, 3), st.integers(4, 12))),
        [r / total for r in reference])


@st.composite
def size_lists(draw, space, constraint):
    """Ascending sizes in 1..SIZE_MAX with at least one infeasible size,
    whose last size is infeasible when the draw says so and one exists."""
    feasible = set(feasible_sizes(space, constraint, SIZE_MAX))
    infeasible = sorted(set(range(1, SIZE_MAX + 1)) - feasible)
    assume(infeasible)
    sizes = set(draw(st.lists(st.integers(1, SIZE_MAX), min_size=1,
                              max_size=4)))
    sizes.add(draw(st.sampled_from(infeasible)))
    if draw(st.booleans()):  # an infeasible last size
        sizes = {n for n in sizes if n < infeasible[-1]} | {infeasible[-1]}
    return sorted(sizes)


def _exact(value):
    """A value in a form that compares exactly: its type, and a float by its
    bits."""
    return type(value), value.hex() if isinstance(value, float) else value


def _masses(result):
    return [_exact(result.prob_event), _exact(result.prob_joint),
            _exact(result.prob_constraint)]


@settings(max_examples=120, deadline=None)
@given(problems(), st.sampled_from([FLOAT, EXACT]), st.data())
def test_series_matches_each_size(problem, mode, data):
    space, constraint = problem
    event = data.draw(events(space))
    sizes = data.draw(size_lists(space, constraint))
    measure = "q"
    if data.draw(st.booleans()):
        measure = ("tilt", data.draw(st.lists(weights_st, min_size=space.size,
                                              max_size=space.size)))
    full = conditional_event_series(space, constraint, event, sizes, measure,
                                    mode, False)
    cut = conditional_event_series(space, constraint, event, sizes, measure,
                                   mode, True)
    assert [r.n for r in full] == [r.n for r in cut] == sizes
    for n, whole, at_target in zip(sizes, full, cut):
        want = conditional_event_prob(space, constraint, event, n,
                                      measure=measure, mode=mode)
        assert _masses(whole) == _masses(want)
        assert at_target.prob_event is None
        assert _masses(at_target)[1:] == _masses(want)[1:]


def _die():
    space = build_space([1, 2, 3, 4, 5, 6], [1] * 6)
    return space, derive_lattice([[x] for x in range(1, 7)], ["9/2"])


def _wide_pad():
    space = build_space([0, 1, 2, 3], [1, 2, 3, 4])
    return space, derive_lattice([[x, x * x] for x in range(4)],
                                 ["7/4", "15/4"])


@pytest.mark.parametrize("problem,n_list", [
    (_die, [2, 3, 6, 7]),         # feasible at even sizes only
    (_wide_pad, [4, 6, 8, 10]),   # feasible at multiples of 4
], ids=["die", "wide-pad"])
@pytest.mark.parametrize("mode", [FLOAT, EXACT], ids=str)
def test_concentration_reads_each_size_of_one_series(problem, n_list, mode):
    space, constraint = problem()
    solution = solve_maxent(space, constraint)
    size = space.size
    events = [
        BoxEvent.make([[x % 2] for x in range(size)], ["1/3"], ["2/3"]),
        BigramDeviationEvent.make(space.outcomes[1], space.outcomes[0], "1/5"),
        FrequencyDeviationEvent.make("1/5", solution.pmf),
    ]
    report = concentration_constants(space, constraint, solution, n_list,
                                     events=events, mode=mode)
    assert not report.records[-1].feasible
    for record in report.records:
        if not record.feasible:
            assert record.events == ()
            continue
        k = constraint.dim
        for event, check in zip(events, record.events, strict=True):
            under_q = conditional_event_prob(space, constraint, event,
                                             record.n, measure="q", mode=mode)
            under_p = conditional_event_prob(space, constraint, event,
                                             record.n, measure=solution)
            rhs = record.n ** (-k / 2.0) * record.c_n * float(under_q.conditional)
            assert check.conditional_q.hex() == float(under_q.conditional).hex()
            assert check.prob_maxent.hex() == float(under_p.prob_event).hex()
            assert check.slack_item1.hex() == \
                (float(under_p.prob_event) - rhs).hex()
            assert check.residual_item2.hex() == \
                (float(under_p.prob_joint) - rhs).hex()


def _block_steps(block, monkeypatch, tmp_path):
    """``_sparse_step`` calls of one events-exact seed-1 block, run alone."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    config, = workloads.generate("events-exact", 1)
    blocks = [b for b in config["experiments"] if b["kind"] == "concentrate"
              and b["events"][0]["type"] == block]
    calls = []
    step = conditional._sparse_step

    def counted(table, moves):
        calls.append(len(table))
        return step(table, moves)

    monkeypatch.setattr(conditional, "_sparse_step", counted)
    run_config({**config, "experiments": blocks}, tmp_path)
    return len(calls)


@pytest.mark.parametrize("block,steps", [("box", 2 * 16), ("bigram_deviation", 2 * 12)])
def test_one_sweep_per_measure(block, steps, monkeypatch, tmp_path):
    # sizes 4, 8, 12, 16 (box) and 4, 8, 12 (bigram): one DP to the last
    # size under each measure, where a DP per size took 2 * (4 + 8 + 12 + 16)
    # and 2 * (4 + 8 + 12) steps
    assert _block_steps(block, monkeypatch, tmp_path) == steps
