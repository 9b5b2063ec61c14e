"""A sum-table provider keeps only the cells of its horizon window.

``SumTableProvider`` cuts each table to ``lattice._window`` at its horizon H.
Every cell that a conditioned predictor, a mixture of them or a conditioned
marginal of a size <= H reads lies in that window, so a provider at H and one
at a larger horizon give the same numbers bit for bit: equal floats, or equal
``Fraction``s in rational mode. Constraint sequences come from brute force and
the sizes scored from the unwindowed reachability sweep, so only the
provider's tables depend on the window; the mixture finds its sizes in the
provider, so its prior counts only the sizes up to H. A window narrowed by
one cell on either side must break the agreement.
"""

import math
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from maxent_lab import (
    SumTableProvider,
    conditional_marginal,
    conditioned_prior_predictor,
    feasible_sizes,
    lattice,
    mixture_predictor,
    rissanen_prior,
)
from maxent_lab.errors import ValidationError
from maxent_lab.sumdist import FLOAT

from test_window import _exact, _narrowed, problems


def _constraint_sequences(space, constraint, n):
    center = constraint.center_units(n)
    return [seq for seq in product(range(space.size), repeat=n)
            if center is not None and tuple(
                sum(constraint.units[i][j] for i in seq)
                for j in range(constraint.dim)) == center]


def _scores(provider, horizon):
    """Every number the provider's readers give up to ``horizon``: per
    feasible size n, the conditioned prior's and the mixture's mass and
    codelength on each constraint sequence of size n, and every
    conditioned marginal mass of the first m < n symbols."""
    space, constraint = provider.space, provider.constraint
    sizes = feasible_sizes(space, constraint, horizon) if horizon else []
    mixture = mixture_predictor(provider, rissanen_prior(min(3, len(sizes)))) \
        if sizes else None
    out = []
    for n in sizes:
        conditioned = conditioned_prior_predictor(provider, n)
        for seq in _constraint_sequences(space, constraint, n):
            for predictor in (conditioned, mixture):
                out.append((n, seq, _exact(math.prod(predictor.masses(seq))),
                            _exact(predictor.sequence_codelength(seq))))
        for m in range(1, n):
            marginal = conditional_marginal(provider, m, n)
            out.append((n, m, sorted((prefix, _exact(mass)) for prefix, mass
                                     in marginal.masses.items())))
    return out


def _agree(problem, horizon, extra):
    space, constraint, measure, mode = problem
    cut, wider = (SumTableProvider(space, constraint, h, measure=measure,
                                   mode=mode)
                  for h in (horizon, horizon + extra))
    assert _scores(cut, horizon) == _scores(wider, horizon)


@settings(max_examples=60, deadline=None)
@given(problems(), st.integers(0, 4), st.integers(1, 3))
def test_provider_at_its_horizon_equals_a_wider_provider(problem, horizon,
                                                         extra):
    _agree(problem, horizon, extra)


def test_a_size_past_the_horizon_is_refused(dice, dice_constraint):
    provider = SumTableProvider(dice, dice_constraint, 4)
    assert provider.table(4).mass_at_target() > 0
    with pytest.raises(ValidationError):
        provider.table(5)
    with pytest.raises(ValidationError):
        conditioned_prior_predictor(provider, 6)


@pytest.mark.parametrize("side", ["lo", "hi"])
def test_a_narrowed_provider_window_is_caught(side, monkeypatch, coin,
                                              coin_constraint, dice,
                                              dice_constraint):
    # the fair coin at 1/2 and the die at 9/2: targets on the lattice at
    # every even size, so both window edges are read
    monkeypatch.setattr(lattice, "_window", _narrowed(side))
    for space, constraint in ((coin, coin_constraint), (dice, dice_constraint)):
        with pytest.raises((AssertionError, ValidationError)):
            _agree((space, constraint, "q", FLOAT), 4, 1)
