"""Acceptance suite: every shipped claim checked at its stated tolerance.

Each test prints one verdict line (visible with ``pytest -s`` or on failure).
Run: ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from maxent_lab import (
    FrequencyDeviationEvent,
    SumTableProvider,
    concentration_constants,
    conditional_event_prob,
    conditional_marginal,
    constraint_prob,
    convolve,
    corollary1_residuals,
    derive_lattice,
    enumerate_oracle,
    feasible_sizes,
    hypercompression_check,
    mixture_gap_series,
    mixture_predictor,
    rational_tilt,
    recurrence_simulation,
    rissanen_prior,
    solve_maxent,
    sum_distribution,
    verify_minimax_constancy,
)
from maxent_lab.config import load_config
from maxent_lab.fixtures import fixture_names, load_fixture
from maxent_lab.sumdist import EXACT

from conftest import BRANDEIS_MASSES, fold_last


def _verdict(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {status} {name}{tail}")
    assert ok, f"criterion {number} failed{tail}"


def _fixture_problems():
    for name in fixture_names():
        config = load_config(load_fixture(name))
        yield name, config.problem.build()


def test_c01_brandeis_regression(dice, dice_constraint):
    start = time.perf_counter()
    solution = solve_maxent(dice, dice_constraint)
    elapsed = time.perf_counter() - start
    errors = np.abs(solution.pmf - np.array(BRANDEIS_MASSES))
    _verdict(1, "Brandeis regression", errors.max() < 1e-4 and elapsed < 1.0,
             f"max mass error {errors.max():.2e}, {elapsed:.3f}s")


def test_c02_trivial_projection():
    worst_beta, worst_mass = 0.0, 0.0
    for name, (space, constraint) in _fixture_problems():
        target = [sum(w * row[j] for w, row in
                      zip(space.prior_fractions, constraint.values))
                  for j in range(constraint.dim)]
        trivial = derive_lattice(constraint.values, target)
        solution = solve_maxent(space, trivial)
        worst_beta = max(worst_beta, float(np.abs(solution.beta).max()))
        worst_mass = max(worst_mass,
                         float(np.abs(solution.pmf - space.prior).max()))
    _verdict(2, "trivial projection on all fixtures",
             worst_beta < 1e-8 and worst_mass < 1e-10,
             f"max |beta| {worst_beta:.2e}, max mass dev {worst_mass:.2e}")


def test_c03_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    for name, (space, constraint) in _fixture_problems():
        for n in feasible_sizes(space, constraint, 10):
            if space.size ** n > 10 ** 7:
                continue
            oracle = enumerate_oracle(space, constraint, n)
            dp = constraint_prob(space, constraint, n)
            worst = max(worst, abs(dp - float(oracle.prob_constraint))
                        / float(oracle.prob_constraint))
            if n >= 2:
                marginal = conditional_marginal(
                    SumTableProvider(space, constraint, n), 1, n)
                for key, mass in oracle.marginal(1).items():
                    got = float(marginal.masses[key])
                    worst = max(worst, abs(got - float(mass)) / float(mass))
            checked += 1
    elapsed = time.perf_counter() - start
    _verdict(3, "oracle equivalence, feasible n <= 10",
             worst < 1e-12 and elapsed < 30.0,
             f"{checked} (fixture, n) pairs, worst rel err {worst:.2e}, "
             f"{elapsed:.1f}s")


def test_c04_theorem1_equality(dice, dice_constraint, coin, coin_constraint,
                               pair, pair_constraint, dice_solution):
    # rational mode: exact zero slack with a rational exponential-family member
    exact_ok = True
    cases = [
        (dice, dice_constraint, [Fraction(3, 4)]),
        (coin, coin_constraint, [Fraction(2, 5)]),
        (pair, pair_constraint, [Fraction(2, 3), Fraction(5, 4)]),
    ]
    for space, constraint, ratios in cases:
        tilt = ("tilt", rational_tilt(space, constraint, ratios))
        event = FrequencyDeviationEvent.make(
            Fraction(1, 4), [Fraction(1, space.size)] * space.size)
        for n in range(1, 11):
            under_p = conditional_event_prob(space, constraint, event, n,
                                             measure=tilt, mode=EXACT)
            under_q = conditional_event_prob(space, constraint, event, n,
                                             measure="q", mode=EXACT)
            if under_q.prob_constraint == 0:
                continue
            exact_ok &= (under_p.prob_joint * under_q.prob_constraint ==
                         under_p.prob_constraint * under_q.prob_joint)
    # float mode: slack within 1e-12 using the true projection
    event = FrequencyDeviationEvent.make(Fraction(3, 10),
                                         list(dice_solution.pmf))
    report = concentration_constants(dice, dice_constraint, dice_solution,
                                     list(range(2, 11, 2)), events=[event])
    float_worst = max(abs(check.residual_item2)
                      for record in report.records if record.feasible
                      for check in record.events)
    _verdict(4, "concentration equality for events inside the constraint set",
             exact_ok and float_worst <= 1e-12,
             f"rational exact: {exact_ok}, float slack {float_worst:.2e}")


def test_c05_cn_limit(coin, coin_constraint, coin_solution):
    start = time.perf_counter()
    report = concentration_constants(coin, coin_constraint, coin_solution,
                                     [100, 1000])
    elapsed = time.perf_counter() - start
    limit = report.limit_value
    r100, r1000 = report.records
    rel = abs(r1000.c_n - limit) / limit
    monotone = abs(r1000.d_n - 1) < abs(r100.d_n - 1)
    _verdict(5, "coin c_n limit and d_n convergence",
             rel < 0.02 and monotone and elapsed < 10.0
             and abs(limit - math.sqrt(2 / math.pi)) < 1e-12,
             f"c_1000 off by {rel:.4%}, |d-1|: {abs(r100.d_n-1):.2e} -> "
             f"{abs(r1000.d_n-1):.2e}, {elapsed:.2f}s")


def test_c06_corollary1(dice, dice_constraint, dice_solution):
    start = time.perf_counter()
    records = corollary1_residuals(dice, dice_constraint, dice_solution,
                                   [2, 10, 100, 500, 2000])
    elapsed = time.perf_counter() - start
    identity_worst = max(abs(r.residual_direct - r.residual_identity)
                         for r in records)
    final = abs(records[-1].residual_direct)
    _verdict(6, "corollary-1 residual identity and decay",
             identity_worst <= 1e-9 and final < 0.05 and elapsed < 60.0,
             f"identity dev {identity_worst:.2e}, |residual(2000)| "
             f"{final:.4f} bits, {elapsed:.1f}s")


def test_c07_conditional_limit(dice, dice_constraint, dice_solution):
    provider = SumTableProvider(dice, dice_constraint, 200)
    tvs = [conditional_marginal(provider, 1, n).tv_to_product(dice_solution.pmf)
           for n in (2, 10, 50, 200)]
    decreasing = all(b < a for a, b in zip(tvs, tvs[1:]))
    _verdict(7, "conditional limit in total variation",
             decreasing and tvs[-1] < 0.01,
             "TV " + " > ".join(f"{tv:.5f}" for tv in tvs))


def test_c08_minimax_constancy(coin, coin03_constraint, coin03_solution):
    report = verify_minimax_constancy(coin, coin03_constraint,
                                      coin03_solution, 10)
    _verdict(8, "per-symbol redundancy constant on the constraint set",
             report.sequence_count == 120
             and report.max_abs_deviation <= 1e-10
             and report.constant == coin03_solution.closed_entropy_bits,
             f"{report.sequence_count} sequences, max dev "
             f"{report.max_abs_deviation:.2e}")


def test_c09_mixture_beats_projection_k3(cube3, cube3_constraint,
                                         cube3_solution):
    start = time.perf_counter()
    records = mixture_gap_series(cube3, cube3_constraint, cube3_solution,
                                 rissanen_prior(150), n_max=200, horizon=300)
    elapsed = time.perf_counter() - start
    late = [r for r in records if r.n >= 20]
    all_positive = all(r.gap_bits > 0 for r in late)
    ratio_floor = min(r.gap_per_log2n for r in late)
    _verdict(9, "k=3 mixture gap positive with log-n growth",
             all_positive and ratio_floor > 0 and elapsed < 300.0,
             f"min gap {min(r.gap_bits for r in late):.4f} bits, "
             f"gap/log2 n >= {ratio_floor:.4f}, {elapsed:.0f}s")


def _binomial_visit_sum(steps):
    total, term = 0.0, 1.0
    for m in range(1, steps // 2 + 1):
        term *= (2 * m - 1) / (2 * m)
        total += term
    return total


def test_c10_recurrence_dichotomy(coin_solution, coin_constraint,
                                  cube3_solution, cube3_constraint):
    start = time.perf_counter()
    coin_run = recurrence_simulation(coin_solution, coin_constraint,
                                     steps=100_000, reps=200, seed=20240200,
                                     checkpoints=(10_000, 100_000))
    cube_run = recurrence_simulation(cube3_solution, cube3_constraint,
                                     steps=100_000, reps=50, seed=20240300,
                                     checkpoints=(10_000, 100_000))
    elapsed = time.perf_counter() - start
    oracle = _binomial_visit_sum(100_000)
    rel = abs(coin_run.mean_visits[1] - oracle) / oracle
    coin_growth = coin_run.mean_visits[1] - coin_run.mean_visits[0]
    cube_growth = cube_run.mean_visits[1] - cube_run.mean_visits[0]
    _verdict(10, "recurrence dichotomy k=1 vs k=3",
             rel < 0.10 and cube_growth < 1.0 and coin_growth > 100.0
             and elapsed < 120.0,
             f"coin visits {coin_run.mean_visits[1]:.1f} vs oracle "
             f"{oracle:.1f} ({rel:.2%}), growth coin {coin_growth:.1f} / "
             f"cube {cube_growth:.3f}, {elapsed:.0f}s")


def test_c11_no_hypercompression():
    worst_excess = -math.inf
    for name, (space, constraint) in _fixture_problems():
        solution = solve_maxent(space, constraint)
        for j, k_bits in enumerate((1.0, 5.0, 10.0)):
            result = hypercompression_check(space, solution, n=100,
                                            k_bits=k_bits, samples=100_000,
                                            seed=9000 + j)
            worst_excess = max(worst_excess,
                               result.frequency - (result.bound
                                                   + 3 * result.sigma))
    _verdict(11, "no-hypercompression bound on all fixtures",
             worst_excess <= 0,
             f"worst frequency minus (bound + 3 sigma): {worst_excess:.2e}")


def test_c12_property_suites(dice, dice_constraint, coin, coin_constraint,
                             pair, pair_constraint):
    ok = True
    notes = []

    # prefix consistency, exact, exhaustive to length 6
    mixture = mixture_predictor(
        SumTableProvider(coin, coin_constraint, 6, mode=EXACT),
        rissanen_prior(3))
    for m in range(1, 7):
        total = sum(math.prod(mixture.masses(seq))
                    for seq in itertools.product(range(2), repeat=m))
        ok &= total == 1
    notes.append("prefix")

    # convolution consistency, exact
    for n1, n2 in ((1, 2), (3, 3), (2, 4)):
        a = sum_distribution(dice, dice_constraint, n1, mode=EXACT)
        b = sum_distribution(dice, dice_constraint, n2, mode=EXACT)
        direct = sum_distribution(dice, dice_constraint, n1 + n2,
                                  mode=EXACT)
        ok &= dict(convolve(a, b).items()) == dict(direct.items())
    notes.append("convolution")

    # tower property, exact
    exact = SumTableProvider(dice, dice_constraint, 6, mode=EXACT)
    larger = conditional_marginal(exact, 2, 6)
    smaller = conditional_marginal(exact, 1, 6)
    ok &= fold_last(larger.masses) == smaller.masses
    notes.append("tower")

    # span maximality by direct containment check
    for values in ([[1], [2], [3], [4], [5], [6]], [[2], [5], [8]],
                   [[0], [6], [10]]):
        cons = derive_lattice(values, [values[1][0]])
        scaled = [int(v[0] * cons.scale[0]) for v in cons.values]
        span = cons.spans[0]
        for h_prime in range(span + 1, max(scaled) - min(scaled) + 2):
            ok &= not all((v - min(scaled)) % h_prime == 0 for v in scaled)
    notes.append("span-maximality")

    # feasibility closure
    for space, cons in ((dice, dice_constraint), (pair, pair_constraint)):
        sizes = set(feasible_sizes(space, cons, 24))
        ok &= all(a + b in sizes for a in sizes for b in sizes if a + b <= 24)
    notes.append("closure")

    _verdict(12, "property suites", ok, ", ".join(notes))
