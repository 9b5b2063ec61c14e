"""Seeded config generators for the four benchmark workloads.

Every generator returns a list of maxent-lab config dicts (one per op). The
seed varies values only, never lattice shapes, sample sizes or experiment
lists, so every seed asks for the same amount of work.

- ``many-small`` draws random problems (prior weights and target numerators
  from the seed, shapes from a fixed stream). They are valid by construction:
  statistic rows are affinely independent and targets are strictly interior
  and lattice-feasible, so any rejection is the program's fault. Failing
  problems are kept and counted; seeds are never redrawn.
- The single-problem workloads use the shipped fixture problems (the ``cube3``
  cube and the ``brandeis`` die), which the program solves. Seeded priors
  there would make whole runs fail on the dual line-search stall of ROADMAP
  item 1 (13 of the first 40 seeds of a die with prior weights 1..4 and
  target 17/4; the uniform die at 17/4 fails too), and a failed run measures
  nothing; ``many-small`` measures that defect. Their seed varies the
  simulation seed and the event bounds, which change values, not work.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product

# many-small draws problem shapes from this fixed stream and values from the
# workload seed, so the shape mix (and the work) is the same on every seed.
SHAPE_SEED = 20260101
MANY_SMALL_COUNT = 100


def _weights(rng: random.Random, size: int) -> list[str]:
    return [str(rng.randint(1, 4)) for _ in range(size)]


def gaps_k3(seed: int) -> list[dict]:
    """The cube {0,1}^3 with target (1/2,1/2,1/2): the paper's k >= 3 case."""
    bits = ["".join(b) for b in product("01", repeat=3)]
    return [{
        "problem": {
            "outcomes": bits,
            "prior": ["1/8"] * 8,
            "T": [[b[j] for b in bits] for j in range(3)],
            "target": ["1/2", "1/2", "1/2"],
        },
        "mode": "float",
        "experiments": [
            {"kind": "solve"},
            {"kind": "game", "mode": "gaps", "n_max": 100, "horizon": 100,
             "j_max": 150, "alpha": 0.95},
            {"kind": "recur", "steps": 100000, "reps": 10, "seed": seed,
             "checkpoints": [10000, 100000]},
        ],
    }]


FACES = [str(x) for x in range(1, 7)]
DIE = {"outcomes": FACES, "prior": ["1/6"] * 6, "T": [FACES], "target": ["9/2"]}
FREQ_EVENT = {"type": "freq_deviation", "epsilon": "1/5", "reference": "maxent"}


def _die_events(seed: int) -> tuple[dict, dict]:
    """Box and bigram events with seeded bounds. The counted faces {2, 3, 5}
    and the watched pair (4, 1) are fixed: they set the states of the joint
    event DPs, and other faces gave up to twice the work. The box bounds and
    the bigram epsilon only decide which final states count."""
    rng = random.Random(seed)
    box = {"type": "box",
           "statistic": [["1" if f in ("2", "3", "5") else "0" for f in FACES]],
           "lower": [str(Fraction(rng.randint(1, 2), 6))],
           "upper": [str(Fraction(rng.randint(4, 5), 6))]}
    bigram = {"type": "bigram_deviation", "j": "4", "jprime": "1",
              "epsilon": rng.choice(["1/5", "1/4", "1/3"])}
    return box, bigram


def events_float(seed: int) -> list[dict]:
    """The die in float mode: the event-DP bottleneck of the coin fixture."""
    box, bigram = _die_events(seed)
    return [{
        "problem": DIE,
        "mode": "float",
        "experiments": [
            {"kind": "solve"},
            {"kind": "concentrate", "n_list": [4, 8, 40, 100, 160], "tv_m": 2,
             "events": [FREQ_EVENT]},
            {"kind": "concentrate", "n_list": [4, 8, 16], "events": [box]},
            {"kind": "concentrate", "n_list": [4, 8, 12], "events": [bigram]},
            {"kind": "condlimit", "m": 3, "n_list": [4, 40, 120, 400]},
            {"kind": "corollary1", "n_list": [4, 40, 400, 1000, 3000]},
            {"kind": "game", "mode": "paths", "n_list": [4, 8, 16, 32, 64],
             "j_max": 16},
        ],
    }]


def events_exact(seed: int) -> list[dict]:
    """The same die in rational mode: Fraction DPs and sparse sum tables."""
    box, bigram = _die_events(seed)
    return [{
        "problem": DIE,
        "mode": "rational",
        "experiments": [
            {"kind": "solve"},
            {"kind": "concentrate", "n_list": [4, 8, 16, 24],
             "events": [FREQ_EVENT]},
            {"kind": "concentrate", "n_list": [4, 8, 12, 16], "events": [box]},
            {"kind": "concentrate", "n_list": [4, 8, 12], "events": [bigram]},
            {"kind": "condlimit", "m": 2, "n_list": [4, 24, 48, 72]},
        ],
    }]


def affinely_independent(rows: list[list[int]]) -> bool:
    """True when the rows of [T; 1] are linearly independent (exact rank)."""
    m = [[Fraction(v) for v in row] for row in rows] + \
        [[Fraction(1)] * len(rows[0])]
    rank = 0
    cols = len(m[0])
    for c in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c] != 0:
                f = m[r][c] / m[rank][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank == len(m)


def period(t_rows, counts) -> int:
    """Smallest n whose multiples are the feasible sizes of the target
    sum_i counts_i T(x_i) / sum_i counts_i: the lcm of the denominators of the
    target's per-step drift in lattice units ((t_j - min_j) / span_j)."""
    d = sum(counts)
    out = 1
    for row in t_rows:
        low = min(row)
        span = math.gcd(*(v - low for v in row))
        drift = Fraction(sum(c * (v - low) for c, v in zip(counts, row)),
                         d * span)
        out = math.lcm(out, drift.denominator)
    return out


def small_shapes(count: int = MANY_SMALL_COUNT) -> list[tuple]:
    """Fixed (size, T, D) shapes for many-small, independent of the seed.

    Problems with k = 3 use D = 8. A shape is kept only if some target of
    denominator D has feasible sizes exactly the multiples of D (checked on
    the composition 1, ..., 1, D - |X| + 1), so every seed can draw one."""
    rng = random.Random(SHAPE_SEED)
    shapes = []
    while len(shapes) < count:
        size = rng.randint(2, 8)
        k = rng.randint(1, min(3, size - 1))
        t_rows = [[rng.randint(0, 2) for _ in range(size)] for _ in range(k)]
        d = rng.choice((8, 10, 12))
        if k == 3:
            # k = 3 lattices grow as D^3; at D = 12 one problem takes a tenth
            # of the process, so whether it fails would move the metrics
            d = 8
        if affinely_independent(t_rows) and \
                period(t_rows, [1] * (size - 1) + [d - size + 1]) == d:
            shapes.append((size, t_rows, d))
    return shapes


def _composition(rng: random.Random, total: int, parts: int) -> list[int]:
    """Uniform random composition of ``total`` into ``parts`` parts >= 1."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    bounds = [0] + cuts + [total]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def small_problem(rng: random.Random, size: int, t_rows, d: int) -> dict:
    """One many-small config: target sum_i c_i/D T(x_i) with every c_i >= 1,
    so it is strictly interior and feasible at n = D. Compositions are drawn
    until the feasible sizes are exactly the multiples of D, so the seed
    never changes them (a property of the draw, not of the program)."""
    c = _composition(rng, d, size)
    while period(t_rows, c) != d:
        c = _composition(rng, d, size)
    target = [str(sum(Fraction(ci, d) * row[i] for i, ci in enumerate(c)))
              for row in t_rows]
    return {
        "problem": {
            "outcomes": [f"x{i}" for i in range(size)],
            "prior": _weights(rng, size),
            "T": [[str(v) for v in row] for row in t_rows],
            "target": target,
        },
        "mode": "float",
        "experiments": [
            {"kind": "solve"},
            {"kind": "corollary1", "n_list": [d, 2 * d]},
            {"kind": "game", "mode": "paths", "n_list": [d, 2 * d], "j_max": 4},
            {"kind": "hypercomp", "n": 50, "K": [1, 5], "samples": 2000,
             "seed": rng.randint(0, 2 ** 31 - 1)},
        ],
    }


def many_small(seed: int) -> list[dict]:
    """Small random problems run back to back in one process."""
    rng = random.Random(seed)
    return [small_problem(rng, size, t_rows, d)
            for size, t_rows, d in small_shapes()]


GENERATORS = {
    "gaps-k3": gaps_k3,
    "events-float": events_float,
    "events-exact": events_exact,
    "many-small": many_small,
}

WORKLOADS = tuple(GENERATORS)


def generate(workload: str, seed: int) -> list[dict]:
    return GENERATORS[workload](seed)
