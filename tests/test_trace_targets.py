"""The benchmark's tracer wraps package functions by name and reads some of
their arguments by position (``perfbench/tracing.py``). A rename or a
reordered signature would break ``perfbench/run.py --trace 1`` without any
package test noticing, so this checks every traced name against the package.
"""

import importlib
import inspect
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from tracing import TRACED  # noqa: E402

TARGETS = [(module, path) for entries in TRACED.values()
           for module, path in entries]

# leading parameters the tracer reads by position, per traced attribute, and
# the ones the benchmark's self-tests pass by position
POSITIONAL = {
    "feasible_sizes": ["space", "constraint", "n_max"],
    "first_feasible_sizes": ["space", "constraint", "count"],
    "_dense_step": ["table", "shape_new", "cells"],
    "_reach_step": ["reach", "shape_new", "unit_cells"],
    "_initial": ["constraint", "measure_id", "mode"],
    "min_hit_cost_series": ["constraint", "costs", "n_max"],
    "_freq_event": ["space", "constraint", "event", "n", "weights", "mode"],
    "_box_event": ["space", "constraint", "event", "n", "weights", "mode"],
    "_bigram_event": ["space", "constraint", "event", "n", "weights", "mode"],
    "Predictor.sequence_codelength": ["self", "sequence"],
    "SumTableProvider.table": ["self", "m"],
}


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(f"maxent_lab.{module_name}")
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("module_name,path", TARGETS,
                         ids=[f"{m}.{p}" for m, p in TARGETS])
def test_traced_name_resolves(module_name, path):
    target = _resolve(module_name, path)
    assert callable(target)
    if path in POSITIONAL:
        params = list(inspect.signature(target).parameters)
        assert params[:len(POSITIONAL[path])] == POSITIONAL[path]


def test_traced_sum_table_cache():
    # the tracer counts provider hits by reading this list's length
    from maxent_lab import SumTableProvider, build_space, derive_lattice
    provider = SumTableProvider(build_space([0, 1], [1, 1]),
                                derive_lattice([[0], [1]], ["1/2"]), 3)
    provider.table(3)
    assert len(provider._tables) == 4


# installing the tracer rebinds package functions for good, so it runs in a
# fresh interpreter
EVENTS_SNIPPET = textwrap.dedent("""
    import json, sys
    sys.path[:0] = [{src!r}, {bench!r}]
    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
    from maxent_lab import (BigramDeviationEvent, BoxEvent, build_space,
                            conditional_event_prob, derive_lattice)
    from maxent_lab.sumdist import EXACT, FLOAT
    die = build_space([1, 2, 3, 4, 5, 6], [1] * 6)
    at_9_2 = derive_lattice([[x] for x in range(1, 7)], ["9/2"])
    box = BoxEvent.make([[x * x] for x in range(1, 7)], [10], [20])
    bigram = BigramDeviationEvent.make(1, 6, "1/10")
    for mode in (FLOAT, EXACT):
        for event in (box, bigram):
            conditional_event_prob(die, at_9_2, event, 6, mode=mode)
    print(json.dumps({{"spans": sorted(tracer.spans),
                      "steps": tracer.calls("sumdist._sparse_step"),
                      "peak": tracer.peak_table_cells}}))
""")


def test_event_dps_traced():
    code = EVENTS_SNIPPET.format(src=str(ROOT / "src"),
                                 bench=str(ROOT / "perfbench"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    traced = json.loads(out.stdout.strip().splitlines()[-1])
    for kind in ("box", "bigram"):
        for mode in ("float", "rational"):
            assert f"conditional.{kind}.{mode}" in traced["spans"]
    # every step of both events, n = 6 each, is the one dict step
    assert traced["steps"] == 4 * 6
    assert traced["peak"] > 0
