"""The benchmark's tracer wraps package functions by name and reads some of
their arguments by position (``perfbench/tracing.py``). A rename or a
reordered signature would break ``perfbench/run.py --trace 1`` without any
package test noticing, so this checks every traced name against the package.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
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
                                derive_lattice([[0], [1]], ["1/2"]))
    provider.table(3)
    assert len(provider._tables) == 4
