"""Run-time span tracing of the maxent-lab layers, from the benchmark side.

``Tracer.install`` wraps selected functions of each layer module and rebinds
every reference to them in every loaded ``maxent_lab`` module, because the
package binds names with ``from .x import f``. Each wrapper records a span
(name, duration, time covered by child spans) and, for some functions,
counts computed from the table shapes it is handed ("computed" counts, not
counters inside the program). Spans are aggregated in memory per name.

The orchestrator is serial and no layer queues or waits, so there are no
wait metrics: every span is busy time.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

# layer -> [(module, attribute path)]; methods are written "Class.method".
TRACED = {
    "solver": [("solver", "solve_maxent"), ("solver", "entropy_bits"),
               ("solver", "rational_tilt")],
    "lattice": [("lattice", "build_space"), ("lattice", "derive_lattice"),
                ("lattice", "hull_position"), ("lattice", "feasible_sizes"),
                ("lattice", "first_feasible_sizes"), ("lattice", "_reach_step")],
    "sumdist": [("sumdist", "sum_distribution"), ("sumdist", "central_series"),
                ("sumdist", "constraint_prob"), ("sumdist", "convolve"),
                ("sumdist", "_initial"), ("sumdist", "_dense_step"),
                ("sumdist", "_sparse_step"), ("sumdist", "SumTableProvider.table")],
    "conditional": [("conditional", "conditional_event_prob"),
                    ("conditional", "conditional_marginal"),
                    ("conditional", "_freq_event"), ("conditional", "_box_event"),
                    ("conditional", "_bigram_event")],
    "concentration": [("concentration", "concentration_constants"),
                      ("concentration", "representative_sequence"),
                      ("concentration", "clt_limit")],
    "analysis": [("analysis", "corollary1_residuals"),
                 ("analysis", "mixture_gap_series"),
                 ("analysis", "min_hit_cost_series"),
                 ("analysis", "play_coding_game"),
                 ("analysis", "enumerate_constraint_sequences"),
                 ("analysis", "verify_minimax_constancy")],
    "predictors": [("predictors", "Predictor.sequence_codelength"),
                   ("predictors", "maxent_predictor"),
                   ("predictors", "conditioned_prior_predictor"),
                   ("predictors", "mixture_predictor"),
                   ("predictors", "renewal_compose"),
                   ("priors", "rissanen_prior")],
    "simulate": [("simulate", "recurrence_simulation"),
                 ("simulate", "hypercompression_check"),
                 ("simulate", "hypercompression_exact_prob")],
    "experiments": [("experiments", "run_config"), ("experiments", "_write_csv")],
    "config": [("config", "load_config"), ("config", "validate_config"),
               ("config", "build_event"), ("config", "ProblemConfig.build")],
    "cli": [("cli", "main")],
}

# event DPs are split by arithmetic: conditional.<event>.<mode>
_EVENT_SPANS = {"_freq_event": "freq", "_box_event": "box",
                "_bigram_event": "bigram"}


def dense_sweep_cells(unit_cells: int, unit_max, n_from: int, n_to: int) -> int:
    """Cells a dense sweep touches from size n_from to n_to: each step adds
    every unit cell to every cell of the previous table, so step n costs
    |unit cells| * prod_j((n - 1) * unit_max_j + 1)."""
    return sum(unit_cells * math.prod((n - 1) * m + 1 for m in unit_max)
               for n in range(n_from + 1, n_to + 1))


class Tracer:
    """Aggregated spans and counters for one traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list[float]] = []
        # name -> [calls, inclusive seconds, self seconds]
        self.spans: dict = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict = defaultdict(int)
        self.peak_table_cells = 0
        self._sweep_keys: set = set()

    # -- span recording -------------------------------------------------
    def wrap(self, name: str, fn, namer=None, after=None):
        """Wrap ``fn`` so each call records a span named ``name`` (or
        ``namer(args, kwargs)``) and then runs ``after(args, kwargs, result)``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = namer(args, kwargs) if namer else name
            frame = [0.0]
            tracer.stack.append(frame)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.counts[span + ".failures"] += 1
                raise
            finally:
                elapsed = tracer.clock() - start
                tracer.stack.pop()
                if tracer.stack:
                    tracer.stack[-1][0] += elapsed
                rec = tracer.spans[span]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[0]
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def begin_op(self) -> None:
        """Start of one config run: distinct-sweep keys are per run."""
        self._sweep_keys.clear()

    # -- computed counts ------------------------------------------------
    def _after_dense_step(self, args, kwargs, result):
        table, _, cells = args
        self.counts["sumdist.dense_cells"] += len(cells) * table.size
        self.peak_table_cells = max(self.peak_table_cells, result.size)

    def _after_sparse_step(self, args, kwargs, result):
        self.peak_table_cells = max(self.peak_table_cells, len(result))

    def _after_initial(self, args, kwargs, result):
        constraint, measure_id, mode = args[:3]
        self.counts["sumdist.sweeps"] += 1
        key = (constraint.values, constraint.target, measure_id, mode)
        if key not in self._sweep_keys:
            self._sweep_keys.add(key)
            self.counts["sumdist.distinct_sweeps"] += 1

    def _table_hit(self, fn):
        tracer = self

        def table(provider, m):
            hit = m < len(provider._tables)
            tracer.counts["sumdist.provider_hits" if hit
                          else "sumdist.provider_misses"] += 1
            return fn(provider, m)
        return table

    def _after_reach_step(self, args, kwargs, result):
        reach, _, unit_cells = args
        self.counts["lattice.reach_cells"] += len(unit_cells) * reach.size
        if reach.size == 1:
            self.counts["lattice.reach_sweeps"] += 1

    def _after_min_hit(self, args, kwargs, result):
        constraint, _, n_max = args[:3]
        self.counts["analysis.min_hit_cells"] += dense_sweep_cells(
            len(set(constraint.units)), constraint.unit_max, 0, n_max)

    def _after_solve(self, args, kwargs, result):
        self.counts["solver.newton_iters"] += result.iterations

    def _after_codelength(self, args, kwargs, result):
        self.counts["predictors.symbols"] += len(args[1])

    def _after_recurrence(self, args, kwargs, result):
        self.counts["simulate.draws"] += result.steps * result.reps

    def _after_hypercomp(self, args, kwargs, result):
        self.counts["simulate.draws"] += result.samples * result.n

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        """Wrap every function in ``TRACED`` and rebind all references."""
        import maxent_lab.cli  # noqa: F401  (loads every layer module)

        after = {
            "_dense_step": self._after_dense_step,
            "_sparse_step": self._after_sparse_step,
            "_initial": self._after_initial,
            "_reach_step": self._after_reach_step,
            "min_hit_cost_series": self._after_min_hit,
            "solve_maxent": self._after_solve,
            "Predictor.sequence_codelength": self._after_codelength,
            "recurrence_simulation": self._after_recurrence,
            "hypercompression_check": self._after_hypercomp,
        }
        replaced = {}
        for layer, entries in TRACED.items():
            for module_name, path in entries:
                module = sys.modules[f"maxent_lab.{module_name}"]
                owner, attr = module, path
                if "." in path:
                    cls_name, attr = path.split(".")
                    owner = getattr(module, cls_name)
                original = getattr(owner, attr)
                name = f"{layer}.{attr}"
                namer = None
                if attr in _EVENT_SPANS:
                    kind = _EVENT_SPANS[attr]
                    namer = (lambda args, kwargs, kind=kind:
                             f"conditional.{kind}.{args[5]}")
                wrapped = self.wrap(name, original, namer, after.get(path))
                if path == "SumTableProvider.table":
                    wrapped = self._table_hit(wrapped)
                setattr(owner, attr, wrapped)
                if owner is module:
                    replaced[id(original)] = (original, wrapped)
        # ``from .x import f`` copies the binding: rebind it everywhere.
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "maxent_lab" and not mod_name.startswith("maxent_lab."):
                continue
            for key, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, key, hit[1])

    # -- reporting --------------------------------------------------------
    def layer_self(self, layer: str) -> float:
        return sum(rec[2] for name, rec in self.spans.items()
                   if name.startswith(layer + "."))

    def inclusive(self, *names: str) -> float:
        return sum(self.spans[n][1] for n in names if n in self.spans)

    def self_time(self, *names: str) -> float:
        return sum(self.spans[n][2] for n in names if n in self.spans)

    def calls(self, *names: str) -> int:
        return sum(self.spans[n][0] for n in names if n in self.spans)

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        c = self.counts

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        dense_s = self.inclusive("sumdist._dense_step")
        min_hit_s = self.inclusive("analysis.min_hit_cost_series")
        reach_s = self.inclusive("lattice._reach_step")
        cond_calls = ("conditional.conditional_event_prob",
                      "conditional.conditional_marginal")
        out = {
            "sumdist.self_s": (self.layer_self("sumdist"), "s"),
            "sumdist.dense_cells": (c["sumdist.dense_cells"], "cells"),
            "sumdist.dense_cells_per_s": (rate(c["sumdist.dense_cells"], dense_s),
                                          "cells/s"),
            "sumdist.peak_table_cells": (self.peak_table_cells, "cells"),
            "sumdist.sweeps": (c["sumdist.sweeps"], "count"),
            "sumdist.distinct_sweeps": (c["sumdist.distinct_sweeps"], "count"),
            "sumdist.sparse_self_s": (self.self_time("sumdist._sparse_step",
                                                     "sumdist.convolve"), "s"),
            "sumdist.provider_hits": (c["sumdist.provider_hits"], "count"),
            "sumdist.provider_misses": (c["sumdist.provider_misses"], "count"),
            "analysis.min_hit_s": (min_hit_s, "s"),
            "analysis.min_hit_cells": (c["analysis.min_hit_cells"], "cells"),
            "analysis.min_hit_cells_per_s": (
                rate(c["analysis.min_hit_cells"], min_hit_s), "cells/s"),
            "analysis.self_s": (self.layer_self("analysis"), "s"),
        }
        for kind in ("freq", "box", "bigram"):
            for mode in ("float", "rational"):
                out[f"conditional.{kind}.{mode}_s"] = (
                    self.inclusive(f"conditional.{kind}.{mode}"), "s")
        out.update({
            "conditional.marginal_s": (
                self.inclusive("conditional.conditional_marginal"), "s"),
            "conditional.calls": (self.calls(*cond_calls), "count"),
            "conditional.failures": (
                sum(c[n + ".failures"] for n in cond_calls), "count"),
            "concentration.self_s": (self.layer_self("concentration"), "s"),
            "concentration.representative_s": (
                self.inclusive("concentration.representative_sequence"), "s"),
            "solver.calls": (self.calls("solver.solve_maxent"), "count"),
            "solver.self_s": (self.layer_self("solver"), "s"),
            "solver.newton_iters": (c["solver.newton_iters"], "count"),
            "solver.failures": (c["solver.solve_maxent.failures"], "count"),
            "lattice.self_s": (self.layer_self("lattice"), "s"),
            "lattice.hull_self_s": (self.self_time("lattice.hull_position"), "s"),
            "lattice.reach_cells": (c["lattice.reach_cells"], "cells"),
            "lattice.reach_cells_per_s": (rate(c["lattice.reach_cells"], reach_s),
                                          "cells/s"),
            "lattice.reach_sweeps": (c["lattice.reach_sweeps"], "count"),
            "predictors.self_s": (self.layer_self("predictors"), "s"),
            "predictors.symbols_per_s": (
                rate(c["predictors.symbols"],
                     self.inclusive("predictors.sequence_codelength")), "1/s"),
            "simulate.self_s": (self.layer_self("simulate"), "s"),
            "simulate.draws_per_s": (
                rate(c["simulate.draws"],
                     self.inclusive("simulate.recurrence_simulation",
                                    "simulate.hypercompression_check")), "1/s"),
            "experiments.self_s": (self.layer_self("experiments"), "s"),
            "config.self_s": (self.layer_self("config"), "s"),
            "cli.self_s": (self.layer_self("cli"), "s"),
        })
        return out
