"""List the functions and methods of maxent-lab that no shipped run calls.

    python3 tools/uncalled.py

Runs every run of ``tools/compare_outputs.py`` (its ``_runs``: the benchmark
workload configs and the shipped fixtures) through the command-line entry
point, all in this one process under ``cProfile``, then lists each function
and method defined in ``src/maxent_lab`` that none of the runs called, with
its lines. A name stays uncalled on purpose only when ``allowed()`` gives it a
reason: the benchmark's tracer wraps it, the benchmark's check or a CLI
command the runs do not use calls it, or a name of those needs it. A function
defined inside an uncalled allowed one shares its reason. Exits 1 when any
other name is uncalled or a run raises.
"""

from __future__ import annotations

import ast
import contextlib
import cProfile
import io
import os
import pstats
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "maxent_lab"

TRACED_REASON = "wrapped by the benchmark's tracer (perfbench/tracing.py)"
CHECK_REASON = "the benchmark's check (perfbench/check.py) calls it"
# uncalled names outside the tracer's list, as "module.qualified name"
PINNED = {
    "sumdist.SumDistribution._stored": "the traced convolve and "
                                       "SumDistribution.items read it",
    "sumdist.SumDistribution.items": "the support of what the traced "
                                     "sum_distribution and convolve return",
    "predictors.RenewalComposedPredictor.__init__":
        "built by the traced renewal_compose",
    "predictors.RenewalComposedPredictor.masses":
        "scores for the traced renewal_compose",
    "predictors.Predictor.masses": "the abstract method each predictor "
                                   "implements",
    "oracle.enumerate_oracle": CHECK_REASON,
    "oracle.EnumerationOracle.marginal": CHECK_REASON,
    "events.FrequencyDeviationEvent.holds": "the oracle evaluates events "
                                            "with it, for the benchmark's check",
    "events.BoxEvent.holds": "the oracle evaluates events with it, for the "
                             "benchmark's check",
    "events.BigramDeviationEvent.holds": "the oracle evaluates events with "
                                         "it, for the benchmark's check",
    "cli._cmd_solve": "the `solve` command, which no run uses",
    "cli._cmd_validate": "the `validate` command, which no run uses",
    "fixtures.fixture_names": "the `fixtures list` command, which no run uses",
    "config.Diagnostic.__str__": "prints a diagnostic of the `validate` "
                                 "command",
}


def allowed() -> dict[str, str]:
    """Every name that may stay uncalled, with its reason: the tracer's
    entries, read from ``perfbench/tracing.TRACED``, and ``PINNED``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from tracing import TRACED

    names = {f"{module}.{path}": TRACED_REASON
             for entries in TRACED.values() for module, path in entries}
    return {**names, **PINNED}


def definitions() -> dict[tuple[str, int], tuple[str, int]]:
    """Per function or method of the package, keyed by (file, first line,
    counting its decorators) as the profiler keys it: its name as
    "module.qualified name" and its number of lines."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    out[(str(path), first)] = (
                        f"{module}.{prefix}{child.name}",
                        child.end_lineno - first + 1)
                    visit(child, f"{prefix}{child.name}.<locals>.")

        visit(ast.parse(path.read_text()), "")
    return out


def profile_runs() -> tuple[set, dict[str, int]]:
    """(file, first line) of every package function the runs call, and each
    run's exit code, or -1 when it raised."""
    from compare_outputs import _runs

    sys.path.insert(0, str(ROOT / "src"))
    from maxent_lab.cli import main

    profiler = cProfile.Profile()
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "configs").mkdir()
        for name, args in _runs(ROOT, tmp / "configs"):
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                try:
                    codes[name] = profiler.runcall(
                        main, [*args, "-o", str(tmp / "out" / name)])
                except Exception:  # reported, and the tool exits 1
                    print(f"{name} raised:", file=sys.__stderr__)
                    traceback.print_exc(file=sys.__stderr__)
                    codes[name] = -1
    called = {(os.path.realpath(file), line)
              for file, line, _ in pstats.Stats(profiler).stats}
    return called, codes


def main() -> int:
    called, codes = profile_runs()
    reasons = allowed()
    print(f"{len(codes)} runs, exit codes "
          f"{dict(sorted(Counter(codes.values()).items()))}")
    uncalled = sorted(v for k, v in definitions().items() if k not in called)
    names = {name for name, _ in uncalled}
    refused = 0
    for name, size in uncalled:
        outer = name.split(".<locals>.")[0]
        reason = reasons.get(outer) if outer in names else None
        refused += reason is None
        print(f"{name} ({size} lines): {reason or 'NOT ALLOWED'}")
    print(f"{len(uncalled)} uncalled definitions, {refused} not allowed")
    return 1 if refused or -1 in codes.values() else 0


if __name__ == "__main__":
    sys.exit(main())
