"""Time the shipped fixtures end to end, each run in a fresh interpreter.

    python3 tools/time_fixtures.py [ROOT] [--runs N] [--fixtures NAME,NAME]

ROOT is a checkout with ``src/maxent_lab`` (default: this one). Every run is
``maxent-lab fixtures run NAME -o OUT`` through the command-line entry point
in a child process that imports the package from ROOT's ``src``, writing to a
fresh temporary directory. Wall time is taken around the child from spawn to
exit, and peak RSS is the child's own ``ru_maxrss`` from ``os.wait4``, so
neither includes this process. One more child per fixture, left out of the
timed samples, runs it under ``tracemalloc`` started before the package is
imported and reports the traced peak, which tells what Python allocates from
what the allocator's layout adds to RSS. Runs go fixture by fixture, one at
a time.

Prints one JSON object: per fixture the median wall time and peak RSS over N
runs (at least 3), every sample, the exit codes and the traced peak. Exits 1
when a run exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

FIXTURES = ("brandeis", "brandeis-combined", "coin", "cube3", "two-constraint")
CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); "
         "from maxent_lab.cli import main; sys.exit(main(sys.argv[2:]))")
# CHILD under tracemalloc: the traced peak in bytes is its last stdout line
TRACED_CHILD = ("import sys, tracemalloc; tracemalloc.start(); "
                "sys.path.insert(0, sys.argv[1]); "
                "from maxent_lab.cli import main; code = main(sys.argv[2:]); "
                "print(tracemalloc.get_traced_memory()[1]); sys.exit(code)")


def _command(child: str, root: Path, name: str, tmp: str) -> list[str]:
    return [sys.executable, "-c", child, str(root / "src"),
            "fixtures", "run", name, "-o", str(Path(tmp) / "out")]


def traced_peak(root: Path, name: str) -> float | None:
    """tracemalloc's peak, in MB, of one fixture run traced from before the
    package import, or None when the run exits non-zero."""
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(_command(TRACED_CHILD, root, name, tmp), cwd=tmp,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
    if proc.returncode:
        return None
    return round(int(proc.stdout.split()[-1]) / 1024.0 ** 2, 1)


def time_run(root: Path, name: str) -> tuple[int, float, float]:
    """(exit code, wall seconds, peak RSS in MB) of one fixture run."""
    with tempfile.TemporaryDirectory() as tmp:
        cmd = _command(CHILD, root, name, tmp)
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=tmp, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0


def time_fixtures(root: Path, names, runs: int) -> dict:
    out = {}
    for name in names:
        samples = [time_run(root, name) for _ in range(runs)]
        codes = [code for code, _, _ in samples]
        out[name] = {
            "wall_s": statistics.median(wall for _, wall, _ in samples),
            "peak_rss_mb": statistics.median(rss for _, _, rss in samples),
            "exit_codes": codes,
            "traced_peak_mb": traced_peak(root, name),
            "samples": [{"wall_s": round(wall, 4), "peak_rss_mb": round(rss, 1)}
                        for _, wall, rss in samples],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", nargs="?",
                        default=str(Path(__file__).resolve().parents[1]))
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--fixtures", default=",".join(FIXTURES))
    args = parser.parse_args(argv)
    root = Path(args.root).resolve()
    names = [n for n in args.fixtures.split(",") if n]
    if args.runs < 3:
        parser.error("--runs must be at least 3: the report is a median")
    if not (root / "src" / "maxent_lab").is_dir():
        parser.error(f"{root}: no src/maxent_lab")
    unknown = sorted(set(names) - set(FIXTURES))
    if unknown:
        parser.error(f"unknown fixtures {unknown}; available: {list(FIXTURES)}")
    fixtures = time_fixtures(root, names, args.runs)
    print(json.dumps({
        "root": str(root),
        "runs": args.runs,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "fixtures": fixtures,
    }, indent=2))
    failed = any(code != 0 for f in fixtures.values() for code in f["exit_codes"])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
