"""One measured benchmark process: generate the workload's configs, run each
through the CLI entry point, and write per-op timings to a JSON file.

    python3 perfbench/child.py --workload NAME --seed N --outdir DIR \
        --result FILE [--trace]

Every op is ``maxent_lab.cli.main(["run", "-c", cfg, "-o", out])``: config
validation, ``run_config``, CSV/summary/manifest writing and the exit-code
mapping, exactly as a user runs it. The time from process start to the first
op (interpreter start, ``import maxent_lab``, input generation) is the
set-up time; the parent reads it from the ``first_op`` monotonic stamp.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def run_op(main, cfg_path: Path, out_dir: Path) -> tuple[str, str]:
    """Run one config through the CLI; returns (status, first stderr line).

    Status is ``ok``, ``exit<code>`` for a non-zero exit code, or
    ``uncaught:<ExceptionType>`` for an exception that escaped the CLI.
    """
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(["run", "-c", str(cfg_path), "-o", str(out_dir)])
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an escaped exception is a measured failure
        return f"uncaught:{type(exc).__name__}", str(exc)
    lines = err.getvalue().strip().splitlines() or [""]
    return ("ok" if code == 0 else f"exit{code}"), lines[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    import workloads
    import maxent_lab.cli

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    cfg_paths = []
    for i, cfg in enumerate(workloads.generate(args.workload, args.seed)):
        path = outdir / f"op{i:03d}.json"
        path.write_text(json.dumps(cfg))
        cfg_paths.append(path)

    first_op = time.monotonic()
    ops = []
    for i, cfg_path in enumerate(cfg_paths):
        if tracer is not None:
            tracer.begin_op()
        started = time.perf_counter()
        status, detail = run_op(maxent_lab.cli.main, cfg_path,
                                outdir / f"op{i:03d}")
        ops.append({"wall_s": time.perf_counter() - started,
                    "status": status, "detail": detail})

    result = {"first_op": first_op, "ops": ops}
    if tracer is not None:
        result["layers"] = {name: list(v) for name, v in tracer.metrics().items()}
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
