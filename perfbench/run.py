"""maxent-lab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/maxent_lab`` must exist). The
load is a closed loop with one client: fresh child processes
(``perfbench/child.py``) run the seeded workload one after another, so set-up
time and peak RSS are per process. The number of processes follows from
``--seconds`` and the workload's nominal process time, not from the clock, so
a seed always gives the same ops and the same failures. Each child's outputs
are digested, the first child's outputs are checked for correctness
(``perfbench/check.py``), and every later child must reproduce its digest op
by op.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` untraced and traced children alternate and it reports the
per-layer metrics of the traced children plus the tracing overhead. Exits
non-zero without a result line when the program source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

CHILD_TIMEOUT_S = 150
RUN_LIMIT_S = 170      # start no child that would push a run past this

# Nominal seconds of one process (start, set-up, ops, exit) on a 2-core
# x86-64 VM, from which a run's process count follows.
PROCESS_S = {
    "gaps-k3": 2.9,
    "events-float": 3.5,
    "events-exact": 4.3,
    "many-small": 5.8,
}
MIN_PROCESSES = 4

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "configs_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def spawn(cmd: list[str], stderr_path: Path) -> tuple[int, float, float]:
    """Run one child to completion; returns (exit code, spawn stamp, peak RSS
    in MB). ``os.wait4`` gives the rusage of exactly this child, the per-child
    form of RUSAGE_CHILDREN."""
    with open(stderr_path, "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, spawned, usage.ru_maxrss / 1024.0


def op_digest(out_dir: Path, status: str) -> str:
    """Digest of an op's status and CSV bodies (floats are written with
    shortest round-trip repr, so reruns of one seed must match byte for byte)."""
    h = hashlib.sha256(status.encode())
    for path in sorted(out_dir.glob("*.csv")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_child(index: int, args, work: Path, traced: bool, n_ops: int) -> dict:
    outdir = work / f"c{index:03d}"
    result_path = work / f"c{index:03d}.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--outdir", str(outdir),
           "--result", str(result_path)] + (["--trace"] if traced else [])
    code, spawned, rss_mb = spawn(cmd, work / f"c{index:03d}.err")
    child = {"traced": traced, "rss_mb": rss_mb, "outdir": outdir,
             "result_path": result_path}
    if code != 0 or not result_path.exists():
        err = (work / f"c{index:03d}.err").read_text(errors="replace")
        print(f"child {index} crashed (exit {code}): {err.strip()[-400:]}")
        child.update(crashed=True, setup_s=None, layers=None,
                     ops=[{"wall_s": 0.0, "status": "uncaught:ChildCrash"}
                          for _ in range(n_ops)])
        return child
    result = json.loads(result_path.read_text())
    child.update(crashed=False, setup_s=result["first_op"] - spawned,
                 ops=result["ops"], layers=result.get("layers"))
    for i, op in enumerate(child["ops"]):
        op["digest"] = op_digest(outdir / f"op{i:03d}", op["status"])
    return child


def check_first(args, child: dict) -> dict | None:
    """Correctness check of one child's outputs in a separate process, so the
    oracle is never timed and never counted in RSS."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "check.py"), "--workload",
             args.workload, "--seed", str(args.seed), "--outdir",
             str(child["outdir"]), "--result", str(child["result_path"])],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("check process timed out")
        return None
    if proc.returncode != 0:
        print(f"check process failed: {proc.stderr.strip()[-400:]}")
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def failure_class(op: dict) -> str:
    """ok, check (outputs failed the check), exit<code> or uncaught."""
    if op.get("check_failed"):
        return "check"
    return "uncaught" if op["status"].startswith("uncaught") else op["status"]


def process_count(workload: str, seconds: float) -> int:
    """Processes in a run of about ``seconds``. It depends on the arguments
    only, never on the clock, so a seed always gives the same ops."""
    return max(MIN_PROCESSES, round(seconds / PROCESS_S[workload]))


def op_medians(children: list[dict]) -> list[float]:
    """Median wall time of each op over the untraced processes. Every process
    runs the same ops, so the median drops a slow spell of one process."""
    runs = [c["ops"] for c in children if not c["traced"] and not c["crashed"]]
    return [statistics.median(op["wall_s"] for op in ops) for ops in zip(*runs)]


def end_to_end(children: list[dict]) -> dict:
    untraced = [c for c in children if not c["traced"] and not c["crashed"]]
    ok = [op["status"] == "ok" for op in untraced[0]["ops"]]
    walls = op_medians(children)
    return {
        "setup_s": statistics.median(c["setup_s"] for c in untraced),
        "wall_s": statistics.fmean(w for w, done in zip(walls, ok) if done),
        "configs_per_s": sum(ok) / sum(walls),
        "peak_rss_mb": statistics.median(c["rss_mb"] for c in untraced),
    }


def latency_line(children: list[dict]) -> str:
    """Per-config latency of completed ops, for reading only: on many-small
    its median moves with the seed-dependent set of failing problems, so it
    is not a bounded metric."""
    lat = sorted(op["wall_s"] for c in children if not c["traced"]
                 for op in c["ops"] if op["status"] == "ok")
    if len(lat) < 2:
        return f"config latency: {len(lat)} sample(s)"
    p90 = statistics.quantiles(lat, n=10)[-1]
    return (f"config latency over {len(lat)} completed configs: "
            f"p50 {statistics.median(lat) * 1e3:.1f} ms, p90 {p90 * 1e3:.1f} ms")


def per_layer(children: list[dict]) -> dict:
    traced = [c for c in children if c["traced"] and not c["crashed"]]
    untraced = [c for c in children if not c["traced"] and not c["crashed"]]
    names = list(traced[0]["layers"])
    out = {name: (statistics.median(c["layers"][name][0] for c in traced),
                  traced[0]["layers"][name][1]) for name in names}
    op_wall = lambda c: sum(op["wall_s"] for op in c["ops"])  # noqa: E731
    out["trace.overhead_s"] = (statistics.median(map(op_wall, traced))
                               - statistics.median(map(op_wall, untraced)), "s")
    for cls in ("exit2", "exit3", "uncaught", "check"):
        name = "check.failed" if cls == "check" else f"cli.{cls}"
        out[name] = (statistics.median(
            sum(failure_class(op) == cls for op in c["ops"])
            for c in children), "count")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "maxent_lab" / "__init__.py").is_file():
        print(f"no program source at {ROOT / 'src' / 'maxent_lab'}",
              file=sys.stderr)
        return 2

    work = ROOT / ".bench_build" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path) -> int:
    # Warm the byte-code and file caches: users pay that once, not per run.
    subprocess.run([sys.executable, "-c",
                    "import sys; sys.path.insert(0, 'src'); "
                    "import maxent_lab.cli, scipy.optimize"],
                   cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)
    n_ops = len(workloads.generate(args.workload, args.seed))
    processes = process_count(args.workload, args.seconds)
    start = time.monotonic()
    children: list[dict] = []
    longest = 0.0
    for index in range(processes):
        # a guard for a very slow host only: it keeps the run within its limit
        if index >= 2 and time.monotonic() - start + longest > RUN_LIMIT_S:
            print(f"stopped after {index} of {processes} processes: time limit")
            break
        traced = bool(args.trace) and index % 2 == 1
        began = time.monotonic()
        children.append(run_child(index, args, work, traced, n_ops))
        longest = max(longest, time.monotonic() - began)

    correct = True
    first = children[0]
    report = None if first["crashed"] else check_first(args, first)
    if report is None:
        correct = False
    else:
        for i, message in report["failures"].items():
            first["ops"][int(i)]["check_failed"] = True
            print(f"check failed, op {i}: {message}")
            correct = False
    for c in children:
        correct = correct and not c["crashed"]
        for i, op in enumerate(c["ops"]):
            # equal digests mean equal outputs, so a failed check carries over
            if first["ops"][i].get("check_failed"):
                op["check_failed"] = True
            elif op.get("digest") != first["ops"][i].get("digest"):
                op["check_failed"] = True
                correct = False
                print(f"digest mismatch: op {i} differs from the first child")

    reasons = Counter(f"{failure_class(op)}: {op.get('detail', '')}"
                      for op in first["ops"] if failure_class(op) != "ok")
    for reason, count in sorted(reasons.items()):
        print(f"failed in the first process, {count}x {reason}")
    classes = Counter(failure_class(op) for c in children for op in c["ops"])
    attempted = sum(classes.values())
    failed = attempted - classes.pop("ok", 0)
    measured = [c for c in children if not c["crashed"]]
    if not any(c["traced"] == bool(args.trace) for c in measured):
        print(f"no process finished; failures {dict(classes)}", file=sys.stderr)
        return 1
    try:
        if args.trace:
            metrics = per_layer(children)
        else:
            metrics = {name: (value, END_TO_END_UNITS[name])
                       for name, value in end_to_end(children).items()}
    except statistics.StatisticsError:  # a process completed no op
        print(f"no op completed; failures {dict(classes)}", file=sys.stderr)
        return 1
    print(f"workload {args.workload} seed {args.seed}: {len(children)} "
          f"processes, {attempted} ops, {failed} failed {dict(classes)}, "
          f"checked {report and report['checked']} ops with "
          f"{report and report['oracle_values']} oracle values")
    if not args.trace:
        print(latency_line(children))
    print("per process (set-up s, op s): " + ", ".join(
        "crashed" if c["crashed"] else
        f"{c['setup_s']:.3f}/{sum(op['wall_s'] for op in c['ops']):.3f}"
        + ("T" if c["traced"] else "") for c in children))
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
