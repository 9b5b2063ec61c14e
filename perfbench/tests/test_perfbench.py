"""Self-tests of the benchmark: generators, computed-cell formulas, span
arithmetic, the output check and the refusal to run without program source.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, dense_sweep_cells  # noqa: E402


def _shape(config: dict):
    """Everything a seed must not change: outcomes, statistic, experiment
    kinds and sizes, event types."""
    experiments = [
        ({k: v for k, v in block.items() if k not in ("seed", "events")},
         [event["type"] for event in block.get("events", [])])
        for block in config["experiments"]]
    problem = config["problem"]
    return problem["outcomes"], problem["T"], config["mode"], experiments


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    a, b = workloads.generate(workload, 1), workloads.generate(workload, 2)
    assert a != b
    assert [_shape(c) for c in a] == [_shape(c) for c in b]


def test_many_small_problems_are_valid_and_feasible_at_d():
    from maxent_lab import derive_lattice, hull_position
    configs = workloads.generate("many-small", 3)
    assert len(configs) == workloads.MANY_SMALL_COUNT
    for cfg in configs:
        problem = cfg["problem"]
        t_rows = [[int(v) for v in row] for row in problem["T"]]
        assert workloads.affinely_independent(t_rows)
        values = [[row[i] for row in problem["T"]]
                  for i in range(len(problem["outcomes"]))]
        assert hull_position(values, problem["target"]) == "interior"
        d = cfg["experiments"][1]["n_list"][0]
        assert derive_lattice(values, problem["target"]).center_units(d) \
            is not None


def test_affine_independence():
    assert workloads.affinely_independent([[0, 1, 2]])
    assert not workloads.affinely_independent([[1, 1, 1]])
    assert not workloads.affinely_independent([[0, 1, 2], [1, 2, 3]])
    assert workloads.affinely_independent([[0, 1, 0], [0, 0, 1]])


def test_dense_sweep_cells_formula():
    # coin: 2 unit cells, unit_max 1 -> step n touches 2 * n cells
    assert dense_sweep_cells(2, (1,), 0, 10) == 2 * sum(range(1, 11))
    # cube {0,1}^3: 8 unit cells, step n touches 8 * n^3 cells
    assert dense_sweep_cells(8, (1, 1, 1), 0, 3) == 8 * (1 + 8 + 27)
    # die: 6 unit cells, unit_max 5 -> 6 * (5 (n - 1) + 1)
    assert dense_sweep_cells(6, (5,), 2, 4) == 6 * (11 + 16)


TRACED_SNIPPET = textwrap.dedent("""
    import json, sys
    sys.path[:0] = [{src!r}, {bench!r}]
    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
    from maxent_lab import build_space, derive_lattice, central_series, \\
        feasible_sizes
    from maxent_lab.analysis import min_hit_cost_series
    coin = build_space([0, 1], [1, 1])
    coin_c = derive_lattice([[0], [1]], ["1/2"])
    cube_c = derive_lattice([[a, b, c] for a in (0, 1) for b in (0, 1)
                             for c in (0, 1)], ["1/2"] * 3)
    central_series(coin, coin_c, 10)
    feasible_sizes(coin, coin_c, 10)
    min_hit_cost_series(cube_c, {{}}, 3)
    m = tracer.metrics()
    print(json.dumps({{k: v[0] for k, v in m.items()}}))
""")


def test_traced_counts_match_formulas_on_known_shapes():
    code = TRACED_SNIPPET.format(src=str(ROOT / "src"), bench=str(BENCH))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    m = json.loads(out.stdout.strip().splitlines()[-1])
    assert m["sumdist.dense_cells"] == 110
    assert m["sumdist.peak_table_cells"] == 11
    assert m["sumdist.sweeps"] == 1
    assert m["lattice.reach_cells"] == 110
    assert m["lattice.reach_sweeps"] == 1
    assert m["analysis.min_hit_cells"] == 288


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_arithmetic():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def inner(dt):
        clock.now += dt

    inner_t = tracer.wrap("sumdist.inner", inner)

    def outer():
        clock.now += 1.0
        inner_t(2.0)
        clock.now += 1.0
        inner_t(1.0)
        clock.now += 5.0

    tracer.wrap("analysis.outer", outer)()
    assert tracer.spans["analysis.outer"] == [1, 10.0, 7.0]
    assert tracer.spans["sumdist.inner"] == [2, 3.0, 3.0]
    assert tracer.layer_self("analysis") == 7.0
    assert tracer.layer_self("sumdist") == 3.0
    assert tracer.stack == []


def test_failed_span_is_counted_and_closed():
    tracer = Tracer(clock=FakeClock())

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("solver.solve_maxent", boom)()
    assert tracer.counts["solver.solve_maxent.failures"] == 1
    assert tracer.spans["solver.solve_maxent"][0] == 1
    assert tracer.stack == []


SMALL_CONFIG = {
    "problem": {"outcomes": ["a", "b", "c"], "prior": ["1", "2", "3"],
                "T": [["0", "1", "2"]], "target": ["3/4"]},
    "mode": "float",
    "experiments": [
        {"kind": "solve"},
        {"kind": "concentrate", "n_list": [4, 8], "tv_m": 1,
         "events": [workloads.FREQ_EVENT]},
        {"kind": "corollary1", "n_list": [4, 8]},
    ],
}


def test_check_accepts_real_outputs_and_rejects_a_tampered_value(tmp_path):
    from maxent_lab.cli import main
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SMALL_CONFIG))
    out = tmp_path / "out"
    assert main(["run", "-c", str(cfg), "-o", str(out)]) == 0
    checker = check.OpChecker(SMALL_CONFIG, out)
    checker.run()
    assert checker.oracle_values >= 4

    path = next(out.glob("01_*.csv"))
    lines = path.read_text().splitlines()
    fields = lines[1].split(",")
    fields[1] = repr(float(fields[1]) * (1 + 1e-6))   # P(C_4)
    lines[1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(check.CheckFailed):
        check.OpChecker(SMALL_CONFIG, out).run()


def test_process_count_follows_the_arguments_only():
    for workload in workloads.WORKLOADS:
        assert run.process_count(workload, 20) >= run.MIN_PROCESSES
        assert run.process_count(workload, 20) == run.process_count(workload, 20)
    assert run.process_count("gaps-k3", 1) == run.MIN_PROCESSES
    assert run.process_count("gaps-k3", 29) == 10


def _child(walls, statuses, traced=False):
    return {"traced": traced, "crashed": False, "setup_s": 0.5,
            "rss_mb": 100.0,
            "ops": [{"wall_s": w, "status": st}
                    for w, st in zip(walls, statuses)]}


def test_end_to_end_uses_per_op_medians():
    statuses = ["ok", "exit2", "ok"]
    children = [_child([1.0, 0.1, 3.0], statuses),
                _child([9.0, 0.3, 3.0], statuses),   # a slow spell on op 0
                _child([2.0, 0.2, 5.0], statuses),
                _child([50.0, 50.0, 50.0], statuses, traced=True)]
    assert run.op_medians(children) == [2.0, 0.2, 3.0]
    metrics = run.end_to_end(children)
    assert metrics["wall_s"] == 2.5                  # mean of 2.0 and 3.0
    assert metrics["configs_per_s"] == pytest.approx(2 / 5.2)
    assert metrics["setup_s"] == 0.5


def test_run_refuses_without_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gaps-k3",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
