"""Self-test of ``tools/time_fixtures.py`` on the fastest fixture: it runs the
fixture in fresh child processes, reports medians of the child's own wall
time and peak RSS, and the peak that tracemalloc traces in one more child, as
JSON, and refuses fewer than three runs."""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def tool():
    spec = importlib.util.spec_from_file_location(
        "time_fixtures", ROOT / "tools" / "time_fixtures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reports_medians_of_fresh_runs(tool, capsys):
    assert tool.main(["--fixtures", "brandeis-combined"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["runs"] == 3
    entry = report["fixtures"]["brandeis-combined"]
    assert entry["exit_codes"] == [0, 0, 0]
    assert len(entry["samples"]) == 3
    walls = [s["wall_s"] for s in entry["samples"]]
    assert entry["wall_s"] == pytest.approx(statistics.median(walls), abs=1e-4)
    # a child that imports numpy holds well over 10 MB; this process is not
    # counted, so the figure is per run and not cumulative
    assert all(s["peak_rss_mb"] > 10 for s in entry["samples"])
    assert 0 < entry["wall_s"] < 60
    # tracemalloc counts what Python allocates, a part of the resident set
    assert 0 < entry["traced_peak_mb"] < entry["peak_rss_mb"]


def test_refuses_fewer_than_three_runs(tool):
    with pytest.raises(SystemExit):
        tool.main(["--runs", "2", "--fixtures", "brandeis-combined"])


def test_refuses_unknown_fixture(tool):
    with pytest.raises(SystemExit):
        tool.main(["--fixtures", "no-such-fixture"])
