"""Self-test of ``tools/uncalled.py``, the list of package functions that no
shipped run calls. Every name its allowlist excuses must still be defined in
the package, so a stale entry fails here instead of excusing nothing; and one
small fixture run, standing in for the full list, is matched to the
definitions it calls, decorated ones included."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUN = ("fixture-brandeis-combined", ["fixtures", "run", "brandeis-combined"])


@pytest.fixture
def tool():
    spec = importlib.util.spec_from_file_location(
        "uncalled", ROOT / "tools" / "uncalled.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_allowed_name_is_defined(tool):
    defined = {name for name, _ in tool.definitions().values()}
    assert sorted(set(tool.allowed()) - defined) == []


def test_one_run_lists_what_it_does_not_call(tool, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import compare_outputs
    monkeypatch.setattr(compare_outputs, "_runs",
                        lambda change_root, config_dir: [RUN])
    assert tool.main() == 1
    listed = {line.split(" (")[0]: line.split(": ", 1)[1]
              for line in capsys.readouterr().out.splitlines()
              if " lines): " in line}
    assert listed["cli._cmd_solve"] == \
        "the `solve` command, which no run uses"
    assert listed["analysis._hit_cost_minima"] == "NOT ALLOWED"
    # called: a plain function and a cached property, keyed by its decorator
    assert "solver.solve_maxent" not in listed
    assert "lattice.SampleSpace.prior" not in listed
