"""Self-test of ``tools/compare_outputs.py``, the check that a change keeps
every output byte: a tree compared with itself shows no difference, and a copy
that prints floats another way is caught. One small fixture stands in for the
full list of runs."""

import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUN = ("fixture-brandeis-combined", ["fixtures", "run", "brandeis-combined"])


@pytest.fixture
def tool(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", ROOT / "tools" / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "_runs", lambda change_root, config_dir: [RUN])
    return module


def test_tree_against_itself_has_no_differences(tool, capsys):
    assert tool.main([str(ROOT), str(ROOT)]) == 0
    out = capsys.readouterr().out
    assert "compared 1 runs, 3 files: 0 differences" in out


def test_changed_float_format_is_reported(tool, tmp_path, capsys):
    mutant = tmp_path / "mutant"
    shutil.copytree(ROOT / "src", mutant / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    experiments = mutant / "src" / "maxent_lab" / "experiments.py"
    text = experiments.read_text()
    assert text.count("return repr(value)") == 1
    experiments.write_text(text.replace("return repr(value)",
                                        "return format(value, '.12g')"))
    assert tool.main([str(ROOT), str(mutant)]) == 1
    out = capsys.readouterr().out
    assert ("fixture-brandeis-combined/01_concentrate_concentrate.csv: "
            "contents differ") in out
    assert "0 differences" not in out


def test_changed_summary_line_is_shown(tool, tmp_path, capsys):
    mutant = tmp_path / "mutant"
    shutil.copytree(ROOT / "src", mutant / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    experiments = mutant / "src" / "maxent_lab" / "experiments.py"
    text = experiments.read_text()
    old = "- solve.csv: `outcome` label,"
    assert text.count(old) == 1
    experiments.write_text(text.replace(old, "- solve.csv: `outcome` name,"))
    assert tool.main([str(ROOT), str(mutant)]) == 1
    out = capsys.readouterr().out
    # "# Run summary", a blank line, "## Column reference", a blank line
    assert "fixture-brandeis-combined/summary.md: contents differ at line 5\n" \
        in out
    assert "parent: '- solve.csv: `outcome` label, `prior` mass," in out
    assert "change: '- solve.csv: `outcome` name, `prior` mass," in out
    assert "1 differences" in out
