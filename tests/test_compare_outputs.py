"""Self-test of ``tools/compare_outputs.py``, the check that a change keeps
every output byte: a tree compared with itself shows no difference, a copy
that prints floats another way is caught, and a copy that changes one column
has that column alone listed. One small fixture stands in for the full list
of runs."""

import importlib.util
import re
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


def test_changed_column_is_the_only_one_listed(tool, tmp_path, capsys):
    mutant = tmp_path / "mutant"
    shutil.copytree(ROOT / "src", mutant / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    concentration = mutant / "src" / "maxent_lab" / "concentration.py"
    text = concentration.read_text()
    assert text.count("return c_n, d_n") == 1
    concentration.write_text(text.replace("return c_n, d_n",
                                          "return c_n, 2.0 * d_n"))
    assert tool.main([str(ROOT), str(mutant)]) == 1
    out = capsys.readouterr().out
    assert "1 differences" in out
    columns = [line.strip() for line in out.splitlines()
               if line.strip().startswith("column ")]
    # four sizes with two bigram events each: eight rows, each d_n doubled,
    # so its change is the parent's d_n and half the changed value
    assert len(columns) == 1
    assert re.fullmatch(r"column d_n: 8 cells, largest change 0\.9\d+, "
                        r"relative 0\.5", columns[0])
