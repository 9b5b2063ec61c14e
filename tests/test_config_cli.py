import json
import subprocess
import sys

import pytest

from maxent_lab.cli import main
from maxent_lab.config import load_config, validate_config
from maxent_lab.errors import ValidationError
from maxent_lab.experiments import run_config
from maxent_lab.fixtures import fixture_names, load_fixture

MINIMAL = {
    "problem": {
        "outcomes": ["0", "1"],
        "prior": ["1/2", "1/2"],
        "T": [["0", "1"]],
        "target": ["1/2"],
    },
    "experiments": [],
}


def _with(problem=None, experiments=None, **extra):
    raw = json.loads(json.dumps(MINIMAL))
    if problem:
        raw["problem"].update(problem)
    if experiments is not None:
        raw["experiments"] = experiments
    raw.update(extra)
    return raw


class TestLoadConfig:
    def test_fixtures_all_parse_and_validate(self):
        for name in fixture_names():
            raw = load_fixture(name)
            config = load_config(raw)
            assert config.problem.outcomes
            diagnostics = [d for d in validate_config(raw)
                           if not d.message.startswith("note:")]
            assert diagnostics == [], f"{name}: {diagnostics}"

    def test_decimal_strings_parse_exactly(self):
        raw = _with(problem={"prior": ["0.5", "0.5"]})
        config = load_config(raw)
        space, _ = config.problem.build()
        assert float(space.prior[0]) == 0.5

    def test_zero_mass_outcome_drops_statistic_column(self):
        raw = {
            "problem": {
                "outcomes": ["a", "b", "c"],
                "prior": ["1/2", "0", "1/2"],
                "T": [["0", "7", "1"]],
                "target": ["1/2"],
            },
            "experiments": [],
        }
        space, constraint = load_config(raw).problem.build()
        assert space.outcomes == ("a", "c")
        assert [row[0] for row in constraint.values] == [0, 1]
        diagnostics = validate_config(raw)
        assert any("dropped zero-mass outcomes: b" in d.message
                   for d in diagnostics)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            load_config(_with(experiments=[{"kind": "dance"}]))

    def test_unsorted_n_list_rejected(self):
        with pytest.raises(ValidationError):
            load_config(_with(experiments=[
                {"kind": "corollary1", "n_list": [4, 2]}]))

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            load_config(path)


class TestValidateConfig:
    def test_target_outside_hull_diagnostic(self):
        raw = _with(problem={"target": ["7"], "T": [["0", "1"]]})
        diagnostics = validate_config(raw)
        assert any("outside convex hull" in d.message for d in diagnostics)

    def test_constant_coordinate_diagnostic(self):
        raw = _with(problem={"T": [["1", "1"]], "target": ["1"]})
        diagnostics = validate_config(raw)
        assert any("covariance would be singular" in d.message
                   for d in diagnostics)

    def test_boundary_target_diagnostic(self):
        # the unrestricted combined-constraint die from the worked example
        raw = {
            "problem": {
                "outcomes": ["1", "2", "3", "4", "5", "6"],
                "prior": ["1/6"] * 6,
                "T": [
                    ["1", "2", "3", "4", "5", "6"],
                    ["0", "0", "0", "1", "0", "0"],
                    ["0", "0", "0", "0", "1", "0"],
                ],
                "target": ["9/2", "1/2", "1/2"],
            },
            "experiments": [],
        }
        diagnostics = validate_config(raw)
        assert any("boundary" in d.message for d in diagnostics)

    def test_missing_seed_diagnostic(self):
        raw = _with(experiments=[
            {"kind": "recur", "steps": 10, "reps": 1, "seed": 1}])
        del raw["experiments"][0]["seed"]
        diagnostics = validate_config(raw)
        assert any("missing field 'seed'" in d.message for d in diagnostics)

    def test_clean_fixture_no_diagnostics(self):
        assert validate_config(_with()) == []


class TestRunConfig:
    def test_empty_experiment_list(self, tmp_path):
        manifest = run_config(_with(), tmp_path)
        experiment_outputs = {k: v for k, v in manifest.outputs.items()
                              if k != "summary"}
        assert experiment_outputs == {}
        assert (tmp_path / "manifest.json").exists()
        assert (tmp_path / "summary.md").exists()

    def test_solve_writes_masses(self, tmp_path):
        raw = load_fixture("brandeis")
        raw["experiments"] = [{"kind": "solve"}]
        run_config(raw, tmp_path)
        summary = (tmp_path / "summary.md").read_text()
        for digits in ("0.05435", "0.07877", "0.11416", "0.16545",
                       "0.23977", "0.34749"):
            assert digits in summary
        body = (tmp_path / "00_solve_solve.csv").read_text()
        assert body.startswith("outcome,prior,maxent\n")

    def test_rerun_byte_identical(self, tmp_path):
        raw = _with(experiments=[
            {"kind": "recur", "steps": 2000, "reps": 4, "seed": 2024,
             "checkpoints": [1000, 2000]},
            {"kind": "hypercomp", "n": 20, "K": [1, 5], "samples": 2000,
             "seed": 7},
        ])
        run_config(raw, tmp_path / "a")
        run_config(raw, tmp_path / "b")
        for name in ("00_recur_recurrence.csv", "01_hypercomp_hypercompression.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_manifest_contents(self, tmp_path):
        raw = _with(experiments=[
            {"kind": "recur", "steps": 100, "reps": 2, "seed": 5}])
        manifest = run_config(raw, tmp_path)
        data = json.loads((tmp_path / "manifest.json").read_text())
        assert data["config_hash"] == manifest.config_hash
        assert data["seeds"]["00_recur"] == 5
        assert "00_recur" in data["durations_seconds"]

    def test_concentrate_columns(self, tmp_path):
        raw = load_fixture("brandeis-combined")
        run_config(raw, tmp_path)
        header = (tmp_path / "01_concentrate_concentrate.csv") \
            .read_text().splitlines()[0]
        assert header == ('n,P(C_n),c_n,d_n,event,event_prob_q_given_C,'
                          'event_prob_ptilde,theorem1_slack,"TV(m,n)"')

    def test_every_csv_column_documented_in_summary(self, tmp_path):
        import csv as csv_mod
        raw = load_fixture("brandeis-combined")
        raw["experiments"].append(
            {"kind": "recur", "steps": 200, "reps": 2, "seed": 3})
        raw["experiments"].append(
            {"kind": "hypercomp", "n": 10, "K": [1], "samples": 100,
             "seed": 4})
        raw["experiments"].append(
            {"kind": "condlimit", "m": 1, "n_list": [4, 8]})
        raw["experiments"].append({"kind": "corollary1", "n_list": [2, 8]})
        manifest = run_config(raw, tmp_path)
        summary = (tmp_path / "summary.md").read_text()
        for name in manifest.outputs.values():
            if not name.endswith(".csv"):
                continue
            with open(tmp_path / name) as fh:
                header = next(csv_mod.reader(fh))
            for column in header:
                assert f"`{column}`" in summary, (name, column)


class TestCli:
    def test_fixtures_list(self, capsys):
        assert main(["fixtures", "list"]) == 0
        out = capsys.readouterr().out.split()
        assert out == list(fixture_names())

    def test_validate_ok(self, tmp_path, capsys):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(_with()))
        assert main(["validate", "-c", str(path)]) == 0

    def test_validate_failure_exit_2(self, tmp_path, capsys):
        raw = _with(problem={"target": ["7"]})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", "-c", str(path)]) == 2

    def test_run_bad_config_exit_2(self, tmp_path, capsys):
        raw = _with(problem={"target": ["7"]})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "-c", str(path), "-o", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("block", [
        {"kind": "concentrate", "n_list": [2], "tv_m": "2"},
        {"kind": "concentrate", "n_list": [2], "tv_m": 0},
        {"kind": "game", "mode": "gaps", "n_max": "10"},
        {"kind": "game", "mode": "gaps", "n_max": 4, "horizon": "8"},
        {"kind": "game", "mode": "gaps", "n_max": 4, "horizon": 2},
        {"kind": "game", "mode": "gaps", "n_max": 4, "j_max": "8"},
        {"kind": "game", "mode": "paths", "n_list": [2], "j_max": None},
        {"kind": "game", "mode": "paths", "n_list": ["4", 8]},
        {"kind": "game", "mode": "gaps", "n_max": 4, "alpha": "3/4"},
        {"kind": "game", "mode": "gaps", "n_max": 4, "alpha": 1.5},
        {"kind": "hypercomp", "n": 4, "K": ["1"], "samples": 10, "seed": 1},
        {"kind": "hypercomp", "n": 4, "K": "1", "samples": 10, "seed": 1},
    ], ids=["tv_m-str", "tv_m-zero", "n_max-str", "horizon-str",
            "horizon-below-n_max", "j_max-str", "j_max-null",
            "paths-n_list-str", "alpha-str", "alpha-above-1", "K-str-entry",
            "K-str"])
    def test_bad_experiment_field_exit_2(self, tmp_path, capsys, block):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_with(experiments=[block])))
        assert main(["run", "-c", str(path), "-o", str(tmp_path / "out")]) == 2
        assert "error: experiments[0]" in capsys.readouterr().err

    def test_guard_abort_exit_3(self, tmp_path, capsys):
        raw = {
            "problem": {
                "outcomes": ["00", "01", "10", "11"],
                "prior": ["1/4"] * 4,
                "T": [["0", "0", "1", "1"], ["0", "1", "0", "1"]],
                "target": ["1/2", "1/2"],
            },
            "experiments": [
                {"kind": "corollary1", "n_list": [20000]},
            ],
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "-c", str(path), "-o", str(tmp_path / "out")]) == 3

    def test_corollary1_underflow_exit_3(self, tmp_path, capsys):
        faces = [str(x) for x in range(1, 7)]
        raw = {
            "problem": {"outcomes": faces, "prior": ["1/6"] * 6,
                        "T": [faces], "target": ["5"]},
            "experiments": [{"kind": "corollary1", "n_list": [2000]}],
        }
        path = tmp_path / "underflow.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "-c", str(path), "-o", str(tmp_path / "out")]) == 3
        assert "n=2000" in capsys.readouterr().err

    def test_mixture_gaps_underflow_exit_3(self, tmp_path, capsys):
        faces = [str(x) for x in range(1, 7)]
        raw = {
            "problem": {"outcomes": faces, "prior": ["1/6"] * 6,
                        "T": [faces], "target": ["5"]},
            "experiments": [{"kind": "game", "mode": "gaps", "n_max": 5,
                             "horizon": 3000, "j_max": 3000}],
        }
        path = tmp_path / "underflow.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "-c", str(path), "-o", str(tmp_path / "out")]) == 3
        assert "n=1741" in capsys.readouterr().err

    def test_failed_entropy_check_exit_2(self, tmp_path, capsys, monkeypatch):
        from maxent_lab import solver
        sum_bits = solver._entropy_sum_bits
        monkeypatch.setattr(solver, "_entropy_sum_bits",
                            lambda pmf, prior: sum_bits(pmf, prior) + 1e-6)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(_with(experiments=[{"kind": "solve"}])))
        assert main(["run", "-c", str(path), "-o", str(tmp_path / "out")]) == 2
        assert "entropy cross-check" in capsys.readouterr().err

    def test_run_builds_and_solves_once(self, tmp_path, monkeypatch):
        # validation and the run share one built problem and one solution,
        # so no module may build or solve it a second time
        from maxent_lab import config as config_mod, experiments, lattice, solver
        calls = []

        def spy(name, fn):
            return lambda *args, **kwargs: (calls.append(name),
                                            fn(*args, **kwargs))[1]

        for module in (config_mod, experiments):
            monkeypatch.setattr(module, "solve_maxent",
                                spy("solve", solver.solve_maxent), raising=False)
            monkeypatch.setattr(module, "derive_lattice",
                                spy("build", lattice.derive_lattice),
                                raising=False)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(_with(experiments=[{"kind": "solve"}])))
        assert main(["run", "-c", str(path), "-o", str(tmp_path / "out")]) == 0
        assert sorted(calls) == ["build", "solve"]

    def test_loaded_config_passes_through(self):
        config = load_config(_with())
        assert load_config(config) is config

    def test_k3_run_imports_no_scipy(self, tmp_path):
        raw = load_fixture("cube3")
        raw["experiments"] = [
            {"kind": "solve"},
            {"kind": "game", "mode": "gaps", "n_max": 8, "horizon": 8,
             "j_max": 8, "alpha": 0.95},
            {"kind": "recur", "steps": 100, "reps": 2, "seed": 1},
        ]
        path = tmp_path / "cube3.json"
        path.write_text(json.dumps(raw))
        code = (
            "import sys\n"
            "from maxent_lab.cli import main\n"
            f"assert main(['run', '-c', {str(path)!r}, '-o', "
            f"{str(tmp_path / 'out')!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[]"

    def test_solve_prints_masses(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(load_fixture("brandeis")))
        assert main(["solve", "-c", str(path)]) == 0
        out = capsys.readouterr().out
        assert "0.347494" in out

    def test_console_script_installed(self):
        result = subprocess.run([sys.executable, "-m", "maxent_lab.cli",
                                 "fixtures", "list"],
                                capture_output=True, text=True)
        assert result.returncode == 0
        assert "brandeis" in result.stdout
