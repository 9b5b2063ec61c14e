import json
from fractions import Fraction
import subprocess
import sys

import pytest

from maxent_lab.cli import main
from maxent_lab.config import load_config, validate_config
from maxent_lab.errors import ValidationError
from maxent_lab.experiments import run_config
from maxent_lab.fixtures import fixture_names, load_fixture
from maxent_lab.sumdist import EXACT, FLOAT

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


def _die_at(target, block):
    """The uniform die with mean ``target`` and one experiment block."""
    faces = [str(x) for x in range(1, 7)]
    return {"problem": {"outcomes": faces, "prior": ["1/6"] * 6,
                        "T": [faces], "target": [target]},
            "experiments": [block]}


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

    def test_block_defaults_filled_once(self):
        raw = _with(experiments=[
            {"kind": "game", "n_list": [2]},
            {"kind": "game", "mode": "gaps", "n_max": 4, "j_max": 8},
            {"kind": "hypercomp", "n": 4, "K": 5, "samples": 10, "seed": 1},
            {"kind": "hypercomp", "n": 4, "K": 2.5, "samples": 10, "seed": 1},
        ])
        before = json.dumps(raw, sort_keys=True)
        paths, gaps, k_int, k_float = load_config(raw).experiments
        assert (paths["mode"], paths["j_max"], paths["alpha"],
                paths["predictors"]) == ("paths", 64, 0.75,
                                         ["maxent", "conditioned", "mixture"])
        assert (gaps["mode"], gaps["j_max"]) == ("gaps", 8)
        # K entries keep their JSON types: they name the seeds and CSV rows
        assert k_int["K"] == [5] and isinstance(k_int["K"][0], int)
        assert k_float["K"] == [2.5]
        # the raw config, which the run hashes, is left as written
        assert json.dumps(raw, sort_keys=True) == before

    def test_mode_names_an_arithmetic(self):
        assert load_config(_with()).mode is FLOAT
        assert load_config(_with(mode="float")).mode is FLOAT
        assert load_config(_with(mode="rational")).mode is EXACT
        for name in ("decimal", "Rational", ["float"], None):
            with pytest.raises(ValidationError,
                               match="mode must be 'float' or 'rational'"):
                load_config(_with(mode=name))

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

    def test_reference_lists_the_kept_outcomes(self):
        # b has prior mass 0 and is dropped: the reference gives a and c
        raw = _with(problem={"outcomes": ["a", "b", "c"],
                             "prior": ["1/2", "0", "1/2"],
                             "T": [["0", "7", "1"]], "target": ["1/2"]},
                    experiments=[{"kind": "concentrate", "n_list": [2],
                                  "events": [{"type": "freq_deviation",
                                              "epsilon": "1/10",
                                              "reference": ["1/2", "1/2"]}]}])
        assert [d.message for d in validate_config(raw)] == \
            ["note: dropped zero-mass outcomes: b"]

    def test_no_feasible_size_diagnostic(self, tmp_path, capsys, monkeypatch):
        # the coin at mean 1/67 hits its target only at multiples of 67; one
        # sweep to the first feasible size, capped at the largest size a
        # block reads (64), settles that
        from maxent_lab import config as config_mod, lattice
        counts = []

        def spy(space, constraint, count, n_cap):
            counts.append((count, n_cap))
            return lattice.first_feasible_sizes(space, constraint, count,
                                                n_cap)

        monkeypatch.setattr(config_mod, "first_feasible_sizes", spy)
        for target, code in (("1/67", 2), ("1/2", 0)):
            path = tmp_path / "c.json"
            path.write_text(json.dumps(_with(
                problem={"target": [target]},
                experiments=[{"kind": "corollary1", "n_list": [64]}])))
            assert main(["validate", "-c", str(path)]) == code
            out = capsys.readouterr().out
            assert ("no feasible sample sizes up to 64" in out) == (code == 2)
        assert counts == [(1, 64), (1, 64)]

    def test_blocks_that_read_no_size_need_no_feasible_size(self, tmp_path):
        # the coin at mean 1/101 is feasible only at multiples of 101, which
        # neither the solve nor the hypercompression block reads
        path = tmp_path / "c.json"
        path.write_text(json.dumps(_with(
            problem={"target": ["1/101"]},
            experiments=[{"kind": "solve"},
                         {"kind": "hypercomp", "n": 50, "K": [1],
                          "samples": 100, "seed": 1}])))
        assert main(["validate", "-c", str(path)]) == 0
        assert main(["run", "-c", str(path), "-o", str(tmp_path / "out")]) == 0


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

    def test_summary_prints_plain_floats(self, tmp_path):
        for name in fixture_names():
            raw = load_fixture(name)
            raw["experiments"] = [{"kind": "solve"}]
            run_config(raw, tmp_path / name)
            summary = (tmp_path / name / "summary.md").read_text()
            assert "np." not in summary, name
            if name == "brandeis":
                assert "Solve: beta = [-0.37104894]," in summary

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

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unreadable_config_exit_2(self, tmp_path, capsys, kind):
        path = tmp_path / f"{kind}.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b'{"problem": "\xff"}')
        assert main(["run", "-c", str(path), "-o", str(tmp_path / "out")]) == 2
        assert f"cannot read config {path}" in capsys.readouterr().err
        assert main(["validate", "-c", str(path)]) == 2
        assert f"cannot read config {path}" in capsys.readouterr().out
        assert not (tmp_path / "out").exists()

    def test_unknown_mode_exit_2(self, tmp_path, capsys):
        path = tmp_path / "decimal.json"
        path.write_text(json.dumps(_with(mode="decimal")))
        assert main(["run", "-c", str(path), "-o", str(tmp_path / "out")]) == 2
        assert "mode must be 'float' or 'rational'" in capsys.readouterr().err
        assert main(["validate", "-c", str(path)]) == 2
        assert not (tmp_path / "out").exists()

    def test_mode_option_replaces_the_config_mode(self, tmp_path):
        # the brandeis fixture says "float"; --mode names the run's arithmetic
        out = tmp_path / "out"
        assert main(["fixtures", "run", "brandeis", "-o", str(out),
                     "--mode", "rational"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["mode"] == "rational"

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
        {"kind": "hypercomp", "n": 0, "K": [1], "samples": 10, "seed": 1},
        {"kind": "hypercomp", "n": 4, "K": [1], "samples": 0, "seed": 1},
        {"kind": "recur", "steps": 20, "reps": 2, "seed": 1,
         "checkpoints": ["a"]},
        {"kind": "recur", "steps": 20, "reps": 2, "seed": 1,
         "checkpoints": [None]},
        {"kind": "recur", "steps": 20, "reps": 2, "seed": 1,
         "checkpoints": 10},
        {"kind": "recur", "steps": 20, "reps": 2, "seed": 1,
         "checkpoints": [10.5]},
        {"kind": "recur", "steps": 20, "reps": 2, "seed": 1,
         "checkpoints": []},
        {"kind": "recur", "steps": 20, "reps": 2, "seed": 1,
         "checkpoints": [30]},
        {"kind": "recur", "steps": 20, "reps": 2, "seed": -1},
        {"kind": "concentrate", "n_list": [2],
         "events": {"type": "box", "statistic": [["0", "1"]],
                    "lower": ["0"], "upper": ["1"]}},
        {"kind": "concentrate", "n_list": [2],
         "events": [{"type": "box", "statistic": 5, "lower": ["0"],
                     "upper": ["1"]}]},
        {"kind": "concentrate", "n_list": [2],
         "events": [{"type": "box", "statistic": [["0", "1"]], "lower": 0,
                     "upper": ["1"]}]},
    ], ids=["tv_m-str", "tv_m-zero", "n_max-str", "horizon-str",
            "horizon-below-n_max", "j_max-str", "j_max-null",
            "paths-n_list-str", "alpha-str", "alpha-above-1", "K-str-entry",
            "K-str", "hypercomp-n-zero", "hypercomp-samples-zero",
            "checkpoints-str", "checkpoints-null", "checkpoints-scalar",
            "checkpoints-float", "checkpoints-empty",
            "checkpoints-above-steps", "seed-negative", "events-object",
            "box-statistic-scalar", "box-lower-scalar"])
    def test_bad_experiment_field_exit_2(self, tmp_path, capsys, block):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_with(experiments=[block])))
        out = tmp_path / "out"
        assert main(["run", "-c", str(path), "-o", str(out)]) == 2
        assert "error: experiments[0]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tags", [["maxent", "oracle"], "maxent"])
    def test_unknown_predictor_exit_2(self, tmp_path, capsys, tags):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_with(experiments=[
            {"kind": "solve"},
            {"kind": "game", "n_list": [2], "predictors": tags}])))
        assert main(["validate", "-c", str(path)]) == 2
        assert "experiments[1].predictors" in capsys.readouterr().out
        out = tmp_path / "out"
        assert main(["run", "-c", str(path), "-o", str(out)]) == 2
        assert "experiments[1].predictors" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("statistic", [[["0"]], [["0", "1", "2"]]],
                             ids=["short-row", "long-row"])
    def test_box_row_length_exit_2(self, tmp_path, capsys, statistic):
        # a box statistic row has one entry per outcome of the config
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_with(experiments=[
            {"kind": "concentrate", "n_list": [2],
             "events": [{"type": "box", "statistic": statistic,
                         "lower": ["0"], "upper": ["1"]}]}])))
        assert main(["validate", "-c", str(path)]) == 2
        assert "experiments[0].events[0]" in capsys.readouterr().out
        out = tmp_path / "out"
        assert main(["run", "-c", str(path), "-o", str(out)]) == 2
        assert "experiments[0].events[0]" in capsys.readouterr().err
        assert not out.exists()

    def test_box_statistic_follows_the_kept_outcomes(self, tmp_path):
        # b has prior mass 0 and is dropped, so c keeps its own value 1 and
        # not b's 100: on C_4 the average is exactly 1/2, inside the box
        from fractions import Fraction
        from maxent_lab import BoxEvent, enumerate_oracle
        raw = {
            "problem": {"outcomes": ["a", "b", "c"],
                        "prior": ["1/2", "0", "1/2"],
                        "T": [["0", "7", "1"]], "target": ["1/2"]},
            "experiments": [{"kind": "concentrate", "n_list": [2, 4],
                             "events": [{"type": "box",
                                         "statistic": [[0, 100, 1]],
                                         "lower": ["1/4"],
                                         "upper": ["3/4"]}]}],
        }
        path = tmp_path / "dropped.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["run", "-c", str(path), "-o", str(out)]) == 0
        header, *rows = [r.split(",") for r in
                         next(out.glob("*.csv")).read_text().splitlines()]
        space, constraint = load_config(raw).problem.build()
        event = BoxEvent.make([[0], [1]], ["1/4"], ["3/4"])
        half = ("p", [Fraction(1, 2)] * 2)
        for row in rows:
            n = int(row[header.index("n")])
            under_q = enumerate_oracle(space, constraint, n,
                                       events=[event]).event_results[0]
            under_p = enumerate_oracle(space, constraint, n, measure=half,
                                       events=[event]).event_results[0]
            assert float(row[header.index("event_prob_q_given_C")]) == \
                float(under_q.prob_joint / under_q.prob_constraint) == 1.0
            assert float(row[header.index("event_prob_ptilde")]) == \
                pytest.approx(float(under_p.prob_event), rel=1e-12)
        assert [row[0] for row in rows] == ["2", "4"]

    @pytest.mark.parametrize("problem,block,where", [
        ({}, {"kind": "concentrate", "n_list": [2],
              "events": [{"type": "freq_deviation", "epsilon": "0",
                          "reference": "maxent"}]},
         "experiments[2].events[0]"),
        ({"outcomes": ["a", "b", "c"], "prior": ["0", "1", "1"],
          "T": [["0", "1", "2"]], "target": ["3/2"]},
         {"kind": "concentrate", "n_list": [2],
          "events": [{"type": "bigram_deviation", "j": "a", "jprime": "b",
                      "epsilon": "1/10"}]},
         "experiments[2].events[0]"),
        ({"target": ["1/7"]}, {"kind": "game", "mode": "gaps", "n_max": 3},
         "experiments[2]: no feasible sample sizes up to the horizon 6"),
        ({"target": ["1/7"]},
         {"kind": "game", "mode": "gaps", "n_max": 5, "horizon": 20},
         "experiments[2]: no feasible sample sizes up to n_max 5"),
        ({"outcomes": [str(x) for x in range(1, 7)], "prior": ["1/6"] * 6,
          "T": [[str(x) for x in range(1, 7)]], "target": ["9/2"]},
         {"kind": "concentrate", "n_list": [2],
          "events": [{"type": "freq_deviation", "epsilon": "1/10",
                      "reference": ["1/2", "1/2"]}]},
         "experiments[2].events[0]"),
        # one mass per label, where b is dropped
        ({"outcomes": ["a", "b", "c"], "prior": ["1/2", "0", "1/2"],
          "T": [["0", "7", "1"]], "target": ["1/2"]},
         {"kind": "concentrate", "n_list": [2],
          "events": [{"type": "freq_deviation", "epsilon": "1/10",
                      "reference": ["1/2", "0", "1/2"]}]},
         "experiments[2].events[0]"),
    ], ids=["maxent-epsilon-zero", "bigram-dropped-label", "gaps-horizon",
            "gaps-n-max", "reference-short", "reference-per-label"])
    def test_validate_refuses_what_run_refuses(self, tmp_path, capsys,
                                               problem, block, where):
        # the solve and corollary1 blocks come first, so a refusal at run
        # time would leave their files behind
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_with(problem=problem, experiments=[
            {"kind": "solve"}, {"kind": "corollary1", "n_list": [14]},
            block])))
        assert main(["validate", "-c", str(path)]) == 2
        assert where in capsys.readouterr().out
        out = tmp_path / "out"
        assert main(["run", "-c", str(path), "-o", str(out)]) == 2
        assert where in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("raw,where", [
        # a float epsilon would be taken at its binary value: 0.3 writes
        # event_prob_ptilde 0.109375 where "3/10" writes 0.021484375
        (_with(experiments=[{"kind": "concentrate", "n_list": [10],
                             "events": [{"type": "freq_deviation",
                                         "epsilon": 0.3,
                                         "reference": "maxent"}]}]),
         "experiments[0].events[0]"),
        # the string "false" would run as inside
        (_die_at("9/2", {"kind": "concentrate", "n_list": [8],
                         "events": [{"type": "box",
                                     "statistic": [["1"] + ["0"] * 5],
                                     "lower": ["1/4"], "upper": ["1"],
                                     "inside": "false"}]}),
         "experiments[0].events[0]: inside"),
        # JSON true would pass as the integer 1
        (_die_at("9/2", {"kind": "condlimit", "m": True, "n_list": [True, 4]}),
         "experiments[0] (condlimit): n_list"),
        (_die_at("9/2", {"kind": "condlimit", "m": True, "n_list": [4]}),
         "experiments[0] (condlimit): m"),
        (_with(experiments=[{"kind": "hypercomp", "n": 10, "K": True,
                             "samples": 10, "seed": 0}]),
         "experiments[0] (hypercomp): K"),
        # a value of the wrong shape is refused where it is read, with no
        # traceback from a TypeError
        (_with(problem={"target": 5}), "problem.target must be a list"),
        (_with(problem={"outcomes": 5}), "problem.outcomes must be a list"),
        (_with(problem={"prior": 5}), "problem.prior must be a list"),
        (_with(problem={"outcomes": [["0"], "1"]}),
         "outcome labels must be strings or numbers"),
        (_with(experiments=[5]), "experiments[0] must be an object"),
        ({"problem": 5, "experiments": []}, "problem must be an object"),
        (5, "config must be an object"),
        (_with(experiments=[{"kind": "concentrate", "n_list": 5}]),
         "experiments[0] (concentrate): n_list must hold integers >= 1"),
        (_with(experiments=[{"kind": "concentrate", "n_list": [2],
                             "events": [{"type": "bigram_deviation",
                                         "j": ["0"], "jprime": "1",
                                         "epsilon": "1/10"}]}]),
         "experiments[0].events[0]: unknown outcome ['0']"),
    ], ids=["float-epsilon", "inside-string", "bool-n-list", "bool-m",
            "bool-k", "target-scalar", "outcomes-scalar", "prior-scalar",
            "label-list", "block-scalar", "problem-scalar", "config-scalar",
            "n_list-scalar", "bigram-label-list"])
    def test_numbers_and_flags_parse_exactly_or_are_refused(
            self, tmp_path, capsys, raw, where):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", "-c", str(path)]) == 2
        assert where in capsys.readouterr().out
        out = tmp_path / "out"
        assert main(["run", "-c", str(path), "-o", str(out)]) == 2
        assert where in capsys.readouterr().err
        assert not out.exists()

    def test_a_bool_prior_is_refused(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_with(problem={"prior": [True, True]},
                                         experiments=[{"kind": "solve"}])))
        assert main(["validate", "-c", str(path)]) == 2
        assert "got bool" in capsys.readouterr().out

    def test_frequency_event_past_the_float_binomial(self, tmp_path):
        # C(n, n/2) overflows a float from n = 1030 on, where the count DP's
        # coefficients are still normal floats: the coin's event masses are
        # binomial tails, and the rows before the overflow keep their bytes
        import math
        from fractions import Fraction
        path = tmp_path / "coin.json"
        path.write_text(json.dumps(_with(experiments=[
            {"kind": "concentrate", "n_list": [1000, 1070, 1100],
             "events": [{"type": "freq_deviation", "epsilon": "1/50",
                         "reference": "maxent"}]}])))
        out = tmp_path / "out"
        assert main(["run", "-c", str(path), "-o", str(out)]) == 0
        rows = next(out.glob("*.csv")).read_text().splitlines()
        assert rows[1] == (
            "1000,0.025225018178360804,0.7976851146277163,0.9997500312890522,"
            "0:freq_deviation,0.0,0.1947663284617655,0.1947663284617655,")
        for row in rows[2:]:
            n, _, _, _, _, cond_q, ptilde, slack, _ = row.split(",")
            n = int(n)
            tail = Fraction(sum(
                math.comb(n, k) for k in range(n + 1)
                if abs(Fraction(k, n) - Fraction(1, 2)) > Fraction(1, 50)),
                2 ** n)
            assert abs(float(ptilde) - float(tail)) <= 1e-11
            assert cond_q == "0.0" and slack == ptilde

    def test_event_constraint_mass_underflow_exit_3(self, tmp_path, capsys):
        # under the prior 1/1000 : 999/1000, P_q(C_600) underflows in the q
        # event DP at a size that the projection finds feasible
        path = tmp_path / "skewed.json"
        path.write_text(json.dumps(_with(
            problem={"prior": ["1", "999"]},
            experiments=[{"kind": "concentrate", "n_list": [600],
                          "events": [{"type": "freq_deviation",
                                      "epsilon": "1/50",
                                      "reference": "maxent"}]}])))
        assert main(["run", "-c", str(path), "-o", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "n=600" in err and "underflows" in err

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
        # the prior's central series is decided at every size up to 2000,
        # and its mass underflows first at n = 1741
        assert "the mass at n=1741" in capsys.readouterr().err

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

    @pytest.mark.parametrize("n,code", [(200, 0), (1500, 3), (3000, 3)])
    def test_paths_game_conditioned_underflow_exit_3(self, tmp_path, capsys,
                                                     n, code):
        # the die at target 5: the conditioned prior's suffix mass on the
        # representative at n = 1500, and its horizon mass at n = 3000,
        # underflow to 0.0 at cells that some sequence reaches. At n = 200
        # the first symbol takes every mixture component (sizes 1..4) off
        # target, so that zero is exact and the row reads inf
        faces = [str(x) for x in range(1, 7)]
        raw = {
            "problem": {"outcomes": faces, "prior": ["1/6"] * 6,
                        "T": [faces], "target": ["5"]},
            "experiments": [{"kind": "game", "mode": "paths", "n_list": [n],
                             "j_max": 4}],
        }
        path = tmp_path / "paths.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["run", "-c", str(path), "-o", str(out)]) == code
        if code == 3:
            err = capsys.readouterr().err
            assert f"n={n}" in err and "underflows" in err
        else:
            rows = next(out.glob("*.csv")).read_text().splitlines()
            assert f"{n},mixture,inf,inf" in rows
            assert f"{n},conditioned,inf,inf" not in rows

    @pytest.mark.parametrize("kind", ["condlimit", "concentrate"])
    def test_marginal_underflow_exit_3(self, tmp_path, capsys, kind):
        # the die at target 5: every size is feasible, but the conditioned
        # marginal's denominator W_3000(c) underflows to 0.0, which is not
        # an infeasible size
        block = {"kind": kind, "n_list": [200, 1500, 3000]}
        block.update({"m": 1} if kind == "condlimit" else {"tv_m": 1})
        path = tmp_path / "die.json"
        path.write_text(json.dumps(_die_at("5", block)))
        assert main(["run", "-c", str(path), "-o", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "n=3000" in err and "underflows" in err

    @pytest.mark.parametrize("kind,body", [
        ("condlimit", "m,n,tv\n1,200,0.0012163545399092365\n"
                      "1,1500,0.00016175952955111393\n"),
        ("concentrate",
         'n,P(C_n),c_n,d_n,event,event_prob_q_given_C,event_prob_ptilde,'
         'theorem1_slack,"TV(m,n)"\n'
         "200,0.022428112653500906,0.3171814109301261,0.9988914939081117,"
         ",,,,0.0012163545399092365\n"
         "1500,0.008197466787311914,0.3174865234834746,0.9998523772503312,"
         ",,,,0.00016175952955111393\n"),
    ], ids=["condlimit", "concentrate"])
    def test_marginals_below_the_underflow_keep_their_bytes(self, tmp_path,
                                                            kind, body):
        block = {"kind": kind, "n_list": [200, 1500]}
        block.update({"m": 1} if kind == "condlimit" else {"tv_m": 1})
        path = tmp_path / "die.json"
        path.write_text(json.dumps(_die_at("5", block)))
        out = tmp_path / "out"
        assert main(["run", "-c", str(path), "-o", str(out)]) == 0
        assert next(out.glob("*.csv")).read_text() == body

    def test_concentrate_null_tv_m_leaves_the_column_empty(self, tmp_path):
        # validation reads "tv_m": null as no TV, as if the key were absent
        block = {"kind": "concentrate", "n_list": [200], "tv_m": None}
        path = tmp_path / "die.json"
        path.write_text(json.dumps(_die_at("5", block)))
        out = tmp_path / "out"
        assert main(["run", "-c", str(path), "-o", str(out)]) == 0
        assert next(out.glob("*.csv")).read_text().splitlines()[1] == (
            "200,0.022428112653500906,0.3171814109301261,0.9988914939081117,"
            ",,,,")

    @pytest.mark.parametrize("mode", ["float", "rational"])
    def test_concentrate_and_condlimit_write_one_tv(self, tmp_path, mode):
        # both columns come from one routine in the run's arithmetic
        sizes = [3, 24, 200]
        raw = _die_at("9/2", {"kind": "concentrate", "n_list": sizes,
                              "tv_m": 1})
        raw["experiments"].append({"kind": "condlimit", "m": 1,
                                   "n_list": sizes})
        raw["mode"] = mode
        path = tmp_path / "die.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["run", "-c", str(path), "-o", str(out)]) == 0
        concentrate = next(out.glob("00_*.csv")).read_text().splitlines()
        condlimit = next(out.glob("01_*.csv")).read_text().splitlines()
        assert [row.rsplit(",", 1)[1] for row in concentrate[1:]] == \
            [row.rsplit(",", 1)[1] for row in condlimit[1:]]
        assert len(concentrate) == len(sizes) + 1

    def test_rational_tv_past_the_float_underflow(self, tmp_path):
        # the prior's mass of C_600 underflows a float, not a Fraction; the
        # conditioned one-toss marginal is exactly Bernoulli(1/2), so the
        # TV is 1/2 sum |1/2 - p_x| of the projection's floats, rounded once
        raw = {"problem": {"outcomes": ["0", "1"], "prior": ["1", "999"],
                           "T": [["0", "1"]], "target": ["1/2"]},
               "mode": "rational",
               "experiments": [{"kind": "concentrate", "n_list": [600],
                                "tv_m": 1}]}
        path = tmp_path / "coin.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["run", "-c", str(path), "-o", str(out)]) == 0
        row = next(out.glob("*.csv")).read_text().splitlines()[1]
        assert row.rsplit(",", 1)[1] == "1.506378355387028e-12"
        pmf = load_config(raw).problem.solve().pmf
        half = Fraction(1, 2)
        assert float(sum(abs(half - Fraction(p)) for p in pmf) / 2) == \
            1.506378355387028e-12

    def test_one_parser_serves_every_call(self, tmp_path):
        # one process runs the calls in turn; each must match a fresh one
        from maxent_lab import cli
        assert cli._build_parser() is cli._build_parser()
        good = tmp_path / "good.json"
        good.write_text(json.dumps(_with(experiments=[
            {"kind": "solve"}, {"kind": "condlimit", "m": 1,
                                "n_list": [4, 8]}])))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_with(problem={"target": ["7"]})))
        die = tmp_path / "die.json"
        die.write_text(json.dumps(_die_at("9/2", {"kind": "corollary1",
                                                  "n_list": [2, 10]})))
        calls = [["validate", "-c", str(good)],
                 ["run", "-c", str(bad), "-o", "bad"],
                 ["run", "-c", str(good), "-o", "good", "--mode", "rational"],
                 ["validate", "-c", str(bad)],
                 ["run", "-c", str(die), "-o", "die"]]

        def outputs(root):
            return {p.relative_to(root): p.read_bytes()
                    for p in sorted(root.rglob("*"))
                    if p.is_file() and p.name != "manifest.json"}

        shared, fresh = tmp_path / "shared", tmp_path / "fresh"
        codes = {shared: [], fresh: []}
        for root in (shared, fresh):
            root.mkdir()
            for args in calls:
                args = [str(root / a) if a in ("bad", "good", "die") else a
                        for a in args]
                codes[root].append(main(args) if root is shared else
                                   subprocess.run(
                                       [sys.executable, "-m", "maxent_lab.cli",
                                        *args], capture_output=True).returncode)
        assert codes[shared] == codes[fresh] == [0, 2, 0, 2, 0]
        assert outputs(shared) == outputs(fresh)
        assert len(outputs(shared)) == 5

    def test_condlimit_past_the_cell_budget_exit_3(self, tmp_path, capsys):
        # n = 200 is feasible for cube3; the windows of its sum tables
        # 0..200 hold 5.2e7 cells, past the budget, which is a guard abort,
        # not a blank row
        raw = load_fixture("cube3")
        raw["experiments"] = [{"kind": "condlimit", "m": 1,
                               "n_list": [4, 200]}]
        path = tmp_path / "cube3.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "-c", str(path), "-o", str(tmp_path / "out")]) == 3
        assert "lattice blow-up" in capsys.readouterr().err

    def test_condlimit_infeasible_size_is_blank(self, tmp_path):
        # the die at mean 9/2 has no sequence of odd length on target
        path = tmp_path / "die.json"
        path.write_text(json.dumps(_die_at(
            "9/2", {"kind": "condlimit", "m": 1, "n_list": [4, 5]})))
        out = tmp_path / "out"
        assert main(["run", "-c", str(path), "-o", str(out)]) == 0
        rows = next(out.glob("*.csv")).read_text().splitlines()
        assert rows[1].startswith("1,4,") and rows[1] != "1,4,"
        assert rows[2] == "1,5,"

    def test_paths_game_without_mixture(self, tmp_path):
        path = tmp_path / "coin.json"
        path.write_text(json.dumps(_with(experiments=[
            {"kind": "game", "mode": "paths", "n_list": [2, 4],
             "predictors": ["maxent", "conditioned"]}])))
        out = tmp_path / "out"
        assert main(["run", "-c", str(path), "-o", str(out)]) == 0
        rows = next(out.glob("*.csv")).read_text().splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [
            ["2", "maxent"], ["2", "conditioned"],
            ["4", "maxent"], ["4", "conditioned"]]

    def test_paths_game_without_representative_exit_3(self, tmp_path, capsys,
                                                      monkeypatch):
        # n = 29 is the first feasible size at mean 1/29; with the budget at
        # 50 the windows of its walk tables (57 cells) are refused, and no
        # feasible block of a smaller size exists: a guard abort, not a
        # skipped size
        from maxent_lab import lattice
        monkeypatch.setattr(lattice, "CELL_BUDGET", 50)
        path = tmp_path / "coin.json"
        path.write_text(json.dumps(_with(
            problem={"target": ["1/29"]},
            experiments=[{"kind": "game", "mode": "paths", "n_list": [29],
                          "predictors": ["maxent"]}])))
        assert main(["run", "-c", str(path), "-o", str(tmp_path / "out")]) == 3
        assert "no representative for n=29" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["concentrate", "corollary1"])
    def test_zero_mass_at_a_feasible_size_exit_3(self, tmp_path, capsys,
                                                  monkeypatch, kind):
        # a 0.0 projection mass at n = 4, where the fair coin has sequences on
        # target, is an underflow: the central series' own `_Reach` finds the
        # target reachable
        from maxent_lab import sumdist
        mass_at_target = sumdist.SumDistribution.mass_at_target

        def zero_at_4(sd):
            return 0.0 if sd.n == 4 else mass_at_target(sd)

        monkeypatch.setattr(sumdist.SumDistribution, "mass_at_target",
                            zero_at_4)
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(_with(experiments=[
            {"kind": kind, "n_list": [2, 4]}])))
        assert main(["run", "-c", str(path), "-o", str(tmp_path / "out")]) == 3
        assert "the mass at n=4" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["concentrate", "corollary1"])
    def test_exact_zero_mass_past_the_walk_budget_exit_0(self, tmp_path, kind):
        # steps (0, 0), (2, 1), (1, 2) at mean (1, 1) reach the target only at
        # sizes divisible by 3: n = 337 is on the lattice with an exact 0.0
        # mass and is written as an infeasible row
        raw = {
            "problem": {"outcomes": ["a", "b", "c"], "prior": ["1/3"] * 3,
                        "T": [["0", "2", "1"], ["0", "1", "2"]],
                        "target": ["1", "1"]},
            "experiments": [{"kind": kind, "n_list": [3, 337]}],
        }
        path = tmp_path / "sublattice.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["run", "-c", str(path), "-o", str(out)]) == 0
        header, *rows = [r.split(",") for r in
                         next(out.glob("*.csv")).read_text().splitlines()]
        c_n = header.index("c_n")
        assert [(r[0], r[c_n] == "") for r in rows] == [("3", False),
                                                         ("337", True)]

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
