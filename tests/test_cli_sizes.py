"""CLI runs whose blocks read sizes past the defaults: a marginal longer
than the enumeration allows, a first feasible size past 64, the default gaps
horizon, and the column reference of every fixture's summary."""

import json
import math
import re
from fractions import Fraction

import pytest

from maxent_lab.cli import main
from maxent_lab.config import load_config
from maxent_lab.experiments import run_config
from maxent_lab.fixtures import fixture_names, load_fixture

from test_config_cli import _die_at, _with


class TestBlockSizes:
    def test_marginal_it_cannot_enumerate_is_blank(self, tmp_path):
        # the die enumerates marginals of at most 8 symbols; TV(9, 20) is
        # left blank, as condlimit leaves its tv blank
        raw = _die_at("9/2", {"kind": "concentrate", "n_list": [20],
                              "tv_m": 9})
        raw["experiments"].insert(0, {"kind": "solve"})
        path = tmp_path / "die.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", "-c", str(path)]) == 0
        out = tmp_path / "out"
        assert main(["run", "-c", str(path), "-o", str(out)]) == 0
        rows = (out / "01_concentrate_concentrate.csv").read_text().splitlines()
        assert rows[1:] == ["20,0.058297618953261965,0.2607148778117478,"
                            "0.9907117927722401,,,,,"]

    def test_first_feasible_size_past_64(self, tmp_path):
        # the coin at mean 1/67 hits its target only at multiples of 67
        block = {"kind": "concentrate", "n_list": [67, 134]}
        path = tmp_path / "coin.json"
        path.write_text(json.dumps(_with(problem={"target": ["1/67"]},
                                         experiments=[block])))
        assert main(["validate", "-c", str(path)]) == 0
        out = tmp_path / "out"
        assert main(["run", "-c", str(path), "-o", str(out)]) == 0
        rows = [row.split(",") for row in
                (out / "00_concentrate_concentrate.csv").read_text()
                .splitlines()[1:]]
        p = Fraction(1, 67)
        exact = {67: (1 - p) ** 66,
                 134: math.comb(134, 2) * p ** 2 * (1 - p) ** 132}
        assert [int(row[0]) for row in rows] == [67, 134]
        for row in rows:
            assert float(row[1]) == pytest.approx(float(exact[int(row[0])]),
                                                  rel=1e-12, abs=0)

    def test_validation_cap_is_the_largest_size_read(self, tmp_path, capsys):
        path = tmp_path / "coin.json"
        path.write_text(json.dumps(_with(
            problem={"target": ["1/67"]},
            experiments=[{"kind": "corollary1", "n_list": [66]}])))
        assert main(["validate", "-c", str(path)]) == 2
        assert "no feasible sample sizes up to 66" in capsys.readouterr().out

    def test_gaps_horizon_defaults_to_twice_n_max(self, tmp_path):
        block = {"kind": "game", "mode": "gaps", "n_max": 8, "j_max": 8}
        assert load_config(_with(experiments=[block])).experiments[0][
            "horizon"] == 16
        bodies = []
        for i, extra in enumerate(({}, {"horizon": 16})):
            out = tmp_path / str(i)
            run_config(_with(experiments=[{**block, **extra}]), out)
            bodies.append((out / "00_game_game.csv").read_bytes())
        assert bodies[0] == bodies[1]
        assert bodies[0].count(b"\n") == 5  # header and n = 2, 4, 6, 8

    def test_column_reference_names_the_files_runs_write(self, tmp_path,
                                                         monkeypatch):
        # run_config names each file from the block's kind and _RUNNERS;
        # runners that only write their path keep the computation out
        from maxent_lab import experiments

        def touch(ctx, block, path):
            path.write_text("")

        monkeypatch.setattr(experiments, "_RUNNERS", {
            kind: (filename, touch)
            for kind, (filename, _) in experiments._RUNNERS.items()})
        written = set()
        for name in fixture_names():
            out = tmp_path / name
            run_config(load_fixture(name), out)
            reference = (out / "summary.md").read_text() \
                .split("## Column reference")[1]
            entries = set(re.findall(r"^- (\w+\.csv)(?: \(mode (\w+)\))?:",
                                     reference, re.M))
            blocks = load_config(load_fixture(name)).experiments
            csvs = sorted(out.glob("*.csv"))
            assert len(csvs) == len(blocks)
            for block, csv in zip(blocks, csvs):
                entry = (csv.name.split("_", 2)[2], block.get("mode", ""))
                assert entry in entries, (name, csv.name)
                written.add(entry)
        assert entries == written
