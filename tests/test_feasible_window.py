"""The first feasible sizes come from the windowed reachability sweep.

``first_feasible_sizes(space, constraint, count, n_cap)`` reads each target
cell from the sweep cut to its ``lattice._window`` at horizon n_cap, which
holds the target cell of every size up to n_cap. So a config whose full boxes
outgrow the cell budget before its first feasible size validates, and the
representative fallback finds its blocks among the first four feasible sizes
below n, however large they are, and never asks for n itself.
"""

import json
from fractions import Fraction

import pytest

from maxent_lab import build_space, derive_lattice, lattice
from maxent_lab.cli import main
from maxent_lab.concentration import representative_sequence
from maxent_lab.errors import EnumerationInfeasibleError

# the coin with prior 28:1 at mean 1/29: the first feasible size is 29, and
# the windows of the walk to n = 40600 = 1400 * 29 hold 5.7e7 cells, past the
# cell budget, so its representative is glued from blocks of 29
COIN_29 = {
    "problem": {"outcomes": ["0", "1"], "prior": ["28", "1"],
                "T": [["0", "1"]], "target": ["1/29"]},
    "experiments": [{"kind": "game", "mode": "paths", "n_list": [29, 40600],
                     "j_max": 2, "predictors": ["maxent", "mixture"]}],
}


def _run(tmp_path, raw):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return main(["run", "-c", str(path), "-o", str(tmp_path / "out")])


def test_a_thin_cube3_target_validates_past_the_full_box_budget(
        tmp_path, monkeypatch, cube3):
    # cube3 at (1/21, 1/2, 1/2) is first feasible at n = 42; the full-box
    # step to n = 27 holds 28**3 = 21952 cells, past a budget of 20000, while
    # the windows at horizon 42 keep at most 3 cells on the first coordinate
    monkeypatch.setattr(lattice, "CELL_BUDGET", 20_000)
    raw = _thin_cube3(cube3, [{"kind": "corollary1", "n_list": [42]}])
    assert _run(tmp_path, raw) == 0
    rows = (tmp_path / "out" / "00_corollary1_corollary1.csv").read_text()
    assert rows.splitlines()[1].startswith("42,")


def _thin_cube3(cube3, experiments):
    # cube3 at (1/21, 1/2, 1/2), first feasible at n = 42
    return {"problem": {"outcomes": list(cube3.outcomes),
                        "prior": ["1"] * 8,
                        "T": [[label[j] for label in cube3.outcomes]
                              for j in range(3)],
                        "target": ["1/21", "1/2", "1/2"]},
            "experiments": experiments}


def test_a_thin_cube3_paths_game_reads_its_first_size_at_its_last(
        tmp_path, monkeypatch, cube3):
    # the mixture's first size is read from the windows at n = 42, not from
    # full boxes, which outgrow a budget of 25000 at n = 29
    monkeypatch.setattr(lattice, "CELL_BUDGET", 25_000)
    raw = _thin_cube3(cube3, [{"kind": "game", "mode": "paths",
                               "n_list": [42], "j_max": 1}])
    assert _run(tmp_path, raw) == 0
    rows = (tmp_path / "out" / "00_game_game.csv").read_text().splitlines()
    assert [row.split(",")[:2] for row in rows[1:]] == \
        [["42", "maxent"], ["42", "conditioned"], ["42", "mixture"]]


def test_a_paths_game_with_no_feasible_size_builds_no_mixture(
        tmp_path, monkeypatch, cube3):
    # no size up to 40 is feasible, so every size is skipped; the corollary1
    # block at 42 lets the config validate
    monkeypatch.setattr(lattice, "CELL_BUDGET", 25_000)
    raw = _thin_cube3(cube3, [{"kind": "game", "mode": "paths",
                               "n_list": [40], "j_max": 1},
                              {"kind": "corollary1", "n_list": [42]}])
    assert _run(tmp_path, raw) == 0
    out = tmp_path / "out"
    assert (out / "00_game_game.csv").read_text() == \
        "n,predictor,codelength_bits,gap_vs_maxent_bits\n"
    assert "Skipped infeasible sizes: [40]." in (out / "summary.md").read_text()


def test_a_paths_game_glues_blocks_of_a_first_size_past_24(tmp_path):
    assert _run(tmp_path, COIN_29) == 0
    space = build_space(["0", "1"], [28, 1])
    constraint = derive_lattice([[0], [1]], [Fraction(1, 29)])
    rep = representative_sequence(space, constraint, 40600)
    assert len(rep) == 40600 and sum(rep) == 1400
    assert rep == representative_sequence(space, constraint, 29) * 1400


def test_the_fallback_never_asks_for_n_itself(monkeypatch, coin):
    # with the budget at 50 the walk to n = 29 is refused (its windows hold
    # 57 cells) and no size below 29 is feasible, so no block is found: a
    # guard error, where a fallback that also searched n = 29 would recurse
    monkeypatch.setattr(lattice, "CELL_BUDGET", 50)
    constraint = derive_lattice([[0], [1]], [Fraction(1, 29)])
    with pytest.raises(EnumerationInfeasibleError, match="n=29"):
        representative_sequence(coin, constraint, 29)
