"""Check that two source trees of maxent-lab write the same outputs.

    python3 tools/compare_outputs.py PARENT_ROOT CHANGE_ROOT

Each root is a checkout with ``src/maxent_lab``. Every run goes through the
command-line entry point in a fresh interpreter that imports the package from
that root's ``src``, so the two sides share nothing but the inputs:

- the configs of seeds 1 and 2 of the gaps-k3, events-float and events-exact
  benchmark workloads, and all 100 many-small configs of seed 1, all
  generated by CHANGE_ROOT's ``perfbench/workloads.py``;
- ``PATHS_GAME``, a paths-mode game whose mixture sizes end below j_max
  times the first feasible size, so a provider window wider than the
  sizes need is run too;
- ``CUBE3_WINDOW``, cube3 at sizes whose windowed tables fit the cell budget
  and whose full boxes do not: a provider to n = 120 and reachability
  windows to n = 150;
- ``CUBE3_RATIONAL``, cube3 in rational mode with one outcome of double
  prior weight, so the k = 3 sum tables, padded object arrays of integer
  numerators, are swept too;
- ``CUBE3_RECUR_WORDS``, a cube3 recurrence walk of 10^6 steps, whose
  packed centred steps need two words;
- ``THIN_CUBE3``, cube3 at a target whose first feasible size, 402, lies
  past the sizes whose full-box reachability tables fit the cell budget;
- ``THIN_CUBE3_PATHS``, the same problem with a paths game at n = 402, whose
  mixture reads its first feasible size from the windows at 402;
- ``COIN_29_PATHS``, a paths game whose representative at n = 40600 is
  glued from blocks of the first feasible size, 29;
- ``WIDE_PAD``, T = (x, x^2) on {0, 1, 2, 3}, whose inner axis has unit_max
  9, so every windowed k = 2 table is kept with 9 pad cells a row;
- ``EVENTS_K2``, the ``WIDE_PAD`` problem with box, bigram and frequency
  events, in float and in rational mode, whose prior-side DPs cut each of
  the two T digits to its window;
- ``DIE_EVENTS_LAST_INFEASIBLE``, the die at mean 9/2 with the three events
  at sizes whose last is infeasible, so the event DPs stop at the last
  feasible size;
- all five shipped fixtures in float mode;
- brandeis, two-constraint and brandeis-combined in rational mode;
- three runs that exit 3 because a float mass underflows to 0.0 at a size
  that sequences reach: ``DIE5_COROLLARY1`` and ``DIE5_GAPS``, the prior's
  central masses of the die at mean 5, and ``COIN_999_EVENT``, the prior's
  constraint mass in a frequency event DP. The files a refused run leaves
  are compared too;
- ``COIN_999_TV_RATIONAL``, the same coin in rational mode with a
  ``TV(m,n)`` column at n = 600, whose prior masses underflow a float but
  not a Fraction;
- ``DIE5_FREQ``, the die at mean 5 in float mode with a frequency event at
  n = 300 and 420, where P~(A) is about 1e-16: a DP that took the event
  mass as a difference of two masses near 1 wrote 0.0 at n = 420.

For every run the exit codes, the set of files written and the bytes of each
CSV and ``summary.md`` must agree; ``manifest.json`` holds timings and is left
out. Prints the number of runs and files compared and every difference, with
the first differing line of each file that differs and, for a CSV whose
header and row count match, each column that differs with its number of
differing cells and the largest absolute and relative change among them.
Exits 1 on any difference.
"""

from __future__ import annotations

import csv
import json
import subprocess
import sys
import tempfile
from pathlib import Path

SINGLE_WORKLOADS = ("gaps-k3", "events-float", "events-exact")
SEEDS = (1, 2)
FIXTURES = ("brandeis", "brandeis-combined", "coin", "cube3", "two-constraint")
RATIONAL_FIXTURES = ("brandeis", "two-constraint", "brandeis-combined")
SKIPPED = {"manifest.json"}
# the most characters of a differing line that a report shows
LINE_WIDTH = 100
# T in {0, 3, 5} at mean 1: the feasible sizes are 3, 5, 6, 8, 9, 10, ..., so
# the six mixture sizes end at 10 and j_max times the first size is 18
PATHS_GAME = {
    "problem": {"outcomes": ["a", "b", "c"], "prior": ["1", "1", "1"],
                "T": [["0", "3", "5"]], "target": ["1"]},
    "experiments": [{"kind": "game", "mode": "paths", "n_list": [3, 5, 8, 9],
                     "j_max": 6}],
}
# three fair bits at means 1/2: the sum tables to n = 120 hold 6.9e6 window
# cells (5.4e7 in full boxes) and the reachability tables to n = 150 1.7e7
# (1.3e8)
CUBE3_WINDOW = {
    "problem": {"outcomes": ["000", "001", "010", "011", "100", "101", "110",
                             "111"],
                "prior": ["1"] * 8,
                "T": [["0", "0", "0", "0", "1", "1", "1", "1"],
                      ["0", "0", "1", "1", "0", "0", "1", "1"],
                      ["0", "1", "0", "1", "0", "1", "0", "1"]],
                "target": ["1/2", "1/2", "1/2"]},
    "experiments": [{"kind": "condlimit", "m": 1, "n_list": [4, 120]},
                    {"kind": "corollary1", "n_list": [150]}],
}

# the same cube with prior weights 1, ..., 1, 2, in exact arithmetic: object
# tables with k = 3 in the provider, the central masses and the marginal
CUBE3_RATIONAL = {
    "problem": {**CUBE3_WINDOW["problem"], "prior": ["1"] * 7 + ["2"]},
    "mode": "rational",
    "experiments": [{"kind": "condlimit", "m": 1, "n_list": [4, 8, 12]},
                    {"kind": "concentrate", "n_list": [2, 4, 6], "tv_m": 1}],
}

# the fair cube's steps of +-1 per coordinate take radices of 2 * 10^6 + 1,
# of which two fit one int64 word and three do not
CUBE3_RECUR_WORDS = {
    "problem": CUBE3_WINDOW["problem"],
    "experiments": [{"kind": "recur", "steps": 1_000_000, "reps": 2, "seed": 0,
                     "checkpoints": [1000, 100000, 1000000]}],
}

# cube3 at (1/201, 1/2, 1/2): the full boxes outgrow the cell budget at
# n = 368, while the windows at horizon 402 keep at most 3 cells on the
# first coordinate
THIN_CUBE3 = {
    "problem": {**CUBE3_WINDOW["problem"], "target": ["1/201", "1/2", "1/2"]},
    "experiments": [{"kind": "corollary1", "n_list": [402]}],
}
THIN_CUBE3_PATHS = {
    "problem": THIN_CUBE3["problem"],
    "experiments": [{"kind": "game", "mode": "paths", "n_list": [402],
                     "j_max": 1, "predictors": ["maxent", "mixture"]}],
}

# the coin with prior 28:1 at mean 1/29: the windows of the walk to
# n = 40600 = 1400 * 29 outgrow the cell budget, so the representative is
# the size-29 block repeated
COIN_29_PATHS = {
    "problem": {"outcomes": ["0", "1"], "prior": ["28", "1"],
                "T": [["0", "1"]], "target": ["1/29"]},
    "experiments": [{"kind": "game", "mode": "paths", "n_list": [29, 40600],
                     "j_max": 2, "predictors": ["maxent", "mixture"]}],
}

# T = (x, x^2) on {0, 1, 2, 3} with prior 1:2:3:4 at mean (7/4, 15/4): unit
# steps up to 3 and 9 on a lattice of index 2, feasible first at n = 4 (3, 2,
# 1, 1); every block sweeps windowed tables laid out 9 cells wider a row
WIDE_PAD = {
    "problem": {"outcomes": ["0", "1", "2", "3"], "prior": ["1", "2", "3", "4"],
                "T": [["0", "1", "2", "3"], ["0", "1", "4", "9"]],
                "target": ["7/4", "15/4"]},
    "experiments": [{"kind": "concentrate", "n_list": [4, 8, 40], "tv_m": 1},
                    {"kind": "condlimit", "m": 2, "n_list": [8, 40]},
                    {"kind": "corollary1", "n_list": [4, 40, 120]},
                    {"kind": "game", "mode": "paths", "n_list": [4, 8, 16],
                     "j_max": 4}],
}

# the WIDE_PAD problem with box, bigram and frequency events: the prior's
# side of a k = 2 event DP keeps the states inside the window on each T
# digit; 6 is infeasible
K2_EVENTS = [{"type": "box", "statistic": [["0", "1", "0", "1"]],
              "lower": ["2/5"], "upper": ["1/2"]},
             {"type": "bigram_deviation", "j": "1", "jprime": "2",
              "epsilon": "1/5"},
             {"type": "freq_deviation", "epsilon": "1/5",
              "reference": "maxent"}]
EVENTS_K2 = {
    "problem": WIDE_PAD["problem"],
    "experiments": [{"kind": "concentrate", "n_list": [4, 6, 8, 12],
                     "events": K2_EVENTS}],
}
EVENTS_K2_RATIONAL = {**EVENTS_K2, "mode": "rational"}

# the die at mean 9/2, feasible at even sizes only: an event block whose
# last size is infeasible, so its DPs run to the last feasible size
DIE_EVENTS_LAST_INFEASIBLE = {
    "problem": {"outcomes": [str(x) for x in range(1, 7)],
                "prior": ["1/6"] * 6, "T": [[str(x) for x in range(1, 7)]],
                "target": ["9/2"]},
    "experiments": [{"kind": "concentrate", "n_list": [4, 5, 8, 11],
                     "events": [
                         {"type": "box", "statistic": [
                             ["0", "1", "1", "0", "1", "0"]],
                          "lower": ["1/3"], "upper": ["2/3"]},
                         {"type": "bigram_deviation", "j": "4", "jprime": "1",
                          "epsilon": "1/4"},
                         {"type": "freq_deviation", "epsilon": "1/5",
                          "reference": "maxent"}]}],
}

# the die at mean 5: P_q(C_n) underflows from n = 1741 on
DIE5 = {"outcomes": [str(x) for x in range(1, 7)], "prior": ["1/6"] * 6,
        "T": [[str(x) for x in range(1, 7)]], "target": ["5"]}
DIE5_COROLLARY1 = {
    "problem": DIE5,
    "experiments": [{"kind": "solve"},
                    {"kind": "corollary1", "n_list": [1000, 2000]}],
}
DIE5_GAPS = {
    "problem": DIE5,
    "experiments": [{"kind": "game", "mode": "gaps", "n_max": 5,
                     "horizon": 3000, "j_max": 3000}],
}
DIE5_FREQ = {
    "problem": DIE5,
    "experiments": [{"kind": "concentrate", "n_list": [300, 420],
                     "events": [{"type": "freq_deviation", "epsilon": "1/5",
                                 "reference": "maxent"}]}],
}

# the coin with prior 1:999 at mean 1/2: the prior's mass of C_600 underflows
# in the event DP, while the projection's central masses stay normal
COIN_999_EVENT = {
    "problem": {"outcomes": ["0", "1"], "prior": ["1", "999"],
                "T": [["0", "1"]], "target": ["1/2"]},
    "experiments": [{"kind": "concentrate", "n_list": [600],
                     "events": [{"type": "freq_deviation", "epsilon": "1/50",
                                 "reference": "maxent"}]}],
}

# the same coin in rational mode: the TV column's provider under the prior
# is exact, so no mass underflows
COIN_999_TV_RATIONAL = {
    "problem": COIN_999_EVENT["problem"],
    "mode": "rational",
    "experiments": [{"kind": "concentrate", "n_list": [600], "tv_m": 1}],
}


def _runs(change_root: Path, config_dir: Path) -> list[tuple[str, list[str]]]:
    """(name, CLI arguments without the output option) for every run."""
    sys.path.insert(0, str(change_root / "perfbench"))
    import workloads

    configs = {f"{w}-seed{s}": workloads.generate(w, s)[0]
               for w in SINGLE_WORKLOADS for s in SEEDS}
    for i, cfg in enumerate(workloads.generate("many-small", 1)):
        configs[f"many-small-seed1-{i:02d}"] = cfg
    configs["paths-game-t035"] = PATHS_GAME
    configs["cube3-window"] = CUBE3_WINDOW
    configs["cube3-rational"] = CUBE3_RATIONAL
    configs["cube3-recur-words"] = CUBE3_RECUR_WORDS
    configs["thin-cube3"] = THIN_CUBE3
    configs["thin-cube3-paths"] = THIN_CUBE3_PATHS
    configs["coin-29-paths"] = COIN_29_PATHS
    configs["wide-pad"] = WIDE_PAD
    configs["events-k2"] = EVENTS_K2
    configs["events-k2-rational"] = EVENTS_K2_RATIONAL
    configs["die-events-last-infeasible"] = DIE_EVENTS_LAST_INFEASIBLE
    configs["die5-corollary1-underflow"] = DIE5_COROLLARY1
    configs["die5-gaps-underflow"] = DIE5_GAPS
    configs["die5-freq"] = DIE5_FREQ
    configs["coin-999-event-underflow"] = COIN_999_EVENT
    configs["coin-999-tv-rational"] = COIN_999_TV_RATIONAL
    runs = []
    for name, cfg in configs.items():
        path = config_dir / f"{name}.json"
        path.write_text(json.dumps(cfg))
        runs.append((name, ["run", "-c", str(path)]))
    runs += [(f"fixture-{f}", ["fixtures", "run", f]) for f in FIXTURES]
    runs += [(f"fixture-{f}-rational", ["fixtures", "run", f, "--mode", "rational"])
             for f in RATIONAL_FIXTURES]
    return runs


def _run(root: Path, args: list[str], outdir: Path) -> int:
    """Exit code of one CLI run of the package under ``root/src``."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from maxent_lab.cli import main; sys.exit(main(sys.argv[2:]))")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(root / "src"), *args, "-o", str(outdir)],
        cwd=outdir.parent, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return proc.returncode


def _outputs(outdir: Path) -> dict[str, bytes]:
    if not outdir.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())
            if p.name not in SKIPPED}


def _first_difference(a: bytes, b: bytes) -> str:
    """Where two differing files part: the 1-based number of the first line
    that differs and that line from each side, cut to ``LINE_WIDTH``
    characters. A missing line reads as empty."""
    lines_a = a.decode(errors="replace").splitlines(keepends=True)
    lines_b = b.decode(errors="replace").splitlines(keepends=True)
    number = next((i for i, pair in enumerate(zip(lines_a, lines_b))
                   if pair[0] != pair[1]), min(len(lines_a), len(lines_b)))
    line_a, line_b = (lines[number][:LINE_WIDTH] if number < len(lines) else ""
                      for lines in (lines_a, lines_b))
    return (f" at line {number + 1}\n    parent: {line_a!r}"
            f"\n    change: {line_b!r}")


def _column_changes(a: bytes, b: bytes) -> str:
    """One line per differing column of two CSVs with the same header and
    row count: its differing cells, and the largest absolute and relative
    change over those whose both sides read as numbers (relative to the
    larger magnitude). Empty when the header or the row count differs, or a
    row is not as wide as the header."""
    rows_a, rows_b = (list(csv.reader(text.decode(errors="replace").splitlines()))
                      for text in (a, b))
    if not rows_a or rows_a[0] != rows_b[0] or len(rows_a) != len(rows_b) \
            or any(len(row) != len(rows_a[0]) for row in rows_a + rows_b):
        return ""
    lines = []
    for j, name in enumerate(rows_a[0]):
        cells = [(ra[j], rb[j]) for ra, rb in zip(rows_a[1:], rows_b[1:])
                 if ra[j] != rb[j]]
        if not cells:
            continue
        numeric = []
        for x, y in cells:
            try:
                numeric.append((float(x), float(y)))
            except ValueError:
                pass
        largest = max((abs(x - y) for x, y in numeric), default=0.0)
        relative = max((abs(x - y) / max(abs(x), abs(y)) for x, y in numeric
                        if x != y), default=0.0)
        lines.append(f"\n    column {name}: {len(cells)} cells, largest change "
                     f"{largest:.3g}, relative {relative:.3g}"
                     + (f", {len(cells) - len(numeric)} not numeric"
                        if len(numeric) < len(cells) else ""))
    return "".join(lines)


def compare(parent_root: Path, change_root: Path) -> list[str]:
    """Differences between the two trees' outputs, one entry each."""
    differences = []
    files = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config_dir = tmp / "configs"
        config_dir.mkdir()
        runs = _runs(change_root, config_dir)
        for name, args in runs:
            sides = []
            for side, root in (("parent", parent_root), ("change", change_root)):
                outdir = tmp / side / name
                outdir.parent.mkdir(exist_ok=True)
                sides.append((_run(root, args, outdir), _outputs(outdir)))
            (code_a, out_a), (code_b, out_b) = sides
            if code_a != code_b:
                differences.append(f"{name}: exit code {code_a} -> {code_b}")
            if sorted(out_a) != sorted(out_b):
                differences.append(f"{name}: files {sorted(out_a)} -> {sorted(out_b)}")
            for fname in sorted(set(out_a) & set(out_b)):
                files += 1
                a, b = out_a[fname], out_b[fname]
                if a != b:
                    differences.append(
                        f"{name}/{fname}: contents differ"
                        + _first_difference(a, b)
                        + (_column_changes(a, b) if fname.endswith(".csv")
                           else ""))
            print(f"{name}: exit {code_a}/{code_b}, {len(out_a)} files", flush=True)
    print(f"compared {len(runs)} runs, {files} files: "
          f"{len(differences)} differences")
    return differences


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare_outputs.py PARENT_ROOT CHANGE_ROOT", file=sys.stderr)
        return 2
    roots = [Path(a).resolve() for a in argv]
    for root in roots:
        if not (root / "src" / "maxent_lab").is_dir():
            print(f"{root}: no src/maxent_lab", file=sys.stderr)
            return 2
    differences = compare(*roots)
    for line in differences:
        print(line)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
