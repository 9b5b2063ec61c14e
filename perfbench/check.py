"""Correctness check of one measured process's outputs.

    python3 perfbench/check.py --workload NAME --seed N --outdir DIR \
        --result FILE

Regenerates the workload's configs from the seed and checks the CSVs of
every op that completed:

- small-n values against the exhaustive rational ``enumerate_oracle``
  (constraint probabilities, event probabilities, conditioned marginals, c_n,
  and the worst-case mixture gap by brute force over the constraint set);
- full-size invariants: masses and probabilities in [0, 1], solve masses that
  reproduce the target, ``residual_direct`` ~ ``residual_identity``, and
  self-consistent game tables.

Prints one JSON object: {"failures": {op index: message}, "checked": n,
"oracle_values": m}. The oracle is used only here and is never timed.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from maxent_lab.config import build_event, load_config  # noqa: E402
from maxent_lab.oracle import enumerate_oracle  # noqa: E402
from maxent_lab.priors import rissanen_prior  # noqa: E402
from maxent_lab.sumdist import central_series  # noqa: E402

ORACLE_LEAVES = 5000   # |X|^n above this is not enumerated
REL = 1e-9


class CheckFailed(Exception):
    pass


def _close(a: float, b: float, rel: float = REL, abs_tol: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _num(text: str) -> float | None:
    return None if text == "" else float(Fraction(text)) if "/" in text \
        else float(text)


def _prob(value, what: str) -> None:
    if value is not None:
        _expect(0.0 <= value <= 1.0 + 1e-12, f"{what} = {value} outside [0, 1]")


class OpChecker:
    """Checks the outputs of one config run."""

    def __init__(self, config: dict, out_dir: Path):
        self.raw = config
        self.out_dir = out_dir
        self.space, self.constraint = load_config(config).problem.build()
        self.mode = config.get("mode", "float")
        self.pmf: list[float] | None = None
        self.oracle_values = 0
        self._oracles: dict = {}

    def oracle(self, n: int, measure: str, events=()):
        key = (n, measure, tuple(events))
        if key not in self._oracles:
            # the float masses, normalized exactly (they differ by ~1e-16)
            exact = [Fraction(p) for p in self.pmf]
            m = "q" if measure == "q" else \
                ("maxent", [p / sum(exact) for p in exact])
            self._oracles[key] = enumerate_oracle(self.space, self.constraint,
                                                  n, measure=m, events=events)
        return self._oracles[key]

    def small(self, n: int) -> bool:
        return self.space.size ** n <= ORACLE_LEAVES

    def run(self) -> None:
        for j, block in enumerate(self.raw["experiments"]):
            paths = sorted(self.out_dir.glob(f"{j:02d}_*.csv"))
            _expect(len(paths) == 1, f"experiment {j}: expected one CSV")
            kind = block["kind"]
            if kind == "game":
                kind = "gaps" if block.get("mode") == "gaps" else "paths"
            getattr(self, f"check_{kind}")(block, _rows(paths[0]))

    # -- per experiment -------------------------------------------------
    def check_solve(self, block, rows):
        self.pmf = [float(r["maxent"]) for r in rows]
        for p in self.pmf:
            _prob(p, "maxent mass")
        _expect(abs(sum(self.pmf) - 1.0) < 1e-9, "masses do not sum to 1")
        values = self.constraint.values_float
        for j, t in enumerate(self.constraint.target_float):
            mean = sum(p * v[j] for p, v in zip(self.pmf, values))
            _expect(abs(mean - t) < 1e-8,
                    f"solve masses give mean {mean}, target {t}")

    def _events(self, block):
        events = []
        for spec in block.get("events", []):
            spec = dict(spec)
            if spec.get("reference") == "maxent":
                spec["reference"] = list(self.pmf)
            events.append(build_event(spec, self.space))
        return events

    def _tv(self, n: int, m: int) -> float:
        marginal = self.oracle(n, "q").marginal(m)
        tv = 0.0
        for prefix in itertools.product(range(self.space.size), repeat=m):
            prod = math.prod(self.pmf[i] for i in prefix)
            tv += abs(float(marginal.get(prefix, 0)) - prod)
        self.oracle_values += 1
        return 0.5 * tv

    def check_concentrate(self, block, rows):
        events = self._events(block)
        k = self.constraint.dim
        for row in rows:
            n = int(row["n"])
            p_c, c_n, d_n = _num(row["P(C_n)"]), _num(row["c_n"]), _num(row["d_n"])
            for col in ("P(C_n)", "event_prob_q_given_C", "event_prob_ptilde",
                        "TV(m,n)"):
                _prob(_num(row[col]), f"n={n} {col}")
            if not p_c:
                continue
            _expect(c_n > 0 and d_n > 0, f"n={n}: c_n, d_n must be positive")
            _expect(_close(c_n, n ** (k / 2) * p_c), f"n={n}: c_n != n^(k/2) P")
            if not self.small(n):
                continue
            under_p = self.oracle(n, "p", events)
            _expect(_close(p_c, float(under_p.prob_constraint)),
                    f"n={n}: P(C_n) {p_c} vs oracle "
                    f"{float(under_p.prob_constraint)}")
            self.oracle_values += 1
            if row["event"]:
                j = int(row["event"].split(":")[0])
                under_q = self.oracle(n, "q", events).event_results[j]
                cond = under_q.prob_joint / under_q.prob_constraint
                got = _num(row["event_prob_q_given_C"])
                _expect(got == float(cond) if self.mode == "rational"
                        else _close(got, float(cond)),
                        f"n={n} {row['event']}: P_q(E|C) {got} vs oracle "
                        f"{float(cond)}")
                got = _num(row["event_prob_ptilde"])
                want = float(under_p.event_results[j].prob_event)
                _expect(_close(got, want),
                        f"n={n} {row['event']}: P_p(E) {got} vs oracle {want}")
                self.oracle_values += 2
            if row["TV(m,n)"]:
                want = self._tv(n, block["tv_m"])
                _expect(_close(_num(row["TV(m,n)"]), want),
                        f"n={n}: TV {row['TV(m,n)']} vs oracle {want}")

    def check_condlimit(self, block, rows):
        for row in rows:
            n, tv = int(row["n"]), _num(row["tv"])
            _prob(tv, f"condlimit n={n} tv")
            if tv is not None and self.small(n):
                want = self._tv(n, int(row["m"]))
                _expect(_close(tv, want), f"condlimit n={n}: {tv} vs oracle {want}")

    def check_corollary1(self, block, rows):
        k = self.constraint.dim
        for row in rows:
            n = int(row["n"])
            if row["c_n"] == "":
                continue
            direct, ident = _num(row["residual_direct"]), _num(row["residual_identity"])
            _expect(abs(direct - ident) < 1e-6,
                    f"n={n}: residual_direct {direct} vs identity {ident}")
            _expect(_close(ident, -math.log2(_num(row["d_n"])), 1e-12),
                    f"n={n}: residual_identity != -log2 d_n")
            if self.small(n):
                want = n ** (k / 2) * float(self.oracle(n, "p").prob_constraint)
                _expect(_close(_num(row["c_n"]), want),
                        f"corollary1 n={n}: c_n {row['c_n']} vs oracle {want}")
                self.oracle_values += 1

    def check_paths(self, block, rows):
        by_n: dict = {}
        for row in rows:
            by_n.setdefault(int(row["n"]), {})[row["predictor"]] = (
                _num(row["codelength_bits"]), _num(row["gap_vs_maxent_bits"]))
        _expect(bool(by_n), "game table is empty")
        for n, preds in by_n.items():
            base = preds["maxent"][0]
            _expect(preds["maxent"][1] == 0.0, f"n={n}: maxent gap not 0")
            for tag, (length, gap) in preds.items():
                # a mixture truncated at j_max components may give a
                # sequence zero mass (infinite length); nothing else may
                _expect(length > 0 and (math.isfinite(length) or tag == "mixture"),
                        f"n={n} {tag}: codelength {length}")
                _expect(_close(gap, length - base, 1e-9, 1e-9),
                        f"n={n} {tag}: gap inconsistent")

    def check_gaps(self, block, rows):
        _expect(bool(rows), "gap table is empty")
        for row in rows:
            n, gap = int(row["n"]), _num(row["gap_bits"])
            _expect(math.isfinite(gap), f"n={n}: gap {gap}")
            if n > 1:
                _expect(_close(_num(row["gap_per_log2n"]), gap / math.log2(n)),
                        f"n={n}: gap_per_log2n inconsistent")
        small = [r for r in rows if int(r["n"]) <= 4 and self.small(int(r["n"]))]
        if not small:
            return
        horizon = block.get("horizon") or 2 * block["n_max"]
        central_q = central_series(self.space, self.constraint, horizon)
        for m in range(1, 5):
            if self.small(m):
                want = float(self.oracle(m, "q").prob_constraint)
                _expect(_close(float(central_q[m]), want),
                        f"central_q[{m}] vs oracle {want}")
                self.oracle_values += 1
        for row in small:
            n = int(row["n"])
            want = self._brute_gap(n, central_q, horizon, block.get("j_max", 64))
            _expect(_close(_num(row["gap_bits"]), want, 1e-9, 1e-9),
                    f"gap n={n}: {row['gap_bits']} vs brute force {want}")
            self.oracle_values += 1

    def _brute_gap(self, n, central_q, horizon, j_max) -> float:
        """min over x in C_n of log2(mixture(x) / projection(x)), with the
        constraint set enumerated by the oracle."""
        sizes = [m for m in range(1, horizon + 1) if central_q[m] > 0.0][:j_max]
        prior = rissanen_prior(j_max)
        weights = [float(prior.mass(j + 1)) for j in range(len(sizes))]
        total = sum(weights)
        weights = [w / total for w in weights]
        values, target = self.constraint.values, self.constraint.target
        tail = sum(w * float(central_q[s - n]) / float(central_q[s])
                   for w, s in zip(weights, sizes) if s > n)
        best = math.inf
        for seq in self.oracle(n, "q").conditional:
            sums = [Fraction(0)] * len(target)
            hits = 0.0
            for step, idx in enumerate(seq, start=1):
                sums = [a + b for a, b in zip(sums, values[idx])]
                if all(s == step * t for s, t in zip(sums, target)) \
                        and step in sizes:
                    j = sizes.index(step)
                    hits += weights[j] / float(central_q[step])
            best = min(best, hits + tail)
        prior_q = [float(w) for w in self.space.prior_fractions]
        entropy = -sum(p * math.log(p / q) for p, q in zip(self.pmf, prior_q)) \
            / math.log(2.0)
        return math.log2(best) + n * entropy

    def check_recur(self, block, rows):
        means = [_num(r["mean_visits"]) for r in rows]
        _expect(all(m >= 0 for m in means), "negative visit count")
        _expect(means == sorted(means), "visits decrease across checkpoints")
        _expect(all(_num(r["stderr"]) >= 0 for r in rows), "negative stderr")

    def check_hypercomp(self, block, rows):
        for row in rows:
            _prob(_num(row["exceed_freq"]), "exceed_freq")
            _expect(_num(row["bound"]) == 2.0 ** -_num(row["K"]), "bound != 2^-K")


def check_outputs(workload: str, seed: int, outdir: Path, statuses) -> dict:
    configs = workloads.generate(workload, seed)
    failures: dict = {}
    checked = oracle_values = 0
    for i, (config, status) in enumerate(zip(configs, statuses)):
        if status != "ok":
            continue
        checker = OpChecker(config, outdir / f"op{i:03d}")
        try:
            checker.run()
        except CheckFailed as exc:
            failures[i] = str(exc)
        except Exception as exc:  # a crash inside the check is a failure too
            failures[i] = f"check raised {type(exc).__name__}: {exc}"
        checked += 1
        oracle_values += checker.oracle_values
    return {"failures": failures, "checked": checked,
            "oracle_values": oracle_values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    ops = json.loads(Path(args.result).read_text())["ops"]
    report = check_outputs(args.workload, args.seed, Path(args.outdir),
                           [op["status"] for op in ops])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
