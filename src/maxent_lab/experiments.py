"""Experiment orchestration and deterministic report emission.

Executes the experiment blocks of a config in declaration order and writes one
CSV per experiment, a summary document, and a run manifest. CSV bodies are
byte-identical across reruns with the same config and seeds: floats are
rendered with shortest round-trip repr and all randomness is seed-registered.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import __version__
from .analysis import corollary1_residuals, mixture_gap_series, play_coding_game
from .concentration import concentration_constants
from .conditional import conditional_marginal
from .config import build_event, load_config
from .errors import EnumerationInfeasibleError, ValidationError
from .predictors import (
    conditioned_prior_predictor,
    maxent_predictor,
    mixture_predictor,
)
from .priors import rissanen_prior
from .simulate import hypercompression_check, recurrence_simulation
from .sumdist import SumTableProvider

COLUMN_REFERENCE = """\
## Column reference

- solve.csv: `outcome` label, `prior` mass, `maxent` projected mass.
- concentrate.csv: `n` sample size; `P(C_n)` projection probability of hitting
  the target average; `c_n` = n^(k/2) P(C_n); `d_n` ratio of P(C_n) to its
  normal-approximation value (tends to 1); `event` event label or blank;
  `event_prob_q_given_C` prior probability of the event given the constraint;
  `event_prob_ptilde` unconditional projection probability of the event;
  `theorem1_slack` event_prob_ptilde minus n^(-k/2) c_n event_prob_q_given_C
  (non-negative, zero for events inside the constraint set);
  `TV(m,n)` total variation between the conditioned m-symbol marginal and the
  projection product.
- condlimit.csv: `m` marginal length, `n` sample size, `tv` total variation as
  above (blank for infeasible n).
- corollary1.csv: `n`, `c_n`, `d_n` as above; `residual_direct` codelength
  residual of a representative constraint sequence; `residual_identity`
  -log2 d_n (the two agree up to float rounding).
- game.csv (mode paths): `n` sample size, `predictor` tag, `codelength_bits` on the
  shared representative sequence, `gap_vs_maxent_bits` codelength minus the
  projection codelength on the same sequence.
- game.csv (mode gaps): `n` sample size, `component` mixture component index,
  `gap_bits` minimum over constraint sequences of log2(mixture/projection),
  `gap_per_log2n` that gap divided by log2 n.
- recurrence.csv: `checkpoint` step count, `mean_visits` origin visits of the
  centered constraint walk averaged over replicas, `stderr` standard error.
- hypercompression.csv: `K` saving threshold in bits, `samples`, `exceed_freq`
  frequency of the challenger saving at least K bits, `bound` 2^-K.
"""


@dataclass
class RunManifest:
    config_hash: str
    version: str
    mode: str
    outputs: dict = field(default_factory=dict)
    durations_seconds: dict = field(default_factory=dict)
    seeds: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _run_solve(ctx, block, path):
    space, solution = ctx["space"], ctx["solution"]
    rows = [
        (label, float(q), float(p))
        for label, q, p in zip(space.outcomes, space.prior, solution.pmf)
    ]
    _write_csv(path, ["outcome", "prior", "maxent"], rows)
    masses = ", ".join(f"{label}: {p:.5f}"
                       for label, p in zip(space.outcomes, solution.pmf))
    ctx["summary"].append(
        f"Solve: beta = {[round(float(b), 8) for b in solution.beta]}, "
        f"ln Z = {solution.logz:.10f}, entropy = {solution.entropy_bits:.10f} "
        f"bits, residual = {solution.residual:.3e}, iterations = "
        f"{solution.iterations}.\n\nMasses: {masses}."
    )


def _tv_series(ctx, m: int, n_list) -> list:
    """TV(m, n) of the conditioned m-symbol marginal to the projection
    product for each n of the ascending ``n_list``, None where n is
    infeasible or the marginal is not enumerated. One provider under the
    prior in the run's arithmetic serves every size: its tables only grow."""
    provider = SumTableProvider(ctx["space"], ctx["constraint"], n_list[-1],
                                measure="q", mode=ctx["mode"])
    tvs = []
    for n in n_list:
        try:
            tvs.append(conditional_marginal(provider, m, n).tv_to_product(
                ctx["solution"].pmf))
        except (ValidationError, EnumerationInfeasibleError):
            tvs.append(None)
    return tvs


def _run_concentrate(ctx, block, path):
    space, constraint, solution = ctx["space"], ctx["constraint"], ctx["solution"]
    events = [build_event(spec, space, solution)
              for spec in block.get("events", [])]
    labels = [f"{j}:{ev.kind}" for j, ev in enumerate(events)]
    report = concentration_constants(
        space, constraint, solution, block["n_list"], events=events,
        mode=ctx["mode"])
    if block.get("tv_m") is None:
        tvs = [None] * len(report.records)
    else:
        tvs = _tv_series(ctx, block["tv_m"], [rec.n for rec in report.records])
    rows = []
    for rec, tv in zip(report.records, tvs):
        base = (rec.n, rec.prob_constraint, rec.c_n, rec.d_n)
        if not rec.events:
            rows.append(base + ("", None, None, None, tv))
        for label, check in zip(labels, rec.events):
            rows.append(base + (label, check.conditional_q, check.prob_maxent,
                                check.slack_item1, tv))
    _write_csv(path, ["n", "P(C_n)", "c_n", "d_n", "event",
                      "event_prob_q_given_C", "event_prob_ptilde",
                      "theorem1_slack", "TV(m,n)"], rows)
    ctx["summary"].append(
        f"Concentration: limit value {report.limit_value!r}, "
        f"det Sigma {report.det_sigma!r}."
    )


def _run_condlimit(ctx, block, path):
    m = block["m"]
    tvs = _tv_series(ctx, m, block["n_list"])
    _write_csv(path, ["m", "n", "tv"],
               [(m, n, tv) for n, tv in zip(block["n_list"], tvs)])
    ctx["summary"].append(f"Conditional limit: m = {m}, sizes {block['n_list']}.")


def _run_corollary1(ctx, block, path):
    records = corollary1_residuals(ctx["space"], ctx["constraint"],
                                   ctx["solution"], block["n_list"])
    rows = [(r.n, r.c_n, r.d_n, r.residual_direct, r.residual_identity)
            for r in records]
    _write_csv(path, ["n", "c_n", "d_n", "residual_direct",
                      "residual_identity"], rows)
    ctx["summary"].append("Codelength residuals written; the identity column "
                          "is -log2 d_n.")


def _run_game_paths(ctx, block, path):
    space, constraint, solution = ctx["space"], ctx["constraint"], ctx["solution"]
    prior = rissanen_prior(block["j_max"])
    last = block["n_list"][-1]
    # multiples of the first feasible size are feasible, so the mixture's
    # j_max sizes lie within j_max times it; the provider serves them and
    # every size of the block, all skipped and with no mixture if none is
    # feasible
    first = ctx["problem"].first_feasible(last) \
        if "mixture" in block["predictors"] else []
    provider = SumTableProvider(space, constraint,
                                max([last, *(prior.j_max * n for n in first)]),
                                measure="q")
    predictors = {}
    for tag in block["predictors"]:
        if tag == "maxent":
            predictors[tag] = maxent_predictor(space, solution)
        elif tag == "conditioned":
            predictors[tag] = lambda n: conditioned_prior_predictor(provider, n)
        elif first:
            predictors[tag] = mixture_predictor(provider, prior)
    report = play_coding_game(space, constraint, solution, predictors,
                              block["n_list"])
    rows = [(r.n, r.predictor, r.codelength_bits, r.gap_vs_maxent_bits)
            for r in report.codelengths]
    _write_csv(path, ["n", "predictor", "codelength_bits",
                      "gap_vs_maxent_bits"], rows)
    note = f" Skipped infeasible sizes: {list(report.skipped_sizes)}." \
        if report.skipped_sizes else ""
    ctx["summary"].append(
        f"Coding game (paths): predictors {block['predictors']} on shared "
        f"representative sequences.{note}"
    )


def _run_game_gaps(ctx, block, path):
    prior = rissanen_prior(block["j_max"])
    records = mixture_gap_series(
        ctx["space"], ctx["constraint"], ctx["solution"], prior,
        n_max=block["n_max"], horizon=block["horizon"])
    rows = [(r.n, r.component, r.gap_bits, r.gap_per_log2n) for r in records]
    _write_csv(path, ["n", "component", "gap_bits", "gap_per_log2n"], rows)
    alpha = float(block["alpha"])
    if records:
        c_lower = min(r.gap_bits for r in records)
        ok = alpha * 2.0 ** c_lower > 1.0
        if c_lower > 0:
            needed = f"needs alpha > {2.0 ** (-c_lower)!r}"
        else:
            needed = "impossible for any alpha < 1 (worst gap not positive)"
        ctx["summary"].append(
            f"Coding game (gaps): measured worst gap c'' = {c_lower!r} bits "
            f"over n <= {block['n_max']}; alpha = {alpha!r}; "
            f"alpha * 2^c'' > 1 is {ok}, {needed}. The renewal construction "
            "that beats the projection code requires True, attainable only "
            "when the worst gap stays positive (k >= 3)."
        )


def _run_game(ctx, block, path):
    if block["mode"] == "gaps":
        _run_game_gaps(ctx, block, path)
    else:
        _run_game_paths(ctx, block, path)


def _run_recur(ctx, block, path):
    result = recurrence_simulation(
        ctx["solution"], ctx["constraint"], steps=block["steps"],
        reps=block["reps"], seed=block["seed"],
        checkpoints=block.get("checkpoints"))
    rows = list(zip(result.checkpoints, result.mean_visits, result.stderr))
    _write_csv(path, ["checkpoint", "mean_visits", "stderr"], rows)
    ctx["manifest"].seeds[ctx["tag"]] = block["seed"]
    ctx["summary"].append(
        f"Recurrence: {block['reps']} replicas of {block['steps']} steps, "
        f"seed {block['seed']}."
    )


def _run_hypercomp(ctx, block, path):
    rows = []
    seeds = {}
    for j, k_bits in enumerate(block["K"]):
        seed = block["seed"] + j
        result = hypercompression_check(ctx["space"], ctx["solution"],
                                        n=block["n"], k_bits=float(k_bits),
                                        samples=block["samples"], seed=seed)
        seeds[str(k_bits)] = seed
        rows.append((k_bits, result.samples, result.frequency, result.bound))
    _write_csv(path, ["K", "samples", "exceed_freq", "bound"], rows)
    ctx["manifest"].seeds[ctx["tag"]] = seeds
    ctx["summary"].append(
        f"Hypercompression: base maxent vs prior challenger, n = {block['n']}, "
        f"{block['samples']} samples per K."
    )


_RUNNERS = {
    "solve": ("solve.csv", _run_solve),
    "concentrate": ("concentrate.csv", _run_concentrate),
    "condlimit": ("condlimit.csv", _run_condlimit),
    "corollary1": ("corollary1.csv", _run_corollary1),
    "game": ("game.csv", _run_game),
    "recur": ("recurrence.csv", _run_recur),
    "hypercomp": ("hypercompression.csv", _run_hypercomp),
}


def run_config(source, output_dir) -> RunManifest:
    """Execute every experiment block and write CSVs, summary, and manifest.

    Experiments run serially in declaration order.
    """
    config = load_config(source)
    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    canonical = json.dumps(config.raw, sort_keys=True).encode()
    manifest = RunManifest(
        config_hash=hashlib.sha256(canonical).hexdigest(),
        version=__version__, mode=str(config.mode),
    )
    space, constraint = config.problem.build()
    solution = config.problem.solve()
    ctx = {
        "space": space, "constraint": constraint, "solution": solution,
        "problem": config.problem, "mode": config.mode, "summary": [],
        "manifest": manifest, "tag": "",
    }
    for i, block in enumerate(config.experiments):
        kind = block["kind"]
        filename, runner = _RUNNERS[kind]
        tag = f"{i:02d}_{kind}"
        ctx["tag"] = tag
        path = outdir / f"{tag}_{filename}"
        ctx["summary"].append(f"\n### {tag}\n")
        started = time.perf_counter()
        runner(ctx, block, path)
        manifest.durations_seconds[tag] = round(time.perf_counter() - started, 3)
        manifest.outputs[tag] = path.name
    summary_path = outdir / "summary.md"
    summary_path.write_text(
        "# Run summary\n\n" + COLUMN_REFERENCE + "\n"
        + "\n".join(ctx["summary"]) + "\n"
    )
    manifest.outputs["summary"] = summary_path.name
    (outdir / "manifest.json").write_text(manifest.to_json())
    return manifest
