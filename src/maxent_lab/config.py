"""Experiment configuration: JSON ingestion, validation, and problem building.

A config holds one problem block (outcomes, prior, statistic matrix, target,
all as exact fraction strings) and a list of tagged experiment blocks. Numbers
may be written as "9/2" or "4.5"; both parse exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import (
    BoundaryTargetError,
    DegenerateCoordinateError,
    MaxentLabError,
    SingularCovarianceError,
    TargetOutsideHullError,
    ValidationError,
)
from .events import BigramDeviationEvent, BoxEvent, FrequencyDeviationEvent
from .lattice import build_space, derive_lattice, first_feasible_sizes
from .solver import solve_maxent
from .sumdist import ARITHMETICS, FLOAT, Arithmetic

EXPERIMENT_KINDS = ("solve", "concentrate", "condlimit", "corollary1",
                    "game", "recur", "hypercomp")
GAME_PREDICTORS = ("maxent", "conditioned", "mixture")
# the fields a game block may leave out
_GAME_DEFAULTS = {"mode": "paths", "j_max": 64, "alpha": 0.75,
                  "predictors": list(GAME_PREDICTORS)}


@dataclass
class Diagnostic:
    field: str
    message: str

    def __str__(self) -> str:
        return f"{self.field}: {self.message}"


@dataclass
class ProblemConfig:
    outcomes: list
    prior: list
    t_matrix: list          # k rows of |X| fraction strings
    target: list
    # the built problem, its solution and (largest cap asked, first feasible
    # sizes up to it), shared by validation and the run
    _built: tuple | None = field(default=None, init=False, repr=False,
                                 compare=False)
    _solution: object = field(default=None, init=False, repr=False,
                              compare=False)
    _first: tuple = field(default=(0, ()), init=False, repr=False,
                          compare=False)

    def build(self):
        """(space, constraint), built once per config."""
        if self._built is not None:
            return self._built
        space = build_space(self.outcomes, self.prior)
        self._built = space, derive_lattice(space.columns(self.t_matrix),
                                            self.target)
        return self._built

    def solve(self):
        """The max-ent projection of the problem, solved once per config."""
        if self._solution is None:
            self._solution = solve_maxent(*self.build())
        return self._solution

    def first_feasible(self, cap: int) -> list[int]:
        """The first feasible size up to ``cap``, as a list of at most one,
        swept once up to the largest cap asked: a size found below one cap
        is the first below any larger cap."""
        asked, first = self._first
        if cap > asked and not first:
            first = first_feasible_sizes(*self.build(), 1, n_cap=cap)
            self._first = cap, first
        return [n for n in first if n <= cap]


@dataclass
class ExperimentConfig:
    problem: ProblemConfig
    experiments: list
    mode: Arithmetic = FLOAT
    output_dir: str | None = None
    raw: dict = field(default_factory=dict)


def _require(block: dict, key: str, where: str):
    if not isinstance(block, dict):
        raise ValidationError(f"{where} must be an object")
    if key not in block:
        raise ValidationError(f"{where}: missing field {key!r}")
    return block[key]


def load_config(source) -> ExperimentConfig:
    """Parse a config from a path (a string is read as one) or an
    already-loaded dict.

    Raises ValidationError on structural problems; use ``validate_config`` for
    a non-raising diagnostic pass. An ``ExperimentConfig`` passes through.
    """
    if isinstance(source, ExperimentConfig):
        return source
    if isinstance(source, dict):
        raw = source
    else:
        path = Path(source)
        try:
            text = path.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ValidationError(f"cannot read config {path}: {exc}") from exc
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config is not valid JSON: {exc}") from exc
    problem = _require(raw, "problem", "config")
    outcomes = _require(problem, "outcomes", "problem")
    prior = _require(problem, "prior", "problem")
    t_matrix = _require(problem, "T", "problem")
    target = _require(problem, "target", "problem")
    if not isinstance(t_matrix, list) or not t_matrix or \
            any(not isinstance(row, list) for row in t_matrix):
        raise ValidationError("problem.T must be a k x |X| matrix")
    for key, value in (("outcomes", outcomes), ("prior", prior),
                       ("target", target)):
        if not isinstance(value, list):
            raise ValidationError(f"problem.{key} must be a list")
    if any(len(row) != len(outcomes) for row in t_matrix):
        raise ValidationError("problem.T rows must have one entry per outcome")
    if len(target) != len(t_matrix):
        raise ValidationError("problem.target must have one entry per T row")
    experiments = raw.get("experiments", [])
    if not isinstance(experiments, list):
        raise ValidationError("experiments must be a list")
    experiments = [_checked_block(block, i)
                   for i, block in enumerate(experiments)]
    mode = ARITHMETICS.get(str(raw.get("mode", FLOAT)))
    if mode is None:
        raise ValidationError("mode must be 'float' or 'rational'")
    return ExperimentConfig(
        problem=ProblemConfig(outcomes=outcomes, prior=prior,
                              t_matrix=t_matrix, target=target),
        experiments=experiments, mode=mode,
        output_dir=raw.get("output_dir"), raw=raw,
    )


def _checked_block(block: dict, i: int) -> dict:
    """A copy of experiment block i with the game defaults filled in, a
    gaps ``horizon`` of 2 n_max where it has none and a scalar ``K`` made a
    one-element list (JSON types kept), once its kind and fields are
    checked."""
    kind = _require(block, "kind", f"experiments[{i}]")
    if kind not in EXPERIMENT_KINDS:
        raise ValidationError(
            f"experiments[{i}]: unknown kind {kind!r} "
            f"(expected one of {', '.join(EXPERIMENT_KINDS)})"
        )
    out = {**_GAME_DEFAULTS, **block} if kind == "game" else dict(block)
    if isinstance(out.get("K"), (int, float)):
        out["K"] = [out["K"]]
    _validate_block_shape(out, i)
    if kind == "game" and out["mode"] == "gaps" and out.get("horizon") is None:
        out["horizon"] = 2 * out["n_max"]
    return out


def _check_int(value, key: str, where: str, low: int = 1) -> None:
    # type() tells a JSON true or false, a bool, from an integer
    if type(value) is not int or value < low:
        raise ValidationError(f"{where}: {key} must be an integer >= {low}")


def _validate_block_shape(block: dict, i: int) -> None:
    kind = block["kind"]
    where = f"experiments[{i}] ({kind})"
    paths = kind == "game" and block["mode"] == "paths"
    if kind in ("concentrate", "condlimit", "corollary1") or paths:
        n_list = _require(block, "n_list", where)
        if not isinstance(n_list, list) or not n_list or \
                any(type(n) is not int or n < 1 for n in n_list):
            raise ValidationError(f"{where}: n_list must hold integers >= 1")
        if sorted(n_list) != n_list:
            raise ValidationError(f"{where}: n_list must be sorted ascending")
    if kind == "concentrate":
        if block.get("tv_m") is not None:
            _check_int(block["tv_m"], "tv_m", where)
        events = block.get("events", [])
        if not isinstance(events, list) or \
                any(not isinstance(spec, dict) for spec in events):
            raise ValidationError(f"{where}: events must be a list of objects")
        for j, spec in enumerate(events):
            if spec.get("type") == "box":
                _check_box_shape(spec, f"experiments[{i}].events[{j}]")
    if kind == "condlimit":
        _check_int(_require(block, "m", where), "m", where)
    if kind == "game":
        if block["mode"] not in ("paths", "gaps"):
            raise ValidationError(f"{where}: mode must be 'paths' or 'gaps'")
        _check_int(block["j_max"], "j_max", where)
        tags = block["predictors"]
        if paths and (not isinstance(tags, list)
                      or any(t not in GAME_PREDICTORS for t in tags)):
            raise ValidationError(
                f"experiments[{i}].predictors: {tags!r} holds an unknown "
                f"predictor (expected tags from {', '.join(GAME_PREDICTORS)})")
        if block["mode"] == "gaps":
            n_max = _require(block, "n_max", where)
            _check_int(n_max, "n_max", where)
            if block.get("horizon") is not None:
                _check_int(block["horizon"], "horizon", where, n_max)
            alpha = block["alpha"]
            if not isinstance(alpha, (int, float)) or not 0 < alpha < 1:
                raise ValidationError(f"{where}: alpha must be a number in (0, 1)")
    if kind in ("recur", "hypercomp"):
        for key in ("steps", "reps") if kind == "recur" else ("n", "samples"):
            _check_int(_require(block, key, where), key, where)
        _check_int(_require(block, "seed", where), "seed", where, 0)
    if kind == "recur" and block.get("checkpoints") is not None:
        points = block["checkpoints"]
        if not isinstance(points, list) or not points or any(
                type(c) is not int or not 1 <= c <= block["steps"]
                for c in points):
            raise ValidationError(f"{where}: checkpoints must be a nonempty "
                                  "list of integers in 1..steps")
    if kind == "hypercomp":
        ks = _require(block, "K", where)
        if not ks or any(type(k) not in (int, float) or k <= 0 for k in ks):
            raise ValidationError(f"{where}: K values must be positive numbers")


def _check_box_shape(spec: dict, where: str) -> None:
    """A box event's statistic is a list of rows, its bounds are lists and
    ``inside`` is a bool; their entries, and a missing field, are reported
    when the event is built."""
    statistic = spec.get("statistic", [[]])
    if not isinstance(statistic, list) or not statistic or \
            any(not isinstance(row, list) for row in statistic):
        raise ValidationError(f"{where}: statistic must be a k x |X| matrix")
    for key in ("lower", "upper"):
        if not isinstance(spec.get(key, []), list):
            raise ValidationError(f"{where}: {key} must be a list")
    if not isinstance(spec.get("inside", True), bool):
        raise ValidationError(f"{where}: inside must be true or false")


def build_event(spec: dict, space, solution=None):
    """Build an event object from its config block.

    Frequency references may name 'maxent' (the solved projection) or 'prior',
    or list explicit masses, one per outcome left after the zero-mass drop.
    The event constructors parse every other number exactly.
    """
    etype = _require(spec, "type", "event")
    if etype == "freq_deviation":
        ref = _require(spec, "reference", "event")
        if ref == "maxent":
            if solution is None:
                raise ValidationError("event references 'maxent', but the problem "
                                      "has no max-ent solution")
            ref = list(solution.pmf)
        elif ref == "prior":
            ref = list(space.prior_fractions)
        elif not isinstance(ref, list) or len(ref) != space.size:
            raise ValidationError(
                f"reference must be 'maxent', 'prior' or a list of "
                f"{space.size} masses, one per outcome of nonzero prior mass")
        return FrequencyDeviationEvent.make(_require(spec, "epsilon", "event"), ref)
    if etype == "box":
        values = space.columns(_require(spec, "statistic", "event"))
        return BoxEvent.make(values, _require(spec, "lower", "event"),
                             _require(spec, "upper", "event"),
                             inside=spec.get("inside", True))
    if etype == "bigram_deviation":
        labels = _require(spec, "j", "event"), _require(spec, "jprime", "event")
        for label in labels:
            space.index(label)  # a kept outcome, or ValidationError
        return BigramDeviationEvent.make(*labels,
                                         _require(spec, "epsilon", "event"))
    raise ValidationError(f"unknown event type {etype!r}")


def blocking(diagnostics: list[Diagnostic]) -> list[Diagnostic]:
    """The diagnostics that stop a run: all but the notes."""
    return [d for d in diagnostics if not d.message.startswith("note:")]


def validate_config(source) -> list[Diagnostic]:
    """Full structural plus semantic validation; returns diagnostics instead of
    raising. An empty list means the config is runnable. A loaded config keeps
    the problem it builds and solves here for its run."""
    diagnostics: list[Diagnostic] = []
    try:
        config = load_config(source)
    except ValidationError as exc:
        return [Diagnostic(field="config", message=str(exc))]

    try:
        space, constraint = config.problem.build()
    except TargetOutsideHullError as exc:
        return diagnostics + [Diagnostic("problem.target",
                                         f"target outside convex hull: {exc}")]
    except DegenerateCoordinateError as exc:
        return diagnostics + [Diagnostic(
            "problem.T",
            f"{exc} (the statistic covariance would be singular; restrict the "
            "sample space or drop the coordinate)")]
    except MaxentLabError as exc:
        return diagnostics + [Diagnostic("problem", str(exc))]

    if space.dropped:
        labels = ", ".join(str(lab) for lab, _ in space.dropped)
        diagnostics.append(Diagnostic(
            "problem.prior", f"note: dropped zero-mass outcomes: {labels}"))

    # Condition pre-checks: a trial solve surfaces boundary targets and
    # affinely dependent coordinates before any experiment runs.
    solution = None
    try:
        solution = config.problem.solve()
    except BoundaryTargetError:
        diagnostics.append(Diagnostic(
            "problem.target",
            "target on the hull boundary: no exponential-form solution; "
            "restrict the sample space as in the degenerate-coordinate remedy"))
    except SingularCovarianceError as exc:
        diagnostics.append(Diagnostic("problem.T", str(exc)))
    except MaxentLabError as exc:
        diagnostics.append(Diagnostic("problem", f"trial solve failed: {exc}"))

    # the largest size any block reads: its gaps horizon or its n_list's end;
    # a config whose blocks read no size conditions on nothing
    cap = max([0] + [
        b["horizon"] if b["kind"] == "game" and b["mode"] == "gaps"
        else b["n_list"][-1] for b in config.experiments
        if b["kind"] in ("concentrate", "condlimit", "corollary1", "game")])
    first = config.problem.first_feasible(cap)
    if cap and not first:
        diagnostics.append(Diagnostic(
            "problem.target",
            f"no feasible sample sizes up to {cap}: empirical-constraint "
            "experiments will have nothing to condition on"))

    for i, block in enumerate(config.experiments):
        if block["kind"] == "concentrate":
            for j, espec in enumerate(block.get("events", [])):
                try:
                    build_event(espec, space, solution)
                except ValidationError as exc:
                    diagnostics.append(Diagnostic(
                        f"experiments[{i}].events[{j}]", str(exc)))
        elif block["kind"] == "game" and block["mode"] == "gaps":
            # the cap covers every horizon, which covers its n_max
            horizon, n_max = block["horizon"], block["n_max"]
            if not first or first[0] > horizon:
                diagnostics.append(Diagnostic(
                    f"experiments[{i}]",
                    f"no feasible sample sizes up to the horizon {horizon}"))
            elif first[0] > n_max:
                diagnostics.append(Diagnostic(
                    f"experiments[{i}]",
                    f"no feasible sample sizes up to n_max {n_max}, so no "
                    f"gap is measured; the first is {first[0]}"))
    return diagnostics
