"""Command-line interface.

Exit codes: 0 success, 2 validation failure, 3 engine guard abort (lattice
blow-up or enumeration cap).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

from .config import blocking, load_config, validate_config
from .errors import EnumerationInfeasibleError, LatticeBlowupError, MaxentLabError
from .experiments import run_config
from .fixtures import fixture_names, load_fixture
from .sumdist import ARITHMETICS

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_GUARD = 3


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxent-lab",
        description="Maximum-entropy projections, conditioned priors, and "
                    "coding-game experiments on lattice moment constraints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve the problem block and print masses")
    p_solve.add_argument("-c", "--config", required=True)

    p_run = sub.add_parser("run", help="run all experiments in a config")
    p_run.add_argument("-c", "--config", required=True)
    p_run.add_argument("-o", "--output", default=None)
    p_run.add_argument("--mode", choices=ARITHMETICS, default=None)

    p_val = sub.add_parser("validate", help="validate a config without running")
    p_val.add_argument("-c", "--config", required=True)

    p_fix = sub.add_parser("fixtures", help="list or run shipped fixtures")
    fix_sub = p_fix.add_subparsers(dest="fixtures_command", required=True)
    fix_sub.add_parser("list", help="list fixture names")
    p_fix_run = fix_sub.add_parser("run", help="run one fixture")
    p_fix_run.add_argument("name")
    p_fix_run.add_argument("-o", "--output", default=None)
    p_fix_run.add_argument("--mode", choices=ARITHMETICS, default=None)
    return parser


def _cmd_solve(args) -> int:
    config = load_config(args.config)
    space, _ = config.problem.build()
    solution = config.problem.solve()
    print(f"beta = {[float(b) for b in solution.beta]}")
    print(f"ln Z = {solution.logz!r}")
    print(f"entropy_bits = {solution.entropy_bits!r}")
    print(f"residual = {solution.residual!r}")
    for label, q, p in zip(space.outcomes, space.prior, solution.pmf):
        print(f"  {label}: prior {float(q):.6f} -> maxent {p:.6f}")
    return EXIT_OK


def _cmd_run(config_source, output, mode) -> int:
    config = load_config(config_source)
    refusals = blocking(validate_config(config))
    if refusals:
        for d in refusals:
            print(f"validation: {d}", file=sys.stderr)
        return EXIT_VALIDATION
    if mode is not None:
        config = dataclasses.replace(config, mode=ARITHMETICS[mode])
    outdir = output or config.output_dir or "maxent-lab-out"
    manifest = run_config(config, outdir)
    print(f"wrote {len(manifest.outputs)} outputs to {outdir}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    diagnostics = validate_config(args.config)
    if not diagnostics:
        print("ok: no diagnostics")
        return EXIT_OK
    for d in diagnostics:
        print(str(d))
    return EXIT_VALIDATION if blocking(diagnostics) else EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "run":
            return _cmd_run(args.config, args.output, args.mode)
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "fixtures":
            if args.fixtures_command == "list":
                for name in fixture_names():
                    print(name)
                return EXIT_OK
            fixture = load_fixture(args.name)
            return _cmd_run(fixture, args.output or f"maxent-lab-out-{args.name}",
                            args.mode)
    except (LatticeBlowupError, EnumerationInfeasibleError) as exc:
        print(f"engine guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except MaxentLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
