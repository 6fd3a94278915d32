"""Command-line front end.

Subcommands:
  sweep            figure-reproduction sweeps (CSV/JSON/SVG output)
  verify-cases     run the reality-variation invariants on random instances
  certify-circuits compare dilation circuits against the analytic channels
  tomo-sim         tomography reconstruction-error statistics

Exit codes: 0 on success, 2 when an invariant or certification check is
violated, 3 for configuration or I/O problems and malformed command lines.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .certify import certify_circuits
from .circuits import COUPLINGS
from .config import (
    DEFAULT_GRID_POINTS,
    DEFAULT_REPEATS,
    DEFAULT_SHOTS,
    PATHS,
    SCENARIOS,
    ConfigError,
    check_output_path,
    config_from_json,
    make_config,
)
from .output import json_text, write_json, write_text
from .svg import render_sweep_chart
from .sweeps import emit_json, render_csv, run_sweep
from .tomography import tomography_errors
from .verify import verify_cases

EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_CONFIG = 3


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3, because argparse's own 2 means a violated invariant here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="realmon",
        description="Reality variation of quantum observables under weak non-revealed monitoring.",
    )
    parser.add_argument("--version", action="version", version=f"realmon {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a sweep and emit CSV/JSON/SVG")
    sweep.add_argument("--config", help="JSON config file; flags below override its fields")
    sweep.add_argument("--scenario", choices=SCENARIOS, help="preset (default custom)")
    sweep.add_argument("--path", choices=PATHS, help="evaluation path (default analytic)")
    sweep.add_argument("--seed", type=int, help="seed of the one shot generator (default 0)")
    sweep.add_argument("--shots", type=int, help=f"shots per tomography axis; 0 = exact expectations (default {DEFAULT_SHOTS})")
    sweep.add_argument("--repeats", type=int, help=f"tomography repetitions per grid point on the noisy path (default {DEFAULT_REPEATS})")
    sweep.add_argument("--points", type=int, help=f"grid resolution for presets (default {DEFAULT_GRID_POINTS})")
    sweep.add_argument("--epsilon", type=float, help="fixed intensity for axis-angle sweeps (default 1.0)")
    sweep.add_argument("--coupling", choices=COUPLINGS, help="ancilla coupling gate (default CZ)")
    sweep.add_argument("--out", help="CSV output path")
    sweep.add_argument("--svg", help="SVG chart output path")
    sweep.add_argument("--json", dest="json_out", help="JSON output path (records plus metadata)")

    verify = sub.add_parser("verify-cases", help="verify the variation invariants on random instances")
    verify.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    verify.add_argument("--trials", type=int, default=200, help="instances per check per dimension (default 200)")
    verify.add_argument("--dims", type=int, nargs="+", default=[2, 3], help="Hilbert dimensions (default 2 3)")
    verify.add_argument("--out", help="JSON report path")

    certify = sub.add_parser("certify-circuits", help="certify dilation circuits against analytic channels")
    certify.add_argument("--resolution", type=int, default=17, help="strength-grid points (default 17)")
    certify.add_argument("--seed", type=int, default=11, help="random-basis seed (default 11)")
    certify.add_argument("--out", help="JSON report path")

    tomo = sub.add_parser("tomo-sim", help="simulate tomography reconstruction error statistics")
    tomo.add_argument("--state", default="plus", help="state preset (default plus)")
    tomo.add_argument("--shots", type=int, default=DEFAULT_SHOTS, help=f"shots per axis (default {DEFAULT_SHOTS})")
    tomo.add_argument(
        "--seeds", type=int, default=100,
        help="number of repetitions, drawn in order from one generator seeded --seed (default 100)",
    )
    tomo.add_argument("--seed", type=int, default=0, help="seed of the one shot generator (default 0)")
    tomo.add_argument("--noisy", action="store_true", help="apply the default readout confusion")
    tomo.add_argument("--out", help="JSON output path")
    return parser


def _cmd_sweep(args) -> int:
    flags = {key: value for key, value in vars(args).items() if value is not None and key not in ("command", "config")}
    config = config_from_json(args.config, **flags) if args.config else make_config(**flags)
    # a flag that this run would not read is refused, not silently ignored
    reads = {"epsilon": ("grid_kind", "axis_theta"), **dict.fromkeys(("shots", "repeats", "seed"), ("path", "noisy"))}
    for name, (field, value) in reads.items():
        if getattr(args, name) is not None and getattr(config, field) != value:
            raise ConfigError(f"{name}: --{name} applies only when {field} is {value}")
    records = run_sweep(config)
    if config.out:
        write_text(config.out, render_csv(records))
        print(f"wrote {config.out}")
    if config.json_out:
        emit_json(records, config, config.json_out)
        print(f"wrote {config.json_out}")
    if config.svg:
        write_text(config.svg, render_sweep_chart(records, config))
        print(f"wrote {config.svg}")
    if not (config.out or config.json_out or config.svg):
        sys.stdout.write(render_csv(records))
    return EXIT_OK


def _report(report, out) -> int:
    """Print a ``CheckReport``, write its JSON to ``out`` if given, and exit 0 if it holds, else 2."""
    print(report.render_text())
    if out:
        write_json(out, report.to_dict())
        print(f"wrote {out}")
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _cmd_tomo(args) -> int:
    result = tomography_errors(args.state, args.shots, args.seeds, args.seed, args.noisy)
    sys.stdout.write(json_text(result["summary"]))
    if args.out:
        write_json(args.out, result)
        print(f"wrote {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        check_output_path("out", args.out)  # every subcommand has --out
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "verify-cases":
            return _report(verify_cases(seed=args.seed, trials=args.trials, dims=tuple(args.dims)), args.out)
        if args.command == "certify-circuits":
            return _report(certify_circuits(resolution=args.resolution, seed=args.seed), args.out)
        return _cmd_tomo(args)  # the parser admits no other command
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
