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
import json
import sys

import numpy as np

from . import __version__
from .noise import default_noise_model
from .sweeps import (
    ConfigError,
    DEFAULT_GRID_POINTS,
    DEFAULT_REPEATS,
    DEFAULT_SHOTS,
    SCENARIOS,
    certify_circuits,
    config_from_json,
    emit_csv,
    emit_json,
    make_config,
    render_csv,
    run_sweep,
    verify_cases,
    _check_seed,
    _resolve_state,
    _write_text,
)
from .svg import render_sweep_chart
from .tomography import estimate_pauli, reconstruct_state

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
    sweep.add_argument("--path", choices=("analytic", "circuit", "noisy"), help="evaluation path (default analytic)")
    sweep.add_argument("--seed", type=int, help="root seed for shot sampling (default 0)")
    sweep.add_argument("--shots", type=int, help=f"shots per tomography axis; 0 = exact expectations (default {DEFAULT_SHOTS})")
    sweep.add_argument("--repeats", type=int, help=f"tomography repetitions per grid point on the noisy path (default {DEFAULT_REPEATS})")
    sweep.add_argument("--points", type=int, help=f"grid resolution for presets (default {DEFAULT_GRID_POINTS})")
    sweep.add_argument("--epsilon", type=float, help="fixed intensity for axis-angle sweeps (default 1.0)")
    sweep.add_argument("--coupling", choices=("CZ", "CNOT"), help="ancilla coupling gate (default CZ)")
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
    tomo.add_argument("--seeds", type=int, default=100, help="number of independent repetitions (default 100)")
    tomo.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
    tomo.add_argument("--noisy", action="store_true", help="apply the default readout confusion")
    tomo.add_argument("--out", help="JSON output path")
    return parser


def _cmd_sweep(args) -> int:
    flags = {}
    for key in (
        "scenario", "path", "seed", "shots", "repeats", "points", "epsilon", "coupling", "out", "svg", "json_out"
    ):
        value = getattr(args, key)
        if value is not None:
            flags[key] = value
    config = config_from_json(args.config, **flags) if args.config else make_config(**flags)
    records = run_sweep(config)
    if config.out:
        emit_csv(records, config.out)
        print(f"wrote {config.out}")
    if config.json_out:
        emit_json(records, config, config.json_out)
        print(f"wrote {config.json_out}")
    if config.svg:
        _write_text(config.svg, render_sweep_chart(records, config))
        print(f"wrote {config.svg}")
    if not (config.out or config.json_out or config.svg):
        sys.stdout.write(render_csv(records))
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = verify_cases(seed=args.seed, trials=args.trials, dims=tuple(args.dims))
    print(report.render_text())
    if args.out:
        _write_text(args.out, json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _cmd_certify(args) -> int:
    report = certify_circuits(resolution=args.resolution, seed=args.seed)
    print(report.render_text())
    if args.out:
        _write_text(args.out, json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _cmd_tomo(args) -> int:
    rho = _resolve_state(args.state)
    if args.shots < 0:
        raise ConfigError(f"shots: must be nonnegative, got {args.shots}")
    if args.seeds < 1:
        raise ConfigError(f"seeds: must be at least 1, got {args.seeds}")
    _check_seed(args.seed)
    noise = default_noise_model(depolarizing_rate=0.0) if args.noisy else None
    errors = []
    for k in range(args.seeds):
        rng = np.random.default_rng([args.seed, k])
        est = estimate_pauli(rho, args.shots, rng, noise=noise, qubit=0)
        rec = reconstruct_state(est)
        errors.append(float(np.abs(rec.matrix - rho.matrix).max()))
    errors_sorted = sorted(errors)
    summary = {
        "state": args.state,
        "shots": args.shots,
        "shots_note": f"default shots per axis is {DEFAULT_SHOTS}; this run used {args.shots}",
        "seeds": args.seeds,
        "readout_noise": bool(args.noisy),
        "median_error": errors_sorted[len(errors) // 2],
        "p90_error": errors_sorted[min(len(errors) - 1, int(0.9 * len(errors)))],
        "max_error": errors_sorted[-1],
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    if args.out:
        _write_text(args.out, json.dumps({"summary": summary, "errors": errors}, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "verify-cases":
            return _cmd_verify(args)
        if args.command == "certify-circuits":
            return _cmd_certify(args)
        if args.command == "tomo-sim":
            return _cmd_tomo(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    parser.error(f"unknown command {args.command!r}")
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
