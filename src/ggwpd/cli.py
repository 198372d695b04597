"""Command-line entry point.

Subcommands
-----------
sweep
    Run a full N sweep for a preset or JSON config; writes the sweep CSV
    and a report with pass/fail gates.  Exit code 1 when a gate fails.
saddle
    Locate transport seeds and converge their complex saddles; print the
    initial conditions.
manifolds
    Dump the transport-geometry curves (shearing line and its image, or
    stable/unstable manifolds) as plot-ready CSV files.

Exit codes: 0 success, 1 acceptance-gate failure, 2 usage or config
error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import os
import sys

from .errors import ConfigError, GgwpdError
from .experiment import (
    PRESETS,
    emit_csv,
    emit_report,
    load_config,
    packets_for,
    prepare_scenario,
    preset,
    run_sweep,
)
from .rotor import (
    RotorParams,
    curve_to_csv,
    propagate_curve,
    shearing_manifold,
    stable_manifold,
    unstable_manifold,
)

EXIT_OK = 0
EXIT_GATE_FAILURE = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="path to a JSON experiment config")
    sub.add_argument(
        "--preset", choices=sorted(PRESETS), help="built-in scenario name"
    )
    sub.add_argument("--out", default=".", help="output directory (default: .)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ggwpd",
        description=(
            "Gaussian wave packet propagation on the kicked rotor: exact "
            "quantum reference vs semiclassical evaluators"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sweep = sub.add_parser("sweep", help="run an N sweep and emit CSV + report")
    saddle = sub.add_parser("saddle", help="print seeds and complex saddle points")
    manifolds = sub.add_parser("manifolds", help="dump transport curves as CSV")
    for p in (sweep, saddle, manifolds):
        _add_common(p)
    return parser


def _resolve_config(args: argparse.Namespace):
    base = preset(args.preset) if args.preset else None
    if args.config:
        return load_config(args.config, base=base)
    if base is not None:
        return base
    raise ConfigError("provide --preset and/or --config")


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    setup = prepare_scenario(config)
    rows = run_sweep(setup)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, f"{config.label}_sweep.csv")
    emit_csv(rows, csv_path)
    report, passed = emit_report(rows, setup)
    report_path = os.path.join(args.out, f"{config.label}_report.txt")
    with open(report_path, "w") as fh:
        fh.write(report)
    sys.stdout.write(report)
    sys.stdout.write(f"wrote {csv_path}\nwrote {report_path}\n")
    return EXIT_OK if passed else EXIT_GATE_FAILURE


def _cmd_saddle(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    setup = prepare_scenario(config)
    if setup.check_N is None:
        recheck = "not re-solved: N_list has no second N"
    else:
        recheck = f"drift {setup.saddle_drift:.2e} re-solved at N={setup.check_N}"
    print(
        f"{config.label}: {len(setup.saddles)} saddle(s) at N={setup.reference_N}, "
        f"{recheck}"
    )
    if config.seed_N != setup.reference_N:
        print(f"  seeds searched with the packets of N={config.seed_N}")
    for sad in setup.saddles:
        P0 = sad.trajectory.initial.p1
        Q0 = sad.trajectory.initial.q1
        print(
            f"  winding {sad.seed.winding}  "
            f"seed=({sad.seed.ic[0]:.12f}, {sad.seed.ic[1]:.12f})"
        )
        print(
            f"    P0 = {P0.real:+.12f} {P0.imag:+.12f}i   "
            f"Q0 = {Q0.real:+.12f} {Q0.imag:+.12f}i"
        )
        print(
            f"    iterations={sad.iterations}  residual={sad.residual_norm:.3e}"
        )
    return EXIT_OK


def _cmd_manifolds(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    params = RotorParams(config.K)
    alpha, beta = packets_for(config, config.seed_N)
    os.makedirs(args.out, exist_ok=True)
    written = []
    if config.regime == "chaotic":
        curves = {
            "unstable_alpha": unstable_manifold((alpha.p1, alpha.q1), params),
            "stable_beta": stable_manifold((beta.p1, beta.q1), params),
        }
    else:
        shear = shearing_manifold(alpha)
        curves = {
            "shearing_alpha": shear,
            f"shearing_alpha_t{config.t}": propagate_curve(shear, config.t, params),
        }
    for name, curve in curves.items():
        path = os.path.join(args.out, f"{config.label}_{name}.csv")
        curve_to_csv(curve, path)
        written.append(path)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "sweep": _cmd_sweep,
        "saddle": _cmd_saddle,
        "manifolds": _cmd_manifolds,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GgwpdError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
