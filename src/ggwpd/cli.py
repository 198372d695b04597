"""Command-line entry point.

Usage::

    ggwpd {sweep,saddle,manifolds} [--config PATH] [--preset NAME] [--out DIR]

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

Each option takes one value, as ``--opt value`` or ``--opt=value``, in any
order after the subcommand; a repeated option keeps its last value.
Options are spelled out in full: an abbreviation is an unknown option.
``-h`` or ``--help`` prints the usage and exits 0.  The grammar is parsed
by hand, without ``argparse``, whose import and first parser cost a
command a few milliseconds.

Exit codes: 0 success, 1 acceptance-gate failure, 2 usage or config
error, 3 numerical failure.
"""
from __future__ import annotations

import os
import sys
from typing import NoReturn

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
from .packets import _Record, _set
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

_OPTIONS = ("--config", "--preset", "--out")

# The longest file name, in bytes, that ext4, XFS, Btrfs and APFS take.
_NAME_MAX = 255

_USAGE = (
    "usage: ggwpd {sweep,saddle,manifolds} [--config PATH] "
    f"[--preset {{{','.join(sorted(PRESETS))}}}] [--out DIR]"
)

_HELP = f"""{_USAGE}

Gaussian wave packet propagation on the kicked rotor: exact quantum
reference vs semiclassical evaluators

commands:
  sweep       run an N sweep and emit CSV + report
  saddle      print seeds and complex saddle points
  manifolds   dump transport curves as CSV

options, each as --opt value or --opt=value:
  --config    path to a JSON experiment config
  --preset    built-in scenario name
  --out       output directory (default: .)
  -h, --help  show this message and exit
"""


class _Args(_Record):
    """A parsed command line: the subcommand and its three options."""

    __slots__ = _fields = ("command", "config", "preset", "out")

    def __init__(
        self, command: str, config: str | None, preset: str | None, out: str
    ) -> None:
        _set(self, "command", command)
        _set(self, "config", config)
        _set(self, "preset", preset)
        _set(self, "out", out)


def _usage_error(message: str) -> NoReturn:
    sys.stderr.write(f"{_USAGE}\nggwpd: error: {message}\n")
    raise SystemExit(EXIT_USAGE)


def _parse(argv: list[str]) -> _Args:
    """The subcommand and options of ``argv``; exits 2 on a usage error
    and 0 after printing the help."""
    command = None
    values: dict[str, str] = {}
    i = 0
    while i < len(argv):
        arg = argv[i]
        i += 1
        if arg in ("-h", "--help"):
            sys.stdout.write(_HELP)
            raise SystemExit(EXIT_OK)
        if command is None:
            if arg not in _HANDLERS:
                _usage_error(
                    f"unknown command {arg!r} (choose from {', '.join(_HANDLERS)})"
                )
            command = arg
            continue
        name, eq, value = arg.partition("=")
        if name not in _OPTIONS:
            _usage_error(f"unrecognized argument {arg!r}")
        if not eq:
            # a next word that looks like an option is not a value
            if i == len(argv) or argv[i].startswith("-"):
                _usage_error(f"{name} expects one value")
            value = argv[i]
            i += 1
        values[name] = value
    if command is None:
        _usage_error("a command is required")
    preset_name = values.get("--preset")
    if preset_name is not None and preset_name not in PRESETS:
        _usage_error(
            f"unknown preset {preset_name!r} (choose from {', '.join(sorted(PRESETS))})"
        )
    return _Args(command, values.get("--config"), preset_name, values.get("--out", "."))


def _resolve_config(args: _Args):
    base = preset(args.preset) if args.preset else None
    if args.config:
        return load_config(args.config, base=base)
    if base is not None:
        return base
    raise ConfigError("provide --preset and/or --config")


def _output_paths(out: str, label: str, suffixes: list[str]) -> list[str]:
    """The paths in ``out`` of the files named ``label`` + suffix, checked
    before a command computes anything: an empty ``out``, one that names
    something other than a directory, or a name longer than ``_NAME_MAX``
    bytes is a ConfigError."""
    if not out:
        raise ConfigError("--out is empty; name an output directory")
    if os.path.exists(out) and not os.path.isdir(out):
        raise ConfigError(f"--out {out!r} exists and is not a directory")
    names = [label + suffix for suffix in suffixes]
    for name in names:
        if len(os.fsencode(name)) > _NAME_MAX:
            raise ConfigError(
                f"the output file name {name!r} is longer than {_NAME_MAX} bytes; "
                "shorten the label"
            )
    return [os.path.join(out, name) for name in names]


def _cmd_sweep(args: _Args) -> int:
    config = _resolve_config(args)
    csv_path, report_path = _output_paths(
        args.out, config.label, ["_sweep.csv", "_report.txt"]
    )
    setup = prepare_scenario(config)
    rows = run_sweep(setup)
    os.makedirs(args.out, exist_ok=True)
    emit_csv(rows, csv_path)
    report, passed = emit_report(rows, setup)
    with open(report_path, "w") as fh:
        fh.write(report)
    sys.stdout.write(report)
    sys.stdout.write(f"wrote {csv_path}\nwrote {report_path}\n")
    return EXIT_OK if passed else EXIT_GATE_FAILURE


def _cmd_saddle(args: _Args) -> int:
    config = _resolve_config(args)
    setup = prepare_scenario(config)
    print(f"{config.label}: {len(setup.saddles)} saddle(s) at N={config.seed_N}")
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


def _cmd_manifolds(args: _Args) -> int:
    config = _resolve_config(args)
    chaotic = config.regime == "chaotic"
    suffixes = (
        ["_unstable_alpha.csv", "_stable_beta.csv"]
        if chaotic
        else ["_shearing_alpha.csv", f"_shearing_alpha_t{config.t}.csv"]
    )
    paths = _output_paths(args.out, config.label, suffixes)
    params = RotorParams(config.K)
    alpha, beta = packets_for(config, config.seed_N)
    if chaotic:
        curves = [
            unstable_manifold((alpha.p1, alpha.q1), params),
            stable_manifold((beta.p1, beta.q1), params),
        ]
    else:
        shear = shearing_manifold(alpha)
        curves = [shear, propagate_curve(shear, config.t, params)]
    os.makedirs(args.out, exist_ok=True)
    for curve, path in zip(curves, paths):
        curve_to_csv(curve, path)
    for path in paths:
        print(f"wrote {path}")
    return EXIT_OK


_HANDLERS = {
    "sweep": _cmd_sweep,
    "saddle": _cmd_saddle,
    "manifolds": _cmd_manifolds,
}


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return _HANDLERS[args.command](args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GgwpdError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
