"""Batch driver comparing semiclassical estimates against the exact grid.

A sweep fixes the classical scenario (kick strength, propagation time,
packet centers) and walks the Hilbert-space dimension N, shrinking the
packets as 1/sqrt(N) so that the underlying real and complex trajectories
stay put while the effective Planck constant 1/(2 pi N) decreases.  Seeds
and saddles are therefore located once, with the packets of one N, and
reused across the whole sweep.
"""
from __future__ import annotations

import csv
import json
import math
import numbers
import os
from collections.abc import Sequence

import numpy as np

from .errors import ConfigError, GgwpdError, NumericalError
from .floquet import grid_hbar, quantum_correlation
from .packets import GaussianPacket, _Record, _modulus, _require_int, _set
from .rotor import RotorParams, SeedTrajectory, find_seeds
from .semiclassics import (
    SaddleTrajectory,
    _merge_saddles,
    find_saddle,
    ggwpd_correlation,
    offcenter_correlation,
)

_REGIMES = ("integrable", "chaotic")

# The seed search counts its windows in packet widths, which shrink like
# 1/sqrt(N) while the seeds stay put: it uses the packets of at most this N,
# and so do the saddles, which do not depend on N.
_SEED_SEARCH_N = 50


class ExperimentConfig(_Record):
    """Everything needed to reproduce one sweep.

    Packet widths are derived from each N as b = pi N (so sigma^2 equals
    hbar/2 on the N-state torus) — there is no independent width knob.
    Every value is checked on construction, and a bad one raises
    :class:`ConfigError`; the centers are kept as tuples of floats and
    ``N_list`` as a tuple of ints.  :func:`config_from_dict` with ``base``
    overrides some fields of a config.
    """

    __slots__ = _fields = (
        "K", "t", "alpha_center", "beta_center", "N_list", "regime",
        "image_range", "label",
    )

    def __init__(
        self,
        K: float,
        t: int,
        alpha_center: tuple[float, float],
        beta_center: tuple[float, float],
        N_list: tuple[int, ...],
        regime: str,
        image_range: int = 1,
        label: str = "custom",
    ) -> None:
        if regime not in _REGIMES:
            raise ConfigError(f"regime must be one of {_REGIMES}, got {regime!r}")
        if not isinstance(label, str):
            raise ConfigError(f"label must be a string, got {label!r}")
        # the label prefixes every output file name, inside --out
        if any(c and c in label for c in ("\0", os.sep, os.altsep)):
            raise ConfigError(f"label must be a plain file name, got {label!r}")
        _require_finite("K", K)
        if K < 0.0:
            raise ConfigError("K must be non-negative")
        centers = {"alpha_center": alpha_center, "beta_center": beta_center}
        for name, center in centers.items():
            if not _is_sequence(center) or len(center) != 2:
                raise ConfigError(f"{name} must be a (p, q) pair, got {center!r}")
            for x in center:
                _require_finite(name, x)
        _require_int("t", t, 1)
        _require_int("image_range", image_range, 0)
        if not _is_sequence(N_list):
            raise ConfigError(f"N_list must be a list of integers, got {N_list!r}")
        if not N_list:
            raise ConfigError("a sweep needs at least one N: empty N_list")
        for n in N_list:
            _require_int("every N", n, 2)
        odd = [n for n in N_list if n % 2]
        if odd:
            raise ConfigError(
                f"odd N {odd} is refused: the torus boundary phase for odd N "
                "is not implemented yet in the semiclassical image sum"
            )
        _set(self, "K", K)
        _set(self, "t", t)
        _set(self, "alpha_center", tuple(map(float, alpha_center)))
        _set(self, "beta_center", tuple(map(float, beta_center)))
        _set(self, "N_list", tuple(int(n) for n in N_list))
        _set(self, "regime", regime)
        _set(self, "image_range", image_range)
        _set(self, "label", label)

    @property
    def seed_N(self) -> int:
        """The N whose packets locate the seeds and saddles: at most
        _SEED_SEARCH_N."""
        return min(self.N_list[0], _SEED_SEARCH_N)


def _is_sequence(value) -> bool:
    return isinstance(value, Sequence) and not isinstance(value, (str, bytes))


def _require_finite(name: str, value) -> None:
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not math.isfinite(value)
    ):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")


PRESETS: dict[str, ExperimentConfig] = {
    "integrable-fig2": ExperimentConfig(
        K=0.05,
        t=2,
        alpha_center=(0.815, 0.2),
        beta_center=(0.77, 0.8),
        N_list=tuple(range(50, 701, 50)),
        regime="integrable",
        image_range=2,
        label="integrable-fig2",
    ),
    "chaotic-fig6": ExperimentConfig(
        K=8.25,
        t=2,
        alpha_center=(0.0, 0.0),
        beta_center=(0.0, 0.5),
        N_list=tuple(range(50, 701, 50)),
        regime="chaotic",
        image_range=2,
        label="chaotic-fig6",
    ),
}

# The fields a config may leave out, the last ones, with the values
# ExperimentConfig gives them: read from its signature, so they cannot differ.
_CONFIG_DEFAULTS = dict(
    zip(ExperimentConfig._fields[::-1], ExperimentConfig.__init__.__defaults__[::-1])
)

# Pinned reference values for the built-in presets, keyed by winding pair.
# Used by emit_report to regression-gate the saddle search.
REGRESSION_SADDLES: dict[str, dict[tuple[int, int], tuple[complex, complex]]] = {
    "integrable-fig2": {
        (0, 1): (0.8019843 + 0.0062830j, 0.2062830 + 0.0130157j),
    },
    "chaotic-fig6": {
        (0, 0): (0.0095152 - 0.0611558j, -0.0611558 - 0.0095152j),
        (1, 1): (0.0115409 - 0.0764952j, -0.0764952 - 0.0115409j),
    },
}

REGRESSION_SEEDS: dict[str, dict[tuple[int, int], tuple[float, float]]] = {
    "integrable-fig2": {
        (0, 1): (0.80756826728641, 0.20),
    },
    "chaotic-fig6": {
        (0, 0): (-0.0892369, -0.0766275),
        (1, 1): (-0.1125783, -0.0966593),
    },
}

# Every pinned seed of every preset is gated at this tolerance.  The
# integrable seed reference is the root of its defining equation (the
# shearing line pushed t steps meets q = q_beta + 1), solved independently
# at 40 digits.
_SEED_GATE_TOL = 1e-6

# The exact oracle's absolute rounding floor: the double FFT propagates
# unit-norm packets with errors near 1e-15.  A row whose |C_qm| is below
# _FLOOR_MULTIPLE times it has an oracle off by a percent or more, so its
# ratios and phase errors mean nothing; the report flags it, and the gates
# and the CSV treat it as any other row.
_ORACLE_FLOOR = 1e-15
_FLOOR_MULTIPLE = 100.0


def config_from_dict(
    data: dict, base: ExperimentConfig | None = None
) -> ExperimentConfig:
    """Build a config from a JSON-style dict, optionally over a base.

    Keys present in ``data`` override the base; unknown keys are rejected
    so typos fail loudly.
    """
    fields = ExperimentConfig._fields
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if base is None:
        merged = dict(_CONFIG_DEFAULTS)
    else:
        merged = {name: getattr(base, name) for name in fields}
    merged.update(data)
    missing = set(fields) - set(merged)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    return ExperimentConfig(**merged)


def load_config(path, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Load a single-document JSON config from ``path``."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return config_from_dict(data, base=base)


def preset(name: str) -> ExperimentConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {sorted(PRESETS)}"
        ) from None


def packets_for(
    config: ExperimentConfig, N: int
) -> tuple[GaussianPacket, GaussianPacket]:
    """Alpha and beta packets at grid size N (b = pi N, hbar = 1/(2 pi N))."""
    hbar = grid_hbar(N)
    b = np.pi * N
    alpha = GaussianPacket(config.alpha_center[0], config.alpha_center[1], b, hbar)
    beta = GaussianPacket(config.beta_center[0], config.beta_center[1], b, hbar)
    return alpha, beta


class ScenarioSetup(_Record):
    """Seeds and saddles of a scenario, located once and reused per N."""

    __slots__ = _fields = ("config", "saddles")

    def __init__(
        self, config: ExperimentConfig, saddles: tuple[SaddleTrajectory, ...]
    ) -> None:
        _set(self, "config", config)
        _set(self, "saddles", saddles)

    @property
    def seeds(self) -> tuple[SeedTrajectory, ...]:
        """The transport seed each saddle was refined from."""
        return tuple(s.seed for s in self.saddles)


# The semiclassical methods a sweep row compares with C_qm, by the suffix
# of their correlation and metric attributes.
_METHODS = ("oc", "ggwpd")


class SweepRow(_Record):
    """One N of a sweep: the three correlations and their error metrics.

    Only the measured values are arguments; for each method m of
    ``_METHODS`` the metrics ``abs_err_m``, ``ratio_m`` and ``phase_err_m``
    are derived from ``C_qm`` and ``C_m`` here.  They are fields too, so
    ``==``, ``hash`` and ``repr`` read them.  An error row carries NaN
    sums, so its metrics are NaN.  A sum that is exactly zero raises
    :class:`NumericalError`: its magnitude ratio is undefined.
    """

    __slots__ = _fields = (
        "N", "C_qm", "C_oc", "C_ggwpd", "error",
        "abs_err_oc", "abs_err_ggwpd",
        "ratio_oc", "ratio_ggwpd",
        "phase_err_oc", "phase_err_ggwpd",
    )

    def __init__(
        self, N: int, C_qm: complex, C_oc: complex, C_ggwpd: complex, error: str = ""
    ) -> None:
        _set(self, "N", N)
        _set(self, "C_qm", C_qm)
        _set(self, "C_oc", C_oc)
        _set(self, "C_ggwpd", C_ggwpd)
        _set(self, "error", error)
        for m in _METHODS:
            c = getattr(self, f"C_{m}")
            if c == 0:
                raise NumericalError(
                    "a semiclassical sum underflowed to zero; "
                    "its magnitude ratio is undefined"
                )
            _set(self, f"abs_err_{m}", _modulus(C_qm - c))
            _set(self, f"ratio_{m}", _modulus(C_qm) / _modulus(c))
            # np.angle's arctan2, without its array wrapping
            z = C_qm * np.conj(c)
            _set(self, f"phase_err_{m}", float(np.arctan2(z.imag, z.real)))

    def __reduce__(self):
        # __init__ takes the measured values; the metrics follow as they
        # are, so that a copy's NaN metric is the same object and compares
        # equal, as a copied dataclass's does
        values = self._values()
        return self.__class__, values[:5], values[5:]

    def __setstate__(self, metrics: tuple) -> None:
        for name, value in zip(self._fields[5:], metrics):
            _set(self, name, value)


def prepare_scenario(config: ExperimentConfig) -> ScenarioSetup:
    """Find transport seeds and converge their saddles at ``config.seed_N``.

    The width scaling b = pi N makes the saddle equations N-independent,
    so the saddles found with the packets of ``seed_N`` serve every N of
    the sweep.
    """
    params = RotorParams(config.K)
    alpha, beta = packets_for(config, config.seed_N)
    seeds = find_seeds(
        alpha, beta, config.t, params,
        image_range=config.image_range, regime=config.regime,
    )
    if not seeds:
        raise NumericalError(
            f"no transport seeds found for {config.label!r} within "
            f"image range {config.image_range}"
        )
    converged = [find_saddle(alpha, beta, s, params) for s in seeds]
    # distinct transport seeds, or copies of one, can flow to the same
    # complex saddle (two primary intersections on the same lobe); keep one
    # contribution each
    return ScenarioSetup(config, tuple(_merge_saddles(converged)))


def run_sweep(setup: ScenarioSetup) -> list[SweepRow]:
    """Evaluate the correlations at every distinct N of the setup's config.

    Each row holds three: the exact C_qm, the off-center sum C_oc and the
    GGWPD saddle sum C_ggwpd.  The third semiclassical method,
    ``linearized_correlation``, is not swept.

    A failure at one N is recorded in that row's error column instead of
    aborting the sweep; the row keeps C_qm when the oracle returned it.
    Rows come back ordered by N.
    """
    config = setup.config
    params = RotorParams(config.K)
    nan = complex(math.nan, math.nan)
    rows: list[SweepRow] = []
    for N in sorted(set(config.N_list)):
        c_qm = nan
        try:
            alpha, beta = packets_for(config, N)
            c_qm = quantum_correlation(alpha, beta, config.t, N, params)
            c_oc = offcenter_correlation(
                alpha, beta, list(setup.seeds), params, config.t
            ).total
            c_gg = ggwpd_correlation(alpha, beta, list(setup.saddles), config.t).total
            rows.append(SweepRow(N, c_qm, c_oc, c_gg))
        except GgwpdError as exc:
            rows.append(SweepRow(N, c_qm, nan, nan, f"{type(exc).__name__}: {exc}"))
    return rows


CSV_COLUMNS = (
    "N",
    "C_qm_re", "C_qm_im",
    "C_oc_re", "C_oc_im",
    "C_ggwpd_re", "C_ggwpd_im",
    "abs_err_oc", "abs_err_ggwpd",
    "ratio_oc", "ratio_ggwpd",
    "phase_err_oc", "phase_err_ggwpd",
    "error",
)


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def _csv_cells(row: SweepRow) -> list[str]:
    """The cells of ``row`` under :data:`CSV_COLUMNS`."""
    cells = [str(row.N)]
    for m in ("qm",) + _METHODS:
        c = getattr(row, f"C_{m}")
        cells += [_g17(c.real), _g17(c.imag)]
    for metric in ("abs_err", "ratio", "phase_err"):
        cells += [_g17(getattr(row, f"{metric}_{m}")) for m in _METHODS]
    return cells + [row.error]


def emit_csv(rows: list[SweepRow], path) -> None:
    """Write sweep rows as CSV: header, 17-significant-digit reals.

    Complex columns are split into _re/_im pairs.  Output is byte-stable
    for identical input rows.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        # the writer quotes a field for a \n, its line terminator, but not
        # for a bare \r, where a reader would end the row: a row whose error
        # text holds one is quoted whole
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(CSV_COLUMNS)
        for r in rows:
            (quoted if "\r" in r.error else writer).writerow(_csv_cells(r))


def _fmt_complex(z: complex) -> str:
    return f"{z.real:+.7f}{z.imag:+.7f}i"


def emit_report(rows: list[SweepRow], setup: ScenarioSetup) -> tuple[str, bool]:
    """Human-readable sweep summary plus pass/fail acceptance gates.

    Returns the report text and whether every applicable gate passed.
    Gates cover the error hierarchy, magnitude-ratio and phase
    convergence, saddle regression against the pinned preset values, and
    (for the chaotic preset) the momentum/position symmetry of the
    saddles and their pairing under reflection.  Every pinned seed is
    gated at ``_SEED_GATE_TOL``.  The pinned and symmetry gates run only
    for a preset's own scenario, with any ``N_list``; a config that keeps
    a preset's label but changes another field gets an ``[info]`` line
    instead.  A row whose |C_qm| is below ``_FLOOR_MULTIPLE`` times the
    oracle's rounding floor is marked ``[floor]``, with a note under the
    table; the gates read it as any other row.
    """
    cfg = setup.config
    lines: list[str] = []
    checks: list[tuple[str, bool, str]] = []

    lines.append(f"scenario {cfg.label}: K={cfg.K}, t={cfg.t}, regime={cfg.regime}")
    lines.append(
        f"  alpha=({cfg.alpha_center[0]}, {cfg.alpha_center[1]})"
        f"  beta=({cfg.beta_center[0]}, {cfg.beta_center[1]})"
    )
    lines.append(f"  seeds/saddles located at N={cfg.seed_N}")
    lines.append("")
    lines.append("saddles:")
    for sad in setup.saddles:
        P0 = sad.trajectory.initial.p1
        Q0 = sad.trajectory.initial.q1
        lines.append(
            f"  winding {sad.seed.winding}: seed=({sad.seed.ic[0]:.10f}, "
            f"{sad.seed.ic[1]:.10f})"
        )
        lines.append(
            f"    P0={_fmt_complex(P0)}  Q0={_fmt_complex(Q0)}  "
            f"iters={sad.iterations}  residual={sad.residual_norm:.2e}"
        )

    # --- regression gates against pinned values -------------------------
    # The pinned values and the chaotic symmetries belong to the preset's
    # scenario, which an override that keeps the label but moves anything
    # other than N_list no longer is.
    base = PRESETS.get(cfg.label)
    pinned = (
        base is not None
        and config_from_dict({"N_list": base.N_list}, base=cfg) == base
    )
    saddle_targets = REGRESSION_SADDLES.get(cfg.label, {}) if pinned else {}
    seed_targets = REGRESSION_SEEDS.get(cfg.label, {}) if pinned else {}
    by_winding = {s.seed.winding: s for s in setup.saddles}
    for winding, (tP, tQ) in sorted(saddle_targets.items()):
        sad = by_winding.get(winding)
        if sad is None:
            checks.append(
                (f"saddle {winding} present", False, "no saddle with this winding")
            )
            continue
        P0 = sad.trajectory.initial.p1
        Q0 = sad.trajectory.initial.q1
        dev = max(
            abs(P0.real - tP.real), abs(P0.imag - tP.imag),
            abs(Q0.real - tQ.real), abs(Q0.imag - tQ.imag),
        )
        checks.append(
            (f"saddle {winding} regression", dev < 1e-6, f"max component dev {dev:.2e}")
        )
        checks.append(
            (
                f"saddle {winding} converged fast",
                sad.iterations <= 8,
                f"{sad.iterations} iterations, residual {sad.residual_norm:.2e}",
            )
        )
    for winding, (sp, sq) in sorted(seed_targets.items()):
        sad = by_winding.get(winding)
        if sad is None:
            continue
        dev = max(abs(sad.seed.ic[0] - sp), abs(sad.seed.ic[1] - sq))
        checks.append(
            (f"seed {winding} regression", dev < _SEED_GATE_TOL, f"dev {dev:.2e}")
        )
    if pinned and cfg.label == "chaotic-fig6":
        for sad in setup.saddles:
            P0 = sad.trajectory.initial.p1
            Q0 = sad.trajectory.initial.q1
            if sad.seed.winding in saddle_targets:
                res = abs(P0 - 1j * Q0)
                checks.append(
                    (
                        f"saddle {sad.seed.winding} momentum = i*position",
                        res < 1e-12,
                        f"|P0 - iQ0| = {res:.2e}",
                    )
                )
        # reflection symmetry: negating phase space maps the saddle for
        # image winding (n_p, n_q) onto the one for (-n_p, -1-n_q), so every
        # saddle whose partner winding lies inside the searched window must
        # have a negated twin in the list
        points = [
            (s.trajectory.initial.p1, s.trajectory.initial.q1)
            for s in setup.saddles
        ]
        unpaired = 0.0
        rng = cfg.image_range
        for sad, (P0, Q0) in zip(setup.saddles, points):
            n_p, n_q = sad.seed.winding
            if max(abs(-n_p), abs(-1 - n_q)) > rng:
                continue
            best = min(
                max(abs(P0 + P1), abs(Q0 + Q1)) for P1, Q1 in points
            )
            unpaired = max(unpaired, best)
        checks.append(
            (
                "saddles pair under reflection",
                unpaired < 1e-10,
                f"worst negation mismatch {unpaired:.2e}",
            )
        )

    # --- sweep table -----------------------------------------------------
    lines.append("")
    lines.append(
        f"  {'N':>4}  {'|C_qm|':>12}  {'err_oc':>10}  {'err_gg':>10}  "
        f"{'ratio_oc':>10}  {'ratio_gg':>10}  {'phase_oc':>10}  {'phase_gg':>10}"
    )
    floor = _FLOOR_MULTIPLE * _ORACLE_FLOOR
    any_below = False
    for r in rows:
        if r.error:
            lines.append(f"  {r.N:>4}  ERROR: {r.error}")
            continue
        below = abs(r.C_qm) < floor
        any_below |= below
        lines.append(
            f"  {r.N:>4}  {abs(r.C_qm):>12.6e}  {r.abs_err_oc:>10.3e}  "
            f"{r.abs_err_ggwpd:>10.3e}  {r.ratio_oc:>10.6f}  "
            f"{r.ratio_ggwpd:>10.6f}  {r.phase_err_oc:>+10.3e}  "
            f"{r.phase_err_ggwpd:>+10.3e}" + ("  [floor]" if below else "")
        )
    if any_below:
        lines.append(
            f"  [floor] |C_qm| < {floor:.0e}, {_FLOOR_MULTIPLE:.0f}x the exact "
            f"oracle's rounding floor of {_ORACLE_FLOOR:.0e}: ratio and phase "
            "are meaningless"
        )

    # --- sweep gates ------------------------------------------------------
    clean = [r for r in rows if not r.error]
    checks.append(
        (
            "all rows computed",
            len(clean) == len(rows),
            f"{len(rows) - len(clean)} failed rows",
        )
    )
    gated = [r for r in clean if r.N >= 100]
    if gated:
        hierarchy = all(r.abs_err_ggwpd < r.abs_err_oc for r in gated)
        checks.append(
            (
                "error hierarchy (ggwpd below off-center, N >= 100)",
                hierarchy,
                f"{len(gated)} rows",
            )
        )
    if len(gated) >= 2:
        first, last = gated[0], gated[-1]
        checks.append(
            (
                f"ggwpd ratio convergence at N={last.N}",
                abs(last.ratio_ggwpd - 1.0) < 1e-2
                and abs(last.ratio_ggwpd - 1.0) < abs(first.ratio_ggwpd - 1.0),
                f"|ratio-1| {abs(last.ratio_ggwpd - 1.0):.2e} "
                f"(was {abs(first.ratio_ggwpd - 1.0):.2e} at N={first.N})",
            )
        )
        checks.append(
            (
                "off-center ratio stays >= 5x worse",
                abs(last.ratio_oc - 1.0) >= 5.0 * abs(last.ratio_ggwpd - 1.0),
                f"off-center {abs(last.ratio_oc - 1.0):.2e} vs "
                f"ggwpd {abs(last.ratio_ggwpd - 1.0):.2e}",
            )
        )
        checks.append(
            (
                f"ggwpd phase convergence at N={last.N}",
                abs(last.phase_err_ggwpd) < 1e-2
                and abs(last.phase_err_ggwpd) < abs(first.phase_err_ggwpd),
                f"|phase| {abs(last.phase_err_ggwpd):.2e} "
                f"(was {abs(first.phase_err_ggwpd):.2e} at N={first.N})",
            )
        )
        if cfg.regime == "integrable":
            factor = last.abs_err_oc / last.abs_err_ggwpd
            checks.append(
                (
                    f"error ratio >= 10 at N={last.N}",
                    factor >= 10.0,
                    f"factor {factor:.1f}",
                )
            )

    lines.append("")
    lines.append("checks:")
    if base is not None and not pinned:
        lines.append(
            f"  [info] pinned {cfg.label} values not compared: "
            "the config differs from the preset beyond N_list"
        )
    passed = True
    for name, ok, detail in checks:
        passed = passed and ok
        lines.append(f"  [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    lines.append("")
    lines.append(f"overall: {'PASS' if passed else 'FAIL'}")
    return "\n".join(lines) + "\n", passed
