"""Configuration handling, sweep bookkeeping, CSV output, and report gates."""
import csv
import math
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggwpd import experiment, semiclassics
from ggwpd.errors import ConfigError
from ggwpd.experiment import (
    CSV_COLUMNS,
    PRESETS,
    REGRESSION_SADDLES,
    REGRESSION_SEEDS,
    ScenarioSetup,
    SweepRow,
    config_from_dict,
    emit_csv,
    emit_report,
    load_config,
    packets_for,
    prepare_scenario,
    preset,
    run_sweep,
)
from ggwpd.rotor import ComplexTrajectory, SeedTrajectory, propagate
from ggwpd.semiclassics import SaddleTrajectory


# ---------------------------------------------------------------------------
# presets and config validation
# ---------------------------------------------------------------------------

def test_preset_literals():
    """The two built-in scenarios carry the pinned parameter values."""
    integ = preset("integrable-fig2")
    assert integ.K == 0.05
    assert integ.t == 2
    assert integ.alpha_center == (0.815, 0.2)
    assert integ.beta_center == (0.77, 0.8)
    assert integ.N_list == tuple(range(50, 701, 50))
    assert integ.regime == "integrable"
    assert integ.image_range == 2

    cha = preset("chaotic-fig6")
    assert cha.K == 8.25
    assert cha.t == 2
    assert cha.alpha_center == (0.0, 0.0)
    assert cha.beta_center == (0.0, 0.5)
    assert cha.N_list == tuple(range(50, 701, 50))
    assert cha.regime == "chaotic"
    assert cha.image_range == 2

    with pytest.raises(ConfigError):
        preset("no-such-scenario")


def test_config_validation_rejects_bad_values():
    base = preset("integrable-fig2")

    with pytest.raises(ConfigError):
        config_from_dict({"regime": "laminar"}, base=base)
    with pytest.raises(ConfigError):
        config_from_dict({"K": -1.0}, base=base)
    with pytest.raises(ConfigError):
        config_from_dict({"t": 0}, base=base)
    with pytest.raises(ConfigError):
        config_from_dict({"N_list": [50, 1]}, base=base)
    with pytest.raises(ConfigError):
        config_from_dict({"image_range": -1}, base=base)


@pytest.mark.parametrize(
    "override",
    [
        {"K": float("nan")},
        {"K": float("inf")},
        {"K": "0.05"},
        {"K": True},
        {"K": None},
        {"alpha_center": "ab"},
        {"alpha_center": [0.815, 0.2, 0.0]},
        {"beta_center": [float("-inf"), 0.8]},
        {"regime": None},
        {"alpha_center": [0.815]},
        {"beta_center": ["a", 0.8]},
        {"beta_center": [0.77, float("nan")]},
        {"t": 2.5},
        {"t": True},
        {"image_range": 1.0},
        {"image_range": "2"},
        {"N_list": "ab"},
        {"N_list": 50},
        {"N_list": [50, 100.0]},
        {"N_list": [50, 101]},
        {"label": 7},
    ],
)
def test_config_rejects_wrong_types_and_non_finite_values(override):
    with pytest.raises(ConfigError):
        config_from_dict(override, base=preset("integrable-fig2"))


def test_config_from_dict_unknown_and_missing_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_dict({"kick_strengthh": 1.0}, base=preset("integrable-fig2"))
    # without a base, the physics keys are all required
    with pytest.raises(ConfigError, match="missing config keys"):
        config_from_dict({"K": 1.0, "t": 2})


def test_config_from_dict_overrides_base():
    cfg = config_from_dict({"N_list": [64], "label": "tweak"},
                           base=preset("chaotic-fig6"))
    assert cfg.N_list == (64,)
    assert cfg.label == "tweak"
    assert cfg.K == 8.25  # untouched fields come from the base


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        '{"K": 0.05, "t": 2, "alpha_center": [0.815, 0.2],'
        ' "beta_center": [0.77, 0.8], "N_list": [50, 100],'
        ' "regime": "integrable", "image_range": 2}'
    )
    cfg = load_config(path)
    assert cfg.K == 0.05
    assert cfg.alpha_center == (0.815, 0.2)
    assert cfg.N_list == (50, 100)

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(bad)

    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2, 3]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(arr)


def test_packets_for_width_scaling():
    """b = pi N and hbar = 1/(2 pi N), so 2 pi hbar N = 1 at every N."""
    cfg = preset("integrable-fig2")
    for N in (50, 128, 700):
        alpha, beta = packets_for(cfg, N)
        assert alpha.b1 == pytest.approx(np.pi * N, rel=1e-15)
        assert 2.0 * np.pi * alpha.hbar * N == pytest.approx(1.0, rel=1e-15)
        assert alpha.hbar == beta.hbar
        assert (alpha.p1, alpha.q1) == cfg.alpha_center
        assert (beta.p1, beta.q1) == cfg.beta_center


# ---------------------------------------------------------------------------
# scenario preparation
# ---------------------------------------------------------------------------

def test_prepared_saddles_are_unique_and_cover_targets(
    integrable_bundle, chaotic_bundle
):
    """Dedup leaves one saddle per location; pinned windings all show up."""
    for bundle in (integrable_bundle, chaotic_bundle):
        setup = bundle.setup
        keys = set()
        for sad in setup.saddles:
            ic = sad.trajectory.initial
            keys.add((
                sad.seed.winding,
                round(ic.p1.real, 9), round(ic.p1.imag, 9),
                round(ic.q1.real, 9), round(ic.q1.imag, 9),
            ))
        assert len(keys) == len(setup.saddles)
        assert len(setup.seeds) == len(setup.saddles)

        windings = {s.seed.winding for s in setup.saddles}
        assert set(REGRESSION_SADDLES[setup.config.label]) <= windings


@pytest.mark.parametrize(
    "changes, count",
    [({"N_list": (150, 300)}, 7), ({"K": 6.0, "N_list": (100, 200)}, 4)],
    ids=["preset", "K=6"],
)
def test_chaotic_saddles_are_found_from_a_larger_reference_n(
    chaotic_bundle, changes, count
):
    """The saddle equations do not depend on N, so a sweep that starts at
    N = 150 or 100 still finds every saddle at the seed N, 50: the preset's
    seven, and at K = 6 the four with which the sweep passes its gates."""
    cfg = config_from_dict(changes, base=chaotic_bundle.config)
    setup = prepare_scenario(cfg)
    assert len(setup.saddles) == count
    assert emit_report(run_sweep(setup), setup)[1]


def test_integrable_saddle_is_found_from_a_larger_reference_n(integrable_bundle):
    """The pinned (0, 1) saddle does not depend on N, so a sweep that
    starts at N = 3000 finds it at the seed N, 50, and the report names
    that N."""
    cfg = config_from_dict({"N_list": (3000, 6000)}, base=integrable_bundle.config)
    setup = prepare_scenario(cfg)
    assert [s.seed.winding for s in setup.saddles] == [(0, 1)]
    report, _ = emit_report([], setup)
    assert report.splitlines()[2] == "  seeds/saddles located at N=50"


def test_prepare_scenario_refuses_an_empty_n_list():
    """The config refuses it, before any command can use it."""
    with pytest.raises(ConfigError, match="empty N_list"):
        config_from_dict({"N_list": []}, base=preset("integrable-fig2"))


# ---------------------------------------------------------------------------
# sweep rows
# ---------------------------------------------------------------------------

def test_row_metrics_recompute_from_the_correlations(
    integrable_bundle, chaotic_bundle
):
    for bundle in (integrable_bundle, chaotic_bundle):
        for r in bundle.rows:
            assert not r.error
            assert r.abs_err_oc == abs(r.C_qm - r.C_oc)
            assert r.abs_err_ggwpd == abs(r.C_qm - r.C_ggwpd)
            assert r.ratio_oc == abs(r.C_qm) / abs(r.C_oc)
            assert r.ratio_ggwpd == abs(r.C_qm) / abs(r.C_ggwpd)
            assert r.phase_err_oc == float(np.angle(r.C_qm * np.conj(r.C_oc)))
            assert r.phase_err_ggwpd == float(
                np.angle(r.C_qm * np.conj(r.C_ggwpd))
            )
            assert -np.pi < r.phase_err_oc <= np.pi
            assert -np.pi < r.phase_err_ggwpd <= np.pi


def test_sweep_propagates_each_seed_once(chaotic_bundle, monkeypatch):
    """The seed orbits do not depend on N, so a sweep over six N makes as
    many ``propagate`` calls as one over two, one per seed.  The orbits of
    one scenario are one cache entry, however many seeds it has: the 51 of
    K = 12, t = 3 and image range 3 are propagated once each over three N."""
    calls = []

    def counting(*args):
        calls.append(args)
        return propagate(*args)

    monkeypatch.setattr(semiclassics, "propagate", counting)

    def sweep_calls(setup):
        semiclassics._seed_trajectories.cache_clear()
        calls.clear()
        rows = run_sweep(setup)
        assert not any(r.error for r in rows)
        return len(calls)

    base = chaotic_bundle.config
    counts = [
        sweep_calls(ScenarioSetup(
            config_from_dict({"N_list": n_list}, base=base), chaotic_bundle.setup.saddles
        ))
        for n_list in ((50, 100), (50, 100, 150, 200, 250, 300))
    ]
    assert counts[0] == counts[1] == len(chaotic_bundle.setup.seeds)
    wide = prepare_scenario(config_from_dict(
        {"K": 12.0, "t": 3, "image_range": 3, "N_list": (50, 100, 150)}, base=base
    ))
    assert len(wide.seeds) == 51
    assert sweep_calls(wide) == 51


def test_sweep_records_an_overflowing_term_in_its_row(integrable_bundle):
    """A saddle whose weight overflows to inf is refused by the sum, which
    names its branch, and the sweep records the refusal in the row instead
    of an infinite or NaN C_ggwpd."""
    saddles = integrable_bundle.setup.saddles
    traj = saddles[0].trajectory
    huge = ComplexTrajectory(
        points=traj.points, action=complex(traj.action.real, -1e300), legs=traj.legs
    )
    bad = SaddleTrajectory(
        trajectory=huge, seed=saddles[0].seed, residual_history=saddles[0].residual_history
    )
    config = config_from_dict({"N_list": [50]}, base=integrable_bundle.config)
    with np.errstate(all="ignore"):
        (row,) = run_sweep(ScenarioSetup(config, saddles + (bad,)))
    assert row.error == (
        f"NumericalError: branch {len(saddles)} of the sum has a weight of inf"
    )
    assert math.isfinite(abs(row.C_qm)) and math.isnan(abs(row.C_ggwpd))


def test_copies_of_a_connector_meet_at_the_saddle_merge(chaotic_bundle, monkeypatch):
    """Duplicate connectors are resolved in one place, the saddle merge of
    ``prepare_scenario``: a seed search that returned each chaotic-fig6
    seed followed by a copy one ulp away in p gives the preset's scenario
    and the same sweep rows."""
    find_seeds = experiment.find_seeds

    def doubled(*args, **kwargs):
        return [
            copy
            for s in find_seeds(*args, **kwargs)
            for copy in (
                s,
                SeedTrajectory(
                    ic=(math.nextafter(s.ic[0], math.inf), s.ic[1]),
                    t=s.t,
                    winding=s.winding,
                ),
            )
        ]

    monkeypatch.setattr(experiment, "find_seeds", doubled)
    setup = prepare_scenario(chaotic_bundle.config)
    assert setup == chaotic_bundle.setup
    assert run_sweep(setup) == chaotic_bundle.rows


def test_rows_are_ordered_by_grid_size(integrable_bundle):
    Ns = [r.N for r in integrable_bundle.rows]
    assert Ns == sorted(Ns)
    assert Ns == list(integrable_bundle.config.N_list)


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def _read_back(path):
    """(N, floats, error) of each row of a sweep CSV, as ``csv.reader``
    reads it; ``floats`` are the cells between N and the error text."""
    with open(path, newline="") as fh:
        header, *recs = csv.reader(fh)
    assert tuple(header) == CSV_COLUMNS
    return [(int(rec[0]), [float(c) for c in rec[1:-1]], rec[-1]) for rec in recs]


def _written_floats(row):
    """The floats of ``row`` under ``CSV_COLUMNS[1:-1]``, a complex ``C_x``
    as its ``C_x_re`` and ``C_x_im`` cells."""
    parts = {"re": "real", "im": "imag"}
    out = []
    for column in CSV_COLUMNS[1:-1]:
        name, _, part = column.rpartition("_")
        if part in parts:
            out.append(getattr(getattr(row, name), parts[part]))
        else:
            out.append(getattr(row, column))
    return out


def test_csv_round_trip_is_exact(integrable_bundle, tmp_path):
    path = tmp_path / "sweep.csv"
    emit_csv(integrable_bundle.rows, path)
    back = _read_back(path)
    assert len(back) == len(integrable_bundle.rows)
    for orig, (n, floats, error) in zip(integrable_bundle.rows, back):
        # .17g preserves every float64 bit-for-bit
        assert n == orig.N
        assert floats == _written_floats(orig)
        assert error == orig.error


def test_csv_bytes_are_deterministic(chaotic_bundle, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    emit_csv(chaotic_bundle.rows, a)
    emit_csv(chaotic_bundle.rows, b)
    raw = a.read_bytes()
    assert raw == b.read_bytes()
    assert b"\r" not in raw  # LF-only, independent of platform


def test_csv_empty_rows_write_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path)
    assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"


def test_csv_error_row_survives_round_trip(tmp_path):
    nan = float("nan")
    row = SweepRow(
        N=64, C_qm=complex(nan, nan), C_oc=complex(nan, nan),
        C_ggwpd=complex(nan, nan), error="NumericalError: synthetic",
    )
    path = tmp_path / "err.csv"
    emit_csv([row], path)
    ((n, floats, error),) = _read_back(path)
    assert n == 64
    assert error == "NumericalError: synthetic"
    assert len(floats) == 12 and all(map(math.isnan, floats))


def test_error_row_builds_after_a_libm_underflow():
    """numpy's complex exp leaves ERANGE in errno when it underflows, and
    CPython 3.11's ``abs`` of a complex with a NaN part returns NaN without
    clearing it, then raises ``OverflowError``.  An error row's NaN sums
    still give NaN metrics; the chaotic preset's N = 10**5 row hit this
    when its last saddle term underflowed."""
    nan = complex(math.nan, math.nan)
    np.exp(np.complex128(-800.0 + 1.0j))
    row = SweepRow(100, 0.1 + 0.2j, nan, nan, "NumericalError: synthetic")
    for m in experiment._METHODS:
        for metric in ("abs_err", "ratio", "phase_err"):
            assert math.isnan(getattr(row, f"{metric}_{m}"))


_special = st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 2.2e-308]
)
# finite parts stay below 1e150 so that |C| and C_qm * conj(C) cannot overflow
_part = st.one_of(_special, st.floats(-1e150, 1e150))
_sum = st.builds(complex, _part, _part).filter(lambda c: c != 0)
_error = st.text(alphabet=string.printable, max_size=30)
_row = st.builds(
    SweepRow, st.integers(-10**6, 10**6), st.builds(complex, _part, _part),
    _sum, _sum, _error,
)


def _same_float(a, b):
    return (math.isnan(a) and math.isnan(b)) or a.hex() == b.hex()


# an infinite part times a zero one in C_qm * conj(C) warns, as numpy does
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(rows=st.lists(_row, max_size=4))
def test_csv_round_trip_property(rows, tmp_path_factory):
    """``csv.reader`` reads back every row ``emit_csv`` wrote: its N, its
    error text (a bare carriage return included) and every float with the
    bits it was written with (NaN only as NaN)."""
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    emit_csv(rows, path)
    back = _read_back(path)
    assert len(back) == len(rows)
    for orig, (n, floats, error) in zip(rows, back):
        assert (n, error) == (orig.N, orig.error)
        assert all(map(_same_float, floats, _written_floats(orig)))


# ---------------------------------------------------------------------------
# report gates
# ---------------------------------------------------------------------------

def test_report_passes_on_both_presets(integrable_bundle, chaotic_bundle):
    for bundle in (integrable_bundle, chaotic_bundle):
        text, ok = emit_report(bundle.rows, bundle.setup)
        assert ok, text
        assert text.endswith("overall: PASS\n")
        assert "[FAIL]" not in text
        # every row shows up in the table
        for r in bundle.rows:
            assert f"\n  {r.N:>4}  " in text


def test_report_fails_when_a_row_errored(integrable_bundle):
    nan = float("nan")
    broken = SweepRow(
        N=999, C_qm=complex(nan, nan), C_oc=complex(nan, nan),
        C_ggwpd=complex(nan, nan), error="NumericalError: synthetic blow-up",
    )
    rows = list(integrable_bundle.rows) + [broken]
    text, ok = emit_report(rows, integrable_bundle.setup)
    assert not ok
    assert "ERROR: NumericalError: synthetic blow-up" in text
    assert "[FAIL] all rows computed: 1 failed rows" in text
    assert text.endswith("overall: FAIL\n")


def test_report_flags_rows_at_the_oracle_floor(monkeypatch):
    """``integrable-fig2`` at t = 4: the exact |C_qm| is 1.1e-12 at N = 400
    and 3.5e-15 at N = 800, near the double FFT's rounding floor, so only
    the N = 800 row's ratio and phase are flagged as meaningless.  The
    flag and its note are the only lines it adds: the gates and their
    verdict are those of the unflagged report."""
    cfg = config_from_dict({"t": 4, "N_list": [50, 400, 800]}, base=preset("integrable-fig2"))
    setup = prepare_scenario(cfg)
    rows = run_sweep(setup)
    assert abs(rows[1].C_qm) > 1e-12 and abs(rows[2].C_qm) < 4e-15
    text, ok = emit_report(rows, setup)
    flagged = [line.split()[0] for line in text.splitlines() if line.endswith("  [floor]")]
    assert flagged == ["800"]
    note = "  [floor] |C_qm| < 1e-13, 100x the exact oracle's rounding floor"
    assert sum(line.startswith(note) for line in text.splitlines()) == 1

    monkeypatch.setattr(experiment, "_FLOOR_MULTIPLE", 0.0)
    plain, plain_ok = emit_report(rows, setup)
    assert "[floor]" not in plain
    assert ok == plain_ok
    assert [
        line.removesuffix("  [floor]")
        for line in text.splitlines()
        if not line.startswith(note)
    ] == plain.splitlines()


def test_report_gates_every_pinned_seed(integrable_bundle, monkeypatch):
    """The integrable seed is gated like the chaotic ones: a reference
    moved by 1e-5 fails the report."""
    text, ok = emit_report(integrable_bundle.rows, integrable_bundle.setup)
    assert ok
    assert "[PASS] seed (0, 1) regression" in text

    sp, sq = REGRESSION_SEEDS["integrable-fig2"][(0, 1)]
    monkeypatch.setitem(REGRESSION_SEEDS["integrable-fig2"], (0, 1), (sp + 1e-5, sq))
    text, ok = emit_report(integrable_bundle.rows, integrable_bundle.setup)
    assert not ok
    assert "[FAIL] seed (0, 1) regression" in text
    assert text.endswith("overall: FAIL\n")


def test_report_fails_when_a_pinned_saddle_is_missing(integrable_bundle, monkeypatch):
    """A pinned winding with no saddle in the setup fails the report."""
    text, ok = emit_report(integrable_bundle.rows, integrable_bundle.setup)
    assert ok and "saddle (2, 2) present" not in text
    monkeypatch.setitem(REGRESSION_SADDLES["integrable-fig2"], (2, 2), (0j, 0j))
    text, ok = emit_report(integrable_bundle.rows, integrable_bundle.setup)
    assert not ok
    assert "[FAIL] saddle (2, 2) present" in text
    assert text.endswith("overall: FAIL\n")
