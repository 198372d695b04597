"""Configuration handling, sweep bookkeeping, CSV I/O, and report gates."""
import dataclasses
import math
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggwpd.errors import ConfigError
from ggwpd.experiment import (
    CSV_COLUMNS,
    PRESETS,
    REGRESSION_SADDLES,
    REGRESSION_SEEDS,
    SweepRow,
    config_from_dict,
    emit_csv,
    emit_report,
    load_config,
    packets_for,
    prepare_scenario,
    preset,
    read_csv,
)


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
    base = dataclasses.asdict(preset("integrable-fig2"))

    with pytest.raises(ConfigError):
        config_from_dict({**base, "regime": "laminar"})
    with pytest.raises(ConfigError):
        config_from_dict({**base, "K": -1.0})
    with pytest.raises(ConfigError):
        config_from_dict({**base, "t": 0})
    with pytest.raises(ConfigError):
        config_from_dict({**base, "N_list": [50, 1]})
    with pytest.raises(ConfigError):
        config_from_dict({**base, "image_range": -1})


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
    base = dataclasses.asdict(preset("integrable-fig2"))
    with pytest.raises(ConfigError):
        config_from_dict({**base, **override})


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


def test_saddle_locations_independent_of_grid_size(
    integrable_bundle, chaotic_bundle
):
    """Re-solving at the second N moves nothing: the width scaling keeps
    the saddle equations N-free."""
    assert integrable_bundle.setup.saddle_drift < 1e-10
    assert chaotic_bundle.setup.saddle_drift < 1e-10


def test_prepare_scenario_refuses_an_empty_n_list():
    cfg = config_from_dict({"N_list": []}, base=preset("integrable-fig2"))
    with pytest.raises(ConfigError, match="empty N_list"):
        prepare_scenario(cfg)


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


def test_rows_are_ordered_by_grid_size(integrable_bundle):
    Ns = [r.N for r in integrable_bundle.rows]
    assert Ns == sorted(Ns)
    assert Ns == list(integrable_bundle.config.N_list)


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------

def test_csv_round_trip_is_exact(integrable_bundle, tmp_path):
    path = tmp_path / "sweep.csv"
    emit_csv(integrable_bundle.rows, path)
    back = read_csv(path)
    assert len(back) == len(integrable_bundle.rows)
    for orig, rt in zip(integrable_bundle.rows, back):
        # .17g preserves every float64 bit-for-bit
        assert rt.N == orig.N
        assert rt.C_qm == orig.C_qm
        assert rt.C_oc == orig.C_oc
        assert rt.C_ggwpd == orig.C_ggwpd
        assert rt.abs_err_oc == orig.abs_err_oc
        assert rt.abs_err_ggwpd == orig.abs_err_ggwpd
        assert rt.ratio_oc == orig.ratio_oc
        assert rt.ratio_ggwpd == orig.ratio_ggwpd
        assert rt.phase_err_oc == orig.phase_err_oc
        assert rt.phase_err_ggwpd == orig.phase_err_ggwpd
        assert rt.error == orig.error


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
    (back,) = read_csv(path)
    assert back.N == 64
    assert back.error == "NumericalError: synthetic"
    assert math.isnan(back.C_qm.real) and math.isnan(back.ratio_ggwpd)


def test_read_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "foreign.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError, match="header"):
        read_csv(path)
    path.write_text("")
    with pytest.raises(ConfigError, match="header"):
        read_csv(path)


def _set_cells(**cells):
    def edit(line):
        rec = line.split(",")
        for name, value in cells.items():
            rec[CSV_COLUMNS.index(name)] = value
        return ",".join(rec)
    return edit


@pytest.mark.parametrize(
    "edit",
    [
        lambda line: line[: len(line) // 2],
        _set_cells(ratio_oc="1.0"),
        _set_cells(C_oc_re="0", C_oc_im="0"),
    ],
    ids=["truncated", "edited-ratio_oc", "zero-C_oc"],
)
def test_read_csv_refuses_rows_emit_csv_would_not_write(
    integrable_bundle, tmp_path, edit
):
    """A truncated last row, an edited metric and a zero sum are each
    refused with ConfigError, never read silently or raised as IndexError
    or ZeroDivisionError."""
    path = tmp_path / "sweep.csv"
    emit_csv(integrable_bundle.rows, path)
    *head, last = path.read_text().splitlines()
    path.write_text("\n".join(head + [edit(last)]) + "\n")
    with pytest.raises(ConfigError, match="line 15"):
        read_csv(path)


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
    """emit_csv -> read_csv -> emit_csv gives the same bytes, and every
    float read back has the bits it was written with (NaN only as NaN)."""
    tmp = tmp_path_factory.mktemp("csv")
    first, second = tmp / "first.csv", tmp / "second.csv"
    emit_csv(rows, first)
    back = read_csv(first)
    emit_csv(back, second)
    assert second.read_bytes() == first.read_bytes()
    assert len(back) == len(rows)
    for orig, rt in zip(rows, back):
        assert (rt.N, rt.error) == (orig.N, orig.error)
        for name in ("C_qm", "C_oc", "C_ggwpd"):
            a, b = getattr(orig, name), getattr(rt, name)
            assert _same_float(a.real, b.real) and _same_float(a.imag, b.imag)
        for f in dataclasses.fields(SweepRow):
            if not f.init:
                assert _same_float(getattr(orig, f.name), getattr(rt, f.name))


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
