"""Exit codes, file outputs, and determinism of the console entry point."""
import csv
import json

import numpy as np
import pytest

from ggwpd import experiment, rotor
from ggwpd.cli import main
from ggwpd.experiment import config_from_dict, packets_for, preset, read_csv
from ggwpd.floquet import quantum_correlation
from ggwpd.rotor import RotorParams, find_seeds


MINI_INTEGRABLE = {
    "K": 0.05,
    "t": 2,
    "alpha_center": [0.815, 0.2],
    "beta_center": [0.77, 0.8],
    "N_list": [50, 100],
    "regime": "integrable",
    "image_range": 2,
    "label": "integrable-fig2",
}


def _write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------

def test_no_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_preset_choice_exits_2():
    # argparse rejects values outside the declared choices
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--preset", "does-not-exist"])
    assert exc.value.code == 2


def test_sweep_without_preset_or_config_returns_2(capsys):
    assert main(["sweep"]) == 2
    assert "provide --preset and/or --config" in capsys.readouterr().err


def test_missing_config_file_returns_2(tmp_path, capsys):
    rc = main(["sweep", "--config", str(tmp_path / "nope.json")])
    assert rc == 2


def test_malformed_config_returns_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    assert main(["sweep", "--config", str(path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_config_that_is_not_utf8_returns_2(tmp_path, capsys):
    """A UTF-16 file (here with its byte-order mark) is not JSON text."""
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(MINI_INTEGRABLE).encode("utf-16-le"))
    assert main(["sweep", "--config", str(path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_removed_solver_settings_are_refused_with_exit_2(tmp_path, capsys):
    """Solver tolerances, caps and seed-capture sizes are module constants:
    neither a config key nor a flag sets them."""
    removed = {
        "tol": 1e-12, "max_iter": 25, "prune_threshold": 1e-12,
        "capture_sigma": 5.0, "capture_radius": 0.3, "halfwidth_sigma": 5.0,
        "arc_budget": 6.0,
    }
    for key, value in removed.items():
        cfg = _write_json(tmp_path, f"{key}.json", {**MINI_INTEGRABLE, key: value})
        assert main(["saddle", "--config", cfg]) == 2
        assert "unknown config keys" in capsys.readouterr().err
    for argv in (
        ["sweep", "--preset", "integrable-fig2", "--tol", "1e-10"],
        ["saddle", "--preset", "integrable-fig2", "--max-iter", "5"],
        ["manifolds", "--preset", "integrable-fig2", "--image-range", "2"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "override, message",
    [
        ({"N_list": [50, 101]}, "boundary phase"),
        ({"N_list": "ab"}, "N_list"),
        ({"t": 2.5}, "t must be an integer"),
    ],
)
def test_sweep_refuses_bad_config_values_with_exit_2(tmp_path, capsys, override, message):
    """Odd N would give a silently wrong sign, and a wrongly typed value
    used to crash with exit 1, the gate-failure code."""
    cfg = _write_json(tmp_path, "bad.json", {**MINI_INTEGRABLE, **override})
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep end-to-end
# ---------------------------------------------------------------------------

def test_sweep_mini_config_writes_csv_and_report(tmp_path, capsys):
    cfg = _write_json(tmp_path, "mini.json", MINI_INTEGRABLE)
    out = tmp_path / "run1"
    rc = main(["sweep", "--config", cfg, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0, captured.out

    csv_path = out / "integrable-fig2_sweep.csv"
    report_path = out / "integrable-fig2_report.txt"
    assert csv_path.exists() and report_path.exists()
    assert "overall: PASS" in report_path.read_text()
    assert "overall: PASS" in captured.out

    rows = read_csv(csv_path)
    assert [r.N for r in rows] == [50, 100]
    assert all(not r.error for r in rows)

    # a second identical invocation reproduces the CSV byte for byte
    out2 = tmp_path / "run2"
    assert main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
    capsys.readouterr()
    assert csv_path.read_bytes() == (out2 / "integrable-fig2_sweep.csv").read_bytes()


def test_sweep_creates_missing_output_directory(tmp_path, capsys):
    cfg = _write_json(tmp_path, "mini.json", MINI_INTEGRABLE)
    out = tmp_path / "deeply" / "nested" / "dir"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out / "integrable-fig2_sweep.csv").exists()


def test_sweep_gate_failure_exits_1(tmp_path, capsys):
    """Moving the initial packet off the pinned scenario keeps the label's
    regression gate armed, so the report must fail."""
    override = _write_json(
        tmp_path, "shifted.json",
        {"label": "integrable-fig2", "alpha_center": [0.82, 0.2],
         "N_list": [50, 100]},
    )
    rc = main([
        "sweep", "--preset", "integrable-fig2",
        "--config", override, "--out", str(tmp_path / "out"),
    ])
    captured = capsys.readouterr()
    assert rc == 1
    assert "[FAIL]" in captured.out
    assert "overall: FAIL" in captured.out


def test_sweep_numerical_failure_exits_3(tmp_path, capsys):
    """With no lattice images allowed, the transported manifold cannot
    reach the target packet and seed finding reports a numerical error."""
    rc = main([
        "sweep", "--preset", "integrable-fig2",
        "--image-range", "0", "--out", str(tmp_path / "out"),
    ])
    captured = capsys.readouterr()
    assert rc == 3
    assert "numerical failure" in captured.err


@pytest.mark.parametrize("command", ["saddle", "sweep"])
def test_huge_kick_strength_exits_3(tmp_path, capsys, command):
    """At K = 1e300 the unstable multiplier at the beta fixed point
    overflows a float when raised to the heteroclinic frame depth.  That
    is a numerical failure, not a traceback exiting 1 like a failed gate."""
    override = _write_json(tmp_path, "k.json", {"K": 1e300})
    argv = [command, "--preset", "chaotic-fig6", "--config", override]
    if command == "sweep":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 3
    assert "overflows at frame depth" in capsys.readouterr().err


@pytest.mark.parametrize("K", [1e5, 1e8])
def test_large_kick_strength_keeps_the_preset_fixed_points(tmp_path, capsys, K):
    """The float sin(2 pi 0.5) moves the fixed point (0, 0.5) by about
    K 2e-17, past an absolute 1e-12 from K = 1e5 on.  The preset centres
    stay fixed points: the search runs and finds no seeds (exit 3)
    instead of refusing the config (exit 2)."""
    override = _write_json(tmp_path, "k.json", {"K": K})
    assert main(["saddle", "--preset", "chaotic-fig6", "--config", override]) == 3
    err = capsys.readouterr().err
    assert "not a fixed point" not in err
    assert "no transport seeds found" in err


def test_sweep_zero_semiclassical_sum_becomes_an_error_row(tmp_path, capsys):
    """At N = 80000 the chaotic preset's off-center and GGWPD sums both
    underflow to 0j; the magnitude ratio is undefined there, so that N is
    an error row, which keeps the computed C_qm, and the sweep goes on to
    its gates."""
    payload = {"N_list": [50, 100, 80000]}
    override = _write_json(tmp_path, "large_n.json", payload)
    out = tmp_path / "out"
    rc = main([
        "sweep", "--preset", "chaotic-fig6", "--config", override, "--out", str(out),
    ])
    assert rc == 1
    assert "[FAIL] all rows computed: 1 failed rows" in capsys.readouterr().out
    rows = {r.N: r for r in read_csv(out / "chaotic-fig6_sweep.csv")}
    assert rows[50].error == rows[100].error == ""
    assert rows[80000].error.startswith("NumericalError")
    cfg = config_from_dict(payload, base=preset("chaotic-fig6"))
    alpha, beta = packets_for(cfg, 80000)
    c_qm = quantum_correlation(alpha, beta, cfg.t, 80000, RotorParams(cfg.K))
    assert 0.0 < abs(c_qm) < 1e-12
    assert rows[80000].C_qm == c_qm


# ---------------------------------------------------------------------------
# saddle / manifolds subcommands
# ---------------------------------------------------------------------------

def test_saddle_prints_windings_and_initial_conditions(tmp_path, capsys):
    cfg = _write_json(tmp_path, "mini.json", MINI_INTEGRABLE)
    assert main(["saddle", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "winding (0, 1)" in out
    assert "P0 =" in out and "Q0 =" in out
    assert "residual=" in out


def test_manifolds_integrable_writes_curve_csvs(tmp_path, capsys):
    cfg = _write_json(tmp_path, "mini.json", MINI_INTEGRABLE)
    out = tmp_path / "curves"
    assert main(["manifolds", "--config", cfg, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    for name in ("integrable-fig2_shearing_alpha.csv",
                 "integrable-fig2_shearing_alpha_t2.csv"):
        assert (out / name).exists()
        assert name in printed
        header = (out / name).read_text().splitlines()[0]
        assert header == "index,p,q"


def test_manifolds_chaotic_writes_invariant_curves(tmp_path, capsys):
    payload = {
        "K": 8.25, "t": 2, "alpha_center": [0.0, 0.0],
        "beta_center": [0.0, 0.5], "N_list": [50],
        "regime": "chaotic", "image_range": 2, "label": "chaotic-fig6",
    }
    cfg = _write_json(tmp_path, "chaotic.json", payload)
    out = tmp_path / "curves"
    assert main(["manifolds", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    for name in ("chaotic-fig6_unstable_alpha.csv",
                 "chaotic-fig6_stable_beta.csv"):
        path = out / name
        assert path.exists()
        assert len(path.read_text().splitlines()) > 100  # a real curve, not a stub


@pytest.mark.parametrize(
    "n_list, solved_at, saddle_line, report_line",
    [
        (
            [50],
            [50],
            "1 saddle(s) at N=50, not re-solved: N_list has no second N",
            "located at N=50, not re-checked: N_list has no second N",
        ),
        (
            [100, 100, 200],
            [100, 200],
            "1 saddle(s) at N=100, drift 0.00e+00 re-solved at N=200",
            "located at N=100, re-checked at N=200 (max drift 0.00e+00)",
        ),
    ],
    ids=["single-N", "repeated-first-N"],
)
def test_saddle_recheck_runs_at_the_first_other_n_or_says_it_did_not(
    tmp_path, capsys, monkeypatch, n_list, solved_at, saddle_line, report_line
):
    """The saddles are re-solved at the first N of N_list other than the
    first, and both outputs name that N; with no such N, both say so."""
    solved = []
    find_saddle = experiment.find_saddle

    def spy(alpha, *rest):
        solved.append(round(alpha.b1 / np.pi))
        return find_saddle(alpha, *rest)

    monkeypatch.setattr(experiment, "find_saddle", spy)
    config = _write_json(tmp_path, "cfg.json", {"N_list": n_list})
    assert main(["saddle", "--preset", "integrable-fig2", "--config", config]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        f"integrable-fig2: {saddle_line}"
    )
    assert solved == solved_at
    out = tmp_path / "out"
    main(["sweep", "--preset", "integrable-fig2", "--config", config, "--out", str(out)])
    capsys.readouterr()
    report = (out / "integrable-fig2_report.txt").read_text().splitlines()
    assert report[2] == f"  seeds/saddles {report_line}"


def test_manifolds_shearing_line_spans_the_interval_the_seed_search_scans(
    tmp_path, capsys, monkeypatch
):
    """The integrable seed search scans the shearing line that
    ``ggwpd manifolds`` writes: both reach _SHEAR_HALFWIDTH_SIGMA momentum
    widths to either side of the alpha center."""
    scanned = []
    scan_line = rotor._scan_line

    def spy(p_lo, p_hi, *rest):
        scanned.append((p_lo, p_hi))
        return scan_line(p_lo, p_hi, *rest)

    monkeypatch.setattr(rotor, "_scan_line", spy)
    cfg = preset("integrable-fig2")
    alpha, beta = packets_for(cfg, cfg.N_list[0])
    find_seeds(
        alpha, beta, cfg.t, RotorParams(cfg.K),
        image_range=cfg.image_range, regime=cfg.regime,
    )
    assert main(["manifolds", "--preset", "integrable-fig2", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    with open(tmp_path / "integrable-fig2_shearing_alpha.csv", newline="") as fh:
        p = [float(row["p"]) for row in csv.DictReader(fh)]
    assert scanned == [(p[0], p[-1])]
    sig_p = alpha.hbar / (2.0 * alpha.sigma)
    half = 0.5 * (p[-1] - p[0]) / sig_p
    assert abs(half - rotor._SHEAR_HALFWIDTH_SIGMA) < 1e-9
