"""Exit codes, file outputs, and determinism of the console entry point."""
import contextlib
import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ggwpd import cli, experiment, rotor
from ggwpd.cli import main
from ggwpd.experiment import (
    config_from_dict,
    packets_for,
    prepare_scenario,
    preset,
)
from ggwpd.floquet import quantum_correlation
from ggwpd.rotor import RotorParams
from oracles import stable_invariance_defect


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


def _csv_rows(path):
    """The rows of a sweep CSV as dicts keyed by column name."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------

def test_no_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_preset_choice_exits_2():
    # the parser rejects a name outside the presets
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--preset", "does-not-exist"])
    assert exc.value.code == 2


USAGE_LINE = (
    "usage: ggwpd {sweep,saddle,manifolds} [--config PATH] "
    "[--preset {chaotic-fig6,integrable-fig2}] [--out DIR]"
)


@pytest.mark.parametrize(
    "argv",
    [
        [],  # no subcommand
        ["bogus"],  # an unknown subcommand
        ["--preset", "chaotic-fig6", "sweep"],  # an option before the subcommand
        ["sweep", "--pre", "chaotic-fig6"],  # abbreviations are unknown options
        ["manifolds", "--preset", "chaotic-fig6", "--bogus=1"],
        ["sweep", "extra"],  # a stray word
        ["sweep", "--preset"],  # a missing value at the end
        ["sweep", "--out", "--preset", "chaotic-fig6"],  # an option is no value
        ["sweep", "--preset", "nope"],  # a bad preset, either form
        ["saddle", "--preset=nope"],
    ],
)
def test_usage_errors_exit_2_with_the_usage_line_on_stderr(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert lines[0] == USAGE_LINE
    assert lines[1].startswith("ggwpd: error: ") and len(lines) == 2


@pytest.mark.parametrize(
    "argv",
    [["-h"], ["--help"], ["sweep", "-h"], ["manifolds", "--preset", "chaotic-fig6", "--help"]],
)
def test_help_exits_0_with_the_usage_line_on_stdout(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[0] == USAGE_LINE
    for word in ("sweep", "saddle", "manifolds", "--config", "--preset", "--out"):
        assert word in captured.out


def test_options_take_either_form_in_any_order(tmp_path, capsys):
    """``--opt=value`` and ``--opt value`` in any order after the
    subcommand write the same files; a repeated option keeps its last
    value."""
    cfg = _write_json(tmp_path, "mini.json", MINI_INTEGRABLE)
    outs = [tmp_path / name for name in ("a", "b", "c")]
    argvs = [
        ["manifolds", "--preset", "integrable-fig2", "--config", cfg, "--out", str(outs[0])],
        ["manifolds", f"--out={outs[1]}", f"--config={cfg}", "--preset=integrable-fig2"],
        ["manifolds", "--out", str(outs[0]), "--config", cfg, "--out", str(outs[2])],
    ]
    for argv in argvs:
        assert main(argv) == 0
    printed = capsys.readouterr().out
    names = sorted(path.name for path in outs[0].iterdir())
    assert names == [
        "integrable-fig2_shearing_alpha.csv",
        "integrable-fig2_shearing_alpha_t2.csv",
    ]
    for out in outs[1:]:
        assert sorted(path.name for path in out.iterdir()) == names
        for name in names:
            assert (out / name).read_bytes() == (outs[0] / name).read_bytes()
    assert printed.count("wrote ") == 6


def test_importing_the_cli_loads_no_argparse():
    """The hand parser keeps argparse, and the gettext and locale imports
    its first parser makes, out of every command's start-up."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import ggwpd.cli\n"
        "print(sorted({'argparse', 'gettext', 'locale'} & (set(sys.modules) - before)))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.strip() == "[]"


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
        ["sweep", "--preset", "integrable-fig2", "--image-range", "2"],
        ["saddle", "--preset", "integrable-fig2", "--image-range", "2"],
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


@pytest.mark.parametrize("command", ["sweep", "manifolds"])
@pytest.mark.parametrize("label", ["a\0b", "../escaped"])
def test_label_that_is_no_plain_file_name_exits_2(tmp_path, capsys, command, label):
    """The label prefixes every output file name.  A NUL in it used to
    raise ValueError out of ``open`` (exit 1, the gate-failure code), and
    a path separator wrote the files outside ``--out``."""
    cfg = _write_json(tmp_path, "label.json", {**MINI_INTEGRABLE, "label": label})
    out = tmp_path / "work" / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "label must be a plain file name" in capsys.readouterr().err
    assert [p.name for p in tmp_path.rglob("*")] == ["label.json"]


@pytest.mark.parametrize("command", ["sweep", "manifolds"])
def test_label_too_long_for_a_file_name_exits_2_before_any_computation(
    tmp_path, capsys, monkeypatch, command
):
    """A 300-character label used to exit 2 only when the first output
    file was opened, after the whole sweep or both curves had run."""

    def refuse(*args):
        raise AssertionError("computed before the output names were checked")

    for name in ("prepare_scenario", "run_sweep", "unstable_manifold", "stable_manifold"):
        monkeypatch.setattr(cli, name, refuse)
    cfg = _write_json(tmp_path, "label.json", {"label": "x" * 300})
    out = tmp_path / "out"
    argv = [command, "--preset", "chaotic-fig6", "--config", cfg, "--out", str(out)]
    assert main(argv) == 2
    assert "is longer than 255 bytes" in capsys.readouterr().err
    assert [p.name for p in tmp_path.rglob("*")] == ["label.json"]


@pytest.mark.parametrize("command", ["sweep", "manifolds"])
@pytest.mark.parametrize(
    "out, message",
    [("taken", "exists and is not a directory"), ("", "--out is empty")],
)
def test_bad_out_exits_2_before_any_computation(
    tmp_path, capsys, monkeypatch, command, out, message
):
    """An ``--out`` that names an existing file used to exit 2 with
    ``[Errno 17] File exists``, and an empty ``--out=`` with
    ``[Errno 2]``, only once the output directory was made, after the
    whole sweep or both curves had run."""

    def refuse(*args):
        raise AssertionError("computed before --out was checked")

    for name in ("prepare_scenario", "run_sweep", "unstable_manifold", "stable_manifold"):
        monkeypatch.setattr(cli, name, refuse)
    if out:
        (tmp_path / out).write_text("kept\n")
        out = str(tmp_path / out)
    assert main([command, "--preset", "chaotic-fig6", f"--out={out}"]) == 2
    assert message in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == (["taken"] if out else [])
    if out:
        assert (tmp_path / "taken").read_text() == "kept\n"


@pytest.mark.parametrize(
    "command, longest", [("sweep", "_report.txt"), ("manifolds", "_shearing_alpha_t2.csv")]
)
def test_longest_output_name_of_255_bytes_is_written(tmp_path, capsys, command, longest):
    """A label that makes the longest output name exactly 255 bytes runs;
    one byte more is refused."""
    label = "x" * (255 - len(longest))
    cfg = _write_json(tmp_path, "ok.json", {**MINI_INTEGRABLE, "label": label})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "ok")]) == 0
    assert (tmp_path / "ok" / (label + longest)).exists()
    cfg = _write_json(tmp_path, "long.json", {**MINI_INTEGRABLE, "label": label + "x"})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "long")]) == 2
    assert "is longer than 255 bytes" in capsys.readouterr().err
    assert not (tmp_path / "long").exists()


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

    rows = _csv_rows(csv_path)
    assert [r["N"] for r in rows] == ["50", "100"]
    assert all(not r["error"] for r in rows)

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
    """At K = 0 the map is quadratic, so the off-center sum is as exact as
    the saddle sum: both errors sit at rounding level, and the gates that
    want the off-center sum worse must fail."""
    override = _write_json(tmp_path, "k.json", {"K": 0.0, "N_list": [100, 200]})
    rc = main([
        "sweep", "--preset", "integrable-fig2",
        "--config", override, "--out", str(tmp_path / "out"),
    ])
    captured = capsys.readouterr()
    assert rc == 1
    assert "[FAIL] off-center ratio stays >= 5x worse" in captured.out
    assert "[FAIL] error ratio >= 10 at N=200: factor 0.2" in captured.out
    assert "overall: FAIL" in captured.out


@pytest.mark.parametrize(
    "name, override",
    [
        ("chaotic-fig6", {"K": 6.0, "N_list": [100, 200]}),
        ("integrable-fig2", {"alpha_center": [0.82, 0.2], "N_list": [50, 100]}),
    ],
)
def test_pinned_gates_judge_only_the_preset_scenario(tmp_path, capsys, name, override):
    """An override that keeps the label but moves K or a centre is a
    different scenario: its saddles are not compared with the preset's
    pinned values or symmetries, and the report says so once."""
    config = _write_json(tmp_path, "override.json", override)
    main(["sweep", "--preset", name, "--config", config, "--out", str(tmp_path)])
    report = (tmp_path / f"{name}_report.txt").read_text()
    capsys.readouterr()
    assert "[FAIL] saddle" not in report and "[FAIL] seed" not in report
    assert "regression" not in report and "reflection" not in report
    assert report.count("[info]") == 1
    assert f"[info] pinned {name} values not compared" in report


@pytest.mark.parametrize(
    "name, n_list, gates",
    [
        ("integrable-fig2", [100, 200], ["saddle (0, 1) regression"]),
        ("chaotic-fig6", [50, 100],
         ["saddle (1, 1) regression", "saddles pair under reflection"]),
    ],
)
def test_pinned_gates_stay_armed_when_only_n_list_changes(
    tmp_path, capsys, name, n_list, gates
):
    config = _write_json(tmp_path, "n.json", {"N_list": n_list})
    main(["sweep", "--preset", name, "--config", config, "--out", str(tmp_path)])
    report = (tmp_path / f"{name}_report.txt").read_text()
    capsys.readouterr()
    assert "[info]" not in report
    for gate in gates:
        assert f"[PASS] {gate}" in report


def test_sweep_numerical_failure_exits_3(tmp_path, capsys):
    """With no lattice images allowed, the transported manifold cannot
    reach the target packet and seed finding reports a numerical error."""
    override = _write_json(tmp_path, "range.json", {"image_range": 0})
    rc = main([
        "sweep", "--preset", "integrable-fig2",
        "--config", override, "--out", str(tmp_path / "out"),
    ])
    captured = capsys.readouterr()
    assert rc == 3
    assert "numerical failure" in captured.err


@pytest.mark.parametrize("command", ["saddle", "sweep"])
def test_huge_kick_strength_exits_3(tmp_path, capsys, command):
    """At K = 1e300 the kick rounds by far more than the curve spacing at
    the fixed points, so the chaotic seed search refuses it, as growth
    does.  That is a numerical failure, not a traceback exiting 1 like a
    failed gate."""
    override = _write_json(tmp_path, "k.json", {"K": 1e300})
    argv = [command, "--preset", "chaotic-fig6", "--config", override]
    if command == "sweep":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 3
    assert "numerical failure: the kick rounds by up to" in capsys.readouterr().err


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
    rows = {int(r["N"]): r for r in _csv_rows(out / "chaotic-fig6_sweep.csv")}
    assert rows[50]["error"] == rows[100]["error"] == ""
    assert rows[80000]["error"].startswith("NumericalError")
    cfg = config_from_dict(payload, base=preset("chaotic-fig6"))
    alpha, beta = packets_for(cfg, 80000)
    c_qm = quantum_correlation(alpha, beta, cfg.t, 80000, RotorParams(cfg.K))
    assert 0.0 < abs(c_qm) < 1e-12
    assert complex(float(rows[80000]["C_qm_re"]), float(rows[80000]["C_qm_im"])) == c_qm


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


def test_manifolds_at_a_p_shifted_fixed_point_writes_the_shifted_curve(tmp_path, capsys):
    """alpha at (1, 1/2) is a lattice image of the fixed point (0, 1/2):
    its unstable curve is the (0, 1/2) curve shifted by 1 in p, byte for
    byte in the CSV."""
    payload = {
        "K": 8.25, "t": 2, "alpha_center": [1.0, 0.5],
        "beta_center": [0.0, 0.5], "N_list": [50],
        "regime": "chaotic", "image_range": 2, "label": "shifted",
    }
    cfg = _write_json(tmp_path, "shifted.json", payload)
    out = tmp_path / "curves"
    assert main(["manifolds", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    points = rotor.unstable_manifold((0.0, 0.5), RotorParams(8.25)).points.copy()
    points[:, 0] += 1.0
    want = tmp_path / "want.csv"
    rotor.curve_to_csv(rotor.ManifoldCurve(points), want)
    assert (out / "shifted_unstable_alpha.csv").read_bytes() == want.read_bytes()


@pytest.mark.parametrize("K", [1e9, 3e9])
def test_manifolds_at_a_huge_kick_strength_writes_invariant_curves(tmp_path, capsys, K):
    """Both curves grow at K = 1e9 and 3e9: the stable multiplier is taken
    as 1 / lambda_u, not from a numerical eigen-solver, which loses it to
    cancellation (0.0 from K of about 2e8).  The stable curve maps into
    itself to within 1e-6, well inside its 1e-3 point spacing."""
    override = _write_json(tmp_path, "k.json", {"K": K})
    out = tmp_path / "curves"
    argv = ["manifolds", "--preset", "chaotic-fig6", "--config", override]
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert sorted(path.name for path in out.iterdir()) == [
        "chaotic-fig6_stable_beta.csv", "chaotic-fig6_unstable_alpha.csv",
    ]
    points = np.loadtxt(
        out / "chaotic-fig6_stable_beta.csv", delimiter=",", skiprows=1
    )[:, 1:]
    assert len(points) > 8000
    assert stable_invariance_defect(points, K) <= 1e-6


def test_manifolds_at_a_kick_strength_past_the_curve_resolution_exits_3(tmp_path, capsys):
    """At K = 2e12 the kick's rounding, up to 4 K eps a step, passes the
    curves' 1e-3 spacing, and the grown curves would not map into
    themselves to it (5e-4 at K = 1e12, 0.47 at 2e15): a one-line
    numerical failure, with no curve and no ``--out`` directory written."""
    override = _write_json(tmp_path, "k.json", {"K": 2e12})
    out = tmp_path / "curves"
    argv = ["manifolds", "--preset", "chaotic-fig6", "--config", override]
    assert main(argv + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: the kick rounds by up to")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "label, n_list, seeds, saddles",
    [
        ("integrable-fig2", list(range(50, 701, 50)), 1, 1),
        ("chaotic-fig6", list(range(50, 701, 50)), 9, 7),
        ("integrable-fig2", [50], 1, 1),
        ("integrable-fig2", [100, 100, 200], 1, 1),
    ],
    ids=["integrable-fig2", "chaotic-fig6", "single-N", "repeated-first-N"],
)
def test_prepare_scenario_solves_each_seed_once_at_the_seed_n(
    tmp_path, capsys, monkeypatch, label, n_list, seeds, saddles
):
    """The saddles are solved once per seed, all with the packets of
    ``seed_N`` (50 here), whatever N_list holds; ``ggwpd saddle`` and the
    report name that N."""
    solved = []
    find_saddle = experiment.find_saddle

    def spy(alpha, *rest):
        solved.append(round(alpha.b1 / np.pi))
        return find_saddle(alpha, *rest)

    monkeypatch.setattr(experiment, "find_saddle", spy)
    config = _write_json(tmp_path, "cfg.json", {"N_list": n_list})
    assert main(["saddle", "--preset", label, "--config", config]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        f"{label}: {saddles} saddle(s) at N=50"
    )
    assert solved == [50] * seeds
    setup = prepare_scenario(config_from_dict({"N_list": n_list}, base=preset(label)))
    report = experiment.emit_report([], setup)[0].splitlines()
    assert report[2] == "  seeds/saddles located at N=50"


def test_sweep_evaluates_a_repeated_n_once(tmp_path, capsys):
    """An N listed twice gives one row, and the report counts it once."""
    config = _write_json(tmp_path, "cfg.json", {"N_list": [100, 100, 200]})
    out = tmp_path / "out"
    argv = ["sweep", "--preset", "integrable-fig2", "--config", config]
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert [r["N"] for r in _csv_rows(out / "integrable-fig2_sweep.csv")] == ["100", "200"]
    report = (out / "integrable-fig2_report.txt").read_text()
    assert "error hierarchy (ggwpd below off-center, N >= 100): 2 rows" in report


def test_manifolds_shearing_line_spans_the_interval_the_seed_search_scans(
    tmp_path, capsys, monkeypatch
):
    """The integrable seed search scans the shearing line that
    ``ggwpd manifolds`` writes: both reach _SHEAR_HALFWIDTH_SIGMA momentum
    widths of the seed-search packets to either side of the alpha center,
    for the preset's first N and for a sweep that starts at N = 3000."""
    scan_line = rotor._scan_line

    def spy(p_lo, p_hi, *rest):
        scanned.append((p_lo, p_hi))
        return scan_line(p_lo, p_hi, *rest)

    monkeypatch.setattr(rotor, "_scan_line", spy)
    for n_list in ([50, 100], [3000, 6000]):
        scanned = []
        cfg = config_from_dict({"N_list": n_list}, base=preset("integrable-fig2"))
        prepare_scenario(cfg)
        config = _write_json(tmp_path, "cfg.json", {"N_list": n_list})
        argv = ["manifolds", "--preset", "integrable-fig2", "--config", config]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        capsys.readouterr()
        with open(tmp_path / "integrable-fig2_shearing_alpha.csv", newline="") as fh:
            p = [float(row["p"]) for row in csv.DictReader(fh)]
        assert scanned == [(p[0], p[-1])]
        alpha, _ = packets_for(cfg, cfg.seed_N)
        sig_p = alpha.hbar / (2.0 * alpha.sigma)
        half = 0.5 * (p[-1] - p[0]) / sig_p
        assert abs(half - rotor._SHEAR_HALFWIDTH_SIGMA) < 1e-9


# ---------------------------------------------------------------------------
# the exit-code contract over random configs
# ---------------------------------------------------------------------------

_coordinates = st.floats(-2.0, 2.0, allow_nan=False)
# the standard map's fixed points sit at integer p and q in {0, 1/2}
_lattice_fixed_points = st.tuples(
    st.integers(-1, 1).map(float), st.sampled_from([0.0, 0.5, 1.0, -0.5])
)

# mostly even N, which the sweep runs, and some of either parity
_grid_sizes = st.one_of(st.integers(1, 100).map(lambda k: 2 * k), st.integers(2, 200))


@st.composite
def _sweep_configs(draw):
    regime = draw(st.sampled_from(["integrable", "chaotic"]))
    centers = _lattice_fixed_points if regime == "chaotic" and draw(st.booleans()) else (
        st.tuples(_coordinates, _coordinates)
    )
    return {
        "K": draw(st.floats(0.0, 12.0)),
        "t": draw(st.integers(1, 3)),
        "alpha_center": list(draw(centers)),
        "beta_center": list(draw(centers)),
        "N_list": draw(st.lists(_grid_sizes, min_size=1, max_size=3)),
        "regime": regime,
        "image_range": draw(st.integers(0, 2)),
        "label": draw(st.sampled_from(["custom", "integrable-fig2", "chaotic-fig6"])),
    }


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(payload=_sweep_configs())
def test_sweep_exits_with_a_documented_code_on_random_configs(tmp_path, payload):
    """Any regime, centres (the chaotic ones often on lattice fixed
    points), K in [0, 12], t in 1-3 and one to three N <= 200 of either
    parity: ``ggwpd sweep`` ends with exit 0, 1, 2 or 3 and lets no
    exception escape."""
    cfg = _write_json(tmp_path, "fuzz.json", payload)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc in (0, 1, 2, 3)


# a chaotic config on the fixed point (0, 1/2), to take a small K
MINI_CHAOTIC_WEAK = {
    "t": 2, "alpha_center": [0.0, 0.5], "beta_center": [1.0, -0.5], "N_list": [50],
    "regime": "chaotic", "image_range": 1, "label": "custom",
}

# K anywhere in [0, 12], and log-uniformly close to 0 and to 4, where the
# lattice fixed points at q = 1/2 and q = 0 turn parabolic
_kick_strengths = st.one_of(
    st.floats(0.0, 12.0),
    st.floats(-16.0, 0.0).map(lambda e: 10.0**e),
    st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-16.0, -1.0)).map(
        lambda d: 4.0 + d[0] * 10.0 ** d[1]
    ),
)


@st.composite
def _manifold_configs(draw):
    regime = draw(st.sampled_from(["chaotic", "integrable"]))
    # mostly on lattice fixed points, where the chaotic curves grow, and
    # beta half the time a lattice shift of alpha, a fixed point of its kind
    on_lattice = draw(st.integers(0, 3)) > 0
    centers = (
        _lattice_fixed_points if on_lattice else st.tuples(_coordinates, _coordinates)
    )
    alpha = draw(centers)
    if draw(st.booleans()):
        shift = draw(st.tuples(st.integers(-1, 1), st.integers(-1, 1)))
        beta = (alpha[0] + shift[0], alpha[1] + shift[1])
    else:
        beta = draw(centers)
    return {
        "K": draw(_kick_strengths),
        "t": draw(st.integers(1, 3)),
        "alpha_center": list(alpha),
        "beta_center": list(beta),
        "N_list": [2 * draw(st.integers(1, 100))],
        "regime": regime,
        "image_range": draw(st.integers(0, 2)),
        "label": draw(st.sampled_from(["custom", "chaotic-fig6"])),
    }


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(payload=_manifold_configs())
# K = 1.5e-4 needs 1,844 levels, which growth takes on; 1e-4 needs 2,258,
# which it refuses
@example(payload={**MINI_CHAOTIC_WEAK, "K": 1.5e-4})
@example(payload={**MINI_CHAOTIC_WEAK, "K": 1e-4})
def test_manifolds_exits_with_a_documented_code_on_random_configs(tmp_path, payload):
    """Either regime, centres on lattice fixed points or anywhere, K in
    [0, 12] with many draws near 0 and 4, where a fixed point turns
    parabolic and growth needs thousands of levels, and t in 1-3:
    ``ggwpd manifolds`` ends with exit 0, 2 or 3 and lets no exception
    escape.  The arc budget is cut to 1; the level count, which sets the
    cost near a parabolic point, hardly depends on it."""
    cfg = _write_json(tmp_path, "fuzz.json", payload)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rotor, "_ARC_BUDGET", 1.0)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            rc = main(["manifolds", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc in (0, 2, 3)
