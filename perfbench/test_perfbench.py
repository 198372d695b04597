"""The benchmark's own checks.  Run from the checkout root:

    python3 -m pytest -q perfbench/test_perfbench.py

Takes about a minute: every workload is run once untraced and twice
traced on identical inputs.
"""
import csv
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


def test_benchmark_json_names_what_run_reports():
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == sorted(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def _counts(rep):
    return {
        k: v for k, v in run.layer_metrics(rep).items()
        if run.PER_LAYER[k] in run.COUNT_UNITS
    }


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tracing_changes_no_output_and_counts_repeat(name, tmp_path):
    bench = run.Run(name, seed=0, run_dir=str(tmp_path))
    center = next(bench.centers) if bench.kind == "wavefunction" else None
    plain = bench.repeat(False, center)
    traced = [bench.repeat(True, center) for _ in range(2)]
    assert bench.failed == 0 and not bench.problems, bench.problems
    assert plain["hashes"]
    assert all(t["hashes"] == plain["hashes"] for t in traced)
    first, second = (_counts(t) for t in traced)
    assert first == second
    assert any(first.values())


def test_core_clock_counts_elapsed_time_at_the_probe_speed():
    # probe samples every 25 ms, each taking twice the reference time
    clock = run.CoreClock([(k * 0.025, 2 * run.PROBE_REF_S) for k in range(40)])
    assert clock.seconds(0.1, 0.9) == pytest.approx(0.4)
    assert clock.slowdown(0.0, 1.0) == pytest.approx(2.0)
    # an interval holding no sample takes the nearest ones
    assert clock.seconds(0.101, 0.102) == pytest.approx(0.0005)
    assert clock.seconds(2.0, 3.0) == pytest.approx(0.5)


@pytest.mark.parametrize("name", ["integrable-highN", "integrable-wavefunction"])
def test_setup_only_repeat_ends_with_its_setup(name, tmp_path):
    bench = run.Run(name, seed=0, run_dir=str(tmp_path))
    rep = bench.setup_repeat()
    assert not bench.problems, bench.problems
    assert rep["hashes"] == {}
    assert rep["timing"]["t_done"] - rep["timing"]["t_setup"] < 0.05
    assert rep["setup_s"] > 0


def _sweep_rep(tmp_path, name, perturb_row=None):
    """A fake repeat whose outputs are the stored reference, optionally altered."""
    spec = run.make_spec(name, trace=False, repeat=0)
    out = tmp_path / "out"
    out.mkdir(parents=True)
    with open(os.path.join(run.REFERENCE, f"{name}_sweep.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    if perturb_row is not None:
        rows[perturb_row][5] = repr(float(rows[perturb_row][5]) + 1e-6)
    with open(out / f"{spec['preset']}_sweep.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    with open(os.path.join(run.REFERENCE, f"{name}_setup.json")) as fh:
        setup = json.load(fh)
    rep = {"dir": str(tmp_path), "timing": {"exit_code": 0, "setup": setup}}
    return spec, rep


def test_sweep_check_counts_each_wrong_row(tmp_path):
    spec, rep = _sweep_rep(tmp_path / "a", "chaotic-sweep")
    attempted, failed, max_err, problems = run.check_sweep("chaotic-sweep", spec, rep)
    assert (attempted, failed, problems) == (14, 0, [])
    assert max_err == pytest.approx(1.6633e-4, rel=1e-4)
    spec, rep = _sweep_rep(tmp_path / "b", "chaotic-sweep", perturb_row=3)
    assert run.check_sweep("chaotic-sweep", spec, rep)[1] == 1


def test_sweep_check_fails_every_row_on_a_moved_saddle(tmp_path):
    spec, rep = _sweep_rep(tmp_path, "chaotic-sweep")
    rep["timing"]["setup"]["saddles"][0]["P0"][0] += 1e-8
    attempted, failed, _, problems = run.check_sweep("chaotic-sweep", spec, rep)
    assert failed == attempted == 14 and problems


def test_wavefunction_check_against_dense_reference(tmp_path):
    spec = run.make_spec("integrable-wavefunction", False, 0, run.WAVE_CENTER)
    exact = run.exact_wavefunction(spec["center"], spec)
    out = tmp_path / "out"
    out.mkdir()
    noisy = exact.copy()
    noisy[10] += 2e-3 * np.abs(exact).max()
    with open(out / "wavefunction.csv", "w") as fh:
        fh.write("s,re,im,error\n")
        for s, v in enumerate(noisy, start=1):
            fh.write(f"{s},{float(v.real)!r},{float(v.imag)!r},{'ConvergenceError' if s == 20 else ''}\n")
    rep = {"dir": str(tmp_path), "timing": {"exit_code": 0}}
    attempted, failed, max_err, _ = run.check_wavefunction(spec, rep)
    assert (attempted, failed) == (700, 2)
    assert max_err == pytest.approx(2e-3)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chaotic-sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
