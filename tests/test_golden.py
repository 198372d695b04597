"""The presets' outputs match the bytes checked in under ``tests/golden/``.

``ggwpd sweep`` and ``ggwpd saddle`` wrote those files for both presets.
They are regenerated only by a change that deliberately moves these
numbers, and that change says so.
"""
import pathlib

import pytest

from ggwpd.cli import main
from ggwpd.experiment import emit_csv, emit_report

GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize("fixture", ["integrable_bundle", "chaotic_bundle"])
def test_sweep_csv_and_report_match_the_golden_bytes(fixture, request, tmp_path):
    bundle = request.getfixturevalue(fixture)
    label = bundle.config.label
    path = tmp_path / "sweep.csv"
    emit_csv(bundle.rows, path)
    assert path.read_bytes() == (GOLDEN / f"{label}_sweep.csv").read_bytes()
    report, _ = emit_report(bundle.rows, bundle.setup)
    assert report.encode() == (GOLDEN / f"{label}_report.txt").read_bytes()


@pytest.mark.parametrize("label", ["integrable-fig2", "chaotic-fig6"])
def test_saddle_output_matches_the_golden_bytes(label, capsys):
    assert main(["saddle", "--preset", label]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / f"{label}_saddle.txt").read_bytes()
