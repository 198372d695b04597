"""The presets' outputs match the bytes checked in under ``tests/golden/``.

``ggwpd sweep`` and ``ggwpd saddle`` wrote those files for both presets.
They are regenerated only by a change that deliberately moves these
numbers, and that change says so.  From the repository root::

    for p in integrable-fig2 chaotic-fig6; do
        PYTHONPATH=src python -m ggwpd.cli sweep --preset $p --out tests/golden
        PYTHONPATH=src python -m ggwpd.cli saddle --preset $p > tests/golden/${p}_saddle.txt
    done

``sweep`` writes ``<preset>_sweep.csv`` and ``<preset>_report.txt`` there
and echoes the report to stdout.

The curves ``ggwpd manifolds`` writes are 17-430 KB each, so only their
SHA-256 digests are pinned, in ``MANIFOLD_SHA256`` below.  To regenerate
them, from the repository root::

    for p in integrable-fig2 chaotic-fig6; do
        PYTHONPATH=src python -m ggwpd.cli manifolds --preset $p --out /tmp/curves
    done
    sha256sum /tmp/curves/*.csv

The position-saddle wavefunction has no CLI command, so the ``repr`` of
its 700 grid values at each of three packet centres, joined by newlines,
is pinned as one SHA-256 digest, ``WAVEFUNCTION_SHA256``;
:func:`_wavefunction_values` lists the values.
"""
import hashlib
import math
import pathlib

import pytest

from ggwpd import GaussianPacket, RotorParams, grid_hbar
from ggwpd.cli import main
from ggwpd.experiment import emit_csv, emit_report
from ggwpd.semiclassics import ggwpd_wavefunction

GOLDEN = pathlib.Path(__file__).parent / "golden"

MANIFOLD_SHA256 = {
    "chaotic-fig6": {
        "chaotic-fig6_unstable_alpha.csv":
            "66dca0c3b106607ab72676e48f6e9cc8293309be36c8143e11262106698309a8",
        "chaotic-fig6_stable_beta.csv":
            "fbddc0833838d2bcd0801087ac15e9a112825300a9a8ab25b9d7e3f55a1d04b2",
    },
    "integrable-fig2": {
        "integrable-fig2_shearing_alpha.csv":
            "b9f5047602a5f7417d4711acbbda207d5228d7c43c6bc1ce7f6b9e85ce20d6d5",
        "integrable-fig2_shearing_alpha_t2.csv":
            "8091e6bea6fca1e5535431afe5cedfb3bb139f1213f585cbf51c554f3e979d85",
    },
}

WAVEFUNCTION_SHA256 = "8f0733f4af48c9878cb0a80659aaa34855b2eb36633c686ab77e189b6f4cfe21"


def _wavefunction_values() -> list[str]:
    """``repr`` of ``ggwpd_wavefunction`` at every grid point x = s/N.

    N = 700, t = 2, K = 0.05, ``image_range = 2`` and width b = pi N, for
    the ket centres (0.815, 0.2), (0.765, 0.15) and (0.865, 0.25): the
    benchmark's wavefunction workload at its preset centre and two corners
    of the box it draws centres from.
    """
    N, t = 700, 2
    params = RotorParams(0.05)
    values = []
    for p, q in [(0.815, 0.2), (0.765, 0.15), (0.865, 0.25)]:
        alpha = GaussianPacket(p, q, math.pi * N, grid_hbar(N))
        for s in range(1, N + 1):
            values.append(repr(ggwpd_wavefunction(alpha, s / N, t, params, image_range=2)))
    return values


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


@pytest.mark.parametrize("label", sorted(MANIFOLD_SHA256))
def test_manifold_csvs_match_the_pinned_digests(label, tmp_path, capsys):
    """The preset curves, grown to the full arc budget and truncated to it,
    are the pinned bytes; nothing else is written."""
    assert main(["manifolds", "--preset", label, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
    }
    assert digests == MANIFOLD_SHA256[label]


def test_wavefunction_values_match_the_pinned_digest():
    values = _wavefunction_values()
    assert len(values) == 2100
    digest = hashlib.sha256("\n".join(values).encode()).hexdigest()
    assert digest == WAVEFUNCTION_SHA256
