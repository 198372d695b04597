"""Gaussian packet primitives checked against quadrature and closed forms."""
import math
import struct

import numpy as np
import pytest

from ggwpd.packets import (
    ComplexPhasePoint,
    GaussianPacket,
    ResidualPair,
    _modulus,
    _packet,
    bra_norm_exponent,
    ket_norm_exponent,
    residuals,
)
from oracles import gaussian_overlap, manifold_point, norm_constant, packet_evaluate


def _dense_grid(packet: GaussianPacket, halfwidth_sigma: float = 12.0):
    s = packet.sigma
    return np.linspace(packet.q1 - halfwidth_sigma * s, packet.q1 + halfwidth_sigma * s, 20001)


def test_packet_is_unit_normalized():
    """The squared wavefunction integrates to one.

    Quadrature over +-12 sigma with 20001 trapezoid nodes resolves the
    norm far below the 1e-12 tolerance used here.
    """
    for b, hbar in [(np.pi * 50, 1.0 / (2 * np.pi * 50)), (0.25, 1.0), (7.3, 0.2)]:
        packet = GaussianPacket(0.3, -0.7, b, hbar)
        xs = _dense_grid(packet)
        psi = np.array([packet_evaluate(packet, x) for x in xs])
        norm = np.trapezoid(np.abs(psi) ** 2, xs)
        assert abs(norm - 1.0) < 1e-12


def test_packet_evaluate_matches_literal_gaussian():
    packet = GaussianPacket(0.4, 0.1, 3.0, 0.05)
    for x in (-0.3, 0.1, 0.62):
        expected = (2.0 * 3.0 / np.pi) ** 0.25 * np.exp(
            -3.0 * (x - 0.1) ** 2 + 1j * 0.4 * (x - 0.1) / 0.05
        )
        assert abs(packet_evaluate(packet, x) - expected) < 1e-14


def test_sigma_and_norm_constant():
    packet = GaussianPacket(0.0, 0.0, 4.0, 0.125)
    assert abs(packet.sigma - 0.25) < 1e-15
    assert abs(norm_constant(packet) - (8.0 / np.pi) ** 0.25) < 1e-15
    # hbar = 2 sigma^2 makes position and momentum widths equal
    assert abs(packet.hbar - 2.0 * packet.sigma**2) < 1e-15


def test_manifold_point_satisfies_ket_constraint():
    """Points built by manifold_point zero the initial residual exactly."""
    packet = GaussianPacket(0.25, 0.5, np.pi * 64, 1.0 / (2 * np.pi * 64))
    for Q in (0.5, 0.61, 0.5 + 0.03j):
        z = manifold_point(packet, Q)
        expected_P = packet.p1 + 2j * packet.hbar * packet.b1 * (Q - packet.q1)
        assert abs(z.p1 - expected_P) < 1e-15
        pair = residuals(packet, packet, z, z)
        assert np.linalg.norm(pair.initial) < 1e-12


def test_norm_exponent_reproduces_wavefunction():
    """Complex-center normalization exponents rebuild the position amplitude.

    Evaluating the bare Gaussian envelope at the manifold point of a real
    position x and attaching exp(ket exponent) must reproduce
    packet_evaluate(packet, x) -- this fixes both the sign conventions
    and the quadratic imaginary-part terms.
    """
    packet = GaussianPacket(-0.35, 0.8, 2.4, 0.31)
    for x in (0.8, 0.55, 1.2):
        z = manifold_point(packet, x)
        value = norm_constant(packet) * np.exp(ket_norm_exponent(packet, z))
        assert abs(value - packet_evaluate(packet, x)) < 1e-13


def test_bra_exponent_is_conjugate_of_ket_at_conjugate_point():
    packet = GaussianPacket(0.1, 0.2, 1.7, 0.4)
    z = ComplexPhasePoint(0.3 - 0.12j, 0.25 + 0.07j)
    zbar = ComplexPhasePoint(np.conj(z.p1), np.conj(z.q1))
    assert abs(bra_norm_exponent(packet, z) - np.conj(ket_norm_exponent(packet, zbar))) < 1e-14


def test_norm_exponents_vanish_on_real_points():
    packet = GaussianPacket(0.1, 0.2, 1.7, 0.4)
    z = ComplexPhasePoint(0.9, -0.4)
    assert abs(ket_norm_exponent(packet, z)) == 0.0
    assert abs(bra_norm_exponent(packet, z)) == 0.0


def test_gaussian_overlap_against_quadrature():
    """Closed-form overlap agrees with direct integration.

    This is the t = 0 oracle for every correlation method downstream.
    """
    hbar = 0.5
    alpha = GaussianPacket(0.3, -0.2, 0.9, hbar)
    beta = GaussianPacket(-0.1, 0.4, 0.9, hbar)
    xs = np.linspace(-14.0, 14.0, 40001)
    pa = np.array([packet_evaluate(alpha, x) for x in xs])
    pb = np.array([packet_evaluate(beta, x) for x in xs])
    numeric = np.trapezoid(np.conj(pb) * pa, xs)
    assert abs(gaussian_overlap(alpha, beta) - numeric) < 1e-12


def test_overlap_of_packet_with_itself_is_one():
    packet = GaussianPacket(0.815, 0.2, np.pi * 100, 1.0 / (2 * np.pi * 100))
    assert abs(gaussian_overlap(packet, packet) - 1.0) < 1e-14


def test_residual_pair_max_norm():
    pair = ResidualPair(3.0 + 4.0j, 1.0)
    assert abs(pair.max_norm - 5.0) < 1e-15


@pytest.mark.parametrize(
    "initial, final",
    [
        (0j, complex(math.nan, 0.0)),
        (complex(0.0, math.nan), 2j),
        (1j, complex(math.nan, 1.0)),
    ],
)
def test_residual_pair_max_norm_is_nan_when_either_part_is(initial, final):
    """``max`` keeps its first argument against a NaN second one, so a NaN
    final residual used to vanish from the norm."""
    assert math.isnan(ResidualPair(initial, final).max_norm)


def test_residuals_detect_off_manifold_points():
    packet = GaussianPacket(0.0, 0.0, 1.0, 0.1)
    off = ComplexPhasePoint(0.2, 0.0)
    pair = residuals(packet, packet, off, off)
    assert pair.max_norm > 1.0


def test_packet_validation_rejects_bad_input():
    with pytest.raises(ValueError):
        GaussianPacket(0.0, 0.0, -1.0, 0.1)
    with pytest.raises(ValueError):
        GaussianPacket(0.0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        GaussianPacket([0.0, 0.1], 0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        GaussianPacket([0.0, 0.1], [0.0, 0.2], [[1.0, 0.5], [0.4, 1.0]], 0.1)


@pytest.mark.parametrize(
    "p, q, b, hbar",
    [
        (0.0, 0.0, 1.0, np.nan),
        (np.nan, 0.0, 1.0, 0.1),
        (0.0, np.inf, 1.0, 0.1),
        (0.0, 0.0, 1.0, np.inf),
        (0.0, 0.0, np.nan, 0.1),
        (0.0, 0.0, np.inf, 0.1),
    ],
)
def test_packet_rejects_non_finite_values(p, q, b, hbar):
    with pytest.raises(ValueError):
        GaussianPacket(p, q, b, hbar)


def test_complex_point_shape_check_and_is_real():
    with pytest.raises(ValueError):
        ComplexPhasePoint([0.1, 0.2], 0.3)
    z = ComplexPhasePoint(0.1 + 1e-14j, 0.2)
    assert not z.is_real()
    assert ComplexPhasePoint(0.1, 0.2).is_real()


def test_unchecked_packet_equals_the_checked_one():
    packet = GaussianPacket(0.1, 0.2, 5.0, 0.3)
    image = _packet(1.1, -0.8, packet.b1, packet.hbar)
    assert type(image) is GaussianPacket
    assert image == GaussianPacket(1.1, -0.8, packet.b1, packet.hbar)


def test_modulus_is_abs_whatever_errno_holds():
    """``_modulus`` has the bits of ``abs`` (NaN and inf parts by C99's
    rule) for every pair of special parts, also after numpy's complex exp
    underflowed and left ERANGE in errno, where CPython 3.11's ``abs`` of
    a NaN complex raises."""
    parts = [0.0, -0.0, 1.0, -2.5, 5e-324, 1e308, math.inf, -math.inf, math.nan, -math.nan]
    for z in (complex(re, im) for re in parts for im in parts):
        math.sqrt(1.0)  # a successful math call leaves errno at 0
        want = struct.pack("<d", abs(z))
        np.exp(np.complex128(-800.0 + 1.0j))
        assert struct.pack("<d", _modulus(z)) == want, z
