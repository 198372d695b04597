"""Free-particle closed forms: the quadratic benchmark for every evaluator.

Free motion is exactly quadratic, so the linearized, off-center, and
saddle-point methods must all reproduce the analytically evolved packet
to machine precision -- any disagreement is an implementation error, not
an approximation artifact.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggwpd import free_particle as fp
from ggwpd.packets import (
    ComplexPhasePoint,
    GaussianPacket,
    gaussian_overlap,
    packet_evaluate,
)


HBAR = 1.0
ALPHA = GaussianPacket(0.7, -0.3, 0.25, HBAR)  # sigma = 1 exactly
BETA = GaussianPacket(0.2, 1.1, 0.25, HBAR)


def test_exact_wavefunction_is_normalized_and_spreads():
    for t in (0.0, 1.0, 4.0):
        p_t, q_t = fp.evolved_center(ALPHA, t)
        width = ALPHA.sigma * np.sqrt(1.0 + fp.kappa(ALPHA, t) ** 2)
        xs = np.linspace(q_t - 12 * width, q_t + 12 * width, 20001)
        psi = np.array([fp.exact_wavefunction(ALPHA, x, t) for x in xs])
        assert abs(np.trapezoid(np.abs(psi) ** 2, xs) - 1.0) < 1e-12
        # density peak drops as the packet spreads
        peak = np.max(np.abs(psi))
        assert abs(peak - (2 * np.pi * width**2) ** -0.25) < 1e-10


def test_exact_wavefunction_reduces_to_packet_at_t0():
    for x in (-0.3, 0.4, 2.0):
        assert abs(fp.exact_wavefunction(ALPHA, x, 0.0) - packet_evaluate(ALPHA, x)) < 1e-15


def test_all_three_methods_match_exact_on_grid():
    """Linearized, off-center, and saddle evaluations agree with the
    closed form on x in q_t +- 6 sigma for t in {0.5, 1, 2, 5}."""
    for t in (0.5, 1.0, 2.0, 5.0):
        p_t, q_t = fp.evolved_center(ALPHA, t)
        width = ALPHA.sigma * np.sqrt(1.0 + fp.kappa(ALPHA, t) ** 2)
        peak = (2 * np.pi * width**2) ** -0.25
        for x in np.linspace(q_t - 6 * width, q_t + 6 * width, 41):
            exact = fp.exact_wavefunction(ALPHA, x, t)
            for method in (
                fp.linearized_wavefunction,
                fp.offcenter_wavefunction,
                fp.ggwpd_wavefunction,
            ):
                assert abs(method(ALPHA, x, t) - exact) < 1e-12 * peak


@settings(max_examples=80, deadline=None)
@given(
    p=st.floats(-2.0, 2.0),
    q=st.floats(-2.0, 2.0),
    b=st.floats(0.1, 10.0),
    hbar=st.floats(0.1, 2.0),
    t=st.just(0.0) | st.floats(0.1, 10.0),
    u=st.floats(-6.0, 6.0),
)
def test_all_three_methods_match_exact_for_random_packets(p, q, b, hbar, t, u):
    """The grid test above, over random packets, times and positions
    x = q_t + u * width within six evolved widths.  Times in (0, 0.1) are
    the next test's."""
    alpha = GaussianPacket(p, q, b, hbar)
    _, q_t = fp.evolved_center(alpha, t)
    width = alpha.sigma * np.sqrt(1.0 + fp.kappa(alpha, t) ** 2)
    peak = (2 * np.pi * width**2) ** -0.25
    x = q_t + u * width
    exact = fp.exact_wavefunction(alpha, x, t)
    for method in (
        fp.linearized_wavefunction,
        fp.offcenter_wavefunction,
        fp.ggwpd_wavefunction,
    ):
        assert abs(method(alpha, x, t) - exact) < 1e-12 * peak


@settings(max_examples=80, deadline=None)
@given(
    p=st.floats(-2.0, 2.0),
    q=st.floats(-2.0, 2.0),
    b=st.floats(0.1, 10.0),
    hbar=st.floats(0.1, 2.0),
    log10_t=st.floats(-300.0, -1.0),
    u=st.floats(-6.0, 6.0),
)
def test_all_three_methods_match_exact_at_small_times(p, q, b, hbar, log10_t, u):
    """Times log-uniform in [1e-300, 1e-1], the range the test above leaves
    out.  The off-center action phase and its momentum-offset Gaussian each
    grow like 1/t; unless they cancel in closed form, rounding the two
    loses all precision, and below t ~ 1e-200 they overflow."""
    alpha = GaussianPacket(p, q, b, hbar)
    t = 10.0**log10_t
    _, q_t = fp.evolved_center(alpha, t)
    width = alpha.sigma * np.sqrt(1.0 + fp.kappa(alpha, t) ** 2)
    peak = (2 * np.pi * width**2) ** -0.25
    x = q_t + u * width
    exact = fp.exact_wavefunction(alpha, x, t)
    for method in (
        fp.linearized_wavefunction,
        fp.offcenter_wavefunction,
        fp.ggwpd_wavefunction,
    ):
        assert abs(method(alpha, x, t) - exact) < 1e-12 * peak


def test_saddle_initial_conditions_sit_on_the_ket_manifold():
    t = 2.0
    x = 1.4
    z0 = fp.saddle_initial_conditions(ALPHA, x, t)
    constraint = z0.p1 - ALPHA.p1 - 2j * ALPHA.hbar * ALPHA.b1 * (z0.q1 - ALPHA.q1)
    assert abs(constraint) < 1e-14
    # and the trajectory from it ends at the evaluation point
    traj = fp.free_trajectory(z0, t)
    assert abs(traj.final.q1 - x) < 1e-12


def test_saddle_initial_conditions_limit_to_manifold_point_at_t0():
    z = fp.saddle_initial_conditions(ALPHA, 0.6, 0.0)
    expected_P = ALPHA.p1 + 2j * ALPHA.hbar * ALPHA.b1 * (0.6 - ALPHA.q1)
    assert abs(z.p1 - expected_P) < 1e-14
    assert abs(z.q1 - 0.6) < 1e-14


def test_offcenter_initial_conditions_reject_t0():
    with pytest.raises(ValueError):
        fp.offcenter_initial_conditions(ALPHA, 0.6, 0.0)


def test_offcenter_wavefunction_t0_falls_back_to_packet():
    for x in (-0.5, 0.1):
        assert abs(fp.offcenter_wavefunction(ALPHA, x, 0.0) - packet_evaluate(ALPHA, x)) < 1e-15


def test_free_trajectory_bookkeeping():
    traj = fp.free_trajectory(ComplexPhasePoint(0.7, -0.3), 2.0)
    assert abs(traj.m21 - 2.0) < 1e-15
    assert abs(traj.m11 - 1.0) < 1e-15
    assert abs(traj.stability_determinant() - 1.0) < 1e-15
    # action of a straight line: (q_t - q_0)^2 / (2 t) at unit mass
    assert abs(traj.action - (0.7**2) * 2.0 / 2.0) < 1e-14


def test_correlation_matches_quadrature():
    """The single-saddle correlation equals direct integration of the
    exactly evolved wavefunction against the target packet."""
    for t in (0.7, 2.0):
        xs = np.linspace(-30.0, 30.0, 20001)
        evolved = np.array([fp.exact_wavefunction(ALPHA, x, t) for x in xs])
        target = np.array([packet_evaluate(BETA, x) for x in xs])
        reference = np.trapezoid(np.conj(target) * evolved, xs)
        value = fp.ggwpd_correlation(ALPHA, BETA, t)
        assert abs(value - reference) < 1e-9


def test_correlation_at_t0_is_overlap():
    assert abs(fp.ggwpd_correlation(ALPHA, BETA, 0.0) - gaussian_overlap(ALPHA, BETA)) < 1e-14
