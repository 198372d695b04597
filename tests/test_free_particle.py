"""Free motion: the quadratic benchmark for every evaluator.

Free motion is exactly quadratic, so the saddle-point, off-center and
linearized evaluators of :mod:`ggwpd.semiclassics` must all reproduce the
analytically evolved packet to machine precision -- any disagreement is
an implementation error, not an approximation artifact.  The closed forms
and the free-motion trajectories are the helpers in ``oracles``.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ggwpd.packets import ComplexPhasePoint, GaussianPacket
from oracles import (
    evolved_center,
    exact_wavefunction,
    free_motion_errors,
    free_trajectory,
    gaussian_overlap,
    kappa,
    packet_evaluate,
    saddle_correlation,
    saddle_initial_conditions,
)


HBAR = 1.0
ALPHA = GaussianPacket(0.7, -0.3, 0.25, HBAR)  # sigma = 1 exactly
BETA = GaussianPacket(0.2, 1.1, 0.25, HBAR)


def test_exact_wavefunction_is_normalized_and_spreads():
    for t in (0.0, 1.0, 4.0):
        p_t, q_t = evolved_center(ALPHA, t)
        width = ALPHA.sigma * np.sqrt(1.0 + kappa(ALPHA, t) ** 2)
        xs = np.linspace(q_t - 12 * width, q_t + 12 * width, 20001)
        psi = np.array([exact_wavefunction(ALPHA, x, t) for x in xs])
        assert abs(np.trapezoid(np.abs(psi) ** 2, xs) - 1.0) < 1e-12
        # density peak drops as the packet spreads
        peak = np.max(np.abs(psi))
        assert abs(peak - (2 * np.pi * width**2) ** -0.25) < 1e-10


def test_exact_wavefunction_reduces_to_packet_at_t0():
    for x in (-0.3, 0.4, 2.0):
        assert abs(exact_wavefunction(ALPHA, x, 0.0) - packet_evaluate(ALPHA, x)) < 1e-15


def _assert_all_three_methods_exact(alpha, x, t, peak):
    wave, linearized, offcenter = free_motion_errors(alpha, x, t)
    assert wave < 1e-12 * peak
    assert linearized < 1e-12 and offcenter < 1e-12


def test_all_three_methods_match_exact_on_grid():
    """Linearized, off-center, and saddle evaluations are exact on
    x in q_t +- 6 sigma for t in {0.5, 1, 2, 5}."""
    for t in (0.5, 1.0, 2.0, 5.0):
        p_t, q_t = evolved_center(ALPHA, t)
        width = ALPHA.sigma * np.sqrt(1.0 + kappa(ALPHA, t) ** 2)
        peak = (2 * np.pi * width**2) ** -0.25
        for x in np.linspace(q_t - 6 * width, q_t + 6 * width, 41):
            _assert_all_three_methods_exact(ALPHA, x, t, peak)


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
    _, q_t = evolved_center(alpha, t)
    width = alpha.sigma * np.sqrt(1.0 + kappa(alpha, t) ** 2)
    peak = (2 * np.pi * width**2) ** -0.25
    x = q_t + u * width
    _assert_all_three_methods_exact(alpha, x, t, peak)


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
    out, where the stability entry m21 = t and the saddle's momentum shift
    (i kappa / t) u / (1 + i kappa) are near 0/0."""
    alpha = GaussianPacket(p, q, b, hbar)
    t = 10.0**log10_t
    _, q_t = evolved_center(alpha, t)
    width = alpha.sigma * np.sqrt(1.0 + kappa(alpha, t) ** 2)
    peak = (2 * np.pi * width**2) ** -0.25
    x = q_t + u * width
    _assert_all_three_methods_exact(alpha, x, t, peak)


def test_saddle_initial_conditions_sit_on_the_ket_manifold():
    t = 2.0
    x = 1.4
    z0 = saddle_initial_conditions(ALPHA, x, t)
    constraint = z0.p1 - ALPHA.p1 - 2j * ALPHA.hbar * ALPHA.b1 * (z0.q1 - ALPHA.q1)
    assert abs(constraint) < 1e-14
    # and the trajectory from it ends at the evaluation point
    traj = free_trajectory(z0, t)
    assert abs(traj.final.q1 - x) < 1e-12


def test_saddle_initial_conditions_limit_to_manifold_point_at_t0():
    z = saddle_initial_conditions(ALPHA, 0.6, 0.0)
    expected_P = ALPHA.p1 + 2j * ALPHA.hbar * ALPHA.b1 * (0.6 - ALPHA.q1)
    assert abs(z.p1 - expected_P) < 1e-14
    assert abs(z.q1 - 0.6) < 1e-14


def test_free_trajectory_bookkeeping():
    traj = free_trajectory(ComplexPhasePoint(0.7, -0.3), 2.0)
    assert abs(traj.m21 - 2.0) < 1e-15
    assert abs(traj.m11 - 1.0) < 1e-15
    assert abs(traj.m11 * traj.m22 - traj.m12 * traj.m21 - 1.0) < 1e-15
    # action of a straight line: (q_t - q_0)^2 / (2 t) at unit mass
    assert abs(traj.action - (0.7**2) * 2.0 / 2.0) < 1e-14


def test_correlation_matches_quadrature():
    """The single-saddle correlation equals direct integration of the
    exactly evolved wavefunction against the target packet."""
    for t in (0.7, 2.0):
        xs = np.linspace(-30.0, 30.0, 20001)
        evolved = np.array([exact_wavefunction(ALPHA, x, t) for x in xs])
        target = np.array([packet_evaluate(BETA, x) for x in xs])
        reference = np.trapezoid(np.conj(target) * evolved, xs)
        value = saddle_correlation(ALPHA, BETA, t)
        assert abs(value - reference) < 1e-9


def test_correlation_at_t0_is_overlap():
    assert abs(saddle_correlation(ALPHA, BETA, 0.0) - gaussian_overlap(ALPHA, BETA)) < 1e-14
