"""Free-particle Gaussian evolution in closed form.

The Hamiltonian is H = p^2/2, with the kicked rotor's unit mass.

For quadratic Hamiltonians all three semiclassical evaluators are exact,
which makes free motion the sharpest available oracle: every method must
reproduce the analytically evolved packet to machine precision.  The
helpers here build the closed-form wavefunction, the real off-center and
complex saddle initial conditions, and free-motion
:class:`~ggwpd.rotor.ComplexTrajectory` objects that plug directly into
the generic evaluators in :mod:`ggwpd.semiclassics`.
"""
from __future__ import annotations

import numpy as np

from .packets import ComplexPhasePoint, GaussianPacket, manifold_point
from .rotor import ComplexTrajectory
from .semiclassics import saddle_contribution, wavefunction_contribution


def kappa(alpha: GaussianPacket, t: float) -> float:
    """Dimensionless spreading parameter hbar*t/(2*sigma^2)."""
    return alpha.hbar * t / (2.0 * alpha.sigma**2)


def evolved_center(alpha: GaussianPacket, t: float) -> tuple[float, float]:
    """Phase-space center (p_t, q_t) of the freely evolved packet."""
    return alpha.p1, alpha.q1 + t * alpha.p1


def exact_wavefunction(alpha: GaussianPacket, x: float, t: float) -> complex:
    """Closed-form <x|exp(-i H t / hbar)|alpha> for H = p^2/2."""
    hbar = alpha.hbar
    sig2 = alpha.sigma**2
    k = kappa(alpha, t)
    p_t, q_t = evolved_center(alpha, t)
    u = x - q_t
    # a numpy scalar: the closed form's values are pinned to numpy's complex
    # division, which rounds differently from Python's
    spread = np.complex128(4.0 * sig2 * (1.0 + 1j * k))
    return complex(
        (1.0 / (2.0 * np.pi * sig2)) ** 0.25
        / np.sqrt(1.0 + 1j * k)
        * np.exp(
            -(u**2) / spread
            + 1j * p_t * u / hbar
            + 1j * p_t**2 * t / (2.0 * hbar)
        )
    )


def saddle_initial_conditions(
    alpha: GaussianPacket, x: float, t: float
) -> ComplexPhasePoint:
    """Complex initial point of the single saddle trajectory reaching x.

    At t = 0 the formulas degenerate; the analytic limit is the point of
    the ket constraint set at position x.
    """
    if t == 0.0:
        return manifold_point(alpha, x)
    k = kappa(alpha, t)
    _, q_t = evolved_center(alpha, t)
    u = x - q_t
    P0 = alpha.p1 + (1j * k / t) * u / (1.0 + 1j * k)
    Q0 = alpha.q1 + u / (1.0 + 1j * k)
    return ComplexPhasePoint(P0, Q0)


def offcenter_initial_conditions(
    alpha: GaussianPacket, x: float, t: float
) -> tuple[float, float]:
    """Real initial point (p0, q0) of the trajectory from q_alpha to x."""
    if t == 0.0:
        raise ValueError("no off-center trajectory at zero elapsed time")
    _, q_t = evolved_center(alpha, t)
    return alpha.p1 + (x - q_t) / t, alpha.q1


def free_trajectory(ic: ComplexPhasePoint, t: float) -> ComplexTrajectory:
    """Free-motion trajectory packaged for the generic evaluators.

    The whole evolution is one drift leg, so its two endpoint stability
    matrices are its legs: the drift block is linear in time,
    which keeps the branch tracking exact.
    """
    P0 = ic.p1
    Q0 = ic.q1
    identity = (1.0 + 0j, 0j, 0j, 1.0 + 0j)
    if t == 0.0:
        return ComplexTrajectory(points=(ic,), action=0j, legs=(identity,))
    Qt = Q0 + t * P0
    action = (Qt - Q0) ** 2 / (2.0 * t)
    return ComplexTrajectory(
        points=(ic, ComplexPhasePoint(P0, Qt)),
        action=complex(action),
        legs=(identity, (1.0 + 0j, 0j, complex(t), 1.0 + 0j)),
    )


def linearized_wavefunction(alpha: GaussianPacket, x: float, t: float) -> complex:
    """Evolved wavefunction from dynamics linearized about the center.

    The evolved width is b_t = (b M11 + M12/(2 i hbar)) / (M22 + 2 i hbar
    b M21); for free motion the linearization is exact.
    """
    hbar = alpha.hbar
    b = alpha.b1
    p_t, q_t = evolved_center(alpha, t)
    m21 = t  # unit mass
    denom = 1.0 + 2j * hbar * m21 * b  # M22 + 2 i hbar M21 b
    b_t = b / denom
    action_c = alpha.p1**2 * t / 2.0
    u = x - q_t
    return complex(
        (2.0 * b / np.pi) ** 0.25
        / np.sqrt(denom)
        * np.exp(1j * (action_c + p_t * u) / hbar - b_t * u**2)
    )


def offcenter_wavefunction(alpha: GaussianPacket, x: float, t: float) -> complex:
    """Evolved wavefunction from the off-center real trajectory to x.

    The trajectory starts at the packet's position center with whatever
    momentum reaches x in time t; its action supplies the phase and the
    momentum offset from the center enters a complex Gaussian weight.
    """
    hbar = alpha.hbar
    b = alpha.b1
    p_t, q_t = evolved_center(alpha, t)
    m21 = t  # unit mass
    u = x - q_t
    spread = 1.0 + 2j * hbar * m21 * b
    # The exponent is i S/hbar - (p_alpha - p0)^2 / (4 hbar^2 a) with action
    # S = (u + m21 p_t)^2 / (2 m21), offset p_alpha - p0 = -u/m21 and
    # a = b - i/(2 hbar m21).  Its two u^2/m21 terms both diverge as t -> 0;
    # summed in closed form they are -b u^2 / spread, which stays exact there
    # and leaves the linearized exponent, as free motion makes both exact.
    exponent = -b * u**2 / spread + 1j * p_t * (u + 0.5 * m21 * p_t) / hbar
    return complex((2.0 * b / np.pi) ** 0.25 / np.sqrt(spread) * np.exp(exponent))


def ggwpd_wavefunction(alpha: GaussianPacket, x: float, t: float) -> complex:
    """Evolved wavefunction via the generic saddle-term evaluator."""
    ic = saddle_initial_conditions(alpha, x, t)
    traj = free_trajectory(ic, t)
    return wavefunction_contribution(alpha, traj).value


def correlation_saddle(
    alpha: GaussianPacket, beta: GaussianPacket, t: float
) -> ComplexPhasePoint:
    """Initial point of the unique saddle joining the two constraint sets.

    Both endpoint conditions are linear in (P0, Q0) for free motion, so a
    single 2x2 solve is exact.
    """
    hbar = alpha.hbar
    ba, bb = alpha.b1, beta.b1
    lhs = np.array(
        [
            [1.0, -2j * hbar * ba],
            [1.0 + 2j * hbar * bb * t, 2j * hbar * bb],
        ]
    )
    rhs = np.array(
        [
            alpha.p1 - 2j * hbar * ba * alpha.q1,
            beta.p1 + 2j * hbar * bb * beta.q1,
        ]
    )
    P0, Q0 = np.linalg.solve(lhs, rhs)
    return ComplexPhasePoint(P0, Q0)


def ggwpd_correlation(alpha: GaussianPacket, beta: GaussianPacket, t: float) -> complex:
    """<beta|exp(-i H t/hbar)|alpha> from the single free-motion saddle."""
    ic = correlation_saddle(alpha, beta, t)
    traj = free_trajectory(ic, t)
    return saddle_contribution(alpha, beta, traj).value
