"""Reference implementations the tests compare the package against.

None of this runs in the package: these are the hand-written formulas
(packet amplitude, overlap, constraint point, one scalar map step) and
the free-particle closed forms, H = p^2/2 with the kicked rotor's unit
mass.  Free motion is quadratic, so the generic saddle evaluators of
:mod:`ggwpd.semiclassics` must reproduce the evolved packet to machine
precision; :func:`free_trajectory` packages a free-motion orbit for them,
and :func:`free_motion_errors` measures all three evaluators.  Rotor
saddles are judged by :func:`mp_saddle`, the same Newton search in
mpmath at 40 digits, and their terms by :func:`mp_contribution`; the
exact oracle's kick phase by :func:`long_double_kick_correlation`.
"""
import mpmath
import numpy as np

from ggwpd.floquet import discretize_packet
from ggwpd.packets import ComplexPhasePoint, GaussianPacket
from ggwpd.rotor import TWO_PI, ComplexTrajectory, RotorParams
from ggwpd.semiclassics import (
    offcenter_contribution,
    saddle_contribution,
    wavefunction_contribution,
)


# ---------------------------------------------------------------------------
# packets
# ---------------------------------------------------------------------------

def norm_constant(packet: GaussianPacket) -> float:
    """The real prefactor (2 b/pi)^(1/4)."""
    return (2.0 * packet.b1 / np.pi) ** 0.25


def packet_evaluate(packet: GaussianPacket, x: float) -> complex:
    """Amplitude <x|alpha> of the packet at a real position x."""
    dq = x - packet.q1
    phase = packet.p1 * dq / packet.hbar
    return norm_constant(packet) * np.exp(-packet.b1 * dq**2 + 1j * phase)


def manifold_point(packet: GaussianPacket, Q) -> ComplexPhasePoint:
    """The point (P, Q) on the packet's constraint set,

        P = p_c + 2 i hbar b (Q - q_c),

    which zeroes the initial residual of :func:`ggwpd.packets.residuals`.
    """
    P = packet.p1 + 2j * packet.hbar * (packet.b1 * (Q - packet.q1))
    return ComplexPhasePoint(P, Q)


def gaussian_overlap(alpha: GaussianPacket, beta: GaussianPacket) -> complex:
    """Closed-form overlap <beta|alpha> of two real-center packets that
    share hbar."""
    assert alpha.hbar == beta.hbar
    hbar = alpha.hbar
    A = alpha.b1 + beta.b1
    B = (
        2.0 * (alpha.b1 * alpha.q1)
        + 2.0 * (beta.b1 * beta.q1)
        + 1j / hbar * (alpha.p1 - beta.p1)
    )
    C = (
        -alpha.q1 * alpha.b1 * alpha.q1
        - beta.q1 * beta.b1 * beta.q1
        - 1j / hbar * (alpha.p1 * alpha.q1 - beta.p1 * beta.q1)
    )
    gauss = (np.pi / A) ** 0.5 * np.exp(B * B / A / 4.0 + C)
    return complex(norm_constant(alpha) * norm_constant(beta) * gauss)


# ---------------------------------------------------------------------------
# the kicked-rotor map, one complex point at a time
# ---------------------------------------------------------------------------

def map_step(point: ComplexPhasePoint, params: RotorParams) -> ComplexPhasePoint:
    """One forward kick-then-drift step on the covering space."""
    p1 = point.p1 - (params.K / TWO_PI) * np.sin(TWO_PI * point.q1)
    return ComplexPhasePoint(p1, point.q1 + p1)


def inverse_map_step(point: ComplexPhasePoint, params: RotorParams) -> ComplexPhasePoint:
    """The exact inverse of :func:`map_step`: drift back, then unkick."""
    q = point.q1 - point.p1
    return ComplexPhasePoint(point.p1 + (params.K / TWO_PI) * np.sin(TWO_PI * q), q)


def stable_invariance_defect(points: np.ndarray, K: float) -> float:
    """Largest distance of a stable curve's one-step image from its polyline.

    The map takes the stable manifold into itself, nearer its fixed point,
    so the distance of each image point from the polyline of ``points``
    ((p, q) rows) measures how well the polyline is invariant.  Each image
    point is measured against the two segments at its nearest vertex,
    which bounds its distance from the polyline from above.
    """
    p1 = points[:, 0] - (K / TWO_PI) * np.sin(TWO_PI * points[:, 1])
    image = np.column_stack([p1, points[:, 1] + p1])
    p, q = points[:, 0], points[:, 1]
    nearest = np.concatenate([
        np.argmin((y[:, 0, None] - p) ** 2 + (y[:, 1, None] - q) ** 2, axis=1)
        for y in np.array_split(image, max(1, len(image) // 128))
    ])
    a, d = points[:-1], np.diff(points, axis=0)
    seg2 = np.maximum(np.einsum("ij,ij->i", d, d), np.finfo(float).tiny)
    best = np.hypot(*(image - points[nearest]).T)
    for k in (np.maximum(nearest - 1, 0), np.minimum(nearest, len(a) - 1)):
        rel = image - a[k]
        w = np.clip(np.einsum("ij,ij->i", rel, d[k]) / seg2[k], 0.0, 1.0)
        best = np.minimum(best, np.hypot(*(rel - w[:, None] * d[k]).T))
    return float(best.max())


# pi to the 64-bit significand of x86 extended precision
_LONG_PI = np.longdouble("3.14159265358979323846264338327950288")


def long_double_kick_correlation(
    alpha: GaussianPacket, beta: GaussianPacket, t: int, N: int, K: float
) -> complex:
    """<beta| F^t |alpha> with each kick phase reduced in long double.

    The dense one-period unitary of :func:`ggwpd.floquet.floquet_matrix`,
    but the kick phase N K cos(2 pi s / N) / (2 pi) is formed in long
    double and reduced modulo 2 pi there before it becomes a double: its
    rounding is eps_ld N K / (2 pi), 2000 times below the double one's
    (with eps_ld = 1.1e-19 on x86).  Packets are sampled by
    :func:`ggwpd.floquet.discretize_packet`.  Needs t >= 0.
    """
    assert t >= 0
    s = np.arange(1, N + 1)
    phase = (
        np.longdouble(N) * np.longdouble(K)
        * np.cos(2 * _LONG_PI * s.astype(np.longdouble) / N) / (2 * _LONG_PI)
    )
    phase -= 2 * _LONG_PI * np.round(phase / (2 * _LONG_PI))
    kick = np.exp(1j * phase.astype(float))
    drift = np.exp(1j * np.pi * (s[:, None] - s[None, :]) ** 2 / N)
    F = drift * kick[None, :] / (np.sqrt(N) * np.exp(1j * np.pi / 4.0))
    v = discretize_packet(alpha, N)
    for _ in range(t):
        v = F @ v
    return complex(np.vdot(discretize_packet(beta, N), v))


def mp_saddle(
    alpha: GaussianPacket,
    target: GaussianPacket,
    P0: complex,
    Q0: complex,
    t: int,
    K: float,
    dps: int = 40,
) -> tuple:
    """The correlation saddle nearest (P0, Q0), to ``dps`` digits in mpmath.

    Newton's method on the two residuals of :func:`ggwpd.packets.residuals`,
    the ket ``alpha`` at the start and the bra image ``target`` after t
    steps, with the Jacobian built from the monodromy matrix as
    ``find_saddle`` builds it.  The map takes 2 pi exactly; every packet
    value and K enter as the doubles they are.  Returns (P0, Q0) as
    ``mpmath.mpc``, once a full step is below 10**(5 - dps); raises
    ``ArithmeticError`` when 50 steps do not get there.
    """
    with mpmath.workdps(dps):
        K = mpmath.mpf(K)
        two_pi = 2 * mpmath.pi
        ba, bb = mpmath.mpf(alpha.b1), mpmath.mpf(target.b1)
        i_hbar = 1j / mpmath.mpf(alpha.hbar)
        pa, qa = mpmath.mpf(alpha.p1), mpmath.mpf(alpha.q1)
        pb, qb = mpmath.mpf(target.p1), mpmath.mpf(target.q1)
        P0, Q0 = mpmath.mpc(P0), mpmath.mpc(Q0)
        for _ in range(50):
            P, Q = P0, Q0
            m11, m12, m21, m22 = 1, 0, 0, 1
            for _ in range(t):
                c = K * mpmath.cos(two_pi * Q)
                P = P - K / two_pi * mpmath.sin(two_pi * Q)
                Q = Q + P
                m11, m12 = m11 - c * m21, m12 - c * m22
                m21, m22 = m21 + m11, m22 + m12
            jac = mpmath.matrix([
                [i_hbar, 2 * ba],
                [2 * bb * m21 - i_hbar * m11, 2 * bb * m22 - i_hbar * m12],
            ])
            res = mpmath.matrix([
                2 * ba * (Q0 - qa) + i_hbar * (P0 - pa),
                2 * bb * (Q - qb) - i_hbar * (P - pb),
            ])
            dP, dQ = mpmath.lu_solve(jac, -res)
            P0, Q0 = P0 + dP, Q0 + dQ
            if max(abs(dP), abs(dQ)) < mpmath.mpf(10) ** (5 - dps):
                return P0, Q0
    raise ArithmeticError(f"no {dps}-digit saddle near ({P0}, {Q0}) after 50 steps")


def mp_contribution(
    alpha: GaussianPacket,
    target: GaussianPacket,
    P0,
    Q0,
    t: int,
    K: float,
    turns: float = 0.0,
    dps: int = 40,
):
    """The steepest-descent term of the saddle at (P0, Q0), to ``dps`` digits.

    The term of :func:`ggwpd.semiclassics.saddle_contribution` in mpmath:
    the orbit's action S, the ket norm exponent at its start and the bra
    norm exponent at its end (:mod:`ggwpd.packets`), the image phase
    -2 pi i ``turns``, and the square root of the prefactor's determinant,
    continued leg by leg from the principal root at the start as
    ``_tracked_sqrt`` continues it.  The map takes 2 pi exactly; every
    packet value and K enter as the doubles they are.  Returns the term as
    ``mpmath.mpc``; raises ``ArithmeticError`` at a caustic, where a leg's
    determinant passes through zero.
    """
    with mpmath.workdps(dps):
        K = mpmath.mpf(K)
        two_pi = 2 * mpmath.pi
        hbar = mpmath.mpf(alpha.hbar)
        ba, bb = mpmath.mpf(alpha.b1), mpmath.mpf(target.b1)

        def det(m11, m12, m21, m22):
            return m11 * ba + bb * m22 + 2j * hbar * bb * m21 * ba - 0.5j / hbar * m12

        def norm_exponent(b, P, Q, cross):
            # the ket's exponent for cross = -1, the bra's for cross = +1
            PR, PI, QI = P.real, P.imag, Q.imag
            return (
                1j * PR * PI / (2 * hbar**2 * b)
                - PI**2 / (4 * hbar**2 * b)
                - QI**2 * b
                + cross * PR * QI / hbar
            )

        P0, Q0 = mpmath.mpc(P0), mpmath.mpc(Q0)
        P, Q, S = P0, Q0, mpmath.mpc(0)
        m11, m12, m21, m22 = 1, 0, 0, 1
        dets = [det(m11, m12, m21, m22)]
        for _ in range(t):
            c = K * mpmath.cos(two_pi * Q)
            P = P - K / two_pi * mpmath.sin(two_pi * Q)
            S += P**2 / 2 + c / two_pi**2
            Q = Q + P
            m11, m12 = m11 - c * m21, m12 - c * m22
            dets.append(det(m11, m12, m21, m22))
            m21, m22 = m21 + m11, m22 + m12
            dets.append(det(m11, m12, m21, m22))
        angle = mpmath.arg(dets[0])
        for z0, z1 in zip(dets, dets[1:]):
            leg = z1 * mpmath.conj(z0)
            if leg.imag == 0 and leg.real <= 0:
                raise ArithmeticError("determinant passes through zero: caustic")
            angle += mpmath.arg(z1 / z0)
        root = mpmath.sqrt(abs(dets[-1])) * mpmath.expj(angle / 2)
        exponent = (
            1j * S / hbar
            + norm_exponent(ba, P0, Q0, -1)
            + norm_exponent(bb, P, Q, 1)
            - 2j * mpmath.pi * turns
        )
        return (4 * ba * bb) ** 0.25 * mpmath.exp(exponent) / root


# ---------------------------------------------------------------------------
# free motion
# ---------------------------------------------------------------------------

def kappa(alpha: GaussianPacket, t: float) -> float:
    """Dimensionless spreading parameter hbar*t/(2*sigma^2)."""
    return alpha.hbar * t / (2.0 * alpha.sigma**2)


def evolved_center(alpha: GaussianPacket, t: float) -> tuple[float, float]:
    """Phase-space center (p_t, q_t) of the freely evolved packet."""
    return alpha.p1, alpha.q1 + t * alpha.p1


def exact_wavefunction(alpha: GaussianPacket, x: float, t: float) -> complex:
    """Closed-form <x|exp(-i H t / hbar)|alpha>."""
    hbar = alpha.hbar
    sig2 = alpha.sigma**2
    k = kappa(alpha, t)
    p_t, q_t = evolved_center(alpha, t)
    u = x - q_t
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


def free_trajectory(ic: ComplexPhasePoint, t: float) -> ComplexTrajectory:
    """Free-motion trajectory packaged for the generic evaluators.

    The whole evolution is one drift leg, so its two endpoint stability
    matrices are its legs: the drift block is linear in time, which keeps
    the branch tracking exact.
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


def saddle_wavefunction(alpha: GaussianPacket, x: float, t: float) -> complex:
    """Evolved wavefunction from :func:`ggwpd.semiclassics.wavefunction_contribution`."""
    traj = free_trajectory(saddle_initial_conditions(alpha, x, t), t)
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


def saddle_correlation(alpha: GaussianPacket, beta: GaussianPacket, t: float) -> complex:
    """<beta|exp(-i H t/hbar)|alpha> from
    :func:`ggwpd.semiclassics.saddle_contribution` on the one saddle."""
    traj = free_trajectory(correlation_saddle(alpha, beta, t), t)
    return saddle_contribution(alpha, beta, traj).value


def free_motion_errors(alpha: GaussianPacket, x: float, t: float) -> tuple:
    """Errors of the three evaluators on free motion, all zero to rounding.

    First the saddle wavefunction at x against :func:`exact_wavefunction`.
    Then, with the bra packet centred at x, the off-center term against
    :func:`saddle_correlation` on two real orbits: the ket centre's, which
    is the linearized method, and the one ending at the bra centre.
    """
    wave = abs(saddle_wavefunction(alpha, x, t) - exact_wavefunction(alpha, x, t))
    beta = GaussianPacket(alpha.p1, x, alpha.b1, alpha.hbar)
    exact = saddle_correlation(alpha, beta, t)
    orbits = (
        free_trajectory(ComplexPhasePoint(alpha.p1, q0), t)
        for q0 in (alpha.q1, x - t * alpha.p1)
    )
    linearized, offcenter = (
        abs(offcenter_contribution(alpha, beta, orbit).value - exact) for orbit in orbits
    )
    return wave, linearized, offcenter
