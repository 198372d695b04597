"""Semiclassical propagation of Gaussian packets along rotor trajectories.

Three evaluators of increasing sophistication share this module:

* ``linearized_correlation`` — one real trajectory launched from the ket
  packet's center, with the dynamics linearized about it;
* ``offcenter_correlation`` — a sum over representative real trajectories
  (transport seeds), each entering through an exact quadratic form in the
  scaled offsets between trajectory endpoints and packet centers;
* ``ggwpd_correlation`` / ``ggwpd_wavefunction`` — the full complexified
  treatment: Newton-Raphson refinement of each real seed onto the complex
  saddle trajectory joining the two packets' phase-space constraint sets,
  then a steepest-descent evaluation with a continuously tracked
  square-root branch.

All evaluators consume :class:`~ggwpd.rotor.ComplexTrajectory` objects and
are therefore dynamics-agnostic: trajectories built analytically (e.g. for
free motion) can be fed to the same code paths exercised by the rotor.
Every square-root prefactor is continued from t = 0 through the
trajectory's leg-endpoint stability matrices, read from its ``legs`` on
Python complex scalars (:func:`_tracked_sqrt`).
"""
from __future__ import annotations

import cmath
import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import CausticError, ConfigError, ConvergenceError, NumericalError
from .packets import (
    ComplexPhasePoint,
    GaussianPacket,
    ResidualPair,
    bra_norm_exponent,
    ket_norm_exponent,
    residuals,
)
from .rotor import (
    ComplexTrajectory,
    LineScan,
    RotorParams,
    SeedTrajectory,
    _line_roots,
    _merge_duplicates,
    _scan_line,
    iterate_map,
    propagate,
)


def _tracked_sqrt(dets: Sequence[complex]) -> complex:
    """Square root of ``dets[-1]`` continued from the principal root of ``dets[0]``.

    ``dets`` holds a determinant linear in the stability matrix at every
    leg endpoint of a trajectory.  The stability matrix is affine along
    each leg, so the determinant runs on the straight segment between two
    consecutive values, and its change in argument there is exactly the
    principal angle of their ratio -- unless the segment passes through
    zero, i.e. ``z1 * conj(z0)`` is real and not positive.  That is a
    caustic, and raises :class:`CausticError`.
    """
    caustic = "determinant passes through zero: caustic encountered"
    prev = dets[0]
    angle = cmath.phase(prev)
    for z in dets[1:]:
        leg = z * prev.conjugate()
        if leg.imag == 0.0 and leg.real <= 0.0:
            raise CausticError(caustic)
        angle += cmath.phase(z / prev)
        prev = z
    # a zero sample makes its neighbouring legs vanish; only a lone sample
    # (a trajectory without legs) gets here with a zero
    if prev == 0:
        raise CausticError(caustic)
    return math.sqrt(abs(prev)) * cmath.exp(0.5j * angle)


@dataclass(frozen=True)
class SaddleTrajectory:
    """A converged complex saddle trajectory together with its provenance.

    The seed is retained because the real transport trajectory it refines
    is what gives the complex contribution its physical reading.
    """

    trajectory: ComplexTrajectory
    seed: SeedTrajectory
    residual_history: tuple[float, ...]

    @property
    def iterations(self) -> int:
        return len(self.residual_history) - 1

    @property
    def residual_norm(self) -> float:
        return self.residual_history[-1]


@dataclass(frozen=True)
class SaddleContribution:
    """One branch of a saddle-point sum, with its factors kept inspectable.

    ``value = norm_constants * exp(i*action/hbar + ket_exponent +
    bra_exponent) * prefactor`` where ``prefactor`` is the reciprocal
    branch-tracked square root (any half-integer winding phase lives
    there).
    """

    action: complex
    ket_exponent: complex
    bra_exponent: complex
    prefactor: complex
    value: complex


@dataclass(frozen=True)
class OffCenterContribution:
    """One real-trajectory branch of the off-center correlation sum."""

    value: complex


@dataclass(frozen=True)
class CorrelationResult:
    """The kept branches of a semiclassical correlation; ``total`` is their sum."""

    branches: tuple

    @property
    def total(self) -> complex:
        """The branch values summed in order; no branches sum to 0j."""
        return complex(sum(c.value for c in self.branches))


# A branch is dropped from a sum when its weight is below this fraction of
# the strongest branch's: it could only move the total in its last digits.
_PRUNE_THRESHOLD = 1e-12


def _prune_and_sum(contributions, weights) -> CorrelationResult:
    """The branches weighing at least ``_PRUNE_THRESHOLD`` times the largest.

    The kept branches stay in input order, the order in which ``total`` sums
    them.
    """
    cutoff = _PRUNE_THRESHOLD * max(weights, default=0.0)
    kept = tuple(c for c, w in zip(contributions, weights) if w >= cutoff)
    return CorrelationResult(branches=kept)


def _descent_weight(c: SaddleContribution, hbar: float) -> float:
    """exp(Re exponent) of a steepest-descent term, its weight for pruning."""
    return float(np.exp((1j * c.action / hbar + c.ket_exponent + c.bra_exponent).real))


def _saddle_place(sad: SaddleTrajectory):
    """Winding and initial point, the location :func:`_merge_duplicates` compares."""
    ic = sad.trajectory.initial
    return sad.seed.winding, ic.p1, ic.q1


def _shifted_target(beta: GaussianPacket, winding: tuple[int, int]) -> GaussianPacket:
    """The lattice image of the bra packet selected by a winding pair."""
    n_p, n_q = winding
    return beta.with_center(beta.p1 + n_p, beta.q1 + n_q)


# ---------------------------------------------------------------------------
# Newton-Raphson saddle search
# ---------------------------------------------------------------------------

# Newton stops once both endpoint residuals are below this in max norm.  The
# stop is absolute: the residuals carry a factor 1/hbar, so their rounding
# floor grows like N and reaches it at N of order 1000 (ROADMAP direction 1).
_NEWTON_TOL = 1e-12

# Newton updates before a search is abandoned.  The presets' saddles take
# at most eight (the report gates that), so this only stops a stalled search.
_NEWTON_MAX_ITER = 25


# A Jacobian of the two residuals with respect to (P0, Q0), as its two rows.
_Jacobian = tuple[tuple[complex, complex], tuple[complex, complex]]

_SINGULAR = "singular Newton system (coalescing saddles or caustic)"


def _correlation_jacobian(
    alpha: GaussianPacket, beta: GaussianPacket, traj: ComplexTrajectory
) -> _Jacobian:
    hbar = alpha.hbar
    return (
        (1j / hbar, 2.0 * alpha.b1),
        (
            2.0 * beta.b1 * traj.m21 - (1j / hbar) * traj.m11,
            2.0 * beta.b1 * traj.m22 - (1j / hbar) * traj.m12,
        ),
    )


def _solve_newton_step(
    jac: _Jacobian, rhs: tuple[complex, complex]
) -> tuple[complex, complex]:
    """Solution x of ``jac @ x = rhs`` for a 2x2 complex system.

    Gaussian elimination with partial pivoting, the LU factorisation
    ``np.linalg.solve`` runs, written out on Python scalars: the rows are
    swapped when the lower one has the larger first entry in modulus.  A
    zero pivot or eliminated diagonal, where LAPACK reports a singular
    matrix, raises :class:`CausticError`.
    """
    (a, b), (c, d) = jac
    r0, r1 = rhs
    if abs(c) > abs(a):
        a, b, c, d, r0, r1 = c, d, a, b, r1, r0
    if a == 0:
        raise CausticError(_SINGULAR)
    lower = c / a
    d -= lower * b
    if d == 0:
        raise CausticError(_SINGULAR)
    x1 = (r1 - lower * r0) / d
    return (r0 - b * x1) / a, x1


def _newton_solve(
    seed: SeedTrajectory,
    params: RotorParams,
    residual_of,
    jacobian_of,
) -> SaddleTrajectory:
    """Damped Newton iteration shared by the two saddle searches.

    Starts from the seed's initial point with zero imaginary parts.  Each
    step solves the 2x2 system ``jacobian_of(traj)`` with
    :func:`_solve_newton_step`; the whole loop runs on Python complex
    scalars.  A step that fails to reduce the residual norm is halved up
    to six times before the search is abandoned.  Every candidate is
    propagated through this module's ``propagate``.
    """
    ic = ComplexPhasePoint(complex(seed.ic[0]), complex(seed.ic[1]))
    traj = propagate(ic, seed.t, params)
    res = residual_of(traj)
    history = [res.max_norm]  # the seed's residual, then one per Newton step
    while res.max_norm >= _NEWTON_TOL:
        if len(history) > _NEWTON_MAX_ITER:
            raise ConvergenceError(res.max_norm, len(history) - 1)
        d0, d1 = _solve_newton_step(jacobian_of(traj), (-res.initial, -res.final))
        P0, Q0 = traj.initial.p1, traj.initial.q1
        scale = 1.0
        accepted = False
        cand_res = res
        for _ in range(7):
            cand_ic = ComplexPhasePoint(P0 + scale * d0, Q0 + scale * d1)
            cand = propagate(cand_ic, seed.t, params)
            cand_res = residual_of(cand)
            if cand_res.max_norm < res.max_norm:
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            raise ConvergenceError(
                cand_res.max_norm,
                len(history),
                "Newton step failed to reduce the residual after six halvings",
            )
        traj, res = cand, cand_res
        history.append(res.max_norm)
    return SaddleTrajectory(trajectory=traj, seed=seed, residual_history=tuple(history))


def find_saddle(
    alpha: GaussianPacket,
    beta: GaussianPacket,
    seed: SeedTrajectory,
    params: RotorParams,
) -> SaddleTrajectory:
    """Refine a real seed trajectory onto the complex saddle trajectory.

    The seed is complexified with exactly zero imaginary parts and
    iterated with damped Newton steps until both endpoint residuals drop
    below ``_NEWTON_TOL`` in max norm.  The bra-side constraint targets
    the lattice image of ``beta`` selected by ``seed.winding``.

    Raises
    ------
    ConvergenceError
        After ``_NEWTON_MAX_ITER`` updates, or when damping cannot reduce
        the residual (the last residual norm rides along on the exception).
    RunawayError
        If an iterate's trajectory escapes to large imaginary parts.
    CausticError
        On a singular Newton system.
    """
    target = _shifted_target(beta, seed.winding)

    def residual_of(traj: ComplexTrajectory) -> ResidualPair:
        return residuals(alpha, target, traj.initial, traj.final)

    def jacobian_of(traj: ComplexTrajectory) -> _Jacobian:
        return _correlation_jacobian(alpha, target, traj)

    return _newton_solve(seed, params, residual_of, jacobian_of)


# ---------------------------------------------------------------------------
# GGWPD steepest-descent terms
# ---------------------------------------------------------------------------

def _descent_term(
    alpha: GaussianPacket,
    trajectory: ComplexTrajectory,
    dets: list[complex],
    norm: float,
    bra_exponent: complex,
) -> SaddleContribution:
    """Steepest-descent term of one saddle trajectory.

    ``dets`` is the prefactor's determinant at every leg endpoint; its
    square root is continued along them from the positive root at zero
    elapsed time.  ``norm`` collects the packets' normalisation constants.
    """
    root = _tracked_sqrt(dets)
    fm = ket_norm_exponent(alpha, trajectory.initial)
    value = (
        norm
        * np.exp(1j * trajectory.action / alpha.hbar + fm + bra_exponent)
        / root
    )
    return SaddleContribution(
        action=trajectory.action,
        ket_exponent=fm,
        bra_exponent=bra_exponent,
        prefactor=1.0 / root,
        value=complex(value),
    )


def saddle_contribution(
    alpha: GaussianPacket,
    beta: GaussianPacket,
    trajectory: ComplexTrajectory,
) -> SaddleContribution:
    """Steepest-descent correlation term of one saddle trajectory.

    ``beta`` must be the winding-shifted image the trajectory connects to.
    """
    hbar = alpha.hbar
    ba, bb = alpha.b1, beta.b1
    dets = [
        m11 * ba + bb * m22 + 2j * hbar * bb * m21 * ba - (0.5j / hbar) * m12
        for m11, m12, m21, m22 in trajectory.legs
    ]
    fp = bra_norm_exponent(beta, trajectory.final)
    return _descent_term(alpha, trajectory, dets, (4.0 * ba * bb) ** 0.25, fp)


def ggwpd_correlation(
    alpha: GaussianPacket,
    beta: GaussianPacket,
    saddles: list[SaddleTrajectory],
    t: int,
) -> CorrelationResult:
    """Sum of steepest-descent terms over converged saddle trajectories.

    Branches whose exponential magnitude falls below ``_PRUNE_THRESHOLD``
    times the largest branch are dropped.  The winding image each saddle
    targets is taken from its seed, and the action accumulated on the
    unfolded torus carries the corresponding phase without correction.
    """
    contributions: list[SaddleContribution] = []
    for sad in saddles:
        if sad.trajectory.t != t:
            raise ConfigError(
                f"saddle trajectory has {sad.trajectory.t} steps, expected {t}"
            )
        target = _shifted_target(beta, sad.seed.winding)
        contributions.append(saddle_contribution(alpha, target, sad.trajectory))
    weights = [_descent_weight(c, alpha.hbar) for c in contributions]
    return _prune_and_sum(contributions, weights)


def wavefunction_contribution(
    alpha: GaussianPacket,
    trajectory: ComplexTrajectory,
) -> SaddleContribution:
    """Steepest-descent term for a final position eigenstate.

    The term of :func:`saddle_contribution` with the bra packet replaced
    by a position eigenvector at the trajectory's (real) final position;
    the bra-side exponent is identically zero.
    """
    ba = alpha.b1
    hbar = alpha.hbar
    dets = [m22 + 2j * hbar * m21 * ba for _, _, m21, m22 in trajectory.legs]
    return _descent_term(alpha, trajectory, dets, (2.0 * ba / np.pi) ** 0.25, 0j)


def find_position_saddle(
    alpha: GaussianPacket,
    x_target: float,
    seed_momentum: float,
    t: int,
    params: RotorParams,
    winding_q: int = 0,
) -> SaddleTrajectory:
    """Saddle search with the bra constraint replaced by Q_t = x_target.

    ``x_target`` must already include any lattice shift; ``winding_q``
    merely records it.  Seeded from the real point (seed_momentum, q_alpha).
    """
    hbar = alpha.hbar
    ba = alpha.b1

    def residual_of(traj: ComplexTrajectory) -> ResidualPair:
        c0 = 2.0 * ba * (traj.initial.q1 - alpha.q1) + (1j / hbar) * (
            traj.initial.p1 - alpha.p1
        )
        return ResidualPair(c0, traj.final.q1 - x_target)

    def jacobian_of(traj: ComplexTrajectory) -> _Jacobian:
        return (1j / hbar, 2.0 * ba), (traj.m21, traj.m22)

    seed = SeedTrajectory(
        ic=(float(seed_momentum), alpha.q1),
        t=t,
        winding=(0, winding_q),
    )
    return _newton_solve(seed, params, residual_of, jacobian_of)


# Shearing-line scans kept by :func:`_wavefunction_scan`.  A wavefunction is
# evaluated at many positions of one packet, so one entry already serves
# all of them; a few more cover callers alternating between packets.
_SCAN_CACHE_SIZE = 8


@functools.lru_cache(maxsize=_SCAN_CACHE_SIZE)
def _wavefunction_scan(
    p_lo: float, p_hi: float, q0: float, t: int, K: float
) -> LineScan:
    """The scanned momentum line of :func:`ggwpd_wavefunction`, one per packet.

    The line, its end positions and their range do not depend on the
    position x, so the scan is kept and shared by every x.  It runs
    through this module's ``iterate_map``; both arrays are read-only,
    since every caller gets the same two.
    """
    params = RotorParams(K)
    scan = _scan_line(p_lo, p_hi, q0, lambda pts: iterate_map(pts, t, params)[:, 1])
    scan.p_grid.flags.writeable = False
    scan.ends.flags.writeable = False
    return scan


def ggwpd_wavefunction(
    alpha: GaussianPacket,
    x: float,
    t: int,
    params: RotorParams,
    image_range: int = 1,
    halfwidth_sigma: float = 8.0,
) -> complex:
    """Evolved wavefunction at position x via the position-saddle sum.

    Real seeds are taken from the momentum line through the ket center
    (adequate for shearing-dominated transport; strong chaos would need
    manifold-based seeding as in the correlation case).  One saddle is
    refined per crossing per lattice image of x.  The line's scan depends
    on the packet, t and K but not on x, so calls for one packet share it
    (:func:`_wavefunction_scan`).

    Raises
    ------
    NumericalError
        When the scanned line's end positions reach a lattice image
        x + n with |n| > ``image_range``: that image's saddles would be
        missing from the sum.
    """
    if t < 1:
        raise ValueError("position saddles need at least one step")
    sig_p = alpha.hbar / (2.0 * alpha.sigma)
    w = halfwidth_sigma * sig_p
    windings = range(-image_range, image_range + 1)
    targets = [x + n_q for n_q in windings]
    scan = _wavefunction_scan(alpha.p1 - w, alpha.p1 + w, alpha.q1, t, params.K)
    roots = _line_roots(scan, alpha.q1, targets, t, params.K)
    n_lo, n_hi = math.ceil(scan.end_min - x), math.floor(scan.end_max - x)
    if n_lo <= n_hi and max(-n_lo, n_hi) > image_range:
        raise NumericalError(
            f"the scanned line reaches the images x{n_lo:+d} to x{n_hi:+d} of "
            f"x = {x}, beyond image_range = {image_range}"
        )

    saddles = [
        find_position_saddle(alpha, target, p_seed, t, params, winding_q=n_q)
        for n_q, target, seed_momenta in zip(windings, targets, roots)
        for p_seed in seed_momenta
    ]
    terms = [
        wavefunction_contribution(alpha, sad.trajectory)
        for sad in _merge_duplicates(saddles, _saddle_place)
    ]
    weights = [_descent_weight(c, alpha.hbar) for c in terms]
    return _prune_and_sum(terms, weights).total


# ---------------------------------------------------------------------------
# off-center real-trajectory and linearized evaluators
# ---------------------------------------------------------------------------

def offcenter_contribution(
    alpha: GaussianPacket,
    beta: GaussianPacket,
    trajectory: ComplexTrajectory,
) -> OffCenterContribution:
    """Exact quadratic-form correlation term of one real trajectory.

    The dynamics is expanded to second order about the trajectory; for
    quadratic Hamiltonians the result is exact for *any* real trajectory.
    ``beta`` must be the winding-shifted image (equal widths and hbar are
    required — the underlying expression assumes a common sigma).
    """
    same_width = abs(alpha.b1 - beta.b1) <= 1e-12 * abs(beta.b1)
    if not same_width or alpha.hbar != beta.hbar:
        raise ConfigError(
            "off-center evaluation requires equal packet widths and hbar"
        )
    if not (trajectory.initial.is_real() and trajectory.final.is_real()):
        raise ConfigError("off-center evaluation requires a real trajectory")
    b = alpha.b1
    hbar = alpha.hbar
    # sigma^2 = 1/(4b); the two stability scalings below are hbar/(2 sigma^2)
    # and its reciprocal
    r1 = 2.0 * hbar * b
    r2 = 1.0 / (2.0 * hbar * b)
    sx = np.sqrt(1.0 / (2.0 * b))  # sqrt(2 sigma^2)

    sums = [
        m11 + m22 + 1j * (r1 * m21 - r2 * m12)
        for m11, m12, m21, m22 in trajectory.legs
    ]
    root = _tracked_sqrt(sums)
    a0 = sums[-1]

    p0, q0 = trajectory.initial.p1.real, trajectory.initial.q1.real
    pt, qt = trajectory.final.p1.real, trajectory.final.q1.real
    dx_a = (alpha.q1 - q0) / sx
    dp_a = (alpha.p1 - p0) * sx / hbar
    dx_b = (beta.q1 - qt) / sx
    dp_b = (beta.p1 - pt) * sx / hbar

    c_xx_i = trajectory.m22 - 1j * r2 * trajectory.m12
    c_xx_f = trajectory.m11 - 1j * r2 * trajectory.m12
    c_pp_i = trajectory.m11 + 1j * r1 * trajectory.m21
    c_pp_f = trajectory.m22 + 1j * r1 * trajectory.m21

    quad = (
        c_xx_i * dx_a**2
        + c_xx_f * dx_b**2
        + c_pp_i * dp_a**2
        + c_pp_f * dp_b**2
        - 2.0 * (dx_a + 1j * dp_a) * (dx_b - 1j * dp_b)
        + 2j * c_xx_i * dx_a * dp_a
        - 2j * c_xx_f * dx_b * dp_b
    )
    phase = (
        trajectory.action.real
        + pt * (beta.q1 - qt)
        - p0 * (alpha.q1 - q0)
    ) / hbar
    value = np.sqrt(2.0) / root * np.exp(1j * phase - quad / (2.0 * a0))
    return OffCenterContribution(value=complex(value))


def offcenter_correlation(
    alpha: GaussianPacket,
    beta: GaussianPacket,
    seeds: list[SeedTrajectory],
    params: RotorParams,
    t: int,
) -> CorrelationResult:
    """Off-center real-trajectory correlation summed over transport seeds."""
    contributions: list[OffCenterContribution] = []
    for seed in seeds:
        if seed.t != t:
            raise ConfigError(f"seed has t = {seed.t}, expected {t}")
        ic = ComplexPhasePoint(complex(seed.ic[0]), complex(seed.ic[1]))
        traj = propagate(ic, t, params)
        target = _shifted_target(beta, seed.winding)
        contributions.append(offcenter_contribution(alpha, target, traj))
    weights = [abs(c.value) for c in contributions]
    return _prune_and_sum(contributions, weights)


def linearized_correlation(
    alpha: GaussianPacket,
    beta: GaussianPacket,
    params: RotorParams,
    t: int,
) -> complex:
    """Single-trajectory linearized estimate of the correlation.

    Launches the ket center itself (so the initial offsets vanish
    identically) and targets the lattice image of the bra center nearest
    the endpoint.  At t = 0 this reproduces the closed-form packet overlap
    exactly.
    """
    ic = ComplexPhasePoint(complex(alpha.p1), complex(alpha.q1))
    traj = propagate(ic, t, params)
    n_p = int(np.round(traj.final.p1.real - beta.p1))
    n_q = int(np.round(traj.final.q1.real - beta.q1))
    target = _shifted_target(beta, (n_p, n_q))
    return offcenter_contribution(alpha, target, traj).value
