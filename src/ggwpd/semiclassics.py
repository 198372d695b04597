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
import sys
from collections.abc import Sequence

import numpy as np

from .errors import (
    CausticError,
    ConfigError,
    ConvergenceError,
    NumericalError,
    RunawayError,
)
from .floquet import grid_hbar
from .packets import (
    ComplexPhasePoint,
    GaussianPacket,
    ResidualPair,
    _Record,
    _complex_point,
    _modulus,
    _packet,
    _require_int,
    _set,
    bra_norm_exponent,
    ket_norm_exponent,
    residuals,
)
from .rotor import (
    ComplexTrajectory,
    LineScan,
    RotorParams,
    SeedTrajectory,
    _merge_duplicates,
    _scan_crossings,
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
    # the bits of cmath.phase, which in CPython 3.11 raises OverflowError
    # on an angle that underflows, as for the ratio 17 - 1e-323j
    angle = math.atan2(prev.imag, prev.real)
    for z in dets[1:]:
        leg = z * prev.conjugate()
        if leg.imag == 0.0 and leg.real <= 0.0:
            raise CausticError(caustic)
        ratio = z / prev
        angle += math.atan2(ratio.imag, ratio.real)
        prev = z
    # a zero sample makes its neighbouring legs vanish; only a lone sample
    # (a trajectory without legs) gets here with a zero
    if prev == 0:
        raise CausticError(caustic)
    return math.sqrt(_modulus(prev)) * cmath.exp(0.5j * angle)


class SaddleTrajectory(_Record):
    """A converged complex saddle trajectory together with its provenance.

    The seed is retained because the real transport trajectory it refines
    is what gives the complex contribution its physical reading.
    """

    __slots__ = _fields = ("trajectory", "seed", "residual_history")

    def __init__(
        self,
        trajectory: ComplexTrajectory,
        seed: SeedTrajectory,
        residual_history: tuple[float, ...],
    ) -> None:
        _set(self, "trajectory", trajectory)
        _set(self, "seed", seed)
        _set(self, "residual_history", residual_history)

    @property
    def iterations(self) -> int:
        return len(self.residual_history) - 1

    @property
    def residual_norm(self) -> float:
        return self.residual_history[-1]


class SaddleContribution(_Record):
    """One branch of a saddle-point sum, with its factors kept inspectable.

    ``value = norm_constants * exp(i*action/hbar + ket_exponent +
    bra_exponent) * prefactor`` where ``prefactor`` is the reciprocal
    branch-tracked square root (any half-integer winding phase lives
    there).

    ``weight``, exp of the real part of that exponent, is the term's weight
    for pruning.  The evaluators set it from the exponent they formed for
    ``value``; it is no field, so ``==``, ``hash`` and ``repr`` ignore it,
    and a term built by hand or copied has none.
    """

    _fields = ("action", "ket_exponent", "bra_exponent", "prefactor", "value")
    __slots__ = (*_fields, "weight")

    def __init__(
        self,
        action: complex,
        ket_exponent: complex,
        bra_exponent: complex,
        prefactor: complex,
        value: complex,
    ) -> None:
        _set(self, "action", action)
        _set(self, "ket_exponent", ket_exponent)
        _set(self, "bra_exponent", bra_exponent)
        _set(self, "prefactor", prefactor)
        _set(self, "value", value)


class OffCenterContribution(_Record):
    """One real-trajectory branch of the off-center correlation sum."""

    __slots__ = _fields = ("value",)

    def __init__(self, value: complex) -> None:
        _set(self, "value", value)


class CorrelationResult(_Record):
    """The kept branches of a semiclassical correlation; ``total`` is their sum."""

    __slots__ = _fields = ("branches",)

    def __init__(self, branches: tuple) -> None:
        _set(self, "branches", branches)

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
    them.  A NaN weight is refused with :class:`NumericalError`: it would
    fail the cutoff test, and as the maximum it would make every branch
    fail it, so the sum would be a silent ``0j``.  Weights, moduli or real
    exponentials, are never negative, so their sum is NaN exactly when one
    of them is.
    """
    if math.isnan(sum(weights)):
        index = next(i for i, w in enumerate(weights) if math.isnan(w))
        raise NumericalError(f"branch {index} of the sum has a NaN weight")
    cutoff = _PRUNE_THRESHOLD * max(weights, default=0.0)
    kept = tuple(c for c, w in zip(contributions, weights) if w >= cutoff)
    return CorrelationResult(branches=kept)


def _saddle_place(sad: SaddleTrajectory):
    """Winding and initial point, the location :func:`_merge_duplicates` compares."""
    ic = sad.trajectory.initial
    return sad.seed.winding, ic.p1, ic.q1


def _shifted_target(beta: GaussianPacket, winding: tuple[int, int]) -> GaussianPacket:
    """The lattice image of the bra packet selected by a winding pair.

    Equal to ``GaussianPacket(beta.p1 + n_p, beta.q1 + n_q, beta.b1,
    beta.hbar)`` without its checks: the width and hbar are ``beta``'s,
    checked already, and a finite centre shifted by a winding of a few
    cells stays finite.
    """
    n_p, n_q = winding
    return _packet(float(beta.p1 + n_p), float(beta.q1 + n_q), beta.b1, beta.hbar)


def _image_turns(beta: GaussianPacket, n_ps: Sequence[int]) -> list[float]:
    """The torus phase of each momentum image n_p of the bra, in turns.

    On the grid x = j/N, where hbar = 1/(2 pi N), the packet centred at
    momentum p + n_p is the packet at p times e^{-2 pi i N n_p q}: the
    factor e^{i n_p (x - q) / hbar} is e^{-i n_p q / hbar} at every grid
    point.  So a term reaching that image is multiplied by e^{-2 pi i f},
    f = N n_p q_beta modulo 1, which this returns in [-1/2, 1/2].  For a
    grid's hbar, f is reduced exactly from the binary fraction of q_beta,
    and is 0.0 wherever N n_p q_beta is an integer; a term is then left
    untouched.  Any other hbar gets n_p q_beta / (2 pi hbar) modulo 1 in
    floating point.  The grid is worked out once for all the images.
    """
    if not any(n_ps):
        return [0.0] * len(n_ps)
    N = round(1.0 / (2.0 * math.pi * beta.hbar))
    if N >= 1 and grid_hbar(N) == beta.hbar:
        num, den = beta.q1.as_integer_ratio()
        # N q_beta = r / den modulo 1, and N n_p q_beta = n_p r / den
        r = N * num % den
        if not r:
            return [0.0] * len(n_ps)
        rests = [n_p * r % den for n_p in n_ps]
        return [(m - den if 2 * m > den else m) / den for m in rests]
    xs = [n_p * beta.q1 / (2.0 * math.pi * beta.hbar) for n_p in n_ps]
    return [x - round(x) for x in xs]


# ---------------------------------------------------------------------------
# Newton-Raphson saddle search
# ---------------------------------------------------------------------------

# Newton stops once both endpoint residuals, times hbar, are below this in
# max norm.  Both searches' residuals carry a factor 1/hbar, and with b = pi N
# the rescaled residuals do not depend on N, so neither does this stop.
_NEWTON_TOL = 1e-13

# A full Newton step no larger than this many epsilons of its point (of 1
# for points nearer the origin) in both components moved the point only in
# its last bits: the iterate is as converged as double precision allows.
_NEWTON_STEP_EPS = 4.0 * sys.float_info.epsilon

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
    hbar: float,
) -> SaddleTrajectory:
    """Damped Newton iteration shared by the two saddle searches.

    Starts from the seed's initial point with zero imaginary parts.  Each
    step solves the 2x2 system ``jacobian_of(traj)`` with
    :func:`_solve_newton_step`; the whole loop runs on Python complex
    scalars.  A step that fails to reduce the residual norm is halved up
    to six times before the search is abandoned.  Every candidate is
    propagated through this module's ``propagate``; a candidate whose
    trajectory runs away counts as one that did not reduce the norm, and
    only the seventh one's :class:`RunawayError` propagates.

    The residuals must carry a factor 1/``hbar``.  The search ends when
    their norm times ``hbar`` drops below ``_NEWTON_TOL``, or after a full
    step that moved the point by at most ``_NEWTON_STEP_EPS`` of itself.
    A NaN norm is never below it, and no step can reduce it: it raises
    :class:`ConvergenceError` at once.
    """
    ic = ComplexPhasePoint(complex(seed.ic[0]), complex(seed.ic[1]))
    traj = propagate(ic, seed.t, params)
    res = residual_of(traj)
    history = [res.max_norm]  # the seed's residual, then one per Newton step
    while not res.max_norm * hbar < _NEWTON_TOL:
        if len(history) > _NEWTON_MAX_ITER or math.isnan(res.max_norm):
            raise ConvergenceError(res.max_norm, len(history) - 1)
        d0, d1 = _solve_newton_step(jacobian_of(traj), (-res.initial, -res.final))
        P0, Q0 = traj.initial.p1, traj.initial.q1
        scale = 1.0
        for trial in range(7):
            cand_ic = _complex_point(P0 + scale * d0, Q0 + scale * d1)
            try:
                cand = propagate(cand_ic, seed.t, params)
            except RunawayError:
                # an overshooting step reduced nothing: halve it, unless
                # it was the last trial
                if trial == 6:
                    raise
            else:
                cand_res = residual_of(cand)
                if cand_res.max_norm < res.max_norm:
                    break
            scale *= 0.5
        else:
            raise ConvergenceError(
                cand_res.max_norm,
                len(history),
                "Newton step failed to reduce the residual after six halvings",
            )
        traj, res = cand, cand_res
        history.append(res.max_norm)
        if (
            scale == 1.0
            and abs(d0) <= _NEWTON_STEP_EPS * max(1.0, abs(cand_ic.p1))
            and abs(d1) <= _NEWTON_STEP_EPS * max(1.0, abs(cand_ic.q1))
        ):
            break
    return SaddleTrajectory(trajectory=traj, seed=seed, residual_history=tuple(history))


def find_saddle(
    alpha: GaussianPacket,
    beta: GaussianPacket,
    seed: SeedTrajectory,
    params: RotorParams,
) -> SaddleTrajectory:
    """Refine a real seed trajectory onto the complex saddle trajectory.

    The seed is complexified with exactly zero imaginary parts and
    iterated with damped Newton steps until both endpoint residuals, times
    hbar, drop below ``_NEWTON_TOL`` in max norm, or reach their rounding
    floor (see :func:`_newton_solve`).  The bra-side constraint targets the
    lattice image of ``beta`` selected by ``seed.winding``.

    Raises
    ------
    ConvergenceError
        After ``_NEWTON_MAX_ITER`` updates, or when damping cannot reduce
        the residual (the last residual norm rides along on the exception).
    RunawayError
        If the seed's trajectory, or the last of a step's seven halved
        trials, escapes to large imaginary parts.
    CausticError
        On a singular Newton system.
    """
    target = _shifted_target(beta, seed.winding)

    def residual_of(traj: ComplexTrajectory) -> ResidualPair:
        return residuals(alpha, target, traj.initial, traj.final)

    def jacobian_of(traj: ComplexTrajectory) -> _Jacobian:
        return _correlation_jacobian(alpha, target, traj)

    return _newton_solve(seed, params, residual_of, jacobian_of, alpha.hbar)


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
    exponent = 1j * trajectory.action / alpha.hbar + fm + bra_exponent
    term = SaddleContribution(
        action=trajectory.action,
        ket_exponent=fm,
        bra_exponent=bra_exponent,
        prefactor=1.0 / root,
        value=complex(norm * np.exp(exponent) / root),
    )
    _set(term, "weight", float(np.exp(exponent.real)))
    return term


def saddle_contribution(
    alpha: GaussianPacket,
    beta: GaussianPacket,
    trajectory: ComplexTrajectory,
    image_turns: float = 0.0,
) -> SaddleContribution:
    """Steepest-descent correlation term of one saddle trajectory.

    ``beta`` must be the winding-shifted image the trajectory connects to.
    A nonzero ``image_turns`` (see :func:`_image_turns`) adds that image's
    torus phase, -2 pi i ``image_turns``, to the bra exponent.
    """
    hbar = alpha.hbar
    ba, bb = alpha.b1, beta.b1
    dets = [
        m11 * ba + bb * m22 + 2j * hbar * bb * m21 * ba - (0.5j / hbar) * m12
        for m11, m12, m21, m22 in trajectory.legs
    ]
    fp = bra_norm_exponent(beta, trajectory.final)
    if image_turns:
        fp -= 2j * math.pi * image_turns
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
    targets is taken from its seed.  The action accumulated on the
    unfolded torus carries the phase of a position image; a momentum
    image's phase is added to its term (:func:`_image_turns`).
    """
    contributions: list[SaddleContribution] = []
    all_turns = _image_turns(beta, [sad.seed.winding[0] for sad in saddles])
    for sad, turns in zip(saddles, all_turns):
        if sad.trajectory.t != t:
            raise ConfigError(
                f"saddle trajectory has {sad.trajectory.t} steps, expected {t}"
            )
        target = _shifted_target(beta, sad.seed.winding)
        contributions.append(saddle_contribution(alpha, target, sad.trajectory, turns))
    return _prune_and_sum(contributions, [c.weight for c in contributions])


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

    # Q_t - x_target over hbar: _newton_solve wants residuals that carry 1/hbar
    def residual_of(traj: ComplexTrajectory) -> ResidualPair:
        c0 = 2.0 * ba * (traj.initial.q1 - alpha.q1) + (1j / hbar) * (
            traj.initial.p1 - alpha.p1
        )
        return ResidualPair(c0, (traj.final.q1 - x_target) / hbar)

    def jacobian_of(traj: ComplexTrajectory) -> _Jacobian:
        return (1j / hbar, 2.0 * ba), (traj.m21 / hbar, traj.m22 / hbar)

    seed = SeedTrajectory(
        ic=(float(seed_momentum), alpha.q1),
        t=t,
        winding=(0, winding_q),
    )
    return _newton_solve(seed, params, residual_of, jacobian_of, hbar)


# Shearing-line scans kept by :func:`_wavefunction_scan`.  A wavefunction is
# evaluated at many positions of one packet, so one entry already serves
# all of them; a few more cover callers alternating between packets.
_SCAN_CACHE_SIZE = 8

# Half-width of the momentum line :func:`ggwpd_wavefunction` scans for
# seeds, in momentum uncertainties hbar/(2 sigma) about the ket center.
_WAVE_HALFWIDTH_SIGMA = 8.0


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
) -> complex:
    """Evolved wavefunction at position x via the position-saddle sum.

    Real seeds are taken from the momentum line through the ket center
    (adequate for shearing-dominated transport; strong chaos would need
    manifold-based seeding as in the correlation case).  One saddle is
    refined per crossing per lattice image of x, seeded where the scan
    finds the crossing (:func:`~ggwpd.rotor._scan_crossings`): at a node
    whose end meets the image, or at the midpoint of a sign-change
    bracket.  Newton's start error is dominated by the saddle's imaginary
    offset, so the real root is not bisected first.  The line's scan
    depends on the packet, t and K but not on x, so calls for one packet
    share it (:func:`_wavefunction_scan`).

    Raises
    ------
    ConfigError
        When ``image_range`` is not an integer of at least 0.
    NumericalError
        When the scanned line's end positions reach a lattice image
        x + n with |n| > ``image_range``: that image's saddles would be
        missing from the sum.  Also when an end position or x is not
        finite (the map overflows near K = 1.7e308), so that no image
        range can be checked.
    """
    if t < 1:
        raise ValueError("position saddles need at least one step")
    if type(image_range) is not int or image_range < 0:
        image_range = _require_int("image_range", image_range, 0)
    sig_p = alpha.hbar / (2.0 * alpha.sigma)
    w = _WAVE_HALFWIDTH_SIGMA * sig_p
    windings = range(-image_range, image_range + 1)
    targets = [x + n_q for n_q in windings]
    scan = _wavefunction_scan(alpha.p1 - w, alpha.p1 + w, alpha.q1, t, params.K)
    reach_lo, reach_hi = scan.end_min - x, scan.end_max - x
    if not (math.isfinite(reach_lo) and math.isfinite(reach_hi)):
        raise NumericalError(
            f"the scanned line's end positions, {scan.end_min} to {scan.end_max}, "
            f"are not a finite distance from x = {x}: its images cannot be bounded"
        )
    n_lo, n_hi = math.ceil(reach_lo), math.floor(reach_hi)
    if n_lo <= n_hi and max(-n_lo, n_hi) > image_range:
        raise NumericalError(
            f"the scanned line reaches the images x{n_lo:+.6g} to x{n_hi:+.6g} of "
            f"x = {x}, beyond image_range = {image_range}"
        )
    p_grid = scan.p_grid
    seeds = []  # plain loops: most targets have no crossing to build a list for
    for n_q, target, (nodes, brackets) in zip(
        windings, targets, _scan_crossings(scan, targets)
    ):
        for i in nodes:
            seeds.append((n_q, target, p_grid[i]))
        for i in brackets:
            seeds.append((n_q, target, 0.5 * (p_grid[i] + p_grid[i + 1])))
    if not seeds:
        return 0j  # the empty sum, as _prune_and_sum((), ()).total gives

    saddles = [
        find_position_saddle(alpha, target, p_seed, t, params, winding_q=n_q)
        for n_q, target, p_seed in seeds
    ]
    terms = [
        wavefunction_contribution(alpha, sad.trajectory)
        for sad in _merge_duplicates(saddles, _saddle_place)
    ]
    return _prune_and_sum(terms, [c.weight for c in terms]).total


# ---------------------------------------------------------------------------
# off-center real-trajectory and linearized evaluators
# ---------------------------------------------------------------------------

def _divide(a: complex, b: complex) -> complex:
    """``a / b`` rounded as numpy's complex128 division, on Python scalars.

    numpy scales the denominator by the ratio of its smaller to its larger
    part and multiplies by the reciprocal of the result; CPython's ``/``
    divides by it instead, which rounds differently in about 40 % of
    random draws.  The operands of every product and sum are in numpy's
    order, so even the sign of a NaN agrees.  A zero denominator, or a
    NaN real part over a zero imaginary one, raises in Python's float
    division; numpy's inf or NaN is returned there.
    """
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    try:
        if abs(br) >= abs(bi):
            rat = bi / br
            scl = 1.0 / (br + bi * rat)
            return complex(scl * (ai * rat + ar), (ai - rat * ar) * scl)
        rat = br / bi
        scl = 1.0 / (bi + br * rat)
        return complex((ai + rat * ar) * scl, (rat * ai - ar) * scl)
    except ZeroDivisionError:
        return complex(np.complex128(a) / b)


# Below this real part, cmath.exp and numpy's complex exp both return
# exp(x) cos(y) + i exp(x) sin(y), bit for bit; from log(DBL_MAX / 4) ~ 708.4
# on, cmath scales exp(x) differently, and it raises on overflow.
_CMATH_EXP_MAX = 708.0

_SQRT2 = complex(math.sqrt(2.0))


def _offcenter_exp(
    alpha: GaussianPacket,
    beta: GaussianPacket,
    trajectory: ComplexTrajectory,
    a0: complex,
    r1: float,
    r2: float,
    sx: float,
) -> complex:
    """exp(i phase - quad / (2 a0)), the Gaussian factor of an off-center term."""
    hbar = alpha.hbar
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
        float(trajectory.action.real)
        + pt * (beta.q1 - qt)
        - p0 * (alpha.q1 - q0)
    ) / hbar
    z = 1j * phase - _divide(quad, 2.0 * a0)
    if z.real < _CMATH_EXP_MAX and cmath.isfinite(z):
        return cmath.exp(z)
    return complex(np.exp(z))


def offcenter_contribution(
    alpha: GaussianPacket,
    beta: GaussianPacket,
    trajectory: ComplexTrajectory,
    image_turns: float = 0.0,
) -> OffCenterContribution:
    """Exact quadratic-form correlation term of one real trajectory.

    The dynamics is expanded to second order about the trajectory; for
    quadratic Hamiltonians the result is exact for *any* real trajectory.
    ``beta`` must be the winding-shifted image (equal widths and hbar are
    required — the underlying expression assumes a common sigma).  A
    nonzero ``image_turns`` (see :func:`_image_turns`) multiplies the term
    by that image's torus phase e^{-2 pi i image_turns}.

    The term is evaluated on Python floats and complex numbers with every
    rounding of the numpy-scalar evaluation it replaced, since each numpy
    scalar operation costs several times its arithmetic.  Sums, products, ``math.sqrt`` and ``**2`` (the
    same libm ``pow``) round alike in both.  The two complex quotients go
    through :func:`_divide`, which copies numpy's division, and the
    exponential is ``cmath.exp``, equal to numpy's below a real part of
    ``_CMATH_EXP_MAX``; numpy's exp serves beyond it and for inf or NaN.
    Where Python floats raise instead of overflowing -- a square past
    1.8e308, or a zero ``sx`` when 2b overflows -- the Gaussian factor is
    evaluated again on numpy scalars, for numpy's inf or NaN.
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
    sx = math.sqrt(1.0 / (2.0 * b))  # sqrt(2 sigma^2)

    sums = [
        m11 + m22 + 1j * (r1 * m21 - r2 * m12)
        for m11, m12, m21, m22 in trajectory.legs
    ]
    root = _tracked_sqrt(sums)
    a0 = sums[-1]
    try:
        gauss = _offcenter_exp(alpha, beta, trajectory, a0, r1, r2, sx)
    except (OverflowError, ZeroDivisionError):
        gauss = _offcenter_exp(alpha, beta, trajectory, a0, r1, r2, np.float64(sx))
    value = _divide(_SQRT2, root) * gauss
    if image_turns:
        value *= cmath.exp(-2j * math.pi * image_turns)
    return OffCenterContribution(value=value)


# Real seed trajectories kept by :func:`_seed_trajectory`.  A sweep reuses
# one scenario's seeds (7 on chaotic-fig6) at every N, so this holds them
# all with room for a second scenario.
_SEED_CACHE_SIZE = 32


@functools.lru_cache(maxsize=_SEED_CACHE_SIZE)
def _seed_trajectory(ic: tuple[float, float], t: int, K: float) -> ComplexTrajectory:
    """The real orbit of a transport seed, propagated once per scenario.

    It depends on neither packet nor N, so every N of a sweep shares it.
    It runs through this module's ``propagate``; the trajectory is an
    immutable record, safe to hand to every caller.
    """
    ic_point = ComplexPhasePoint(complex(ic[0]), complex(ic[1]))
    return propagate(ic_point, t, RotorParams(K))


def offcenter_correlation(
    alpha: GaussianPacket,
    beta: GaussianPacket,
    seeds: list[SeedTrajectory],
    params: RotorParams,
    t: int,
) -> CorrelationResult:
    """Off-center real-trajectory correlation summed over transport seeds.

    Each seed's orbit is propagated once and shared by every later call
    (:func:`_seed_trajectory`).  A momentum image's torus phase is added to
    its term (:func:`_image_turns`).
    """
    contributions: list[OffCenterContribution] = []
    all_turns = _image_turns(beta, [seed.winding[0] for seed in seeds])
    for seed, turns in zip(seeds, all_turns):
        if seed.t != t:
            raise ConfigError(f"seed has t = {seed.t}, expected {t}")
        traj = _seed_trajectory(tuple(seed.ic), t, params.K)
        target = _shifted_target(beta, seed.winding)
        contributions.append(offcenter_contribution(alpha, target, traj, turns))
    weights = [_modulus(c.value) for c in contributions]
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
    the endpoint, with that image's torus phase (:func:`_image_turns`).
    At t = 0 this reproduces the closed-form packet overlap exactly.
    """
    ic = ComplexPhasePoint(complex(alpha.p1), complex(alpha.q1))
    traj = propagate(ic, t, params)
    n_p = int(np.round(traj.final.p1.real - beta.p1))
    n_q = int(np.round(traj.final.q1.real - beta.q1))
    target = _shifted_target(beta, (n_p, n_q))
    (turns,) = _image_turns(beta, [n_p])
    return offcenter_contribution(alpha, target, traj, turns).value
