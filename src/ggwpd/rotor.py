"""Kicked-rotor dynamics on the unit torus, real and analytically continued.

The map is kick-then-drift in dimensionless units,

    p' = p - (K/2pi) sin(2pi q)
    q' = q + p'

iterated on the unfolded (covering) phase space.  Alongside the orbit,
:func:`propagate` accumulates the generating action

    S = sum_n [ (Q_{n+1} - Q_n)^2 / 2 + (K/4pi^2) cos(2pi Q_n) ]

and the left-multiplied product of per-step stability matrices

    M_n = [[1, -K cos(2pi Q_n)], [1, 1 - K cos(2pi Q_n)]]

acting on column displacement vectors (dP, dQ).  The cumulative
stability matrix is recorded at the end of every kick and every drift
leg, 2t+1 matrices from the identity on.  Along a leg M is affine in the
leg's fraction, so any determinant linear in M moves on a straight
segment between two recorded values; the endpoints alone therefore fix
the branch of the square-root prefactors downstream.

The module also constructs the three curve families used to locate real
seed trajectories: shearing lines for near-integrable transport, and
stable/unstable manifolds of hyperbolic fixed points for chaotic
(heteroclinic) transport.
"""
from __future__ import annotations

import cmath
import math
import os
from bisect import bisect_left, bisect_right
from functools import partial

import numpy as np

from .errors import ConfigError, NumericalError, RunawayError
from .packets import (
    ComplexPhasePoint,
    GaussianPacket,
    _Record,
    _complex_point,
    _require_int,
    _scalar,
    _set,
)

TWO_PI = 2.0 * np.pi

# Eigenvector seed offset for manifold germs.  Balances the curvature error
# of the linear segment against roundoff amplification along the orbit.
_GERM_OFFSET = 1e-8

# Largest gap between consecutive points of a grown invariant curve, and the
# node spacing of a shearing line: the resolution of the curves that
# ``ggwpd manifolds`` writes.  The seed searches scan grids of their own.
_CURVE_SPACING = 1e-3

# Half-width of the shearing line in momentum uncertainties hbar/(2 sigma):
# the packet amplitude at its ends is exp(-25/2).  The integrable seed search
# scans this line and ``ggwpd manifolds`` writes it.
_SHEAR_HALFWIDTH_SIGMA = 5.0

# A transport seed is kept only when its start and end lie within this many
# packet widths of the two centers (momentum widths on a shearing line).
_CAPTURE_SIGMA = 5.0

# Distance from a beta-image center within which the heteroclinic search
# reads endpoints in that center's linear stable/unstable frame.  It must
# stay below 1/2, half the lattice spacing: the search assigns each endpoint
# to the one image center it can then be near by rounding its offset.
_CAPTURE_RADIUS = 0.3

# Largest imaginary part of P or Q that :func:`propagate` lets a trajectory
# reach: diverging imaginary parts signal an escape through a branch cut.
_RUNAWAY_BOUND = 10.0

# Arc length of a grown stable or unstable manifold, and the point count at
# which its growth is refused as runaway: the points of one level, or the
# base points of all levels together.
_ARC_BUDGET = 6.0
_MAX_CURVE_POINTS = 200_000

# Most germ levels the heteroclinic search scans, one map step each, at
# about 2 ms a level whatever t.  The count grows like 1/log|lambda_u|,
# without bound as the fixed point nears parabolic (K -> 0 at q = 1/2,
# K -> 4 at q = 0): K = 1e-14 would need 2e8 levels.  400 refuses
# |lambda_u| below 1.057.
_MAX_GERM_LEVELS = 400


class RotorParams(_Record):
    """Kicking strength of the standard-map rotor; K = 0 is a pure shear.

    ``K`` is kept as a Python float, so :func:`propagate` steps on Python
    complex scalars whatever numeric type the caller passes.
    """

    __slots__ = _fields = ("K",)

    def __init__(self, K: float) -> None:
        K = _scalar("K", K)
        if not math.isfinite(K):
            raise ValueError(f"kick strength must be finite, got {K!r}")
        if K < 0.0:
            raise ValueError("kick strength must be non-negative")
        _set(self, "K", K)


class SeedTrajectory(_Record):
    """A real off-center trajectory feeding the complex saddle search.

    ``winding = (n_p, n_q)`` identifies the lattice image of the final
    packet the trajectory lands on: the targeted center is
    ``(p_beta + n_p, q_beta + n_q)`` on the unfolded torus.
    """

    __slots__ = _fields = ("ic", "t", "winding")

    def __init__(
        self, ic: tuple[float, float], t: int, winding: tuple[int, int]
    ) -> None:
        _set(self, "ic", ic)
        _set(self, "t", t)
        _set(self, "winding", winding)


class ComplexTrajectory(_Record):
    """An unfolded rotor orbit with action, stability, and branch data.

    Attributes
    ----------
    points : tuple of ComplexPhasePoint, length t+1
    action : complex
        Accumulated generating action S(Q_t, Q_0).
    legs : tuple of (m11, m12, m21, m22) complex tuples
        Cumulative stability matrices (momentum row first) at the ends of
        the kick and drift legs, starting from the identity; the
        prefactors' branch tracking reads every one of them.
    m11, m12, m21, m22 : complex
        Blocks of the accumulated stability matrix, the last leg.
    """

    __slots__ = _fields = ("points", "action", "legs")

    def __init__(
        self,
        points: tuple[ComplexPhasePoint, ...],
        action: complex,
        legs: tuple[tuple[complex, complex, complex, complex], ...],
    ) -> None:
        _set(self, "points", points)
        _set(self, "action", action)
        _set(self, "legs", legs)

    @property
    def m11(self) -> complex:
        return self.legs[-1][0]

    @property
    def m12(self) -> complex:
        return self.legs[-1][1]

    @property
    def m21(self) -> complex:
        return self.legs[-1][2]

    @property
    def m22(self) -> complex:
        return self.legs[-1][3]

    @property
    def t(self) -> int:
        return len(self.points) - 1

    @property
    def initial(self) -> ComplexPhasePoint:
        return self.points[0]

    @property
    def final(self) -> ComplexPhasePoint:
        return self.points[-1]


class ManifoldCurve(_Record):
    """An ordered polyline approximating an invariant curve."""

    __slots__ = _fields = ("points",)

    def __init__(self, points: np.ndarray) -> None:
        _set(self, "points", points)  # (n, 2) columns (p, q)


def propagate(ic: ComplexPhasePoint, t: int, params: RotorParams) -> ComplexTrajectory:
    """Iterate the unfolded map for t steps from a complex initial point.

    Parameters
    ----------
    ic : ComplexPhasePoint
        Initial condition (real values are propagated exactly as the real
        map would).
    t : int
        Number of map applications, t >= 0.
    params : RotorParams

    Returns
    -------
    ComplexTrajectory
        Its points after the initial one are built without the type
        check of ``ComplexPhasePoint(P, Q)``: ``ic`` holds Python complex
        values and ``params.K`` is a Python float, so every P and Q is
        Python complex already.

    Raises
    ------
    RunawayError
        When an imaginary part exceeds ``_RUNAWAY_BOUND``, or when P or Q
        stops being finite (NaN passes any magnitude test); diverging
        imaginary parts signal a trajectory escaping through a branch
        cut, not recoverable state.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    K = params.K
    kick = K / TWO_PI
    potential = K / (4.0 * math.pi**2)
    bound = _RUNAWAY_BOUND
    P = ic.p1
    Q = ic.q1
    pts = [ic]
    m11, m12, m21, m22 = 1.0 + 0j, 0j, 0j, 1.0 + 0j
    legs = [(m11, m12, m21, m22)]
    S = 0.0 + 0.0j
    for step in range(t):
        try:
            angle = TWO_PI * Q
            cos = cmath.cos(angle)
            c = K * cos
            P1 = P - kick * cmath.sin(angle)
            Q1 = Q + P1
            dQ = Q1 - Q
            S += dQ * dQ / 2.0 + potential * cos
            # kick leg [[1, -c], [0, 1]] M, then drift leg [[1, 0], [1, 1]] M
            m11, m12 = m11 - c * m21, m12 - c * m22
            legs.append((m11, m12, m21, m22))
            m21, m22 = m21 + m11, m22 + m12
            legs.append((m11, m12, m21, m22))
            P, Q = P1, Q1
            # NaN fails every comparison, so finiteness is tested on its own;
            # the sum is NaN or inf when any part is (or overflows past 1e308)
            runaway = (
                abs(P.imag) > bound
                or abs(Q.imag) > bound
                or not math.isfinite(abs(P) + abs(Q))
            )
        except (OverflowError, ValueError):
            # cmath's sin and cos raise on an overflowing result or an
            # infinite argument, and abs() on an overflowing modulus, where
            # numpy returns the inf or NaN the test above refuses
            runaway = True
        if runaway:
            raise RunawayError(step + 1, (P, Q))
        pts.append(_complex_point(P, Q))
    return ComplexTrajectory(
        points=tuple(pts),
        # a numpy scalar, as the sum was when numpy evaluated the steps:
        # the downstream action / hbar is pinned to numpy's division,
        # which rounds differently from Python's complex division
        action=np.complex128(S),
        legs=tuple(legs),
    )


# ---------------------------------------------------------------------------
# vectorized real-map helpers (manifold growth and seed searches)
# ---------------------------------------------------------------------------

def _step_forward(p: np.ndarray, q: np.ndarray, n: int, K: float) -> None:
    """Apply the unfolded forward map n times to the points (p, q), in place."""
    for _ in range(n):
        p -= (K / TWO_PI) * np.sin(TWO_PI * q)
        q += p


def _step_backward(p: np.ndarray, q: np.ndarray, n: int, K: float) -> None:
    """Apply the unfolded inverse map n times to the points (p, q), in place."""
    for _ in range(n):
        q -= p
        p += (K / TWO_PI) * np.sin(TWO_PI * q)


def _forward_many(pts: np.ndarray, n: int, K: float) -> np.ndarray:
    """Apply the unfolded forward map n times to an (m, 2) array of (p, q)."""
    p = pts[:, 0].copy()
    q = pts[:, 1].copy()
    _step_forward(p, q, n, K)
    return np.column_stack([p, q])


def iterate_map(points: np.ndarray, t: int, params: RotorParams) -> np.ndarray:
    """Vectorized unfolded forward map on an (n, 2) array of real (p, q) rows."""
    return _forward_many(np.asarray(points, dtype=float), t, params.K)


def _hyperbolic_frame(fp: tuple[float, float], K: float):
    """Eigen-decomposition of the single-step stability at a fixed point.

    Returns (lam_unstable, v_unstable, lam_stable, v_stable) with unit
    eigenvectors.  Raises ConfigError when the point is not hyperbolic.

    The stability matrix M = [[1, -c], [1, 1 - c]], c = K cos(2 pi q), has
    det M = 1 and trace 2 - c, so it is hyperbolic for c < 0 or c > 4 and
    its multipliers are 1 - c/2 -+ h, h = sign(c) sqrt|c| sqrt|c - 4| / 2,
    with no overflow for any finite c.  The unstable one, 1 - c/2 - h, sums
    two terms of one sign; the stable one is taken as 1 / lam_u, exact up
    to rounding since det M = 1, as 1 - c/2 + h cancels.  With
    w = c/2 + h = 1 - lam_u, also free of cancellation, v_u = (c, w) is the
    null vector of the first row of M - lam_u, and v_s = (w, 1) that of the
    second row of M - lam_s, as c + lam_s - 1 = 1 - lam_u by the trace.
    v_s has a positive second component and v_u one of the sign of c, the
    orientation LAPACK's ``geev`` gives: it sets the direction of each
    grown curve and the order of the heteroclinic candidates.
    """
    c = K * math.cos(TWO_PI * fp[1])
    if abs(2.0 - c) <= 2.0:
        raise ConfigError(
            f"fixed point {fp} is not hyperbolic (|trace| = {abs(2.0 - c):.4f} <= 2)"
        )
    h = math.copysign(0.5 * math.sqrt(abs(c)) * math.sqrt(abs(c - 4.0)), c)
    lam_u = 1.0 - 0.5 * c - h
    w = 0.5 * c + h
    # v_u scaled by 1 / w, so that normalizing it cannot overflow
    r = c / w
    vu = np.array([r, 1.0]) * (math.copysign(1.0, c) / math.hypot(r, 1.0))
    vs = np.array([w, 1.0]) / math.hypot(w, 1.0)
    return lam_u, vu, 1.0 / lam_u, vs


def _check_fixed_point(fp: tuple[float, float], params: RotorParams) -> None:
    """Refuse a point the folded map moves by more than rounding.

    At a fixed point sin(2 pi q) vanishes, but rounding 2 pi q leaves the
    float sine up to pi |q| eps off zero (1.2e-16 at q = 0.5), and the
    kick scales that by K / 2pi: a move of about K |q| eps / 2 in p and in
    q.  The bound allows several times that on top of 1e-12.  From K of
    about 1e15 on it passes every point: the kick's rounding then exceeds
    the largest folded displacement, 0.71.  A non-finite point is refused
    before it is stepped.
    """
    if not (math.isfinite(fp[0]) and math.isfinite(fp[1])):
        raise ConfigError(f"{fp} is not a finite point")
    nxt = _forward_many(np.array([fp], dtype=float), 1, params.K)[0]
    dp = (nxt[0] - fp[0]) - round(nxt[0] - fp[0])
    dq = (nxt[1] - fp[1]) - round(nxt[1] - fp[1])
    eps = np.finfo(float).eps
    if np.hypot(dp, dq) > 1e-12 + 4.0 * params.K * max(1.0, abs(fp[1])) * eps:
        raise ConfigError(f"{fp} is not a fixed point of the folded map")


def _halves(lo: np.ndarray, mid: np.ndarray, hi: np.ndarray):
    """Lower and upper ends of the intervals [lo, mid] and [mid, hi],
    interleaved: each interval's lower half, then its upper half."""
    lower = np.empty(2 * mid.size)
    upper = np.empty(2 * mid.size)
    lower[0::2], lower[1::2] = lo, mid
    upper[0::2], upper[1::2] = mid, hi
    return lower, upper


def _refine_level(logs, offsets, p, q, point_at):
    """Offsets and points p, q of one level on one side, in ascending
    offset order, from its base points at log-offsets ``logs``, refined by
    inserting log-midpoints until consecutive points are closer than
    ``_CURVE_SPACING``.  ``point_at(s)`` gives the level's points p, q at
    germ offsets s.  A level past ``_MAX_CURVE_POINTS`` points is refused.

    Refinement is breadth-first and tests only the frontier: the first
    round tests every interval between base points, and each later round
    tests just the two halves of every interval the round before split,
    mapping all of their midpoints in one call.  Whether an interval
    splits depends only on its two endpoints, so an interval that was not
    split stays final, and the point set is the one a left-to-right walk
    inserting one midpoint at a time gives.  The frontier is kept in
    curve order, each split interval's two halves side by side, so each
    round's midpoints ascend; the level is put in curve order once, by a
    stable sort of its log-offsets, which merges those runs.
    """
    # log-offsets, their offsets and points, one array each per round
    log_parts, offset_parts, p_parts, q_parts = [logs], [offsets], [p], [q]
    count = logs.size
    # the frontier: log-offsets and points at both ends of every interval
    # still to test
    lo_log, hi_log = logs[:-1], logs[1:]
    lo_p, hi_p, lo_q, hi_q = p[:-1], p[1:], q[:-1], q[1:]
    while True:
        if count > _MAX_CURVE_POINTS:
            raise NumericalError("manifold refinement exceeded the point-count cap")
        gaps = np.hypot(hi_p - lo_p, hi_q - lo_q)
        split = (gaps > _CURVE_SPACING) & (hi_log - lo_log > 1e-14)
        if not split.any():
            break
        lo_log, hi_log = lo_log[split], hi_log[split]
        mids = 0.5 * (lo_log + hi_log)
        mid_offsets = np.exp(mids)
        mid_p, mid_q = point_at(mid_offsets)
        log_parts.append(mids)
        offset_parts.append(mid_offsets)
        p_parts.append(mid_p)
        q_parts.append(mid_q)
        count += mids.size
        # each split interval's two halves, side by side: the frontier
        # stays in curve order, so each round's midpoints ascend
        lo_log, hi_log = _halves(lo_log, mids, hi_log)
        lo_p, hi_p = _halves(lo_p[split], mid_p, hi_p[split])
        lo_q, hi_q = _halves(lo_q[split], mid_q, hi_q[split])
    # a level's points in curve order are its log-offsets in order: no two
    # are equal, and they form one ascending run per round
    order = np.argsort(np.concatenate(log_parts), kind="stable")
    return tuple(np.concatenate(parts)[order] for parts in (offset_parts, p_parts, q_parts))


def _grow_invariant_curve(
    fp: tuple[float, float], params: RotorParams, inverse: bool
) -> np.ndarray:
    """Ordered polyline of the unstable (or stable) manifold through fp.

    The curve is parametrized by the signed distance along the germ
    eigenvector; a fundamental segment [s0, |lambda| s0) on each side of
    the fixed point is iterated level by level, and each level's images
    are refined by :func:`_refine_level` until consecutive points are
    closer than ``_CURVE_SPACING``.  Iterating with the map itself keeps
    every emitted point on the manifold to machine precision.

    The curve is grown branch by branch, a branch being its points of one
    sign of the parameter: at level n, branch b takes its points from
    germ side b sign(lambda**n).  A branch's points are in curve order
    when stably sorted by parameter in growth order: a level's first
    point and the level before's last point have equal parameters up to
    rounding, and no other points of two levels interleave.  After each
    level the branch's arc from the fixed point is read in that order,
    and the branch stops once it reaches ``_ARC_BUDGET / 2``.  The
    low-parameter end keeps the points with arc up to the half budget,
    the high-parameter end those and the first point past it.  Every
    hyperbolic fixed point of the standard map, (n, 0) or (n, 1/2) up to
    a whole q, is a centre of point symmetry of the map and so of its
    curves, so this is the window of ``_ARC_BUDGET`` centred on the middle
    of the whole curve's arc; the tests compare the two cuts bit for bit.

    Within the last level only a prefix of the base intervals is refined.
    The base polyline's arc is a lower bound on the refined arc over any
    prefix, so the half budget is crossed no later than the base
    interval where the branch's arc so far plus the base segments first
    reaches it; intervals up to one past that one are refined, the one
    past a margin for rounding.  A level whose base polyline falls short
    is refined whole.  Refinement splits an interval by its two
    endpoints alone, so a prefix's points are those of the whole level.

    The 48 base points of level n on both sides are one map step of level
    n - 1's, the same operations in the same order as n steps from the
    germ; a midpoint has no point at the level before and is stepped n
    times from the germ.  Points are kept as flat p and q arrays and
    stacked into (p, q) rows once, at the end.

    The unfolded map fixes (p, q) only at p = 0: it moves a fixed point at
    integer p = n_p by n_p in q at every step.  Growth runs at (p - n_p, q)
    and adds n_p to every p of the curve, so the curve at a lattice image
    of a fixed point is the image of its curve, bit for bit.

    At (0, 0) after that shift, a zero of either sign in p and in q, the
    float map is exactly odd: the germ's two sides are negations of each
    other, and rounding is symmetric in sign, so the sine, the kick and
    the drift take a negated point to the negated image.  There only the
    + branch is grown, and the - branch is built from its points by three
    rules.  A point is negated as 0.0 - x: growth from a +0.0 germ never
    makes -0.0, which -x would make of a zero.  The + branch's first
    point past the half budget is dropped, as the low-parameter end keeps
    none; a branch that never reaches the budget keeps all its points.
    And each run of equal parameter is listed in reverse, the order the
    - branch's stable sort of the negated parameters, read from its high
    end, gives.  The points of such a run agree to a few roundings, so
    the two branches' arcs do too, and the - branch is cut where the
    + branch is unless the half budget falls within that rounding of a
    point's arc; the tests compare the two paths bit for bit.  Every
    other fixed point grows both branches: (n, 1/2), and a point the
    fixed-point check allows a rounding away from the origin, such as
    (1e-13, 0).

    Both curves are grown with lambda_u: the inverse map stretches the
    stable curve by 1 / lambda_s = lambda_u.  :func:`_hyperbolic_frame`
    takes lambda_u in closed form, with no cancellation, so the stable
    curve grows at any K the unstable one does; a numerical eigen-solver
    loses lambda_s to cancellation at large K (``np.linalg.eig`` reads it
    as 0.0 from K of about 2e8).

    Growth is refused with NumericalError, before any map step, in three
    cases.  A non-finite lambda_u is refused.  So is a K whose kick
    rounds by more than the curve's resolution: the kick's rounding,
    4 K max(1, |q|) eps as :func:`_check_fixed_point` allows it, must stay
    within ``_CURVE_SPACING``, which refuses K from about 1.1e12 on.  Past
    it each step moves points off the curve by more than the spacing: the
    chaotic preset's curves map onto themselves to 4e-7 at K = 1e9, to
    5e-4 at 1e12 and only to 0.47 at 2e15.  And growth is refused when
    the base points of all levels alone would pass ``_MAX_CURVE_POINTS``:
    the level count grows like 1 / log|lambda| as the fixed point nears
    parabolic, and this refuses |lambda| below about 1.011.
    """
    K = params.K
    lam, v_u, _, v_s = _hyperbolic_frame(fp, K)
    kick_rounding = 4.0 * K * max(1.0, abs(fp[1])) * np.finfo(float).eps
    # not ... > bound, so that a NaN is refused too
    if not (math.isfinite(lam) and kick_rounding <= _CURVE_SPACING):
        raise NumericalError(
            f"the kick rounds by up to {kick_rounding:.3g} a step at {fp}, "
            f"more than the curve spacing {_CURVE_SPACING:g} (unstable "
            f"multiplier {lam:.3g}); K = {K:g} is too large"
        )
    v = v_s if inverse else v_u
    step = _step_backward if inverse else _step_forward
    s0 = _GERM_OFFSET
    n_base = 48

    # enough levels for any reasonable budget; growth stops on budget anyway
    n_levels = max(4, int(np.ceil(np.log(64.0 / s0) / np.log(abs(lam)))))
    if 2 * n_base * n_levels > _MAX_CURVE_POINTS:
        raise NumericalError(
            f"the {'stable' if inverse else 'unstable'} multiplier "
            f"|lambda| = {abs(lam):.10g} at {fp} needs {n_levels} levels of "
            f"{2 * n_base} base points, {2 * n_base * n_levels} in all, more "
            f"than {_MAX_CURVE_POINTS}; K = {K:g} is too weakly hyperbolic"
        )

    logs = np.linspace(np.log(s0), np.log(abs(lam) * s0), n_base)
    offsets = np.exp(logs)
    half = _ARC_BUDGET / 2.0

    # grown at p - n_p; a zero n_p is not added, as adding 0.0 would turn
    # -0.0 into +0.0
    fp_p, fp_q = map(float, fp)
    n_p = float(round(fp_p))
    if n_p:
        fp_p -= n_p

    def germ(side, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return fp_p + (side * s) * v[0], fp_q + (side * s) * v[1]

    def level_points(side: float, n: int, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Points p, q of germ offsets s on one side after n steps."""
        p, q = germ(side, s)
        step(p, q, n, K)
        return p, q

    def grow_branch(b: float, mirror: bool) -> list[tuple[np.ndarray, np.ndarray]]:
        """p and q of the branch of sign b, outward from the fixed point
        and cut to the half budget, the fixed point first; with ``mirror``,
        then those of the branch of sign -b, built from the same points."""
        # the base points of the current level, the + side's first; a
        # branch takes its points from both sides when lambda < 0
        base_p, base_q = germ(np.repeat([1.0, -1.0], n_base), np.tile(offsets, 2))
        # the branch in outward order: settled points, then the last two
        # points (at first the fixed point alone) with the arc at the first
        p_parts, q_parts, mirror_p, mirror_q = [], [], [], []
        tail_param, tail_p, tail_q = np.zeros(1), np.array([fp_p]), np.array([fp_q])
        tail_arc = end = 0.0

        def settle(param, p, q, keep, mirror_keep):
            p_parts.append(p[:keep])
            q_parts.append(q[:keep])
            if mirror:
                # the -b branch's order: this one's with each run of equal
                # parameter reversed
                order = np.argsort(-param, kind="stable")[::-1][:mirror_keep]
                mirror_p.append(0.0 - p[order])
                mirror_q.append(0.0 - q[order])

        for n in range(n_levels):
            if n:
                step(base_p, base_q, 1, K)
            # the signed curve parameter of offset s after n steps is s lam**n
            scale = lam**n
            side = b if scale > 0.0 else -b
            base = slice(0, n_base) if side > 0.0 else slice(n_base, None)
            p, q = base_p[base], base_q[base]
            reach = end + np.cumsum(np.hypot(np.diff(p), np.diff(q))) >= half
            # base points up to the end of the interval past the first
            # that reaches the half budget
            m = min(int(reach.argmax()) + 3, n_base) if reach.any() else n_base
            s, p, q = _refine_level(
                logs[:m], offsets[:m], p[:m], q[:m], partial(level_points, side, n)
            )
            # only the level's first point can go before the branch's last,
            # so one stable sort of the last two and the level, in growth
            # order, puts the branch in order; reversed on the - branch
            param = np.concatenate([tail_param, side * s * scale])
            order = np.argsort(param, kind="stable")
            if b < 0.0:
                order = order[::-1]
            param = param[order]
            p = np.concatenate([tail_p, p])[order]
            q = np.concatenate([tail_q, q])[order]
            # cumsum adds in order, so the arc is the whole branch's sum
            seg = np.hypot(np.diff(p), np.diff(q))
            arc = np.cumsum(np.concatenate([[tail_arc], seg]))
            end = float(arc[-1])
            if end >= half:
                keep = int(np.searchsorted(arc, half, side="right"))
                settle(param, p, q, keep + (b > 0.0), keep)
                break
            settle(param, p, q, -2, -2)
            tail_param, tail_p, tail_q, tail_arc = param[-2:], p[-2:], q[-2:], arc[-2]
        else:
            settle(tail_param, tail_p, tail_q, None, None)
        branches = [(np.concatenate(p_parts), np.concatenate(q_parts))]
        if mirror:
            branches.append((np.concatenate(mirror_p), np.concatenate(mirror_q)))
        return branches

    # the map is odd about the origin: its - branch is the + branch mirrored
    if fp_p == 0.0 and fp_q == 0.0:
        (high_p, high_q), (low_p, low_q) = grow_branch(+1.0, mirror=True)
    else:
        ((low_p, low_q),) = grow_branch(-1.0, mirror=False)
        ((high_p, high_q),) = grow_branch(+1.0, mirror=False)
    # the low branch reversed, without its copy of the fixed point
    p = np.concatenate([low_p[:0:-1], high_p])
    q = np.concatenate([low_q[:0:-1], high_q])
    if n_p:
        p = p + n_p
    return np.column_stack([p, q])


def unstable_manifold(fp: tuple[float, float], params: RotorParams) -> ManifoldCurve:
    """Unstable manifold of a hyperbolic fixed point as an ordered polyline.

    Grows a germ along the unstable eigenvector of the single-step
    stability matrix and iterates the forward map with adaptive point
    insertion until the accumulated arc length reaches ``_ARC_BUDGET``.
    """
    _check_fixed_point(fp, params)
    return ManifoldCurve(_grow_invariant_curve(fp, params, inverse=False))


def stable_manifold(fp: tuple[float, float], params: RotorParams) -> ManifoldCurve:
    """Stable manifold, grown with the inverse map along the stable direction."""
    _check_fixed_point(fp, params)
    return ManifoldCurve(_grow_invariant_curve(fp, params, inverse=True))


def shearing_manifold(packet: GaussianPacket) -> ManifoldCurve:
    """Vertical line of initial conditions through the packet center.

    It reaches ``_SHEAR_HALFWIDTH_SIGMA`` momentum uncertainties to either
    side, the interval the integrable seed search scans.  A line of more
    than ``_MAX_CURVE_POINTS`` nodes is refused before it is built.
    """
    sig_p = packet.hbar / (2.0 * packet.sigma)
    w = _SHEAR_HALFWIDTH_SIGMA * sig_p
    span = 2.0 * w / _CURVE_SPACING
    if span > _MAX_CURVE_POINTS - 1:  # ceil(span) + 1 nodes
        raise NumericalError(
            f"a shearing line of half-width {w:.3g} needs more than "
            f"{_MAX_CURVE_POINTS} nodes; hbar = {packet.hbar:g} is too large"
        )
    n = max(9, int(np.ceil(span)) + 1)
    p = np.linspace(packet.p1 - w, packet.p1 + w, n)
    q = np.full_like(p, packet.q1)
    return ManifoldCurve(np.column_stack([p, q]))


def propagate_curve(curve: ManifoldCurve, t: int, params: RotorParams) -> ManifoldCurve:
    """Forward image of a curve under t unfolded map steps (same ordering)."""
    return ManifoldCurve(_forward_many(curve.points, t, params.K))


# 5**k for every scale k = 16 - X :func:`_write_g17` takes: X >= -11, so
# k <= 27 and 5**k < 2**63
_POW5 = np.array([5**k for k in range(28)], dtype=np.uint64)


def _round_scaled(m: np.ndarray, e: np.ndarray, k: np.ndarray) -> np.ndarray:
    """round-half-even(m 10**k 2**e), exactly, elementwise in uint64.

    For m < 2**53, 0 <= k <= 27 and a shift s = -(e + k) in [1, 63]: the
    product m 5**k (up to 116 bits) is formed from 32-bit halves as a high
    and a low 64-bit word, and shifted right by s; the s bits shifted out
    of the low word decide the rounding.
    """
    p = _POW5[k]
    m_lo, m_hi = m & 0xFFFFFFFF, m >> 32
    p_lo, p_hi = p & 0xFFFFFFFF, p >> 32
    low = m_lo * p_lo
    mid = m_hi * p_lo + m_lo * p_hi  # below 2**53 + 2**63
    wrapped = low + (mid << 32)
    high = m_hi * p_hi + (mid >> 32) + (wrapped < low)
    s = (-(e + k)).astype(np.uint64)
    q = (high << (64 - s)) | (wrapped >> s)
    rest = wrapped & ((1 << s) - 1)
    half = 1 << (s - 1)
    return q + ((rest > half) | ((rest == half) & (q & 1).astype(bool)))


def _write_g17(x: np.ndarray, out: np.ndarray) -> None:
    """Write ``"%.17g" % x[i]``, NUL-padded, into row i of the zeroed ``out``.

    ``out`` is (n, 43) uint8: a sign, the "0." and three zeros of 0.000ddd,
    the 17 digits with a point slot after each of the first 16, and "e-XX".
    Finite |x| in [1e-10, 1e14) is formatted over the whole array with
    integer arithmetic.  With |x| = M 2**E, the 17-digit significand is
    D = round-half-even(M 10**k 2**E) with k = 16 - X, for the decimal
    exponent X of the rounded value.  X starts from floor(log10 |x|), one
    off at worst, and steps once: up where D reaches 10**17, and down
    where D is at most 10**16 (10**16 itself may be |x| 10**k rounded up)
    unless the step down reaches 10**17 again.  There k is at most 27 and
    the shift -(E + k) lies in [1, 63] (:func:`_round_scaled`).  The
    digits are laid out by %g's rules: fixed notation for -4 <= X < 17 and
    d.ddd e-XX below, with trailing zeros dropped, and the point too when
    no digit follows it.  Every other value (±0, non-finite values and
    magnitudes outside the range) is formatted by ``%`` itself, once per
    distinct bit pattern, so a column of zeros costs one call.
    """
    a = np.abs(x)
    fast = (a >= 1e-10) & (a < 1e14)
    a = np.where(fast, a, 1.0)
    bits = a.view(np.uint64)
    m = (bits & ((1 << 52) - 1)) | (1 << 52)
    e = (bits >> 52).astype(np.int64) - 1075
    X = np.floor(np.log10(a)).astype(np.int64)
    D = _round_scaled(m, e, 16 - X)
    up, down = D >= 10**17, D <= 10**16
    redo = np.flatnonzero(up | down)
    X[redo] += up[redo].astype(np.int64) - down[redo]
    D[redo] = _round_scaled(m[redo], e[redo], 16 - X[redo])
    # a step down from 10**16 that reaches 10**17 was no step
    carry = redo[D[redo] >= 10**17]
    X[carry] += 1
    D[carry] = 10**16
    # the digits, one row each, most significant first: nine from
    # D // 10**8 and eight from D mod 10**8, both below 2**32, where a
    # division costs less than in uint64
    digits = np.empty((17, x.size), dtype=np.uint8)
    high = D // 10**8
    halves = ((D - high * 10**8).astype(np.uint32), high.astype(np.uint32))
    for rows, part in zip((range(16, 8, -1), range(8, -1, -1)), halves):
        for j in rows:
            q = part // 10
            digits[j] = part - q * 10
            part = q
    # the last nonzero digit
    last = ((digits != 0) * np.arange(1, 18, dtype=np.uint8)[:, None]).max(axis=0) - 1
    sci = X < -4
    lead = (X < 0) & ~sci
    # the digit the point follows, -1 for 0.000ddd
    point = np.where(sci, 0, np.where(lead, -1, X))
    digits += 48
    digits *= np.arange(17)[:, None] <= np.maximum(last, point)
    out[:, 6:39:2] = digits.T
    out[:, 0] = np.signbit(x) * np.uint8(45)
    out[:, 1] = lead * np.uint8(48)
    out[:, 2] = lead * np.uint8(46)
    for c in range(3):
        out[:, 3 + c] = (lead & (X < -1 - c)) * np.uint8(48)
    rows = np.flatnonzero((last > point) & (point >= 0))
    out[rows, 7 + 2 * point[rows]] = 46
    rows = np.flatnonzero(sci)
    out[rows, 39:41] = (101, 45)
    out[rows, 41] = 48 + -X[rows] // 10
    out[rows, 42] = 48 + -X[rows] % 10
    slow = np.flatnonzero(~fast)
    if not slow.size:
        return
    patterns, which = np.unique(x[slow].view(np.uint64), return_inverse=True)
    texts = np.zeros((patterns.size, out.shape[1]), dtype=np.uint8)
    for row, v in zip(texts, patterns.view(np.float64).tolist()):
        text = ("%.17g" % v).encode()
        row[: len(text)] = np.frombuffer(text, np.uint8)
    out[slow] = texts[which]


# rows per :func:`_write_g17` call in :func:`curve_to_csv`: the writer holds
# one block's text and temporaries, whatever the curve's length
_CSV_BLOCK_ROWS = 2048


def curve_to_csv(curve: ManifoldCurve, path) -> None:
    """Dump a curve as a plot-ready CSV with columns index, p, q.

    The rows go out in blocks of ``_CSV_BLOCK_ROWS`` (the last one
    shorter), each written as soon as it is formatted, so the writer
    holds one block, not the whole curve.  One :func:`_write_g17` call per
    block renders p and q interleaved, exactly as ``format(v, ".17g")``
    does, into a zeroed (2b, 44) array whose last column holds the ``,``
    after p and the newline after q.  Reshaped to (b, 88), it follows the
    index digits and comma in a NUL-padded uint8 matrix, a view of a
    ``bytearray`` that drops its NULs without a copy.  The index width is
    the whole curve's, so a row's bytes do not depend on its block.  A
    block that fails removes the partly written file, and with it any file
    that was at ``path`` before.  Integer points render as ``%`` renders
    them, through float.
    """
    pts = np.asarray(curve.points, dtype=np.float64)
    n = len(pts)
    w = len(str(max(n - 1, 0)))
    with open(path, "wb") as fh:
        try:
            fh.write(b"index,p,q\n")
            for lo in range(0, n, _CSV_BLOCK_ROWS):
                fh.write(_csv_rows(pts[lo : lo + _CSV_BLOCK_ROWS], lo, w))
        except BaseException:
            fh.close()
            # a device such as os.devnull is no partial file
            if os.path.isfile(path):
                os.remove(path)
            raise


def _csv_rows(pts: np.ndarray, start: int, w: int) -> bytearray:
    """The CSV rows of ``pts``, indexed from ``start`` in width ``w``."""
    b = len(pts)
    values = np.zeros((2 * b, 44), dtype=np.uint8)
    _write_g17(pts.reshape(-1), values[:, :43])
    values[0::2, 43] = 44
    values[1::2, 43] = 10
    text = bytearray(b * (w + 89))
    m = np.frombuffer(text, dtype=np.uint8).reshape(b, w + 89)
    idx = np.arange(start, start + b)
    for c in range(w - 1, -1, -1):
        # a leading zero of the index is a NUL
        m[:, c] = (idx % 10 + 48) * ((idx > 0) | (c == w - 1))
        idx //= 10
    m[:, w] = 44
    m[:, w + 1 :] = values.reshape(b, 88)
    return text.translate(None, b"\0")


# ---------------------------------------------------------------------------
# seed trajectories
# ---------------------------------------------------------------------------

def _sign_change_brackets(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Roots and brackets of a function sampled on scan nodes.

    Returns the indices i with ``g[i] == 0`` (roots on a node, which a
    strict sign-change test would miss; symmetric configurations hit them
    reliably) and the indices i with ``g[i]`` and ``g[i + 1]`` of strictly
    opposite sign.  NaN entries (unsampled nodes) take part in neither.
    """
    sign = np.sign(g)
    return np.nonzero(sign == 0.0)[0], np.nonzero(sign[:-1] * sign[1:] < 0)[0]


class LineScan(_Record):
    """Scan nodes of a line q = q0, their end positions and the ends' range.

    ``end_min`` and ``end_max`` are Python floats, both NaN when an end is.
    ``run`` is the ends' :func:`_monotone_run`, None when they have none.
    """

    __slots__ = _fields = ("p_grid", "ends", "end_min", "end_max", "run")

    def __init__(
        self,
        p_grid: np.ndarray,
        ends: np.ndarray,
        end_min: float,
        end_max: float,
        run: tuple | None,
    ) -> None:
        _set(self, "p_grid", p_grid)
        _set(self, "ends", ends)
        _set(self, "end_min", end_min)
        _set(self, "end_max", end_max)
        _set(self, "run", run)


def _monotone_run(ends: np.ndarray) -> tuple[list, float] | None:
    """Two or more ends with no NaN step as a non-decreasing list and flip:
    as they are and 1.0 if they never fall, negated and -1.0 if they never
    rise.  Other ends have no run (None)."""
    # inf - inf is a NaN step, and a step between finite ends of opposite
    # signs past 1.8e308 overflows to an infinite one of the right sign
    with np.errstate(invalid="ignore", over="ignore"):
        diff = np.diff(ends)
    if ends.size > 1:
        # a NaN step fails both tests
        if (diff >= 0).all():
            return ends.tolist(), 1.0
        if (diff <= 0).all():
            return (-ends).tolist(), -1.0
    return None


def _scan_line(p_lo: float, p_hi: float, q0: float, end_q) -> LineScan:
    """The 1025 scan nodes of the line q = q0, their end positions and run.

    ``end_q`` maps an (m, 2) array of (p, q0) rows to the end position of
    each row.  The end positions are kept contiguous: a column view of the
    map's output would make every later pass over them strided.
    """
    n_scan = 1025
    p_grid = np.linspace(p_lo, p_hi, n_scan)
    ends = np.ascontiguousarray(end_q(np.column_stack([p_grid, np.full(n_scan, q0)])))
    run = _monotone_run(ends)
    return LineScan(p_grid, ends, float(ends.min()), float(ends.max()), run)


def _crossings(
    ends: np.ndarray, run: tuple | None, target: float
) -> tuple[list[int], list[int]]:
    """The nodes and brackets of :func:`_sign_change_brackets` of
    ``ends - target``, for a finite target, as lists of indices in scan
    order.  In the ends' :func:`_monotone_run` ``run``, which meets the
    target on adjacent nodes and crosses it strictly at most once, two
    binary searches find both; without a run, the pass over all nodes does."""
    if run is None:
        nodes, brackets = _sign_change_brackets(ends - target)
        return nodes.tolist(), brackets.tolist()
    values, flip = run
    value = flip * target
    i = bisect_left(values, value)
    j = bisect_right(values, value, i)
    if i < j:
        return list(range(i, j)), []
    return [], [i - 1] if 0 < i < len(values) else []


def _scan_crossings(scan: LineScan, targets: list[float]) -> list[tuple]:
    """:func:`_crossings` of each target on a scan, or none, ``((), ())``,
    for a target outside [end_min, end_max] of the scan or not finite.  A
    NaN end makes both bounds NaN, and then no finite target is skipped."""
    ends, end_min, end_max, run = scan.ends, scan.end_min, scan.end_max, scan.run
    found = []
    for target in targets:
        # comparisons with NaN are false, so a NaN end never skips
        if target < end_min or target > end_max or not math.isfinite(target):
            found.append(((), ()))
        else:
            found.append(_crossings(ends, run, target))
    return found


def _bisect_brackets(
    g, lo: np.ndarray, hi: np.ndarray, glo: np.ndarray, max_iter: int, width: float
) -> np.ndarray:
    """Bisect many sign-change brackets in lockstep; returns one root each.

    ``g(x, rows)`` evaluates the function of each listed bracket row at
    x.  Every row follows the scalar rule: halve toward the sign change,
    and stop at the midpoint once g vanishes there or the bracket is
    narrower than ``width``.  A row also stops once its midpoint rounds
    onto an endpoint: from then on every halving keeps or collapses the
    bracket onto that same midpoint, so the scalar loop would return it
    too.  A row still open after ``max_iter`` halvings returns the
    midpoint of its last bracket.
    """
    lo, hi, glo = lo.copy(), hi.copy(), glo.copy()
    root = np.empty_like(lo)
    rows = np.arange(lo.size)
    for _ in range(max_iter):
        mid = 0.5 * (lo[rows] + hi[rows])
        stop = (mid == lo[rows]) | (mid == hi[rows]) | (hi[rows] - lo[rows] < width)
        root[rows[stop]] = mid[stop]
        rows, mid = rows[~stop], mid[~stop]
        if not rows.size:
            break
        gm = g(mid, rows)
        zero = gm == 0.0
        root[rows[zero]] = mid[zero]
        rows, mid, gm = rows[~zero], mid[~zero], gm[~zero]
        same = np.sign(gm) == np.sign(glo[rows])
        lo[rows[same]] = mid[same]
        glo[rows[same]] = gm[same]
        hi[rows[~same]] = mid[~same]
    root[rows] = 0.5 * (lo[rows] + hi[rows])
    return root


def _line_roots(
    scan: LineScan, q0: float, targets: list[float], t: int, K: float
) -> list[list[float]]:
    """Momenta on a scanned line q = q0 whose end position meets each target.

    ``scan.ends`` holds the end positions of the nodes ``scan.p_grid``
    after ``t`` steps of the map with kick strength ``K``.  A target's
    roots are the nodes whose end equals it, then one root per strict
    sign change of ``ends - target`` in scan order, each bisected to a
    1e-13 wide bracket: exactly the nodes and brackets of
    :func:`_sign_change_brackets`, with NaN ends in neither, as
    :func:`_scan_crossings` finds them, so a target the scan cannot reach
    has no root.  The seed search needs the bisection: its off-center sum
    is evaluated on the seed orbit itself.  :func:`_bisect_brackets`
    bisects every target's brackets together, on :func:`_forward_many` ends.
    """
    p_grid = scan.p_grid
    crossings = _scan_crossings(scan, targets)
    idx = np.array([i for _, b in crossings for i in b], dtype=np.intp)
    goal = np.array([x for x, (_, b) in zip(targets, crossings) for _ in b], float)

    def g(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        pts = np.column_stack([x, np.full(x.size, q0)])
        return _forward_many(pts, t, K)[:, 1] - goal[rows]

    bisected = iter(_bisect_brackets(
        g, p_grid[idx], p_grid[idx + 1], scan.ends[idx] - goal, 200, 1e-13
    ).tolist())
    return [
        [float(p_grid[i]) for i in nodes] + [next(bisected) for _ in brackets]
        for nodes, brackets in crossings
    ]


def _integrable_seeds(
    alpha: GaussianPacket,
    beta: GaussianPacket,
    t: int,
    params: RotorParams,
    image_range: int,
) -> list[SeedTrajectory]:
    """Roots of the propagated shearing line against each image's q-line."""
    sigma = alpha.sigma
    sig_p = alpha.hbar / (2.0 * sigma)
    w = _SHEAR_HALFWIDTH_SIGMA * sig_p
    q0 = alpha.q1
    windings = range(-image_range, image_range + 1)
    targets = [beta.q1 + n_q for n_q in windings]
    scan = _scan_line(
        alpha.p1 - w,
        alpha.p1 + w,
        q0,
        lambda pts: _forward_many(pts, t, params.K)[:, 1],
    )
    roots = _line_roots(scan, q0, targets, t, params.K)
    starts = [(n_q, p) for n_q, found in zip(windings, roots) for p in found]
    ends = _forward_many(
        np.array([[p, q0] for _, p in starts]).reshape(-1, 2), t, params.K
    )
    seeds: list[SeedTrajectory] = []
    for (n_q, p_star), (p_end, q_end) in zip(starts, ends.tolist()):
        n_p = int(np.round(p_end - beta.p1))
        if abs(n_p) > image_range:
            continue
        start_dist = abs(p_star - alpha.p1) / sig_p
        end_dist = np.hypot(
            (p_end - beta.p1 - n_p) / sig_p, (q_end - (beta.q1 + n_q)) / sigma
        )
        if max(start_dist, end_dist) > _CAPTURE_SIGMA:
            continue
        seeds.append(
            SeedTrajectory(
                ic=(float(p_star), float(q0)),
                t=t,
                winding=(n_p, n_q),
            )
        )
    seeds.sort(key=lambda s: (s.winding, s.ic))
    return seeds


def _forward_ragged(pts: np.ndarray, steps: np.ndarray, K: float) -> np.ndarray:
    """Forward map applied steps[i] times to row i of an (m, 2) array.

    Rows are stepped in lockstep while their count lasts, each one with
    exactly the operations :func:`_forward_many` would apply to it alone.
    The rows are sorted by step count, most first, once: the rows still
    stepping are then a prefix, and each step updates a slice in place.
    """
    order = np.argsort(-steps)
    p = pts[order, 0]
    q = pts[order, 1]
    # live[k]: how many rows take a (k+1)-th step, those with more than k
    live = np.searchsorted(-steps[order], -np.arange(steps.max(initial=0)))
    for n in live.tolist():
        _step_forward(p[:n], q[:n], 1, K)
    out = np.empty((len(order), 2))
    out[order, 0] = p
    out[order, 1] = q
    return out


def _heteroclinic_seeds(
    alpha: GaussianPacket,
    beta: GaussianPacket,
    t: int,
    params: RotorParams,
    image_range: int,
) -> list[SeedTrajectory]:
    """Intersections of the alpha unstable curve with beta-image stable curves.

    A curve point z on the unstable manifold is a connector to the image
    center c exactly when its t-step endpoint lies on the stable manifold
    of c, i.e. when the endpoint's unstable-direction coefficient in the
    local frame at c vanishes.  That coefficient is scanned along germ
    levels of the unstable curve and refined by bisection; measuring it a
    few contraction steps deeper into the linear neighborhood (depth fixed
    per bracket so the refined function stays smooth) removes the
    curvature bias of the frame.

    Each level is scanned in one pass over both sides and every image:
    an endpoint is assigned the one image center it can be near, and
    only neighbours on one side near one image can bracket a root.  The
    node roots and brackets of every level are gathered first, and all the
    brackets are bisected together.  The connectors that pass the capture
    filter are returned in (winding, ic) order.  Copies of one connector
    are not merged here: the saddles they refine to are, in
    :func:`~ggwpd.semiclassics._merge_saddles`.
    """
    K = params.K
    fa = (alpha.p1, alpha.q1)
    fb = (beta.p1, beta.q1)
    _check_fixed_point(fa, params)
    _check_fixed_point(fb, params)
    lam_u, v_u, _, _ = _hyperbolic_frame(fa, K)
    lam_u_b, (a, c), _, (b, d) = _hyperbolic_frame(fb, K)
    # the inverse of the frame [[a, b], [c, d]], columns v_u and v_s
    frame_inv = np.array([[d, -b], [-c, a]]) / (a * d - b * c)
    sigma = alpha.sigma
    max_depth = 4
    try:
        depth_scale = np.array([lam_u_b**m for m in range(max_depth + 1)])
    except OverflowError:
        raise NumericalError(
            f"the unstable multiplier {lam_u_b:.3g} at {fb} overflows at "
            f"frame depth {max_depth}; K = {K:g} is too large"
        ) from None

    s0 = _GERM_OFFSET
    n_levels = max(10, int(np.ceil(np.log(50.0 / s0) / np.log(abs(lam_u)))))
    if n_levels > _MAX_GERM_LEVELS:
        raise NumericalError(
            f"the unstable multiplier {lam_u:.10g} at {fa} needs {n_levels} germ "
            f"levels to leave the fixed point, more than {_MAX_GERM_LEVELS}; "
            f"K = {K:g} is too weakly hyperbolic"
        )
    n_scan = 2048
    logs = np.linspace(np.log(s0), np.log(abs(lam_u) * s0), n_scan)
    anchor = np.array(fa, dtype=float)

    def germ(side: np.ndarray, s: np.ndarray) -> np.ndarray:
        return anchor[None, :] + (side * s)[:, None] * v_u[None, :]

    def coefficient(w: np.ndarray, centers: np.ndarray, m: np.ndarray) -> np.ndarray:
        """Unstable coefficient of w in the depth-m frame at ``centers``:
        one 2x2 matrix-vector product per row, so each row rounds exactly
        as it would if projected on its own."""
        return (frame_inv @ (w - centers)[:, :, None])[:, 0, 0] / depth_scale[m]

    # per level: each node root's curve log-offset, side, level and image
    # (n_p, n_q)
    roots: list[tuple[np.ndarray, ...]] = []
    # per level: the same of each bracket's lower end, then its upper end,
    # value at the lower end, frozen frame depth and where its image
    # center's orbit is at that depth
    brackets: list[tuple[np.ndarray, ...]] = []
    # t-step endpoints of the current level's scan points, the + side's rows
    # first: level n's are one map step of level n - 1's
    sides = np.repeat([1.0, -1.0], n_scan)
    scan_logs = np.tile(logs, 2)
    ends = _forward_many(germ(sides, np.exp(scan_logs)), t - 1, K)
    for n in range(n_levels):
        ends = _forward_many(ends, 1, K)
        # _CAPTURE_RADIUS is below 1/2, so an endpoint is near at most one
        # image center, and rounding its offset from beta names that image
        n_p = np.rint(ends[:, 0] - beta.p1)
        n_q = np.rint(ends[:, 1] - beta.q1)
        near = np.nonzero(
            (np.abs(n_p) <= image_range) & (np.abs(n_q) <= image_range)
        )[0]
        dp = ends[near, 0] - (beta.p1 + n_p[near])
        dq = ends[near, 1] - (beta.q1 + n_q[near])
        near = near[np.hypot(dp, dq) < _CAPTURE_RADIUS]
        if not near.size:
            continue
        # the image (n_p, n_q) each near endpoint names: near endpoint i's
        # is images[k[i]], the images in (n_p, n_q) order, which the
        # integer key keeps
        named = np.column_stack([n_p[near], n_q[near]]).astype(int)
        key = named[:, 0] * (np.ptp(named[:, 1]) + 1) + named[:, 1]
        _, first, k = np.unique(key, return_index=True, return_inverse=True)
        images = named[first]
        # walk[m] holds the near endpoints, then the image centers, m steps
        # further on: the centers' unfolded orbits give the deeper frames.
        # The depth is the number of leading steps that stay captured
        walk = np.empty((max_depth + 1, near.size + images.shape[0], 2))
        walk[0] = np.concatenate([ends[near], images + (beta.p1, beta.q1)])
        depth = np.zeros(near.size, dtype=int)
        captured = np.ones(near.size, dtype=bool)
        for m in range(1, max_depth + 1):
            walk[m] = _forward_many(walk[m - 1], 1, K)
            offset = walk[m, : near.size] - walk[m, near.size + k]
            captured &= ~(np.hypot(*offset.T) > _CAPTURE_RADIUS)
            depth[captured] = m
        walk, orbit = walk[:, : near.size], walk[:, near.size :]
        sign = np.sign(
            coefficient(walk[depth, np.arange(near.size)], orbit[depth, k], depth)
        )
        nodes = np.nonzero(sign == 0.0)[0]
        # sign changes between curve neighbours near one image: adjacent
        # rows of one side
        cross = np.nonzero(
            (np.diff(near) == 1)
            & (near[:-1] != n_scan - 1)
            & (k[:-1] == k[1:])
            & (sign[:-1] * sign[1:] < 0)
        )[0]
        # freeze the frame depth over each bracket: the refined coefficient
        # is then a smooth function of the curve parameter and plain
        # bisection is safe
        m = np.minimum(depth[cross], depth[cross + 1])
        center = orbit[m, k[cross]]
        glo = coefficient(walk[m, cross], center, m)
        ghi = coefficient(walk[m, cross + 1], center, m)
        # a crossing that vanishes at the frozen depth was an artifact of
        # depth switching
        real = np.sign(glo) * np.sign(ghi) < 0
        cross, m, glo, center = cross[real], m[real], glo[real], center[real]
        row = near[nodes]
        roots.append((scan_logs[row], sides[row], np.full(row.size, n), named[nodes]))
        row = near[cross]
        brackets.append((
            scan_logs[row], sides[row], np.full(row.size, n), named[cross],
            scan_logs[row + 1], glo, m, center,
        ))
    if not roots:
        return []

    lo, b_side, b_level, b_image, hi, glo, b_depth, b_center = map(
        np.concatenate, zip(*brackets)
    )
    b_steps = b_level + t + b_depth

    def g_bracket(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        w = _forward_ragged(germ(b_side[rows], np.exp(x)), b_steps[rows], K)
        return coefficient(w, b_center[rows], b_depth[rows])

    bisected = _bisect_brackets(g_bracket, lo, hi, glo, 80, 1e-15)
    log_star, side, level, image = map(
        np.concatenate, zip(*roots, (bisected, b_side, b_level, b_image))
    )
    z_star = _forward_ragged(germ(side, np.exp(log_star)), level, K)
    end = _forward_many(z_star, t, K)
    start_d = np.hypot(*(z_star - anchor[None, :]).T) / sigma
    end_d = np.hypot(*(end - (image + (beta.p1, beta.q1))).T) / sigma
    found = [
        SeedTrajectory(ic=(float(z[0]), float(z[1])), t=t, winding=tuple(n))
        for z, d0, d1, n in zip(z_star, start_d, end_d, image.tolist())
        if max(d0, d1) <= _CAPTURE_SIGMA
    ]
    found.sort(key=lambda s: (s.winding, s.ic))
    return found


def find_seeds(
    alpha: GaussianPacket,
    beta: GaussianPacket,
    t: int,
    params: RotorParams,
    image_range: int = 1,
    regime: str = "integrable",
) -> list[SeedTrajectory]:
    """Locate real representative trajectories from alpha toward beta images.

    Integrable regime: the shearing line through the alpha center is
    propagated t steps and intersected with the vertical line through each
    lattice image of the beta center.  Chaotic regime: heteroclinic
    intersections of the unstable manifold at the alpha center with the
    stable manifolds of the beta-image centers.  Branches whose start or
    endpoint sits further than ``_CAPTURE_SIGMA`` packet widths from the
    respective center are pruned; an empty list means no classically
    allowed transport was found within ``image_range``, which must be an
    integer of at least 0 (:class:`ConfigError` otherwise).
    """
    if t < 1:
        raise ValueError("seed trajectories need at least one step")
    image_range = _require_int("image_range", image_range, 0)
    if regime == "integrable":
        return _integrable_seeds(alpha, beta, t, params, image_range)
    if regime == "chaotic":
        return _heteroclinic_seeds(alpha, beta, t, params, image_range)
    raise ConfigError(f"unknown regime {regime!r}")
