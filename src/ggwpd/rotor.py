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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, NumericalError, RunawayError
from .packets import ComplexPhasePoint, GaussianPacket

TWO_PI = 2.0 * np.pi

# Eigenvector seed offset for manifold germs.  Balances the curvature error
# of the linear segment against roundoff amplification along the orbit.
_GERM_OFFSET = 1e-8

# Seeds or saddles of one winding closer than this in every real and
# imaginary component of their initial point are one stationary point
# reached twice.  Such copies agree to rounding (1.4e-17 apart for the two
# merges of the chaotic-fig6 preset), while distinct ones sit many orders
# further apart, so a tolerance well inside that gap separates them.
_MERGE_TOL = 1e-9

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
# reads endpoints in that center's linear stable/unstable frame.
_CAPTURE_RADIUS = 0.3


@dataclass(frozen=True)
class RotorParams:
    """Kicking strength of the standard-map rotor; K = 0 is a pure shear."""

    K: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.K):
            raise ValueError(f"kick strength must be finite, got {self.K!r}")
        if self.K < 0.0:
            raise ValueError("kick strength must be non-negative")


@dataclass(frozen=True)
class SeedTrajectory:
    """A real off-center trajectory feeding the complex saddle search.

    ``winding = (n_p, n_q)`` identifies the lattice image of the final
    packet the trajectory lands on: the targeted center is
    ``(p_beta + n_p, q_beta + n_q)`` on the unfolded torus.
    """

    ic: tuple[float, float]
    t: int
    winding: tuple[int, int]


@dataclass(frozen=True)
class ComplexTrajectory:
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

    points: tuple[ComplexPhasePoint, ...]
    action: complex
    legs: tuple[tuple[complex, complex, complex, complex], ...]

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

    def stability_determinant(self) -> complex:
        return self.m11 * self.m22 - self.m12 * self.m21


@dataclass(frozen=True)
class ManifoldCurve:
    """An ordered polyline approximating an invariant curve."""

    kind: str  # "unstable" | "stable" | "shearing"
    points: np.ndarray  # (n, 2) columns (p, q)


def map_step(point: ComplexPhasePoint, params: RotorParams) -> ComplexPhasePoint:
    """One forward application of the kick-then-drift map on the covering space."""
    p = point.p1
    q = point.q1
    p1 = p - (params.K / TWO_PI) * np.sin(TWO_PI * q)
    q1 = q + p1
    return ComplexPhasePoint(p1, q1)


def inverse_map_step(
    point: ComplexPhasePoint, params: RotorParams
) -> ComplexPhasePoint:
    """Exact inverse of :func:`map_step` (drift back, then unkick)."""
    p1 = point.p1
    q1 = point.q1
    q = q1 - p1
    p = p1 + (params.K / TWO_PI) * np.sin(TWO_PI * q)
    return ComplexPhasePoint(p, q)


def propagate(
    ic: ComplexPhasePoint,
    t: int,
    params: RotorParams,
    runaway_bound: float = 10.0,
) -> ComplexTrajectory:
    """Iterate the unfolded map for t steps from a complex initial point.

    Parameters
    ----------
    ic : ComplexPhasePoint
        Initial condition (real values are propagated exactly as the real
        map would).
    t : int
        Number of map applications, t >= 0.
    params : RotorParams
    runaway_bound : float
        Abort with :class:`RunawayError` when an imaginary part exceeds
        this magnitude, or when P or Q stops being finite (NaN passes any
        magnitude test); diverging imaginary parts signal a trajectory
        escaping through a branch cut, not recoverable state.

    Returns
    -------
    ComplexTrajectory
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    K = params.K
    P = ic.p1
    Q = ic.q1
    pts = [ic]
    m11, m12, m21, m22 = 1.0 + 0j, 0j, 0j, 1.0 + 0j
    legs = [(m11, m12, m21, m22)]
    S = 0.0 + 0.0j
    for step in range(t):
        try:
            cos = cmath.cos(TWO_PI * Q)
            c = K * cos
            P1 = P - (K / TWO_PI) * cmath.sin(TWO_PI * Q)
            Q1 = Q + P1
            dQ = Q1 - Q
            S += dQ * dQ / 2.0 + (K / (4.0 * math.pi**2)) * cos
            # kick leg [[1, -c], [0, 1]] M, then drift leg [[1, 0], [1, 1]] M
            m11, m12 = m11 - c * m21, m12 - c * m22
            legs.append((m11, m12, m21, m22))
            m21, m22 = m21 + m11, m22 + m12
            legs.append((m11, m12, m21, m22))
            P, Q = P1, Q1
            # NaN fails every comparison, so finiteness is tested on its own;
            # the sum is NaN or inf when any part is (or overflows past 1e308)
            runaway = (
                abs(P.imag) > runaway_bound
                or abs(Q.imag) > runaway_bound
                or not math.isfinite(abs(P) + abs(Q))
            )
        except (OverflowError, ValueError):
            # cmath's sin and cos raise on an overflowing result or an
            # infinite argument, and abs() on an overflowing modulus, where
            # numpy returns the inf or NaN the test above refuses
            runaway = True
        if runaway:
            raise RunawayError(step + 1, (P, Q))
        pts.append(ComplexPhasePoint(P, Q))
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

def _forward_many(pts: np.ndarray, n: int, K: float) -> np.ndarray:
    """Apply the unfolded forward map n times to an (m, 2) array of (p, q)."""
    p = pts[:, 0].copy()
    q = pts[:, 1].copy()
    for _ in range(n):
        p -= (K / TWO_PI) * np.sin(TWO_PI * q)
        q += p
    return np.column_stack([p, q])


def _backward_many(pts: np.ndarray, n: int, K: float) -> np.ndarray:
    p = pts[:, 0].copy()
    q = pts[:, 1].copy()
    for _ in range(n):
        q -= p
        p += (K / TWO_PI) * np.sin(TWO_PI * q)
    return np.column_stack([p, q])


def iterate_map(points: np.ndarray, t: int, params: RotorParams) -> np.ndarray:
    """Vectorized unfolded forward map on an (n, 2) array of real (p, q) rows."""
    return _forward_many(np.asarray(points, dtype=float), t, params.K)


def _single_step_matrix(q: float, K: float) -> np.ndarray:
    c = K * np.cos(TWO_PI * q)
    return np.array([[1.0, -c], [1.0, 1.0 - c]])


def _hyperbolic_frame(fp: tuple[float, float], K: float):
    """Eigen-decomposition of the single-step stability at a fixed point.

    Returns (lam_unstable, v_unstable, lam_stable, v_stable) with unit
    eigenvectors.  Raises ConfigError when the point is not hyperbolic.
    """
    M = _single_step_matrix(fp[1], K)
    if abs(np.trace(M)) <= 2.0:
        raise ConfigError(
            f"fixed point {fp} is not hyperbolic (|trace| = {abs(np.trace(M)):.4f} <= 2)"
        )
    evals, evecs = np.linalg.eig(M)
    evals = evals.real
    evecs = evecs.real
    iu = int(np.argmax(np.abs(evals)))
    js = 1 - iu
    vu = evecs[:, iu] / np.hypot(*evecs[:, iu])
    vs = evecs[:, js] / np.hypot(*evecs[:, js])
    return float(evals[iu]), vu, float(evals[js]), vs


def _check_fixed_point(fp: tuple[float, float], params: RotorParams) -> None:
    """Refuse a point the folded map moves by more than rounding.

    At a fixed point sin(2 pi q) vanishes, but rounding 2 pi q leaves the
    float sine up to pi |q| eps off zero (1.2e-16 at q = 0.5), and the
    kick scales that by K / 2pi: a move of about K |q| eps / 2 in p and in
    q.  The bound allows several times that on top of 1e-12.  From K of
    about 1e15 on it passes every point: the kick's rounding then exceeds
    the largest folded displacement, 0.71.
    """
    nxt = _forward_many(np.array([fp], dtype=float), 1, params.K)[0]
    dp = (nxt[0] - fp[0]) - round(nxt[0] - fp[0])
    dq = (nxt[1] - fp[1]) - round(nxt[1] - fp[1])
    eps = np.finfo(float).eps
    if np.hypot(dp, dq) > 1e-12 + 4.0 * params.K * max(1.0, abs(fp[1])) * eps:
        raise ConfigError(f"{fp} is not a fixed point of the folded map")


def _grow_invariant_curve(
    fp: tuple[float, float],
    params: RotorParams,
    arc_budget: float,
    inverse: bool,
    max_points: int,
) -> np.ndarray:
    """Ordered polyline of the unstable (or stable) manifold through fp.

    The curve is parametrized by the signed distance along the germ
    eigenvector; a fundamental segment [s0, |lambda| s0) on each side of
    the fixed point is iterated level by level, and each level's images
    are refined by inserting log-midpoints until consecutive points are
    closer than ``_CURVE_SPACING``.  Iterating with the map itself keeps
    every emitted point on the manifold to machine precision.

    Refinement is breadth-first: each round splits every interval that is
    still too long, mapping all of their midpoints in one call.  Whether
    an interval splits depends only on its two endpoints, so the point set
    is the one a left-to-right walk inserting one midpoint at a time gives.
    """
    lam_u, v_u, lam_s, v_s = _hyperbolic_frame(fp, params.K)
    if inverse:
        lam, v = 1.0 / lam_s, v_s
    else:
        lam, v = lam_u, v_u
    step = _backward_many if inverse else _forward_many
    s0 = _GERM_OFFSET
    anchor = np.asarray(fp, dtype=float)

    # enough levels for any reasonable budget; growth stops on budget anyway
    n_levels = max(4, int(np.ceil(np.log(64.0 / s0) / np.log(abs(lam)))))

    def level_points(side: float, n: int, s_vals: np.ndarray) -> np.ndarray:
        germ = anchor[None, :] + side * s_vals[:, None] * v[None, :]
        return step(germ, n, params.K)

    # signed curve parameter of a germ offset s on a given side after n steps
    def signed_param(side: float, n: int, s_vals: np.ndarray) -> np.ndarray:
        return side * s_vals * lam**n

    # curve parameters and points, one array each per (level, side) in
    # growth order; the anchor comes first
    param_parts = [np.zeros(1)]
    point_parts = [anchor[None, :]]
    curve = anchor[None, :]
    total_len = 0.0
    n_base = 48
    for n in range(n_levels):
        if total_len >= arc_budget:
            break
        for side in (+1.0, -1.0):
            logs = np.linspace(np.log(s0), np.log(abs(lam) * s0), n_base)
            pts = level_points(side, n, np.exp(logs))
            while True:
                if len(pts) > max_points:
                    raise NumericalError(
                        "manifold refinement exceeded the point-count cap"
                    )
                gaps = np.hypot(*np.diff(pts, axis=0).T)
                long = (gaps > _CURVE_SPACING) & (np.diff(logs) > 1e-14)
                split = np.nonzero(long)[0]
                if split.size == 0:
                    break
                mids = 0.5 * (logs[split] + logs[split + 1])
                logs = np.insert(logs, split + 1, mids)
                pts = np.insert(pts, split + 1, level_points(side, n, np.exp(mids)), 0)
            param_parts.append(signed_param(side, n, np.exp(logs)))
            point_parts.append(pts)
        # arc length of everything grown so far, summed in curve order; the
        # sort is stable so equal parameters keep their growth order
        order = np.argsort(np.concatenate(param_parts), kind="stable")
        curve = np.concatenate(point_parts)[order]
        total_len = float(np.sum(np.hypot(*np.diff(curve, axis=0).T)))
    # truncate symmetrically in parameter once the budget is exceeded
    if total_len > arc_budget:
        seglen = np.hypot(*np.diff(curve, axis=0).T)
        cum = np.concatenate([[0.0], np.cumsum(seglen)])
        # keep the centered window of the requested length
        excess = (cum[-1] - arc_budget) / 2.0
        lo = int(np.searchsorted(cum, excess))
        hi = int(np.searchsorted(cum, cum[-1] - excess, side="right"))
        curve = curve[max(lo, 0) : min(hi + 1, len(curve))]
    return curve


def unstable_manifold(
    fp: tuple[float, float],
    params: RotorParams,
    arc_budget: float = 6.0,
    max_points: int = 200_000,
) -> ManifoldCurve:
    """Unstable manifold of a hyperbolic fixed point as an ordered polyline.

    Grows a germ along the unstable eigenvector of the single-step
    stability matrix and iterates the forward map with adaptive point
    insertion until the accumulated arc length reaches ``arc_budget``.
    """
    _check_fixed_point(fp, params)
    pts = _grow_invariant_curve(
        fp, params, arc_budget, inverse=False, max_points=max_points
    )
    return ManifoldCurve(kind="unstable", points=pts)


def stable_manifold(
    fp: tuple[float, float],
    params: RotorParams,
    arc_budget: float = 6.0,
    max_points: int = 200_000,
) -> ManifoldCurve:
    """Stable manifold, grown with the inverse map along the stable direction."""
    _check_fixed_point(fp, params)
    pts = _grow_invariant_curve(
        fp, params, arc_budget, inverse=True, max_points=max_points
    )
    return ManifoldCurve(kind="stable", points=pts)


def shearing_manifold(packet: GaussianPacket) -> ManifoldCurve:
    """Vertical line of initial conditions through the packet center.

    It reaches ``_SHEAR_HALFWIDTH_SIGMA`` momentum uncertainties to either
    side, the interval the integrable seed search scans.
    """
    sig_p = packet.hbar / (2.0 * packet.sigma)
    w = _SHEAR_HALFWIDTH_SIGMA * sig_p
    n = max(9, int(np.ceil(2.0 * w / _CURVE_SPACING)) + 1)
    p = np.linspace(packet.p1 - w, packet.p1 + w, n)
    q = np.full_like(p, packet.q1)
    return ManifoldCurve(kind="shearing", points=np.column_stack([p, q]))


def propagate_curve(curve: ManifoldCurve, t: int, params: RotorParams) -> ManifoldCurve:
    """Forward image of a curve under t unfolded map steps (same ordering)."""
    pts = _forward_many(curve.points, t, params.K)
    return ManifoldCurve(kind=curve.kind, points=pts)


def curve_to_csv(curve: ManifoldCurve, path) -> None:
    """Dump a curve as a plot-ready CSV with columns index, p, q."""
    rows = "".join(
        f"{i},{p:.17g},{q:.17g}\n" for i, (p, q) in enumerate(curve.points.tolist())
    )
    with open(path, "w", newline="") as fh:
        fh.write("index,p,q\n" + rows)


# ---------------------------------------------------------------------------
# seed trajectories
# ---------------------------------------------------------------------------

def _merge_duplicates(items, place) -> list:
    """``items`` without duplicates, the first of each group kept, in input order.

    ``place(item)`` returns ``(winding, P, Q)``.  An item duplicates a kept
    one when their windings are equal and every real and imaginary part of
    P and Q differs by at most ``_MERGE_TOL``.  This is a distance test, so
    two copies on either side of a rounding edge still merge.
    """
    kept, places = [], []
    for item in items:
        winding, P, Q = place(item)
        parts = (P.real, P.imag, Q.real, Q.imag)
        if not any(
            w == winding
            and all(abs(a - b) <= _MERGE_TOL for a, b in zip(parts, other))
            for w, other in places
        ):
            kept.append(item)
            places.append((winding, parts))
    return kept


def _sign_change_brackets(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Roots and brackets of a function sampled on scan nodes.

    Returns the indices i with ``g[i] == 0`` (roots on a node, which a
    strict sign-change test would miss; symmetric configurations hit them
    reliably) and the indices i with ``g[i]`` and ``g[i + 1]`` of strictly
    opposite sign.  NaN entries (unsampled nodes) take part in neither.
    """
    sign = np.sign(g)
    return np.nonzero(sign == 0.0)[0], np.nonzero(sign[:-1] * sign[1:] < 0)[0]


def _forward_q(p: float, q: float, t: int, K: float) -> float:
    """End position of one (p, q) after t forward steps, on Python floats.

    Exactly the operations :func:`_forward_many` applies to one row, in
    the same order, so the two agree bit for bit.
    """
    for _ in range(t):
        p -= (K / TWO_PI) * math.sin(TWO_PI * q)
        q += p
    return q


class LineScan(NamedTuple):
    """Scan nodes of a line q = q0, their end positions and the ends' range.

    ``end_min`` and ``end_max`` are Python floats, both NaN when an end is.
    """

    p_grid: np.ndarray
    ends: np.ndarray
    end_min: float
    end_max: float


def _scan_line(p_lo: float, p_hi: float, q0: float, end_q) -> LineScan:
    """The 1025 scan nodes of the line q = q0 and their end positions.

    ``end_q`` maps an (m, 2) array of (p, q0) rows to the end position of
    each row.  The end positions are kept contiguous: a column view of the
    map's output would make every later pass over them strided.
    """
    n_scan = 1025
    p_grid = np.linspace(p_lo, p_hi, n_scan)
    ends = np.ascontiguousarray(end_q(np.column_stack([p_grid, np.full(n_scan, q0)])))
    return LineScan(p_grid, ends, float(ends.min()), float(ends.max()))


def _line_roots(
    scan: LineScan,
    q0: float,
    targets: list[float],
    t: int,
    K: float,
) -> list[list[float]]:
    """Momenta on a scanned line q = q0 whose end position meets each target.

    ``scan.ends`` holds the end positions of the nodes ``scan.p_grid``
    after ``t`` steps of the map with kick strength ``K``.  Every sign
    change of ``ends - target`` is bisected to a 1e-13 wide bracket.  Per
    target the node roots come first, then one root per bracket in scan
    order.

    A target outside [end_min, end_max] of the scan has no root and is
    skipped.  A NaN end makes both bounds NaN, and then no target is
    skipped.

    Each midpoint is evaluated by :func:`_forward_q` on Python floats,
    since one numpy row costs about 25 us of call overhead for two map
    steps.  Refining a call's brackets together with
    :func:`_bisect_brackets` does not pay back its row bookkeeping
    either: a call has 0 or 1 bracket per target.
    """
    p_grid, ends, end_min, end_max = scan
    roots = []
    for target in targets:
        # comparisons with NaN are false, so a NaN end never skips
        if target < end_min or target > end_max:
            roots.append([])
            continue
        g = ends - target
        nodes, brackets = _sign_change_brackets(g)
        found = [float(p_grid[i]) for i in nodes]
        for i in brackets.tolist():
            lo, hi, glo = float(p_grid[i]), float(p_grid[i + 1]), float(g[i])
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                gm = _forward_q(mid, q0, t, K) - target
                if gm == 0.0 or (hi - lo) < 1e-13:
                    lo = hi = mid
                    break
                # glo is never 0 or NaN; a NaN gm moves hi, as np.sign did
                if gm > 0.0 if glo > 0.0 else gm < 0.0:
                    lo, glo = mid, gm
                else:
                    hi = mid
            found.append(0.5 * (lo + hi))
        roots.append(found)
    return roots


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
    """
    p = pts[:, 0].copy()
    q = pts[:, 1].copy()
    for k in range(int(steps.max(initial=0))):
        rows = steps > k
        p[rows] -= (K / TWO_PI) * np.sin(TWO_PI * q[rows])
        q[rows] += p[rows]
    return np.column_stack([p, q])


def _bisect_brackets(
    g,
    lo: np.ndarray,
    hi: np.ndarray,
    glo: np.ndarray,
    max_iter: int,
    width: float,
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


def _unstable_coefficient(
    points: np.ndarray,
    centers: np.ndarray,
    frame_inv: np.ndarray,
) -> np.ndarray:
    """Coefficient along the local unstable direction, one per row.

    One 2x2 matrix-vector product per row, so each row rounds exactly as
    it would if projected on its own.
    """
    return (frame_inv @ (points - centers)[:, :, None])[:, 0, 0]


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

    Every bracket of every level, side and image is gathered first and
    all of them are bisected together; the capture filter and the
    duplicate merge then run in scan order, so the first of several
    merging connectors is the one kept.
    """
    K = params.K
    fa = (alpha.p1, alpha.q1)
    fb = (beta.p1, beta.q1)
    _check_fixed_point(fa, params)
    _check_fixed_point(fb, params)
    lam_u, v_u, _, _ = _hyperbolic_frame(fa, K)
    lam_u_b, v_u_b, lam_s_b, v_s_b = _hyperbolic_frame(fb, K)
    frame_inv = np.linalg.inv(np.column_stack([v_u_b, v_s_b]))
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
    n_scan = 2048
    logs = np.linspace(np.log(s0), np.log(abs(lam_u) * s0), n_scan)
    anchor = np.array(fa, dtype=float)

    def germ(side: np.ndarray, s: np.ndarray) -> np.ndarray:
        return anchor[None, :] + (side * s)[:, None] * v_u[None, :]

    shifts = range(-image_range, image_range + 1)
    image_index = [(i, j) for i in range(len(shifts)) for j in range(len(shifts))]
    images = [(shifts[i], shifts[j]) for i, j in image_index]
    # unfolded orbit of each image center, for the deeper-frame evaluation
    orbits = np.empty((len(images), max_depth + 1, 2))
    for k, (n_p, n_q) in enumerate(images):
        orbits[k, 0] = (beta.p1 + n_p, beta.q1 + n_q)
        for m in range(max_depth):
            orbits[k, m + 1] = _forward_many(orbits[k, m][None, :], 1, K)[0]

    def coefficient(w: np.ndarray, k, m: np.ndarray) -> np.ndarray:
        """Unstable coefficient of w in the depth-m frame of image k."""
        return _unstable_coefficient(w, orbits[k, m], frame_inv) / depth_scale[m]

    # per (level, side, image) in scan order, node roots before brackets:
    # curve log-offset (a bracket's lower end), side, level, image and
    # whether the candidate is a bracket still to refine
    cands: list[tuple[np.ndarray, ...]] = []
    # per bracket: upper end, value at the lower end and frozen frame depth
    brackets: list[tuple[np.ndarray, ...]] = []
    # scan points of the current level on each side, one map step per level
    level = {side: germ(np.full(n_scan, side), np.exp(logs)) for side in (+1.0, -1.0)}
    for n in range(n_levels):
        for side in (+1.0, -1.0):
            ends = _forward_many(level[side], t, K)
            level[side] = _forward_many(level[side], 1, K)
            # offsets of every endpoint from each image's p and q, and
            # whether they fall inside the capture box; the distance is
            # only taken inside the box, since hypot(dp, dq) >= |dp|, |dq|
            dp = [ends[:, 0] - (beta.p1 + n_p) for n_p in shifts]
            dq = [ends[:, 1] - (beta.q1 + n_q) for n_q in shifts]
            box_p = [np.abs(d) < _CAPTURE_RADIUS for d in dp]
            box_q = [np.abs(d) < _CAPTURE_RADIUS for d in dq]
            for k, (i, j) in enumerate(image_index):
                near = np.nonzero(box_p[i] & box_q[j])[0]
                near = near[np.hypot(dp[i][near], dq[j][near]) < _CAPTURE_RADIUS]
                if not near.size:
                    continue
                # walk[m] holds the near endpoints m steps further on; the
                # depth is the number of leading steps that stay captured
                walk = [ends[near]]
                depth = np.zeros(near.size, dtype=int)
                captured = np.ones(near.size, dtype=bool)
                for m in range(1, max_depth + 1):
                    walk.append(_forward_many(walk[-1], 1, K))
                    off = walk[-1] - orbits[k, m][None, :]
                    far = np.hypot(*off.T) > _CAPTURE_RADIUS
                    captured &= ~far
                    depth[captured] = m
                walk = np.stack(walk)
                gvals = np.full(n_scan, np.nan)
                gvals[near] = coefficient(walk[depth, np.arange(near.size)], k, depth)
                slot = np.full(n_scan, -1)
                slot[near] = np.arange(near.size)
                nodes, cross = _sign_change_brackets(gvals)
                # freeze the frame depth over each bracket: the refined
                # coefficient is then a smooth function of the curve
                # parameter and plain bisection is safe
                i_lo, i_hi = slot[cross], slot[cross + 1]
                m = np.minimum(depth[i_lo], depth[i_hi])
                glo = coefficient(walk[m, i_lo], k, m)
                ghi = coefficient(walk[m, i_hi], k, m)
                # a crossing that vanishes at the frozen depth was an
                # artifact of depth switching
                real = np.sign(glo) * np.sign(ghi) < 0
                cross, m, glo = cross[real], m[real], glo[real]
                size = nodes.size + cross.size
                cands.append(
                    (
                        np.concatenate([logs[nodes], logs[cross]]),
                        np.full(size, side),
                        np.full(size, n),
                        np.full(size, k),
                        np.concatenate(
                            [np.zeros(nodes.size, bool), np.ones(cross.size, bool)]
                        ),
                    )
                )
                brackets.append((logs[cross + 1], glo, m))
    if not cands:
        return []

    log_star, c_side, c_level, c_image, is_bracket = map(np.concatenate, zip(*cands))
    hi, glo, b_depth = map(np.concatenate, zip(*brackets))
    b_slot = np.nonzero(is_bracket)[0]
    b_side, b_image = c_side[b_slot], c_image[b_slot]
    b_steps = c_level[b_slot] + t + b_depth

    def g_bracket(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        w = _forward_ragged(germ(b_side[rows], np.exp(x)), b_steps[rows], K)
        return coefficient(w, b_image[rows], b_depth[rows])

    log_star[b_slot] = _bisect_brackets(
        g_bracket, log_star[b_slot], hi, glo, 80, 1e-15
    )

    z_star = _forward_ragged(germ(c_side, np.exp(log_star)), c_level, K)
    end = _forward_many(z_star, t, K)
    start_d = np.hypot(*(z_star - anchor[None, :]).T) / sigma
    end_d = np.hypot(*(end - orbits[c_image, 0]).T) / sigma
    found = _merge_duplicates(
        (
            SeedTrajectory(
                ic=(float(z[0]), float(z[1])),
                t=t,
                winding=images[k],
            )
            for z, d0, d1, k in zip(z_star, start_d, end_d, c_image)
            if max(d0, d1) <= _CAPTURE_SIGMA
        ),
        lambda s: (s.winding, *s.ic),
    )
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
    allowed transport was found within ``image_range``.
    """
    if t < 1:
        raise ValueError("seed trajectories need at least one step")
    if regime == "integrable":
        return _integrable_seeds(alpha, beta, t, params, image_range)
    if regime == "chaotic":
        return _heteroclinic_seeds(alpha, beta, t, params, image_range)
    raise ConfigError(f"unknown regime {regime!r}")
