"""Kicked-rotor map, stability, action bookkeeping, and transport geometry."""
import csv
import hashlib
import io
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from ggwpd import rotor
from ggwpd.errors import ConfigError, NumericalError, RunawayError
from ggwpd.experiment import (
    config_from_dict,
    packets_for,
    prepare_scenario,
    preset,
    run_sweep,
)
from ggwpd.packets import ComplexPhasePoint, GaussianPacket
from ggwpd.rotor import (
    _CAPTURE_RADIUS,
    _CURVE_SPACING,
    _GERM_OFFSET,
    _SHEAR_HALFWIDTH_SIGMA,
    ComplexTrajectory,
    LineScan,
    ManifoldCurve,
    RotorParams,
    SeedTrajectory,
    _bisect_brackets,
    _check_fixed_point,
    _crossings,
    _forward_many,
    _forward_ragged,
    _hyperbolic_frame,
    _line_roots,
    _monotone_run,
    _scan_line,
    _sign_change_brackets,
    _step_backward,
    _step_forward,
    _write_g17,
    curve_to_csv,
    find_seeds,
    iterate_map,
    propagate,
    propagate_curve,
    shearing_manifold,
    stable_manifold,
    unstable_manifold,
)
from ggwpd.semiclassics import (
    _MERGE_TOL,
    _WAVE_HALFWIDTH_SIGMA,
    SaddleTrajectory,
    _merge_saddles,
)
from oracles import inverse_map_step, map_step

K_CHAOTIC = RotorParams(K=8.25)
K_MILD = RotorParams(K=0.05)


def _packet_pair(p_a, q_a, p_b, q_b, N=50):
    hbar = 1.0 / (2.0 * np.pi * N)
    b = np.pi * N
    return GaussianPacket(p_a, q_a, b, hbar), GaussianPacket(p_b, q_b, b, hbar)


def test_map_step_matches_hand_formula():
    """One step of ``propagate`` and of the tests' scalar reference."""
    z = ComplexPhasePoint(0.3 + 0.02j, 0.7 - 0.01j)
    p1 = z.p1 - (8.25 / (2 * np.pi)) * np.sin(2 * np.pi * z.q1)
    for out in (map_step(z, K_CHAOTIC), propagate(z, 1, K_CHAOTIC).final):
        assert abs(out.p1 - p1) < 1e-15
        assert abs(out.q1 - (z.q1 + p1)) < 1e-15


@pytest.mark.parametrize("K", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_kick_strength_is_refused(K):
    """NaN passes a sign test alone, and a NaN kick makes the exact
    oracle return nan+nanj without an error."""
    with pytest.raises(ValueError, match="finite"):
        RotorParams(K)


def test_inverse_map_round_trip():
    for z in (
        ComplexPhasePoint(0.11, 0.83),
        ComplexPhasePoint(-0.4 + 0.05j, 1.9 - 0.12j),
    ):
        fwd = map_step(z, K_CHAOTIC)
        back = inverse_map_step(fwd, K_CHAOTIC)
        assert abs(back.p1 - z.p1) < 1e-13
        assert abs(back.q1 - z.q1) < 1e-13
        # and in the opposite composition order
        again = map_step(inverse_map_step(z, K_CHAOTIC), K_CHAOTIC)
        assert abs(again.p1 - z.p1) < 1e-13


_complex = st.complex_numbers(max_magnitude=1.0)


@settings(max_examples=60, deadline=None)
@given(
    re=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    im=st.tuples(st.floats(-0.2, 0.2), st.floats(-0.2, 0.2)),
    K=st.floats(0.0, 10.0),
)
def test_inverse_map_undoes_map_on_complex_points(re, im, K):
    """Imaginary parts stay at the saddles' scale: the kick grows like
    K sinh(2 pi Im Q), and the round trip's rounding with it."""
    P, Q = complex(re[0], im[0]), complex(re[1], im[1])
    z = ComplexPhasePoint(P, Q)
    back = inverse_map_step(map_step(z, RotorParams(K)), RotorParams(K))
    assert abs(back.p1 - P) < 1e-12
    assert abs(back.q1 - Q) < 1e-12


@settings(max_examples=60, deadline=None)
@given(P=_complex, Q=_complex, t=st.integers(0, 6), K=st.sampled_from([0.05, 8.25]))
# products of ~3.5e3 two legs before the end, entries of order one at it:
# the last two matrices carry |det - 1| = 3.9e-13 of the earlier rounding
@example(P=0.5034145688451773 + 0j, Q=0.5034145688451773 + 0j, t=4, K=8.25)
def test_unit_determinant_at_every_leg_endpoint_property(P, Q, t, K):
    """Kick and drift factors are unit triangular, so every recorded
    matrix -- there are 2t + 1 -- has determinant one up to the
    cancellation noise of the largest products met so far: rounding
    carried from earlier, larger legs stays when the entries shrink."""
    try:
        traj = propagate(ComplexPhasePoint(P, Q), t, RotorParams(K))
    except RunawayError:
        reject()
    assert len(traj.legs) == 2 * t + 1
    scale = 1.0
    for m11, m12, m21, m22 in traj.legs:
        det = m11 * m22 - m12 * m21
        scale = max(scale, abs(m11 * m22), abs(m12 * m21))
        assert abs(det - 1.0) < 1e-14 * scale


def test_iterate_map_matches_scalar_steps():
    pts = np.array([[0.1, 0.2], [0.35, 0.81], [-0.2, 1.4]])
    out = iterate_map(pts, 3, K_CHAOTIC)
    for row_in, row_out in zip(pts, out):
        z = ComplexPhasePoint(complex(row_in[0]), complex(row_in[1]))
        for _ in range(3):
            z = map_step(z, K_CHAOTIC)
        assert abs(z.p1 - row_out[0]) < 1e-12
        assert abs(z.q1 - row_out[1]) < 1e-12


def test_unit_determinant_along_trajectories():
    """Every accumulated stability matrix in ``legs`` has determinant one.

    The map is area preserving, and both the kick and drift leg
    factors are unit triangular, so any deviation flags an assembly bug.
    """
    for ic, t in (
        (ComplexPhasePoint(0.3, 0.4), 4),
        (ComplexPhasePoint(0.0095 - 0.0612j, -0.0612 - 0.0095j), 2),
    ):
        traj = propagate(ic, t, K_CHAOTIC)
        assert abs(traj.m11 * traj.m22 - traj.m12 * traj.m21 - 1.0) < 1e-10
        for leg in traj.legs:
            # entries grow like the Lyapunov stretch, so the determinant's
            # cancellation noise grows quadratically with them
            assert abs(np.linalg.det(np.reshape(leg, (2, 2))) - 1.0) < 1e-10


def test_single_step_action_literal():
    ic = ComplexPhasePoint(0.37, 0.21)
    traj = propagate(ic, 1, K_CHAOTIC)
    q0, q1 = traj.points[0].q1, traj.points[1].q1
    expected = 0.5 * (q1 - q0) ** 2 + (8.25 / (4 * np.pi**2)) * np.cos(2 * np.pi * q0)
    assert abs(traj.action - expected) < 1e-14


def test_action_is_additive_over_steps():
    ic = ComplexPhasePoint(0.37, 0.21)
    traj = propagate(ic, 3, K_CHAOTIC)
    total = 0.0j
    z = ic
    for _ in range(3):
        leg = propagate(z, 1, K_CHAOTIC)
        total += leg.action
        z = leg.final
    assert abs(traj.action - total) < 1e-13


def test_stability_matrix_matches_finite_differences():
    """The monodromy blocks are the Jacobian of the final point.

    Central differences with h = 1e-7 on a real trajectory pin each block
    of M = [[m11, m12], [m21, m22]] acting on (dP, dQ) columns.
    """
    ic = ComplexPhasePoint(0.32, 0.57)
    t = 3
    traj = propagate(ic, t, K_CHAOTIC)
    h = 1e-7

    def endpoint(p, q):
        fin = propagate(ComplexPhasePoint(p, q), t, K_CHAOTIC).final
        return np.array([fin.p1, fin.q1])

    dP = (endpoint(ic.p1 + h, ic.q1) - endpoint(ic.p1 - h, ic.q1)) / (2 * h)
    dQ = (endpoint(ic.p1, ic.q1 + h) - endpoint(ic.p1, ic.q1 - h)) / (2 * h)
    assert abs(dP[0] - traj.m11) < 1e-6
    assert abs(dQ[0] - traj.m12) < 1e-6
    assert abs(dP[1] - traj.m21) < 1e-6
    assert abs(dQ[1] - traj.m22) < 1e-6


def test_runaway_complex_trajectory_raises():
    with pytest.raises(RunawayError) as err:
        propagate(ComplexPhasePoint(0.1 + 2.5j, 0.2 - 2.5j), 12, K_CHAOTIC)
    assert err.value.step >= 1


@pytest.mark.parametrize(
    "P0, Q0", [(0.1 + 2.0j, 0.3 + 1.5j), (0.4 - 1.2j, 0.7 + 1.9j), (-0.6 + 1.7j, 0.1 - 1.4j)]
)
def test_runaway_raises_when_the_trajectory_stops_being_finite(
    P0, Q0, monkeypatch
):
    """NaN fails every magnitude comparison, so a bound too large to trip
    must still not let a NaN or infinite trajectory through."""
    monkeypatch.setattr(rotor, "_RUNAWAY_BOUND", 1e300)
    with np.errstate(all="ignore"), pytest.raises(RunawayError) as err:
        propagate(ComplexPhasePoint(P0, Q0), 6, K_CHAOTIC)
    assert err.value.step <= 6


def _propagate_numpy(ic, t, params, runaway_bound=10.0):
    """``propagate`` as it was, each step on numpy scalars."""
    P, Q = ic.p1, ic.q1
    pts = [ic]
    m11, m12, m21, m22 = 1.0 + 0j, 0j, 0j, 1.0 + 0j
    legs = [(m11, m12, m21, m22)]
    S = 0.0 + 0.0j
    K = params.K
    for step in range(t):
        c = K * np.cos(2.0 * np.pi * Q)
        P1 = P - (K / (2.0 * np.pi)) * np.sin(2.0 * np.pi * Q)
        Q1 = Q + P1
        S += (Q1 - Q) ** 2 / 2.0 + (K / (4.0 * np.pi**2)) * np.cos(2.0 * np.pi * Q)
        m11, m12 = m11 - c * m21, m12 - c * m22
        legs.append((m11, m12, m21, m22))
        m21, m22 = m21 + m11, m22 + m12
        legs.append((m11, m12, m21, m22))
        P, Q = P1, Q1
        if (
            abs(P.imag) > runaway_bound
            or abs(Q.imag) > runaway_bound
            or not np.isfinite(abs(P) + abs(Q))
        ):
            raise RunawayError(step + 1, (P, Q))
        pts.append(ComplexPhasePoint(P, Q))
    return pts, S, (m11, m12, m21, m22), np.array(legs, dtype=complex).reshape(-1, 2, 2)


def _complex_hex(z):
    return (z.real.hex(), z.imag.hex())


def _complex_parts(bound):
    return st.builds(complex, st.floats(-bound, bound), st.floats(-bound, bound))


@settings(max_examples=300, deadline=None)
@given(
    P=st.one_of(_complex, _complex_parts(300.0)),
    Q=st.one_of(_complex, _complex_parts(300.0)),
    t=st.integers(0, 6),
    K=st.one_of(st.sampled_from([0.0, 8.25]), st.floats(0.0, 10.0)),
    runaway_bound=st.sampled_from([10.0, 1e300]),
)
@example(P=0.1 + 0j, Q=0.2 + 200j, t=1, K=8.25, runaway_bound=10.0)
@example(P=0.1 + 2.0j, Q=0.3 + 1.5j, t=6, K=8.25, runaway_bound=1e300)
def test_propagate_matches_the_numpy_scalar_steps_bit_for_bit(
    P, Q, t, K, runaway_bound
):
    """Steps on Python complex numbers and ``cmath`` give the points,
    action, stability blocks and leg matrices numpy's scalars gave, to the
    last bit, and refuse the same trajectories at the same step."""
    ic = ComplexPhasePoint(P, Q)
    params = RotorParams(K)
    with np.errstate(all="ignore"):
        try:
            want = _propagate_numpy(ic, t, params, runaway_bound)
        except RunawayError as exc:
            want = exc
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rotor, "_RUNAWAY_BOUND", runaway_bound)
            got = propagate(ic, t, params)
    except Exception as exc:
        assert type(exc) is type(want)
        assert exc.step == want.step
        return
    assert not isinstance(want, Exception)
    pts, S, blocks, matrices = want
    assert [(_complex_hex(z.p1), _complex_hex(z.q1)) for z in got.points] == [
        (_complex_hex(z.p1), _complex_hex(z.q1)) for z in pts
    ]
    assert type(got.action) is np.complex128
    assert _complex_hex(got.action) == _complex_hex(complex(S))
    got_blocks = (got.m11, got.m12, got.m21, got.m22)
    assert [_complex_hex(m) for m in got_blocks] == [
        _complex_hex(complex(m)) for m in blocks
    ]
    assert [[_complex_hex(m) for m in leg] for leg in got.legs] == [
        [_complex_hex(complex(m)) for m in mat.ravel()] for mat in matrices
    ]


@pytest.mark.parametrize("K", [0.0, 8.25])
def test_overflowing_kick_is_a_runaway(K):
    """cos(2 pi Q) overflows a float at Im Q = 200; the trajectory ran
    away, which is not an ``OverflowError`` from the sine or cosine."""
    with pytest.raises(RunawayError) as err:
        propagate(ComplexPhasePoint(0.1, 0.2 + 200j), 1, RotorParams(K))
    assert err.value.step == 1


def test_unstable_manifold_contracts_backwards(monkeypatch):
    """Unstable-curve samples converge to the fixed point under the inverse map."""
    monkeypatch.setattr(rotor, "_ARC_BUDGET", 2.0)
    curve = unstable_manifold((0.0, 0.0), K_CHAOTIC)
    assert len(curve.points) > 100
    sample = curve.points[:: max(1, len(curve.points) // 15)]
    for p, q in sample:
        z = ComplexPhasePoint(complex(p), complex(q))
        for _ in range(12):
            z = inverse_map_step(z, K_CHAOTIC)
        assert np.hypot(z.p1.real, z.q1.real) < 1e-3


def test_stable_manifold_contracts_forwards(monkeypatch):
    monkeypatch.setattr(rotor, "_ARC_BUDGET", 2.0)
    curve = stable_manifold((0.0, 0.5), K_CHAOTIC)
    sample = curve.points[:: max(1, len(curve.points) // 15)]
    for p, q in sample:
        z = ComplexPhasePoint(complex(p), complex(q))
        for _ in range(12):
            z = map_step(z, K_CHAOTIC)
        assert np.hypot(z.p1.real, z.q1.real - 0.5) < 1e-3


def _grow_depth_first(fp, params, arc_budget, spacing, inverse):
    """Reference growth: one midpoint at a time, left to right, and a full
    re-sort of every point grown so far after each level.  Returns the
    curve and each (level, side) as its (log-offsets, points) pair."""
    lam, v_u, _, v_s = _hyperbolic_frame(fp, params.K)
    v = v_s if inverse else v_u
    step = _step_backward if inverse else _step_forward
    s0 = _GERM_OFFSET
    anchor = np.asarray(fp, dtype=float)
    n_levels = max(4, int(np.ceil(np.log(64.0 / s0) / np.log(abs(lam)))))

    def level_points(side, n, s_vals):
        pts = anchor[None, :] + side * s_vals[:, None] * v[None, :]
        p, q = pts[:, 0].copy(), pts[:, 1].copy()
        step(p, q, n, params.K)
        return np.column_stack([p, q])

    entries = [(0.0, float(anchor[0]), float(anchor[1]))]
    levels = []
    total_len = 0.0
    for n in range(n_levels):
        if total_len >= arc_budget:
            break
        for side in (+1.0, -1.0):
            logs = list(np.linspace(np.log(s0), np.log(abs(lam) * s0), 48))
            pts = list(level_points(side, n, np.exp(np.array(logs))))
            i = 0
            while i < len(pts) - 1:
                gap = np.hypot(*(pts[i + 1] - pts[i]))
                if gap > spacing and logs[i + 1] - logs[i] > 1e-14:
                    mid = 0.5 * (logs[i] + logs[i + 1])
                    logs.insert(i + 1, mid)
                    pts.insert(i + 1, level_points(side, n, np.exp(np.array([mid])))[0])
                else:
                    i += 1
            levels.append((np.array(logs), np.array(pts)))
            params_arr = side * np.exp(np.array(logs)) * lam**n
            for par, pt in zip(params_arr, pts):
                entries.append((float(par), float(pt[0]), float(pt[1])))
        lv = np.array([e[1:] for e in sorted(entries, key=lambda e: e[0])])
        total_len = float(np.sum(np.hypot(*np.diff(lv, axis=0).T)))
    entries.sort(key=lambda e: e[0])
    pts = np.array([e[1:] for e in entries], dtype=float)
    if total_len > arc_budget:
        cum = np.concatenate([[0.0], np.cumsum(np.hypot(*np.diff(pts, axis=0).T))])
        excess = (cum[-1] - arc_budget) / 2.0
        lo = int(np.searchsorted(cum, excess))
        hi = int(np.searchsorted(cum, cum[-1] - excess, side="right"))
        pts = pts[max(lo, 0) : min(hi + 1, len(pts))]
    return pts, levels


@pytest.mark.parametrize(
    "grow, fp, inverse",
    [(unstable_manifold, (0.0, 0.0), False), (stable_manifold, (0.0, 0.5), True)],
)
def test_level_at_a_time_growth_matches_depth_first_reference(
    grow, fp, inverse, monkeypatch
):
    """Breadth-first refinement gives the reference's curve bit for bit, and
    within every level only intervals stopped by the log-width floor are
    longer than the spacing."""
    spacing = _CURVE_SPACING
    ref, levels = _grow_depth_first(fp, K_CHAOTIC, 2.0, spacing, inverse)
    monkeypatch.setattr(rotor, "_ARC_BUDGET", 2.0)
    curve = grow(fp, K_CHAOTIC)
    assert np.array_equal(curve.points, ref)
    floor_stopped = set()
    for logs, pts in levels:
        long = np.hypot(*np.diff(pts, axis=0).T) > spacing
        assert np.all(np.diff(logs)[long] <= 1e-14)
        floor_stopped.update(
            (tuple(a), tuple(b)) for a, b in zip(pts[:-1][long], pts[1:][long])
        )
    long = np.hypot(*np.diff(curve.points, axis=0).T) > spacing
    pairs = zip(curve.points[:-1][long], curve.points[1:][long])
    assert all((tuple(a), tuple(b)) in floor_stopped for a, b in pairs)


def test_manifold_point_cap_raises_exactly_when_a_level_exceeds_it(monkeypatch):
    """The cap counts the points one level's refinement makes, of which a
    branch's last level makes only its refined prefix: at the full budget
    the largest is level 10's 3,131, while level 11 whole would make
    16,537.  Both caps that raise are above the 1,248 base points of the
    13 levels planned, so a level's refinement raises, not the plan."""
    made = []
    refine = rotor._refine_level

    def counted(*args):
        level = refine(*args)
        made.append(level[0].size)
        return level

    monkeypatch.setattr(rotor, "_refine_level", counted)
    unstable_manifold((0.0, 0.0), K_CHAOTIC)
    largest = max(made)
    for cap in (1300, largest - 1):
        monkeypatch.setattr(rotor, "_MAX_CURVE_POINTS", cap)
        with pytest.raises(NumericalError, match="point-count cap"):
            unstable_manifold((0.0, 0.0), K_CHAOTIC)
    monkeypatch.setattr(rotor, "_MAX_CURVE_POINTS", largest)
    curve = unstable_manifold((0.0, 0.0), K_CHAOTIC)
    assert len(curve.points) > largest


@pytest.mark.parametrize(
    "fp, inverse", [((0.0, 0.0), False), ((0.0, 0.5), True)], ids=["unstable", "stable"]
)
def test_chaotic_curves_are_cut_at_half_the_budget_from_the_fixed_point(fp, inverse):
    """Along each branch of the chaotic-fig6 curves the low end lies within
    ``_ARC_BUDGET / 2`` of the fixed point and the high end past it by at
    most one segment."""
    pts = rotor._grow_invariant_curve(fp, K_CHAOTIC, inverse)
    at = int(np.flatnonzero((pts[:, 0] == fp[0]) & (pts[:, 1] == fp[1]))[0])
    low = np.cumsum(np.hypot(*np.diff(pts[at::-1], axis=0).T))
    high = np.cumsum(np.hypot(*np.diff(pts[at:], axis=0).T))
    half = rotor._ARC_BUDGET / 2.0
    assert low[-1] <= half
    assert high[-2] <= half < high[-1]


# Map point-steps of each chaotic-fig6 curve's growth; growing each
# branch's last level whole took 440,738 and 150,024.  The unstable curve,
# at (0, 0), grows its + branch and mirrors the - branch: growing both
# took 90,256.  The stable curve, at (0, 1/2), grows both branches.
GROWTH_POINT_STEPS = {False: 45_128, True: 74_536}


@pytest.mark.parametrize(
    "fp, inverse, point_steps",
    [
        ((0.0, 0.0), False, GROWTH_POINT_STEPS[False]),
        ((0.0, 0.5), True, GROWTH_POINT_STEPS[True]),
        ((1e-13, 0.0), False, 2 * GROWTH_POINT_STEPS[False]),
    ],
    ids=["unstable", "stable", "unstable-off-origin"],
)
def test_chaotic_curve_growth_takes_its_pinned_map_point_steps(
    fp, inverse, point_steps, monkeypatch
):
    """(1e-13, 0), which the fixed-point check allows as a rounding away
    from the origin, grows both branches of the unstable curve: twice the
    steps of (0, 0)."""
    name = "_step_backward" if inverse else "_step_forward"
    step = getattr(rotor, name)
    steps = []

    def counted(p, q, n, K):
        steps.append(p.size * n)
        step(p, q, n, K)

    monkeypatch.setattr(rotor, name, counted)
    rotor._grow_invariant_curve(fp, K_CHAOTIC, inverse)
    assert sum(steps) == point_steps


@pytest.mark.parametrize(
    "grow, n_p", [(unstable_manifold, 1.0), (stable_manifold, -1.0)]
)
def test_manifold_at_a_p_shifted_fixed_point_is_the_shifted_p0_curve(grow, n_p):
    """The unfolded map moves (n_p, 1/2) by n_p in q at every step, so the
    curve there is the (0, 1/2) curve shifted by n_p in p, bit for bit,
    and not a polyline of unit-length segments."""
    want = grow((0.0, 0.5), K_CHAOTIC).points.copy()
    want[:, 0] += n_p
    got = grow((n_p, 0.5), K_CHAOTIC).points
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert np.hypot(*np.diff(got, axis=0).T).max() <= _CURVE_SPACING


def _growth_levels(fp, params, inverse):
    """The level count growth plans for, as ``_grow_invariant_curve`` and
    the depth-first reference work it out."""
    lam = _hyperbolic_frame(fp, params.K)[0]
    return max(4, int(np.ceil(np.log(64.0 / _GERM_OFFSET) / np.log(abs(lam)))))


@st.composite
def _hyperbolic_growths(draw):
    """A hyperbolic fixed point of the standard map with K, and a direction:
    (n, 0) needs K > 4 and (n, 1/2) any K > 0.  n is a whole number from
    -3 to 3, and a zero p or q may be -0.0."""
    p = draw(st.sampled_from([0.0, -0.0]) | st.integers(-3, 3).map(float))
    q = draw(st.sampled_from([0.0, -0.0, 0.5]))
    low = 4.0 if q == 0.0 else 0.0
    K = draw(st.floats(low, 60.0, exclude_min=True))
    return (p, q), K, draw(st.booleans())


@settings(max_examples=20, deadline=None)
@given(
    growth=_hyperbolic_growths(),
    budget=st.floats(0.1, 1.0),
)
@example(growth=((0.0, 0.0), 8.25, False), budget=1.0)
@example(growth=((0.0, 0.5), 8.25, True), budget=1.0)
@example(growth=((0.0, 0.0), 4.05, True), budget=0.5)
# the half budget is crossed inside the last level's first base interval
@example(growth=((0.0, 0.5), 7.18, True), budget=0.93)
# the base polyline of level 24 falls short of the half budget and the
# refined level passes it, so the whole level is refined
@example(growth=((0.0, 0.0), 4.55, False), budget=0.855017)
# budget 24: the mirrored branch's cut far from the fixed point
@example(growth=((0.0, 0.0), 8.25, False), budget=24.0)
# neither branch reaches the half budget, so each keeps all its points
@example(growth=((0.0, 0.0), 4.01, True), budget=0.3)
# a lattice image of the origin with a -0.0: mirrored at (0.0, -0.0), then
# shifted back by -1 in p
@example(growth=((-1.0, -0.0), 8.25, True), budget=1.0)
# levels 1, 4, 5, 6, 9 and 11 begin at the parameter the level before
# ends at, and the mirrored branch lists each such pair in the other order
@example(growth=((0.0, 0.0), 8.704859240613551, False), budget=1.0)
# a rounding away from the origin: both branches are grown
@example(growth=((1e-13, 0.0), 8.25, False), budget=1.0)
def test_growth_matches_depth_first_reference_for_any_hyperbolic_k(growth, budget):
    """Unstable and stable curves at any K equal the depth-first
    reference's bit for bit.  A fixed point so near parabolic that growth
    is refused up front is refused whatever the budget; one that needs
    more than 400 levels is left to the pinned K = 1e-3 curves, as the
    reference re-sorts every point at every level.  At (n, q) with a whole
    n other than 0 the reference grows the (0, q) curve and shifts it by n
    in p, as growth does."""
    fp, K, inverse = growth
    grow = stable_manifold if inverse else unstable_manifold
    try:
        levels = _growth_levels(fp, RotorParams(K), inverse)
    except ConfigError:
        # K below about 2e-16 at (0, 1/2): the trace 2 + K rounds to 2
        with pytest.raises(ConfigError, match="not hyperbolic"):
            grow(fp, RotorParams(K))
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rotor, "_ARC_BUDGET", budget)
        if 2 * 48 * levels > rotor._MAX_CURVE_POINTS:
            with pytest.raises(NumericalError, match="too weakly hyperbolic"):
                grow(fp, RotorParams(K))
            return
        if levels > 400:
            reject()
        curve = grow(fp, RotorParams(K))
    n_p = float(round(fp[0]))
    at = (fp[0] - n_p, fp[1]) if n_p else fp
    ref, _ = _grow_depth_first(at, RotorParams(K), budget, _CURVE_SPACING, inverse)
    if n_p:
        ref[:, 0] += n_p
    assert curve.points.tobytes() == ref.tobytes()


# The fixed point, levels planned and rows of each pinned weakly hyperbolic
# curve, by K.  Growth takes 715 levels at K = 1e-3, so base points are
# stepped on 714 times.  At K = 4.01 neither branch reaches the half
# budget in its 226 levels, so each keeps all its points.
WEAK_MANIFOLDS = {1e-3: ((0.0, 0.5), 715, 68641), 4.01: ((0.0, 0.0), 226, 21697)}

# SHA-256 of the points of those curves, by K and direction.  The K = 1e-3
# curves were written by a growth that stepped every level's base points
# from the germ and re-sorted the whole curve at every level, the K = 4.01
# curves by one that grew both branches at the origin.
WEAK_MANIFOLD_SHA256 = {
    (1e-3, False): "fc765dde2e7a35c85623f67a424866657fe9cdbcdb43ee8bd7a7568db0028bc8",
    (1e-3, True): "8002b6b71f609374c863be78a7baacbe8b87d26aab7534384edfb96f3a6a63b1",
    (4.01, False): "f474c044310c2cfbbafea2993071d80bf88e29f1eb600c2df62ca53c7ff7e0f4",
    (4.01, True): "eb9545d46a67c9269d2e40c6890fd1b94abd63675008b5f5ca2fda71b6fe16c8",
}


@pytest.mark.parametrize(
    "K, inverse",
    [(1e-3, False), (1e-3, True), (4.01, False), (4.01, True)],
    ids=["unstable", "stable", "unstable-K4.01", "stable-K4.01"],
)
def test_weakly_hyperbolic_curves_keep_their_pinned_points(K, inverse):
    grow = stable_manifold if inverse else unstable_manifold
    fp, levels, rows = WEAK_MANIFOLDS[K]
    assert _growth_levels(fp, RotorParams(K), inverse) == levels
    curve = grow(fp, RotorParams(K))
    assert curve.points.shape == (rows, 2)
    digest = hashlib.sha256(np.ascontiguousarray(curve.points).tobytes()).hexdigest()
    assert digest == WEAK_MANIFOLD_SHA256[K, inverse]


@pytest.mark.parametrize("grow", [unstable_manifold, stable_manifold])
@pytest.mark.parametrize(
    "fp, K", [((0.0, 0.5), 1e-4), ((0.0, 0.5), 1e-14), ((0.0, 0.0), 4.0 + 1e-12)]
)
def test_manifold_growth_refuses_a_nearly_parabolic_fixed_point(grow, fp, K):
    """K = 1e-4 at (0, 1/2) needs 2,258 levels, which took over a minute
    when every level re-sorted the whole curve, and K = 1e-14 needs 2e8.
    All three are refused before a map step."""
    start = time.perf_counter()
    with pytest.raises(NumericalError, match="too weakly hyperbolic") as err:
        grow(fp, RotorParams(K))
    assert time.perf_counter() - start < 1.0
    assert f"at {fp}" in str(err.value) and "|lambda| = 1.0" in str(err.value)


def test_growth_is_refused_exactly_when_the_base_points_pass_the_cap(monkeypatch):
    """The 96 base points of each of the 715 levels K = 1e-3 plans for
    make 68,640: a cap one below refuses the growth, a cap of exactly
    that lets it run."""
    fp, params = (0.0, 0.5), RotorParams(1e-3)
    monkeypatch.setattr(rotor, "_MAX_CURVE_POINTS", 96 * 715 - 1)
    with pytest.raises(NumericalError, match="715 levels of 96 base points"):
        unstable_manifold(fp, params)
    monkeypatch.setattr(rotor, "_MAX_CURVE_POINTS", 96 * 715)
    assert len(unstable_manifold(fp, params).points) == 68641


def test_manifold_needs_hyperbolic_fixed_point():
    with pytest.raises(ConfigError):
        unstable_manifold((0.0, 0.0), K_MILD)


def _lapack_frame(q, K):
    """The stability matrix M at q and its eigenframe as ``np.linalg.eig``
    gives it: (M, lam_u, v_u, v_s), the vectors scaled to unit length."""
    c = K * np.cos(2.0 * np.pi * q)
    M = np.array([[1.0, -c], [1.0, 1.0 - c]])
    evals, evecs = np.linalg.eig(M)
    iu = int(np.argmax(np.abs(evals.real)))
    v_u, v_s = evecs.real[:, iu], evecs.real[:, 1 - iu]
    return M, float(evals.real[iu]), v_u / np.hypot(*v_u), v_s / np.hypot(*v_s)


@settings(max_examples=300, deadline=None)
@given(
    q=st.sampled_from([0.0, 0.5, -0.5, 1.5]),
    log_excess=st.floats(-12.0, 8.0),
)
@example(q=0.0, log_excess=np.log10(4.25))  # the chaotic preset, K = 8.25
@example(q=0.5, log_excess=np.log10(8.25))
@example(q=0.5, log_excess=8.0)
def test_hyperbolic_frame_matches_lapack(q, log_excess):
    """The closed-form frame against ``np.linalg.eig``, K from 1e-12 past
    the hyperbolic threshold (4 at q = 0, 0 at q = 1/2) to 1e8 past it:
    lambda_u to 4 eps relative, lambda_u lambda_s = 1 to 2 eps, unit
    vectors with residuals |M v - lambda v| within 4 eps max|M|, and the
    orientation of LAPACK's vectors component by component.  Nearer the
    threshold than about 1e-14, LAPACK's own vectors turn arbitrary."""
    K = (4.0 if q == 0.0 else 0.0) + 10.0**log_excess
    lam_u, v_u, lam_s, v_s = _hyperbolic_frame((0.0, q), K)
    M, want_lam_u, want_v_u, want_v_s = _lapack_frame(q, K)
    eps = np.finfo(float).eps
    assert abs(lam_u - want_lam_u) <= 4.0 * eps * abs(want_lam_u)
    assert abs(lam_u * lam_s - 1.0) <= 2.0 * eps
    for lam, v in ((lam_u, v_u), (lam_s, v_s)):
        assert abs(np.hypot(*v) - 1.0) <= 2.0 * eps
        assert np.abs(M @ v - lam * v).max() <= 4.0 * eps * np.abs(M).max()
    assert np.array_equal(np.sign(v_u), np.sign(want_v_u))
    assert np.array_equal(np.sign(v_s), np.sign(want_v_s))


@pytest.mark.parametrize("q", [0.0, 0.5])
@pytest.mark.parametrize("K", [1e300, np.finfo(float).max])
def test_hyperbolic_frame_stays_finite_up_to_the_largest_float(q, K):
    """No intermediate of the closed form overflows: at K = 1.8e308,
    lambda_u is -+K to rounding, lambda_s = 1 / lambda_u is subnormal but
    still its inverse to 2 eps, and both vectors are finite unit vectors,
    with no RuntimeWarning (the suite turns warnings into errors)."""
    lam_u, v_u, lam_s, v_s = _hyperbolic_frame((0.0, q), K)
    assert abs(abs(lam_u) / K - 1.0) < 1e-15
    assert abs(lam_u * lam_s - 1.0) <= 2.0 * np.finfo(float).eps
    for v in (v_u, v_s):
        assert np.isfinite(v).all() and abs(np.hypot(*v) - 1.0) < 1e-15


@pytest.mark.parametrize("grow", [unstable_manifold, stable_manifold])
def test_growth_refuses_a_kick_that_rounds_past_the_curve_spacing(grow):
    """4 K eps passes _CURVE_SPACING from K of about 1.1e12 on; both curves
    are refused before a map step, up to the largest float."""
    for K in (1.2e12, np.finfo(float).max):
        with pytest.raises(NumericalError, match="the kick rounds by up to"):
            grow((0.0, 0.5), RotorParams(K))


def test_no_lapack_routine_runs_in_the_chaotic_preset(monkeypatch):
    """Seeds, saddles, two sweep rows and both manifolds of chaotic-fig6 run
    with numpy's LAPACK-backed routines made to raise: the eigenframe and
    its inverse are written out in closed form."""

    def refuse(*args, **kwargs):
        raise AssertionError("a LAPACK routine was called")

    for name in ("eig", "eigvals", "eigh", "inv", "solve", "det", "lstsq", "svd", "qr"):
        monkeypatch.setattr(np.linalg, name, refuse)
    cfg = config_from_dict({"N_list": (50, 100)}, base=preset("chaotic-fig6"))
    setup = prepare_scenario(cfg)
    assert len(setup.saddles) == 7
    assert len(run_sweep(setup)) == 2
    assert len(unstable_manifold(cfg.alpha_center, RotorParams(cfg.K)).points) == 9244
    assert len(stable_manifold(cfg.beta_center, RotorParams(cfg.K)).points) == 9488


@pytest.mark.parametrize(
    "fp, K", [((0.0, 0.5), 1e-14), ((1.0, -0.5), 0.002), ((0.0, 0.0), 4.0 + 1e-12)]
)
def test_heteroclinic_search_refuses_a_nearly_parabolic_fixed_point(fp, K):
    """Near K = 0 at q = 1/2, or K = 4 at q = 0, the unstable multiplier
    nears 1, and the germ would need hundreds to 2e8 levels of about 3 ms
    each to leave the fixed point (K = 1e-14 once ran without end); the
    search refuses before it scans one."""
    alpha, beta = _packet_pair(*fp, *fp)
    start = time.perf_counter()
    with pytest.raises(NumericalError, match="too weakly hyperbolic"):
        find_seeds(alpha, beta, 2, RotorParams(K), image_range=1, regime="chaotic")
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("K", [8.25, 2e4, 1e5, 1e8, 1e20, 1e100])
def test_fixed_point_check_allows_the_rounding_of_the_kick(K):
    """The float sin(2 pi 0.5) is 1.2e-16, so the kick moves the true
    fixed point (0, 0.5) by about K 2e-17; that is rounding, not a move."""
    _check_fixed_point((0.0, 0.5), RotorParams(K))
    _check_fixed_point((0.0, 0.0), RotorParams(K))


@pytest.mark.parametrize(
    "fp, K",
    [
        ((0.1, 0.5), 8.25),
        ((0.0, 0.25), 1e5),
        ((0.0, 0.5 + 1e-9), 8.25),
        ((0.5, 0.0), 1e8),
    ],
)
def test_fixed_point_check_refuses_points_the_map_moves(fp, K):
    with pytest.raises(ConfigError, match="not a fixed point"):
        _check_fixed_point(fp, RotorParams(K))


@pytest.mark.parametrize("grow", [unstable_manifold, stable_manifold])
@pytest.mark.parametrize(
    "fp", [(np.nan, 0.5), (np.inf, 0.5), (0.5, np.nan)], ids=str
)
def test_manifold_refuses_a_non_finite_centre(grow, fp):
    """A NaN or infinite centre is a config error, not a ValueError from
    rounding its displacement or an overflow warning from stepping it."""
    with pytest.raises(ConfigError, match="not a finite point"):
        grow(fp, RotorParams(8.25))


def test_shearing_manifold_is_vertical_segment():
    packet = GaussianPacket(0.815, 0.2, np.pi * 50, 1.0 / (2 * np.pi * 50))
    curve = shearing_manifold(packet)
    sig_p = packet.hbar / (2.0 * packet.sigma)
    assert np.allclose(curve.points[:, 1], packet.q1, atol=0.0)
    assert abs(curve.points[:, 0].min() - (packet.p1 - 5.0 * sig_p)) < 1e-12
    assert abs(curve.points[:, 0].max() - (packet.p1 + 5.0 * sig_p)) < 1e-12


def test_shearing_line_of_more_nodes_than_the_cap_is_refused(monkeypatch):
    """A line is refused before it is built once it needs more than
    ``_MAX_CURVE_POINTS`` nodes, as hbar = 100 would take 1,000,001.  A
    cap of exactly the node count builds."""
    with pytest.raises(NumericalError, match="shearing line"):
        shearing_manifold(GaussianPacket(0.0, 0.5, 1.0, 100.0))
    packet = GaussianPacket(0.815, 0.2, np.pi * 50, 1.0 / (2 * np.pi * 50))
    n = len(shearing_manifold(packet).points)
    monkeypatch.setattr(rotor, "_MAX_CURVE_POINTS", n)
    assert len(shearing_manifold(packet).points) == n
    monkeypatch.setattr(rotor, "_MAX_CURVE_POINTS", n - 1)
    with pytest.raises(NumericalError, match="shearing line"):
        shearing_manifold(packet)


@pytest.mark.parametrize("K", [np.float64(8.25), 8, np.float32(0.5)])
def test_propagate_points_hold_python_complex_for_any_kick_type(K):
    """``RotorParams`` keeps K as a Python float, so the points
    ``propagate`` builds without a type check hold Python complex values,
    equal to the checked records."""
    params = RotorParams(K)
    assert type(params.K) is float and params.K == K
    traj = propagate(ComplexPhasePoint(np.complex128(0.1 + 0.02j), 0.3), 3, params)
    for z in traj.points:
        assert type(z.p1) is complex and type(z.q1) is complex
        assert z == ComplexPhasePoint(z.p1, z.q1)


def test_propagate_curve_applies_map_pointwise():
    packet = GaussianPacket(0.815, 0.2, np.pi * 50, 1.0 / (2 * np.pi * 50))
    curve = shearing_manifold(packet)
    moved = propagate_curve(curve, 2, K_MILD)
    z = ComplexPhasePoint(complex(curve.points[7, 0]), complex(curve.points[7, 1]))
    for _ in range(2):
        z = map_step(z, K_MILD)
    assert abs(moved.points[7, 0] - z.p1.real) < 1e-12
    assert abs(moved.points[7, 1] - z.q1.real) < 1e-12


def test_curve_to_csv_format(tmp_path):
    packet = GaussianPacket(0.815, 0.2, np.pi * 50, 1.0 / (2 * np.pi * 50))
    curve = shearing_manifold(packet)
    path = tmp_path / "curve.csv"
    curve_to_csv(curve, path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().strip().split("\n")
    assert lines[0] == "index,p,q"
    assert len(lines) == len(curve.points) + 1
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == curve.points[0, 0]


def test_curve_to_csv_matches_csv_writer_bytes(tmp_path):
    """Signed zero, subnormals, tiny and huge magnitudes and repeating
    fractions render exactly as csv.writer with format(v, ".17g") did."""
    values = [-0.0, 5e-324, 1e-300, 1.0 / 3.0, -2.5, 1e16, 123456789.0]
    points = np.array(list(zip(values, values[::-1])))
    path = tmp_path / "curve.csv"
    curve_to_csv(ManifoldCurve(points), path)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["index", "p", "q"])
    for i, (p, q) in enumerate(points):
        writer.writerow([i, format(p, ".17g"), format(q, ".17g")])
    assert path.read_bytes() == expected.getvalue().encode()


def _g17(values) -> list[str]:
    """Each value as the curve CSV's %.17g kernel renders it."""
    x = np.asarray(values, dtype=np.float64)
    out = np.zeros((x.size, 43), dtype=np.uint8)
    _write_g17(x, out)
    return [row[row != 0].tobytes().decode() for row in out]


def _percent_csv(points) -> bytes:
    """The curve CSV as one ``%`` pass over the points' Python values."""
    p, q = np.asarray(points).T.tolist()
    rows = "".join(map("%d,%.17g,%.17g\n".__mod__, zip(range(len(p)), p, q)))
    return ("index,p,q\n" + rows).encode()


def _with_neighbours(values):
    """Each value with the floats just below and above it."""
    return [
        float(w)
        for v in values
        for w in (np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf))
    ]


# the fast range's edges, powers of ten (where floor(log10 |x|) can be one
# off), a 17-digit literal just below 1e-4, and exact decimal ties that round
# down (even) and up (odd) at the 17th digit, in both notations
_G17_EDGES = (
    _with_neighbours([1e-10, 1e14] + [float(f"1e{e}") for e in range(-12, 17)])
    + [9.9999999999999995e-05, 3 * 2.0**-25, 2.0**-25, 211 * 2.0**-21]
    + [10000000000000.0625, 10000000000000.1875, -(3 * 2.0**-25)]
)


_bit_patterns = st.integers(0, 2**64 - 1).map(
    lambda b: float(np.array(b, dtype=np.uint64).view(np.float64))
)


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(
        st.floats() | st.floats(-1e14, 1e14) | _bit_patterns, min_size=1, max_size=40
    )
)
@example(values=_G17_EDGES)
@example(values=[-_v for _v in _G17_EDGES])
@example(values=[0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072014e-308])
def test_g17_kernel_renders_every_float_as_format(values):
    """Every float64, subnormals, signed zeros and non-finite values
    included, renders exactly as ``format(v, ".17g")``."""
    assert _g17(values) == [format(v, ".17g") for v in values]


@pytest.mark.parametrize(
    "n", [0, 1, 9, 10, 11, 100, 2047, 2048, 2049, 4097, 6145, 10_001]
)
def test_curve_to_csv_is_the_percent_rendering_at_every_index_width(n, tmp_path):
    """The index column crosses each digit-count boundary, and the rows
    each edge of the 2048-row blocks, with values of every magnitude and
    the values only ``%`` renders mixed in."""
    rng = np.random.default_rng(n)
    points = rng.choice([-1.0, 1.0], (n, 2)) * 10.0 ** rng.uniform(-12.0, 16.0, (n, 2))
    points.flat[::7] = rng.choice([0.0, -0.0, np.inf, np.nan, 1e-300], points.size)[::7]
    path = tmp_path / "curve.csv"
    curve_to_csv(ManifoldCurve(points), path)
    assert path.read_bytes() == _percent_csv(points)


def test_curve_to_csv_holds_one_block_of_rows_at_a_time(tmp_path):
    """A curve at the 200,000-point cap writes with a tracemalloc peak
    under 4 MB; building its whole text at once peaked at 51.8 MB."""
    rng = np.random.default_rng(7)
    curve = ManifoldCurve(rng.uniform(-4.0, 4.0, (rotor._MAX_CURVE_POINTS, 2)))
    path = tmp_path / "curve.csv"
    tracemalloc.start()
    try:
        curve_to_csv(curve, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    assert path.read_bytes() == _percent_csv(curve.points)


@pytest.mark.parametrize("earlier", [None, b"index,p,q\n0,1,2\n"])
def test_curve_to_csv_leaves_no_partial_file(earlier, monkeypatch, tmp_path):
    """A block that fails to format removes the rows already written,
    and so any file that was at the path before."""
    calls = []

    def fail_second(x, out):
        calls.append(x.size)
        if len(calls) == 2:
            raise RuntimeError("second block")
        _write_g17(x, out)

    monkeypatch.setattr(rotor, "_write_g17", fail_second)
    points = np.random.default_rng(5).uniform(-1.0, 1.0, (5_000, 2))
    path = tmp_path / "curve.csv"
    if earlier is not None:
        path.write_bytes(earlier)
    with pytest.raises(RuntimeError, match="second block"):
        curve_to_csv(ManifoldCurve(points), path)
    assert len(calls) == 2
    assert not path.exists()


@pytest.mark.parametrize("dtype", [np.int64, np.uint64, np.int32])
def test_curve_to_csv_renders_integer_points_as_percent_did(dtype, tmp_path):
    """Integer points render through float, as ``%`` renders Python ints."""
    info = np.iinfo(dtype)
    points = np.array(
        [[0, 1], [7, 10], [info.max, info.min], [2**31 - 1, 123456789]], dtype=dtype
    )
    path = tmp_path / "curve.csv"
    curve_to_csv(ManifoldCurve(points), path)
    assert path.read_bytes() == _percent_csv(points)


def test_integrable_seed_search_recovers_intersection():
    """The shearing-line root for the mild-kick scenario sits where expected.

    The located initial condition is reproducible to 1e-12; the value
    below was converged independently by bisection refinement at 1e-13.
    """
    alpha, beta = _packet_pair(0.815, 0.2, 0.77, 0.8)
    seeds = find_seeds(alpha, beta, 2, K_MILD, image_range=2, regime="integrable")
    assert len(seeds) == 1
    seed = seeds[0]
    assert seed.winding == (0, 1)
    assert abs(seed.ic[0] - 0.8075682672864) < 1e-9
    assert abs(seed.ic[1] - 0.2) == 0.0
    assert seed.t == 2


def test_chaotic_seed_search_finds_paired_connectors():
    alpha, beta = _packet_pair(0.0, 0.0, 0.0, 0.5)
    seeds = find_seeds(alpha, beta, 2, K_CHAOTIC, image_range=2, regime="chaotic")
    by_winding = {}
    for s in seeds:
        by_winding.setdefault(s.winding, []).append(s.ic)
    assert (0, 0) in by_winding and (1, 1) in by_winding
    primary = min(by_winding[(0, 0)], key=lambda ic: np.hypot(*ic))
    assert np.hypot(primary[0] + 0.0892369, primary[1] + 0.0766275) < 1e-6
    second = min(by_winding[(1, 1)], key=lambda ic: np.hypot(*ic))
    assert np.hypot(second[0] + 0.1125783, second[1] + 0.0966593) < 1e-6
    # phase-space reflection maps a connector for image (n_p, n_q) onto
    # one for (-n_p, -1-n_q); whenever that partner image was searched,
    # the negated initial condition must be in the list
    ics = {(round(p, 9), round(q, 9)) for p, q in (s.ic for s in seeds)}
    for s in seeds:
        n_p, n_q = s.winding
        if max(abs(-n_p), abs(-1 - n_q)) > 2:
            continue
        assert (round(-s.ic[0], 9), round(-s.ic[1], 9)) in ics


def _heteroclinic_seeds_per_bracket(alpha, beta, t, params, image_range,
                                    capture_sigma=5.0, capture_radius=0.3):
    """Reference search: one bracket at a time, each point walked and
    bisected on its own, and strict sign changes only.  Like the search,
    it merges no seed: copies of one connector meet at the saddle merge.
    Returns the seeds and how many brackets were dropped as
    depth-switching artifacts."""
    K = params.K
    fa = (alpha.p1, alpha.q1)
    fb = (beta.p1, beta.q1)
    _check_fixed_point(fa, params)
    _check_fixed_point(fb, params)
    lam_u, v_u, _, _ = _hyperbolic_frame(fa, K)
    lam_u_b, v_u_b, _, v_s_b = _hyperbolic_frame(fb, K)
    frame_inv = np.linalg.inv(np.column_stack([v_u_b, v_s_b]))
    sigma = alpha.sigma
    max_depth = 4
    s0 = _GERM_OFFSET
    n_levels = max(10, int(np.ceil(np.log(50.0 / s0) / np.log(abs(lam_u)))))
    n_scan = 2048

    def curve_point(side, n, s):
        germ = np.array(fa, dtype=float)[None, :] + side * s[:, None] * v_u[None, :]
        return _forward_many(germ, n, K)

    def capture_depth(end, orbit):
        if np.hypot(*(end - orbit[0])) > capture_radius:
            return None
        w = end
        m = 0
        while m < max_depth:
            w = _forward_many(w[None, :], 1, K)[0]
            if np.hypot(*(w - orbit[m + 1])) > capture_radius:
                break
            m += 1
        return m

    def g_at_depth(z, m, orbit):
        w = _forward_many(z[None, :], t + m, K)[0]
        return float((frame_inv @ (w - orbit[m]))[0]) / lam_u_b**m

    images = [
        (n_p, n_q)
        for n_p in range(-image_range, image_range + 1)
        for n_q in range(-image_range, image_range + 1)
    ]
    orbits = {}
    for n_p, n_q in images:
        orbit = [np.array([beta.p1 + n_p, beta.q1 + n_q])]
        for _ in range(max_depth):
            orbit.append(_forward_many(orbit[-1][None, :], 1, K)[0])
        orbits[(n_p, n_q)] = np.array(orbit)

    found, artifacts = [], 0
    for n in range(n_levels):
        logs = np.linspace(np.log(s0), np.log(abs(lam_u) * s0), n_scan)
        for side in (+1.0, -1.0):
            zs = curve_point(side, n, np.exp(logs))
            ends = _forward_many(zs, t, K)
            for n_p, n_q in images:
                orbit = orbits[(n_p, n_q)]
                near = np.hypot(*(ends - orbit[0][None, :]).T) < capture_radius
                if not near.any():
                    continue
                gvals = np.full(n_scan, np.nan)
                depths = np.full(n_scan, -1, dtype=int)
                for i in np.nonzero(near)[0]:
                    m = capture_depth(ends[i], orbit)
                    if m is None:
                        continue
                    depths[i] = m
                    gvals[i] = g_at_depth(zs[i], m, orbit)
                ok = ~np.isnan(gvals)
                cross = np.nonzero(
                    ok[:-1] & ok[1:] & (np.sign(gvals[:-1]) * np.sign(gvals[1:]) < 0)
                )[0]
                for i in cross:
                    m = int(min(depths[i], depths[i + 1]))
                    lo, hi = logs[i], logs[i + 1]
                    glo = g_at_depth(zs[i], m, orbit)
                    ghi = g_at_depth(zs[i + 1], m, orbit)
                    if np.sign(glo) * np.sign(ghi) >= 0:
                        artifacts += 1
                        continue
                    for _ in range(80):
                        mid = 0.5 * (lo + hi)
                        zm = curve_point(side, n, np.exp(np.array([mid])))[0]
                        gm = g_at_depth(zm, m, orbit)
                        if gm == 0.0 or (hi - lo) < 1e-15:
                            lo = hi = mid
                            break
                        if np.sign(gm) == np.sign(glo):
                            lo, glo = mid, gm
                        else:
                            hi = mid
                    z_star = curve_point(side, n, np.exp(np.array([0.5 * (lo + hi)])))[0]
                    end = _forward_many(z_star[None, :], t, K)[0]
                    start_d = np.hypot(*(z_star - np.array(fa))) / sigma
                    end_d = np.hypot(*(end - orbit[0])) / sigma
                    if max(start_d, end_d) > capture_sigma:
                        continue
                    found.append(
                        SeedTrajectory(
                            ic=(float(z_star[0]), float(z_star[1])),
                            t=t,
                            winding=(n_p, n_q),
                        )
                    )
    found.sort(key=lambda s: (s.winding, s.ic))
    return found, artifacts


@pytest.mark.parametrize(
    "K, t, image_range, count, artifacts",
    [(8.25, 2, 2, 9, 0), (8.25, 2, 1, 7, 0), (8.25, 3, 2, 21, 0), (7.0, 2, 1, 5, 2)],
)
def test_lockstep_heteroclinic_search_matches_per_bracket_reference(
    K, t, image_range, count, artifacts
):
    """Gathering every bracket and bisecting them together gives the
    reference's seeds bit for bit, with no seed merged by either.  The
    K = 7 case also drops brackets as depth-switching artifacts."""
    alpha, beta = _packet_pair(0.0, 0.0, 0.0, 0.5)
    params = RotorParams(K)
    ref, dropped = _heteroclinic_seeds_per_bracket(alpha, beta, t, params, image_range)
    seeds = find_seeds(alpha, beta, t, params, image_range=image_range, regime="chaotic")
    assert (len(ref), dropped) == (count, artifacts)
    assert seeds == ref


def test_heteroclinic_search_builds_only_the_images_it_reaches():
    """Image ranges of 7, 300 and 10**8 give the same 10 seeds bit for
    bit.  The search steps only the image centers that near endpoints
    name, so the (2R + 1)**2 = 361,201 images of R = 300 need no table; a
    table of all their orbits peaked at 75.8 MB.  R = 10**8 runs only once
    the peak is checked, as such a table would need about 3e18 bytes; it
    also checks that images are told apart exactly, which a float index
    (n_p + R)(2R + 1) + n_q + R past 2**53 does not."""
    alpha, beta = _packet_pair(0.0, 0.0, 0.0, 0.5)

    def bits(seeds):
        return [(s.winding, s.ic[0].hex(), s.ic[1].hex()) for s in seeds]

    want = bits(find_seeds(alpha, beta, 2, K_CHAOTIC, image_range=7, regime="chaotic"))
    tracemalloc.start()
    try:
        got = bits(find_seeds(alpha, beta, 2, K_CHAOTIC, image_range=300, regime="chaotic"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want and len(want) == 10
    assert peak < 5e6
    got = bits(find_seeds(alpha, beta, 2, K_CHAOTIC, image_range=10**8, regime="chaotic"))
    assert got == want


def test_capture_radius_is_below_half_the_lattice_spacing():
    """The heteroclinic scan names the one image center an endpoint can be
    near by rounding its offset from beta; a radius of 1/2 or more would
    let an endpoint be near two centers at once."""
    assert _CAPTURE_RADIUS < 0.5


@settings(max_examples=100, deadline=None)
@given(
    rows=st.one_of(
        st.lists(
            st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.integers(0, 20)),
            max_size=12,
        ),
        st.integers(0, 20).flatmap(
            lambda n: st.lists(
                st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.just(n)),
                min_size=1,
                max_size=12,
            )
        ),
    ),
    K=st.floats(0.0, 10.0),
)
@example(rows=[], K=8.25)
def test_ragged_steps_match_forward_many_row_by_row(rows, K):
    """Each row comes out bit for bit as :func:`_forward_many` takes it
    alone with its own step count: mixed counts 0-20, all counts equal,
    and an empty input."""
    pts = np.array([(p, q) for p, q, _ in rows]).reshape(-1, 2)
    steps = np.array([n for _, _, n in rows], dtype=int)
    got = _forward_ragged(pts, steps, K)
    assert got.shape == pts.shape
    want = np.reshape(
        [_forward_many(pts[i : i + 1], n, K)[0] for i, n in enumerate(steps)], (-1, 2)
    )
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_sign_change_brackets_reports_node_roots_and_strict_flips():
    nodes, brackets = _sign_change_brackets(np.array([1.0, 0.0, -1.0]))
    assert nodes.tolist() == [1] and brackets.tolist() == []
    nodes, brackets = _sign_change_brackets(np.array([1.0, np.nan, -1.0]))
    assert nodes.tolist() == [] and brackets.tolist() == []
    nodes, brackets = _sign_change_brackets(np.array([2.0, 1.0, -1.0, -3.0]))
    assert nodes.tolist() == [] and brackets.tolist() == [1]


def _bisect_scalar(f, lo, hi, glo, max_iter, width):
    """The per-bracket bisection loop the lockstep helper replaces."""
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        gm = f(mid)
        if gm == 0.0 or (hi - lo) < width:
            lo = hi = mid
            break
        if np.sign(gm) == np.sign(glo):
            lo, glo = mid, gm
        else:
            hi = mid
    return 0.5 * (lo + hi)


_loose_bracket = st.builds(
    lambda lo, span, frac: (lo, lo + span, lo + frac * span),
    st.floats(-100.0, 100.0),
    st.floats(1e-12, 10.0),
    st.floats(0.0, 1.0),
)
# the midpoint of the j-th halving of [0, 1] lands exactly on k / 2**j
_dyadic_zero = st.integers(1, 30).flatmap(
    lambda j: st.integers(0, 2 ** (j - 1) - 1).map(
        lambda k: (0.0, 1.0, (2 * k + 1) / 2.0**j)
    )
)
_adjacent = st.floats(-100.0, 100.0).map(
    lambda lo: (lo, float(np.nextafter(lo, np.inf)), lo)
)


@settings(max_examples=80, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.one_of(_loose_bracket, _dyadic_zero, _adjacent),
            st.sampled_from([-1.0, 1.0]),
        ),
        min_size=1,
        max_size=12,
    ),
    max_iter=st.integers(0, 80),
    width=st.sampled_from([0.0, 1e-15, 1e-9]),
)
def test_lockstep_bisection_matches_scalar_loop_bit_for_bit(rows, max_iter, width):
    """Each row ends where the scalar loop ends: on an exact zero at a
    midpoint, on the width test, on a midpoint that rounds onto an
    endpoint, or when max_iter runs out, rows finishing at different
    iterations."""
    lo = np.array([r[0][0] for r in rows])
    hi = np.array([r[0][1] for r in rows])
    root = np.array([r[0][2] for r in rows])
    sign = np.array([r[1] for r in rows])

    def g(x, idx):
        d = x - root[idx]
        return sign[idx] * (d * (1.0 + d * d))

    glo = g(lo, np.arange(len(rows)))
    got = _bisect_brackets(g, lo, hi, glo, max_iter, width)
    want = np.array([
        _bisect_scalar(
            lambda x: g(np.array([x]), np.array([r]))[0],
            lo[r], hi[r], glo[r], max_iter, width,
        )
        for r in range(len(rows))
    ])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def _shearing_roots_array_path(p_lo, p_hi, q0, targets, end_q):
    """The shearing scan-and-bisect as it was, each midpoint one numpy row."""
    p_grid = np.linspace(p_lo, p_hi, 1025)
    ends = end_q(np.column_stack([p_grid, np.full(p_grid.size, q0)]))
    roots = []
    for target in targets:
        g = ends - target
        nodes, brackets = _sign_change_brackets(g)
        found = [float(p_grid[i]) for i in nodes]
        for i in brackets:
            found.append(float(_bisect_scalar(
                lambda x: end_q(np.array([[x, q0]]))[0] - target,
                p_grid[i], p_grid[i + 1], g[i], 200, 1e-13,
            )))
        roots.append(found)
    return roots, ends


def _assert_same_shearing_roots(p_lo, p_hi, q0, targets, t, K, end_q=None):
    if end_q is None:
        def end_q(pts):
            return _forward_many(pts, t, K)[:, 1]
    scan = _scan_line(p_lo, p_hi, q0, end_q)
    roots = _line_roots(scan, q0, targets, t, K)
    ends = scan.ends
    want_roots, want_ends = _shearing_roots_array_path(p_lo, p_hi, q0, targets, end_q)
    assert np.array_equal(ends, want_ends, equal_nan=True)
    assert np.array_equal(
        [scan.end_min, scan.end_max], [want_ends.min(), want_ends.max()], equal_nan=True
    )
    assert [[r.hex() for r in found] for found in roots] == [
        [r.hex() for r in found] for found in want_roots
    ]
    return roots, ends


@settings(max_examples=40, deadline=None)
@given(
    p_lo=st.floats(-2.0, 2.0),
    span=st.floats(1e-6, 2.0),
    q0=st.floats(-2.0, 2.0),
    t=st.integers(1, 4),
    K=st.floats(0.0, 10.0),
    fracs=st.lists(
        st.one_of(st.floats(-0.5, 1.5), st.sampled_from([0.0, 1.0])),
        max_size=4,
    ),
    node=st.integers(0, 1024),
)
def test_shearing_roots_match_the_array_path_bisection(p_lo, span, q0, t, K, fracs, node):
    """Random lines and targets: targets inside the scanned end range, at
    its ends, outside it (skipped), and one equal to a node's end value
    (a root on the node)."""
    ends = _forward_many(
        np.column_stack([np.linspace(p_lo, p_lo + span, 1025), np.full(1025, q0)]),
        t, K,
    )[:, 1]
    lo, hi = ends.min(), ends.max()
    targets = [float(lo + f * (hi - lo)) for f in fracs] + [float(ends[node])]
    roots, _ = _assert_same_shearing_roots(p_lo, p_lo + span, q0, targets, t, K)
    assert roots[-1]  # the node target always has a root


@pytest.mark.parametrize("N", [50, 700])
def test_shearing_roots_match_the_array_path_for_both_callers(N):
    """The line, targets, t and K of the integrable seed search, then the
    wider line the benchmark wavefunction scans, with the images of a grid
    of positions that reaches below, inside and above the scanned range
    as targets.  The wavefunction itself bisects nothing (it seeds Newton
    at bracket midpoints); its line is a second realistic case."""
    cfg = preset("integrable-fig2")
    alpha, beta = packets_for(cfg, N)
    sig_p = alpha.hbar / (2.0 * alpha.sigma)
    shifts = range(-cfg.image_range, cfg.image_range + 1)
    w = _SHEAR_HALFWIDTH_SIGMA * sig_p
    roots, _ = _assert_same_shearing_roots(
        alpha.p1 - w, alpha.p1 + w, alpha.q1,
        [beta.q1 + n for n in shifts], cfg.t, cfg.K,
    )
    assert any(roots)
    w = _WAVE_HALFWIDTH_SIGMA * sig_p
    found = 0
    for x in np.linspace(0.0, 1.0, 41):
        roots, _ = _assert_same_shearing_roots(
            alpha.p1 - w, alpha.p1 + w, alpha.q1,
            [x + n for n in shifts], cfg.t, cfg.K,
        )
        found += sum(map(len, roots))
    assert found > 0


def test_shearing_roots_of_a_folded_line_match_the_array_path():
    """At K = 8.25 the line's end positions rise and fall, so it has no
    monotone run; each target's roots, up to three, still equal the array
    path's bit for bit."""
    def end_q(pts):
        return _forward_many(pts, 2, 8.25)[:, 1]

    scan = _scan_line(-0.5, 0.5, 0.2, end_q)
    assert scan.run is None
    lo, hi = scan.end_min, scan.end_max
    targets = [lo + f * (hi - lo) for f in (0.1, 0.3, 0.5, 0.7, 0.9)]
    targets.append(float(scan.ends[400]))
    roots, _ = _assert_same_shearing_roots(-0.5, 0.5, 0.2, targets, 2, 8.25, end_q)
    assert all(roots) and max(map(len, roots)) == 3


def test_shearing_roots_keep_every_root_when_a_scan_end_is_nan():
    """A NaN end position makes the scanned range NaN; no target may be
    skipped for it, so each root the finite nodes bracket is still found."""
    def end_q(pts):
        ends = _forward_many(pts, 2, 0.05)[:, 1]
        if len(pts) > 1:
            ends[700] = np.nan
        return ends

    targets = [1.79, 1.80, 1.83]  # the ends run from 1.785 to 1.844
    roots, ends = _assert_same_shearing_roots(
        0.80, 0.83, 0.2, targets, 2, 0.05, end_q=end_q,
    )
    assert np.isnan(ends[700])
    assert all(len(found) == 1 for found in roots)


# end values that tie, plateau and turn often: a few lattice values, both
# zeros and both infinities, besides any float of a small range and NaN
_end_values = st.one_of(
    st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0, np.inf, -np.inf]),
    st.floats(-3.0, 3.0),
    st.just(np.nan),
)


@st.composite
def _ends_and_target(draw):
    """Stretches of one to four equal ends, and a target that is often an
    end's value or one of its two float neighbours."""
    stretches = draw(st.lists(st.tuples(_end_values, st.integers(1, 4)), max_size=16))
    ends = np.array([v for v, n in stretches for _ in range(n)], dtype=float)
    finite = sorted({float(v) for v in ends if np.isfinite(v)})
    if finite and draw(st.booleans()):
        node = draw(st.sampled_from(finite))
        target = draw(st.sampled_from(
            [node, float(np.nextafter(node, -np.inf)), float(np.nextafter(node, np.inf))]
        ))
    else:
        target = draw(st.floats(-4.0, 4.0))
    return ends, target


@settings(max_examples=400, deadline=None)
@given(case=_ends_and_target())
@example(case=(np.array([1.0, 0.0, 1.0]), 0.0))  # a turning node on the target
@example(case=(np.array([0.0, 1.0, 1.0, 1.0, 0.0, 1.0]), 1.0))  # a plateau on it
@example(case=(np.array([2.0, 1.0, 1.0, 2.0]), 1.5))  # a flat valley
@example(case=(np.array([0.0, np.nan, 2.0, np.nan, 1.0]), 1.0))  # lone nodes
@example(case=(np.array([np.inf, np.inf, -np.inf]), 0.0))  # an inf - inf step
@example(case=(np.array([2.0]), 2.0))  # one node, on the target
@example(case=(np.array([np.nan]), 0.0))  # NaN nodes only
@example(case=(np.array([np.nan, np.nan]), 0.0))
@example(case=(np.array([]), 0.0))  # no node
@example(case=(np.array([1.0, np.inf]), 1.0))  # an infinite end
@example(case=(np.array([-np.inf, -np.inf, 0.0]), -1.0))  # equal infinities
@example(case=(np.array([0.0, 1.0, np.nan, 3.0, 2.0]), 2.5))  # a NaN between runs
def test_run_index_gives_the_nodes_and_brackets_of_the_sign_scan(case):
    """The crossings of a target, looked up by binary search in the
    monotone run of the ends or by the pass over all nodes when they have
    none, are exactly the node roots and strict sign flips of the full
    scan of ``ends - target``, each once and in scan order, with NaN ends
    in neither.
    The drawn ends are checked as drawn and also sorted either way without
    their NaNs, which gives a run whenever two finite ends are left."""
    ends, target = case
    finite = np.sort(ends[~np.isnan(ends)])
    for ends, monotone in ((ends, False), (finite, True), (finite[::-1], True)):
        run = _monotone_run(ends)
        if monotone and ends.size > 1 and np.isfinite(ends).all():
            assert run is not None
        g = ends - target
        want_nodes, want_brackets = _sign_change_brackets(g)
        nodes, brackets = _crossings(ends, run, target)
        assert nodes == want_nodes.tolist()
        assert brackets == want_brackets.tolist()


@settings(max_examples=200, deadline=None)
@given(
    ends=st.lists(
        st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=30
    ).map(sorted),
    falling=st.booleans(),
)
@example(ends=[-9.9792015476736e291, 1.7976931348623157e308], falling=False)
def test_monotone_ends_are_one_run(ends, falling):
    """Ends that never fall, or never rise, are one run, stored negated
    with flip -1.0 when some step falls.  With a turn or a NaN appended,
    or cut to one node, they have none."""
    ends = np.array(ends[::-1] if falling else ends)
    flip = -1.0 if ends[-1] < ends[0] else 1.0
    assert _monotone_run(ends) == ((flip * ends).tolist(), flip)
    assert _monotone_run(np.append(ends, np.nan)) is None
    assert _monotone_run(ends[:1]) is None
    if ends[0] != ends[-1]:
        assert _monotone_run(np.append(ends, ends[0])) is None


def test_hand_built_scan_gets_the_same_roots_as_an_indexed_one():
    """A ``LineScan`` built by hand with no run makes ``_line_roots`` pass
    over all its nodes; the roots equal those of the scan ``_scan_line``
    built with its run, to the bit."""
    scan = _scan_line(0.80, 0.83, 0.2, lambda pts: _forward_many(pts, 2, 0.05)[:, 1])
    targets = [1.79, float(scan.ends[300]), 1.83, 1.9]
    bare = LineScan(scan.p_grid, scan.ends, scan.end_min, scan.end_max, run=None)
    assert bare.run is None and scan.run is not None
    want = [[r.hex() for r in found] for found in _line_roots(scan, 0.2, targets, 2, 0.05)]
    got = [[r.hex() for r in found] for found in _line_roots(bare, 0.2, targets, 2, 0.05)]
    assert got == want and [len(found) for found in want] == [1, 1, 1, 0]


def test_unknown_regime_rejected():
    alpha, beta = _packet_pair(0.0, 0.0, 0.0, 0.5)
    with pytest.raises(ConfigError):
        find_seeds(alpha, beta, 2, K_CHAOTIC, regime="mixed")


# ---------------------------------------------------------------------------
# duplicate merge
# ---------------------------------------------------------------------------

def _saddle(winding, P, Q):
    """A saddle record of ``winding`` whose trajectory starts at (P, Q),
    all that :func:`_merge_saddles` reads of it."""
    start = ComplexPhasePoint(complex(P), complex(Q))
    return SaddleTrajectory(
        trajectory=ComplexTrajectory(
            points=(start,), action=0j, legs=((1 + 0j, 0j, 0j, 1 + 0j),)
        ),
        seed=SeedTrajectory(ic=(0.0, 0.0), t=0, winding=winding),
        residual_history=(0.0,),
    )


def _merged(named):
    """The names :func:`_merge_saddles` keeps of (name, saddle) pairs."""
    names = {id(sad): name for name, sad in named}
    return [names[id(sad)] for sad in _merge_saddles([sad for _, sad in named])]


def test_merge_keeps_the_first_item_in_input_order():
    items = [
        ("a", _saddle((0, 1), 0.1 + 0.2j, 0.3)),
        ("b", _saddle((0, 0), 0.1 + 0.2j, 0.3)),
        ("c", _saddle((0, 1), 0.1 + 0.2j, 0.3)),
        ("d", _saddle((0, 0), 0.4, 0.3 - 0.1j)),
        ("e", _saddle((0, 0), 0.1 + 0.2j, 0.3)),
    ]
    assert _merged(items) == ["a", "b", "d"]


@pytest.mark.parametrize("part", range(4))
def test_merge_tolerance_applies_to_every_component(part):
    base = np.array([0.2, -0.05, 0.7, 0.01])

    def item(name, offset):
        x = base.copy()
        x[part] += offset
        return (name, _saddle((1, -1), complex(x[0], x[1]), complex(x[2], x[3])))

    near = [item("first", 0.0), item("near", 0.9 * _MERGE_TOL)]
    far = [item("first", 0.0), item("far", 1.1 * _MERGE_TOL)]
    assert _merged(near) == ["first"]
    assert _merged(far) == ["first", "far"]


@pytest.mark.parametrize("part", range(4))
def test_merge_never_joins_an_item_with_a_nan_part(part):
    """A NaN part fails the distance test wherever it sits among the four,
    so neither its exact copy nor the finite saddle it came from merges."""
    parts = [0.2, -0.05, 0.7, 0.01]
    finite = (complex(parts[0], parts[1]), complex(parts[2], parts[3]))
    parts[part] = float("nan")
    nan = (complex(parts[0], parts[1]), complex(parts[2], parts[3]))
    items = [
        ("finite", _saddle((0, 0), *finite)),
        ("nan", _saddle((0, 0), *nan)),
        ("copy", _saddle((0, 0), *nan)),
    ]
    assert _merged(items) == ["finite", "nan", "copy"]
    assert _merged(items[1:]) == ["nan", "copy"]


def test_merge_joins_copies_on_either_side_of_a_rounding_edge():
    """Keys rounded to 1e-9 split two copies 1e-17 apart around 1.5e-9;
    the distance test does not."""
    lo, hi = 1.5e-9 - 5e-18, 1.5e-9 + 5e-18
    assert round(lo, 9) != round(hi, 9)
    assert int(np.round(lo * 1e9)) != int(np.round(hi * 1e9))
    items = [("lo", _saddle((0, 0), lo, 0j)), ("hi", _saddle((0, 0), hi, 0j))]
    assert _merged(items) == ["lo"]


def test_chaotic_preset_merges_nine_seeds_into_seven_saddles(chaotic_bundle):
    cfg = chaotic_bundle.config
    alpha, beta = _packet_pair(*cfg.alpha_center, *cfg.beta_center, N=cfg.N_list[0])
    seeds = find_seeds(
        alpha, beta, cfg.t, RotorParams(cfg.K),
        image_range=cfg.image_range, regime=cfg.regime,
    )
    kept = chaotic_bundle.setup.seeds
    assert len(seeds) == 9
    assert len(chaotic_bundle.setup.saddles) == 7
    # the kept seeds keep their search order, and each dropped seed comes
    # after a kept one of its winding: the first of each pair stays
    assert [s for s in seeds if s in kept] == list(kept)
    for i, s in enumerate(seeds):
        if s not in kept:
            assert any(k.winding == s.winding for k in seeds[:i] if k in kept)
