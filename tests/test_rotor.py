"""Kicked-rotor map, stability, action bookkeeping, and transport geometry."""
import csv
import io

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from ggwpd.errors import ConfigError, NumericalError, RunawayError
from ggwpd.experiment import packets_for, preset
from ggwpd.packets import ComplexPhasePoint, GaussianPacket
from ggwpd.rotor import (
    _CURVE_SPACING,
    _GERM_OFFSET,
    _MERGE_TOL,
    _SHEAR_HALFWIDTH_SIGMA,
    ManifoldCurve,
    RotorParams,
    SeedTrajectory,
    _backward_many,
    _bisect_brackets,
    _check_fixed_point,
    _forward_many,
    _forward_q,
    _hyperbolic_frame,
    _line_roots,
    _merge_duplicates,
    _scan_line,
    _sign_change_brackets,
    curve_to_csv,
    find_seeds,
    inverse_map_step,
    iterate_map,
    map_step,
    propagate,
    propagate_curve,
    shearing_manifold,
    stable_manifold,
    unstable_manifold,
)

K_CHAOTIC = RotorParams(K=8.25)
K_MILD = RotorParams(K=0.05)


def _packet_pair(p_a, q_a, p_b, q_b, N=50):
    hbar = 1.0 / (2.0 * np.pi * N)
    b = np.pi * N
    return GaussianPacket(p_a, q_a, b, hbar), GaussianPacket(p_b, q_b, b, hbar)


def test_map_step_matches_hand_formula():
    z = ComplexPhasePoint(0.3 + 0.02j, 0.7 - 0.01j)
    out = map_step(z, K_CHAOTIC)
    p1 = z.p1 - (8.25 / (2 * np.pi)) * np.sin(2 * np.pi * z.q1)
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
        assert abs(traj.stability_determinant() - 1.0) < 1e-10
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
def test_runaway_raises_when_the_trajectory_stops_being_finite(P0, Q0):
    """NaN fails every magnitude comparison, so a bound too large to trip
    must still not let a NaN or infinite trajectory through."""
    with np.errstate(all="ignore"), pytest.raises(RunawayError) as err:
        propagate(ComplexPhasePoint(P0, Q0), 6, K_CHAOTIC, runaway_bound=1e300)
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
        got = propagate(ic, t, params, runaway_bound)
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


def test_unstable_manifold_contracts_backwards():
    """Unstable-curve samples converge to the fixed point under the inverse map."""
    curve = unstable_manifold((0.0, 0.0), K_CHAOTIC, arc_budget=2.0)
    assert curve.kind == "unstable"
    assert len(curve.points) > 100
    sample = curve.points[:: max(1, len(curve.points) // 15)]
    for p, q in sample:
        z = ComplexPhasePoint(complex(p), complex(q))
        for _ in range(12):
            z = inverse_map_step(z, K_CHAOTIC)
        assert np.hypot(z.p1.real, z.q1.real) < 1e-3


def test_stable_manifold_contracts_forwards():
    curve = stable_manifold((0.0, 0.5), K_CHAOTIC, arc_budget=2.0)
    assert curve.kind == "stable"
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
    lam_u, v_u, lam_s, v_s = _hyperbolic_frame(fp, params.K)
    lam, v = (1.0 / lam_s, v_s) if inverse else (lam_u, v_u)
    step = _backward_many if inverse else _forward_many
    s0 = _GERM_OFFSET
    anchor = np.asarray(fp, dtype=float)
    n_levels = max(4, int(np.ceil(np.log(64.0 / s0) / np.log(abs(lam)))))

    def level_points(side, n, s_vals):
        return step(anchor[None, :] + side * s_vals[:, None] * v[None, :], n, params.K)

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
def test_level_at_a_time_growth_matches_depth_first_reference(grow, fp, inverse):
    """Breadth-first refinement gives the reference's curve bit for bit, and
    within every level only intervals stopped by the log-width floor are
    longer than the spacing."""
    spacing = _CURVE_SPACING
    ref, levels = _grow_depth_first(fp, K_CHAOTIC, 2.0, spacing, inverse)
    curve = grow(fp, K_CHAOTIC, arc_budget=2.0)
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


def test_manifold_point_cap_raises_exactly_when_a_level_exceeds_it():
    _, levels = _grow_depth_first((0.0, 0.0), K_CHAOTIC, 2.0, _CURVE_SPACING, False)
    largest = max(len(pts) for _, pts in levels)
    with pytest.raises(NumericalError):
        unstable_manifold((0.0, 0.0), K_CHAOTIC, arc_budget=2.0, max_points=500)
    with pytest.raises(NumericalError):
        unstable_manifold((0.0, 0.0), K_CHAOTIC, arc_budget=2.0, max_points=largest - 1)
    curve = unstable_manifold((0.0, 0.0), K_CHAOTIC, arc_budget=2.0, max_points=largest)
    assert len(curve.points) > largest


def test_manifold_needs_hyperbolic_fixed_point():
    with pytest.raises(ConfigError):
        unstable_manifold((0.0, 0.0), K_MILD)


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


def test_shearing_manifold_is_vertical_segment():
    packet = GaussianPacket(0.815, 0.2, np.pi * 50, 1.0 / (2 * np.pi * 50))
    curve = shearing_manifold(packet)
    sig_p = packet.hbar / (2.0 * packet.sigma)
    assert np.allclose(curve.points[:, 1], packet.q1, atol=0.0)
    assert abs(curve.points[:, 0].min() - (packet.p1 - 5.0 * sig_p)) < 1e-12
    assert abs(curve.points[:, 0].max() - (packet.p1 + 5.0 * sig_p)) < 1e-12


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
    curve_to_csv(ManifoldCurve(kind="shearing", points=points), path)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(["index", "p", "q"])
    for i, (p, q) in enumerate(points):
        writer.writerow([i, format(p, ".17g"), format(q, ".17g")])
    assert path.read_bytes() == expected.getvalue().encode()


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
    bisected on its own, and strict sign changes only.  Returns the seeds
    and how many brackets were dropped as depth-switching artifacts."""
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

    found, seen, artifacts = [], set(), 0
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
                    key = (int(np.round(z_star[0] * 1e9)), int(np.round(z_star[1] * 1e9)))
                    if key in seen:
                        continue
                    seen.add(key)
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
    reference's seeds bit for bit, merged duplicates included.  The
    K = 7 case also drops brackets as depth-switching artifacts."""
    alpha, beta = _packet_pair(0.0, 0.0, 0.0, 0.5)
    params = RotorParams(K)
    ref, dropped = _heteroclinic_seeds_per_bracket(alpha, beta, t, params, image_range)
    seeds = find_seeds(alpha, beta, t, params, image_range=image_range, regime="chaotic")
    assert (len(ref), dropped) == (count, artifacts)
    assert seeds == ref


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


@settings(max_examples=200, deadline=None)
@given(
    p=st.floats(-2.0, 2.0),
    q0=st.floats(-2.0, 2.0),
    t=st.integers(0, 20),
    K=st.floats(0.0, 10.0),
)
def test_scalar_end_position_matches_forward_many_bit_for_bit(p, q0, t, K):
    """The float helper the shearing bisection evaluates midpoints with
    gives the end position numpy's row path gives, to the last bit (a
    numpy ``sin`` that rounded differently from libm's would break it)."""
    want = float(_forward_many(np.array([[p, q0]]), t, K)[0, 1])
    assert _forward_q(p, q0, t, K).hex() == want.hex()


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
    """The lines, targets, t and K that the integrable seed search and the
    benchmark wavefunction pass, the latter over a grid of positions that
    reaches below, inside and above the scanned range."""
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
    w = 8.0 * sig_p  # ggwpd_wavefunction's default halfwidth_sigma
    found = 0
    for x in np.linspace(0.0, 1.0, 41):
        roots, _ = _assert_same_shearing_roots(
            alpha.p1 - w, alpha.p1 + w, alpha.q1,
            [x + n for n in shifts], cfg.t, cfg.K,
        )
        found += sum(map(len, roots))
    assert found > 0


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


def test_unknown_regime_rejected():
    alpha, beta = _packet_pair(0.0, 0.0, 0.0, 0.5)
    with pytest.raises(ConfigError):
        find_seeds(alpha, beta, 2, K_CHAOTIC, regime="mixed")


# ---------------------------------------------------------------------------
# duplicate merge
# ---------------------------------------------------------------------------

def _place(item):
    return item[1:]


def test_merge_keeps_the_first_item_in_input_order():
    items = [
        ("a", (0, 1), 0.1 + 0.2j, 0.3),
        ("b", (0, 0), 0.1 + 0.2j, 0.3),
        ("c", (0, 1), 0.1 + 0.2j, 0.3),
        ("d", (0, 0), 0.4, 0.3 - 0.1j),
        ("e", (0, 0), 0.1 + 0.2j, 0.3),
    ]
    assert [i[0] for i in _merge_duplicates(items, _place)] == ["a", "b", "d"]


@pytest.mark.parametrize("part", range(4))
def test_merge_tolerance_applies_to_every_component(part):
    base = np.array([0.2, -0.05, 0.7, 0.01])

    def item(name, offset):
        x = base.copy()
        x[part] += offset
        return (name, (1, -1), complex(x[0], x[1]), complex(x[2], x[3]))

    near = [item("first", 0.0), item("near", 0.9 * _MERGE_TOL)]
    far = [item("first", 0.0), item("far", 1.1 * _MERGE_TOL)]
    assert [i[0] for i in _merge_duplicates(near, _place)] == ["first"]
    assert [i[0] for i in _merge_duplicates(far, _place)] == ["first", "far"]


@pytest.mark.parametrize("part", range(4))
def test_merge_never_joins_an_item_with_a_nan_part(part):
    """A NaN part fails the distance test wherever it sits among the four,
    so neither its exact copy nor the finite item it came from merges."""
    parts = [0.2, -0.05, 0.7, 0.01]
    finite = ("finite", (0, 0), complex(parts[0], parts[1]), complex(parts[2], parts[3]))
    parts[part] = float("nan")
    nan = ("nan", (0, 0), complex(parts[0], parts[1]), complex(parts[2], parts[3]))
    items = [finite, nan, ("copy",) + nan[1:]]
    assert [i[0] for i in _merge_duplicates(items, _place)] == ["finite", "nan", "copy"]
    assert [i[0] for i in _merge_duplicates(items[1:], _place)] == ["nan", "copy"]


def test_merge_joins_copies_on_either_side_of_a_rounding_edge():
    """Keys rounded to 1e-9 split two copies 1e-17 apart around 1.5e-9;
    the distance test does not."""
    lo, hi = 1.5e-9 - 5e-18, 1.5e-9 + 5e-18
    assert round(lo, 9) != round(hi, 9)
    assert int(np.round(lo * 1e9)) != int(np.round(hi * 1e9))
    items = [("lo", (0, 0), complex(lo), 0j), ("hi", (0, 0), complex(hi), 0j)]
    assert [i[0] for i in _merge_duplicates(items, _place)] == ["lo"]


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
