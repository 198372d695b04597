"""Saddle search, branch tracking, and the three correlation evaluators."""
import cmath
import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from ggwpd.errors import (
    CausticError,
    ConfigError,
    ConvergenceError,
    NumericalError,
    RunawayError,
)
from ggwpd.experiment import packets_for, preset
from ggwpd.free_particle import free_trajectory
from ggwpd.floquet import (
    discretize_packet,
    floquet_matrix,
    grid_hbar,
    quantum_correlation,
)
from ggwpd.packets import (
    ComplexPhasePoint,
    GaussianPacket,
    ResidualPair,
    gaussian_overlap,
)
from ggwpd.rotor import (
    ComplexTrajectory,
    RotorParams,
    SeedTrajectory,
    _line_roots,
    _merge_duplicates,
    _scan_line,
    find_seeds,
    iterate_map,
    propagate,
)
from ggwpd import semiclassics
from ggwpd.semiclassics import (
    _tracked_sqrt,
    find_position_saddle,
    find_saddle,
    ggwpd_correlation,
    ggwpd_wavefunction,
    linearized_correlation,
    offcenter_contribution,
    offcenter_correlation,
    saddle_contribution,
    wavefunction_contribution,
)


def _packet(p, q, N):
    return GaussianPacket(p, q, np.pi * N, grid_hbar(N))


# ---------------------------------------------------------------------------
# branch-tracked square root
# ---------------------------------------------------------------------------

def test_tracked_sqrt_of_one_sample_is_the_principal_root():
    assert abs(_tracked_sqrt(np.array([4.0 + 0j])) - 2.0) < 1e-15
    assert abs(_tracked_sqrt(np.array([-4.0 + 0j])) - 2.0j) < 1e-15


def test_tracked_sqrt_unwraps_past_the_cut():
    """Following a continuous loop of determinants crosses the principal cut.

    Walking exp(i theta) from 0 to 3 pi / 2 must land on
    exp(i 3 pi / 4) even though the principal root of exp(i 3 pi / 2)
    is exp(-i pi / 4); a full 2 pi loop must return the negated root.
    """
    walk = np.exp(1j * np.linspace(0.0, 1.5 * np.pi, 40))
    assert abs(_tracked_sqrt(walk) - np.exp(0.75j * np.pi)) < 1e-12
    loop = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 60))
    assert abs(_tracked_sqrt(loop) + 1.0) < 1e-12


@pytest.mark.parametrize("dets", [[0j], [1.0, 0j], [1.0, 0j, 1.0]])
def test_tracked_sqrt_rejects_a_zero_sample(dets):
    with pytest.raises(CausticError):
        _tracked_sqrt(np.array(dets, dtype=complex))


def _tracked_sqrt_numpy(dets):
    """``_tracked_sqrt`` as it was, on numpy arrays."""
    dets = np.array(dets, dtype=complex)
    legs = dets[1:] * np.conj(dets[:-1])
    if dets[-1] == 0 or np.any((legs.imag == 0.0) & (legs.real <= 0.0)):
        raise CausticError("determinant passes through zero: caustic encountered")
    angle = sum(np.angle(dets[1:] / dets[:-1]).tolist(), float(np.angle(dets[0])))
    return complex(np.sqrt(abs(dets[-1])) * np.exp(0.5j * angle))


def _polar(r_lo, r_hi, angle):
    return st.tuples(st.floats(r_lo, r_hi), st.floats(-angle, angle))


def _det_walk(start, steps):
    dets = [cmath.rect(*start)]
    for ratio in steps:
        dets.append(dets[-1] * cmath.rect(*ratio))
    return dets


# a start anywhere, then steps whose ratios keep 0.04 rad off the negative
# real axis, where a one-ulp difference in a ratio could flip its angle by 2 pi
_det_walks = st.builds(
    _det_walk, _polar(1e-3, 1e3, math.pi), st.lists(_polar(1e-2, 1e2, 3.1), max_size=12)
)


@settings(max_examples=300, deadline=None)
@given(dets=_det_walks)
def test_tracked_sqrt_matches_the_numpy_algorithm(dets):
    """The scalar walk gives the root the numpy version gave, on 1 to 13
    nonzero determinants."""
    want = _tracked_sqrt_numpy(dets)
    assert abs(_tracked_sqrt(dets) - want) <= 1e-14 * abs(want)


def _short(x):
    m, e = math.frexp(x)
    return math.ldexp(round(m * 2**20), e - 20)


@settings(max_examples=200, deadline=None)
@given(
    dets=_det_walks,
    where=st.floats(0.0, 1.0),
    through_zero=st.booleans(),
    scale=st.integers(-4, 4),
)
def test_tracked_sqrt_caustics_match_the_numpy_algorithm(dets, where, through_zero, scale):
    """A zero sample, or a leg from z to -2**scale * z (exactly through
    zero), raises ``CausticError`` in both versions.  numpy may multiply
    with fused multiply-adds, which leave a rounding-level imaginary part
    on such a leg; z keeps 20 significant bits, so every product is exact."""
    if through_zero:
        k = 1 + int(where * (len(dets) - 1))
        z = complex(_short(dets[k - 1].real), _short(dets[k - 1].imag))
        dets[k - 1 : k] = [z, -(2.0**scale) * z]
    else:
        dets.insert(int(where * len(dets)), 0j)
    for tracked_sqrt in (_tracked_sqrt, _tracked_sqrt_numpy):
        with pytest.raises(CausticError):
            tracked_sqrt(dets)


# ---------------------------------------------------------------------------
# Newton refinement
# ---------------------------------------------------------------------------

def test_find_saddle_converges_quadratically_from_real_seed():
    N = 50
    alpha = _packet(0.815, 0.2, N)
    beta = _packet(0.77, 0.8, N)
    seed = SeedTrajectory(ic=(0.8075682672865, 0.2), t=2, winding=(0, 1))
    sad = find_saddle(alpha, beta, seed, RotorParams(0.05))
    assert sad.iterations <= 8
    assert sad.residual_norm < 1e-12
    hist = sad.residual_history
    assert all(b < a for a, b in zip(hist, hist[1:]))
    # once inside the quadratic basin each step roughly squares the error
    assert hist[-1] < hist[-2] ** 1.5


def test_find_saddle_with_zero_steps_reproduces_overlap():
    """A t = 0 "trajectory" has linear residuals, so one Newton step lands
    the saddle exactly and the single-branch sum must equal the closed-form
    packet overlap."""
    N = 80
    alpha = _packet(0.30, 0.40, N)
    beta = _packet(0.35, 0.45, N)
    seed = SeedTrajectory(ic=(alpha.p1, alpha.q1), t=0, winding=(0, 0))
    sad = find_saddle(alpha, beta, seed, RotorParams(8.25))
    assert sad.iterations == 1
    result = ggwpd_correlation(alpha, beta, [sad], 0)
    expected = gaussian_overlap(alpha, beta)
    assert abs(result.total - expected) < 1e-13 * abs(expected)


def test_find_saddle_iteration_cap_raises(monkeypatch):
    N = 50
    alpha = _packet(0.815, 0.2, N)
    beta = _packet(0.77, 0.8, N)
    seed = SeedTrajectory(ic=(0.4, 0.9), t=2, winding=(0, 1))
    monkeypatch.setattr(semiclassics, "_NEWTON_MAX_ITER", 1)
    with pytest.raises(ConvergenceError) as err:
        find_saddle(alpha, beta, seed, RotorParams(0.05))
    assert err.value.iterations >= 1
    assert err.value.residual > 0.0


def test_saddle_location_is_width_scaling_invariant():
    """b = pi N and hbar = 1 / (2 pi N) cancel out of the saddle equations."""
    seed = SeedTrajectory(ic=(0.8075682672865, 0.2), t=2, winding=(0, 1))
    params = RotorParams(0.05)
    locations = []
    for N in (50, 700):
        alpha = _packet(0.815, 0.2, N)
        beta = _packet(0.77, 0.8, N)
        sad = find_saddle(alpha, beta, seed, params)
        locations.append((sad.trajectory.initial.p1, sad.trajectory.initial.q1))
    (P_a, Q_a), (P_b, Q_b) = locations
    assert abs(P_a - P_b) < 1e-10
    assert abs(Q_a - Q_b) < 1e-10


@pytest.mark.parametrize(
    "jac",
    [((0j, 1.0), (0j, 2.0)), ((1.0, 2.0), (2.0, 4.0)), ((1j, 2.0), (2.0, -4j))],
    ids=["zero-pivot", "zero-diagonal", "zero-diagonal-swapped"],
)
def test_singular_newton_step_raises_caustic_error(jac):
    with pytest.raises(CausticError, match="singular Newton system"):
        semiclassics._solve_newton_step(jac, (1.0 + 0j, 1.0 + 0j))


def test_newton_search_with_a_singular_jacobian_raises_caustic_error():
    """The singular-step refusal is reached from a running search."""
    seed = SeedTrajectory(ic=(0.8, 0.2), t=2, winding=(0, 0))
    with pytest.raises(CausticError):
        semiclassics._newton_solve(
            seed,
            RotorParams(0.05),
            lambda traj: ResidualPair(traj.final.q1 - 0.5, 0j),
            lambda traj: ((1j, 2.0), (2.0, -4j)),
        )


_entries = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(a=_entries, b=_entries, c=_entries, d=_entries, r0=_entries, r1=_entries,
       swap=st.booleans())
def test_scalar_newton_step_matches_numpy_solve(a, b, c, d, r0, r1, swap):
    """Random complex 2x2 systems, half of them with the larger first
    entry in the lower row, so that the elimination swaps rows; the
    solution agrees with LAPACK's to 64 eps times the condition number."""
    if abs(a) == abs(c):
        reject()
    if (abs(c) > abs(a)) != swap:
        a, b, c, d, r0, r1 = c, d, a, b, r1, r0
    jac = np.array([[a, b], [c, d]])
    kappa = np.linalg.cond(jac)
    if not kappa < 1e12:
        reject()
    want = np.linalg.solve(jac, np.array([r0, r1]))
    if not np.all(np.isfinite(want)):
        reject()
    got = semiclassics._solve_newton_step(((a, b), (c, d)), (r0, r1))
    assert all(type(x) is complex for x in got)
    err = np.linalg.norm(np.array(got) - want)
    assert err <= 64 * np.finfo(float).eps * kappa * np.linalg.norm(want)


def _numpy_newton_solve(seed, params, residual_of, jacobian_of):
    """The Newton loop as it ran on numpy arrays: one ``np.linalg.solve``
    per step, and residual norms through ``np.abs``."""
    def norm(res):
        return float(max(np.abs(res.initial), np.abs(res.final)))

    ic = ComplexPhasePoint(complex(seed.ic[0]), complex(seed.ic[1]))
    traj = propagate(ic, seed.t, params)
    res = residual_of(traj)
    history = [norm(res)]
    while history[-1] >= semiclassics._NEWTON_TOL:
        assert len(history) <= semiclassics._NEWTON_MAX_ITER
        jac = np.array(jacobian_of(traj))
        delta = np.linalg.solve(jac, -np.array([res.initial, res.final]))
        scale = 1.0
        for _ in range(7):
            cand = propagate(
                ComplexPhasePoint(
                    traj.initial.p1 + scale * delta[0],
                    traj.initial.q1 + scale * delta[1],
                ),
                seed.t,
                params,
            )
            cand_res = residual_of(cand)
            if norm(cand_res) < history[-1]:
                break
            scale *= 0.5
        else:
            raise AssertionError("the numpy reference failed to reduce the residual")
        traj, res = cand, cand_res
        history.append(norm(res))
    return semiclassics.SaddleTrajectory(
        trajectory=traj, seed=seed, residual_history=tuple(history)
    )


@pytest.mark.parametrize("fixture", ["integrable_bundle", "chaotic_bundle"])
def test_preset_saddles_match_the_numpy_newton_loop(fixture, request, monkeypatch):
    """Every preset saddle, re-solved with the numpy loop at the N it was
    located at, sits within 1e-15 per component and took as many steps."""
    bundle = request.getfixturevalue(fixture)
    alpha, beta = packets_for(bundle.config, bundle.setup.reference_N)
    params = RotorParams(bundle.config.K)
    monkeypatch.setattr(semiclassics, "_newton_solve", _numpy_newton_solve)
    for sad in bundle.setup.saddles:
        want = find_saddle(alpha, beta, sad.seed, params)
        assert sad.iterations == want.iterations
        got_ic, want_ic = sad.trajectory.initial, want.trajectory.initial
        for g, w in ((got_ic.p1, want_ic.p1), (got_ic.q1, want_ic.q1)):
            assert abs(g.real - w.real) <= 1e-15
            assert abs(g.imag - w.imag) <= 1e-15


def test_wavefunction_matches_the_numpy_newton_loop(monkeypatch):
    """The benchmark's N = 700 wavefunction at the preset centre: every
    grid point agrees with the numpy loop's value to 1e-11 max|psi|."""
    cfg = preset("integrable-fig2")
    alpha, _ = packets_for(cfg, 700)
    params = RotorParams(cfg.K)

    def values():
        return np.array([
            ggwpd_wavefunction(alpha, s / 700, cfg.t, params, image_range=2)
            for s in range(1, 701)
        ])

    got = values()
    monkeypatch.setattr(semiclassics, "_newton_solve", _numpy_newton_solve)
    want = values()
    peak = np.max(np.abs(want))
    assert peak > 1.0
    assert np.max(np.abs(got - want)) <= 1e-11 * peak


# ---------------------------------------------------------------------------
# correlation evaluators against the exact quantum reference
# ---------------------------------------------------------------------------

def _subdivided_root(traj, K, det_of, n=256):
    """Reference branch: det_of(M) sampled with every kick and drift leg cut
    into n pieces, the stability matrix rebuilt from the orbit's points, and
    the samples' argument unwrapped by np.unwrap."""
    M = np.eye(2, dtype=complex)
    samples = [det_of(M)]
    for z in traj.points[:-1]:
        c = K * np.cos(2.0 * np.pi * z.q1)
        for leg in (np.array([[0.0, -c], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]])):
            for f in np.arange(1, n + 1) / n:
                samples.append(det_of((np.eye(2) + f * leg) @ M))
            M = (np.eye(2) + leg) @ M
    angle = np.unwrap(np.angle(samples))[-1]
    return np.sqrt(abs(samples[-1])) * np.exp(0.5j * angle)


def _saddle_det(alpha, beta):
    ba, bb, hbar = alpha.b1, beta.b1, alpha.hbar
    return lambda M: (
        M[0, 0] * ba + bb * M[1, 1] + 2j * hbar * bb * M[1, 0] * ba - (0.5j / hbar) * M[0, 1]
    )


def _wavefunction_det(alpha):
    return lambda M: M[1, 1] + 2j * alpha.hbar * M[1, 0] * alpha.b1


def _assert_prefactors_match_subdivided_legs(traj, K, alpha, beta):
    # values of far-complex trajectories may overflow; only prefactors count
    with np.errstate(over="ignore", invalid="ignore"):
        saddle = saddle_contribution(alpha, beta, traj).prefactor
        wave = wavefunction_contribution(alpha, traj).prefactor
    for value, det_of in ((saddle, _saddle_det(alpha, beta)), (wave, _wavefunction_det(alpha))):
        reference = 1.0 / _subdivided_root(traj, K, det_of)
        assert abs(value - reference) <= 1e-13 * abs(reference)


def test_endpoint_branch_tracking_matches_subdivided_legs(chaotic_bundle):
    """Tracking the prefactor branch through the leg endpoints alone gives
    the root a 256-fold subdivision of every leg gives, on the chaotic
    preset's saddles (complex) and seed trajectories (real)."""
    config, setup = chaotic_bundle.config, chaotic_bundle.setup
    params = RotorParams(config.K)
    trajectories = [sad.trajectory for sad in setup.saddles] + [
        propagate(ComplexPhasePoint(*seed.ic), config.t, params) for seed in setup.seeds
    ]
    for N in (config.N_list[0], config.N_list[-1]):
        alpha, beta = packets_for(config, N)
        for traj in trajectories:
            _assert_prefactors_match_subdivided_legs(traj, config.K, alpha, beta)


@settings(max_examples=60, deadline=None)
@given(
    P=st.complex_numbers(max_magnitude=1.0),
    Q=st.complex_numbers(max_magnitude=1.0),
    t=st.integers(1, 6),
    N=st.integers(50, 700),
)
def test_endpoint_branch_tracking_matches_subdivided_legs_property(P, Q, t, N):
    """The same claim on random complex K = 8.25 trajectories; starts that
    run away are not trajectories the evaluators ever see."""
    K = 8.25
    try:
        traj = propagate(ComplexPhasePoint(P, Q), t, RotorParams(K))
    except RunawayError:
        reject()
    _assert_prefactors_match_subdivided_legs(traj, K, _packet(0.0, 0.0, N), _packet(0.0, 0.5, N))


@pytest.mark.parametrize("evaluator", ["saddle", "wavefunction", "offcenter"])
def test_determinant_leg_through_zero_is_a_caustic(evaluator):
    """Legs I then -I put every tracked determinant on a segment
    through zero, where no principal angle is the true change in argument."""
    alpha = _packet(0.1, 0.2, 50)
    z = ComplexPhasePoint(0.1, 0.2)
    traj = ComplexTrajectory(
        points=(z, z), action=0j,
        legs=((1 + 0j, 0j, 0j, 1 + 0j), (-1 + 0j, 0j, 0j, -1 + 0j)),
    )
    with pytest.raises(CausticError):
        if evaluator == "saddle":
            saddle_contribution(alpha, alpha, traj)
        elif evaluator == "wavefunction":
            wavefunction_contribution(alpha, traj)
        else:
            offcenter_contribution(alpha, alpha, traj)


@pytest.mark.parametrize(
    "traj",
    [
        propagate(ComplexPhasePoint(0.1, 0.08), 2, RotorParams(8.25)),
        free_trajectory(ComplexPhasePoint(0.3 + 0.1j, 0.2 - 0.05j), 0.0),
        free_trajectory(ComplexPhasePoint(0.3 + 0.1j, 0.2 - 0.05j), 1.5),
    ],
    ids=["propagate", "free-t0", "free-t1.5"],
)
def test_trajectory_legs_are_tuples_of_four_python_complex_numbers(traj):
    """``legs`` is the one stability record the three contributions read:
    immutable all the way down, and plain scalars for the branch tracking."""
    assert type(traj.legs) is tuple
    for leg in traj.legs:
        assert type(leg) is tuple and len(leg) == 4
        assert all(type(m) is complex for m in leg)


def test_zero_kick_correlation_matches_quantum():
    """K = 0 is exactly quadratic, so the saddle sum must hit the quantum
    value up to lattice-image truncation."""
    N = 64
    alpha = _packet(0.25, 0.5, N)
    beta = _packet(0.3, 0.45, N)
    params = RotorParams(0.0)
    t = 3
    seeds = find_seeds(alpha, beta, t, params, image_range=2, regime="integrable")
    saddles = [find_saddle(alpha, beta, s, params) for s in seeds]
    result = ggwpd_correlation(alpha, beta, saddles, t)
    exact = quantum_correlation(alpha, beta, t, N, params, image_range=2)
    assert abs(result.total - exact) < 1e-10


def test_zero_kick_wavefunction_matches_quantum_grid():
    N = 64
    alpha = _packet(0.25, 0.5, N)
    params = RotorParams(0.0)
    t = 3
    F = np.linalg.matrix_power(floquet_matrix(N, params), t)
    expected = np.sqrt(N) * (F @ discretize_packet(alpha, N, image_range=2))
    xs = np.arange(1, N + 1) / N
    psi = np.array(
        [
            ggwpd_wavefunction(alpha, x, t, params, image_range=2, halfwidth_sigma=12.0)
            for x in xs
        ]
    )
    assert np.max(np.abs(psi - expected)) < 1e-9
    overlap = abs(np.vdot(expected, psi)) / (
        np.linalg.norm(expected) * np.linalg.norm(psi)
    )
    assert 1.0 - overlap < 1e-12


def test_wavefunction_peak_position_not_special():
    """The scan must not lose the saddle when x sits exactly on the
    evolved center (the root then falls on a scan node)."""
    N = 64
    alpha = _packet(0.25, 0.5, N)
    params = RotorParams(0.0)
    x_center = (0.5 + 3 * 0.25) % 1.0
    val = ggwpd_wavefunction(alpha, x_center, 3, params, image_range=2)
    assert abs(val) > 1.0  # the peak of a packet this narrow is O(N^(1/4))


def test_wavefunction_refuses_images_beyond_the_window():
    """integrable-fig2 at N = 700, t = 4 carries the line about three
    images up, past image_range = 2: the sum would miss those saddles
    (and was exactly 0j at every point).  Each point the line reaches
    outside the window raises; every other point is 0j in any window."""
    alpha = _packet(0.815, 0.2, 700)
    params = RotorParams(0.05)
    refused = 0
    for x in np.linspace(0.0, 1.0, 81):
        wide = ggwpd_wavefunction(alpha, x, 4, params, image_range=4)
        if wide == 0j:
            assert ggwpd_wavefunction(alpha, x, 4, params, image_range=2) == 0j
            continue
        with pytest.raises(NumericalError, match="image_range = 2"):
            ggwpd_wavefunction(alpha, x, 4, params, image_range=2)
        refused += 1
    assert refused > 40


def test_wavefunction_scans_each_packet_through_iterate_map_once(monkeypatch):
    """All 700 grid points of one packet share one scan of the shearing
    line, a single 1025-row call to the module's ``iterate_map`` (where
    perfbench's trace hooks time the scan), and a second packet adds one
    more; the crossings are bisected without it."""
    calls = []
    iterate_map = semiclassics.iterate_map

    def spy(points, *rest):
        calls.append(len(points))
        return iterate_map(points, *rest)

    monkeypatch.setattr(semiclassics, "iterate_map", spy)
    semiclassics._wavefunction_scan.cache_clear()
    params = RotorParams(0.05)
    for center, want in (((0.815, 0.2), [1025]), ((0.8, 0.23), [1025, 1025])):
        alpha = _packet(*center, 700)
        values = [
            ggwpd_wavefunction(alpha, s / 700, 2, params, image_range=2)
            for s in range(1, 701)
        ]
        assert max(map(abs, values)) > 1.0  # crossings were found and bisected
        assert calls == want


def test_memoized_scan_is_read_only_and_shared():
    """Every caller gets the same two arrays, so none may write to them."""
    semiclassics._wavefunction_scan.cache_clear()
    scan = semiclassics._wavefunction_scan(0.80, 0.83, 0.2, 2, 0.05)
    for arr in (scan.p_grid, scan.ends):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    again = semiclassics._wavefunction_scan(0.80, 0.83, 0.2, 2, 0.05)
    assert again.p_grid is scan.p_grid and again.ends is scan.ends


def _wavefunction_uncached(alpha, x, t, params, image_range, halfwidth_sigma=8.0):
    """``ggwpd_wavefunction`` as it was: a fresh ``_scan_line`` scan
    through ``iterate_map`` at every position, then ``_line_roots``."""
    w = halfwidth_sigma * alpha.hbar / (2.0 * alpha.sigma)
    windings = range(-image_range, image_range + 1)
    targets = [x + n_q for n_q in windings]
    scan = _scan_line(
        alpha.p1 - w, alpha.p1 + w, alpha.q1,
        lambda pts: iterate_map(pts, t, params)[:, 1],
    )
    roots = _line_roots(scan, alpha.q1, targets, t, params.K)
    n_lo, n_hi = math.ceil(scan.ends.min() - x), math.floor(scan.ends.max() - x)
    if n_lo <= n_hi and max(-n_lo, n_hi) > image_range:
        raise NumericalError("the scanned line reaches beyond image_range")
    saddles = [
        find_position_saddle(alpha, target, p_seed, t, params, winding_q=n_q)
        for n_q, target, seed_momenta in zip(windings, targets, roots)
        for p_seed in seed_momenta
    ]
    terms = [
        wavefunction_contribution(alpha, sad.trajectory)
        for sad in _merge_duplicates(saddles, semiclassics._saddle_place)
    ]
    weights = [semiclassics._descent_weight(c, alpha.hbar) for c in terms]
    return semiclassics._prune_and_sum(terms, weights).total


def _outcome(evaluate):
    try:
        return repr(evaluate())
    except NumericalError as exc:
        return type(exc).__name__


@pytest.mark.parametrize("N", [50, 700])
def test_memoized_scan_gives_the_uncached_wavefunction_bit_for_bit(N):
    """At the preset packet, over the 41 positions the shearing-root test
    uses, the shared scan gives the values of a fresh scan per position."""
    cfg = preset("integrable-fig2")
    alpha, _ = packets_for(cfg, N)
    params = RotorParams(cfg.K)
    semiclassics._wavefunction_scan.cache_clear()
    nonzero = 0
    for x in np.linspace(0.0, 1.0, 41):
        want = _outcome(
            lambda: _wavefunction_uncached(alpha, x, cfg.t, params, cfg.image_range)
        )
        got = _outcome(
            lambda: ggwpd_wavefunction(
                alpha, x, cfg.t, params, image_range=cfg.image_range
            )
        )
        assert got == want
        nonzero += want not in ("0j", "NumericalError")
    assert nonzero > 0
    assert semiclassics._wavefunction_scan.cache_info().misses == 1


def test_ggwpd_correlation_rejects_mismatched_time():
    N = 50
    alpha = _packet(0.815, 0.2, N)
    beta = _packet(0.77, 0.8, N)
    seed = SeedTrajectory(ic=(0.8075682672865, 0.2), t=2, winding=(0, 1))
    sad = find_saddle(alpha, beta, seed, RotorParams(0.05))
    with pytest.raises(ConfigError):
        ggwpd_correlation(alpha, beta, [sad], 3)


def test_offcenter_requires_equal_widths_and_real_trajectory():
    N = 50
    alpha = _packet(0.1, 0.2, N)
    narrow = GaussianPacket(0.1, 0.7, 2 * np.pi * N, grid_hbar(N))
    traj = propagate(ComplexPhasePoint(0.1, 0.2), 2, RotorParams(0.05))
    with pytest.raises(ConfigError):
        offcenter_contribution(alpha, narrow, traj)
    # widths far below numpy's default isclose atol of 1e-8 still differ
    tiny = [GaussianPacket(0.1, q, b, grid_hbar(N)) for q, b in ((0.2, 1e-9), (0.7, 4e-9))]
    with pytest.raises(ConfigError):
        offcenter_contribution(*tiny, traj)
    complex_traj = propagate(ComplexPhasePoint(0.1 + 0.01j, 0.2), 2, RotorParams(0.05))
    beta = _packet(0.1, 0.7, N)
    with pytest.raises(ConfigError):
        offcenter_contribution(alpha, beta, complex_traj)


def test_linearized_equals_overlap_at_zero_time_for_close_centers():
    N = 80
    alpha = _packet(0.30, 0.40, N)
    beta = _packet(0.35, 0.45, N)
    value = linearized_correlation(alpha, beta, RotorParams(8.25), 0)
    expected = gaussian_overlap(alpha, beta)
    assert abs(value - expected) < 1e-13 * abs(expected)


def test_offcenter_correlation_prune_threshold_drops_weak_branches(monkeypatch):
    """_PRUNE_THRESHOLD is relative to the strongest branch: a threshold of
    one keeps only the dominant branch, zero keeps everything."""
    N = 100
    alpha = _packet(0.815, 0.2, N)
    beta = _packet(0.77, 0.8, N)
    params = RotorParams(0.05)
    seeds = find_seeds(alpha, beta, 2, params, image_range=2, regime="integrable")
    far = SeedTrajectory(
        ic=(seeds[0].ic[0] + 0.12, 0.2), t=2, winding=seeds[0].winding
    )
    monkeypatch.setattr(semiclassics, "_PRUNE_THRESHOLD", 0.0)
    keep_all = offcenter_correlation(alpha, beta, list(seeds) + [far], params, 2)
    assert len(keep_all.branches) == len(seeds) + 1
    monkeypatch.setattr(semiclassics, "_PRUNE_THRESHOLD", 1.0)
    dominant = offcenter_correlation(alpha, beta, list(seeds) + [far], params, 2)
    assert len(dominant.branches) == 1
    assert abs(dominant.total - max(
        (b.value for b in keep_all.branches), key=abs
    )) < 1e-15


def test_offcenter_exact_for_quadratic_dynamics_any_seed():
    """With K = 0 the dynamics is quadratic and the off-center value must
    not depend on which real trajectory of the branch represents it."""
    N = 64
    alpha = _packet(0.25, 0.5, N)
    beta = _packet(0.3, 0.45, N)
    params = RotorParams(0.0)
    t = 2
    base = SeedTrajectory(ic=(0.225, 0.5), t=t, winding=(0, 1))
    shifted = SeedTrajectory(ic=(0.245, 0.5), t=t, winding=(0, 1))
    v1 = offcenter_correlation(alpha, beta, [base], params, t).total
    v2 = offcenter_correlation(alpha, beta, [shifted], params, t).total
    assert abs(v1 - v2) < 1e-12 * abs(v1)
