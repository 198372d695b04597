"""Saddle search, branch tracking, and the three correlation evaluators."""
import cmath
import fractions
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from ggwpd.errors import (
    CausticError,
    ConfigError,
    ConvergenceError,
    GgwpdError,
    NumericalError,
    RunawayError,
)
from ggwpd.experiment import config_from_dict, packets_for, preset
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
)
from ggwpd.rotor import (
    ComplexTrajectory,
    RotorParams,
    SeedTrajectory,
    _line_roots,
    _scan_crossings,
    _scan_line,
    find_seeds,
    iterate_map,
    propagate,
)
from ggwpd import semiclassics
from ggwpd.semiclassics import (
    _image_turns,
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
from oracles import free_trajectory, gaussian_overlap


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
# a ratio 17 - 1e-323j, whose angle underflows
@example(dets=_det_walk((85.0, 2.225073858507203e-309), [(17.0, 0.0)]))
def test_tracked_sqrt_matches_the_numpy_algorithm(dets):
    """The scalar walk gives the root the numpy version gave, on 1 to 13
    nonzero determinants."""
    want = _tracked_sqrt_numpy(dets)
    assert abs(_tracked_sqrt(dets) - want) <= 1e-14 * abs(want)


def _short(x):
    """x to 20 significant bits, and 0 below 2**-1000, where a scaling by
    2**-4 would leave the normal range and round."""
    if abs(x) < 2.0**-1000:
        return 0.0
    m, e = math.frexp(x)
    return math.ldexp(round(m * 2**20), e - 20)


@settings(max_examples=200, deadline=None)
@given(
    dets=_det_walks,
    where=st.floats(0.0, 1.0),
    through_zero=st.booleans(),
    scale=st.integers(-4, 4),
)
@example(dets=[2 + 1e-323j], where=0.0, through_zero=True, scale=-2)
def test_tracked_sqrt_caustics_match_the_numpy_algorithm(dets, where, through_zero, scale):
    """A zero sample, or a leg from z to -2**scale * z (exactly through
    zero), raises ``CausticError`` in both versions.  numpy may multiply
    with fused multiply-adds, which leave a rounding-level imaginary part
    on such a leg; z keeps 20 significant bits and no subnormal part, so
    every product is exact."""
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


def test_nan_residual_is_not_read_as_converged():
    """A position saddle toward x = NaN has a NaN final residual from its
    seed on.  It used to return as a saddle after 0 iterations with
    ``residual_norm`` 0.0: the residual norm dropped the NaN, and the
    Newton loop read a NaN norm as below the tolerance."""
    alpha = _packet(0.815, 0.2, 50)
    with pytest.raises(ConvergenceError) as err:
        find_position_saddle(alpha, math.nan, alpha.p1, 2, RotorParams(0.05))
    assert err.value.iterations == 0
    assert math.isnan(err.value.residual)


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


# How far a saddle may move, per component, when re-solved at another N.
_SADDLE_DRIFT_TOL = 1e-10


def _drift(a, b) -> float:
    """The largest component distance between two saddles' initial points."""
    x, y = a.trajectory.initial, b.trajectory.initial
    return max(
        abs(x.p1.real - y.p1.real), abs(x.p1.imag - y.p1.imag),
        abs(x.q1.real - y.q1.real), abs(x.q1.imag - y.q1.imag),
    )


@pytest.mark.parametrize("fixture", ["integrable_bundle", "chaotic_bundle"])
def test_preset_saddles_converge_at_large_n(fixture, request):
    """At N = 1e5 every preset saddle, re-solved from its seed, lands
    within _SADDLE_DRIFT_TOL of the one located at the seed N."""
    bundle = request.getfixturevalue(fixture)
    alpha, beta = packets_for(bundle.config, 10**5)
    params = RotorParams(bundle.config.K)
    for sad in bundle.setup.saddles:
        again = find_saddle(alpha, beta, sad.seed, params)
        assert _drift(again, sad) <= _SADDLE_DRIFT_TOL


_CHAOTIC = preset("chaotic-fig6")


@pytest.mark.parametrize(
    "config, failures",
    [
        (preset("integrable-fig2"), {}),
        (_CHAOTIC, {}),
        (config_from_dict({"t": 3}, base=_CHAOTIC), {}),
        (config_from_dict({"K": 6.0}, base=_CHAOTIC), {}),
        # known failures: five of the 47 seeds do not converge at N = 50,
        # and the two winding-(1, 2) saddles sit on Newton's residual floor
        # and fail at some N; a fix of either has to update this list
        (
            config_from_dict(
                {
                    "K": 10.9385, "t": 3, "alpha_center": (0.0, 1.0),
                    "beta_center": (0.0, 0.5), "image_range": 4,
                },
                base=_CHAOTIC,
            ),
            {
                50: [(-2, -4), (-1, -3), (0, -1), (0, 1), (1, 1)],
                52: [(1, 2)],
                10**4: [(1, 2), (1, 2)],
                10**5: [(1, 2), (1, 2)],
            },
        ),
    ],
    ids=["integrable-fig2", "chaotic-fig6", "chaotic-t3", "chaotic-K6", "K10.9385"],
)
def test_saddles_do_not_move_when_re_solved_at_another_n(config, failures):
    """With b = pi N the saddle equations do not depend on N, so the setup
    solves each saddle once: every saddle found at N = 50, re-solved from
    its seed at N = 52, 700, 1e4 and 1e5, moves by at most
    _SADDLE_DRIFT_TOL per component.  Only the listed windings raise
    ConvergenceError, and only at the listed N."""
    params = RotorParams(config.K)
    alpha, beta = packets_for(config, 50)
    seeds = find_seeds(
        alpha, beta, config.t, params,
        image_range=config.image_range, regime=config.regime,
    )
    failed = {}
    found = []
    for seed in seeds:
        try:
            found.append(find_saddle(alpha, beta, seed, params))
        except ConvergenceError:
            failed.setdefault(50, []).append(seed.winding)
    for N in (52, 700, 10**4, 10**5):
        alpha, beta = packets_for(config, N)
        for sad in found:
            try:
                again = find_saddle(alpha, beta, sad.seed, params)
            except ConvergenceError:
                failed.setdefault(N, []).append(sad.seed.winding)
                continue
            assert _drift(again, sad) <= _SADDLE_DRIFT_TOL
    assert failed == failures


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
            grid_hbar(50),
        )


@pytest.mark.parametrize("fixture", ["integrable_bundle", "chaotic_bundle"])
def test_newton_iterations_do_not_depend_on_n(fixture, request):
    """With b = pi N the residuals times hbar do not depend on N, and
    neither does the number of updates each preset saddle takes."""
    bundle = request.getfixturevalue(fixture)
    params = RotorParams(bundle.config.K)
    counts = []
    for N in (50, 10**3, 10**5):
        alpha, beta = packets_for(bundle.config, N)
        counts.append([
            find_saddle(alpha, beta, s.seed, params).iterations
            for s in bundle.setup.saddles
        ])
    assert counts[0] == counts[1] == counts[2]
    assert max(counts[0]) <= 5


def test_every_long_time_chaotic_seed_converges_at_small_and_large_n():
    """The chaotic preset at t = 3: each of its 21 transport seeds reaches
    a saddle at N = 50 and at N = 1e5.  A stop on hbar times the residual
    at 1e-12 / (2 pi 50), about 3e-15, fails 7 of them without the step
    stop and 2 with it: their residuals do not get that far."""
    cfg = config_from_dict({"t": 3}, base=preset("chaotic-fig6"))
    params = RotorParams(cfg.K)
    seeds = find_seeds(
        *packets_for(cfg, 50), cfg.t, params,
        image_range=cfg.image_range, regime=cfg.regime,
    )
    assert len(seeds) == 21
    for N in (50, 10**5):
        alpha, beta = packets_for(cfg, N)
        for seed in seeds:
            find_saddle(alpha, beta, seed, params)


def test_newton_stops_after_a_full_step_at_the_rounding_limit():
    """A linear residual with a floor of 5e-12, above _NEWTON_TOL, and
    hbar = 1, so that the residual stop cannot end the search.  The first step
    lands one ulp from the root; the second, a full step of one ulp, lands
    on it and lowers the residual to its floor, and its size ends the
    search, where a further step could change nothing."""
    scale, floor, root = 1e6, 5e-12, 0.123456789
    assert floor > semiclassics._NEWTON_TOL
    seed = SeedTrajectory(ic=(0.3, 0.2), t=0, winding=(0, 0))
    sad = semiclassics._newton_solve(
        seed,
        RotorParams(0.0),
        lambda traj: ResidualPair(
            scale * (traj.initial.p1 - root) + floor, traj.initial.q1 - 0.2
        ),
        lambda traj: ((scale, 0j), (0j, 1.0)),
        1.0,
    )
    assert sad.trajectory.initial.p1 == root
    assert sad.iterations == 2
    assert sad.residual_norm == floor


def test_a_newton_trial_step_that_runs_away_is_halved(monkeypatch):
    """``chaotic-fig6`` at t = 4 and image range 5: 12 of its 101 seeds
    take a Newton step whose trajectory runs away.  Counted as a step that
    did not reduce the residual and halved, it lets 4 of them converge
    below ``_NEWTON_TOL``; the other 8 stall (``ConvergenceError``), and no
    seed raises ``RunawayError``, which every one of the 12 did when the
    first runaway trial ended the search.  The numpy reference loop, which
    halves such a step too, finds the 4 recovered saddles within 1e-15 per
    component and in as many steps."""
    cfg = config_from_dict({"t": 4, "image_range": 5}, base=preset("chaotic-fig6"))
    params = RotorParams(cfg.K)
    alpha, beta = packets_for(cfg, cfg.seed_N)
    seeds = find_seeds(
        alpha, beta, cfg.t, params, image_range=cfg.image_range, regime=cfg.regime
    )
    runaways = 0

    def counting(ic, t, params):
        nonlocal runaways
        try:
            return propagate(ic, t, params)
        except RunawayError:
            runaways += 1
            raise

    monkeypatch.setattr(semiclassics, "propagate", counting)
    recovered, stalled = [], 0
    for seed in seeds:
        runaways = 0
        try:
            sad = find_saddle(alpha, beta, seed, params)
        except ConvergenceError:
            stalled += runaways > 0
            continue
        if runaways:
            recovered.append(sad)
    assert len(seeds) == 101
    assert (len(recovered), stalled) == (4, 8)
    assert all(
        sad.residual_norm * alpha.hbar < semiclassics._NEWTON_TOL for sad in recovered
    )
    monkeypatch.setattr(semiclassics, "_newton_solve", _numpy_newton_solve)
    for sad in recovered:
        want = find_saddle(alpha, beta, sad.seed, params)
        assert sad.iterations == want.iterations
        got_ic, want_ic = sad.trajectory.initial, want.trajectory.initial
        for g, w in ((got_ic.p1, want_ic.p1), (got_ic.q1, want_ic.q1)):
            assert abs(g.real - w.real) <= 1e-15
            assert abs(g.imag - w.imag) <= 1e-15


_entries = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)


# The smallest subnormal double, the spacing of every double below the
# smallest normal one.
_SUBNORMAL_STEP = 2.0**-1074


def _within_solve_bound(got, want, jac: np.ndarray) -> bool:
    """Whether ``got`` and ``want``, two solutions of the 2x2 system
    ``jac``, agree as two backward-stable solves must.

    Each is within c eps kappa |x| of the exact solution x, and within a
    few steps of 2**-1074 more where the solve rounds below the smallest
    normal number: the last rounding of x itself, and the earlier ones,
    which ``jac``'s inverse amplifies by at most 1/sigma_min.  A relative
    bound alone is below one such step for a subnormal x.
    """
    kappa = np.linalg.cond(jac)
    sigma_min = np.linalg.norm(jac, -2)
    # 2-norms through hypot: np.linalg.norm squares the entries, which
    # overflows for solutions near 1e155 and beyond
    err = math.hypot(*np.abs(np.array(got) - want))
    floor = 4 * _SUBNORMAL_STEP * (1.0 + 1.0 / sigma_min)
    return err <= 64 * np.finfo(float).eps * kappa * math.hypot(*np.abs(want)) + floor


@settings(max_examples=300, deadline=None)
@given(a=_entries, b=_entries, c=_entries, d=_entries, r0=_entries, r1=_entries,
       swap=st.booleans())
@example(a=0j, b=4.078777363881325e-159 + 0j, c=4.078777363881325e-159 + 0j, d=0j,
         r0=0j, r1=1 + 0j, swap=False)
@example(a=139 + 0j, b=1 + 0j, c=1 + 1j, d=149 + 0j, r0=2.0**-1022 + 0j, r1=0j,
         swap=False)
def test_scalar_newton_step_matches_numpy_solve(a, b, c, d, r0, r1, swap):
    """Random complex 2x2 systems, half of them with the larger first
    entry in the lower row, so that the elimination swaps rows; the
    solution agrees with LAPACK's to 64 eps times the condition number,
    plus a few steps of 2**-1074 for a subnormal solution
    (:func:`_within_solve_bound`)."""
    if abs(a) == abs(c):
        reject()
    if (abs(c) > abs(a)) != swap:
        a, b, c, d, r0, r1 = c, d, a, b, r1, r0
    jac = np.array([[a, b], [c, d]])
    if not np.linalg.cond(jac) < 1e12:
        reject()
    want = np.linalg.solve(jac, np.array([r0, r1]))
    if not np.all(np.isfinite(want)):
        reject()
    got = semiclassics._solve_newton_step(((a, b), (c, d)), (r0, r1))
    assert all(type(x) is complex for x in got)
    assert _within_solve_bound(got, want, jac)


def test_solve_bound_refuses_a_zero_or_negated_subnormal_solution():
    """The bound's subnormal term is a few steps of 2**-1074, not a floor
    on |x|: at the subnormal solution of the second example above, about
    1.6e-310, a zero or sign-flipped answer still fails."""
    jac = np.array([[139, 1], [1 + 1j, 149]], dtype=complex)
    want = np.linalg.solve(jac, np.array([2.0**-1022, 0j]))
    assert 0 < np.abs(want).max() < np.finfo(float).tiny
    assert _within_solve_bound(want, want, jac)
    assert not _within_solve_bound([0j, 0j], want, jac)
    assert not _within_solve_bound(-want, want, jac)


def test_scalar_newton_step_rounds_a_subnormal_solution_correctly():
    """A system whose solution lies below the smallest normal number,
    against its exact rational solution by Cramer's rule: every component
    is the correctly rounded one.  ``np.linalg.solve`` puts Im x0 here one
    step of 2**-1074 away, more than the relative bound above allows, so
    the comparison with LAPACK cannot hold this case."""
    tiny = np.finfo(float).tiny
    (a, b), (c, d) = jac = ((1 + 213j, 1j), (0j, 280 + 0j))
    r0, r1 = rhs = (tiny * 1j, tiny * 1j)

    def exact(z):
        return fractions.Fraction(z.real), fractions.Fraction(z.imag)

    def mul(x, y):
        return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]

    def sub(x, y):
        return x[0] - y[0], x[1] - y[1]

    def div(x, y):
        n = y[0] ** 2 + y[1] ** 2
        return (x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n

    a, b, c, d, r0, r1 = map(exact, (a, b, c, d, r0, r1))
    det = sub(mul(a, d), mul(b, c))
    x0 = div(sub(mul(r0, d), mul(b, r1)), det)
    x1 = div(sub(mul(a, r1), mul(c, r0)), det)
    got = semiclassics._solve_newton_step(jac, rhs)
    assert got == tuple(complex(float(re), float(im)) for re, im in (x0, x1))
    assert 0 < abs(got[0].imag) < abs(got[1].imag) < abs(got[0].real) < tiny


def _numpy_newton_solve(seed, params, residual_of, jacobian_of, hbar):
    """The Newton loop as it ran on numpy arrays: one ``np.linalg.solve``
    per step, and residual norms through ``np.abs``.  A trial step whose
    trajectory runs away is halved, as one that does not reduce the norm
    is; only the seventh trial's ``RunawayError`` propagates."""
    def norm(res):
        return float(max(np.abs(res.initial), np.abs(res.final)))

    ic = ComplexPhasePoint(complex(seed.ic[0]), complex(seed.ic[1]))
    traj = propagate(ic, seed.t, params)
    res = residual_of(traj)
    history = [norm(res)]
    while history[-1] * hbar >= semiclassics._NEWTON_TOL:
        assert len(history) <= semiclassics._NEWTON_MAX_ITER
        jac = np.array(jacobian_of(traj))
        delta = np.linalg.solve(jac, -np.array([res.initial, res.final]))
        scale = 1.0
        for trial in range(7):
            try:
                cand = propagate(
                    ComplexPhasePoint(
                        traj.initial.p1 + scale * delta[0],
                        traj.initial.q1 + scale * delta[1],
                    ),
                    seed.t,
                    params,
                )
            except RunawayError:
                if trial == 6:
                    raise
            else:
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
    alpha, beta = packets_for(bundle.config, bundle.config.seed_N)
    params = RotorParams(bundle.config.K)
    monkeypatch.setattr(semiclassics, "_newton_solve", _numpy_newton_solve)
    for sad in bundle.setup.saddles:
        want = find_saddle(alpha, beta, sad.seed, params)
        assert sad.iterations == want.iterations
        got_ic, want_ic = sad.trajectory.initial, want.trajectory.initial
        for g, w in ((got_ic.p1, want_ic.p1), (got_ic.q1, want_ic.q1)):
            assert abs(g.real - w.real) <= 1e-15
            assert abs(g.imag - w.imag) <= 1e-15


_package_newton_solve = semiclassics._newton_solve


def _polished_newton_solve(seed, params, residual_of, jacobian_of, hbar):
    """The package's Newton search followed by up to three more full steps,
    each kept only while it lowers the residual."""
    sad = _package_newton_solve(seed, params, residual_of, jacobian_of, hbar)
    traj = sad.trajectory
    res = residual_of(traj)
    for _ in range(3):
        d0, d1 = semiclassics._solve_newton_step(
            jacobian_of(traj), (-res.initial, -res.final)
        )
        cand = propagate(
            ComplexPhasePoint(traj.initial.p1 + d0, traj.initial.q1 + d1),
            seed.t,
            params,
        )
        cand_res = residual_of(cand)
        if not cand_res.max_norm < res.max_norm:
            break
        traj, res = cand, cand_res
    return semiclassics.SaddleTrajectory(
        trajectory=traj, seed=seed, residual_history=sad.residual_history
    )


@pytest.mark.parametrize("center", [(0.815, 0.2), (0.765, 0.15), (0.865, 0.25)])
def test_wavefunction_is_converged_to_extra_newton_steps(monkeypatch, center):
    """The benchmark's N = 700 wavefunction at three packet centres: extra
    Newton steps past the stop move no grid value by more than
    1e-9 max|psi|.  A position error of 1e-12 would move the phase
    p dx / hbar by about 3.5e-9."""
    N, t = 700, 2
    alpha = GaussianPacket(*center, math.pi * N, grid_hbar(N))
    params = RotorParams(0.05)

    def values():
        return np.array([
            ggwpd_wavefunction(alpha, s / N, t, params, image_range=2)
            for s in range(1, N + 1)
        ])

    got = values()
    monkeypatch.setattr(semiclassics, "_newton_solve", _polished_newton_solve)
    want = values()
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


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
    exact = quantum_correlation(alpha, beta, t, N, params)
    assert abs(result.total - exact) < 1e-10


@settings(max_examples=200, deadline=None)
@given(
    N=st.integers(1, 10**5),
    q=st.floats(-3.0, 3.0),
    n_ps=st.lists(st.integers(-6, 6), min_size=1, max_size=8),
)
@example(N=400, q=0.864, n_ps=[1])
@example(N=50, q=0.5, n_ps=[-1, 0, 1, 2])
@example(N=51, q=0.5, n_ps=[-1, 0, 1, 2])
def test_image_turns_are_the_exact_fraction_of_n_n_p_q(N, q, n_ps):
    """On a grid's hbar each turn is N n_p q_beta modulo 1, taken into
    [-1/2, 1/2] from the exact rational and rounded once, so it is exactly
    0.0 wherever N n_p q_beta is an integer (q_beta = 1/2 at even N)."""
    turns = _image_turns(_packet(0.0, q, N), n_ps)
    want = []
    for n_p in n_ps:
        f = N * n_p * fractions.Fraction(q) % 1
        want.append(float(f - 1 if f > fractions.Fraction(1, 2) else f))
    assert turns == want
    if q == 0.5 and N % 2 == 0:
        assert turns == [0.0] * len(n_ps)


def test_image_turns_off_the_grid_are_the_float_phase():
    """An hbar that is no grid's 1/(2 pi N) gets n_p q / (2 pi hbar)
    modulo 1 in floating point."""
    beta = GaussianPacket(0.0, 0.25, 1.0, 1.0)
    want = [0.0, 0.25 / (2.0 * math.pi), -0.5 / (2.0 * math.pi)]
    assert _image_turns(beta, [0, 1, -2]) == pytest.approx(want, abs=1e-15)


def test_zero_kick_wavefunction_matches_quantum_grid(monkeypatch):
    """Scanning the default 8 momentum widths leaves the wavefunction up
    to 6.7e-7 off; 12 widths reach the 1e-9 bound."""
    monkeypatch.setattr(semiclassics, "_WAVE_HALFWIDTH_SIGMA", 12.0)
    N = 64
    alpha = _packet(0.25, 0.5, N)
    params = RotorParams(0.0)
    t = 3
    F = np.linalg.matrix_power(floquet_matrix(N, params), t)
    expected = np.sqrt(N) * (F @ discretize_packet(alpha, N))
    xs = np.arange(1, N + 1) / N
    psi = np.array(
        [
            ggwpd_wavefunction(alpha, x, t, params, image_range=2)
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


@pytest.mark.parametrize("t", [3, 4, 6, 10])
def test_wavefunction_refuses_a_scan_whose_ends_overflowed(t):
    """At K = 1.7e308 the scanned line's end positions overflow to NaN
    after three steps, so no image range can be checked: a
    ``NumericalError``, not a ``ValueError`` from rounding NaN."""
    alpha = _packet(0.815, 0.2, 700)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="not a finite distance from x = 0.5"):
            ggwpd_wavefunction(alpha, 0.5, t, RotorParams(1.7e308), image_range=2)


def test_wavefunction_refusal_writes_far_images_briefly():
    """At K = 1e300 the ends are finite but some 3e299 images away; the
    refusal names those images in exponent form, not in 300 digits."""
    alpha = _packet(0.815, 0.2, 700)
    with pytest.raises(NumericalError, match="image_range = 2") as refused:
        ggwpd_wavefunction(alpha, 0.5, 2, RotorParams(1e300), image_range=2)
    message = str(refused.value)
    assert "e+299" in message and re.search(r"\d{8}", message) is None


def test_image_range_is_refused_unless_a_non_negative_integer():
    """``find_seeds`` in both regimes and ``ggwpd_wavefunction`` refuse a
    negative, fractional, float, bool or string ``image_range``: -1 gave an
    empty seed list, read as "no transport", True acted as 1, and the
    chaotic regime took 1.5.  A numpy integer is the same range as an int."""
    integ, chaos = preset("integrable-fig2"), preset("chaotic-fig6")
    calls = [
        lambda r: find_seeds(
            *packets_for(integ, 50), integ.t, RotorParams(integ.K), r, "integrable"
        ),
        lambda r: find_seeds(
            *packets_for(chaos, 50), chaos.t, RotorParams(chaos.K), r, "chaotic"
        ),
        lambda r: ggwpd_wavefunction(
            _packet(0.815, 0.2, 700), 0.8, 2, RotorParams(0.05), image_range=r
        ),
    ]
    for call in calls:
        for bad in (-1, 1.5, 2.0, True, np.bool_(True), np.int64(-1), "2", None):
            with pytest.raises(ConfigError, match="image_range"):
                call(bad)
        assert call(2)  # seeds, or a value near the peak
        assert repr(call(np.int64(2))) == repr(call(2))


# kick strengths: the integrable-to-chaotic range, and log-uniform up to
# the float maximum, where the scanned ends overflow
_fuzz_kicks = st.one_of(
    st.floats(0.0, 12.0), st.floats(-3.0, 308.23).map(lambda e: 10.0**e)
)


@settings(max_examples=300, deadline=None)
@given(
    K=_fuzz_kicks,
    t=st.integers(1, 4),
    x=st.floats(-1.0, 2.0),
    image_range=st.integers(0, 3),
    N=st.sampled_from([50, 700]),
)
@example(K=1.7e308, t=3, x=0.5, image_range=2, N=700)
@example(K=1e300, t=2, x=0.5, image_range=2, N=700)
def test_wavefunction_returns_a_value_or_a_package_error(K, t, x, image_range, N):
    """Any K from 0 to the float maximum, t = 1-4, x in [-1, 2] and
    ``image_range`` 0-3: ``ggwpd_wavefunction`` returns a finite complex
    value or raises a ``GgwpdError``, never another exception."""
    alpha = _packet(0.815, 0.2, N)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            value = ggwpd_wavefunction(alpha, x, t, RotorParams(K), image_range=image_range)
        except GgwpdError:
            return
    assert isinstance(value, complex) and cmath.isfinite(value)


def test_wavefunction_scans_each_packet_through_iterate_map_once(monkeypatch):
    """All 700 grid points of one packet share one scan of the shearing
    line, a single 1025-row call to the module's ``iterate_map`` (where
    perfbench's trace hooks time the scan), and a second packet adds one
    more; the saddles are seeded without it."""
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
        assert max(map(abs, values)) > 1.0  # crossings were found and seeded
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


def _crossing_seeds(scan, x, image_range):
    """(winding, target, momentum) of every crossing of the images of x
    on ``scan``: a node's momentum, or its bracket's midpoint."""
    windings = range(-image_range, image_range + 1)
    targets = [x + n_q for n_q in windings]
    seeds = []
    for n_q, target, (nodes, brackets) in zip(
        windings, targets, _scan_crossings(scan, targets)
    ):
        seeds += [(n_q, target, float(scan.p_grid[i])) for i in nodes]
        seeds += [
            (n_q, target, 0.5 * float(scan.p_grid[i] + scan.p_grid[i + 1]))
            for i in brackets
        ]
    return seeds


def _wavefunction_uncached(alpha, x, t, params, image_range):
    """``ggwpd_wavefunction`` as it was: a fresh ``_scan_line`` scan
    through ``iterate_map`` at every position, seeded at its crossings."""
    w = semiclassics._WAVE_HALFWIDTH_SIGMA * alpha.hbar / (2.0 * alpha.sigma)
    scan = _scan_line(
        alpha.p1 - w, alpha.p1 + w, alpha.q1,
        lambda pts: iterate_map(pts, t, params)[:, 1],
    )
    n_lo, n_hi = math.ceil(scan.ends.min() - x), math.floor(scan.ends.max() - x)
    if n_lo <= n_hi and max(-n_lo, n_hi) > image_range:
        raise NumericalError("the scanned line reaches beyond image_range")
    saddles = [
        find_position_saddle(alpha, target, p_seed, t, params, winding_q=n_q)
        for n_q, target, p_seed in _crossing_seeds(scan, x, image_range)
    ]
    terms = [
        wavefunction_contribution(alpha, sad.trajectory)
        for sad in semiclassics._merge_saddles(saddles)
    ]
    weights = [
        float(np.exp((1j * c.action / alpha.hbar + c.ket_exponent + c.bra_exponent).real))
        for c in terms
    ]
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


def _position_saddle_sum(alpha, seeds, t, params, propagations):
    """The position-saddle sum over ``seeds``, (winding, target, momentum)
    triples, as ``ggwpd_wavefunction`` forms it: its value, the windings of
    the kept saddles, and each solve's Newton iterations and damping
    halvings.  ``propagations`` lists the module's ``propagate`` calls; a
    solve propagates once, then once per accepted or halved step."""
    saddles, solves = [], []
    for n_q, target, p_seed in seeds:
        before = len(propagations)
        sad = find_position_saddle(alpha, target, p_seed, t, params, winding_q=n_q)
        calls = len(propagations) - before
        saddles.append(sad)
        solves.append((sad.iterations, calls - 1 - sad.iterations))
    merged = semiclassics._merge_saddles(saddles)
    terms = [wavefunction_contribution(alpha, sad.trajectory) for sad in merged]
    result = semiclassics._prune_and_sum(terms, [c.weight for c in terms])
    kept = [
        sad.seed.winding
        for sad, term in zip(merged, terms)
        if any(term is branch for branch in result.branches)
    ]
    return result.total, kept, solves


def test_bisecting_the_seed_moves_no_position_saddle(monkeypatch):
    """Over a 3 x 3 grid of packet centres across the benchmark's box,
    which holds the three golden centres, seeding each position saddle at
    its bracket's midpoint instead of the root ``_line_roots`` bisects to
    1e-13 keeps the same saddles, the same Newton iterations and damping
    halvings, and every value within 1e-10 of the largest: Newton's start
    error is dominated by the saddle's imaginary offset."""
    propagations = []
    propagate_ = semiclassics.propagate

    def spy(*args):
        propagations.append(None)
        return propagate_(*args)

    monkeypatch.setattr(semiclassics, "propagate", spy)
    N, t, image_range = 700, 2, 2
    params = RotorParams(0.05)
    for p in (0.765, 0.815, 0.865):
        for q in (0.15, 0.2, 0.25):
            alpha = _packet(p, q, N)
            w = semiclassics._WAVE_HALFWIDTH_SIGMA * alpha.hbar / (2.0 * alpha.sigma)
            scan = semiclassics._wavefunction_scan(
                alpha.p1 - w, alpha.p1 + w, alpha.q1, t, params.K
            )
            moves, values, solved = [], [], 0
            for s in range(1, N + 1):
                x = s / N
                seeds = _crossing_seeds(scan, x, image_range)
                windings = range(-image_range, image_range + 1)
                roots = _line_roots(
                    scan, alpha.q1, [x + n for n in windings], t, params.K
                )
                bisected = [
                    (n, x + n, root) for n, found in zip(windings, roots) for root in found
                ]
                assert [n for n, _, _ in seeds] == [n for n, _, _ in bisected]
                value, kept, solves = _position_saddle_sum(
                    alpha, seeds, t, params, propagations
                )
                assert value == ggwpd_wavefunction(alpha, x, t, params, image_range)
                ref, ref_kept, ref_solves = _position_saddle_sum(
                    alpha, bisected, t, params, propagations
                )
                assert (kept, solves) == (ref_kept, ref_solves)
                moves.append(abs(value - ref))
                values.append(abs(ref))
                solved += len(solves)
            assert solved > 200
            assert max(moves) <= 1e-10 * max(values)


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


def test_offcenter_correlation_of_a_nan_term_raises_numerical_error():
    """At K = 1e200 the stability matrix overflows and the term is NaN.
    The sum refuses it, naming the branch: it neither drops the term and
    returns 0j, nor raises ``OverflowError``, as CPython 3.11's ``abs`` of
    a NaN complex did after numpy's exp left ERANGE in errno."""
    alpha, beta = _packet(0.1, 0.2, 700), _packet(0.3, 0.4, 700)
    seed = SeedTrajectory(ic=(0.1, 0.2), t=1, winding=(0, 0))
    with np.errstate(all="ignore"), pytest.raises(NumericalError, match="branch 0 "):
        offcenter_correlation(alpha, beta, [seed], RotorParams(1e200), 1)


def test_ggwpd_correlation_of_a_nan_term_raises_numerical_error():
    """A saddle whose action is NaN has a NaN weight: the sum refuses it,
    naming the branch, and does not drop it beside a finite one."""
    N = 80
    alpha = _packet(0.30, 0.40, N)
    beta = _packet(0.35, 0.45, N)
    seed = SeedTrajectory(ic=(alpha.p1, alpha.q1), t=0, winding=(0, 0))
    sad = find_saddle(alpha, beta, seed, RotorParams(8.25))
    traj = sad.trajectory
    nan_traj = ComplexTrajectory(
        points=traj.points, action=complex(math.nan, 0.0), legs=traj.legs
    )
    bad = semiclassics.SaddleTrajectory(
        trajectory=nan_traj, seed=seed, residual_history=sad.residual_history
    )
    assert ggwpd_correlation(alpha, beta, [sad], 0).total != 0j
    with np.errstate(all="ignore"), pytest.raises(NumericalError, match="branch 1 "):
        ggwpd_correlation(alpha, beta, [sad, bad], 0)


def _offcenter_numpy(alpha, beta, trajectory):
    """``offcenter_contribution(...).value`` as it was, on numpy scalars:
    ``sx`` from ``np.sqrt``, numpy's complex division and ``np.exp``."""
    b = alpha.b1
    hbar = alpha.hbar
    r1 = 2.0 * hbar * b
    r2 = 1.0 / (2.0 * hbar * b)
    sx = np.sqrt(1.0 / (2.0 * b))
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
    phase = (trajectory.action.real + pt * (beta.q1 - qt) - p0 * (alpha.q1 - q0)) / hbar
    return complex(np.sqrt(2.0) / root * np.exp(1j * phase - quad / (2.0 * a0)))


def _bits_or_error(evaluate):
    """The bits of a complex result, or the class of the exception raised;
    numpy's overflow and invalid-value warnings are silenced, as the
    parent's inf or NaN is the outcome compared."""
    with np.errstate(all="ignore"):
        try:
            z = complex(evaluate())
        except Exception as exc:  # noqa: BLE001 -- the class is the outcome
            return type(exc)
    return struct.pack("<dd", z.real, z.imag)


_kicks_to_1e300 = st.one_of(
    st.floats(0.0, 12.0), st.floats(-3.0, 300.0).map(lambda e: 10.0**e)
)


@settings(max_examples=400, deadline=None)
@given(
    N=st.one_of(st.integers(2, 1000), st.integers(2, 10**5)),
    centers=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
    start=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    K=_kicks_to_1e300,
    t=st.integers(1, 4),
)
@example(N=50, centers=[0.0, 0.5, 0.0, 0.5], start=(-0.139, -0.064), K=8.25, t=2)
@example(N=10**5, centers=[0.3, 0.2, -0.4, 0.9], start=(0.5, 0.25), K=1e300, t=4)
@example(N=82506, centers=[-0.5, -0.27, -1.09, -0.83], start=(0.945, -0.24), K=1e83, t=3)
def test_offcenter_contribution_matches_the_numpy_scalar_expression(N, centers, start, K, t):
    """On packets of width b = pi N and real trajectories of ``propagate``
    (K up to 1e300, where the offsets and the stability matrix overflow),
    the Python-scalar term has the bits of the numpy-scalar expression it
    replaced, inf and NaN included, or raises the same exception class."""
    pa, qa, pb, qb = centers
    alpha, beta = _packet(pa, qa, N), _packet(pb, qb, N)
    try:
        traj = propagate(ComplexPhasePoint(*start), t, RotorParams(K))
    except RunawayError:
        reject()
    want = _bits_or_error(lambda: _offcenter_numpy(alpha, beta, traj))
    assert _bits_or_error(lambda: offcenter_contribution(alpha, beta, traj).value) == want


_division_parts = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 1.0, -1.0]),
)
_division_operands = st.builds(complex, _division_parts, _division_parts)


@settings(max_examples=1000, deadline=None)
@given(a=_division_operands, b=_division_operands)
@example(a=1 + 1j, b=0j)
@example(a=0j, b=-0.0 + 0j)
@example(a=1 + 1j, b=complex(math.nan, 0.0))
@example(a=complex(-math.nan, 1.0), b=complex(math.inf, -math.inf))
@example(a=1 + 2j, b=3 - 1j)
def test_divide_copies_numpy_complex_division_bit_for_bit(a, b):
    """``_divide`` gives the bits of ``np.complex128`` division, NaN signs
    included, for signed zeros, infinities and NaN parts; CPython's ``/``
    rounds differently, and raises on a zero denominator."""
    want = _bits_or_error(lambda: np.complex128(a) / np.complex128(b))
    assert _bits_or_error(lambda: semiclassics._divide(a, b)) == want
