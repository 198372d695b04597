"""Acceptance gate: the shipping criteria, one test (or group) each.

Tolerances in this file are pinned.  Loosening one is a release decision,
not a test fix — if a check here goes red, the library regressed (or a
pinned reference constant is wrong, which the failure message will say).
"""
import time

import numpy as np
import pytest

from ggwpd.experiment import (
    REGRESSION_SADDLES,
    REGRESSION_SEEDS,
    ExperimentConfig,
    config_from_dict,
    emit_csv,
    packets_for,
    prepare_scenario,
    preset,
    run_sweep,
)
from ggwpd.floquet import discretize_packet, floquet_matrix, quantum_correlation
from ggwpd.packets import ComplexPhasePoint, GaussianPacket
from ggwpd.rotor import RotorParams, iterate_map, propagate
from ggwpd.semiclassics import find_saddle, linearized_correlation
from oracles import evolved_center, free_motion_errors


def _by_winding(setup):
    return {s.seed.winding: s for s in setup.saddles}


# ---------------------------------------------------------------------------
# 1. integrable saddle regression
# ---------------------------------------------------------------------------

def test_integrable_saddle_components_match_pinned_values(integrable_bundle):
    sad = _by_winding(integrable_bundle.setup)[(0, 1)]
    tP, tQ = REGRESSION_SADDLES["integrable-fig2"][(0, 1)]
    P0 = sad.trajectory.initial.p1
    Q0 = sad.trajectory.initial.q1
    assert abs(P0.real - tP.real) < 1e-6
    assert abs(P0.imag - tP.imag) < 1e-6
    assert abs(Q0.real - tQ.real) < 1e-6
    assert abs(Q0.imag - tQ.imag) < 1e-6


def test_integrable_newton_budget(integrable_bundle):
    sad = _by_winding(integrable_bundle.setup)[(0, 1)]
    assert sad.iterations <= 8
    assert sad.residual_norm < 1e-12


def test_integrable_seed_matches_pinned_reference(integrable_bundle):
    """Located manifold-intersection seed within 1e-6 of the pinned pair.

    The pinned momentum is the root of the seed's defining equation — the
    shearing line q = 0.2 pushed two kick-then-drift steps (K = 0.05) meets
    q = q_beta + 1 = 1.8 — solved at 40 digits without the library (see
    the oracle test below).  A failure here means the seed search
    regressed.
    """
    sad = _by_winding(integrable_bundle.setup)[(0, 1)]
    ref_p, ref_q = REGRESSION_SEEDS["integrable-fig2"][(0, 1)]
    dev_p = abs(sad.seed.ic[0] - ref_p)
    dev_q = abs(sad.seed.ic[1] - ref_q)
    assert dev_q < 1e-6
    assert dev_p < 1e-6, (
        f"seed momentum {sad.seed.ic[0]:.13f} vs pinned reference {ref_p}: "
        f"deviation {dev_p:.3e} exceeds the 1e-6 gate; the reference is the "
        "independent root of the defining equation, so the seed search "
        "regressed"
    )


def test_integrable_seed_reference_solves_its_defining_equation():
    """The pinned integrable seed momentum is the 40-digit root of
    q_2(p) = q_beta + 1 = 1.8 for the shearing line q = 0.2 under two
    kick-then-drift steps with K = 0.05, the map written out here with no
    library code."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        K = mp.mpf("0.05")
        q0 = mp.mpf("0.2")
        target = mp.mpf("0.8") + 1

        def landing_miss(p):
            q = q0
            for _ in range(2):
                p = p - K / (2 * mp.pi) * mp.sin(2 * mp.pi * q)
                q = q + p
            return q - target

        root = mp.findroot(landing_miss, mp.mpf("0.815"))
        assert abs(landing_miss(root)) < mp.mpf("1e-35")
    ref_p, ref_q = REGRESSION_SEEDS["integrable-fig2"][(0, 1)]
    assert ref_q == 0.2
    assert abs(ref_p - float(root)) < 1e-10


def test_integrable_preparation_runtime_under_one_second():
    start = time.perf_counter()
    prepare_scenario(preset("integrable-fig2"))
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# 2. chaotic saddle regression
# ---------------------------------------------------------------------------

def test_chaotic_seeds_match_pinned_values(chaotic_bundle):
    by_winding = _by_winding(chaotic_bundle.setup)
    for winding, (sp, sq) in REGRESSION_SEEDS["chaotic-fig6"].items():
        sad = by_winding[winding]
        assert abs(sad.seed.ic[0] - sp) < 1e-6
        assert abs(sad.seed.ic[1] - sq) < 1e-6


def test_chaotic_saddle_components_match_pinned_values(chaotic_bundle):
    by_winding = _by_winding(chaotic_bundle.setup)
    for winding, (tP, tQ) in REGRESSION_SADDLES["chaotic-fig6"].items():
        sad = by_winding[winding]
        P0 = sad.trajectory.initial.p1
        Q0 = sad.trajectory.initial.q1
        assert abs(P0.real - tP.real) < 1e-6
        assert abs(P0.imag - tP.imag) < 1e-6
        assert abs(Q0.real - tQ.real) < 1e-6
        assert abs(Q0.imag - tQ.imag) < 1e-6
        assert sad.residual_norm < 1e-12


def test_chaotic_saddles_sit_on_the_symmetry_line(chaotic_bundle):
    """For this scenario the saddle initial conditions obey P0 = i Q0."""
    by_winding = _by_winding(chaotic_bundle.setup)
    for winding in REGRESSION_SADDLES["chaotic-fig6"]:
        ic = by_winding[winding].trajectory.initial
        assert abs(ic.p1 - 1j * ic.q1) < 1e-12


def test_chaotic_reflected_seeds_give_negated_saddles(chaotic_bundle):
    """Negating phase space maps the saddle for image (n_p, n_q) onto the
    one for (-n_p, -1-n_q); partners inside the searched image window must
    appear, negated, to 1e-10."""
    setup = chaotic_bundle.setup
    rng = setup.config.image_range
    points = [
        (s.trajectory.initial.p1, s.trajectory.initial.q1)
        for s in setup.saddles
    ]
    checked = 0
    for sad, (P0, Q0) in zip(setup.saddles, points):
        n_p, n_q = sad.seed.winding
        if max(abs(-n_p), abs(-1 - n_q)) > rng:
            continue
        best = min(max(abs(P0 + P1), abs(Q0 + Q1)) for P1, Q1 in points)
        assert best < 1e-10
        checked += 1
    assert checked >= 4  # both pinned saddles and their reflections


# ---------------------------------------------------------------------------
# 3. error hierarchy
# ---------------------------------------------------------------------------

def test_error_hierarchy_holds_at_every_gated_n(
    integrable_bundle, chaotic_bundle
):
    for bundle in (integrable_bundle, chaotic_bundle):
        gated = [r for r in bundle.rows if r.N >= 100]
        assert len(gated) == 13  # 100 .. 700 step 50
        for r in gated:
            assert r.abs_err_ggwpd < r.abs_err_oc


def test_integrable_error_ratio_at_largest_n(integrable_bundle):
    last = integrable_bundle.rows[-1]
    assert last.N == 700
    assert last.abs_err_oc / last.abs_err_ggwpd >= 10.0


def test_sweep_runtime_under_a_minute(integrable_bundle, chaotic_bundle):
    assert integrable_bundle.duration < 60.0
    assert chaotic_bundle.duration < 60.0


# ---------------------------------------------------------------------------
# 4. magnitude-ratio convergence
# ---------------------------------------------------------------------------

def test_magnitude_ratio_converges_only_for_saddle_sum(
    integrable_bundle, chaotic_bundle
):
    for bundle in (integrable_bundle, chaotic_bundle):
        rows = {r.N: r for r in bundle.rows}
        first, last = rows[100], rows[700]
        gg_err = abs(last.ratio_ggwpd - 1.0)
        assert gg_err < 1e-2
        assert gg_err < abs(first.ratio_ggwpd - 1.0)
        assert abs(last.ratio_oc - 1.0) >= 5.0 * gg_err


# ---------------------------------------------------------------------------
# 5. phase convergence
# ---------------------------------------------------------------------------

def test_phase_error_converges(integrable_bundle, chaotic_bundle):
    for bundle in (integrable_bundle, chaotic_bundle):
        rows = {r.N: r for r in bundle.rows}
        assert abs(rows[700].phase_err_ggwpd) < 1e-2
        assert abs(rows[700].phase_err_ggwpd) < abs(rows[100].phase_err_ggwpd)


# ---------------------------------------------------------------------------
# 6. free-particle and zero-kick exactness
# ---------------------------------------------------------------------------

def test_free_particle_methods_reach_machine_precision():
    """All three evaluators are exact for free motion to 1e-12 on a
    six-sigma grid, in under a second, with m = sigma = hbar = 1 (see
    ``oracles.free_motion_errors``)."""
    alpha = GaussianPacket(0.7, -0.3, 0.25, 1.0)  # b = 1/(2 sigma)^2, sigma = 1
    assert alpha.sigma == 1.0
    start = time.perf_counter()
    for t in (0.5, 1.0, 2.0, 5.0):
        _, q_t = evolved_center(alpha, t)
        for x in np.linspace(q_t - 6.0, q_t + 6.0, 25):
            assert max(free_motion_errors(alpha, x, t)) < 1e-12
    assert time.perf_counter() - start < 1.0


def _assert_exact_at_zero_kick(config):
    """At K = 0 the map is the shear (p, q) -> (p, q + p), which is linear,
    so each seed's off-center term and each saddle's term is exact: the
    whole path (seeds, saddles, image sums and the exact oracle) must give
    C_oc = C_ggwpd = C_qm to rounding wherever the seed set is complete."""
    rows = run_sweep(prepare_scenario(config_from_dict({"K": 0.0}, base=config)))
    assert [r.N for r in rows] == list(config.N_list)
    for r in rows:
        for c in (r.C_oc, r.C_ggwpd):
            assert abs(c - r.C_qm) <= 1e-13 + 1e-10 * abs(r.C_qm), r


@pytest.mark.parametrize("N", [50, 100, 400])
def test_zero_kick_sweep_is_exact(N):
    """The package's end-to-end exactness check, at integrable-fig2's
    centres and t = 2 (measured relative error at most 4.5e-13)."""
    config = config_from_dict({"N_list": (N,)}, base=preset("integrable-fig2"))
    _assert_exact_at_zero_kick(config)


@pytest.mark.parametrize("N", [400, 402, 404, 410])
def test_zero_kick_sweep_is_exact_across_a_momentum_image(N):
    """The (1, 1) winding reaches the bra's momentum image, whose grid state
    is the packet's times e^{-2 pi i N q_beta}; N q_beta = 345.6, 347.328,
    349.056 and 354.24 here, so each N needs another phase.  Without it
    both sums were off by 0.35 to 1.90 relative.  The linearized estimate,
    which takes that one image, is exact here too."""
    config = ExperimentConfig(
        K=0.0, t=1, alpha_center=(0.927, 0.968), beta_center=(0.015, 0.864),
        N_list=(N,), regime="integrable", image_range=3,
    )
    _assert_exact_at_zero_kick(config)
    alpha, beta = packets_for(config, N)
    c_qm = quantum_correlation(alpha, beta, 1, N, RotorParams(0.0))
    c_lin = linearized_correlation(alpha, beta, RotorParams(0.0), 1)
    assert abs(c_lin - c_qm) <= 1e-13 + 1e-10 * abs(c_qm)


# ---------------------------------------------------------------------------
# 7. oracle integrity
# ---------------------------------------------------------------------------

def test_floquet_operator_unitary_at_largest_n():
    for K in (0.05, 8.25):
        F = floquet_matrix(700, RotorParams(K))
        dev = np.abs(F.conj().T @ F - np.eye(700)).max()
        assert dev < 1e-12


def test_discretized_packets_unit_norm():
    for name in ("integrable-fig2", "chaotic-fig6"):
        cfg = preset(name)
        for N in (50, 350, 700):
            alpha, beta = packets_for(cfg, N)
            for packet in (alpha, beta):
                vec = discretize_packet(packet, N)
                assert abs(np.linalg.norm(vec) - 1.0) < 1e-12


def test_quantum_correlation_bounded_by_one(integrable_bundle, chaotic_bundle):
    for bundle in (integrable_bundle, chaotic_bundle):
        for r in bundle.rows:
            assert abs(r.C_qm) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# 8. structural invariants
# ---------------------------------------------------------------------------

def test_unit_determinants_along_all_used_trajectories(
    integrable_bundle, chaotic_bundle
):
    """The map is symplectic, so every accumulated stability matrix —
    final and at every leg endpoint the branch tracking reads, complex
    saddle and real
    off-center trajectory alike — has determinant 1."""
    for bundle in (integrable_bundle, chaotic_bundle):
        setup = bundle.setup
        params = RotorParams(setup.config.K)
        trajectories = [sad.trajectory for sad in setup.saddles]
        for seed in setup.seeds:
            trajectories.append(
                propagate(ComplexPhasePoint(*seed.ic), setup.config.t, params)
            )
        for traj in trajectories:
            for m11, m12, m21, m22 in traj.legs:
                det = m11 * m22 - m12 * m21
                assert abs(det - 1.0) < 1e-10


def _shoot(q0: float, qt: float, t: int, params: RotorParams, p0_guess: float):
    """Two-point boundary solve: pick p0 so the orbit from (p0, q0) lands
    on final position qt after t steps (Newton on the landing miss).

    Needs a guess on the right landing branch — strongly kicked orbits
    fold the landing position many times per unit of p0, so a cold Newton
    start jumps branches and diverges.
    """
    p0 = p0_guess
    for _ in range(80):
        traj = propagate(ComplexPhasePoint(p0, q0), t, params)
        miss = (traj.final.q1 - qt).real
        if abs(miss) < 1e-14:
            return traj
        p0 -= miss / traj.m21.real
    raise AssertionError(f"boundary solve stalled, landing miss {miss:.3e}")


def _branch_guess(q0: float, qt: float, t: int, params: RotorParams) -> float:
    """Coarse-scan p0 for a sign change of the landing miss, then bisect
    onto that branch far enough for Newton to finish the job."""
    grid = np.linspace(-0.5, 0.9, 4001)
    pts = np.column_stack([grid, np.full_like(grid, q0)])
    miss = iterate_map(pts, t, params)[:, 1] - qt
    sign = np.sign(miss)
    crossings = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    assert crossings.size, "no landing branch crosses the target in the window"
    i = int(crossings[0])
    lo, hi = float(grid[i]), float(grid[i + 1])
    flo = float(miss[i])
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fmid = float(
            iterate_map(np.array([[mid, q0]]), t, params)[0, 1] - qt
        )
        if flo * fmid <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def test_action_is_the_generating_function_of_the_map():
    """Finite differences of the two-point action against the boundary
    momenta and the stability blocks of the solving trajectory."""
    params = RotorParams(8.25)
    t = 3
    q0, qt = 0.1, 0.35
    h = 1e-6

    center = _shoot(q0, qt, t, params, _branch_guess(q0, qt, t, params))
    p0_c = center.initial.p1.real

    def solved(dq0: float, dqt: float):
        return _shoot(q0 + dq0, qt + dqt, t, params, p0_guess=p0_c)

    s_q0 = (solved(+h, 0).action.real - solved(-h, 0).action.real) / (2 * h)
    s_qt = (solved(0, +h).action.real - solved(0, -h).action.real) / (2 * h)
    assert abs(s_q0 - (-center.initial.p1.real)) < 1e-5
    assert abs(s_qt - center.final.p1.real) < 1e-5

    # second derivatives: boundary-momentum sensitivities against the
    # stability blocks of the central trajectory
    dp0_dq0 = (solved(+h, 0).initial.p1.real
               - solved(-h, 0).initial.p1.real) / (2 * h)
    dp0_dqt = (solved(0, +h).initial.p1.real
               - solved(0, -h).initial.p1.real) / (2 * h)
    dpt_dqt = (solved(0, +h).final.p1.real
               - solved(0, -h).final.p1.real) / (2 * h)
    m11 = center.m11.real
    m21 = center.m21.real
    m22 = center.m22.real
    assert abs(dp0_dq0 - (-m22 / m21)) < 1e-5 * max(1.0, abs(m22 / m21))
    assert abs(dp0_dqt - 1.0 / m21) < 1e-5
    assert abs(dpt_dqt - m11 / m21) < 1e-5 * max(1.0, abs(m11 / m21))


def test_saddle_locations_do_not_depend_on_hbar(integrable_bundle):
    """With packet width locked to b = pi N, the saddle equations lose
    their hbar dependence; re-solving at a different N must reproduce the
    same complex initial conditions.  The chaotic saddles are re-solved
    in ``test_semiclassics.py``."""
    # re-solve explicitly at the two sweep endpoints
    cfg = integrable_bundle.config
    params = RotorParams(cfg.K)
    seed = integrable_bundle.setup.seeds[0]
    solutions = []
    for N in (50, 700):
        alpha, beta = packets_for(cfg, N)
        sad = find_saddle(alpha, beta, seed, params)
        solutions.append(sad.trajectory.initial)
    a, b = solutions
    assert abs(a.p1 - b.p1) < 1e-10
    assert abs(a.q1 - b.q1) < 1e-10


# ---------------------------------------------------------------------------
# 9. determinism
# ---------------------------------------------------------------------------

def test_repeated_sweeps_emit_identical_bytes(
    integrable_bundle, chaotic_bundle, tmp_path
):
    for bundle in (integrable_bundle, chaotic_bundle):
        cfg = bundle.config
        rerun_rows = run_sweep(prepare_scenario(cfg))
        first = tmp_path / f"{cfg.label}_first.csv"
        second = tmp_path / f"{cfg.label}_second.csv"
        emit_csv(bundle.rows, first)
        emit_csv(rerun_rows, second)
        assert first.read_bytes() == second.read_bytes()
