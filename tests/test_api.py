"""The package's public names, and what its evaluators may return."""
import cmath
import inspect
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ggwpd
from ggwpd import experiment, floquet, packets, rotor, semiclassics
from ggwpd.errors import GgwpdError
from ggwpd.experiment import (
    ExperimentConfig,
    ScenarioSetup,
    config_from_dict,
    packets_for,
    prepare_scenario,
    preset,
    run_sweep,
)
from ggwpd.floquet import quantum_correlation
from ggwpd.rotor import ComplexTrajectory, RotorParams
from ggwpd.semiclassics import (
    SaddleTrajectory,
    ggwpd_correlation,
    ggwpd_wavefunction,
    linearized_correlation,
    offcenter_correlation,
)


def test_every_public_name_resolves():
    missing = [name for name in ggwpd.__all__ if not hasattr(ggwpd, name)]
    assert missing == []
    assert len(set(ggwpd.__all__)) == len(ggwpd.__all__)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from ggwpd import *", namespace)
    assert set(ggwpd.__all__) <= set(namespace)


def test_removed_branch_unwrapper_is_gone():
    """The branch unwrapper, and the helpers that only the tests called:
    deleted, or moved to the tests' ``oracles`` module."""
    removed = {
        semiclassics: ["BranchPhase", "branch_sqrt"],
        ggwpd: ["free_particle"],
        experiment: ["read_csv"],
        packets: ["packet_evaluate", "gaussian_overlap", "manifold_point"],
        packets.GaussianPacket: ["with_center", "norm_constant"],
        rotor: ["map_step", "inverse_map_step", "_backward_many"],
        rotor.ComplexTrajectory: ["stability_determinant"],
    }
    for owner, names in removed.items():
        for name in names:
            assert name not in ggwpd.__all__
            assert not hasattr(ggwpd, name)
            assert not hasattr(owner, name)


def test_single_valued_keywords_are_gone():
    """Values no caller outside the tests set are module constants or
    derived from the inputs, not keyword arguments."""
    removed = {
        rotor.propagate: ["runaway_bound"],
        rotor.unstable_manifold: ["arc_budget", "max_points"],
        rotor.stable_manifold: ["arc_budget", "max_points"],
        semiclassics.ggwpd_wavefunction: ["halfwidth_sigma"],
        floquet.discretize_packet: ["image_range"],
        floquet.quantum_correlation: ["image_range"],
        packets.ComplexPhasePoint.is_real: ["tol"],
    }
    assert sum(map(len, removed.values())) == 9
    left = [
        f"{fn.__module__}.{fn.__qualname__}({arg})"
        for fn, args in removed.items()
        for arg in args
        if arg in inspect.signature(fn).parameters
    ]
    assert left == []
    assert rotor.ManifoldCurve._fields == ("points",)


def _finite_or_refused(call) -> None:
    """call() returns a finite value, or sweep rows each finite or naming
    its failure in ``error``, or raises a ``GgwpdError``."""
    try:
        value = call()
    except GgwpdError:
        return
    if isinstance(value, list):
        for row in value:
            sums = (row.C_qm, row.C_oc, row.C_ggwpd)
            assert row.error or all(map(cmath.isfinite, sums)), row
        return
    assert isinstance(value, complex) and cmath.isfinite(value), value


@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(["integrable-fig2", "chaotic-fig6"]),
    K=st.floats(-3.0, 300.0).map(lambda e: 10.0**e),
    N=st.integers(2, 300),
    t=st.integers(1, 4),
    x=st.floats(0.0, 1.0),
)
@example(name="integrable-fig2", K=1e200, N=50, t=2, x=0.5)
def test_every_evaluator_returns_a_finite_value_or_refuses(name, K, N, t, x):
    """K log-uniform in [1e-3, 1e300], N of both parities, t <= 4 and the
    preset centres: no exported evaluator lets a non-finite number out.
    Each returns a finite value, a sweep row whose ``error`` is set, or
    raises a ``GgwpdError``.  Overflow warnings on the way to a refusal
    are not outcomes, so they are silenced."""
    base = preset(name)
    params = RotorParams(K)
    alpha, beta = packets_for(base, N)
    seeds, saddles = (), ()
    with np.errstate(all="ignore"):
        try:
            config = ExperimentConfig(
                K=K, t=t, alpha_center=base.alpha_center,
                beta_center=base.beta_center, N_list=(N,), regime=base.regime,
                image_range=base.image_range,
            )
            setup = prepare_scenario(config)
        except GgwpdError:
            pass
        else:
            seeds, saddles = setup.seeds, setup.saddles
            _finite_or_refused(lambda: run_sweep(setup))
        _finite_or_refused(lambda: quantum_correlation(alpha, beta, t, N, params))
        _finite_or_refused(lambda: linearized_correlation(alpha, beta, params, t))
        _finite_or_refused(
            lambda: offcenter_correlation(alpha, beta, list(seeds), params, t).total
        )
        _finite_or_refused(lambda: ggwpd_correlation(alpha, beta, list(saddles), t).total)
        _finite_or_refused(
            lambda: ggwpd_wavefunction(alpha, x, t, params, image_range=base.image_range)
        )


def test_a_hand_built_term_of_1e300_gives_a_finite_sum_or_a_refusal(integrable_bundle):
    """integrable-fig2's one saddle with its action moved by
    -i hbar ln(1e300 / |term|), so that its term is 1e300 at N = 50: the
    saddle sum and the sweep row stay finite or say why not."""
    config = config_from_dict({"N_list": (50,)}, base=integrable_bundle.config)
    alpha, beta = packets_for(config, 50)
    (sad,) = integrable_bundle.setup.saddles
    term = abs(ggwpd_correlation(alpha, beta, [sad], config.t).total)
    traj = sad.trajectory
    inflated = ComplexTrajectory(
        points=traj.points,
        action=traj.action - 1j * alpha.hbar * math.log(1e300 / term),
        legs=traj.legs,
    )
    huge = SaddleTrajectory(inflated, sad.seed, sad.residual_history)
    total = ggwpd_correlation(alpha, beta, [huge], config.t).total
    assert abs(abs(total) / 1e300 - 1.0) < 1e-9
    _finite_or_refused(lambda: run_sweep(ScenarioSetup(config, (huge,))))
