"""The package's public names."""
import inspect

import ggwpd
from ggwpd import experiment, floquet, packets, rotor, semiclassics


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
