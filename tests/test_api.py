"""The package's public names."""
import ggwpd


def test_every_public_name_resolves():
    missing = [name for name in ggwpd.__all__ if not hasattr(ggwpd, name)]
    assert missing == []
    assert len(set(ggwpd.__all__)) == len(ggwpd.__all__)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from ggwpd import *", namespace)
    assert set(ggwpd.__all__) <= set(namespace)


def test_removed_branch_unwrapper_is_gone():
    for name in ("BranchPhase", "branch_sqrt"):
        assert name not in ggwpd.__all__
        assert not hasattr(ggwpd, name)
        assert not hasattr(ggwpd.semiclassics, name)
