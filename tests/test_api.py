import sstepcg


def test_every_public_name_resolves():
    missing = [name for name in sstepcg.__all__ if not hasattr(sstepcg, name)]
    assert missing == []
    assert len(set(sstepcg.__all__)) == len(sstepcg.__all__)


def test_solvers_are_public():
    for name in ("hscg_solve", "sstep_solve", "adaptive_solve"):
        assert name in sstepcg.__all__
