"""Package surface: the names ``latticegames`` exports."""

import latticegames as lg


def test_every_exported_name_resolves():
    # a stale entry in __all__ fails only on `from latticegames import *`
    missing = [name for name in lg.__all__ if not hasattr(lg, name)]
    assert missing == []
    assert len(set(lg.__all__)) == len(lg.__all__)
