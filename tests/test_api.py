"""The package's public names: every export resolves, so a stale entry in
__all__ fails here rather than at a user's import."""

import ultrafit


def test_every_exported_name_resolves():
    assert [name for name in ultrafit.__all__ if not hasattr(ultrafit, name)] == []
    assert len(set(ultrafit.__all__)) == len(ultrafit.__all__)


def test_star_import():
    namespace = {}
    exec("from ultrafit import *", namespace)
    assert set(ultrafit.__all__) <= set(namespace)
