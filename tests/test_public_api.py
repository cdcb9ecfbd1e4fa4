"""The package's public surface: ``diracmech.__all__`` and what ``__init__`` imports."""

import types

import diracmech


def test_all_is_sorted_and_unique():
    assert diracmech.__all__ == sorted(set(diracmech.__all__))


def test_every_listed_name_resolves():
    missing = [name for name in diracmech.__all__ if not hasattr(diracmech, name)]
    assert missing == []


def test_every_public_import_is_listed():
    public = {name for name, value in vars(diracmech).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public - set(diracmech.__all__)) == []


def test_star_import():
    namespace = {}
    exec("from diracmech import *", namespace)
    assert set(diracmech.__all__) <= set(namespace)
