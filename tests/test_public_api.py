"""The package's public surface: ``diracmech.__all__`` and what ``__init__`` imports."""

import ast
import types
from pathlib import Path

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


def test_only_dirac_knows_the_clock_extension():
    # every other module reads ``clock_base``: the catalog in systems only
    # constructs the extension, and __init__ only re-exports it
    name = "TimeExtendedDirac"
    offenders = []
    for path in sorted(Path(diracmech.__file__).parent.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        calls = {id(node.func) for node in nodes if isinstance(node, ast.Call)}
        uses = [node for node in nodes if getattr(node, "id", getattr(node, "attr", None)) == name]
        imported = any(alias.name == name for node in nodes if isinstance(node, ast.ImportFrom)
                       for alias in node.names)
        if path.name == "systems.py":
            allowed = all(id(node) in calls for node in uses)
        elif path.name == "__init__.py":
            allowed = not uses
        else:
            allowed = path.name == "dirac.py" or not (uses or imported)
        if not allowed:
            offenders.append(path.name)
    assert offenders == []
