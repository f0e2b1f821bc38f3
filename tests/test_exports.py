"""Every name a module exports resolves, each module imports only earlier layers,
and the package holds no assert statement."""

from __future__ import annotations

import ast
import importlib
import pathlib

import pytest

MODULES = [
    "weakorder",
    "weakorder.permutations",
    "weakorder.involutions",
    "weakorder.matchings",
    "weakorder.posets",
    "weakorder.wsets",
    "weakorder.cli",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves(name: str) -> None:
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}"
    assert len(set(module.__all__)) == len(module.__all__)


def test_star_import() -> None:
    scope: dict = {}
    exec("from weakorder import *", scope)
    import weakorder

    assert set(weakorder.__all__) <= set(scope)


# each module may import only the modules before it, at run time
LAYERS = ["permutations", "involutions", "matchings", "wsets", "posets", "cli"]


@pytest.mark.parametrize("name", LAYERS)
def test_imports_follow_the_layers(name: str) -> None:
    path = pathlib.Path(importlib.import_module("weakorder").__file__).parent / f"{name}.py"
    later = set(LAYERS[LAYERS.index(name) + 1 :])
    bad = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [node.module] if node.module else [a.name for a in node.names]
            bad += [f"line {node.lineno}: .{m}" for m in names if m in later]
    assert not bad, f"{name} imports a later layer: {bad}"


def _names(path: pathlib.Path) -> set[str]:
    """Every name the module at path binds, reads or imports, and every
    string constant in it."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_moves_and_exports_written_once() -> None:
    # the word moves and their sign pairs are declared in involutions alone,
    # in its _MOVES table; and __init__ re-exports matchings, posets and
    # wsets by their own __all__, naming none of their members again
    root = pathlib.Path(importlib.import_module("weakorder").__file__).parent
    moves = {"_lengthen", "_shorten", "_UNSIGNED", "_OPPOSITE"}
    bad = {
        path.name: sorted(moves & _names(path))
        for path in sorted(root.glob("*.py"))
        if path.name != "involutions.py" and moves & _names(path)
    }
    assert not bad, f"the word moves are named outside involutions: {bad}"
    exported = {
        n
        for m in ("matchings", "posets", "wsets")
        for n in importlib.import_module(f"weakorder.{m}").__all__
    }
    again = sorted(exported & _names(root / "__init__.py"))
    assert not again, f"__init__ names members of a module's __all__: {again}"


def test_cli_leaves_the_verify_walk_to_posets() -> None:
    # verify's walk and check live in posets._verify_job; cli plans the
    # jobs and prints them, and imports none of the walk's parts
    path = pathlib.Path(importlib.import_module("weakorder").__file__).parent / "cli.py"
    bad = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = {a.name for a in node.names}
            if node.module is None and "wsets" in names:
                bad.append(f"line {node.lineno}: from . import wsets")
            parts = names & {"_cover_types", "_gc_paused", "_Family"}
            bad += [f"line {node.lineno}: {n}" for n in sorted(parts)]
    assert not bad, f"cli imports parts of verify's walk: {bad}"


def test_no_assert_statements() -> None:
    # python -O strips asserts, so a check written as one silently vanishes
    root = pathlib.Path(importlib.import_module("weakorder").__file__).parent
    hits = [
        f"{path.name}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not hits, f"assert statements in the package; raise instead: {hits}"
