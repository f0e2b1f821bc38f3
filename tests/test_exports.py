"""Every name a module exports resolves, so removals leave no stale entries."""

from __future__ import annotations

import importlib

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
