"""Interval-local queries: down-covers, the downward closure from x, and the
`chains` subcommand built on it, certified against the full family poset at
every acceptance-gate size."""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import json

import pytest

import weakorder.cli
import weakorder.posets
from weakorder import (
    FpfInvolution,
    Involution,
    WeakOrderPoset,
    build_lower_interval,
    build_poset,
    count_chains_below,
    count_maximal_chains,
    downward_covers_clan,
    downward_covers_fpf,
    downward_covers_involution,
    lower_interval,
    maximal_chains,
)
from weakorder.cli import run

SIZES = (
    [("involution", n) for n in range(1, 8)]
    + [("fpf", n) for n in (2, 4, 6, 8)]
    + [("clan", (p, total - p)) for total in range(2, 7) for p in range(1, total)]
)
IDS = [f"{fam}-{param}" for fam, param in SIZES]

DOWN = {
    "involution": downward_covers_involution,
    "fpf": downward_covers_fpf,
    "clan": downward_covers_clan,
}


@functools.lru_cache(maxsize=None)
def full_poset(family: str, param) -> WeakOrderPoset:
    return build_poset(family, param)


@pytest.mark.parametrize("family,param", SIZES, ids=IDS)
def test_down_covers_invert_up_covers(family, param) -> None:
    P = full_poset(family, param)
    want: dict = {y: set() for y in P.elements}
    for e in P.edges:
        for i in e.labels:
            want[P.elements[e.hi]].add((i, P.elements[e.lo]))
    for y in P.elements:
        kind = type(y)
        got = [(i, kind(v)) for i, v in DOWN[family](y.word)]
        assert len(got) == len(set(got)), y.text()
        assert set(got) == want[y], y.text()


@pytest.mark.parametrize("family,param", SIZES, ids=IDS)
def test_interval_local_count_matches_full_poset(family, param) -> None:
    P = full_poset(family, param)
    for x in P.elements:
        assert count_chains_below(family, x) == count_maximal_chains(P, x), x.text()


@pytest.mark.parametrize("family,param", SIZES, ids=IDS)
def test_interval_matches_lower_interval(family, param) -> None:
    P = full_poset(family, param)
    for x in P.elements:
        Q, R = build_lower_interval(family, x), lower_interval(P, x)
        assert (Q.family, Q.param, Q.complete) == (R.family, R.param, False)
        assert Q.elements == R.elements, x.text()
        assert Q.ranks == R.ranks, x.text()
        assert Q.edges == R.edges, x.text()


def _full_poset_chains(P: WeakOrderPoset, x, mode: str) -> str:
    """What `chains` printed when it answered from the whole family poset."""
    if mode == "--count":
        return f"{count_maximal_chains(P, x)}\n"
    if mode == "--count --json":
        return json.dumps({"element": x.text(), "count": count_maximal_chains(P, x)}) + "\n"
    if mode == "--json":
        payload = {
            "element": x.text(),
            "count": count_maximal_chains(P, x),
            "chains": [list(c.labels) for c in maximal_chains(P, x)],
        }
        return json.dumps(payload, indent=2) + "\n"
    return "".join(",".join(map(str, c.labels)) + "\n" for c in maximal_chains(P, x))


def _run(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run(argv) == 0
    return buf.getvalue()


@pytest.mark.parametrize(
    "family,param", [("involution", 7), ("fpf", 8), ("clan", (3, 3)), ("clan", (5, 1))]
)
def test_chains_output_matches_full_poset(family, param) -> None:
    P = full_poset(family, param)
    # every 7th element, skipping those whose chain listing runs to megabytes
    sample = [x for x in P.elements[::7] if count_maximal_chains(P, x) <= 2000]
    assert len(sample) >= 3
    for x in sample:
        argv = ["chains", "--family", family, "--element", x.text()]
        if family != "clan":
            argv += ["--n", str(param)]
        for mode in ("", "--json", "--count", "--count --json"):
            want = _full_poset_chains(P, x, mode)
            assert _run(argv + mode.split()) == want, (x.text(), mode)


def test_chains_never_builds_the_family_poset(monkeypatch) -> None:
    def refuse(*args):
        raise AssertionError("chains built the whole family poset")

    monkeypatch.setattr(weakorder.cli, "build_poset", refuse)
    monkeypatch.setattr(weakorder.posets, "build_poset", refuse)
    argv = ["chains", "--family", "fpf", "--element", "(1,4)(2,6)(3,5)"]
    for mode in ([], ["--json"], ["--count"]):
        _run(argv + mode)


def test_closure_rejects_a_stuck_element(monkeypatch) -> None:
    stuck = dataclasses.replace(weakorder.posets._FAMILY["involution"], down=lambda w: [])
    monkeypatch.setitem(weakorder.posets._FAMILY, "involution", stuck)
    with pytest.raises(RuntimeError, match="no down-cover"):
        count_chains_below("involution", Involution.from_cycles(3, [(1, 2)]))


def test_family_must_match_the_element() -> None:
    with pytest.raises(ValueError, match="needs a FpfInvolution"):
        count_chains_below("fpf", Involution.from_cycles(4, [(1, 2), (3, 4)]))
    bottom = FpfInvolution.from_cycles(4, [(1, 2), (3, 4)])
    assert count_chains_below("fpf", bottom) == 1
    assert len(build_lower_interval("fpf", bottom)) == 1


def test_small_interval_in_a_huge_family() -> None:
    # fpf n = 30 has 29!! (about 6e15) elements; [bottom, x] here has two
    n = 30
    rest = [(i, i + 1) for i in range(7, n, 2)]
    x = FpfInvolution.from_cycles(n, [(1, 2), (3, 5), (4, 6)] + rest)
    assert count_chains_below("fpf", x) == 1
    assert _run(["chains", "--family", "fpf", "--element", x.text()]) == "4\n"
