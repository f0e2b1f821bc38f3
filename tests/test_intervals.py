"""Interval-local queries: down-covers, the downward closure from x, and the
`chains` subcommand built on it, certified against the full family poset at
every acceptance-gate size."""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import json
import tracemalloc

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
    # the named witness and the moves the program takes, the table's row
    for down in (DOWN[family], weakorder.posets._FAMILY[family].down):
        for y in P.elements:
            kind = type(y)
            got = [(i, kind(v)) for i, v in down(y.word)]
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
    x = Involution.from_cycles(3, [(1, 2)])
    message = r"^\(1,2\) has no down-cover but is not the involution bottom$"
    for walk in (count_chains_below, build_lower_interval):
        with pytest.raises(RuntimeError, match=message):
            walk("involution", x)
    argv = ["chains", "--family", "inv", "--n", "3", "--element", "(1,2)"]
    for mode in ([], ["--json"], ["--count"]):
        with pytest.raises(RuntimeError, match=message):
            run(argv + mode)


def test_first_stuck_element_in_breadth_first_order(monkeypatch) -> None:
    # every transposition is stuck; below (1,4)(2,3) the walk meets (1,4)
    # first, though (1,2) and (3,4) sort before it
    down = weakorder.posets._FAMILY["involution"].down

    def stuck_at_transpositions(w):
        return [] if sum(v != i for i, v in enumerate(w, 1)) == 2 else down(w)

    stuck = dataclasses.replace(
        weakorder.posets._FAMILY["involution"], down=stuck_at_transpositions
    )
    monkeypatch.setitem(weakorder.posets._FAMILY, "involution", stuck)
    x = Involution.from_cycles(4, [(1, 4), (2, 3)])
    message = r"^\(1,4\) has no down-cover but is not the involution bottom$"
    for walk in (count_chains_below, build_lower_interval):
        with pytest.raises(RuntimeError, match=message):
            walk("involution", x)


def test_chain_count_holds_two_ranks_at_a_time() -> None:
    # [bottom, x] at the top of S_10 is all 9 496 involutions; holding them
    # all with their down-covers peaked at about 9 MB
    x = Involution.from_cycles(10, [(i, 11 - i) for i in range(1, 6)])
    tracemalloc.start()
    try:
        got = count_chains_below("involution", x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == count_maximal_chains(build_poset("involution", 10), x)
    assert peak < 2_000_000


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
