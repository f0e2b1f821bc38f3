"""W-sets: direct constructions, condition filters, and the chain oracle."""

from __future__ import annotations

import re

import pytest
from hypothesis import given

from conftest import (
    all_permutations,
    brute_clans,
    brute_fpf,
    brute_involutions,
    involution_strategy,
    words_from_digits,
)
from weakorder import (
    Clan,
    FpfInvolution,
    Involution,
    Permutation,
    WSet,
    bottom_element,
    build_poset,
    chain_count_identity,
    check_conditions_involution,
    maximal_chains,
    rank_involution,
    wset_clan,
    wset_direct,
    wset_fpf,
    wset_involution,
    wset_oracle,
    wstar,
)
from weakorder.permutations import _peel, compose, evaluate_word, length
from weakorder.posets import _FAMILY


def inv(n: int, *cycles: tuple[int, int]) -> Involution:
    return Involution.from_cycles(n, cycles)


def _count_nodes(monkeypatch, construct, elements) -> dict[str, int]:
    """Search nodes, dead ends and members of ``construct`` over ``elements``.

    Nodes are the roots plus every child a step makes; a state with no child
    has no member below it, a dead end.  Each step runs on one state at a
    time, so both are counted per state.
    """
    import weakorder.wsets

    search = weakorder.wsets._search
    seen = {"nodes": 0, "dead": 0, "members": 0}

    def counting(start, steps: int, level, *word):
        def counted_level(t: int):
            step = level(t)

            def counted(states: list) -> list:
                out = []
                for state in states:
                    got = step([state])
                    seen["nodes"] += len(got)
                    seen["dead"] += not got
                    out += got
                return out

            return counted

        words = search(start, steps, counted_level, *word)
        seen["nodes"] += 1
        seen["members"] += len(words)
        return words

    monkeypatch.setattr(weakorder.wsets, "_search", counting)
    for pi in elements:
        construct(pi)
    return seen


class TestWSetContainer:
    # a WSet holds its members' one-line words
    def test_rejects_unsorted_members(self) -> None:
        a, b = (2, 1, 3), (1, 3, 2)
        with pytest.raises(ValueError):
            WSet(inv(3, (1, 2)), 1, (a, b))

    def test_rejects_duplicates(self) -> None:
        a = (2, 1, 3)
        with pytest.raises(ValueError):
            WSet(inv(3, (1, 2)), 1, (a, a))

    def test_rejects_wrong_length(self) -> None:
        with pytest.raises(ValueError):
            WSet(inv(3, (1, 2)), 2, ((2, 1, 3),))

    def test_collect_rejects_a_repeat(self) -> None:
        # the direct generators reach each member once, so a repeat is a
        # fault that must surface, not be merged away
        import weakorder.wsets

        w = (2, 1, 3)
        with pytest.raises(ValueError, match="duplicate-free"):
            weakorder.wsets._collect(inv(3, (1, 2)), 1, [w, w])

    @pytest.mark.parametrize(
        "words, error",
        [
            ([(2, 1, 3), bad], f"not a permutation of 1..3: {bad}")
            for bad in (
                (2, 0, 3), (2, 1, 4), (2, -1, 3), (2, 2, 3), (2, 1), (2, 1, 3, 4), (2, 10**9, 3)
            )
        ]
        + [
            ([(2, 1, 3), (1, 2, 3)], "member [1,2,3] of (1,2) has length 0, expected the rank 1"),
            # (1, 2, 3) comes first in word order, but a non-permutation is
            # reported before any wrong length
            ([(3, 3, 1), (1, 2, 3)], "not a permutation of 1..3: (3, 3, 1)"),
        ],
        ids=["zero", "n+1", "negative", "repeat", "too few", "too many", "huge"]
        + ["wrong length", "non-permutation first"],
    )
    def test_collect_rejects_a_bad_word(self, words, error) -> None:
        # each value is range-checked before it is shifted: a negative one
        # is no negative shift count, and 10**9 builds no 125 MB mask
        import tracemalloc

        import weakorder.wsets

        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=re.escape(error)):
                weakorder.wsets._collect(inv(3, (1, 2)), 1, words)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_word_checks_survive_python_O(self) -> None:
        # asserts are stripped under -O; each check must be a real raise
        import os
        import subprocess
        import sys
        from pathlib import Path

        import weakorder

        code = (
            "from weakorder import Involution, WSet\n"
            "from weakorder.wsets import _collect\n"
            "x = Involution.from_cycles(3, [(1, 2)])\n"
            "for words in ([(2, 0, 3)], [(2, 1, 4)], [(2, -1, 3)], [(2, 2, 3)], [(2, 1)],\n"
            "              [(2, 1, 3, 4)], [(2, 10**9, 3)], [(1, 2, 3)], [(2, 1, 3)] * 2):\n"
            "    try:\n"
            "        _collect(x, 1, words)\n"
            "    except ValueError:\n"
            "        print('raised')\n"
            "try:\n"
            "    WSet(x, 1, ((2, 3, 1), (2, 1, 3)))\n"
            "except ValueError:\n"
            "    print('raised')\n"
        )
        src = str(Path(weakorder.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.stdout == "raised\n" * 10, done.stderr

    def test_members_are_built_on_first_read(self) -> None:
        ws = wset_involution(inv(4, (1, 4), (2, 3)))
        assert ws.words == ((3, 2, 4, 1), (3, 4, 1, 2), (4, 1, 3, 2))
        assert "members" not in vars(ws)
        assert ws.members == tuple(map(Permutation, ws.words))
        assert ws.members is ws.members


class TestKnownInvolutionSets:
    def test_size_four(self) -> None:
        got = set(wset_involution(inv(4, (1, 4), (2, 3))).members)
        assert got == words_from_digits("3241", "3412", "4132")

    def test_size_five(self) -> None:
        got = set(wset_involution(inv(5, (1, 3), (2, 5))).members)
        assert got == words_from_digits("31452", "31524")

    def test_size_eight(self) -> None:
        got = set(wset_involution(inv(8, (1, 6), (3, 7), (4, 8))).members)
        assert got == words_from_digits(
            "25617384",
            "26157384",
            "26173584",
            "26173845",
            "61257384",
            "61273584",
            "61273845",
        )


class TestKnownFpfSets:
    def test_three_nested(self) -> None:
        got = set(wset_fpf(FpfInvolution.from_cycles(6, [(1, 6), (2, 5), (3, 4)])).members)
        assert got == words_from_digits(
            "162534", "163425", "251634", "253416", "341625", "342516"
        )

    def test_two_blocks(self) -> None:
        got = set(
            wset_fpf(
                FpfInvolution.from_cycles(8, [(1, 6), (2, 3), (4, 8), (5, 7)])
            ).members
        )
        assert got == words_from_digits(
            "16234857", "23164857", "16235748", "23165748"
        )

    def test_interleaved(self) -> None:
        got = set(
            wset_fpf(
                FpfInvolution.from_cycles(8, [(1, 5), (2, 7), (3, 8), (4, 6)])
            ).members
        )
        assert got == words_from_digits("15273846", "15274638", "15462738")

    def test_smallest(self) -> None:
        got = set(wset_fpf(FpfInvolution.from_cycles(4, [(1, 4), (2, 3)])).members)
        assert got == words_from_digits("1423", "2314")


class TestKnownClanSets:
    def test_all_isolated(self) -> None:
        pi = Clan.from_parts(4, [], {1: 1, 2: -1, 3: 1, 4: 1})
        assert set(wset_clan(pi).members) == words_from_digits("2341", "3142")

    def test_mixed(self) -> None:
        pi = Clan.from_parts(7, [(1, 6), (2, 3)], {4: 1, 5: -1, 7: 1})
        assert set(wset_clan(pi).members) == words_from_digits(
            "1257436", "1274536", "1527346", "1724356"
        )

    def test_matched_only(self) -> None:
        pi = Clan.from_parts(6, [(1, 4), (2, 6), (3, 5)], {})
        assert set(wset_clan(pi).members) == words_from_digits(
            "123564", "213546", "231456"
        )

    def test_two_minus(self) -> None:
        pi = Clan.from_parts(6, [], {1: 1, 2: -1, 3: -1, 4: 1, 5: 1, 6: 1})
        assert set(wset_clan(pi).members) == words_from_digits(
            "245631", "425613", "451623"
        )

    @pytest.mark.parametrize("m", [500, 1000])
    def test_deep_clan_is_fast(self, m) -> None:
        # m peeling steps, one search level each, not m nested calls; the
        # only choice at each step is the innermost +/- pair
        import time

        pi = Clan.from_parts(2 * m, [], {v: 1 if v <= m else -1 for v in range(1, 2 * m + 1)})
        start = time.perf_counter()
        got = wset_clan(pi)
        elapsed = time.perf_counter() - start
        assert [w.word for w in got.members] == [
            tuple(range(m + 1, 2 * m + 1)) + tuple(range(1, m + 1))
        ]
        assert elapsed < 5.0

    def test_cli_deep_clan_exits_0(self, capsys) -> None:
        from weakorder.cli import run

        text = "".join(f"({v}{'+' if v <= 1000 else '-'})" for v in range(1, 2001))
        assert run(["wset", "--family", "clan", "--element", text]) == 0
        word = [*range(1001, 2001), *range(1, 1001)]
        assert capsys.readouterr().out == "[" + ",".join(map(str, word)) + "]\n"


class TestConditionFilters:
    def test_frozen_checks(self) -> None:
        pi = inv(4, (1, 4), (2, 3))
        assert check_conditions_involution(Permutation((3, 4, 1, 2)), pi)
        assert not check_conditions_involution(Permutation((4, 3, 2, 1)), pi)

    # each word passes every condition but the one named; the generator test
    # only sees words of length rank, which at n <= 7 never isolate 2-5
    @pytest.mark.parametrize(
        "n, cycles, word",
        [
            (3, [(1, 3)], (3, 2, 1)),
            (4, [(1, 2), (3, 4)], (4, 2, 1, 3)),
            (3, [], (2, 1, 3)),
            (3, [(2, 3)], (3, 1, 2)),
            (3, [(1, 2)], (2, 3, 1)),
        ],
        ids=["condition-1", "condition-2", "condition-3", "condition-4", "condition-5"],
    )
    def test_each_condition_rejects_alone(self, n, cycles, word) -> None:
        assert not check_conditions_involution(Permutation(word), inv(n, *cycles))

    def test_generator_equals_filter(self) -> None:
        for n in range(1, 7):
            perms = all_permutations(n)
            for pi in brute_involutions(n):
                r = rank_involution(pi)
                filtered = {
                    w
                    for w in perms
                    if length(w) == r and check_conditions_involution(w, pi)
                }
                assert set(wset_involution(pi).members) == filtered

    def test_fpf_generator_equals_filter(self) -> None:
        # adjacency of each pair as (a, b), and for pairs with increasing
        # right endpoints the earlier pair sits entirely to the left
        for n in (2, 4, 6):
            perms = all_permutations(n)
            for pi in brute_fpf(n):
                blocks = pi.cycles
                filtered = set()
                for w in perms:
                    pos = {w(i): i for i in range(1, n + 1)}
                    if any(pos[b] != pos[a] + 1 for a, b in blocks):
                        continue
                    if any(
                        blocks[i][1] < blocks[j][1] and pos[blocks[i][1]] > pos[blocks[j][0]]
                        for i in range(len(blocks))
                        for j in range(i + 1, len(blocks))
                    ):
                        continue
                    filtered.add(w)
                assert set(wset_fpf(pi).members) == filtered

    def test_generator_never_calls_the_filter(self, monkeypatch) -> None:
        import weakorder.wsets

        def refuse(w: Permutation, pi: Involution) -> bool:
            raise AssertionError("the generator called the reference filter")

        monkeypatch.setattr(weakorder.wsets, "check_conditions_involution", refuse)
        for n in range(1, 7):
            for pi in brute_involutions(n):
                assert len(wset_involution(pi)) >= 1

    def test_sparse_involution_is_fast(self) -> None:
        # the 1498 fixed points neither recurse nor branch: all come after
        # the cycle, so they share one search step and one copy of the word
        import time

        start = time.perf_counter()
        got = wset_involution(inv(1500, (1, 3)))
        elapsed = time.perf_counter() - start
        tail = tuple(range(4, 1501))
        assert [w.word for w in got.members] == [(2, 3, 1) + tail, (3, 1, 2) + tail]
        assert elapsed < 5.0

    @pytest.mark.parametrize(
        "head, orders",
        [
            (((1, 2), (3, 4)), [(1, 2, 3, 4)]),  # the fpf bottom
            (((1, 4), (2, 3)), [(1, 4, 2, 3), (2, 3, 1, 4)]),
        ],
    )
    def test_long_fpf_is_fast(self, head, orders) -> None:
        # 1000 blocks, one search level each, not 1000 nested calls
        import time

        tail = tuple(range(5, 2001))
        pi = FpfInvolution.from_cycles(2000, [*head, *zip(tail[::2], tail[1::2])])
        start = time.perf_counter()
        got = wset_fpf(pi)
        elapsed = time.perf_counter() - start
        assert [w.word for w in got.members] == [order + tail for order in orders]
        assert elapsed < 5.0

    @pytest.mark.parametrize("n, c", [(3000, 2000), (9000, 6000)])
    def test_far_apart_cycles_are_fast(self, n: int, c: int) -> None:
        # the W-sets of (1,3) in S_3 and of (1,4) in S_4, side by side; a
        # cycle may only leave free slots on its left for blocks nested in it,
        # and no step scans the filled slots left of its state's first free one
        import time

        pi = inv(n, (1, 3), (c, c + 3))
        start = time.perf_counter()
        got = wset_involution(pi)
        elapsed = time.perf_counter() - start
        middle, tail = tuple(range(4, c)), tuple(range(c + 4, n + 1))
        expected = [
            left + middle + tuple(v + c - 1 for v in right) + tail
            for left in [(2, 3, 1), (3, 1, 2)]
            for right in [(2, 3, 4, 1), (2, 4, 1, 3), (4, 1, 2, 3)]
        ]
        assert [w.word for w in got.members] == expected
        assert elapsed < 2.0

    def test_ladder_keeps_no_table_of_earlier_cycles(self) -> None:
        # (1,2)(3,4)...(5999,6000): each step lists only the earlier cycles
        # its block needs, here the one before it; a table of earlier
        # cycles per block would be quadratic in the cycles (about 38 MB)
        import time
        import tracemalloc

        pi = inv(6000, *((i, i + 1) for i in range(1, 6000, 2)))
        start = time.perf_counter()
        got = wset_involution(pi)
        elapsed = time.perf_counter() - start
        tracemalloc.start()
        try:
            wset_involution(pi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ladder = tuple(v for i in range(1, 6000, 2) for v in (i + 1, i))
        assert [w.word for w in got.members] == [ladder]
        assert elapsed < 2.0
        assert peak < 8_000_000

    @pytest.mark.parametrize(
        "construct, pi, members, bound",
        [
            (wset_involution, inv(12, *((i, 13 - i) for i in range(1, 7))), 10_395, 4_000_000),
            (wset_fpf, FpfInvolution.from_cycles(16, [(i, 17 - i) for i in range(1, 9)]),
             40_320, 15_000_000),
        ],
        ids=["involution-top-S12", "fpf-top-n16"],
    )
    def test_search_holds_about_one_level(self, construct, pi, members, bound) -> None:
        # each step pops the states it reads as it builds the next level;
        # keeping both whole levels peaked at about 6.2 and 20.3 MB here
        import tracemalloc

        tracemalloc.start()
        try:
            got = construct(pi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(got) == members
        assert peak < bound

    def test_oracle_sweep_holds_about_two_ranks(self) -> None:
        # each element's products are dropped as they are yielded; keeping
        # every element's until the sweep ended peaked at about 6.7 MB here
        import tracemalloc

        from weakorder.wsets import _chain_products

        P = build_poset("involution", 9)

        def moves(k: int) -> list[tuple[int, int]]:
            return [(i, e.hi) for e in P.up[k] for i in e.labels]

        members = 0
        tracemalloc.start()
        try:
            for _, _, products, _ in _chain_products(0, moves, 9):
                members += len(products)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert members == 36_083
        assert peak < 2_000_000

    def test_search_node_count_at_n8(self, monkeypatch) -> None:
        got = _count_nodes(monkeypatch, wset_involution, brute_involutions(8))
        assert got == {"nodes": 18_254, "dead": 0, "members": 6_300}

    @pytest.mark.parametrize(
        "construct, elements, counts",
        [
            (wset_fpf, lambda: brute_fpf(10), (25_926, 0, 7_514)),
            (wset_clan, lambda: [c for p in range(1, 7) for c in brute_clans(p, 7 - p)],
             (17_836, 0, 7_242)),
        ],
        ids=["fpf-n10", "clan-p+q=7"],
    )
    def test_search_node_count_fpf_and_clans(
        self, monkeypatch, construct, elements, counts
    ) -> None:
        got = _count_nodes(monkeypatch, construct, elements())
        assert got == dict(zip(("nodes", "dead", "members"), counts))

    def test_cli_fpf_bottom_exits_0(self, capsys) -> None:
        from weakorder.cli import run

        bottom = bottom_element("fpf", 2000)
        assert run(["wset", "--family", "fpf", "--element", bottom.text()]) == 0
        assert capsys.readouterr().out == "[" + ",".join(map(str, range(1, 2001))) + "]\n"

    @given(involution_strategy())
    def test_members_are_sound(self, pi: Involution) -> None:
        ws = wset_involution(pi)
        assert ws.rank == rank_involution(pi)
        for w in ws.members:
            assert length(w) == ws.rank
            assert check_conditions_involution(w, pi)


class TestOracleAgreement:
    def test_direct_equals_oracle_spot(self) -> None:
        for family, param in [("involution", 5), ("fpf", 6), ("clan", (2, 2))]:
            P = build_poset(family, param)
            for x in P.elements:
                assert wset_direct(family, x).members == wset_oracle(P, x).members

    def test_oracle_matches_per_chain_products(self) -> None:
        for family, param in [("involution", 4), ("clan", (1, 2))]:
            P = build_poset(family, param)
            n = param if isinstance(param, int) else sum(param)
            for x in P.elements:
                by_chain = {
                    evaluate_word(tuple(reversed(c.labels)), n)
                    for c in maximal_chains(P, x)
                }
                assert set(wset_oracle(P, x).members) == by_chain

    @pytest.mark.parametrize(
        "family, param",
        [("involution", n) for n in range(1, 7)]
        + [("fpf", n) for n in (2, 4, 6, 8)]
        + [("clan", (p, total - p)) for total in range(2, 7) for p in range(1, total)],
        ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else str(v),
    )
    def test_sweep_from_the_bottom_word_matches_the_built_poset(self, family, param) -> None:
        # what verify walks, with no poset built: each word once, at its
        # rank, with the built poset's edges and chain products
        from weakorder.posets import _FAMILY
        from weakorder.wsets import _chain_products

        fam, P = _FAMILY[family], build_poset(family, param)
        bottom = P.bottom.word
        words, edges = [], 0
        for w, depth, products, moves in _chain_products(bottom, fam.up, len(bottom)):
            x = fam.element(w)
            words.append(w)
            edges += len({v for _, v in moves})
            assert depth == P.rank_of(x)
            assert sorted(products) == [m.word for m in wset_oracle(P, x).members]
        assert len(words) == len(set(words)) == len(P)
        assert set(words) == {x.word for x in P.elements}
        assert edges == len(P.edges)

    def test_chain_count_identity(self) -> None:
        for family, param in [("involution", 4), ("fpf", 6), ("clan", (2, 2))]:
            P = build_poset(family, param)
            for x in P.elements:
                chains, words, ok = chain_count_identity(P, x)
                assert ok
                assert chains >= len(wset_direct(family, x).members)

    def test_oracle_rank_check_raises(self, monkeypatch) -> None:
        import weakorder.wsets

        P = build_poset("involution", 3)
        monkeypatch.setattr(weakorder.wsets, "_permutation_inversions", lambda w, n: -1)
        top = P.elements[-1]
        with pytest.raises(ValueError, match=rf"of {re.escape(top.text())} has length -1"):
            wset_oracle(P, top)

    def test_oracle_checks_each_member_once_in_order(self, monkeypatch) -> None:
        # one check per member, in word order, and no Permutation until
        # members is read
        import weakorder.wsets

        P = build_poset("involution", 5)
        (top,) = P.maximal_elements()
        checked, conversions = [], []
        check, convert = weakorder.wsets._permutation_inversions, Permutation.__post_init__

        def counted_check(w: tuple[int, ...], n: int) -> int:
            checked.append(w)
            return check(w, n)

        def counted_convert(w: Permutation) -> None:
            conversions.append(w)
            convert(w)

        monkeypatch.setattr(weakorder.wsets, "_permutation_inversions", counted_check)
        monkeypatch.setattr(Permutation, "__post_init__", counted_convert)
        ws = wset_oracle(P, top)
        assert len(ws) == 8
        assert checked == list(ws.words)
        assert conversions == []
        assert [w.word for w in ws.members] == checked
        assert conversions == list(ws.members)

    def test_dispatch(self) -> None:
        pi = inv(4, (1, 2))
        assert wset_direct("involution", pi) == wset_involution(pi)
        with pytest.raises(ValueError):
            wset_direct("involution", FpfInvolution.from_cycles(4, [(1, 2), (3, 4)]))
        with pytest.raises(ValueError):
            wset_direct("poset", pi)

    @pytest.mark.parametrize(
        "family, name, args",
        [
            ("involution", "wset_involution", ["--element", "(1,3)", "--n", "4"]),
            ("fpf", "wset_fpf", ["--element", "(1,3)(2,4)"]),
            ("clan", "wset_clan", ["--element", "(1+)(2,3)(4-)"]),
        ],
    )
    def test_dispatch_looks_up_each_construction_per_call(
        self, monkeypatch, capsys, family, name, args
    ) -> None:
        # bench/tracing.py wraps the constructions by module attribute, so
        # the family table must not hold the function objects themselves
        import weakorder.posets
        from weakorder.cli import parse_element, run

        calls = []
        original = getattr(weakorder.posets, name)

        def counted(x):
            calls.append(x)
            return original(x)

        monkeypatch.setattr(weakorder.posets, name, counted)
        x = parse_element(args[1], family, n=4)
        assert wset_direct(family, x) == original(x)
        assert run(["wset", "--family", family, *args]) == 0
        capsys.readouterr()
        assert calls == [x, x]


class TestLocalCertificate:
    """The direct W-sets agree with the down-covers at every element.  With
    the bottom's W-set {e}, induction up the ranks then makes each the set of
    its chain products, with no chain walked: each label has at most one
    down-cover (i, x'), W(x') is the members of W(x) with i as a left
    descent, i peeled off, and no member has another left descent."""

    @pytest.mark.parametrize(
        "family, param",
        [("involution", n) for n in range(1, 8)]
        + [("fpf", n) for n in (2, 4, 6, 8)]
        + [("clan", (p, t - p)) for t in range(2, 7) for p in range(1, t)],
    )
    def test_wsets_peel_along_down_covers(self, family: str, param) -> None:
        fam = _FAMILY[family]
        wsets = {
            x.word: set(wset_direct(family, x).words)
            for x in build_poset(family, param).elements
        }
        for word, members in wsets.items():
            where = fam.element(word).text()
            down = fam.down(word)
            labels = [i for i, _ in down]
            assert len(labels) == len(set(labels)), f"{where}: two down-covers share a label"
            peeled: dict[int, set] = {}
            for w in members:
                for j, v in _peel(w):
                    peeled.setdefault(j, set()).add(v)
            assert set(peeled) <= set(labels), f"{where}: a member descends at no down-label"
            for i, lower in down:
                assert wsets[lower] == peeled.get(i, set()), f"{where}: label {i}"


class TestClanSymmetry:
    def test_sign_flip_preserves_wsets(self) -> None:
        for p, q in [(1, 1), (1, 2), (2, 2), (1, 3)]:
            for pi in brute_clans(p, q):
                flipped = Clan.from_parts(
                    pi.n, pi.cycles, {v: -s for v, s in pi.signed_fixed_points}
                )
                assert (flipped.p, flipped.q) == (q, p)
                assert wset_clan(flipped).members == wset_clan(pi).members

    def test_sign_flip_is_poset_bijection(self) -> None:
        for p, q in [(1, 2), (2, 3)]:
            P = build_poset("clan", (p, q))
            Q = build_poset("clan", (q, p))
            flipped = {
                Clan.from_parts(x.n, x.cycles, {v: -s for v, s in x.signed_fixed_points})
                for x in P.elements
            }
            assert flipped == set(Q.elements)
            assert len(P.edges) == len(Q.edges)


class TestFpfEmbedding:
    def test_wstar(self) -> None:
        assert wstar(6).word == (2, 1, 4, 3, 6, 5)
        assert length(wstar(8)) == 4
        with pytest.raises(ValueError):
            wstar(5)

    def test_bottom_maps_to_wstar_alone(self) -> None:
        for n in (2, 4, 6, 8):
            alpha = bottom_element("fpf", n).as_involution()
            assert wset_involution(alpha).members == (wstar(n),)

    def test_products_land_in_the_involution_wset(self) -> None:
        for n in (2, 4, 6):
            w_star = wstar(n)
            for pi in brute_fpf(n):
                big = set(wset_involution(pi.as_involution()).members)
                prods = {compose(v, w_star) for v in wset_fpf(pi).members}
                assert len(prods) == len(wset_fpf(pi).members)
                assert prods <= big
                for v in wset_fpf(pi).members:
                    assert length(compose(v, w_star)) == length(v) + length(w_star)

    def test_inclusion_can_be_strict(self) -> None:
        pi = FpfInvolution.from_cycles(4, [(1, 4), (2, 3)])
        prods = {compose(v, wstar(4)) for v in wset_fpf(pi).members}
        big = set(wset_involution(pi.as_involution()).members)
        assert prods < big
        assert big - prods == {Permutation((3, 4, 1, 2))}
