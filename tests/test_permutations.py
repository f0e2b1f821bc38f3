"""Permutation arithmetic, text forms, descents, and reduced words."""

from __future__ import annotations

import itertools
import math
import random
import time
import tracemalloc
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import all_permutations, brute_inversions
from weakorder.permutations import (
    Permutation,
    apply_simple_left,
    compose,
    count_reduced_words,
    evaluate_word,
    identity,
    left_descents,
    length,
    longest_element,
    reduced_words,
    simple_transposition,
)
from weakorder.permutations import _add, _sweep


@st.composite
def perms(draw, max_n: int = 7) -> Permutation:
    n = draw(st.integers(min_value=1, max_value=max_n))
    return Permutation(tuple(draw(st.permutations(list(range(1, n + 1))))))


class TestBasics:
    def test_identity_and_longest(self) -> None:
        assert identity(4).word == (1, 2, 3, 4)
        assert longest_element(4).word == (4, 3, 2, 1)
        assert length(identity(5)) == 0
        assert length(longest_element(5)) == 10

    def test_simple_transposition(self) -> None:
        assert simple_transposition(2, 4).word == (1, 3, 2, 4)
        with pytest.raises(ValueError):
            simple_transposition(4, 4)

    def test_call_is_one_indexed(self) -> None:
        u = Permutation((3, 1, 2))
        assert (u(1), u(2), u(3)) == (3, 1, 2)

    def test_rejects_non_permutation(self) -> None:
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))
        with pytest.raises(ValueError):
            Permutation((0, 1))

    @given(perms(), perms())
    def test_compose_convention(self, u: Permutation, v: Permutation) -> None:
        if u.n != v.n:
            return
        w = compose(u, v)
        assert all(w(i) == u(v(i)) for i in range(1, u.n + 1))
        assert w == u * v

    @given(perms())
    def test_inverse(self, u: Permutation) -> None:
        assert compose(u, u.inverse()) == identity(u.n)
        assert compose(u.inverse(), u) == identity(u.n)


class TestText:
    def test_bracket_and_digit_forms(self) -> None:
        u = Permutation((3, 2, 4, 1))
        assert Permutation.from_text("[3,2,4,1]") == u
        assert Permutation.from_text("3241") == u
        assert u.as_text() == "[3,2,4,1]"
        assert u.as_text(compact=True) == "3241"
        assert str(u) == "[3,2,4,1]"

    def test_digit_form_needs_small_n(self) -> None:
        with pytest.raises(ValueError):
            Permutation.from_text("123456789" + "1")
        wide = Permutation(tuple(range(1, 11)))
        assert wide.as_text(compact=True) == wide.as_text()

    def test_malformed_text(self) -> None:
        for bad in ["", "[1,2", "1,2,3", "[a,b]", "[1,1]"]:
            with pytest.raises(ValueError):
                Permutation.from_text(bad)

    @given(perms(max_n=9))
    def test_round_trip(self, u: Permutation) -> None:
        assert Permutation.from_text(u.as_text()) == u
        assert Permutation.from_text(u.as_text(compact=True)) == u


class TestLengthAndDescents:
    @given(perms())
    def test_length_is_inversion_count(self, u: Permutation) -> None:
        assert length(u) == brute_inversions(u.word)

    def test_length_is_pairwise_count_on_all_small_words(self) -> None:
        for n in range(1, 8):
            for u in all_permutations(n):
                assert length(u) == brute_inversions(u.word)

    def test_length_is_pairwise_count_on_seeded_words(self) -> None:
        rng = random.Random(60)
        for _ in range(200):
            word = rng.sample(range(1, 61), 60)
            assert length(Permutation(tuple(word))) == brute_inversions(tuple(word))

    def test_length_is_pairwise_count_across_mask_widths(self) -> None:
        # the seen-values mask outgrows one machine word at n = 64
        rng = random.Random(64)
        for n in (62, 63, 64, 65, 129, 400):
            for _ in range(5):
                word = tuple(rng.sample(range(1, n + 1), n))
                assert length(Permutation(word)) == brute_inversions(word), n

    def test_long_word_is_fast(self) -> None:
        n = 3000
        word = tuple(random.Random(n).sample(range(1, n + 1), n))
        start = time.perf_counter()
        got = length(Permutation(word))
        elapsed = time.perf_counter() - start
        # reversing a word turns each pair's inversion on or off
        assert got + length(Permutation(word[::-1])) == n * (n - 1) // 2
        assert elapsed < 0.5

    @given(perms(), st.data())
    def test_left_descent_drops_length(self, u: Permutation, data) -> None:
        if u.n < 2:
            return
        j = data.draw(st.integers(min_value=1, max_value=u.n - 1))
        dropped = length(compose(simple_transposition(j, u.n), u)) < length(u)
        assert (j in left_descents(u)) == dropped

    @given(perms(), st.data())
    def test_apply_simple_left(self, u: Permutation, data) -> None:
        if u.n < 2:
            return
        j = data.draw(st.integers(min_value=1, max_value=u.n - 1))
        moved = apply_simple_left(j, u)
        assert moved == compose(simple_transposition(j, u.n), u)
        assert abs(length(moved) - length(u)) == 1

    @given(perms())
    def test_no_descents_means_identity(self, u: Permutation) -> None:
        assert (len(left_descents(u)) == 0) == (u == identity(u.n))


class TestReducedWords:
    def test_frozen_example(self) -> None:
        u = Permutation((3, 2, 4, 1))
        assert reduced_words(u) == {(1, 2, 1, 3), (1, 2, 3, 1), (2, 1, 2, 3)}

    def test_word_evaluation_convention(self) -> None:
        # (1, 2) means s_1 o s_2: apply s_2 to the identity first, then s_1.
        assert evaluate_word((1, 2), 3).word == (2, 3, 1)
        assert evaluate_word((2, 1), 3).word == (3, 1, 2)

    @given(perms(max_n=5))
    def test_reduced_words_evaluate_back(self, u: Permutation) -> None:
        ws = reduced_words(u)
        assert len(ws) == count_reduced_words(u)
        for word in ws:
            assert len(word) == length(u)
            assert evaluate_word(word, u.n) == u

    def test_exhaustive_against_all_words(self) -> None:
        # every letter sequence of the right length that evaluates to u,
        # with every prefix product strictly increasing in length
        u = longest_element(4)
        found = set()
        for word in itertools.product((1, 2, 3), repeat=6):
            if evaluate_word(word, 4) == u and brute_reduced(word, 4):
                found.add(word)
        assert found == reduced_words(u)
        assert count_reduced_words(u) == 16

    def test_counts_without_enumeration(self) -> None:
        for u in all_permutations(5):
            assert count_reduced_words(u) == len(reduced_words(u))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_longest_element_count_is_stanleys(self, n) -> None:
        # Stanley (1984): w0 in S_n has C(n,2)! / prod (2i-1)^(n-i) reduced words
        denominator = math.prod((2 * i - 1) ** (n - i) for i in range(1, n))
        assert count_reduced_words(longest_element(n)) * denominator == math.factorial(
            n * (n - 1) // 2
        )

    def test_count_holds_two_lengths_at_a_time(self) -> None:
        # [e, w0] in S_8 has 40 320 words, the largest length 3 836 of them;
        # holding all of [e, w0] with its moves peaked at about 30 MB
        u = longest_element(8)
        tracemalloc.start()
        try:
            got = count_reduced_words(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == 48_608_795_688_960
        assert peak < 4_000_000

    @pytest.mark.parametrize("fn", [count_reduced_words, reduced_words])
    def test_long_cycle_does_not_recurse(self, fn) -> None:
        # the 1200-cycle 2 3 ... 1200 1 has one reduced word, 1 2 ... 1199:
        # a search recursing once per letter overflows the stack on it
        u = Permutation(tuple(range(2, 1201)) + (1,))
        started = time.perf_counter()
        got = fn(u)
        assert time.perf_counter() - started < 5
        assert got == (1 if fn is count_reduced_words else {tuple(range(1, 1200))})


# a graded table of moves: a below b and c, both below d, b below e
MOVES = {"a": [(1, "b"), (2, "c")], "b": [(1, "d"), (2, "e")], "c": [(1, "d")], "d": [], "e": []}


class TestSweep:
    def test_yields_rank_by_rank_with_whole_counts(self) -> None:
        got = list(_sweep("a", MOVES.get, 1, _add))
        depths = [depth for _, depth, _, _ in got]
        assert depths == sorted(depths)
        assert sorted(got) == [
            ("a", 0, 1, MOVES["a"]),
            ("b", 1, 1, MOVES["b"]),
            ("c", 1, 1, MOVES["c"]),
            ("d", 2, 2, []),
            ("e", 2, 1, []),
        ]

    def test_drops_each_node_as_it_is_yielded(self) -> None:
        # values are the sets of label paths, which weak references can
        # watch; the start's is the caller's ``first``, so only the sets the
        # sweep builds are watched
        def spread(nxt: dict, paths: set, out: list) -> None:
            for i, v in out:
                nxt.setdefault(v, set()).update([p + (i,) for p in paths])

        got, refs = [], []
        for node, depth, paths, _ in _sweep("a", MOVES.get, {()}, spread):
            # the sweep holds no node yielded before this one
            assert [ref() for ref in refs] == [None] * len(refs)
            got.append((node, depth, sorted(paths)))
            if depth:
                refs.append(weakref.ref(paths))
        assert sorted(got) == [
            ("a", 0, [()]),
            ("b", 1, [(1,)]),
            ("c", 1, [(2,)]),
            ("d", 2, [(1, 1), (2, 1)]),
            ("e", 2, [(1, 2)]),
        ]

    def test_move_skipping_a_rank_reenters_its_node(self) -> None:
        # a also moves straight to d: d is yielded at depth 1 with the one
        # path a -> d, and again at its own rank with the two through b and c
        moves = {**MOVES, "a": MOVES["a"] + [(3, "d")]}
        got = [(node, depth, count) for node, depth, count, _ in _sweep("a", moves.get, 1, _add)]
        assert [depth for _, depth, _ in got] == [0, 1, 1, 1, 2, 2]
        assert sorted(got) == [
            ("a", 0, 1), ("b", 1, 1), ("c", 1, 1), ("d", 1, 1), ("d", 2, 2), ("e", 2, 1)
        ]


def brute_reduced(word: tuple[int, ...], n: int) -> bool:
    seen = identity(n)
    for i in reversed(word):
        nxt = apply_simple_left(i, seen)
        if length(nxt) != length(seen) + 1:
            return False
        seen = nxt
    return True
