"""Involutions, fpf involutions, clans: construction, ranks, monoid steps."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given

from conftest import (
    brute_clans,
    brute_fpf,
    brute_inversions,
    brute_involutions,
    involution_strategy,
)
import weakorder
from weakorder import (
    Clan,
    FpfInvolution,
    Involution,
    Permutation,
    bottom_element,
    build_poset,
    clan_count,
    downward_covers_clan,
    downward_covers_fpf,
    downward_covers_involution,
    fpf_count,
    involution_count,
    matching_length,
    rank_clan,
    rank_fpf,
    rank_involution,
    rs_step_fpf,
    rs_step_involution,
    upward_covers_clan,
    upward_covers_fpf,
    upward_covers_involution,
)
from weakorder.permutations import (
    compose,
    identity,
    length,
    simple_transposition,
)


involutions = involution_strategy


class TestConstruction:
    def test_from_cycles_normalizes(self) -> None:
        pi = Involution.from_cycles(5, [(4, 1), (3, 2)])
        assert pi.cycles == ((1, 4), (2, 3))
        assert pi.fixed_points == (5,)
        assert pi.text() == "(1,4)(2,3)"
        assert Involution.from_cycles(3, []).text() == "id"

    def test_rejects_bad_cycles(self) -> None:
        with pytest.raises(ValueError):
            Involution.from_cycles(4, [(1, 2), (2, 3)])
        with pytest.raises(ValueError):
            Involution.from_cycles(4, [(0, 1)])
        with pytest.raises(ValueError):
            Involution.from_cycles(4, [(2, 2)])

    def test_fpf_needs_full_matching(self) -> None:
        with pytest.raises(ValueError):
            FpfInvolution.from_cycles(4, [(1, 2)])
        with pytest.raises(ValueError):
            FpfInvolution.from_cycles(3, [(1, 2)])
        pi = FpfInvolution.from_cycles(4, [(1, 2), (3, 4)])
        assert pi.as_involution() == Involution.from_cycles(4, [(1, 2), (3, 4)])

    def test_fpf_is_not_equal_to_plain_involution(self) -> None:
        pi = FpfInvolution.from_cycles(2, [(1, 2)])
        assert pi != Involution.from_cycles(2, [(1, 2)])
        assert pi.as_involution() == Involution.from_cycles(2, [(1, 2)])

    def test_clan_signature(self) -> None:
        pi = Clan.from_parts(7, [(1, 6), (2, 3)], {4: 1, 5: -1, 7: 1})
        assert pi.text() == "(1,6)(2,3)(4+)(5-)(7+)"
        assert (pi.p, pi.q) == (4, 3)
        assert pi.underlying_involution() == Involution.from_cycles(7, [(1, 6), (2, 3)])

    def test_clan_needs_signs_on_every_fixed_point(self) -> None:
        with pytest.raises(ValueError):
            Clan.from_parts(4, [(1, 2)], {3: 1})
        with pytest.raises(ValueError):
            Clan.from_parts(4, [(1, 2)], {3: 1, 4: 0})

    @given(involutions())
    def test_permutation_image_is_self_inverse(self, pi: Involution) -> None:
        u = Permutation(pi.word)
        assert compose(u, u) == identity(pi.n)
        assert all(pi.image(pi.image(i)) == i for i in range(1, pi.n + 1))
        assert Involution(u.word) == pi

    def test_image_reads_the_word(self) -> None:
        pi = Involution.from_cycles(5, [(1, 3), (2, 5)])
        assert [pi.image(i) for i in range(1, 6)] == [3, 5, 1, 4, 2]
        for i in (0, 6):
            with pytest.raises(ValueError, match=rf"^position {i} out of range 1\.\.5$"):
                pi.image(i)

    def test_standard_form_rejects_non_involution(self) -> None:
        with pytest.raises(ValueError):
            Involution(Permutation((2, 3, 1)).word)


class TestRanks:
    @given(involutions())
    def test_involution_rank_formula(self, pi: Involution) -> None:
        assert rank_involution(pi) == (length(Permutation(pi.word)) + pi.num_cycles) // 2

    def test_frozen_rank(self) -> None:
        assert rank_involution(Involution.from_cycles(5, [(1, 3), (2, 5)])) == 4

    def test_fpf_rank_is_flattened_inversions(self) -> None:
        for n in (2, 4, 6):
            for pi in brute_fpf(n):
                flat = tuple(v for ab in pi.cycles for v in ab)
                assert rank_fpf(pi) == brute_inversions(flat)
                assert rank_fpf(pi) == rank_involution(pi.as_involution()) - n // 2

    def test_clan_rank_complements_underlying(self) -> None:
        for p, q in [(1, 1), (2, 1), (2, 2), (3, 2)]:
            for pi in brute_clans(p, q):
                assert rank_clan(pi) == p * q - rank_involution(pi.underlying_involution())

    def test_bottoms_have_rank_zero(self) -> None:
        assert rank_involution(bottom_element("involution", 5)) == 0
        assert rank_fpf(bottom_element("fpf", 6)) == 0
        assert rank_clan(bottom_element("clan", (2, 3))) == 0

    # the references build a checked Permutation and call the public length,
    # where the ranks read the element's word; matching_length shares neither
    @pytest.mark.parametrize("n", range(1, 8))
    def test_involution_rank_references(self, n) -> None:
        for pi in build_poset("involution", n).elements:
            two_cycles = sum(v > i for i, v in enumerate(pi.word, 1))
            want = (length(Permutation(pi.word)) + two_cycles) // 2
            assert rank_involution(pi) == want == matching_length(pi)

    @pytest.mark.parametrize("n", (2, 4, 6, 8))
    def test_fpf_rank_references(self, n) -> None:
        for pi in build_poset("fpf", n).elements:
            flat = tuple(v for i, j in enumerate(pi.word, 1) if j > i for v in (i, j))
            assert rank_fpf(pi) == length(Permutation(flat))
            assert rank_fpf(pi) == rank_involution(Involution(pi.word)) - n // 2

    @pytest.mark.parametrize(("p", "q"), [(p, t - p) for t in range(2, 7) for p in range(1, t)])
    def test_clan_rank_references(self, p, q) -> None:
        for pi in build_poset("clan", (p, q)).elements:
            under = Involution(tuple(abs(v) for v in pi.word))
            assert rank_clan(pi) == p * q - rank_involution(under)


class TestCounts:
    def test_involution_counts(self) -> None:
        expected = [1, 2, 4, 10, 26, 76, 232, 764]
        assert [involution_count(n) for n in range(1, 9)] == expected
        for n in range(1, 8):
            assert len(brute_involutions(n)) == involution_count(n)

    def test_fpf_counts(self) -> None:
        assert [fpf_count(n) for n in (2, 4, 6, 8)] == [1, 3, 15, 105]
        for n in (2, 4, 6):
            assert len(brute_fpf(n)) == fpf_count(n)

    def test_clan_counts(self) -> None:
        assert clan_count(1, 1) == 3
        assert clan_count(2, 2) == 21
        assert clan_count(3, 3) == 215
        for p in range(1, 4):
            for q in range(1, 4):
                assert len(brute_clans(p, q)) == clan_count(p, q)

    def test_counts_match_the_binomial_sums(self) -> None:
        from math import comb, prod

        def odd_double_factorial(k: int) -> int:
            return prod(range(1, 2 * k, 2))

        for n in range(-2, 61):
            assert involution_count(n) == sum(
                comb(n, 2 * k) * odd_double_factorial(k) for k in range(n // 2 + 1)
            )
        for p in range(-1, 31):
            for q in range(-1, 31 - p):
                assert clan_count(p, q) == sum(
                    comb(p + q, 2 * k) * odd_double_factorial(k) * comb(p + q - 2 * k, p - k)
                    for k in range(min(p, q) + 1)
                )


def literal_step(i: int, pi: Involution) -> Involution:
    """The monoid step spelled out with full permutation arithmetic."""
    s = simple_transposition(i, pi.n)
    u = Permutation(pi.word)
    conj = compose(s, compose(u, s))
    if length(conj) > length(u):
        return Involution(conj.word)
    left = compose(s, u)
    if conj == u and length(left) > length(u):
        return Involution(left.word)
    return pi


class TestMonoidSteps:
    def test_step_matches_literal_definition(self) -> None:
        for n in range(1, 7):
            for pi in brute_involutions(n):
                for i in range(1, n):
                    assert rs_step_involution(i, pi) == literal_step(i, pi)

    def test_fpf_step_matches_literal_definition(self) -> None:
        for n in (2, 4, 6):
            for pi in brute_fpf(n):
                for i in range(1, n):
                    got = rs_step_fpf(i, pi)
                    want = literal_step(i, pi.as_involution())
                    assert got.as_involution() == want
                    assert isinstance(got, FpfInvolution)

    def test_step_is_idempotent(self) -> None:
        for pi in brute_involutions(5):
            for i in range(1, 5):
                once = rs_step_involution(i, pi)
                assert rs_step_involution(i, once) == once

    def test_braid_relations(self) -> None:
        for pi in brute_involutions(5):
            for i in range(1, 4):
                j = i + 1
                lhs = rs_step_involution(
                    i, rs_step_involution(j, rs_step_involution(i, pi))
                )
                rhs = rs_step_involution(
                    j, rs_step_involution(i, rs_step_involution(j, pi))
                )
                assert lhs == rhs
            for i in range(1, 5):
                for j in range(i + 2, 5):
                    assert rs_step_involution(
                        i, rs_step_involution(j, pi)
                    ) == rs_step_involution(j, rs_step_involution(i, pi))


def reference_step(i: int, m: tuple[int, ...]) -> tuple[int, ...]:
    """The monoid step at (i, i+1) on the one-line word m, case by case."""
    a, b = m[i - 1], m[i]
    if a == i and b == i + 1:  # both fixed: attach the strand {i, i+1}
        return m[: i - 1] + (i + 1, i) + m[i + 1 :]
    if a == i + 1 or a > b:  # the strand {i, i+1} itself, or a descent: no move
        return m

    def s(v: int) -> int:
        return {i: i + 1, i + 1: i}.get(v, v)

    return tuple(s(m[s(j) - 1]) for j in range(1, len(m) + 1))  # s_i m s_i


_UP = {
    "involution": upward_covers_involution,
    "fpf": upward_covers_fpf,
    "clan": upward_covers_clan,
}
_DOWN = {
    "involution": downward_covers_involution,
    "fpf": downward_covers_fpf,
    "clan": downward_covers_clan,
}


@pytest.mark.parametrize(
    "family, n", [("involution", n) for n in range(1, 8)] + [("fpf", n) for n in (2, 4, 6, 8)]
)
def test_up_step_is_the_reference_step(family, n) -> None:
    for pi in brute_involutions(n) if family == "involution" else brute_fpf(n):
        m = pi.word
        want = [(i, v) for i in range(1, len(m)) if (v := reference_step(i, m)) != m]
        assert [(i, y.word) for i, y, _ in _UP[family](pi)] == want


def reference_moves(i: int, x: "Involution | Clan", up: bool) -> list:
    """The covers of x along label i in its own order, up or down, case by case.

    Written on the underlying involution u of x as a permutation.  Where u
    swaps i and i+1 the strand {i, i+1} may be detached, and where it fixes
    both it may be attached.  Elsewhere s_i u s_i is a move exactly when it
    changes the length of u by 2 in the move's direction.  The clan order
    runs against the involution order, a clan detaches into the sign orders
    (+,-) then (-,+) and attaches only opposite signs, and each sign rides
    with its fixed point under s_i.
    """
    clan = isinstance(x, Clan)
    u = Permutation((x.underlying_involution() if clan else x).word)
    signs = dict(x.signed_fixed_points) if clan else {}
    cycles = {(a, u(a)) for a in range(1, x.n + 1) if u(a) > a}
    lengthen = up != clan
    if u(i) == i + 1:  # the strand {i, i+1}: detach it, going down in u
        rest = cycles - {(i, i + 1)}
        if lengthen or isinstance(x, FpfInvolution):
            return []
        if not clan:
            return [Involution.from_cycles(x.n, rest)]
        return [
            Clan.from_parts(x.n, rest, {**signs, i: sign, i + 1: -sign}) for sign in (1, -1)
        ]
    if u(i) == i and u(i + 1) == i + 1:  # both fixed: attach, going up in u
        if not lengthen or (clan and signs[i] == signs[i + 1]):
            return []
        rest = {v: sign for v, sign in signs.items() if v not in (i, i + 1)}
        both = cycles | {(i, i + 1)}
        return [Clan.from_parts(x.n, both, rest) if clan else type(x).from_cycles(x.n, both)]
    s = simple_transposition(i, x.n)
    v = compose(compose(s, u), s)
    if length(v) - length(u) != (2 if lengthen else -2):
        return []
    moved = [(a, v(a)) for a in range(1, x.n + 1) if v(a) > a]
    if clan:
        return [Clan.from_parts(x.n, moved, {s(a): sign for a, sign in signs.items()})]
    return [type(x).from_cycles(x.n, moved)]


@pytest.mark.parametrize(
    "family, size",
    [("involution", n) for n in range(1, 8)]
    + [("fpf", n) for n in (2, 4, 6, 8)]
    + [("clan", (p, total - p)) for total in range(2, 7) for p in range(1, total)],
)
def test_covers_are_the_reference_moves(family, size) -> None:
    elements = {
        "involution": brute_involutions,
        "fpf": brute_fpf,
        "clan": lambda pq: brute_clans(*pq),
    }[family](size)
    for x in elements:
        labels = range(1, x.n)
        want_up = [(i, y) for i in labels for y in reference_moves(i, x, up=True)]
        want_down = [(i, y) for i in labels for y in reference_moves(i, x, up=False)]
        assert [(i, y) for i, y, _ in _UP[family](x)] == want_up, x.text()
        down = _DOWN[family](x.word)
        assert [(i, type(x)(v)) for i, v in down] == want_down, x.text()


_PLUS_CLAN = Clan.from_parts(3, [(1, 2)], {3: 1})
_MINUS_CLAN = Clan.from_parts(3, [(1, 2)], {3: -1})
_NOT_FPF = Involution.from_cycles(4, [(1, 2)])
_PERFECT = Involution.from_cycles(4, [(1, 2), (3, 4)])


@pytest.mark.parametrize(
    "move, x, want",
    [
        ("rs_step_involution", _PLUS_CLAN, "an Involution, got Clan"),
        ("rs_step_involution", _MINUS_CLAN, "an Involution, got Clan"),
        ("rs_step_fpf", _MINUS_CLAN, "a FpfInvolution, got Clan"),
        # the type decides, not the shape: no fixed points, still an Involution
        ("rs_step_fpf", _PERFECT, "a FpfInvolution, got Involution"),
        ("rs_step_fpf", _NOT_FPF, "a FpfInvolution, got Involution"),
        ("rs_step_fpf", _PLUS_CLAN, "a FpfInvolution, got Clan"),
    ],
)
def test_steps_reject_another_family(move, x, want) -> None:
    # a clan would lose its signs; an involution is not a fixed-point-free one
    call = {
        "rs_step_involution": lambda: rs_step_involution(1, x),
        "rs_step_fpf": lambda: rs_step_fpf(1, x),
    }[move]
    with pytest.raises(ValueError, match=f"{move} needs {want}"):
        call()


def test_involution_step_accepts_fpf() -> None:
    x = FpfInvolution.from_cycles(4, [(1, 2), (3, 4)])
    assert rs_step_involution(2, x).text() == "(1,3)(2,4)"


@pytest.mark.parametrize(
    "kind, word, error",
    [
        (Involution, (-1, 2), "word (-1, 2): no Involution reads -1 at 1"),
        (FpfInvolution, (1, 2), "word (1, 2): no FpfInvolution reads 1 at 1"),
        (Clan, (1, -2), None),
    ],
    ids=["involution", "fpf", "clan"],
)
def test_constructor_reads_only_its_family(kind, word, error) -> None:
    # only a clan reads a signed entry; an fpf word has no fixed point
    if error is None:
        assert kind(word).word == word
        return
    with pytest.raises(ValueError) as raised:
        kind(word)
    assert str(raised.value) == error


def _words(kind, *rows):
    return [(f"{kind.__name__}{word}", partial(kind, word), error) for word, error in rows]


_EMPTY = "n must be at least 1, got 0"

# Each input here also raised ValueError when the elements were stored in
# standard form, the words going through the word decoder of their family,
# except the last two rows: the decoder read (2, -1, 3) as (1,2)(3+) and
# (3, 4, 2, 1) as (1,3)(2,4).
_REJECTED = [
    *_words(
        Involution,
        ((), _EMPTY),
        ((1, 5), "word (1, 5): no Involution reads 5 at 2"),
        ((0,), "word (0,): no Involution reads 0 at 1"),
        ((2, 3, 1), "word (2, 3, 1) is no involution: 1 -> 2 -> 3"),
        ((-1, 2), "word (-1, 2): no Involution reads -1 at 1"),
    ),
    *_words(
        FpfInvolution,
        ((), _EMPTY),
        ((2, 1, 5, 3), "word (2, 1, 5, 3): no FpfInvolution reads 5 at 3"),
        ((0, 1), "word (0, 1): no FpfInvolution reads 0 at 1"),
        ((2, 3, 4, 1), "word (2, 3, 4, 1) is no involution: 1 -> 2 -> 3"),
        ((-1, -2), "word (-1, -2): no FpfInvolution reads -1 at 1"),
        ((2, 1, 3), "word (2, 1, 3): no FpfInvolution reads 3 at 3"),
    ),
    *_words(
        Clan,
        ((), _EMPTY),
        ((1, 5), "word (1, 5): no Clan reads 5 at 2"),
        ((1, 0), "word (1, 0): no Clan reads 0 at 2"),
        ((2, 3, 1), "word (2, 3, 1) is no involution: 1 -> 2 -> 3"),
        ((-2, 1, 3), "word (-2, 1, 3): no Clan reads -2 at 1"),
        ((-1, -2), "signature (0,2) invalid: both p and q must be at least 1"),
        ((1, 2), "signature (2,0) invalid: both p and q must be at least 1"),
    ),
    ("from_cycles out of range", lambda: Involution.from_cycles(4, [(1, 5)]),
     "cycle (1,5) leaves 1..4"),
    ("from_cycles reused", lambda: Involution.from_cycles(4, [(1, 2), (2, 3)]),
     "cycles [(1, 2), (2, 3)] reuse a vertex"),
    ("from_cycles (a, a)", lambda: Involution.from_cycles(4, [(2, 2)]),
     "cycles [(2, 2)] reuse a vertex"),
    # vertex 0 must not reach word[-1], the slot of vertex n
    ("from_cycles (0, 1)", lambda: Involution.from_cycles(4, [(0, 1)]),
     "cycle (0,1) leaves 1..4"),
    ("from_cycles (0, 4)", lambda: Involution.from_cycles(4, [(0, 4)]),
     "cycle (0,4) leaves 1..4"),
    ("from_cycles n = 0", lambda: Involution.from_cycles(0, []), _EMPTY),
    ("from_cycles n = -3", lambda: Involution.from_cycles(-3, []), "n must be at least 1, got -3"),
    ("from_parts n = -3", lambda: Clan.from_parts(-3, [], {}), "n must be at least 1, got -3"),
    ("fpf from_cycles out of range", lambda: FpfInvolution.from_cycles(4, [(1, 2), (3, 5)]),
     "cycle (3,5) leaves 1..4"),
    ("fpf from_cycles fixed point", lambda: FpfInvolution.from_cycles(3, [(1, 2)]),
     "word (2, 1, 3): no FpfInvolution reads 3 at 3"),
    ("from_parts sign 0", lambda: Clan.from_parts(4, [(1, 2)], {3: 1, 4: 0}),
     "sign at vertex 4 must be +1 or -1, got 0"),
    ("from_parts sign 2", lambda: Clan.from_parts(4, [(1, 2)], {3: 2, 4: -1}),
     "sign at vertex 3 must be +1 or -1, got 2"),
    ("from_parts sign off a fixed point",
     lambda: Clan.from_parts(4, [(1, 2)], {1: 1, 3: 1, 4: -1}),
     "signs given for [1, 3, 4] but fixed points are (3, 4)"),
    ("from_parts sign missing", lambda: Clan.from_parts(4, [(1, 2)], {3: 1}),
     "signs given for [3] but fixed points are (3, 4)"),
    ("from_parts out of range", lambda: Clan.from_parts(3, [(1, 4)], {2: 1, 3: -1}),
     "cycle (1,4) leaves 1..3"),
    ("from_parts reused", lambda: Clan.from_parts(4, [(1, 2), (2, 3)], {4: 1}),
     "cycles [(1, 2), (2, 3)] reuse a vertex"),
    ("from_parts p = 0", lambda: Clan.from_parts(2, [], {1: -1, 2: -1}),
     "signature (0,2) invalid: both p and q must be at least 1"),
    *_words(Clan, ((2, -1, 3), "word (2, -1, 3) is no involution: 1 -> 2 -> -1")),
    *_words(Involution, ((3, 4, 2, 1), "word (3, 4, 2, 1) is no involution: 1 -> 3 -> 2")),
]


@pytest.mark.parametrize("make, error", [r[1:] for r in _REJECTED], ids=[r[0] for r in _REJECTED])
def test_validation_rejects(make, error) -> None:
    with pytest.raises(ValueError) as raised:
        make()
    assert str(raised.value) == error


def test_validation_survives_python_O() -> None:
    # asserts are stripped under -O; each check must be a real raise
    code = (
        "from weakorder import Clan, FpfInvolution, Involution\n"
        "for make in (lambda: Involution((2, 3, 1)), lambda: FpfInvolution((2, 1, 3)),\n"
        "             lambda: Clan((-2, 1, 3)), lambda: Clan((1, 2)),\n"
        "             lambda: Involution.from_cycles(4, [(0, 1)]),\n"
        "             lambda: Clan.from_parts(4, [(1, 2)], {3: 1, 4: 0})):\n"
        "    try:\n"
        "        make()\n"
        "    except ValueError:\n"
        "        print('raised')\n"
    )
    src = str(Path(weakorder.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.stdout == "raised\n" * 6, done.stderr


def _dump(x: "Involution | Clan") -> str:
    """Every standard-form property of x, its text and its rank, on one line."""
    if isinstance(x, Clan):
        return (
            f"Clan {x.n} {x.cycles} {x.signed_fixed_points} {x.p} {x.q} "
            f"{x.text()} {rank_clan(x)} {x.underlying_involution().text()}"
        )
    extra = ""
    if isinstance(x, FpfInvolution):
        extra = f" {rank_fpf(x)} {x.as_involution().text()}"
    return (
        f"{type(x).__name__} {x.n} {x.cycles} {x.fixed_points} {x.num_cycles} "
        f"{x.text()} {rank_involution(x)} {Permutation(x.word).word} "
        f"{tuple(x.image(i) for i in range(1, x.n + 1))}{extra}"
    )


def test_properties_frozen() -> None:
    # recorded when the standard form was stored, before it was read off the word
    elements = [pi for n in range(1, 8) for pi in brute_involutions(n)]
    elements += [pi for n in (2, 4, 6, 8) for pi in brute_fpf(n)]
    elements += [c for t in range(2, 7) for p in range(1, t) for c in brute_clans(p, t - p)]
    text = "\n".join(map(_dump, elements)) + "\n"
    assert len(elements) == 1168
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "aa099281f09ef07553ca0c1292af42e4b4787db725f19961d8372c3aa268ea5c"
    )


class TestBottoms:
    def test_bottom_shapes(self) -> None:
        assert bottom_element("involution", 4).text() == "id"
        assert bottom_element("fpf", 6).text() == "(1,2)(3,4)(5,6)"
        assert bottom_element("clan", (2, 2)).text() == "(1,4)(2,3)"
        assert bottom_element("clan", (1, 3)).text() == "(1,4)(2-)(3-)"
        assert bottom_element("clan", (3, 1)).text() == "(1,4)(2+)(3+)"

    def test_bottom_element_rejects_unknown_family(self) -> None:
        with pytest.raises(ValueError):
            bottom_element("signed", 4)

    def test_bottom_element_rejects_non_integer_n(self) -> None:
        with pytest.raises(ValueError, match="integer n"):
            bottom_element("fpf", (2, 2))
        with pytest.raises(ValueError, match="integer n"):
            bottom_element("involution", "4")
        with pytest.raises(ValueError, match="integer pair"):
            bottom_element("clan", 4)
        with pytest.raises(ValueError, match="integer pair"):
            bottom_element("clan", (2,))

    def test_check_survives_python_O(self) -> None:
        # asserts are stripped under -O; the check must be a real raise
        code = (
            "from weakorder import bottom_element\n"
            "try:\n"
            "    bottom_element('fpf', (2, 2))\n"
            "except ValueError:\n"
            "    print('raised')\n"
        )
        src = str(Path(weakorder.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.stdout == "raised\n", done.stderr
