"""W-sets: the permutations carried by the maximal chains below an element.

Every maximal chain from the bottom element to x spells a word: reading its
labels j_1, ..., j_l from the bottom up, the chain's permutation is the
product s_{j_l} ... s_{j_1} (first label applied first).  The W-set of x
collects these products; by gradedness each has length exactly rank(x), and
the chains below x are exactly the reduced words of the W-set members.

Each family also admits a direct construction that never touches the poset:

- involutions: an exact placement of the cycles and fixed points, in
  order of their smaller end, that enforces the five positional
  conditions of ``check_conditions_involution`` while it places;
- fixed-point-free involutions: all concatenations of the two-element blocks
  [a_i, b_i] in any order that keeps block i before block j whenever both
  a_i < a_j and b_i < b_j;
- clans: all outcomes of the peeling procedure that repeatedly sends a
  non-nested strand to the outer free slots (small end left) or an adjacent
  opposite-sign pair of isolated vertices to the outer free slots (large end
  left), until only same-sign isolated vertices remain in the middle.

All three run on one level-wise search, ``_search``, after one set-up pass
over the element's word; its states are tuples.  Each reaches every member
once, so none deduplicates.  ``WSet`` holds the sorted one-line words and
checks each once, in one pass, and rejects a repeat; ``members`` builds the
``Permutation``s when read.  ``posets.wset_direct`` picks the construction.
``wset_oracle`` computes the same sets by brute force over labeled chains,
and the tests certify that each direct construction agrees with it.  The
chain products are carried along the chains by ``_chain_products``, one
``permutations._sweep``, on words by ``posets._verify_job``, on indices here.
It holds each product as a byte word (a ``str`` above n = 255, by
``_codec``) and moves it by one ``translate``; a caller decodes only the
products it reads out.

>>> pi = Involution.from_cycles(4, [(1, 4), (2, 3)])
>>> [w.as_text(compact=True) for w in wset_involution(pi).members]
['3241', '3412', '4132']
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter, lt
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Iterator

from .involutions import (
    Clan,
    FpfInvolution,
    Involution,
    rank_clan,
    rank_fpf,
    rank_involution,
)
from .permutations import Permutation, Word, _permutation_inversions, _sweep, _word_text

if TYPE_CHECKING:
    from .posets import Element, WeakOrderPoset

__all__ = [
    "WSet",
    "check_conditions_involution",
    "wset_involution",
    "wset_fpf",
    "wset_clan",
    "wstar",
    "wset_oracle",
]


@dataclass(frozen=True)
class WSet:
    """The W-set of one element: its members' one-line words, sorted.

    Each is a permutation of 1..n, n the element's, of length the rank,
    both checked in one pass; that equality makes the chains below the
    element exactly the reduced words of the members.
    """

    element: Element
    rank: int
    words: tuple[Word, ...]

    def __post_init__(self) -> None:
        n, rank, words = self.element.n, self.rank, self.words
        # every word is checked as a permutation before a length is reported
        wrong = [(w, got) for w in words if (got := _permutation_inversions(w, n)) != rank]
        if wrong:
            w, got = wrong[0]
            raise ValueError(
                f"member {_word_text(w)} of {self.element.text()} has length {got},"
                f" expected the rank {rank}"
            )
        # strictly increasing is exactly sorted and duplicate-free
        if not all(map(lt, words, words[1:])):
            raise ValueError("members must be duplicate-free and sorted by word")

    @cached_property
    def members(self) -> tuple[Permutation, ...]:
        """The members as ``Permutation``s, built on first read."""
        return tuple(map(Permutation, self.words))

    def __len__(self) -> int:
        return len(self.words)


def _collect(element: Element, rank: int, words: Iterable[Word]) -> WSet:
    """The ``WSet`` of the words; tuples sort as the one-line words do."""
    return WSet(element, rank, tuple(sorted(words)))


def _search(start: tuple, steps: int, level: Callable, word: Callable = itemgetter(0)) -> list:
    """The ``word`` of every state that ``steps`` steps reach from ``start``.

    ``level(t)`` does step t's set-up once and returns the step, mapping the
    states after steps < t to their children, each a new tuple, so nothing
    is undone.  The steps and the final read pop the states they read, so
    about one level is held at a time.
    """
    states = [start]
    for t in range(steps):
        states = level(t)(states)
    return [word(states.pop()) for _ in range(len(states))]


def check_conditions_involution(w: Permutation, pi: Involution) -> bool:
    """The five positional conditions characterizing membership in a W-set.

    With pi = (a_1,b_1)...(a_k,b_k) in standard form and fixed points
    c_1 < ... < c_l, a word w passes iff

    1. each b_i occurs before a_i, and no value strictly between a_i and b_i
       occurs between them;
    2. for cycles i < j with b_i < b_j, a_i occurs before b_j;
    3. fixed points occur in increasing order;
    4. a fixed point below a_i occurs before b_i;
    5. a fixed point above b_i occurs after a_i.

    The filter says nothing about length; membership additionally requires
    length(w) to equal the rank.  No program path calls it:
    ``wset_involution`` enforces the same conditions while it places, and
    the tests and demos check the generator against this reference.

    >>> pi = Involution.from_cycles(4, [(1, 4), (2, 3)])
    >>> check_conditions_involution(Permutation((3, 4, 1, 2)), pi)
    True
    >>> check_conditions_involution(Permutation((4, 3, 2, 1)), pi)
    False
    """
    if w.n != pi.n:
        raise ValueError(f"size mismatch: permutation on {w.n}, involution on {pi.n}")
    pos = {v: s for s, v in enumerate(w.word)}
    cycles, fixed = pi.cycles, pi.fixed_points
    for a, b in cycles:
        pa, pb = pos[a], pos[b]
        if not pb < pa or any(pb < pos[x] < pa for x in range(a + 1, b)):
            return False
    for (a1, b1), (a2, b2) in itertools.combinations(cycles, 2):
        # standard form sorts cycles by first entry, so a1 < a2 here
        if b1 < b2 and not pos[a1] < pos[b2]:
            return False
    for c1, c2 in itertools.combinations(fixed, 2):
        if not pos[c1] < pos[c2]:
            return False
    for a, b in cycles:
        for c in fixed:
            if (c < a and not pos[c] < pos[b]) or (b < c and not pos[a] < pos[c]):
                return False
    return True


def wset_involution(pi: Involution) -> WSet:
    """Direct W-set of an involution, by exact placement.

    Each fixed point c is the one-slot block (c, c).  Blocks are placed in
    order of their smaller end, one step per cycle: step k writes the fixed
    points between cycles k - 1 and k, then cycle k, and one more step the
    fixed points after the last cycle.  A state is (word, a lower bound of
    its first free slot, the slot of each placed cycle's smaller end).

    - A cycle (a, b) takes two consecutive free slots, b on the left, with
      at most room(a, b) free slots left of b: the values inside (a, b)
      whose block is nested in it.  Only those can fill the slots, as any
      later block reaching above b lands right of a.
    - Condition 1 needs no check: a placed value in (a, b) is some b0 with
      a0 < a < b0 < b, and the rule below puts a0, and so b0, left of b.
    - Conditions 2-5 are one rule: an earlier cycle (a0, b0) with b0 < b
      has a0 left of the new block's b.  Each step lists once the earlier
      cycles its cycle must check (a table per block would be quadratic in
      memory); ``last`` is the rightmost of their a0 slots.
    - A fixed point c takes the first free slot, as every later block
      lands to its right.  It needs no check: left of an earlier cycle's
      b0, the free slots never outnumber the values yet to come nested in
      (a0, b0), by the room bound of that cycle and of each nested one,
      and all those values are below c.

    So every completed word is a member, and each member is reached once.

    >>> pi = Involution.from_cycles(5, [(1, 3), (2, 5)])
    >>> [w.as_text(compact=True) for w in wset_involution(pi).members]
    ['31452', '31524']
    """
    mate, n = pi.word, pi.n
    # cycles[k]: (a, b, room(a, b)), room read off the mates mate[a : b - 1];
    # fixed[k]: the fixed points between cycles k - 1 and k, the last list
    # after every cycle; above[k]: the last earlier cycle with larger b, or -1
    cycles, fixed, above = [], [[]], []
    for a, b in enumerate(mate, 1):
        if b == a:
            fixed[-1].append(a)
        elif b > a:
            i = len(cycles) - 1
            while i >= 0 and cycles[i][1] < b:
                i = above[i]
            above.append(i)
            cycles.append((a, b, len([v for v in mate[a : b - 1] if a < v < b])))
            fixed.append([])

    def level(k: int) -> Callable[[list], list]:
        fix = fixed[k]
        a, b, room = cycles[k] if k < len(cycles) else (0, 0, -1)
        # the earlier cycles with b0 < b.  Of two such, the later one with
        # the larger b0 has its a0 right of the other's, so only it is kept,
        # and the scan skips to the last earlier cycle with a larger b0
        into, top, i = [], 0, k - 1
        while i >= 0:
            b0 = cycles[i][1]
            if top < b0 < b:
                top = b0
                into.append(i)
            i = above[i] if b0 < b else i - 1

        def step(states: list) -> list:
            out = []
            while states:
                w, lo, slots = states.pop()
                if fix:
                    u = list(w)
                    for c in fix:
                        lo = u.index(0, lo)
                        u[lo] = c
                    w = tuple(u)
                    if not b:
                        out.append((w, lo, slots))
                        continue
                last = -1
                for i in into:
                    if slots[i] > last:
                        last = slots[i]
                # room(a, b) + 2 free slots, each but the last a slot for b
                pb = first = w.index(0, lo)
                for _ in range(room + 1):
                    pa = w.index(0, pb + 1)
                    if pb > last:
                        u = list(w)
                        u[pb], u[pa] = b, a
                        out.append((tuple(u), first, slots + (pa,)))
                    pb = pa
            return out

        return step

    words = _search(((0,) * n, 0, ()), len(cycles) + bool(fixed[-1]), level)
    return _collect(pi, rank_involution(pi), words)


def wset_fpf(pi: FpfInvolution) -> WSet:
    """Direct W-set in the fixed-point-free order, by block orderings.

    Members are exactly the concatenations of the two-element blocks
    [a_t, b_t] in which block t stays before block u whenever a_t < a_u
    and b_t < b_u.  A state is (prefix, the unplaced blocks in order of a).
    Each step appends a block: scanning the unplaced blocks, it may take
    each block whose b is below the running minimum of the b's scanned so
    far.  So each linear extension of that precedence is emitted once.

    >>> pi = FpfInvolution.from_cycles(4, [(1, 4), (2, 3)])
    >>> [w.as_text(compact=True) for w in wset_fpf(pi).members]
    ['1423', '2314']
    """
    n, cycles = pi.n, pi.cycles

    def step(states: list) -> list:
        out = []
        while states:
            prefix, rest = states.pop()
            low = n + 1
            for i, (a, b) in enumerate(rest):
                if b < low:
                    low = b
                    out.append((prefix + (a, b), rest[:i] + rest[i + 1 :]))
        return out

    return _collect(pi, rank_fpf(pi), _search(((), cycles), len(cycles), lambda t: step))


def wstar(n: int) -> Permutation:
    """[2,1,4,3,...,n,n-1], the W-set of the bottom fixed-point-free element.

    Composing on the right with it carries the fixed-point-free W-set of an
    element into its W-set among all involutions, adding n/2 to the length.

    >>> wstar(4).word
    (2, 1, 4, 3)
    """
    if n < 2 or n % 2:
        raise ValueError(f"n must be a positive even integer, got {n}")
    return Permutation(tuple(v for i in range(1, n, 2) for v in (i + 1, i)))


def wset_clan(pi: Clan) -> WSet:
    """Direct W-set of a clan, by the outside-in peeling procedure.

    A holds the vertices not yet written.  Each of the min(p, q) peeling
    steps writes one value into the leftmost and one into the rightmost free
    slot: either a strand with both endpoints in A and nested inside no
    strand with both endpoints in A (small endpoint left), or two isolated
    vertices of opposite sign, adjacent in A and likewise nested in no such
    strand (large one left).  Then A holds only same-sign isolated vertices,
    and they fill the middle in increasing order.  A state is (left
    letters, A in increasing order, right letters), so its word is their
    concatenation.  A step is one scan of A keeping ``reach``, the largest
    right end of a strand opened so far: strand (v, w) is a choice iff
    reach < w (at a right end, reach >= v > w), and the pair (prev, v) iff
    reach < v.

    The peeling is injective: distinct choice sequences give distinct words.
    A step fixes the outermost free pair of letters, and the choices at one
    A differ there: strands are distinct with left < right, opposite-sign
    pairs are distinct with left > right, and A with no choice left ends the
    word.  So the words are collected without deduplication.

    >>> c = Clan.from_parts(4, [], {1: 1, 2: -1, 3: 1, 4: 1})
    >>> [w.as_text(compact=True) for w in wset_clan(c).members]
    ['2341', '3142']
    """
    # mate[v]: the other end of v's strand, or 0; sign[v]: v's sign if isolated, or 0
    mate = [0] + [v if v > 0 and v != i else 0 for i, v in enumerate(pi.word, 1)]
    sign = [0] + [v // i if v == i or v == -i else 0 for i, v in enumerate(pi.word, 1)]

    def step(states: list) -> list:
        out = []
        while states:
            left, rest, right = states.pop()
            reach = prev = 0
            for i, v in enumerate(rest):
                w = mate[v]
                if w:
                    if reach < w:
                        j = rest.index(w, i)
                        middle = rest[:i] + rest[i + 1 : j] + rest[j + 1 :]
                        out.append((left + (v,), middle, (w,) + right))
                        reach = w
                elif sign[prev] == -sign[v] and reach < v:
                    out.append((left + (v,), rest[: i - 1] + rest[i + 1 :], (prev,) + right))
                prev = v
        return out

    start = ((), tuple(range(1, pi.n + 1)), ())
    words = _search(start, min(pi.p, pi.q), lambda t: step, lambda s: s[0] + s[1] + s[2])
    return _collect(pi, rank_clan(pi), words)


def _codec(n: int) -> tuple[Callable, Callable, Callable]:
    """How ``_chain_products`` holds a one-line word on 1..n: (encode,
    decode, exchange), where ``exchange(i)`` is the ``translate`` table
    that swaps the values i and i + 1.  A word is ``bytes`` while every
    value fits a byte, above n = 255 a ``str`` of code points."""
    if n <= 255:
        return bytes, tuple, lambda i: bytes.maketrans(bytes((i, i + 1)), bytes((i + 1, i)))
    encode = lambda w: "".join(map(chr, w))
    return encode, lambda s: tuple(map(ord, s)), lambda i: {i: i + 1, i + 1: i}


def _chain_products(start: Hashable, moves: Callable, n: int) -> Iterator[tuple]:
    """(node, depth, chain products, moves) of every node reached from
    ``start``: ``permutations._sweep`` with the products spread, each held
    as an encoded word of ``_codec(n)``; s_i swaps the values i and i + 1,
    one ``translate`` by its table."""
    encode, _, exchange = _codec(n)
    tables = [None] + [exchange(i) for i in range(1, n)]

    def extend(nxt: dict, products: set, moves: list) -> None:
        for i, v in moves:
            target, table = nxt.setdefault(v, set()), tables[i]
            for w in products:
                target.add(w.translate(table))

    return _sweep(start, moves, {encode(range(1, n + 1))}, extend)


def wset_oracle(P: WeakOrderPoset, x: Element) -> WSet:
    """Brute-force W-set of x: all products over labeled maximal chains.

    Certifies the direct constructions.  Every product comes out at length
    rank(x), which ``WSet`` checks, so no length filtering happens.  The
    sweep runs over P's indices, its moves read off ``P.up``, and stops at
    x; an x it does not reach, as in an edge-filtered copy, has no products.
    Only x's products are decoded from the sweep's byte words.
    """
    j, up, n = P.index_of(x), P.up, P.bottom.n
    sweep = _chain_products(0, lambda k: [(i, e.hi) for e in up[k] for i in e.labels], n)
    got = next((got for k, _, got, _ in sweep if k == j), ())
    return _collect(x, P.ranks[j], map(_codec(n)[1], got))
