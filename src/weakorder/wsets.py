"""W-sets: the permutations carried by the maximal chains below an element.

Every maximal chain from the bottom element to x spells a word: reading its
labels j_1, ..., j_l from the bottom up, the chain's permutation is the
product s_{j_l} ... s_{j_1} (first label applied first).  The W-set of x
collects these products; by gradedness each has length exactly rank(x), and
the chains below x are exactly the reduced words of the W-set members.

Each family also admits a direct construction that never touches the poset:

- involutions: an exact placement of the cycles and fixed points, in
  order of their smaller end, that enforces the five positional
  conditions of ``check_conditions_involution`` while it places, so
  every completed word is a member;
- fixed-point-free involutions: all concatenations of the two-element blocks
  [a_i, b_i] in any order that keeps block i before block j whenever both
  a_i < a_j and b_i < b_j;
- clans: all outcomes of the peeling procedure that repeatedly sends a
  non-nested strand to the outer free slots (small end left) or an adjacent
  opposite-sign pair of isolated vertices to the outer free slots (large end
  left), until only same-sign isolated vertices remain in the middle.

Each direct construction reaches every member once, so none deduplicates:
``WSet`` rejects a repeated member.  ``wset_oracle`` computes the same sets
by brute force over labeled chains; the test suite certifies that each
direct construction agrees with it.

>>> pi = Involution.from_cycles(4, [(1, 4), (2, 3)])
>>> [w.as_text(compact=True) for w in wset_involution(pi).members]
['3241', '3412', '4132']
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from typing import Iterable, Iterator

from .involutions import (
    Clan,
    FpfInvolution,
    Involution,
    rank_clan,
    rank_fpf,
    rank_involution,
)
from .permutations import (
    Permutation,
    apply_simple_left,
    count_reduced_words,
    identity,
    length,
)
from .posets import Element, WeakOrderPoset, _family_of, count_maximal_chains

__all__ = [
    "WSet",
    "check_conditions_involution",
    "wset_involution",
    "wset_fpf",
    "wset_clan",
    "wset_direct",
    "wstar",
    "wset_oracle",
    "chain_count_identity",
]


@dataclass(frozen=True)
class WSet:
    """The W-set of one element: members sorted by one-line word.

    Every member has length equal to the element's rank; that equality is
    what makes the chains below the element exactly the reduced words of
    the members.
    """

    element: Element
    rank: int
    members: tuple[Permutation, ...]

    def __post_init__(self) -> None:
        for w in self.members:
            if length(w) != self.rank:
                raise ValueError(
                    f"member {w} has length {length(w)}, expected the rank {self.rank}"
                )
        words = [w.word for w in self.members]
        if sorted(set(words)) != words:
            raise ValueError("members must be duplicate-free and sorted by word")

    def __len__(self) -> int:
        return len(self.members)


def _collect(element: Element, rank: int, words: Iterable[Permutation]) -> WSet:
    return WSet(element, rank, tuple(sorted(words, key=lambda w: w.word)))


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
    for a, b in pi.cycles:
        pa, pb = pos[a], pos[b]
        if not pb < pa:
            return False
        for x in range(a + 1, b):
            if pb < pos[x] < pa:
                return False
    for (a1, b1), (a2, b2) in itertools.combinations(pi.cycles, 2):
        # standard form sorts cycles by first entry, so a1 < a2 here
        if b1 < b2 and not pos[a1] < pos[b2]:
            return False
    for c1, c2 in itertools.combinations(pi.fixed_points, 2):
        if not pos[c1] < pos[c2]:
            return False
    for a, b in pi.cycles:
        for c in pi.fixed_points:
            if c < a and not pos[c] < pos[b]:
                return False
            if b < c and not pos[a] < pos[c]:
                return False
    return True


def wset_involution(pi: Involution) -> WSet:
    """Direct W-set of an involution, by exact placement.

    Each fixed point c is the one-slot block (c, c), and cycles and fixed
    points are placed together in order of their smaller end:

    - a cycle (a, b) takes two consecutive free slots, b on the left, with
      no value strictly between a and b in the slots between them
      (condition 1);
    - a fixed point takes the first free slot, because every later block
      lands to its right;
    - conditions 2-5 are one rule: an earlier block (a0, b0) with b0 < b
      has a0 left of the new block's b.

    So every completed word is a member, and each member is reached once.
    The search keeps an explicit stack of slot iterators, one per placed
    block, so sparse involutions of any size stay within the recursion
    limit.

    >>> pi = Involution.from_cycles(5, [(1, 3), (2, 5)])
    >>> [w.as_text(compact=True) for w in wset_involution(pi).members]
    ['31452', '31524']
    """
    n = pi.n
    blocks = sorted(pi.cycles + tuple((c, c) for c in pi.fixed_points))
    word = [0] * n
    pos = [0] * (n + 1)
    members: list[Permutation] = []

    def slots(t: int) -> Iterator[tuple[int, int]]:
        """The (slot of b, slot of a) choices for block t, given blocks < t."""
        a, b = blocks[t]
        least = max((pos[a0] + 1 for a0, b0 in blocks[:t] if b0 < b), default=0)
        if a == b:
            first = word.index(0)
            if first >= least:
                yield first, first
            return
        free = [s for s in range(least, n) if not word[s]]
        for pb, pa in zip(free, free[1:]):
            if not any(a < word[s] < b for s in range(pb + 1, pa)):
                yield pb, pa

    stack = [slots(0)]
    held: list[tuple[int, int]] = []  # the slots of each placed block
    while stack:
        if len(held) == len(stack):
            pb, pa = held.pop()
            word[pb] = word[pa] = 0
        choice = next(stack[-1], None)
        if choice is None:
            stack.pop()
            continue
        pb, pa = choice
        a, b = blocks[len(held)]
        word[pb], word[pa] = b, a
        pos[b], pos[a] = pb, pa
        held.append(choice)
        if len(held) == len(blocks):
            members.append(Permutation(tuple(word)))
        else:
            stack.append(slots(len(held)))
    return _collect(pi, rank_involution(pi), members)


def wset_fpf(pi: FpfInvolution) -> WSet:
    """Direct W-set in the fixed-point-free order, by block orderings.

    Members are exactly the concatenations of the two-element blocks
    [a_t, b_t] in which block t stays before block u whenever a_t < a_u
    and b_t < b_u; the backtracking below emits each linear extension of
    that precedence once.

    >>> pi = FpfInvolution.from_cycles(4, [(1, 4), (2, 3)])
    >>> [w.as_text(compact=True) for w in wset_fpf(pi).members]
    ['1423', '2314']
    """
    blocks = pi.cycles
    k = len(blocks)
    results: list[Permutation] = []
    used = [False] * k
    order: list[int] = []

    def extend() -> None:
        if len(order) == k:
            results.append(Permutation(tuple(v for t in order for v in blocks[t])))
            return
        for t in range(k):
            if used[t]:
                continue
            # blocks are sorted by a, so only earlier blocks can be forced first
            if any(not used[u] and blocks[u][1] < blocks[t][1] for u in range(t)):
                continue
            used[t] = True
            order.append(t)
            extend()
            order.pop()
            used[t] = False

    extend()
    return _collect(pi, rank_fpf(pi), results)


def wstar(n: int) -> Permutation:
    """[2,1,4,3,...,n,n-1], the W-set of the bottom fixed-point-free element.

    Composing on the right with it carries the fixed-point-free W-set of an
    element into its W-set among all involutions, adding n/2 to the length.

    >>> wstar(4).word
    (2, 1, 4, 3)
    """
    if n < 2 or n % 2:
        raise ValueError(f"n must be a positive even integer, got {n}")
    word: list[int] = []
    for i in range(1, n, 2):
        word += [i + 1, i]
    return Permutation(tuple(word))


def wset_clan(pi: Clan) -> WSet:
    """Direct W-set of a clan, by the outside-in peeling procedure.

    A holds the vertices not yet written.  Each step writes one value into
    the leftmost and one into the rightmost free slot: either a strand with
    both endpoints in A and nested inside no strand with both endpoints in
    A (small endpoint left), or two isolated vertices of opposite sign,
    adjacent in A and likewise nested in no such strand (large one left).
    When A holds only same-sign isolated vertices they fill the middle in
    increasing order.  Completions depend only on A, so they are memoized
    per remaining-vertex set.

    The peeling is injective: distinct choice sequences give distinct words.
    A step fixes the outermost free pair of letters, and the choices at one
    A differ there: strands are distinct with left < right, opposite-sign
    pairs are distinct with left > right, and A with no choice left ends the
    word.  So the words are collected without deduplication.

    >>> c = Clan.from_parts(4, [], {1: 1, 2: -1, 3: 1, 4: 1})
    >>> [w.as_text(compact=True) for w in wset_clan(c).members]
    ['2341', '3142']
    """
    sign = dict(pi.signed_fixed_points)
    strands = pi.cycles
    memo: dict[frozenset[int], list[tuple[int, ...]]] = {}

    def completions(A: frozenset[int]) -> list[tuple[int, ...]]:
        got = memo.get(A)
        if got is not None:
            return got
        live = [(a, b) for a, b in strands if a in A and b in A]

        def nested(x: int, y: int) -> bool:
            return any(c < x and y < d for c, d in live)

        if not live and len({sign[v] for v in A}) <= 1:
            out = memo[A] = [tuple(sorted(A))]
            return out
        choices: list[tuple[int, int]] = []
        for a, b in live:
            if not nested(a, b):
                choices.append((a, b))
        ordered = sorted(A)
        for x, y in zip(ordered, ordered[1:]):
            if x in sign and y in sign and sign[x] != sign[y] and not nested(x, y):
                choices.append((y, x))
        out = memo[A] = [
            (left,) + mid + (right,)
            for left, right in choices
            for mid in completions(A - {left, right})
        ]
        return out

    words = completions(frozenset(range(1, pi.n + 1)))
    return _collect(pi, rank_clan(pi), (Permutation(t) for t in words))


def wset_direct(family: str, x: Element) -> WSet:
    """Dispatch to the family's direct (poset-free) W-set construction.

    The element type must match the family exactly: the same two-cycles get
    different W-sets in different families, so a silent cross-family call
    would return a wrong answer rather than fail.
    """
    _family_of(family, x)
    if family == "involution":
        return wset_involution(x)
    if family == "fpf":
        return wset_fpf(x)
    return wset_clan(x)


# chain products per poset, dropped together with the poset
_PRODUCTS: "weakref.WeakKeyDictionary[WeakOrderPoset, list[set[Permutation]]]" = (
    weakref.WeakKeyDictionary()
)


def _chain_products(P: WeakOrderPoset) -> "list[set[Permutation]]":
    """Chain products for every element of P at once, cached per poset.

    One upward sweep in index order (a topological order): the products of
    an element extend those of each lower neighbor by one letter per label.
    """
    cached = _PRODUCTS.get(P)
    if cached is not None:
        return cached
    n = P.bottom.n
    products: list[set[Permutation]] = [set() for _ in P.elements]
    products[P.index_of(P.bottom)] = {identity(n)}
    for j in range(len(P.elements)):
        got = products[j]
        if not got:
            continue
        for k in P.up[j]:
            e = P.edges[k]
            target = products[e.hi]
            for i in e.labels:
                for w in got:
                    target.add(apply_simple_left(i, w))
    _PRODUCTS[P] = products
    return products


def wset_oracle(P: WeakOrderPoset, x: Element) -> WSet:
    """Brute-force W-set of x: all products over labeled maximal chains.

    Certifies the direct constructions; every product comes out at length
    rank(x) (checked), so no length filtering happens.
    """
    j = P.index_of(x)
    members = _chain_products(P)[j]
    rank = P.ranks[j]
    for w in members:
        if length(w) != rank:
            raise RuntimeError(f"chain product {w} of {x.text()} misses rank {rank}")
    return _collect(x, rank, members)


def chain_count_identity(P: WeakOrderPoset, x: Element) -> tuple[int, int, bool]:
    """Count the maximal chains below x two independent ways.

    Left: dynamic program over the Hasse diagram.  Right: total number of
    reduced words over the direct W-set, which never sees the poset.  The
    two agree exactly when the chains are parameterized by those reduced
    words.
    """
    chains = count_maximal_chains(P, x)
    direct = wset_direct(P.family, x)
    words = sum(count_reduced_words(w) for w in direct.members)
    return chains, words, chains == words
