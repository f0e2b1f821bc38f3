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

All three constructions are placement rules on one explicit-stack loop,
``_search``, so none recurses.  Each reads the element's standard form off
its word once, before the search.  They, and the oracle, work on one-line
tuples: ``_collect`` turns each member into a ``Permutation`` once, and
``WSet`` checks each member's length once.  ``posets.wset_direct`` picks
the family's construction.

Each direct construction reaches every member once, so none deduplicates:
``WSet`` rejects a repeated member.  ``wset_oracle`` computes the same sets
by brute force over labeled chains; the test suite certifies that each
direct construction agrees with it.  ``verify`` compares one sweep's
words, ``oracle_words``, with the validated direct members, so an agreeing
W-set is validated once; it builds the oracle's ``WSet`` only on a difference.

>>> pi = Involution.from_cycles(4, [(1, 4), (2, 3)])
>>> [w.as_text(compact=True) for w in wset_involution(pi).members]
['3241', '3412', '4132']
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from .involutions import (
    Clan,
    FpfInvolution,
    Involution,
    rank_clan,
    rank_fpf,
    rank_involution,
)
from .permutations import Permutation, length

if TYPE_CHECKING:
    from .posets import Element, WeakOrderPoset

__all__ = [
    "WSet",
    "check_conditions_involution",
    "wset_involution",
    "wset_fpf",
    "wset_clan",
    "wstar",
    "oracle_words",
    "wset_oracle",
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
            got = length(w)
            if got != self.rank:
                raise ValueError(
                    f"member {w} of {self.element.text()} has length {got},"
                    f" expected the rank {self.rank}"
                )
        # strictly increasing is exactly sorted and duplicate-free
        members = self.members
        if any(u.word >= v.word for u, v in zip(members, members[1:])):
            raise ValueError("members must be duplicate-free and sorted by word")

    def __len__(self) -> int:
        return len(self.members)


def _collect(element: Element, rank: int, words: Iterable[tuple[int, ...]]) -> WSet:
    # tuples sort as the one-line words do; each member is validated once here
    return WSet(element, rank, tuple(map(Permutation, sorted(words))))


# (slot, value) pairs that one step writes
_Choice = tuple[tuple[int, int], ...]


def _search(
    n: int, steps: int, choices: Callable[[int, list[int], list[int]], list[_Choice]]
) -> list[tuple[int, ...]]:
    """Every word completed by ``steps`` placement steps, on an explicit stack.

    ``word[s]`` is 0 while slot s is free and ``pos[v]`` is -1 while the
    value v is unplaced.  ``choices(t, word, pos)`` returns the list of
    choices of step t given steps < t; the stack keeps one (list, cursor)
    pair per placed step, the cursor one past the choice held, so any
    number of steps stays within the recursion limit.
    """
    word = [0] * n
    pos = [-1] * (n + 1)
    words: list[tuple[int, ...]] = []
    stack = [(choices(0, word, pos), 0)]
    while stack:
        options, k = stack[-1]
        if k:
            for s, v in options[k - 1]:
                word[s], pos[v] = 0, -1
        if k == len(options):
            stack.pop()
            continue
        stack[-1] = (options, k + 1)
        for s, v in options[k]:
            word[s], pos[v] = v, s
        if len(stack) == steps:
            words.append(tuple(word))
        else:
            stack.append((choices(len(stack), word, pos), 0))
    return words


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

    Each fixed point c is the one-slot block (c, c), and cycles and fixed
    points are placed together in order of their smaller end:

    - a cycle (a, b) takes two consecutive free slots, b on the left.
      Condition 1 needs no check: only earlier blocks are placed, each
      with its smaller end below a, so a placed value in (a, b) is some
      b0 with a0 < a < b0 < b.  As b0 < b, the rule below puts a0 left
      of b, and b0 was placed left of a0, so never between b and a;
    - a fixed point takes the first free slot, because every later block
      lands to its right.  Slots only fill along a path, so each step
      scans for free slots from the first free slot of the step before;
    - conditions 2-5 are one rule: an earlier block (a0, b0) with b0 < b
      has a0 left of the new block's b.  Only earlier cycles are checked:
      an earlier fixed point took the first free slot, so every later
      block lands right of it.  The earlier cycles are a prefix of the
      cycles, its length counted in the set-up pass, and each node scans
      it for ``last``, the rightmost such a0.  A table of earlier cycles
      per block would be quadratic in memory;
    - a cycle (a, b) leaves at most room(a, b) free slots left of b, the
      number of values inside (a, b) whose block is nested inside it.
      Only those values can fill the slots: every later block has a
      larger smaller end, so one reaching above b puts its larger end
      (or its fixed point) right of a.  The free slots left of b grow
      along the scan, so the scan stops at the first that breaks the
      bound.

    So every completed word is a member, and each member is reached once.
    One pass over the word sets it up, and ``_search`` runs the placement.

    >>> pi = Involution.from_cycles(5, [(1, 3), (2, 5)])
    >>> [w.as_text(compact=True) for w in wset_involution(pi).members]
    ['31452', '31524']
    """
    mate, n = pi.word, pi.n
    # before[t]: how many cycles come before block t, all of them placed;
    # room[t]: the values inside (a, b) whose mates, mate[a : b - 1], are too
    blocks, cycles, before, room = [], [], [], []
    for a, b in enumerate(mate, 1):
        if b >= a:
            blocks.append((a, b))
            before.append(len(cycles))
            room.append(len([v for v in mate[a : b - 1] if a < v < b]))
            if b > a:
                cycles.append((a, b))
    # first[t]: the first free slot when step t - 1 ran, 0 for step 0
    first = [0] * (len(blocks) + 1)

    def place(t: int, word: list[int], pos: list[int]) -> list[_Choice]:
        a, b = blocks[t]
        last = -1
        for a0, b0 in cycles[: before[t]]:
            if b0 < b and pos[a0] > last:
                last = pos[a0]
        if a == b:
            first[t + 1] = lo = word.index(0, first[t])
            return [((lo, a),)] if lo > last else []
        free: list[int] = []
        for s in range(first[t], n):
            if not word[s]:
                free.append(s)
                if len(free) == room[t] + 2:
                    break
        first[t + 1], out = free[0], []
        for pb, pa in zip(free, free[1:]):
            if pb > last:
                out.append(((pb, b), (pa, a)))
        return out

    return _collect(pi, rank_involution(pi), _search(n, len(blocks), place))


def wset_fpf(pi: FpfInvolution) -> WSet:
    """Direct W-set in the fixed-point-free order, by block orderings.

    Members are exactly the concatenations of the two-element blocks
    [a_t, b_t] in which block t stays before block u whenever a_t < a_u
    and b_t < b_u.  Step t writes a block at slots 2t and 2t+1: scanning
    the unplaced blocks in order of a, it may take each block whose b is
    below the running minimum of the b's scanned so far.  So each linear
    extension of that precedence is emitted once.

    >>> pi = FpfInvolution.from_cycles(4, [(1, 4), (2, 3)])
    >>> [w.as_text(compact=True) for w in wset_fpf(pi).members]
    ['1423', '2314']
    """

    n, cycles = pi.n, pi.cycles
    def place(t: int, word: list[int], pos: list[int]) -> list[_Choice]:
        low, out = n + 1, []
        for a, b in cycles:
            if pos[a] < 0 and b < low:
                low = b
                out.append(((2 * t, a), (2 * t + 1, b)))
        return out

    return _collect(pi, rank_fpf(pi), _search(n, len(cycles), place))


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
    and they fill the middle in increasing order.  A step is one scan of A
    in increasing order keeping ``reach``, the largest right end of a strand
    opened so far: strand (v, w) is a choice iff reach < w (at a right end,
    reach >= v > w), and the pair (prev, v) iff reach < v.

    The peeling is injective: distinct choice sequences give distinct words.
    A step fixes the outermost free pair of letters, and the choices at one
    A differ there: strands are distinct with left < right, opposite-sign
    pairs are distinct with left > right, and A with no choice left ends the
    word.  So the words are collected without deduplication.

    >>> c = Clan.from_parts(4, [], {1: 1, 2: -1, 3: 1, 4: 1})
    >>> [w.as_text(compact=True) for w in wset_clan(c).members]
    ['2341', '3142']
    """
    n, last = pi.n, min(pi.p, pi.q)
    # mate[v]: the other end of v's strand, or 0; sign[v]: v's sign if isolated, or 0
    mate = [0] + [v if v > 0 and v != i else 0 for i, v in enumerate(pi.word, 1)]
    sign = [0] + [v // i if v == i or v == -i else 0 for i, v in enumerate(pi.word, 1)]

    def peel(t: int, word: list[int], pos: list[int]) -> list[_Choice]:
        if t == last:
            return [tuple(zip(range(t, n - t), [v for v in range(1, n + 1) if pos[v] < 0]))]
        reach, prev, out = 0, 0, []
        for v in range(1, n + 1):
            if pos[v] >= 0:
                continue
            w = mate[v]
            if w:
                if reach < w:
                    out.append(((t, v), (n - 1 - t, w)))
                    reach = w
            elif sign[prev] == -sign[v] and reach < v:
                out.append(((t, v), (n - 1 - t, prev)))
            prev = v
        return out

    return _collect(pi, rank_clan(pi), _search(n, last + 1, peel))


def _chain_products(P: WeakOrderPoset) -> "list[set[tuple[int, ...]]]":
    """Chain products for every element of P at once, in element order.

    One upward sweep in index order (a topological order, the bottom
    first): the products of an element extend those of each lower neighbor
    by one letter per label.  The letter s_i acts on the left, so it swaps
    the values i and i+1 of the one-line word.
    """
    products: list[set[tuple[int, ...]]] = [set() for _ in P.elements]
    products[0].add(tuple(range(1, P.bottom.n + 1)))
    for j, got in enumerate(products):
        for e in P.up[j]:
            target = products[e.hi]
            for i in e.labels:
                for w in got:
                    u = list(w)
                    u[w.index(i)], u[w.index(i + 1)] = i + 1, i
                    target.add(tuple(u))
    return products


def oracle_words(P: WeakOrderPoset) -> Iterator[list[tuple[int, ...]]]:
    """Every element's chain products as sorted words, in element order, from
    one sweep of P: what ``verify`` compares.  Each is sorted as it is read."""
    return map(sorted, _chain_products(P))


def wset_oracle(P: WeakOrderPoset, x: Element) -> WSet:
    """Brute-force W-set of x: all products over labeled maximal chains.

    Certifies the direct constructions.  Every product comes out at length
    rank(x), which ``WSet`` checks, so no length filtering happens.  Each
    call sweeps the whole of P, so a loop over every element should read
    ``oracle_words(P)`` once instead, as ``verify`` does.
    """
    j = P.index_of(x)
    return _collect(x, P.ranks[j], _chain_products(P)[j])
