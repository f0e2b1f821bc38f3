"""Weak order posets as explicit labeled Hasse diagrams.

One breadth-first closure on one-line words, ``permutations._closure``,
builds every poset: from the bottom's word under the family's up-covers, or
from x's word under the down-covers for [bottom, x] alone (both read from
``involutions._MOVES``).  Each word becomes an element, checked once, with
its text, kept on the poset for the exports, and each cover label is
classified by ``matchings._cover_types``, once the closure is done.
Elements are sorted by (rank, text), so indices are stable and
rank-monotone: every edge points from a lower index to a strictly higher
one, and dynamic programs can sweep the element list in order.  The
chain walkers sweep ``lower_interval``, the one restriction to [bottom, x].
Two walks by ``permutations._sweep`` build no poset: ``count_chains_below``
carries path counts down from x's word, and ``_verify_job``, the CLI's
``verify``, chain products up from the bottom's.

What differs between the three families sits in one private table,
``_FAMILY``, keyed by the names in ``FAMILIES``; no other code branches on a
family name.  Its columns: element type, cover moves, rank, direct W-set
construction, count, size parameters, bottom element, the parameter's value
names and text, fixed points in element text, forbidden cover kinds, and
the size cap of a bare ``verify``.

Edges are merged per element pair: an edge carries the sorted tuple of all
labels i realizing the cover, with the per-label cover types kept parallel,
and ``edges`` is sorted by (lo, hi).
A maximal chain resolves every step to a single label, so a multi-label edge
widens the set of chains without widening the Hasse diagram.

Ranks are the closure's breadth-first depth (below x: rank(x) minus it),
which ``verify_graded`` checks against the closed form, for the tests.

>>> P = build_poset("involution", 4)
>>> len(P.elements), len(P.edges)
(10, 14)
>>> count_maximal_chains(P, P.elements[-1])
8
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple, Union

from . import wsets
from .involutions import (
    _MOVES,
    Clan,
    FpfInvolution,
    Involution,
    _require,
    bottom_clan,
    bottom_fpf,
    bottom_involution,
    clan_count,
    fpf_count,
    involution_count,
    rank_clan,
    rank_fpf,
    rank_involution,
)
from .matchings import _NOT_FPF, CoverType, _cover_types
from .permutations import Closure, Moves, Word, _add, _closure, _sweep, _word_text
from .permutations import count_reduced_words
from .wsets import WSet, wset_clan, wset_fpf, wset_involution

__all__ = [
    "Element",
    "Edge",
    "LabeledChain",
    "WeakOrderPoset",
    "GradedReport",
    "FAMILIES",
    "bottom_element",
    "build_poset",
    "build_lower_interval",
    "count_chains_below",
    "lower_interval",
    "maximal_chains",
    "count_maximal_chains",
    "verify_graded",
    "drop_cover_types",
    "wset_direct",
    "chain_count_identity",
]

Element = Union[Involution, FpfInvolution, Clan]


@dataclass(frozen=True)
class _Family:
    """What the rest of the package needs to know about one weak order."""

    element: type
    up: Callable[[Word], Moves]
    down: Callable[[Word], Moves]
    rank: Callable[[Element], int]
    wset: Callable[[Element], WSet]
    count: Callable[[int | tuple[int, int]], int]
    param_of: Callable[[Element], int | tuple[int, int]]
    params: Callable[[int], list[int | tuple[int, int]]]  # the parameters on n vertices
    bottom: Callable[..., Element]  # called with the parameter's values by keyword
    flags: tuple[str, ...]  # the value names: CLI flags, JSON keys, keywords, fields
    text: str  # the parameter's text, a format with one field per value
    fixed: str  # fixed points in element text: "implicit" (n given, "id" ok), "absent", "signed"
    forbidden: tuple[CoverType, ...]  # cover kinds the family has none of
    cap: int  # the size cap of a bare ``verify``: n, or p+q


# lambdas look each wset_* up in this module per call, so wrappers set there apply
_FAMILY = {
    "involution": _Family(
        Involution, *_MOVES[Involution], rank_involution,
        lambda x: wset_involution(x), involution_count, lambda x: x.n, lambda n: [n],
        bottom_involution, ("n",), "involution n={n}", "implicit", (), 6,
    ),
    "fpf": _Family(
        FpfInvolution, *_MOVES[FpfInvolution], rank_fpf,
        lambda x: wset_fpf(x), fpf_count, lambda x: x.n, lambda n: [n] if n % 2 == 0 else [],
        bottom_fpf, ("n",), "fpf n={n}", "absent", _NOT_FPF, 8,
    ),
    "clan": _Family(
        Clan, *_MOVES[Clan], rank_clan,
        lambda x: wset_clan(x), lambda pq: clan_count(*pq), lambda x: (x.p, x.q),
        lambda n: [(p, n - p) for p in range(1, n)],
        bottom_clan, ("p", "q"), "clan (p,q)=({p},{q})", "signed", (), 6,
    ),
}

FAMILIES = tuple(_FAMILY)


def _family(name: str) -> _Family:
    try:
        return _FAMILY[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}; expected one of {FAMILIES}") from None


def _family_of(name: str, x: Element) -> _Family:
    """The named family, after checking that x is exactly its element type."""
    fam = _family(name)
    _require(f"family {name!r}", fam.element, x, exact=True)
    return fam


def _named(name: str, param: object) -> dict[str, int]:
    """``param`` as its family's ``flags``, each to its value; ValueError unless it fits."""
    flags = _family(name).flags
    values = tuple(param) if len(flags) > 1 and isinstance(param, (tuple, list)) else (param,)
    if len(values) == len(flags) and all(isinstance(v, int) for v in values):
        return dict(zip(flags, values))
    shape = flags[0] if len(flags) == 1 else f"pair ({', '.join(flags)})"
    raise ValueError(f"family {name!r} takes an integer {shape}, got {param!r}")


def bottom_element(family: str, param: "int | tuple[int, int]") -> Element:
    """The unique rank-0 element of the named family at ``param``: n, or (p, q)."""
    return _family(family).bottom(**_named(family, param))


class Edge(NamedTuple):
    """A Hasse cover lo -> hi with every label realizing it, types parallel.

    A tuple: it unpacks as (lo, hi, labels, types) and equals that 4-tuple.
    """

    lo: int
    hi: int
    labels: tuple[int, ...]
    types: tuple[CoverType, ...]


@dataclass(frozen=True)
class LabeledChain:
    """A label-resolved saturated chain x_0 < x_1 < ... < x_l from the bottom.

    ``elements`` has one more entry than ``labels``; labels[t] is the letter
    of the step elements[t] -> elements[t+1].
    """

    elements: tuple[Element, ...]
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.elements) != len(self.labels) + 1:
            raise ValueError(
                f"{len(self.elements)} elements need {len(self.elements) - 1} "
                f"labels, got {len(self.labels)}"
            )

    def __len__(self) -> int:
        return len(self.labels)


class WeakOrderPoset:
    """Immutable labeled Hasse diagram of one weak order, or a piece of one.

    ``elements`` is sorted by (rank, text), so the bottom is element 0;
    ``texts[j]`` is ``elements[j].text()``, computed once by whoever builds
    the poset (here if not given) and read by the exports; ``up[j]`` and
    ``down[j]`` hold the ``Edge``s leaving and entering element j, in the
    order of ``edges``.  The element index and the adjacency are built on
    first read, so an export, which reads neither, builds neither.
    ``complete`` records whether this is a full family poset, so that global
    checks such as the closed-form element count apply, or a derived piece
    (a lower interval or an edge-filtered copy).
    """

    def __init__(
        self,
        family: str,
        param: "int | tuple[int, int]",
        elements: tuple[Element, ...],
        ranks: tuple[int, ...],
        edges: tuple[Edge, ...],
        complete: bool,
        texts: "tuple[str, ...] | None" = None,
    ) -> None:
        _family(family)
        self.family = family
        self.param = param
        self.elements = elements
        self.ranks = ranks
        self.edges = edges
        self.complete = complete
        self.texts = tuple([e.text() for e in elements]) if texts is None else texts

    @cached_property
    def _index(self) -> dict[Element, int]:
        return {e: j for j, e in enumerate(self.elements)}

    @cached_property
    def _adjacency(self) -> "tuple[tuple[tuple[Edge, ...], ...], tuple[tuple[Edge, ...], ...]]":
        """``up`` and ``down``, filled in one pass over the edges."""
        up: list[list[Edge]] = [[] for _ in self.elements]
        down: list[list[Edge]] = [[] for _ in self.elements]
        for e in self.edges:
            up[e.lo].append(e)
            down[e.hi].append(e)
        return tuple(map(tuple, up)), tuple(map(tuple, down))

    @property
    def up(self) -> tuple[tuple[Edge, ...], ...]:
        return self._adjacency[0]

    @property
    def down(self) -> tuple[tuple[Edge, ...], ...]:
        return self._adjacency[1]

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, x: object) -> bool:
        return x in self._index

    def index_of(self, x: Element) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise ValueError(f"element {x} is not in this poset") from None

    def rank_of(self, x: Element) -> int:
        return self.ranks[self.index_of(x)]

    @property
    def bottom(self) -> Element:
        return self.elements[0]

    def maximal_elements(self) -> tuple[Element, ...]:
        return tuple(e for j, e in enumerate(self.elements) if not self.up[j])


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Cyclic GC off inside, then as before; a build's objects outlive it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def build_poset(family: str, param: "int | tuple[int, int]") -> WeakOrderPoset:
    """Breadth-first closure of the bottom element's word under up-covers.

    Cyclic garbage collection is paused while it runs, restored even on error.

    >>> build_poset("fpf", 6).maximal_elements()[0].text()
    '(1,6)(2,5)(3,4)'
    >>> len(build_poset("clan", (2, 2)).maximal_elements())
    6
    """
    bottom = bottom_element(family, param).word
    up = _family(family).up
    with _gc_paused():
        return _assemble(family, param, *_closure(bottom, up), upward=True)


def _assemble(
    family: str,
    param: int | tuple[int, int],
    words: list[Word],
    depths: list[int],
    steps: list[list[tuple[int, int]]],
    upward: bool,
) -> WeakOrderPoset:
    """The poset on the ``_closure`` ``words`` with one cover per (label,
    position) move of ``steps``, up from the word if ``upward``, else down
    to the moved-to word.  Rank is depth, counted down from the last word
    if not ``upward``; an upward closure, from the bottom, is a complete
    poset.

    Each fact is derived once: each word becomes an element, checked, and
    its ``text()``, kept as the poset's ``texts``; the elements are sorted by
    (rank, text) in two stable sorts on plain keys.  The moves are then
    taken per lower element in that order, each label classified by one
    ``_cover_types`` call per element, and the labels to one upper element
    merged into one ``Edge``, so the edges come out sorted by (lo, hi) with
    no global sort.  The labels of an edge all come from one word's moves,
    which the move loops list by ascending label, so they need no sort
    either.  Callers pass the closure inline, so that it is freed here,
    before ``_gc_paused`` restores the collector."""
    fam = _FAMILY[family]
    elements = list(map(fam.element, words))
    texts = [x.text() for x in elements]
    ranks = depths if upward else [depths[-1] - d for d in depths]
    order = sorted(range(len(words)), key=texts.__getitem__)
    order.sort(key=ranks.__getitem__)
    place = [0] * len(order)
    for j, k in enumerate(order):
        place[k] = j
    if not upward:  # each word's moves up, labels ascending per upper word
        ups: list[list[tuple[int, int]]] = [[] for _ in words]
        for k, got in enumerate(steps):
            for i, j in got:
                ups[j].append((i, k))
        steps = ups
    edges = []
    make = tuple.__new__  # as Edge._make does, without its Python frame
    for lo, k in enumerate(order):
        got = steps[k]
        kinds = _cover_types(fam.forbidden, words[k], got)
        merged: dict[int, tuple[tuple[int, ...], tuple[CoverType, ...]]] = {}
        for (i, j), t in zip(got, kinds):
            hi = place[j]
            if hi in merged:
                labels, types = merged[hi]
                merged[hi] = (labels + (i,), types + (t,))
            else:
                merged[hi] = ((i,), (t,))
        for hi in sorted(merged):
            labels, types = merged[hi]
            edges.append(make(Edge, (lo, hi, labels, types)))
    return WeakOrderPoset(
        family,
        param,
        tuple([elements[k] for k in order]),
        tuple([ranks[k] for k in order]),
        tuple(edges),
        complete=upward,
        texts=tuple([texts[k] for k in order]),
    )


def lower_interval(P: WeakOrderPoset, x: Element) -> WeakOrderPoset:
    """Induced subposet on everything below or equal to x; labels kept.

    The one restriction of a built poset to [bottom, x].  Its last element
    is x, as edges point up in index; its first is P's bottom unless x is
    not above it, as in an edge-filtered copy."""
    target, up, down = P.index_of(x), P.up, P.down
    keep = {target}
    stack = [target]
    while stack:
        for e in down[stack.pop()]:
            if e.lo not in keep:
                keep.add(e.lo)
                stack.append(e.lo)
    order = sorted(keep)
    remap = {old: new for new, old in enumerate(order)}
    make = tuple.__new__  # an Edge without its Python frame, as in _assemble
    edges = tuple([
        make(Edge, (remap[j], remap[e.hi], e.labels, e.types))
        for j in order for e in up[j] if e.hi in remap
    ])
    return WeakOrderPoset(
        P.family, P.param, tuple([P.elements[j] for j in order]),
        tuple([P.ranks[j] for j in order]), edges, complete=False,
        texts=tuple([P.texts[j] for j in order]),
    )


def _only_bottom(family: str, param: int | tuple[int, int], ends: Iterable[Word]) -> Word:
    """The family bottom's word, after checking that each of ``ends``, the
    words below some x that have no down-cover, nearest x first (rank by
    rank), is that bottom.  Raises RuntimeError at the first that is not."""
    bottom = bottom_element(family, param).word
    for w in ends:
        if w != bottom:
            raise RuntimeError(
                f"{_FAMILY[family].element(w).text()} has no down-cover "
                f"but is not the {family} bottom"
            )
    return bottom


def _down_closure(family: str, x: Element) -> Closure:
    """``_closure`` of x's one-line word under down-covers.

    Gives every word of [bottom, x], in breadth-first order from x, its
    depth below x and its down-covers as (label, position of the lower
    word); the orders are graded, so every word comes before its
    down-covers and the reversed order runs bottom first.  Raises
    RuntimeError if a word other than the family bottom has no down-cover.
    """
    fam = _family_of(family, x)
    words, depths, steps = _closure(x.word, fam.down)
    _only_bottom(family, fam.param_of(x), (w for w, got in zip(words, steps) if not got))
    return words, depths, steps


def count_chains_below(family: str, x: Element) -> int:
    """Chain count of [bottom, x], exploring only that interval.

    Equals ``count_maximal_chains(build_poset(family, ...), x)``: the paths
    from x's word down to the bottom's, each (label, lower word) down-cover
    one step, counted by ``_sweep``, which holds two ranks of the interval
    at once; the count of each word with no down-cover is read off it.
    Raises RuntimeError if a word other than the family bottom has none.

    >>> count_chains_below("involution", Involution.from_cycles(4, [(1, 4), (2, 3)]))
    8
    """
    fam = _family_of(family, x)
    ends = {w: c for w, _, c, out in _sweep(x.word, fam.down, 1, _add) if not out}
    return ends[_only_bottom(family, fam.param_of(x), ends)]


def build_lower_interval(family: str, x: Element) -> WeakOrderPoset:
    """The interval [bottom, x] built by downward closure from x.

    Equal to ``lower_interval(build_poset(family, ...), x)``, elements,
    ranks and edges alike, without building the rest of the family poset.

    >>> x = FpfInvolution.from_cycles(6, [(1, 3), (2, 4), (5, 6)])
    >>> [e.text() for e in build_lower_interval("fpf", x).elements]
    ['(1,2)(3,4)(5,6)', '(1,3)(2,4)(5,6)']
    """
    param = _family_of(family, x).param_of(x)
    with _gc_paused():
        return _assemble(family, param, *_down_closure(family, x), upward=False)


def _chain_walk(P: WeakOrderPoset) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """The labels of every maximal chain of the interval P up to its last
    element, depth first in a fixed order, each with the element indices it
    passes below the last, bottom first.

    The index list is the walk's own, changed by the next step: copy it to
    keep it.  One iterator of (upper index, label) moves per element on the
    path, ``P.up`` read in edge order, which is sorted, with no object per
    chain but its label tuple.
    """
    target = len(P) - 1
    if target == 0:
        yield (), []
        return
    moves = [[(e.hi, lab) for e in up for lab in e.labels] for up in P.up]
    labels: list[int] = []
    path = [0]
    stack = [iter(moves[0])]
    while stack:
        for hi, lab in stack[-1]:
            if hi == target:
                yield (*labels, lab), path
            else:
                labels.append(lab)
                path.append(hi)
                stack.append(iter(moves[hi]))
                break
        else:
            stack.pop()
            path.pop()
            del labels[-1:]  # the bottom's frame took no label


def maximal_chains(P: WeakOrderPoset, x: Element) -> Iterator[LabeledChain]:
    """All label-resolved maximal chains of [bottom, x], lazily, in a fixed order.

    Depth-first over ``lower_interval(P, x)``; an edge with several labels
    yields one chain per label.  By gradedness every chain has rank(x) steps.

    >>> P = build_poset("involution", 3)
    >>> top = P.elements[-1]
    >>> [c.labels for c in maximal_chains(P, top)]
    [(1, 2), (2, 1)]
    """
    Q = lower_interval(P, x)
    if Q.bottom == P.bottom:
        for labels, path in _chain_walk(Q):
            yield LabeledChain(tuple([Q.elements[j] for j in path]) + (x,), labels)


def count_maximal_chains(P: WeakOrderPoset, x: Element) -> int:
    """Chain count of [bottom, x] by dynamic programming over the DAG.

    Agrees with exhausting ``maximal_chains`` but never materializes chains;
    counts grow factorially with rank.  Sweeps ``lower_interval(P, x)`` in
    index order, a topological order: ranks only increase.
    """
    Q = lower_interval(P, x)
    if Q.bottom != P.bottom:
        return 0
    counts = [1] + [0] * (len(Q) - 1)
    for c, up in zip(counts, Q.up):
        for e in up:
            counts[e.hi] += c * len(e.labels)
    return counts[-1]


@dataclass(frozen=True)
class GradedReport:
    """Findings of verify_graded; empty violations means all checks passed."""

    family: str
    param: "int | tuple[int, int]"
    n_elements: int
    n_edges: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


# the failure texts that ``verify_graded`` and ``_verify_job`` share
_RANK = "rank of {}: stored {}, formula gives {}".format
_COUNT = "{} elements, closed form gives {}".format


def verify_graded(P: WeakOrderPoset) -> GradedReport:
    """Check gradedness and rank bookkeeping; reports findings, never raises.

    Verifies that the stored breadth-first depth equals the closed-form rank
    of every element, that every edge raises rank by exactly 1, that the
    bottom is the unique minimum at rank 0, and, for complete posets, that
    the element count matches the closed-form family count.  The tests call
    it on built and corrupted posets; ``_verify_job`` makes the rank and
    count checks with no poset built.
    """
    rank = _family(P.family).rank
    bad = [_RANK(e.text(), r, want) for e, r in zip(P.elements, P.ranks) if r != (want := rank(e))]
    for e in P.edges:
        if P.ranks[e.hi] != P.ranks[e.lo] + 1:
            bad.append(
                f"edge {P.elements[e.lo].text()} -> {P.elements[e.hi].text()} "
                f"jumps rank {P.ranks[e.lo]} -> {P.ranks[e.hi]}"
            )
    minima = [j for j, below in enumerate(P.down) if not below]
    if len(minima) != 1:
        bad.append(f"{len(minima)} minimal elements, expected a unique bottom")
    elif (r := P.ranks[minima[0]]) != 0:
        bad.append(f"bottom {P.elements[minima[0]].text()} has rank {r}, expected 0")
    if P.complete and len(P.elements) != (want := _family(P.family).count(P.param)):
        bad.append(_COUNT(len(P.elements), want))
    return GradedReport(P.family, P.param, len(P.elements), len(P.edges), tuple(bad))


def _only(mine: tuple, theirs: tuple, side: str) -> str:
    """How many W-set words only this side has, and up to five of them."""
    only = sorted(set(mine) - set(theirs))
    shown = " ".join(map(_word_text, only[:5])) + (" ..." if len(only) > 5 else "")
    return f"{len(only)} only {side}" + (f" ({shown})" if only else "")


def _verify_job(family: str, param: int | tuple[int, int]) -> tuple[int, int, int, list[str]]:
    """The CLI's ``verify`` of one family poset, building none: (elements,
    edges, W-sets that agree, failure texts: ranks, the count, then W-sets,
    each in (rank, text) order).

    Walks ``wsets._chain_products`` from the bottom's word under the family's
    up-moves, each checked for a forbidden cover kind (RuntimeError), with
    cyclic GC paused; checks each word's depth against its closed-form rank,
    its direct W-set against its chain products, and the closed-form count.
    The walk gives a unique bottom and unit rank steps.  Agreeing products
    pass every check of ``WSet``, so the oracle's is built only on a difference.
    """
    fam = _FAMILY[family]
    bottom = bottom_element(family, param).word

    def moves(w: Word) -> Moves:
        got = fam.up(w)
        if fam.forbidden:
            _cover_types(fam.forbidden, w, got)
        return got

    elements = edges = agree = 0
    ranks, mismatches, count = [], [], fam.count(param)
    with _gc_paused():
        for w, depth, products, got in wsets._chain_products(bottom, moves, len(bottom)):
            if elements > count:  # a move down would re-enter words forever
                break
            direct = fam.wset(x := fam.element(w))
            elements += 1
            edges += len({v for _, v in got})
            if direct.rank != depth:
                ranks.append((depth, x, direct.rank))
            if products == set(direct.words):
                agree += 1
            else:
                mismatches.append((depth, x, direct, products))
    by_rank = lambda f: (f[0], f[1].text())
    bad = [_RANK(x.text(), depth, want) for depth, x, want in sorted(ranks, key=by_rank)]
    if elements != count:
        bad.append(_COUNT(elements, count))
    for depth, x, direct, products in sorted(mismatches, key=by_rank):
        oracle = wsets._collect(x, depth, products).words
        bad.append(
            f"W-set mismatch at {x.text()}: {_only(direct.words, oracle, 'direct')}, "
            f"{_only(oracle, direct.words, 'oracle')}"
        )
    return elements, edges, agree, bad


def drop_cover_types(P: WeakOrderPoset, kinds: Iterable[CoverType]) -> WeakOrderPoset:
    """Copy of P with every cover label of the given types removed.

    Edges left with no labels disappear; elements are all kept, so the result
    may be disconnected.  Used to test which cover types already generate the
    order on their own.
    """
    drop = frozenset(kinds)
    edges = []
    for lo, hi, labels, types in P.edges:
        kept = [(lab, t) for lab, t in zip(labels, types) if t not in drop]
        if kept:
            edges.append(Edge(lo, hi, tuple(l for l, _ in kept), tuple(t for _, t in kept)))
    return WeakOrderPoset(
        P.family, P.param, P.elements, P.ranks, tuple(edges), complete=False, texts=P.texts
    )


def wset_direct(family: str, x: Element) -> WSet:
    """The family's direct (poset-free) W-set construction, applied to x.

    The element type must match the family exactly: the same two-cycles get
    different W-sets in different families, so a silent cross-family call
    would return a wrong answer rather than fail.
    """
    return _family_of(family, x).wset(x)


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
