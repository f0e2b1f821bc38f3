"""The matching picture of the three families and the cover moves of their orders.

Drawn as a matching, an involution or a clan turns each two-cycle into a
strand {a, b} above the number line and each fixed point into an isolated
vertex, signed for clans.  ``crossings``, ``nestings`` and ``matching_length``
read the strands off ``x.cycles``, which every element reads off its word.
Two strands {a, b} and {c, d} with a < c cross when a < c < b < d and nest
when a < c < d < b.  The rank of the corresponding involution equals the
total strand length minus the number of crossings.

The covers are computed on the elements' one-line words (``x.word``; a
clan's minus-signed fixed point v reads -v) by ``involutions._MOVES``, the
one declaration of each element type's up- and down-moves; this module has
none of its own.

On the matching, each move is a local surgery at the vertices i, i+1, and
``_cover_type`` names it from the lower word: lengthen a strand onto an
adjacent isolated vertex (IA1/IA2), cross two disjoint adjacent strands
(IB), uncross into a nesting (IC1/IC2), or attach a strand on two
isolated vertices (II).  Fixed-point-free covers are of types IB/IC
only; clan covers are the opposite surgeries (shorten, uncross to disjoint,
nest to crossing, detach), as the clan order runs against the involution
order.  The public ``upward_covers_*`` and ``downward_covers_*`` are
named witnesses of the ``_MOVES`` that the ``posets._FAMILY`` rows hold:
``up`` in ``build_poset`` and ``verify``, ``down`` in
``count_chains_below`` and ``build_lower_interval``.  ``upward_covers_*``
build each upper word into the family's element type, which checks it.

Cover types are metadata: poset structure never depends on them, but they
drive edge styling in DOT output and the IC-deletion experiments.
"""

from __future__ import annotations

import itertools
from enum import Enum

from .involutions import _MOVES, Clan, FpfInvolution, Involution, _require

__all__ = [
    "CoverType",
    "crossings",
    "nestings",
    "matching_length",
    "upward_covers_involution",
    "upward_covers_fpf",
    "upward_covers_clan",
    "downward_covers_involution",
    "downward_covers_fpf",
    "downward_covers_clan",
]


class CoverType(Enum):
    IA1 = "IA1"
    IA2 = "IA2"
    IB = "IB"
    IC1 = "IC1"
    IC2 = "IC2"
    II = "II"

    def __str__(self) -> str:
        return self.value


# the members as module globals, cheaper to look up than CoverType.<name>
_IA1, _IA2, _IB, _IC1, _IC2, _II = CoverType
_NOT_FPF = (_II, _IA1, _IA2)  # each moves or attaches on a fixed point


def crossings(x: Involution | Clan) -> int:
    """Pairs of strands (two-cycles) interleaving as a < c < b < d.

    >>> crossings(Involution.from_cycles(4, [(1, 3), (2, 4)]))
    1
    """
    return sum(
        1
        for (a, b), (c, d) in itertools.combinations(x.cycles, 2)
        if a < c < b < d
    )


def nestings(x: Involution | Clan) -> int:
    """Pairs of strands contained one in the other, a < c < d < b."""
    return sum(
        1
        for (a, b), (c, d) in itertools.combinations(x.cycles, 2)
        if a < c < d < b
    )


def matching_length(x: Involution | Clan) -> int:
    """Total strand length minus crossings; equals the weak-order rank.

    >>> matching_length(Involution.from_cycles(4, [(1, 3), (2, 4)]))
    3
    """
    return sum(b - a for a, b in x.cycles) - crossings(x)


def _cover_type(w: tuple[int, ...], i: int) -> CoverType:
    """Classify the move at (i, i+1) from the lower element's one-line word."""
    a, b = w[i - 1], w[i]
    fixed_i, fixed_j = abs(a) == i, abs(b) == i + 1
    if a == i + 1 or (fixed_i and fixed_j):
        return _II
    if fixed_i:
        return _IA2 if b > i + 1 else _IA1
    if fixed_j:
        return _IA1 if a < i else _IA2
    i_left, j_left = a > i, b > i + 1
    if i_left and j_left:
        return _IC1
    if not i_left and not j_left:
        return _IC2
    return _IB


def _cover_types(
    forbidden: tuple[CoverType, ...], w: tuple[int, ...], moves: list[tuple[int, object]]
) -> list[CoverType]:
    """The type of each (label, target) move up from w, in order.  A cover
    of a ``forbidden`` kind is a fault of the step and raises RuntimeError,
    naming the first such label and the involution underlying w; membership
    tests the kinds by identity first, which needs no hashing."""
    kinds = [_cover_type(w, i) for i, _ in moves]
    for bad in forbidden:
        if bad in kinds:
            i, kind = next((i, k) for (i, _), k in zip(moves, kinds) if k in forbidden)
            text = Involution(tuple(map(abs, w))).text()
            raise RuntimeError(f"forbidden cover of {text} along {i} has type {kind}")
    return kinds


def _covers_of(family: str, kind: type, forbid: tuple, x: Involution | Clan) -> list:
    """The up-covers of x, exactly a ``kind``, by its ``_MOVES``, as (label, upper, type)."""
    _require(f"family {family!r}", kind, x, exact=True)
    w = x.word
    moves = _MOVES[kind][0](w)
    kinds = _cover_types(forbid, w, moves)
    return [(i, kind(v), t) for (i, v), t in zip(moves, kinds)]


def upward_covers_involution(x: Involution) -> list[tuple[int, Involution, CoverType]]:
    """All covers of x in the weak order on involutions, as (label, upper, type).

    Named witness of ``_FAMILY["involution"].up``, checked by
    ``test_covers_are_the_reference_moves``; several labels may reach one upper involution.
    """
    return _covers_of("involution", Involution, (), x)


def upward_covers_fpf(x: FpfInvolution) -> list[tuple[int, FpfInvolution, CoverType]]:
    """Covers in the fixed-point-free order; only types IB, IC1, IC2 occur.
    Named witness of ``_FAMILY["fpf"].up``, checked by ``test_covers_are_the_reference_moves``."""
    return _covers_of("fpf", FpfInvolution, _NOT_FPF, x)


def upward_covers_clan(x: Clan) -> list[tuple[int, Clan, CoverType]]:
    """All covers of x in the clan order, as (label, upper, type).

    Named witness of ``_FAMILY["clan"].up``, checked by ``test_covers_are_the_reference_moves``.
    Every move shortens the underlying involution by one rank step, so the
    clan rank p*q - rank rises by exactly 1.  A type II move on the strand
    {i, i+1} yields two covers under the same label, one per sign order.
    """
    return _covers_of("clan", Clan, (), x)


def downward_covers_involution(w: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
    """Inverse of ``upward_covers_involution``: detach the strand {i, i+1},
    or conjugate by s_i at a descent.  Named witness of
    ``_FAMILY["involution"].down``, checked by ``test_down_covers_invert_up_covers``.

    >>> downward_covers_involution((4, 3, 2, 1))
    [(1, (3, 4, 1, 2)), (2, (4, 2, 3, 1)), (3, (3, 4, 1, 2))]
    """
    return _MOVES[Involution][1](w)


def downward_covers_fpf(w: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
    """Inverse of ``upward_covers_fpf``: conjugate by s_i at a descent that
    is not the strand {i, i+1}.  Named witness of ``_FAMILY["fpf"].down``,
    checked by ``test_down_covers_invert_up_covers``."""
    return _MOVES[FpfInvolution][1](w)


def downward_covers_clan(w: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
    """Inverse of ``upward_covers_clan`` on signed words: attach the strand
    {i, i+1} on fixed points of opposite signs (inverse of type II), or
    conjugate by s_i where the underlying involution ascends at i, a fixed
    point's sign riding along, the underlying involution rising one rank.
    Named witness of ``_FAMILY["clan"].down``, checked by
    ``test_down_covers_invert_up_covers``.

    >>> downward_covers_clan((1, -2, 4, 3))
    [(1, (2, 1, 4, 3)), (2, (1, 4, -3, 2))]
    """
    return _MOVES[Clan][1](w)
