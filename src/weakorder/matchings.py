"""Partial matchings on {1, ..., n} and the local cover moves.

A matching is the diagram of an involution: each two-cycle becomes a strand
{a, b} drawn above the number line, each fixed point an isolated vertex.
Two strands {a, b} and {c, d} with a < c cross when a < c < b < d and nest
when a < c < d < b.  The rank of the corresponding involution equals the
total strand length minus the number of crossings.

Upward covers in the three weak orders are local surgeries at two adjacent
vertices i, i+1:

- involutions: lengthen a strand onto an adjacent isolated vertex (IA1/IA2),
  cross two disjoint adjacent strands (IB), uncross into a nesting (IC1/IC2),
  or attach a new strand on two isolated vertices (II);
- fixed-point-free involutions: only IB/IC apply;
- clans: the opposite surgeries (shorten, uncross to disjoint, nest to
  crossing), and type II detaches a strand {i, i+1} into a (+,-) or (-,+)
  signed pair, two covers under the same label.

Cover types are metadata: poset structure never depends on them, but they
drive edge styling in DOT output and the IC-deletion experiments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

from .involutions import (
    Clan,
    FpfInvolution,
    Involution,
    _conjugate,
    _step_down_map,
    one_line_word,
    rs_step_fpf,
    rs_step_involution,
)

__all__ = [
    "CoverType",
    "Matching",
    "SignedMatching",
    "matching_of",
    "involution_of",
    "fpf_of",
    "signed_matching_of",
    "clan_of",
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


@dataclass(frozen=True)
class Matching:
    """Strands sorted as (a, b) with a < b, by a; isolated vertices sorted."""

    n: int
    strands: tuple[tuple[int, int], ...]
    isolated: tuple[int, ...]

    def __post_init__(self) -> None:
        Involution(self.n, self.strands, self.isolated)

    def partner(self, i: int) -> int | None:
        for a, b in self.strands:
            if i == a:
                return b
            if i == b:
                return a
        return None


@dataclass(frozen=True)
class SignedMatching:
    """A matching whose isolated vertices carry +1/-1 signs."""

    n: int
    strands: tuple[tuple[int, int], ...]
    signed_isolated: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        Clan(self.n, self.strands, self.signed_isolated)


def matching_of(pi: Involution) -> Matching:
    return Matching(pi.n, pi.cycles, pi.fixed_points)


def involution_of(m: Matching) -> Involution:
    return Involution(m.n, m.strands, m.isolated)


def fpf_of(m: Matching) -> FpfInvolution:
    return FpfInvolution(m.n, m.strands, m.isolated)


def signed_matching_of(pi: Clan) -> SignedMatching:
    return SignedMatching(pi.n, pi.cycles, pi.signed_fixed_points)


def clan_of(m: SignedMatching) -> Clan:
    return Clan(m.n, m.strands, m.signed_isolated)


def crossings(m: Matching | SignedMatching) -> int:
    """Pairs of strands interleaving as a < c < b < d.

    >>> crossings(Matching(4, ((1, 3), (2, 4)), ()))
    1
    """
    return sum(
        1
        for (a, b), (c, d) in itertools.combinations(m.strands, 2)
        if a < c < b < d
    )


def nestings(m: Matching | SignedMatching) -> int:
    """Pairs of strands contained one in the other, a < c < d < b."""
    return sum(
        1
        for (a, b), (c, d) in itertools.combinations(m.strands, 2)
        if a < c < d < b
    )


def matching_length(m: Matching) -> int:
    """Total strand length minus crossings; equals the weak-order rank.

    >>> matching_length(Matching(4, ((1, 3), (2, 4)), ()))
    3
    """
    return sum(b - a for a, b in m.strands) - crossings(m)


def _cover_type(w: tuple[int, ...], i: int) -> CoverType:
    """Classify the move at (i, i+1) from the lower element's one-line word."""
    a, b = w[i - 1], w[i]
    fixed_i, fixed_j = abs(a) == i, abs(b) == i + 1
    if a == i + 1 or (fixed_i and fixed_j):
        return CoverType.II
    if fixed_i:
        return CoverType.IA2 if b > i + 1 else CoverType.IA1
    if fixed_j:
        return CoverType.IA1 if a < i else CoverType.IA2
    i_left, j_left = a > i, b > i + 1
    if i_left and j_left:
        return CoverType.IC1
    if not i_left and not j_left:
        return CoverType.IC2
    return CoverType.IB


def upward_covers_involution(m: Matching) -> list[tuple[int, Matching, CoverType]]:
    """All covers of m in the weak order on involutions, as (label, upper, type).

    Generated through the monoid step; several labels may reach the same
    upper matching (the caller merges those into one Hasse edge).
    """
    pi = involution_of(m)
    w = one_line_word(pi)
    out = []
    for i in range(1, m.n):
        tau = rs_step_involution(i, pi)
        if tau != pi:
            out.append((i, matching_of(tau), _cover_type(w, i)))
    return out


def upward_covers_fpf(m: Matching) -> list[tuple[int, Matching, CoverType]]:
    """Covers in the fixed-point-free order; only types IB, IC1, IC2 occur."""
    pi = fpf_of(m)
    w = one_line_word(pi)
    out = []
    for i in range(1, m.n):
        tau = rs_step_fpf(i, pi)
        if tau != pi:
            kind = _cover_type(w, i)
            if kind not in (CoverType.IB, CoverType.IC1, CoverType.IC2):
                raise RuntimeError(
                    f"fixed-point-free cover of {pi.text()} along {i} has type {kind}"
                )
            out.append((i, matching_of(tau.as_involution()), kind))
    return out


def upward_covers_clan(m: SignedMatching) -> list[tuple[int, SignedMatching, CoverType]]:
    """All covers of m in the clan order, as (label, upper, type).

    Every move shortens the underlying involution by one rank step, so the
    clan rank p*q - rank rises by exactly 1.  A type II move on the strand
    {i, i+1} yields two covers under the same label, one per sign order.
    """
    n = m.n
    ends: dict[int, tuple[int, int]] = {}
    for a, b in m.strands:
        ends[a] = (a, b)
        ends[b] = (a, b)
    signs = dict(m.signed_isolated)
    out: list[tuple[int, SignedMatching, CoverType]] = []

    def build(strands: list[tuple[int, int]], signed: list[tuple[int, int]]) -> SignedMatching:
        st = tuple(sorted(tuple(sorted(ab)) for ab in strands))
        return SignedMatching(n, st, tuple(sorted(signed)))

    for i in range(1, n):
        j = i + 1
        si, sj = ends.get(i), ends.get(j)
        others = [ab for ab in m.strands if ab not in (si, sj)]
        rest = [(v, s) for v, s in m.signed_isolated if v not in (i, j)]
        if si is not None and si == sj:
            # detach {i, i+1} into two signed vertices, both sign orders
            for lo in (1, -1):
                out.append((i, build(others, rest + [(i, lo), (j, -lo)]), CoverType.II))
        elif si is None and sj is not None and sj[1] == j and sj[0] < i:
            # strand {a, i+1} with the sign at i; shorten to {a, i}
            out.append(
                (i, build(others + [(sj[0], i)], rest + [(j, signs[i])]), CoverType.IA1)
            )
        elif sj is None and si is not None and si[0] == i and si[1] > j:
            # strand {i, b} with the sign at i+1; shorten to {i+1, b}
            out.append(
                (i, build(others + [(j, si[1])], rest + [(i, signs[j])]), CoverType.IA2)
            )
        elif si is not None and sj is not None and si != sj:
            a1, b1 = si
            a2, b2 = sj
            if a1 == i and b2 == j and a2 < i:
                # crossing {a2, i+1}, {i, b1}: uncross to disjoint {a2, i}, {i+1, b1}
                out.append((i, build(others + [(a2, i), (j, b1)], rest), CoverType.IB))
            elif a1 == i and a2 == j and b2 < b1:
                # nested {i, b1} over {i+1, b2}: cross to {i, b2}, {i+1, b1}
                out.append((i, build(others + [(i, b2), (j, b1)], rest), CoverType.IC1))
            elif b1 == i and b2 == j and a2 < a1:
                # nested {a2, i+1} over {a1, i}: cross to {a2, i}, {a1, i+1}
                out.append((i, build(others + [(a2, i), (a1, j)], rest), CoverType.IC2))
    return out


# The down-covers act on one-line words (see ``one_line_word``) and return
# (label, lower word) pairs, at most one per label.


def downward_covers_involution(w: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
    """Inverse of ``upward_covers_involution``: detach the strand {i, i+1},
    or conjugate by s_i at a descent.

    >>> downward_covers_involution((4, 3, 2, 1))
    [(1, (3, 4, 1, 2)), (2, (4, 2, 3, 1)), (3, (3, 4, 1, 2))]
    """
    steps = ((i, _step_down_map(i, w, True)) for i in range(1, len(w)))
    return [(i, v) for i, v in steps if v is not w]


def downward_covers_fpf(w: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
    """Inverse of ``upward_covers_fpf``: conjugate by s_i at a descent that
    is not the strand {i, i+1}."""
    steps = ((i, _step_down_map(i, w, False)) for i in range(1, len(w)))
    return [(i, v) for i, v in steps if v is not w]


def downward_covers_clan(w: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
    """Inverse of ``upward_covers_clan`` on signed words.

    Where i and i+1 are fixed with opposite signs, attach the strand
    {i, i+1} (inverse of type II).  Where the underlying involution ascends
    at i, conjugate by s_i, moving a fixed point's sign with it: this undoes
    the shortening of IA1/IA2, the uncrossing of IB and the crossing of
    IC1/IC2, the underlying involution rising one rank step in each.

    >>> downward_covers_clan((1, -2, 4, 3))
    [(1, (2, 1, 4, 3)), (2, (1, 4, -3, 2))]
    """
    out = []
    for i in range(1, len(w)):
        a, b = w[i - 1], w[i]
        if abs(a) == i and abs(b) == i + 1:
            if a * b < 0:
                lower = list(w)
                lower[i - 1], lower[i] = i + 1, i
                out.append((i, tuple(lower)))
        elif abs(a) < abs(b):
            out.append((i, _conjugate(i, w)))
    return out


if __name__ == "__main__":
    import doctest

    doctest.testmod()
