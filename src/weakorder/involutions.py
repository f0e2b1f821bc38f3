"""Involutions, fixed-point-free involutions, and clans.

An element is its one-line word ``word``, entry i the image of i, checked
in one pass when it is built.  A clan is an involution whose fixed points
carry signs, and its word reads -v at a minus-signed fixed point v; the
signature is p = #{+} + #cycles, q = #{-} + #cycles.  The standard form
(``cycles``, ``fixed_points``, ``signed_fixed_points``) and ``text()`` are
read off the word, and ``from_cycles`` / ``from_parts`` build it.

All three weak orders come from one monoid action on involutions, and their
covers are two loops on the word: ``_lengthen`` raises the underlying
involution one rank step, ``_shorten`` lowers it.  ``_MOVES``, the one move
declaration, gives each element type its (up, down) moves, a sign pair set
and a direction: involutions and fpf involutions go up by lengthening;
clans go up by shortening, as rank_clan is p*q minus the involution rank.
``rs_step_involution`` / ``rs_step_fpf`` take the monoid step at one label
from the type's up-move; it either fixes the element or raises its rank by
exactly 1.

>>> pi = Involution((3, 4, 1, 2))
>>> pi.cycles
((1, 3), (2, 4))
>>> rank_involution(pi)
3
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import comb, prod
from typing import Iterable

from .permutations import _permutation_inversions

__all__ = [
    "Involution",
    "FpfInvolution",
    "Clan",
    "rank_involution",
    "rank_fpf",
    "rank_clan",
    "rs_step_involution",
    "rs_step_fpf",
    "bottom_involution",
    "bottom_fpf",
    "bottom_clan",
    "involution_count",
    "fpf_count",
    "clan_count",
]


def _check(x: "Involution | Clan") -> None:
    """Raise ValueError unless x.word is the word of an involution of 1..n,
    n >= 1, in one pass: a fixed point i reads v = i or -i whose sign v // i
    indexes a true entry of ``x._SIGNS``, so a float there raises TypeError,
    as one in 1..n elsewhere does at word[v - 1]; any other entry v lies in
    1..n and maps back, word[v] = i."""
    word, signs, n = x.word, x._SIGNS, len(x.word)
    if not n:
        raise ValueError("n must be at least 1, got 0")
    for i, v in enumerate(word, 1):
        if v == i or v == -i:
            if signs[v // i]:
                continue
        elif 0 < v <= n:
            if word[v - 1] == i:
                continue
            raise ValueError(f"word {word} is no involution: {i} -> {v} -> {word[v - 1]}")
        raise ValueError(f"word {word}: no {type(x).__name__} reads {v} at {i}")


def _pair_up(n: int, cycles: Iterable[tuple[int, int]]) -> list[int]:
    """The word of 1..n swapping each (a, b) of ``cycles``; ValueError on n < 1 or a bad vertex."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    word = list(range(1, n + 1))
    for a, b in cycles:
        if not (0 < a <= n and 0 < b <= n):
            raise ValueError(f"cycle ({a},{b}) leaves 1..{n}")
        if a == b or word[a - 1] != a or word[b - 1] != b:
            raise ValueError(f"cycles {cycles} reuse a vertex")
        word[a - 1], word[b - 1] = b, a
    return word


class _Element:
    """What every element reads off its one-line word, ``word``."""

    __slots__ = ()

    def __post_init__(self) -> None:
        _check(self)

    @property
    def n(self) -> int:
        return len(self.word)

    @property
    def cycles(self) -> tuple[tuple[int, int], ...]:
        """The two-cycles (a, b), a < b, sorted by a."""
        return tuple((i, v) for i, v in enumerate(self.word, 1) if v > i)

    def __str__(self) -> str:
        return self.text()


@dataclass(frozen=True, slots=True)
class Involution(_Element):
    """An involution of {1, ..., n}, held as its one-line word."""

    word: tuple[int, ...]

    # whether a fixed point i may read i ([1]) or -i ([-1]), indexed by its sign
    _SIGNS = (False, True, False)

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[tuple[int, int]]) -> "Involution":
        """Build from unordered two-cycles; fixed points are the rest of 1..n."""
        return cls(tuple(_pair_up(n, cycles)))

    @property
    def fixed_points(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.word, 1) if v == i)

    @property
    def num_cycles(self) -> int:
        return sum(v > i for i, v in enumerate(self.word, 1))

    def image(self, i: int) -> int:
        if not 1 <= i <= len(self.word):
            raise ValueError(f"position {i} out of range 1..{len(self.word)}")
        return self.word[i - 1]

    def text(self) -> str:
        """Cycle notation with fixed points implicit; "id" when there are none."""
        return "".join([f"({i},{v})" for i, v in enumerate(self.word, 1) if v > i]) or "id"


class FpfInvolution(Involution):
    """An involution without fixed points; n must be even."""

    __slots__ = ()
    _SIGNS = (False, False, False)

    def as_involution(self) -> Involution:
        """The same element viewed in the poset of all involutions."""
        return Involution(self.word)


@dataclass(frozen=True, slots=True)
class Clan(_Element):
    """An involution whose fixed points carry signs; p, q >= 1 is required.

    A minus-signed fixed point v reads -v in ``word``; ``signed_fixed_points``
    holds (vertex, sign) pairs sorted by vertex.
    """

    word: tuple[int, ...]

    _SIGNS = (False, True, True)

    def __post_init__(self) -> None:
        _check(self)
        p, n = self.p, len(self.word)
        if not 0 < p < n:
            raise ValueError(
                f"signature ({p},{n - p}) invalid: both p and q must be at least 1"
            )

    @classmethod
    def from_parts(
        cls, n: int, cycles: Iterable[tuple[int, int]], signs: "dict[int, int] | Iterable"
    ) -> "Clan":
        """Build from unordered two-cycles and the sign of every fixed point."""
        word = _pair_up(n, cycles)
        fixed = [v for v in range(1, n + 1) if word[v - 1] == v]
        signs = dict(signs)
        if sorted(signs) != fixed:
            raise ValueError(
                f"signs given for {sorted(signs)} but fixed points are {tuple(fixed)}"
            )
        for v in fixed:
            if signs[v] not in (1, -1):
                raise ValueError(f"sign at vertex {v} must be +1 or -1, got {signs[v]}")
            word[v - 1] = signs[v] * v
        return cls(tuple(word))

    @property
    def signed_fixed_points(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, v // i) for i, v in enumerate(self.word, 1) if v == i or v == -i)

    @property
    def p(self) -> int:
        """The cycles and the + fixed points: the entries with w(i) >= i."""
        return sum(v >= i for i, v in enumerate(self.word, 1))

    @property
    def q(self) -> int:
        return len(self.word) - self.p

    def text(self) -> str:
        """Cycle notation with every vertex present, signs on one-cycles."""
        return "".join([
            f"({i},{v})" if v > i else f"({i}{'+' if v > 0 else '-'})"
            for i, v in enumerate(self.word, 1) if v >= i or v == -i
        ])


def rank_involution(pi: Involution) -> int:
    """(length + number of two-cycles) / 2; the weak-order rank, the length
    read off the word by ``_permutation_inversions``: no ``Permutation`` is built.

    >>> rank_involution(Involution.from_cycles(4, [(1, 4), (2, 3)]))
    4
    """
    return (_permutation_inversions(pi.word, pi.n) + pi.num_cycles) // 2


def rank_fpf(pi: FpfInvolution) -> int:
    """rank_involution - k = (length - k) / 2 for the k = n/2 two-cycles, also
    the inversions of the flattened standard form (a_1, b_1, ..., a_k, b_k);
    read off the word, as ``rank_involution`` is.

    >>> rank_fpf(FpfInvolution.from_cycles(6, [(1, 6), (2, 5), (3, 4)]))
    6
    """
    return (_permutation_inversions(pi.word, pi.n) - pi.n // 2) // 2


def rank_clan(pi: Clan) -> int:
    """p*q minus the all-involutions rank of the underlying involution, read
    off the word's absolute values: no ``Involution`` is built.

    The clan order runs opposite to the involution order, so shortening
    moves go up and the unique bottom has rank 0.
    """
    cycles = sum(v > i for i, v in enumerate(pi.word, 1))
    inversions = _permutation_inversions(tuple(map(abs, pi.word)), pi.n)
    return pi.p * pi.q - (inversions + cycles) // 2


def _lengthen(pairs: tuple, m: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
    """(i, new word) for each i at which the underlying involution of m rises
    one rank step: attach the strand {i, i+1} on two fixed points whose signs
    are one of ``pairs``, or conjugate by s_i at any other ascent
    |m[i-1]| < |m[i]| (the strand {i, i+1} reads i+1, i, a descent)."""
    out = []
    for i in range(1, len(m)):
        a, b = m[i - 1], m[i]
        if a * a < b * b:  # |a| < |b|, cheaper than two abs() calls
            if abs(a) != i or abs(b) != i + 1:
                out.append((i, _conjugate(i, m)))
            elif (a // i, b // (i + 1)) in pairs:  # the signs of two fixed points
                out.append((i, m[: i - 1] + (i + 1, i) + m[i + 1 :]))
    return out


def _shorten(pairs: tuple, m: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
    """(i, new word) for each i at which the underlying involution of m falls
    one rank step: detach the strand {i, i+1} into each sign pair of ``pairs``
    in order, or conjugate by s_i at a descent |m[i-1]| > |m[i]|."""
    out = []
    for i in range(1, len(m)):
        a, b = m[i - 1], m[i]
        if a == i + 1:
            for s, t in pairs:
                out.append((i, m[: i - 1] + (s * i, t * (i + 1)) + m[i + 1 :]))
        elif a * a > b * b:
            out.append((i, _conjugate(i, m)))
    return out


def _conjugate(i: int, m: tuple[int, ...]) -> tuple[int, ...]:
    """s_i m s_i, for (i, i+1) not a strand.

    A fixed point may carry a clan sign as a negative entry -v; it moves
    across with its sign.
    """
    a, b = m[i - 1], m[i]
    out = list(m)
    # swap the entries at i, i+1 and rename the values i <-> i+1
    out[i - 1] = b if abs(b) != i + 1 else (i if b > 0 else -i)
    out[i] = a if abs(a) != i else (i + 1 if a > 0 else -i - 1)
    if abs(a) != i:
        out[a - 1] = i + 1
    if abs(b) != i + 1:
        out[b - 1] = i
    return tuple(out)


# the sign pairs (at i, i+1) a strand {i, i+1} attaches on and detaches into
_UNSIGNED = ((1, 1),)
_OPPOSITE = ((1, -1), (-1, 1))

# each element type's (up, down) cover moves, the one place they are written
_MOVES = {
    Involution: (partial(_lengthen, _UNSIGNED), partial(_shorten, _UNSIGNED)),
    FpfInvolution: (partial(_lengthen, ()), partial(_shorten, ())),
    Clan: (partial(_shorten, _OPPOSITE), partial(_lengthen, _OPPOSITE)),
}


def _require(what: str, kind: type, x: object, exact: bool = False) -> None:
    """Raise ValueError unless x is a ``kind``, exactly that type if ``exact``."""
    if (type(x) is not kind) if exact else not isinstance(x, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise ValueError(
            f"{what} needs {article} {kind.__name__}, got {type(x).__name__}"
        )


def _rs_step(name: str, kind: type, i: int, pi: Involution) -> Involution:
    _require(name, kind, pi)
    if not 1 <= i <= pi.n - 1:
        raise ValueError(f"step index {i} out of range 1..{pi.n - 1}")
    return kind(dict(_MOVES[kind][0](pi.word)).get(i, pi.word))


def rs_step_involution(i: int, pi: Involution) -> Involution:
    """One monoid step at i: the unique cover of pi along label i, or pi itself.

    >>> rs_step_involution(1, bottom_involution(4)).cycles
    ((1, 2),)
    """
    return _rs_step("rs_step_involution", Involution, i, pi)


def rs_step_fpf(i: int, pi: FpfInvolution) -> FpfInvolution:
    """One monoid step in the fixed-point-free order (conjugation only).

    This is the restriction of the all-involutions step: with no fixed
    points available the attach branch never fires.
    """
    return _rs_step("rs_step_fpf", FpfInvolution, i, pi)


def bottom_involution(n: int) -> Involution:
    """The identity involution, the unique rank-0 element."""
    return Involution.from_cycles(n, ())


def bottom_fpf(n: int) -> FpfInvolution:
    """(1,2)(3,4)...(n-1,n), the unique rank-0 fixed-point-free involution."""
    if n < 2 or n % 2:
        raise ValueError(f"n must be a positive even integer, got {n}")
    return FpfInvolution.from_cycles(n, [(i, i + 1) for i in range(1, n, 2)])


def bottom_clan(p: int, q: int) -> Clan:
    """(1,n)(2,n-1)...(m,n+1-m) with the majority sign on the middle vertices.

    Here m = min(p, q); for p = q there are no signed vertices at all.

    >>> bottom_clan(2, 2).text()
    '(1,4)(2,3)'
    >>> bottom_clan(3, 1).text()
    '(1,4)(2+)(3+)'
    """
    if p < 1 or q < 1:
        raise ValueError(f"signature ({p},{q}) invalid: both p and q must be at least 1")
    n, m = p + q, min(p, q)
    cycles = [(i, n + 1 - i) for i in range(1, m + 1)]
    sign = 1 if p >= q else -1
    return Clan.from_parts(n, cycles, {v: sign for v in range(m + 1, n - m + 1)})


def involution_count(n: int) -> int:
    """sum over k of C(n, 2k) * (2k-1)!!, by the ratio (n-2k)(n-2k-1)/(2k+2).

    >>> involution_count(6)
    76
    """
    total = term = 1 if n >= 0 else 0
    for k in range(n // 2):
        term = term * (n - 2 * k) * (n - 2 * k - 1) // (2 * k + 2)
        total += term
    return total


def fpf_count(n: int) -> int:
    """(n-1)!! for even n.

    >>> fpf_count(8)
    105
    """
    if n < 2 or n % 2:
        raise ValueError(f"n must be a positive even integer, got {n}")
    return prod(range(1, n, 2))


def clan_count(p: int, q: int) -> int:
    """sum over k of C(n, 2k) (2k-1)!! C(n-2k, p-k), by the ratio (p-k)(q-k)/(2k+2).

    >>> clan_count(2, 2)
    21
    """
    total = term = comb(p + q, p) if min(p, q) >= 0 else 0
    for k in range(min(p, q)):
        term = term * (p - k) * (q - k) // (2 * (k + 1))
        total += term
    return total
