"""Involutions, fixed-point-free involutions, and clans.

An involution is stored in standard form: two-cycles (a_i, b_i) with
a_i < b_i, sorted by a_i, plus the sorted tuple of fixed points.  A clan is
an involution whose fixed points each carry a sign (+1 or -1); the signature
(p, q) is read off as p = #{+} + #cycles and q = #{-} + #cycles.

The one-line word is the one codec (``one_line_word``, ``element_of_word``).
The weak order on each family is generated by the monoid step on that word,
``rs_step_involution`` / ``rs_step_fpf`` (for clans by the detach and
conjugation moves on signed words, see the matchings module).  Each step
either fixes the element or raises its rank by exactly 1.

>>> pi = standard_form(Permutation((3, 4, 1, 2)))
>>> pi.cycles
((1, 3), (2, 4))
>>> rank_involution(pi)
3
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, prod

from .permutations import Permutation, identity, length

__all__ = [
    "Involution",
    "FpfInvolution",
    "Clan",
    "standard_form",
    "rank_involution",
    "rank_fpf",
    "rank_clan",
    "rs_step_involution",
    "rs_step_fpf",
    "one_line_word",
    "element_of_word",
    "bottom_involution",
    "bottom_fpf",
    "bottom_clan",
    "bottom_element",
    "involution_count",
    "fpf_count",
    "clan_count",
]


@dataclass(frozen=True, slots=True)
class Involution:
    """An involution of {1, ..., n} in standard form."""

    n: int
    cycles: tuple[tuple[int, int], ...]
    fixed_points: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        seen = list(self.fixed_points)
        for a, b in self.cycles:
            if not a < b:
                raise ValueError(f"cycle ({a},{b}) not in standard form: need a < b")
            seen.extend((a, b))
        if sorted(seen) != list(range(1, self.n + 1)):
            raise ValueError(
                f"cycles {self.cycles} and fixed points {self.fixed_points} "
                f"do not partition 1..{self.n}"
            )
        firsts = [a for a, _ in self.cycles]
        if firsts != sorted(firsts):
            raise ValueError(f"cycles {self.cycles} not sorted by first entry")
        if list(self.fixed_points) != sorted(self.fixed_points):
            raise ValueError(f"fixed points {self.fixed_points} not sorted")

    @classmethod
    def from_cycles(
        cls, n: int, cycles: "tuple[tuple[int, int], ...] | list[tuple[int, int]]"
    ) -> "Involution":
        """Build from unordered two-cycles; fixed points are the rest of 1..n."""
        cyc = tuple(sorted(tuple(sorted(ab)) for ab in cycles))
        used = {v for ab in cyc for v in ab}
        if len(used) != 2 * len(cyc):
            raise ValueError(f"cycles {cycles} reuse a vertex")
        fixed = tuple(v for v in range(1, n + 1) if v not in used)
        return cls(n, cyc, fixed)

    @property
    def num_cycles(self) -> int:
        return len(self.cycles)

    def as_permutation(self) -> Permutation:
        return Permutation(one_line_word(self))

    def image(self, i: int) -> int:
        for a, b in self.cycles:
            if i == a:
                return b
            if i == b:
                return a
        return i

    def text(self) -> str:
        """Cycle notation with fixed points implicit; "id" when there are none."""
        if not self.cycles:
            return "id"
        return "".join(f"({a},{b})" for a, b in self.cycles)

    def __str__(self) -> str:
        return self.text()


class FpfInvolution(Involution):
    """An involution without fixed points; n must be even."""

    __slots__ = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.fixed_points:
            raise ValueError(
                f"fixed points {self.fixed_points} present; expected none"
            )

    def as_involution(self) -> Involution:
        """The same element viewed in the poset of all involutions."""
        return Involution(self.n, self.cycles, self.fixed_points)


@dataclass(frozen=True, slots=True)
class Clan:
    """An involution whose fixed points carry signs; p, q >= 1 is required.

    ``signed_fixed_points`` holds (vertex, sign) pairs sorted by vertex, with
    sign +1 or -1.
    """

    n: int
    cycles: tuple[tuple[int, int], ...]
    signed_fixed_points: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        Involution(self.n, self.cycles, tuple(v for v, _ in self.signed_fixed_points))
        for v, s in self.signed_fixed_points:
            if s not in (1, -1):
                raise ValueError(f"sign at vertex {v} must be +1 or -1, got {s}")
        if self.p < 1 or self.q < 1:
            raise ValueError(
                f"signature ({self.p},{self.q}) invalid: both p and q must be at least 1"
            )

    @classmethod
    def from_parts(
        cls,
        n: int,
        cycles: "tuple[tuple[int, int], ...] | list[tuple[int, int]]",
        signs: "dict[int, int] | list[tuple[int, int]]",
    ) -> "Clan":
        base = Involution.from_cycles(n, cycles)
        signs = dict(signs)
        if sorted(signs) != list(base.fixed_points):
            raise ValueError(
                f"signs given for {sorted(signs)} but fixed points are {base.fixed_points}"
            )
        signed = tuple((v, signs[v]) for v in base.fixed_points)
        return cls(n, base.cycles, signed)

    @property
    def p(self) -> int:
        return len(self.cycles) + sum(1 for _, s in self.signed_fixed_points if s > 0)

    @property
    def q(self) -> int:
        return len(self.cycles) + sum(1 for _, s in self.signed_fixed_points if s < 0)

    def underlying_involution(self) -> Involution:
        return Involution(self.n, self.cycles, tuple(v for v, _ in self.signed_fixed_points))

    def text(self) -> str:
        """Cycle notation with every vertex present, signs on one-cycles."""
        parts: dict[int, str] = {a: f"({a},{b})" for a, b in self.cycles}
        for v, s in self.signed_fixed_points:
            parts[v] = f"({v}{'+' if s > 0 else '-'})"
        return "".join(parts[a] for a in sorted(parts))

    def __str__(self) -> str:
        return self.text()


def standard_form(u: Permutation) -> Involution:
    """Decompose an involutive permutation into sorted cycles and fixed points.

    >>> standard_form(Permutation((4, 3, 2, 1))).cycles
    ((1, 4), (2, 3))
    """
    for i in range(1, u.n + 1):
        if u(u(i)) != i:
            raise ValueError(f"not an involution: u(u({i})) = {u(u(i))} != {i}")
    cycles = tuple((i, u(i)) for i in range(1, u.n + 1) if u(i) > i)
    fixed = tuple(i for i in range(1, u.n + 1) if u(i) == i)
    return Involution(u.n, cycles, fixed)


def rank_involution(pi: Involution) -> int:
    """(length + number of two-cycles) / 2; the weak-order rank.

    >>> rank_involution(Involution.from_cycles(4, [(1, 4), (2, 3)]))
    4
    """
    return (length(pi.as_permutation()) + pi.num_cycles) // 2


def rank_fpf(pi: FpfInvolution) -> int:
    """Inversions of the flattened standard-form word (a_1, b_1, ..., a_k, b_k).

    Identity with the all-involutions rank: rank_fpf == rank_involution - k.

    >>> rank_fpf(FpfInvolution.from_cycles(6, [(1, 6), (2, 5), (3, 4)]))
    6
    """
    return length(Permutation(tuple(v for ab in pi.cycles for v in ab)))


def rank_clan(pi: Clan) -> int:
    """p*q minus the all-involutions rank of the underlying involution.

    The clan order runs opposite to the involution order, so shortening
    moves go up and the unique bottom has rank 0.
    """
    return pi.p * pi.q - rank_involution(pi.underlying_involution())


def _up_involution(m: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
    """The monoid step, as (i, upper word) for each i that moves the one-line
    word m of an involution (m[i-1] == pi(i)).  At (i, i+1): both fixed ->
    attach the two-cycle (i, i+1); the strand {i, i+1} itself or a descent
    pi(i) > pi(i+1) -> no move; otherwise conjugate by s_i, which is exactly
    the case where the length rises by 2 (tests check both against lengths)."""
    out = []
    for i in range(1, len(m)):
        a, b = m[i - 1], m[i]
        if a == i and b == i + 1:
            out.append((i, m[: i - 1] + (i + 1, i) + m[i + 1 :]))
        elif a != i + 1 and a < b:
            out.append((i, _conjugate(i, m)))
    return out


def _down_involution(m: tuple[int, ...], detach: bool) -> list[tuple[int, tuple[int, ...]]]:
    """The inverse step, as (i, lower word) for each i that moves m: detach the
    strand {i, i+1} (if ``detach``, where fixed points are allowed), conjugate
    by s_i at a descent, otherwise no move."""
    out = []
    for i in range(1, len(m)):
        a, b = m[i - 1], m[i]
        if a == i + 1:
            if detach:
                out.append((i, m[: i - 1] + (i, i + 1) + m[i + 1 :]))
        elif a > b:
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


def one_line_word(x: "Involution | Clan") -> tuple[int, ...]:
    """The one-line word of x, entry i being x(i); a clan carries its signs in
    the word, a minus-signed fixed point v reading -v.

    >>> one_line_word(Clan.from_parts(4, [(1, 3)], {2: 1, 4: -1}))
    (3, 2, 1, -4)
    """
    word = list(range(1, x.n + 1))
    for a, b in x.cycles:
        word[a - 1], word[b - 1] = b, a
    if isinstance(x, Clan):
        for v, s in x.signed_fixed_points:
            word[v - 1] = s * v
    return tuple(word)


# the element type of each family's words; only a clan reads a signed entry
_WORD_TYPE = {"involution": Involution, "fpf": FpfInvolution, "clan": Clan}


def element_of_word(family: str, m: tuple[int, ...]) -> "Involution | Clan":
    """Inverse of ``one_line_word`` for the named family: involution | fpf | clan."""
    kind = _WORD_TYPE.get(family)
    if kind is None:
        raise ValueError(f"unknown family {family!r}")
    signed = kind is Clan
    cycles, fixed = [], []
    for i, v in enumerate(m, 1):
        if v > i:
            cycles.append((i, v))
        elif v == i or (signed and v == -i):
            fixed.append((i, 1 if v > 0 else -1) if signed else i)
    return kind(len(m), tuple(cycles), tuple(fixed))


def _require(what: str, kind: type, x: object, exact: bool = False) -> None:
    """Raise ValueError unless x is a ``kind``, exactly that type if ``exact``."""
    if (type(x) is not kind) if exact else not isinstance(x, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise ValueError(
            f"{what} needs {article} {kind.__name__}, got {type(x).__name__}"
        )


def _rs_step(family: str, i: int, pi: Involution) -> Involution:
    _require(f"rs_step_{family}", _WORD_TYPE[family], pi)
    if not 1 <= i <= pi.n - 1:
        raise ValueError(f"step index {i} out of range 1..{pi.n - 1}")
    m = one_line_word(pi)
    return element_of_word(family, dict(_up_involution(m)).get(i, m))


def rs_step_involution(i: int, pi: Involution) -> Involution:
    """One monoid step at i: the unique cover of pi along label i, or pi itself.

    >>> rs_step_involution(1, standard_form(identity(4))).cycles
    ((1, 2),)
    """
    return _rs_step("involution", i, pi)


def rs_step_fpf(i: int, pi: FpfInvolution) -> FpfInvolution:
    """One monoid step in the fixed-point-free order (conjugation only).

    This is the restriction of the all-involutions step: with no fixed
    points available the attach branch never fires.
    """
    return _rs_step("fpf", i, pi)


def bottom_involution(n: int) -> Involution:
    """The identity involution, the unique rank-0 element."""
    return Involution(n, (), tuple(range(1, n + 1)))


def bottom_fpf(n: int) -> FpfInvolution:
    """(1,2)(3,4)...(n-1,n), the unique rank-0 fixed-point-free involution."""
    if n < 2 or n % 2:
        raise ValueError(f"n must be a positive even integer, got {n}")
    return FpfInvolution(n, tuple((i, i + 1) for i in range(1, n, 2)), ())


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
    n = p + q
    m = min(p, q)
    cycles = tuple((i, n + 1 - i) for i in range(1, m + 1))
    sign = 1 if p >= q else -1
    signed = tuple((v, sign) for v in range(m + 1, n - m + 1))
    return Clan(n, cycles, signed)


def bottom_element(family: str, param: "int | tuple[int, int]"):
    """Dispatch to the bottom of the named family: involution | fpf | clan."""
    if family in ("involution", "fpf"):
        if not isinstance(param, int):
            raise ValueError(f"family {family!r} takes an integer n, got {param!r}")
        return bottom_involution(param) if family == "involution" else bottom_fpf(param)
    if family == "clan":
        if not (
            isinstance(param, (tuple, list))
            and len(param) == 2
            and all(isinstance(v, int) for v in param)
        ):
            raise ValueError(f"family 'clan' takes an integer pair (p, q), got {param!r}")
        return bottom_clan(*param)
    raise ValueError(f"unknown family {family!r}")


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
