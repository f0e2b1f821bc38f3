"""Permutations of {1, ..., n} in one-line notation.

Conventions, used consistently across the whole package:

- positions and values are 1-indexed;
- composition is right-to-left, ``compose(u, v)(i) == u(v(i))``;
- ``s_i`` denotes the simple transposition exchanging i and i+1;
- the length of a permutation is its inversion count, which equals its
  Coxeter length with respect to the generators s_1, ..., s_{n-1};
- a reduced word ``(i_1, ..., i_k)`` stands for the left-to-right product
  ``s_{i_1} o s_{i_2} o ... o s_{i_k}`` and is reduced when k equals the
  length of that product.

Two walks on one-line words: ``_closure`` keeps structure (each reached
word's position, depth and moves), and ``_sweep`` carries values along the
chains, two ranks at a time (path counts, label words, chain products).

>>> u = Permutation((3, 2, 4, 1))
>>> u(1), u(4)
(3, 1)
>>> length(u)
4
>>> sorted(left_descents(u))
[1, 2]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator

__all__ = [
    "Permutation",
    "ReducedWord",
    "identity",
    "simple_transposition",
    "longest_element",
    "compose",
    "length",
    "left_descents",
    "apply_simple_left",
    "reduced_words",
    "count_reduced_words",
    "evaluate_word",
]

ReducedWord = tuple[int, ...]
Word = tuple[int, ...]
Moves = list[tuple[int, Word]]
# the reached words, their depths, and each one's (label, position) moves
Closure = tuple[list[Word], list[int], list[list[tuple[int, int]]]]


@dataclass(frozen=True, order=True, slots=True)
class Permutation:
    """An immutable permutation stored as its one-line word.

    ``word[i - 1]`` is the image of i.  Ordering (and therefore sorted
    output everywhere in the package) is lexicographic on one-line words.

    >>> Permutation((2, 1, 3)) * Permutation((1, 3, 2))
    Permutation((2, 3, 1))
    >>> Permutation.from_text("[3,2,4,1]") == Permutation.from_text("3241")
    True
    """

    word: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.word)
        if n == 0:
            raise ValueError("empty permutation: n must be at least 1")
        if sorted(self.word) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.word}")

    @property
    def n(self) -> int:
        return len(self.word)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValueError(f"position {i} out of range 1..{self.n}")
        return self.word[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def inverse(self) -> "Permutation":
        out = [0] * self.n
        for i, v in enumerate(self.word, start=1):
            out[v - 1] = i
        return Permutation(tuple(out))

    @classmethod
    def from_text(cls, text: str) -> "Permutation":
        """Parse "[3,2,4,1]" or, for n <= 9, the digit form "3241".

        >>> Permutation.from_text(" [ 3, 2 , 4, 1 ] ").word
        (3, 2, 4, 1)
        """
        s = "".join(text.split())
        if not s:
            raise ValueError("empty permutation text")
        if s.startswith("[") and s.endswith("]"):
            body = s[1:-1]
            if not body:
                raise ValueError("empty permutation text")
            try:
                word = tuple(int(part) for part in body.split(","))
            except ValueError:
                raise ValueError(f"cannot parse permutation text {text!r}") from None
            return cls(word)
        if s.isdigit():
            if len(s) > 9:
                raise ValueError("digit form is only defined for n <= 9; use [..] form")
            return cls(tuple(int(ch) for ch in s))
        raise ValueError(f"cannot parse permutation text {text!r}")

    def as_text(self, compact: bool = False) -> str:
        """Canonical "[3,2,4,1]" form; digit form when compact and n <= 9."""
        return _word_text(self.word, compact)

    def __str__(self) -> str:
        return self.as_text()

    def __repr__(self) -> str:
        return f"Permutation({self.word!r})"


def identity(n: int) -> Permutation:
    """
    >>> identity(4).word
    (1, 2, 3, 4)
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    return Permutation(tuple(range(1, n + 1)))


def simple_transposition(i: int, n: int) -> Permutation:
    """The generator s_i in S_n, exchanging i and i+1.

    >>> simple_transposition(2, 4).word
    (1, 3, 2, 4)
    """
    if not 1 <= i <= n - 1:
        raise ValueError(f"simple transposition index {i} out of range 1..{n - 1}")
    word = list(range(1, n + 1))
    word[i - 1], word[i] = word[i], word[i - 1]
    return Permutation(tuple(word))


def longest_element(n: int) -> Permutation:
    """The order-reversing permutation [n, n-1, ..., 1]."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    return Permutation(tuple(range(n, 0, -1)))


def compose(u: Permutation, v: Permutation) -> Permutation:
    """Right-to-left composition u o v.

    >>> compose(Permutation((2, 1, 3)), Permutation((1, 3, 2))).word
    (2, 3, 1)
    """
    if u.n != v.n:
        raise ValueError(f"size mismatch: {u.n} vs {v.n}")
    return Permutation(tuple(u.word[v.word[i] - 1] for i in range(u.n)))


def length(u: Permutation) -> int:
    """Inversions of the one-line word.

    >>> length(identity(5)), length(longest_element(4))
    (0, 6)
    """
    return _inversions(u.word)


def _inversions(word: Iterable[int]) -> int:
    """Inversions of a word of distinct positive values: each value v meets
    the larger values already seen, the bits above v of a mask of them."""
    seen = 0
    inversions = 0
    for v in word:
        inversions += (seen >> v).bit_count()
        seen |= 1 << v
    return inversions


def _permutation_inversions(word: Word, n: int) -> int:
    """``_inversions``, in a pass that checks the word is a permutation of 1..n:
    n values, each in range before it is shifted, whose mask is bits 1..n."""
    seen = inversions = 0
    for v in word:
        if not 0 < v <= n:
            break
        inversions += (seen >> v).bit_count()
        seen |= 1 << v
    else:
        if len(word) == n and seen == (1 << n + 1) - 2:
            return inversions
    raise ValueError(f"not a permutation of 1..{n}: {word}")


def _word_text(word: Word, compact: bool = False) -> str:
    """Canonical "[3,2,4,1]" form of a word; digit form when compact and n <= 9."""
    if compact and len(word) <= 9:
        return "".join(map(str, word))
    return "[" + ",".join(map(str, word)) + "]"


def left_descents(u: Permutation) -> set[int]:
    """All j with length(s_j o u) < length(u).

    Equivalently, all j such that j+1 occurs before j in the one-line word.

    >>> sorted(left_descents(Permutation((2, 3, 4, 1))))
    [1]
    >>> left_descents(identity(3))
    set()
    """
    pos = u.inverse().word
    return {j for j in range(1, u.n) if pos[j] < pos[j - 1]}


def apply_simple_left(i: int, u: Permutation) -> Permutation:
    """s_i o u: exchanges the values i and i+1 wherever they sit in the word.

    >>> apply_simple_left(1, Permutation((3, 1, 2))).word
    (3, 2, 1)
    """
    if not 1 <= i <= u.n - 1:
        raise ValueError(f"simple transposition index {i} out of range 1..{u.n - 1}")
    word = tuple(
        i + 1 if v == i else i if v == i + 1 else v
        for v in u.word
    )
    return Permutation(word)


def evaluate_word(letters: tuple[int, ...], n: int) -> Permutation:
    """Left-to-right product s_{i_1} o s_{i_2} o ... o s_{i_k} in S_n."""
    u = identity(n)
    for i in letters:
        u = compose(u, simple_transposition(i, n))
    return u


def _closure(start: Word, moves: Callable[[Word], Moves]) -> Closure:
    """Breadth-first closure of ``start`` under ``moves``: the reached words
    in breadth-first order, each one's depth, and each one's moves as (label,
    position of the moved-to word), each move's word looked up once."""
    at = {start: 0}
    words = [start]
    depths = [0]
    steps: list[list[tuple[int, int]]] = []
    for w in words:  # grows while it is read: a queue
        d = depths[len(steps)] + 1
        out = []
        for i, v in moves(w):
            j = at.get(v)
            if j is None:
                j = at[v] = len(words)
                words.append(v)
                depths.append(d)
            out.append((i, j))
        steps.append(out)
    return words, depths, steps


def _sweep(start: Hashable, moves: Callable, first: object, spread: Callable) -> Iterator[tuple]:
    """(node, depth, value, moves) of every node reached from ``start``, rank
    by rank.  ``moves(node)`` lists (label, next node); ``spread(nxt, value,
    moves)`` carries a node's value into ``nxt``, the next rank's dict from
    node to value, ``first`` being ``start``'s.  In a graded order a node's
    value is whole at its rank; a move that skips a rank re-enters its node
    at another depth.  Two ranks are held, each node dropped as it is
    yielded."""
    rank, depth = {start: first}, 0
    while rank:
        nxt: dict = {}
        while rank:
            node, value = rank.popitem()
            out = moves(node)
            spread(nxt, value, out)
            yield node, depth, value, out
        rank, depth = nxt, depth + 1


def _add(nxt: dict, count: int, moves: Moves) -> None:
    """Spread a word's path count to each word it moves to."""
    for _, v in moves:
        nxt[v] = nxt.get(v, 0) + count


def _peel(w: Word) -> Moves:
    """(j, s_j o w) for every left descent j of the one-line word w: j + 1
    sits left of j, and s_j exchanges the two values."""
    pos = [0] * (len(w) + 1)
    for s, v in enumerate(w):
        pos[v] = s
    out = []
    for j in range(1, len(w)):
        if pos[j + 1] < pos[j]:
            u = list(w)
            u[pos[j]], u[pos[j + 1]] = j + 1, j
            out.append((j, tuple(u)))
    return out


def _append(nxt: dict, words: set[ReducedWord], moves: Moves) -> None:
    """Spread a word's label words to each word it moves to, the label appended."""
    for j, v in moves:
        nxt.setdefault(v, set()).update([w + (j,) for w in words])


def reduced_words(u: Permutation) -> set[ReducedWord]:
    """All reduced words for u, found by peeling left descents.

    A word ``(j,) + rest`` is reduced for u exactly when j is a left descent
    of u and ``rest`` is reduced for s_j o u, and each peeling lowers the
    length by 1, so one ``_sweep`` down from u's word, holding two lengths
    of label words, reaches the identity with all of them, with no recursion.

    >>> reduced_words(identity(3))
    {()}
    >>> sorted(reduced_words(Permutation((3, 2, 1))))
    [(1, 2, 1), (2, 1, 2)]
    """
    return next(words for _, _, words, out in _sweep(u.word, _peel, {()}, _append) if not out)


def count_reduced_words(u: Permutation) -> int:
    """Number of reduced words for u, without listing them: the paths from
    u's word down to the identity by peeling left descents, counted by
    ``_sweep``, which holds two lengths of [e, u] at once.

    >>> count_reduced_words(Permutation((3, 2, 1)))
    2
    """
    return sum(c for _, _, c, out in _sweep(u.word, _peel, 1, _add) if not out)
