"""Independent combinatorics used to check the output of the weakorder CLI.

Nothing here imports weakorder.  Elements are plain tuples:

- an involution (or fixed-point-free involution) is its one-line word ``m``,
  with ``m[i - 1]`` the image of i;
- a clan is a word ``c`` with ``c[i - 1]`` the partner of i, or ``"+"`` /
  ``"-"`` for a signed fixed point.

Permutations are one-line words too.  Families are named as the CLI names
them on output: ``"involution"``, ``"fpf"`` and ``"clan"``; a parameter is n,
or (p, q) for clans.

The definitions follow the package README: a labeled chain j_1, ..., j_l from
the bottom element spells the product s_{j_l} ... s_{j_1}, and the W-set of x
is the set of products of the chains ending at x.  ``chain_products`` computes
that set straight from the definition, over pairs (element, product), with
this module's own cover moves; it never builds a Hasse diagram.
"""

from __future__ import annotations

import re
from collections import defaultdict
from itertools import combinations, permutations

__all__ = [
    "family_count",
    "enumerate_family",
    "bottom",
    "rank",
    "ups",
    "closure",
    "chain_products",
    "exhaustive_wsets",
    "is_attach",
    "reduced_word",
    "reduced_word_count",
    "act",
    "inversions",
    "parse_element",
    "format_element",
    "parse_permutation",
]

_TOKEN = re.compile(r"\((\d+),(\d+)\)|\((\d+)([+-])\)")


# ---------------------------------------------------------------- counts


def _involution_count(n: int) -> int:
    # I(n) = I(n-1) + (n-1) I(n-2): vertex n is fixed or paired with one of n-1
    a, b = 1, 1
    for k in range(2, n + 1):
        a, b = b, b + (k - 1) * a
    return b


def _fpf_count(n: int) -> int:
    # (n-1)!!, zero for odd n
    if n % 2:
        return 0
    out = 1
    for v in range(n - 1, 0, -2):
        out *= v
    return out


def _clan_count(p: int, q: int, memo: "dict | None" = None) -> int:
    # vertex p+q is "+", "-", or paired with one of the other p+q-1 vertices;
    # a pair adds one to both p and q
    if p < 0 or q < 0:
        return 0
    if p == 0 or q == 0:
        return 1
    memo = {} if memo is None else memo
    key = (p, q)
    if key not in memo:
        memo[key] = (
            _clan_count(p - 1, q, memo)
            + _clan_count(p, q - 1, memo)
            + (p + q - 1) * _clan_count(p - 1, q - 1, memo)
        )
    return memo[key]


def family_count(family: str, param) -> int:
    """Number of elements, from recurrences and closed forms."""
    if family == "involution":
        return _involution_count(param)
    if family == "fpf":
        return _fpf_count(param)
    return _clan_count(*param)


# ---------------------------------------------------------- enumeration


def _matchings(vertices: tuple[int, ...], allow_fixed: bool):
    """Every partial (or perfect) matching, as dict vertex -> partner/None."""
    if not vertices:
        yield {}
        return
    v, rest = vertices[0], vertices[1:]
    if allow_fixed:
        for m in _matchings(rest, True):
            yield {v: None, **m}
    for k, w in enumerate(rest):
        for m in _matchings(rest[:k] + rest[k + 1:], allow_fixed):
            yield {v: w, w: v, **m}


def enumerate_family(family: str, param) -> list[tuple]:
    """All elements of a family, generated without any cover move."""
    if family == "clan":
        p, q = param
        n = p + q
        out = []
        for m in _matchings(tuple(range(1, n + 1)), True):
            fixed = [v for v in range(1, n + 1) if m[v] is None]
            k = (n - len(fixed)) // 2
            if not (0 <= p - k <= len(fixed)):
                continue
            for plus in combinations(fixed, p - k):
                c = [m[v] if m[v] is not None else ("+" if v in plus else "-")
                     for v in range(1, n + 1)]
                out.append(tuple(c))
        return out
    n = param
    return [
        tuple(v if m[v] is None else m[v] for v in range(1, n + 1))
        for m in _matchings(tuple(range(1, n + 1)), family == "involution")
    ]


def bottom(family: str, param) -> tuple:
    """The rank-0 element: identity, (1,2)(3,4)..., or nested strands for clans."""
    if family == "involution":
        return tuple(range(1, param + 1))
    if family == "fpf":
        return tuple(v + 1 if v % 2 else v - 1 for v in range(1, param + 1))
    p, q = param
    n, k = p + q, min(p, q)
    sign = "+" if p >= q else "-"
    return tuple(
        n + 1 - v if v <= k or v > n - k else sign for v in range(1, n + 1)
    )


def _params_of(family: str, x: tuple):
    if family != "clan":
        return len(x)
    k = sum(1 for v, c in enumerate(x, 1) if type(c) is int and c > v)
    return k + x.count("+"), k + x.count("-")


# ------------------------------------------------------------------ ranks


def inversions(word) -> int:
    return sum(1 for a, b in combinations(word, 2) if a > b)


def _underlying(c: tuple) -> tuple[int, ...]:
    return tuple(v if type(e) is str else e for v, e in enumerate(c, 1))


def rank(family: str, x: tuple) -> int:
    """(inversions + two-cycles) / 2; flattened-word inversions; p*q - that."""
    if family == "involution":
        cycles = sum(1 for v, e in enumerate(x, 1) if e > v)
        return (inversions(x) + cycles) // 2
    if family == "fpf":
        flat = [u for v, e in enumerate(x, 1) if e > v for u in (v, e)]
        return inversions(flat)
    p, q = _params_of("clan", x)
    return p * q - rank("involution", _underlying(x))


# ------------------------------------------------------------ cover moves


def _conjugate(i: int, x: tuple) -> tuple:
    # s_i x s_i: position v takes the entry of s_i(v), partners renamed by s_i
    def s(v):
        return i + 1 if v == i else i if v == i + 1 else v

    return tuple(
        e if type(e) is str else s(e)
        for e in (x[s(v) - 1] for v in range(1, len(x) + 1))
    )


def ups(family: str, i: int, x: tuple) -> list[tuple]:
    """Upper covers of x along label i.

    Involutions and fpf involutions: where x(i) < x(i+1) the twisted
    conjugation s_i * x is x s_i when s_i commutes with x (i and i+1 both
    fixed), s_i x s_i otherwise.  Clans run the other way: where the
    underlying involution u has u(i) > u(i+1), a strand {i, i+1} is cut into
    a signed pair (both sign orders), anything else is conjugated by s_i
    with the signs carried along.
    """
    if family != "clan":
        a, b = x[i - 1], x[i]
        if a > b:
            return []
        if a == i and b == i + 1:
            y = list(x)
            y[i - 1], y[i] = i + 1, i
            return [tuple(y)]
        return [_conjugate(i, x)]
    a, b = x[i - 1], x[i]
    ua = i if type(a) is str else a
    ub = i + 1 if type(b) is str else b
    if ua <= ub:
        return []
    if a == i + 1:
        out = []
        for pair in (("+", "-"), ("-", "+")):
            y = list(x)
            y[i - 1], y[i] = pair
            out.append(tuple(y))
        return out
    return [_conjugate(i, x)]


def is_attach(family: str, i: int, x: tuple) -> bool:
    """Cover type II at label i: attach a strand on two fixed points, or cut
    the clan strand {i, i+1}.  Fixed-point-free covers never are."""
    if family == "involution":
        return x[i - 1] == i and x[i] == i + 1
    return family == "clan" and x[i - 1] == i + 1


def closure(family: str, param) -> tuple[set, dict]:
    """Breadth-first closure from the bottom: (elements, {(lo, hi): labels})."""
    n = param if family != "clan" else sum(param)
    start = bottom(family, param)
    seen = {start}
    edges: dict[tuple, set] = defaultdict(set)
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for i in range(1, n):
                for y in ups(family, i, x):
                    edges[x, y].add(i)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
        frontier = nxt
    return seen, dict(edges)


# ---------------------------------------------------------------- W-sets


def _left_mult(i: int, w: tuple) -> tuple:
    # s_i o w: exchange the values i and i+1
    return tuple(i + 1 if v == i else i if v == i + 1 else v for v in w)


def chain_products(family: str, param) -> dict[tuple, set]:
    """W-set of every element, from the definition: all chain products.

    Walks pairs (element, product) upward from (bottom, identity); a pair
    (y, s_i w) is reached from (x, w) when y covers x along label i.
    """
    n = param if family != "clan" else sum(param)
    out: dict[tuple, set] = defaultdict(set)
    layer = {bottom(family, param): {tuple(range(1, n + 1))}}
    for x, ws in layer.items():
        out[x] |= ws
    while layer:
        nxt: dict[tuple, set] = defaultdict(set)
        for x, ws in layer.items():
            for i in range(1, n):
                for y in ups(family, i, x):
                    got = nxt[y]
                    for w in ws:
                        got.add(_left_mult(i, w))
        for y, ws in nxt.items():
            out[y] |= ws
        layer = nxt
    return dict(out)


def exhaustive_wsets(family: str, param) -> dict:
    """W-sets by brute force over all of S_n.

    w is in the W-set of x when acting on the bottom element along one
    reduced word of w reaches x.  Permutations are taken in order of length,
    so the action along the reduced word (j,) + word(s_j w), j the smallest
    left descent, extends the already known action of s_j w by one letter.
    """
    n = param if family != "clan" else sum(param)
    perms = sorted(permutations(range(1, n + 1)), key=inversions)
    reach = {perms[0]: {bottom(family, param)}}
    out: dict = defaultdict(set)
    out[bottom(family, param)].add(perms[0])
    for w in perms[1:]:
        pos = {v: k for k, v in enumerate(w)}
        j = next(j for j in range(1, n) if pos[j + 1] < pos[j])
        got = {y for z in reach[_left_mult(j, w)] for y in ups(family, j, z)}
        reach[w] = got
        for y in got:
            out[y].add(w)
    return dict(out)


def reduced_word(w: tuple) -> tuple[int, ...]:
    """One reduced word (j_1, ..., j_k) with w = s_{j_1} ... s_{j_k}."""
    letters = []
    while True:
        pos = {v: k for k, v in enumerate(w)}
        j = next((j for j in range(1, len(w)) if pos[j + 1] < pos[j]), None)
        if j is None:
            return tuple(letters)
        letters.append(j)
        w = _left_mult(j, w)


def reduced_word_count(w: tuple, memo: dict) -> int:
    """Number of reduced words of w: sum over left descents j of s_j w."""
    got = memo.get(w)
    if got is None:
        pos = {v: k for k, v in enumerate(w)}
        desc = [j for j in range(1, len(w)) if pos[j + 1] < pos[j]]
        got = 1 if not desc else sum(
            reduced_word_count(_left_mult(j, w), memo) for j in desc
        )
        memo[w] = got
    return got


def act(family: str, word: tuple[int, ...], x: tuple) -> set[tuple]:
    """Everything reachable from x by covers along word, rightmost letter first."""
    states = {x}
    for i in reversed(word):
        states = {y for z in states for y in ups(family, i, z)}
    return states


# ---------------------------------------------------------------- text


def parse_element(text: str, family: str, n: "int | None" = None) -> tuple:
    """Element text as the CLI prints it: "(1,4)(2,3)", "id", "(1,3)(2+)(4-)"."""
    text = text.strip()
    if text == "id":
        return tuple(range(1, n + 1))
    entries: dict[int, object] = {}
    at = 0
    for got in _TOKEN.finditer(text):
        if got.start() != at:
            raise ValueError(f"unreadable element text {text!r}")
        at = got.end()
        if got.group(1) is not None:
            a, b = int(got.group(1)), int(got.group(2))
            entries[a], entries[b] = b, a
        else:
            entries[int(got.group(3))] = got.group(4)
    if at != len(text) or not entries and n is None:
        raise ValueError(f"unreadable element text {text!r}")
    if n is None:
        n = max(entries)
    return tuple(entries.get(v, v) for v in range(1, n + 1))


def format_element(family: str, x: tuple) -> str:
    if family == "clan":
        return "".join(
            f"({v}{e})" if type(e) is str else f"({v},{e})" if e > v else ""
            for v, e in enumerate(x, 1)
        )
    return "".join(f"({v},{e})" for v, e in enumerate(x, 1) if e > v) or "id"


def parse_permutation(text: str) -> tuple[int, ...]:
    """"[3,2,4,1]" -> (3, 2, 4, 1)."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"unreadable permutation {text!r}")
    return tuple(int(v) for v in text[1:-1].split(","))
