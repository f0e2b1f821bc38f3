"""Atoms by the Demazure product: a definition-level witness for W-sets.

Hamaker, Marberg and Pawlowski ("Involution words II: braid relations and
atomic structures", J. Algebraic Combin., 2017) call w an atom of the
involution z when w has minimal length among the permutations with
w^-1 o w = z, where o is the Demazure product.  The fpf-atoms of a
fixed-point-free z are likewise the minimal-length w with
w^-1 o z0 o w = z, where z0 = (1,2)(3,4)... is the bottom fpf involution.

Everything here scans S_n and works on one-line tuples; it uses neither the
poset nor the five positional conditions.  Composition reads (uv)(i) =
u(v(i)), so right multiplication by s_i swaps the entries at positions i
and i+1.  Under that convention the W-set of z is the set of inverses of
its atoms; ``test_atoms.py`` pins this with a frozen example.
"""

from __future__ import annotations

import functools
import itertools

Word = tuple[int, ...]


def descent_word(w: Word) -> list[int]:
    """Letters i_1, ..., i_k with w = s_{i_k} ... s_{i_1}, a reduced word.

    Bubble sort by right descents: each step swaps a descent w(i) > w(i+1).
    """
    u, letters = list(w), []
    i = 0
    while i < len(u) - 1:
        if u[i] > u[i + 1]:
            u[i], u[i + 1] = u[i + 1], u[i]
            letters.append(i + 1)
            i = max(i - 1, 0)
        else:
            i += 1
    return letters


def demazure(u: Word, v: Word) -> Word:
    """The Demazure product u o v.

    u o s_i is u s_i when that is longer, that is when u(i) < u(i+1), and u
    otherwise; v is applied letter by letter along a reduced word.
    """
    out = list(u)
    for i in reversed(descent_word(v)):
        if out[i - 1] < out[i]:
            out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)


def inverse(w: Word) -> Word:
    out = [0] * len(w)
    for i, v in enumerate(w, start=1):
        out[v - 1] = i
    return tuple(out)


def inversions(w: Word) -> int:
    return sum(1 for i, j in itertools.combinations(range(len(w)), 2) if w[i] > w[j])


@functools.lru_cache(maxsize=None)
def atoms_demazure(n: int, fpf: bool = False) -> dict[Word, frozenset[Word]]:
    """Every involution of S_n (fpf: every fpf involution) to its atoms.

    One scan of S_n: each w is filed under w^-1 o w, or w^-1 o z0 o w for
    fpf, and each class keeps its members of minimal length.
    """
    z0 = tuple(v for i in range(1, n, 2) for v in (i + 1, i)) if fpf else None
    best: dict[Word, tuple[int, list[Word]]] = {}
    for w in itertools.permutations(range(1, n + 1)):
        left = demazure(inverse(w), z0) if fpf else inverse(w)
        z = demazure(left, w)
        k = inversions(w)
        got = best.get(z)
        if got is None or k < got[0]:
            best[z] = (k, [w])
        elif k == got[0]:
            got[1].append(w)
    return {z: frozenset(ws) for z, (k, ws) in best.items()}
