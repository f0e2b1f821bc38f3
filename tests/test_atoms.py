"""W-sets against atoms, a third witness defined by the Demazure product."""

from __future__ import annotations

import pytest

from atoms import atoms_demazure, demazure, descent_word, inverse
from conftest import brute_fpf, brute_involutions
from weakorder import Involution, wset_fpf, wset_involution


def test_demazure_product_small_cases() -> None:
    s1, s2 = (2, 1, 3), (1, 3, 2)
    assert descent_word((3, 2, 1)) in ([1, 2, 1], [2, 1, 2])
    assert demazure(s1, s1) == s1
    assert demazure(s1, s2) == (2, 3, 1)
    assert demazure((2, 3, 1), s1) == (3, 2, 1)
    assert demazure((3, 2, 1), (2, 3, 1)) == (3, 2, 1)


def test_convention_frozen() -> None:
    # z = (1,4)(2,3): its W-set is {3241, 3412, 4132}, the inverses of its atoms
    z = (4, 3, 2, 1)
    atoms = {(2, 4, 3, 1), (3, 4, 1, 2), (4, 2, 1, 3)}
    assert atoms_demazure(4)[z] == atoms
    assert all(demazure(inverse(a), a) == z for a in atoms)
    members = wset_involution(Involution.from_cycles(4, [(1, 4), (2, 3)])).members
    assert [w.word for w in members] == [(3, 2, 4, 1), (3, 4, 1, 2), (4, 1, 3, 2)]
    # and in the fpf order, from z0 = (1,2)(3,4): W-set {1423, 2314}
    assert atoms_demazure(4, fpf=True)[z] == {(1, 3, 4, 2), (3, 1, 2, 4)}


@pytest.mark.parametrize("n", range(1, 8))
def test_involution_wsets_are_inverted_atoms(n: int) -> None:
    atoms = atoms_demazure(n)
    involutions = brute_involutions(n)
    assert set(atoms) == {pi.word for pi in involutions}
    for pi in involutions:
        got = {w.word for w in wset_involution(pi).members}
        assert got == {inverse(a) for a in atoms[pi.word]}, pi.text()


@pytest.mark.parametrize("n", [2, 4, 6])
def test_fpf_wsets_are_inverted_fpf_atoms(n: int) -> None:
    atoms = atoms_demazure(n, fpf=True)
    fpf = brute_fpf(n)
    assert set(atoms) == {pi.word for pi in fpf}
    for pi in fpf:
        got = {w.word for w in wset_fpf(pi).members}
        assert got == {inverse(a) for a in atoms[pi.word]}, pi.text()
