"""Weak order posets on involutions, fixed-point-free involutions, and clans.

The package builds three graded posets whose covers are labeled by simple
transpositions, enumerates their labeled maximal chains, and computes the
set of reduced words read off those chains (the W-set of an element) both
directly and through the chain enumeration, so each side can check the
other.

Quick tour:

>>> from weakorder import Involution, build_poset, wset_direct
>>> top = Involution.from_cycles(4, [(1, 4), (2, 3)])
>>> sorted(str(w) for w in wset_direct("involution", top).members)
['[3,2,4,1]', '[3,4,1,2]', '[4,1,3,2]']
>>> len(build_poset("involution", 4))
10
"""

from . import matchings, posets, wsets
from .involutions import (
    Clan,
    FpfInvolution,
    Involution,
    clan_count,
    fpf_count,
    involution_count,
    rank_clan,
    rank_fpf,
    rank_involution,
    rs_step_fpf,
    rs_step_involution,
)
from .matchings import *
from .permutations import Permutation, ReducedWord
from .posets import *
from .wsets import *

__version__ = "0.1.0"

__all__ = [
    "Clan",
    "FpfInvolution",
    "Involution",
    "Permutation",
    "ReducedWord",
    "clan_count",
    "fpf_count",
    "involution_count",
    "rank_clan",
    "rank_fpf",
    "rank_involution",
    "rs_step_fpf",
    "rs_step_involution",
]
__all__ += matchings.__all__
__all__ += posets.__all__
__all__ += wsets.__all__
