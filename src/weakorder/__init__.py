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
    standard_form,
)
from .matchings import (
    CoverType,
    crossings,
    downward_covers_clan,
    downward_covers_fpf,
    downward_covers_involution,
    matching_length,
    nestings,
    upward_covers_clan,
    upward_covers_fpf,
    upward_covers_involution,
)
from .permutations import Permutation, ReducedWord
from .posets import (
    FAMILIES,
    Edge,
    Element,
    GradedReport,
    LabeledChain,
    WeakOrderPoset,
    bottom_element,
    build_lower_interval,
    build_poset,
    chain_count_identity,
    count_chains_below,
    count_maximal_chains,
    drop_cover_types,
    lower_interval,
    maximal_chains,
    verify_graded,
    wset_direct,
)
from .wsets import (
    WSet,
    check_conditions_involution,
    wset_clan,
    wset_fpf,
    wset_involution,
    wset_oracle,
    wstar,
)

__version__ = "0.1.0"

__all__ = [
    "Clan",
    "CoverType",
    "Edge",
    "Element",
    "FAMILIES",
    "FpfInvolution",
    "GradedReport",
    "Involution",
    "LabeledChain",
    "Permutation",
    "ReducedWord",
    "WSet",
    "WeakOrderPoset",
    "bottom_element",
    "build_lower_interval",
    "build_poset",
    "chain_count_identity",
    "check_conditions_involution",
    "clan_count",
    "count_chains_below",
    "count_maximal_chains",
    "crossings",
    "downward_covers_clan",
    "downward_covers_fpf",
    "downward_covers_involution",
    "drop_cover_types",
    "fpf_count",
    "involution_count",
    "lower_interval",
    "matching_length",
    "maximal_chains",
    "nestings",
    "rank_clan",
    "rank_fpf",
    "rank_involution",
    "rs_step_fpf",
    "rs_step_involution",
    "standard_form",
    "upward_covers_clan",
    "upward_covers_fpf",
    "upward_covers_involution",
    "verify_graded",
    "wset_clan",
    "wset_direct",
    "wset_fpf",
    "wset_involution",
    "wset_oracle",
    "wstar",
]
