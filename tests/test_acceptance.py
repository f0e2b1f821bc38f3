"""Acceptance gate: ten checks, each printing one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced.  Every check is exact (no tolerances) and carries a wall-clock
budget; a check fails if its content is wrong or its budget is exceeded.
"""

from __future__ import annotations

import itertools
import time

from conftest import words_from_digits
from weakorder import (
    Clan,
    CoverType,
    FpfInvolution,
    Involution,
    bottom_element,
    build_poset,
    chain_count_identity,
    drop_cover_types,
    matching_length,
    rank_clan,
    rank_involution,
    rs_step_involution,
    upward_covers_clan,
    verify_graded,
    wset_clan,
    wset_direct,
    wset_fpf,
    wset_involution,
    wset_oracle,
    wstar,
)
from weakorder.permutations import (
    Permutation,
    compose,
    length,
    reduced_words,
)


def _finish(num: int, label: str, problems: list[str], started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    ok = not problems and elapsed < budget
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} "
          f"[{elapsed:6.2f}s / {budget:.0f}s] {label}")
    assert not problems, f"criterion {num}: " + "; ".join(problems[:5])
    assert elapsed < budget, f"criterion {num} exceeded {budget:.0f}s: {elapsed:.2f}s"


def _clan_params(cap: int) -> list[tuple[int, int]]:
    return [(p, t - p) for t in range(2, cap + 1) for p in range(1, t)]


def test_criterion_01_involution_wsets() -> None:
    started = time.perf_counter()
    cases = [
        (Involution.from_cycles(4, [(1, 4), (2, 3)]),
         words_from_digits("3241", "3412", "4132")),
        (Involution.from_cycles(5, [(1, 3), (2, 5)]),
         words_from_digits("31452", "31524")),
        (Involution.from_cycles(8, [(1, 6), (3, 7), (4, 8)]),
         words_from_digits("25617384", "26157384", "26173584", "26173845",
                           "61257384", "61273584", "61273845")),
    ]
    problems = [
        f"{pi.text()}: got {sorted(str(w) for w in wset_involution(pi).members)}"
        for pi, want in cases
        if set(wset_involution(pi).members) != want
    ]
    _finish(1, "known involution W-sets, exact", problems, started, 1.0)


def test_criterion_02_fpf_wsets() -> None:
    started = time.perf_counter()
    cases = [
        (FpfInvolution.from_cycles(6, [(1, 6), (2, 5), (3, 4)]),
         words_from_digits("162534", "163425", "251634", "253416", "341625", "342516")),
        (FpfInvolution.from_cycles(8, [(1, 6), (2, 3), (4, 8), (5, 7)]),
         words_from_digits("16234857", "23164857", "16235748", "23165748")),
        (FpfInvolution.from_cycles(8, [(1, 5), (2, 7), (3, 8), (4, 6)]),
         words_from_digits("15273846", "15274638", "15462738")),
    ]
    problems = [
        f"{pi.text()}: got {sorted(str(w) for w in wset_fpf(pi).members)}"
        for pi, want in cases
        if set(wset_fpf(pi).members) != want
    ]
    _finish(2, "known fixed-point-free W-sets, exact", problems, started, 1.0)


def test_criterion_03_clan_wsets() -> None:
    started = time.perf_counter()
    cases = [
        (Clan.from_parts(4, [], {1: 1, 2: -1, 3: 1, 4: 1}),
         words_from_digits("2341", "3142")),
        (Clan.from_parts(7, [(1, 6), (2, 3)], {4: 1, 5: -1, 7: 1}),
         words_from_digits("1257436", "1274536", "1527346", "1724356")),
        (Clan.from_parts(6, [(1, 4), (2, 6), (3, 5)], {}),
         words_from_digits("123564", "213546", "231456")),
        (Clan.from_parts(6, [], {1: 1, 2: -1, 3: -1, 4: 1, 5: 1, 6: 1}),
         words_from_digits("245631", "425613", "451623")),
    ]
    problems = [
        f"{pi.text()}: got {sorted(str(w) for w in wset_clan(pi).members)}"
        for pi, want in cases
        if set(wset_clan(pi).members) != want
    ]
    _finish(3, "known clan W-sets, exact", problems, started, 1.0)


def test_criterion_04_poset_shapes() -> None:
    started = time.perf_counter()
    problems: list[str] = []

    P = build_poset("involution", 4)
    if (len(P.elements), len(P.edges)) != (10, 14):
        problems.append(f"involution n=4 shape {(len(P.elements), len(P.edges))}")
    lo = P.index_of(Involution.from_cycles(4, [(1, 3), (2, 4)]))
    hi = P.index_of(Involution.from_cycles(4, [(1, 4), (2, 3)]))
    labels = [e.labels for e in P.edges if (e.lo, e.hi) == (lo, hi)]
    if labels != [(1, 3)]:
        problems.append(f"crossing-to-nesting edge labels {labels}")

    F = build_poset("fpf", 6)
    if len(F.elements) != 15 or max(F.ranks) != 6:
        problems.append(f"fpf n=6 shape ({len(F.elements)}, top rank {max(F.ranks)})")

    C = build_poset("clan", (2, 2))
    if len(C.elements) != 21 or len(C.maximal_elements()) != 6:
        problems.append(
            f"clan (2,2) shape ({len(C.elements)}, {len(C.maximal_elements())} maximal)"
        )

    _finish(4, "poset shapes and the doubly-labeled edge", problems, started, 1.0)


def test_criterion_05_direct_equals_oracle() -> None:
    started = time.perf_counter()
    problems: list[str] = []
    jobs = [("involution", n) for n in range(1, 8)]
    jobs += [("fpf", n) for n in (2, 4, 6, 8)]
    jobs += [("clan", pq) for pq in _clan_params(6)]
    for family, param in jobs:
        P = build_poset(family, param)
        for x in P.elements:
            if wset_direct(family, x).members != wset_oracle(P, x).members:
                problems.append(f"{family} {param}: mismatch at {x.text()}")
    _finish(5, "direct W-sets equal the chain oracle everywhere", problems, started, 60.0)


def test_criterion_06_matching_length_is_rank() -> None:
    started = time.perf_counter()
    problems = [
        f"mismatch at {pi.text()} (n={n})"
        for n in range(1, 8)
        for pi in build_poset("involution", n).elements
        if matching_length(pi) != rank_involution(pi)
    ]
    _finish(6, "matching length equals involution rank, n <= 7", problems, started, 5.0)


def test_criterion_07_chain_count_identity() -> None:
    started = time.perf_counter()
    problems: list[str] = []
    for family, param in [("involution", 5), ("fpf", 6), ("clan", (2, 2))]:
        P = build_poset(family, param)
        for x in P.elements:
            chains, words, ok = chain_count_identity(P, x)
            if not ok:
                problems.append(
                    f"{family} {param} at {x.text()}: {chains} chains vs {words} words"
                )
    _finish(7, "chain counts equal reduced-word counts over W-sets", problems, started, 30.0)


def test_criterion_08_fpf_embedding() -> None:
    started = time.perf_counter()
    problems: list[str] = []
    for n in (2, 4, 6, 8):
        w_star = wstar(n)
        alpha = bottom_element("fpf", n).as_involution()
        if wset_involution(alpha).members != (w_star,):
            problems.append(f"bottom W-set at n={n} is not exactly the linking element")
        for pi in build_poset("fpf", n).elements:
            small = wset_fpf(pi).members
            big = set(wset_involution(pi.as_involution()).members)
            prods = {compose(v, w_star) for v in small}
            if len(prods) != len(small):
                problems.append(f"products collide at {pi.text()}")
            if not prods <= big:
                problems.append(f"products escape the involution W-set at {pi.text()}")
            if any(length(compose(v, w_star)) != length(v) + length(w_star) for v in small):
                problems.append(f"length not additive at {pi.text()}")
    _finish(8, "fpf W-sets embed into involution W-sets, n <= 8", problems, started, 10.0)


def test_criterion_09_gradedness_and_cover_types() -> None:
    started = time.perf_counter()
    problems: list[str] = []

    jobs = [("involution", n) for n in range(1, 8)]
    jobs += [("fpf", n) for n in (2, 4, 6, 8)]
    jobs += [("clan", pq) for pq in _clan_params(6)]
    for family, param in jobs:
        report = verify_graded(build_poset(family, param))
        problems += [f"{family} {param}: {v}" for v in report.violations]

    for pq in _clan_params(6):
        for pi in build_poset("clan", pq).elements:
            r = rank_clan(pi)
            for _, tau, _ in upward_covers_clan(pi):
                if rank_clan(tau) != r + 1:
                    problems.append(f"clan cover off by one above {pi.text()}")

    for n in range(1, 6):
        P = build_poset("involution", n)
        Q = drop_cover_types(P, {CoverType.IC1, CoverType.IC2})
        for x in P.elements:
            if wset_oracle(Q, x).members != wset_direct("involution", x).members:
                problems.append(f"dropping swap edges changes the W-set at {x.text()} (n={n})")

    _finish(9, "graded posets, unit rank steps, redundant swap edges", problems, started, 30.0)


def test_criterion_10_word_action_well_defined() -> None:
    started = time.perf_counter()
    problems: list[str] = []
    pis = build_poset("involution", 6).elements
    for word6 in itertools.permutations(range(1, 7)):
        w = Permutation(word6)
        if length(w) > 5:
            continue
        words = reduced_words(w)
        for pi in pis:
            results = set()
            for word in words:
                got = pi
                for i in reversed(word):
                    got = rs_step_involution(i, got)
                results.add(got)
            if len(results) != 1:
                problems.append(f"action of {w} splits on {pi.text()}")
    _finish(10, "monoid action independent of the reduced word chosen", problems, started, 30.0)
