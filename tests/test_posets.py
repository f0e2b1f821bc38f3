"""Poset construction, intervals, chain enumeration, gradedness checks."""

from __future__ import annotations

import ast
import dataclasses
import gc
from pathlib import Path

import pytest

from conftest import brute_clans, brute_fpf, brute_involutions
import weakorder.posets
from weakorder import (
    FAMILIES,
    CoverType,
    Involution,
    WeakOrderPoset,
    bottom_element,
    build_lower_interval,
    build_poset,
    count_maximal_chains,
    drop_cover_types,
    lower_interval,
    maximal_chains,
    rs_step_involution,
    verify_graded,
    wset_oracle,
)


def inv(n: int, *cycles: tuple[int, int]) -> Involution:
    return Involution.from_cycles(n, cycles)


class TestBuild:
    def test_small_involution_poset_shape(self) -> None:
        P = build_poset("involution", 4)
        assert (len(P.elements), len(P.edges)) == (10, 14)
        assert P.bottom == bottom_element("involution", 4)
        lo = P.index_of(inv(4, (1, 3), (2, 4)))
        hi = P.index_of(inv(4, (1, 4), (2, 3)))
        (edge,) = [e for e in P.edges if (e.lo, e.hi) == (lo, hi)]
        assert edge.labels == (1, 3)
        assert set(edge.types) <= set(CoverType)

    def test_elements_match_brute_enumeration(self) -> None:
        for n in range(1, 7):
            P = build_poset("involution", n)
            assert set(P.elements) == set(brute_involutions(n))
        for n in (2, 4, 6, 8):
            P = build_poset("fpf", n)
            assert set(P.elements) == set(brute_fpf(n))
        for p, q in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (1, 4)]:
            P = build_poset("clan", (p, q))
            assert set(P.elements) == set(brute_clans(p, q))

    def test_ranks_and_order(self) -> None:
        P = build_poset("fpf", 6)
        assert P.ranks[0] == 0
        assert list(P.ranks) == sorted(P.ranks)
        for e in P.edges:
            assert e.lo < e.hi
            assert P.ranks[e.hi] == P.ranks[e.lo] + 1
        assert max(P.ranks) == 6

    def test_deterministic(self) -> None:
        a = build_poset("clan", (2, 2))
        b = build_poset("clan", (2, 2))
        assert a.elements == b.elements
        assert a.edges == b.edges

    def test_membership_api(self) -> None:
        P = build_poset("involution", 4)
        x = inv(4, (1, 2))
        assert x in P
        assert P.rank_of(x) == 1
        assert inv(5, (1, 2)) not in P
        with pytest.raises(ValueError):
            P.index_of(inv(5, (1, 2)))

    def test_maximal_elements(self) -> None:
        assert build_poset("involution", 5).maximal_elements() == (
            inv(5, (1, 5), (2, 4)),
        )
        assert len(build_poset("clan", (2, 2)).maximal_elements()) == 6

    def test_rejects_unknown_family(self) -> None:
        with pytest.raises(ValueError):
            build_poset("matching", 4)

    @pytest.mark.parametrize(
        "family,param", [("involution", 5), ("fpf", 6), ("clan", (2, 3))]
    )
    def test_build_runs_on_words(self, monkeypatch, family, param) -> None:
        import weakorder.involutions
        import weakorder.matchings
        import weakorder.posets

        def refuse(*args, **kwargs):
            raise AssertionError("build_poset left the one-line words")

        for mod, name in [
            (weakorder.involutions, "rs_step_involution"),
            (weakorder.involutions, "rs_step_fpf"),
            (weakorder.matchings, "upward_covers_involution"),
            (weakorder.matchings, "upward_covers_fpf"),
            (weakorder.matchings, "upward_covers_clan"),
        ]:
            monkeypatch.setattr(mod, name, refuse)
        # every element construction checks its word once: the bottom's,
        # then one per closure word
        checked = []
        check = weakorder.involutions._check

        def counting(x):
            checked.append(x.word)
            return check(x)

        monkeypatch.setattr(weakorder.involutions, "_check", counting)
        P = build_poset(family, param)
        assert len(checked) == len(P) + 1
        assert checked[0] == P.bottom.word
        assert set(checked[1:]) == {x.word for x in P.elements}
        assert len(set(checked[1:])) == len(P)


class TestGcPause:
    """Both builders pause cyclic GC and hand back the caller's state."""

    TOP = inv(4, (1, 4), (2, 3))

    @pytest.fixture(autouse=True)
    def keep_gc_state(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    def test_enabled_stays_enabled(self) -> None:
        gc.enable()
        build_poset("involution", 4)
        assert gc.isenabled()
        build_lower_interval("involution", self.TOP)
        assert gc.isenabled()

    def test_disabled_stays_disabled(self) -> None:
        gc.disable()
        build_poset("involution", 4)
        assert not gc.isenabled()
        build_lower_interval("involution", self.TOP)
        assert not gc.isenabled()

    @pytest.mark.parametrize("move", ["up", "down"])
    def test_restored_after_a_raise(self, monkeypatch, move) -> None:
        seen = []

        def broken(w):
            seen.append(gc.isenabled())
            raise RuntimeError("broken move")

        fam = dataclasses.replace(weakorder.posets._FAMILY["involution"], **{move: broken})
        monkeypatch.setitem(weakorder.posets._FAMILY, "involution", fam)
        gc.enable()
        with pytest.raises(RuntimeError, match="broken move"):
            if move == "up":
                build_poset("involution", 4)
            else:
                build_lower_interval("involution", self.TOP)
        assert seen == [False]
        assert gc.isenabled()


class TestIntervals:
    def test_frozen_interval(self) -> None:
        P = build_poset("involution", 4)
        Q = lower_interval(P, inv(4, (1, 3), (2, 4)))
        assert set(Q.elements) == {
            inv(4),
            inv(4, (1, 2)),
            inv(4, (3, 4)),
            inv(4, (1, 2), (3, 4)),
            inv(4, (1, 3), (2, 4)),
        }
        assert not Q.complete

    def test_interval_below_top_is_everything(self) -> None:
        P = build_poset("involution", 4)
        Q = lower_interval(P, inv(4, (1, 4), (2, 3)))
        assert set(Q.elements) == set(P.elements)
        assert len(Q.edges) == len(P.edges)

    def test_interval_edges_stay_consistent(self) -> None:
        P = build_poset("clan", (2, 2))
        for x in P.elements:
            Q = lower_interval(P, x)
            for e in Q.edges:
                assert Q.ranks[e.hi] == Q.ranks[e.lo] + 1


class TestChains:
    def test_frozen_small_chains(self) -> None:
        P = build_poset("involution", 3)
        top = inv(3, (1, 3))
        assert [c.labels for c in maximal_chains(P, top)] == [(1, 2), (2, 1)]
        assert count_maximal_chains(P, top) == 2

    def test_chain_count_to_top(self) -> None:
        P = build_poset("involution", 4)
        assert count_maximal_chains(P, inv(4, (1, 4), (2, 3))) == 8

    def test_chain_to_bottom_is_empty(self) -> None:
        P = build_poset("involution", 4)
        chains = list(maximal_chains(P, P.bottom))
        assert len(chains) == 1
        assert chains[0].labels == ()
        assert chains[0].elements == (P.bottom,)
        assert count_maximal_chains(P, P.bottom) == 1

    def test_chains_walk_edges(self) -> None:
        for family, param in [("involution", 4), ("fpf", 6), ("clan", (2, 2))]:
            P = build_poset(family, param)
            with_labels = {
                (e.lo, e.hi): e.labels for e in P.edges
            }
            for x in P.elements:
                n_chains = 0
                for c in maximal_chains(P, x):
                    n_chains += 1
                    assert c.elements[0] == P.bottom
                    assert c.elements[-1] == x
                    assert len(c.labels) == len(c.elements) - 1
                    for a, b, lab in zip(c.elements, c.elements[1:], c.labels):
                        assert lab in with_labels[(P.index_of(a), P.index_of(b))]
                assert n_chains == count_maximal_chains(P, x)

    def test_chain_steps_follow_the_monoid(self) -> None:
        P = build_poset("involution", 4)
        for x in P.elements:
            for c in maximal_chains(P, x):
                walked = P.bottom
                for lab in c.labels:
                    walked = rs_step_involution(lab, walked)
                assert walked == x

    def test_counting_in_intervals(self) -> None:
        P = build_poset("involution", 5)
        for x in P.elements:
            Q = lower_interval(P, x)
            assert count_maximal_chains(Q, x) == count_maximal_chains(P, x)

    def test_nothing_reaches_x_from_a_bottom_cut_off(self) -> None:
        # without attach covers no edge leaves the identity, so no x above
        # it has a chain from the bottom, and the bottom has its empty one
        Q = drop_cover_types(build_poset("involution", 4), {CoverType.II})
        for x in Q.elements[1:]:
            assert lower_interval(Q, x).bottom != Q.bottom
            assert count_maximal_chains(Q, x) == 0
            assert list(maximal_chains(Q, x)) == []
            assert len(wset_oracle(Q, x)) == 0
        assert [c.labels for c in maximal_chains(Q, Q.bottom)] == [()]
        assert count_maximal_chains(Q, Q.bottom) == 1
        assert len(wset_oracle(Q, Q.bottom)) == 1


class TestGradedness:
    def test_reports_are_clean(self) -> None:
        for family, param in [
            ("involution", 5),
            ("fpf", 6),
            ("clan", (2, 2)),
            ("clan", (1, 3)),
        ]:
            report = verify_graded(build_poset(family, param))
            assert report.ok, report.violations
            assert report.n_elements == len(build_poset(family, param))

    def test_detects_corrupted_ranks(self) -> None:
        P = build_poset("involution", 3)
        wrong = list(P.ranks)
        wrong[-1] += 1
        Q = WeakOrderPoset("involution", 3, P.elements, tuple(wrong), P.edges, True)
        assert not verify_graded(Q).ok

    def test_detects_missing_elements(self) -> None:
        P = build_poset("involution", 3)
        Q = WeakOrderPoset(
            "involution", 3, P.elements[:-1], P.ranks[:-1], P.edges[:-2], True
        )
        assert not verify_graded(Q).ok


class TestDropCoverTypes:
    def test_drop_nothing(self) -> None:
        P = build_poset("involution", 4)
        Q = drop_cover_types(P, ())
        assert Q.edges == P.edges

    def test_drop_everything(self) -> None:
        P = build_poset("involution", 4)
        Q = drop_cover_types(P, set(CoverType))
        assert Q.edges == ()
        assert Q.elements == P.elements
        assert not Q.complete

    def test_drop_filters_labels(self) -> None:
        P = build_poset("involution", 5)
        kinds = {CoverType.IC1, CoverType.IC2}
        Q = drop_cover_types(P, kinds)
        for e in Q.edges:
            assert all(t not in kinds for t in e.types)
        dropped = {(e.lo, e.hi) for e in P.edges} - {(e.lo, e.hi) for e in Q.edges}
        assert dropped, "expected at least one pure swap edge in this poset"


# every size the layout and text tests sweep: involutions n <= 6, fpf n <= 8,
# clans p+q <= 6
_SIZES = (
    [("involution", n) for n in range(1, 7)]
    + [("fpf", n) for n in range(2, 9, 2)]
    + [("clan", (p, t - p)) for t in range(2, 7) for p in range(1, t)]
)


def _derived(P: WeakOrderPoset):
    """Every poset derived from P: each lower interval, taken from P and built
    down from its top, and the copies without each cover type."""
    for x in P.elements:
        yield lower_interval(P, x)
        yield build_lower_interval(P.family, x)
    for kind in CoverType:
        yield drop_cover_types(P, {kind})


class TestLayout:
    """The edge layout every consumer reads, with no global sort behind it."""

    @staticmethod
    def check_layout(P: WeakOrderPoset) -> None:
        keys = [(e.lo, e.hi) for e in P.edges]
        assert all(a < b for a, b in zip(keys, keys[1:])), "edges not strictly increasing"
        for e in P.edges:
            assert all(a < b for a, b in zip(e.labels, e.labels[1:])), e
            assert len(e.types) == len(e.labels), e
        for j in range(len(P)):
            assert [id(e) for e in P.up[j]] == [id(e) for e in P.edges if e.lo == j]
            assert [id(e) for e in P.down[j]] == [id(e) for e in P.edges if e.hi == j]

    @pytest.mark.parametrize("family, param", _SIZES)
    def test_edges_sorted_labels_ascending_adjacency_shared(self, family, param) -> None:
        P = build_poset(family, param)
        self.check_layout(P)
        for Q in _derived(P):
            self.check_layout(Q)

    @pytest.mark.parametrize("family, param", _SIZES)
    def test_types_classify_each_label_from_the_lower_word(self, family, param) -> None:
        P = build_poset(family, param)
        for e in P.edges:
            w = P.elements[e.lo].word
            assert e.types == tuple(weakorder.matchings._cover_type(w, i) for i in e.labels)

    @pytest.mark.parametrize("family, param", _SIZES)
    def test_lower_interval_ends_at_x(self, family, param) -> None:
        P = build_poset(family, param)
        for x in P.elements:
            assert lower_interval(P, x).elements[-1] == x

    @pytest.mark.parametrize("build", ["poset", "interval"])
    def test_one_label_edges_share_their_tuples(self, build) -> None:
        P = build_poset("fpf", 8)
        if build == "interval":
            P = build_lower_interval("fpf", P.elements[-1])
        single = [e for e in P.edges if len(e.labels) == 1]
        assert single and len(single) < len(P.edges)  # multi-label edges too
        labels: dict[tuple, set[int]] = {}
        types: dict[tuple, set[int]] = {}
        for e in single:
            labels.setdefault(e.labels, set()).add(id(e.labels))
            types.setdefault(e.types, set()).add(id(e.types))
        assert all(len(ids) == 1 for ids in labels.values()), "a label has two tuples"
        assert all(len(ids) == 1 for ids in types.values()), "a cover type has two tuples"
        assert len({id(e.labels) for e in single}) <= 8 - 1

    def test_edge_fields_and_tuple_api(self) -> None:
        assert weakorder.posets.Edge._fields == ("lo", "hi", "labels", "types")
        P = build_poset("involution", 4)
        for e in P.edges:
            lo, hi, labels, types = e
            assert (e.lo, e.hi, e.labels, e.types) == (lo, hi, labels, types)
            assert e == (lo, hi, labels, types)


class TestTexts:
    @pytest.mark.parametrize("family, param", _SIZES)
    def test_built_and_derived_posets_carry_their_texts(self, family, param) -> None:
        P = build_poset(family, param)
        assert list(P.texts) == [e.text() for e in P.elements]
        for Q in _derived(P):
            assert list(Q.texts) == [e.text() for e in Q.elements]

    def test_derived_posets_reuse_the_texts(self, monkeypatch) -> None:
        P = build_poset("fpf", 8)
        top = P.elements[-1]
        calls = []

        def counted(x, text=Involution.text):
            calls.append(x.word)
            return text(x)

        monkeypatch.setattr(Involution, "text", counted)
        lower_interval(P, top)
        drop_cover_types(P, {CoverType.IB})
        assert calls == []
        Q = build_lower_interval("fpf", top)
        assert sorted(calls) == sorted(x.word for x in Q.elements)

    def test_six_positional_arguments_still_build_a_poset(self) -> None:
        P = build_poset("involution", 3)
        Q = WeakOrderPoset("involution", 3, P.elements, P.ranks, P.edges, True)
        assert Q.texts == P.texts
        assert (Q.up, Q.down) == (P.up, P.down)
        assert [Q.index_of(x) for x in P.elements] == list(range(len(P)))
        assert verify_graded(Q).ok


def _family_tests(tree: ast.AST) -> list[int]:
    """Lines that compare with a family name (or the CLI's "inv"), directly
    or as a member of a literal tuple, list or set, match one as a case, or
    key a dict by one, outside the ``_FAMILY`` table and ``_build_parser``."""
    names = {*FAMILIES, "inv"}
    allowed: set[int] = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "_FAMILY" for t in node.targets)
        ) or (isinstance(node, ast.FunctionDef) and node.name == "_build_parser"):
            allowed.update(map(id, ast.walk(node)))
    lines: list[int] = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        elif isinstance(node, ast.MatchValue):
            operands = [node.value]
        elif isinstance(node, ast.Dict):
            operands = [k for k in node.keys if k is not None]
        else:
            continue
        for op in operands:
            for leaf in [op, *getattr(op, "elts", ())]:
                if isinstance(leaf, ast.Constant) and leaf.value in names:
                    lines.append(node.lineno)
    return sorted(set(lines))


def test_family_facts_only_in_the_table() -> None:
    # every per-family fact is a column of posets._FAMILY; a branch on the
    # name elsewhere would be a second place to change for a new fact
    src = Path(weakorder.posets.__file__).parent
    found = {
        path.name: lines
        for path in sorted(src.glob("*.py"))
        if (lines := _family_tests(ast.parse(path.read_text())))
    }
    assert found == {}


def test_family_test_finder_sees_each_form() -> None:
    code = """
if family == "fpf": pass
if "clan" != x: pass
if family in ("involution", "fpf"): pass
if args.family == "inv": pass
caps = {"involution": 6}
match family:
    case "clan": pass
_FAMILY = {"involution": 1, "fpf": 2}
def _build_parser():
    return lambda s: "involution" if s == "inv" else s
if family == "all" or kind in ("p", "q"): pass
"""
    assert _family_tests(ast.parse(code)) == [2, 3, 4, 5, 6, 8]
