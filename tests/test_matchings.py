"""The matching statistics of elements, and the labeled covering moves."""

from __future__ import annotations

import pytest

from conftest import brute_clans, brute_fpf, brute_involutions
from weakorder import (
    CoverType,
    bottom_element,
    build_lower_interval,
    build_poset,
    crossings,
    matching_length,
    nestings,
    rank_clan,
    rank_fpf,
    rank_involution,
    rs_step_fpf,
    rs_step_involution,
    upward_covers_clan,
    upward_covers_fpf,
    upward_covers_involution,
)
from weakorder.involutions import Clan, FpfInvolution, Involution, bottom_fpf


class TestRoundTrips:
    def test_involution_round_trip(self) -> None:
        for pi in brute_involutions(6):
            w = pi.word
            assert Involution(w) == pi
            assert {(a, w[a - 1]) for a in range(1, 7) if w[a - 1] > a} == set(pi.cycles)
            assert tuple(a for a in range(1, 7) if w[a - 1] == a) == pi.fixed_points

    def test_fpf_round_trip(self) -> None:
        for pi in brute_fpf(6):
            assert FpfInvolution(pi.as_involution().word) == pi

    def test_clan_round_trip(self) -> None:
        for pi in brute_clans(2, 2):
            assert Clan(pi.word) == pi

    def test_partner(self) -> None:
        pi = Involution.from_cycles(4, [(1, 3)])
        assert pi.image(1) == 3
        assert pi.image(3) == 1
        assert pi.image(2) == 2

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            Involution((2, 3, 2))


class TestStatistics:
    def test_frozen_values(self) -> None:
        nested = Involution.from_cycles(6, [(1, 6), (2, 5), (3, 4)])
        assert (crossings(nested), nestings(nested)) == (0, 3)
        crossed = Involution.from_cycles(4, [(1, 3), (2, 4)])
        assert (crossings(crossed), nestings(crossed)) == (1, 0)
        assert matching_length(crossed) == 3

    def test_length_equals_involution_rank(self) -> None:
        for n in range(1, 7):
            for pi in brute_involutions(n):
                assert matching_length(pi) == rank_involution(pi)


class TestCoversInvolution:
    def test_covers_agree_with_monoid_step(self) -> None:
        for n in range(1, 7):
            for pi in brute_involutions(n):
                expected = {
                    (i, rs_step_involution(i, pi))
                    for i in range(1, n)
                    if rs_step_involution(i, pi) != pi
                }
                got = {(i, tau) for i, tau, _ in upward_covers_involution(pi)}
                assert got == expected

    def test_each_cover_raises_rank_by_one(self) -> None:
        for pi in brute_involutions(6):
            r = rank_involution(pi)
            for _, tau, _ in upward_covers_involution(pi):
                assert rank_involution(tau) == r + 1

    def test_top_has_no_covers(self) -> None:
        top = Involution.from_cycles(5, [(1, 5), (2, 4)])
        assert upward_covers_involution(top) == []

    def test_attach_is_type_two(self) -> None:
        pi = Involution.from_cycles(2, [])
        assert upward_covers_involution(pi) == [
            (1, Involution.from_cycles(2, [(1, 2)]), CoverType.II)
        ]


class TestCoversFpf:
    def test_covers_agree_with_monoid_step(self) -> None:
        for n in (2, 4, 6):
            for pi in brute_fpf(n):
                expected = {
                    (i, rs_step_fpf(i, pi))
                    for i in range(1, n)
                    if rs_step_fpf(i, pi) != pi
                }
                got = {(i, tau) for i, tau, _ in upward_covers_fpf(pi)}
                assert got == expected

    def test_only_swap_types_appear(self) -> None:
        for pi in brute_fpf(6):
            for _, _, t in upward_covers_fpf(pi):
                assert t in (CoverType.IB, CoverType.IC1, CoverType.IC2)

    def test_foreign_cover_type_raises(self, monkeypatch) -> None:
        import weakorder.matchings

        monkeypatch.setattr(weakorder.matchings, "_cover_type", lambda w, i: CoverType.II)
        with pytest.raises(RuntimeError, match="has type II"):
            upward_covers_fpf(bottom_fpf(4))

    def test_foreign_cover_type_raises_in_build(self, monkeypatch) -> None:
        import weakorder.matchings

        monkeypatch.setattr(weakorder.matchings, "_cover_type", lambda w, i: CoverType.II)
        with pytest.raises(RuntimeError, match=r"\(1,2\)\(3,4\) along 2 has type II"):
            build_poset("fpf", 4)

    def test_foreign_cover_type_raises_in_interval(self, monkeypatch) -> None:
        import weakorder.matchings

        monkeypatch.setattr(weakorder.matchings, "_cover_type", lambda w, i: CoverType.II)
        x = FpfInvolution.from_cycles(4, [(1, 3), (2, 4)])
        with pytest.raises(RuntimeError, match=r"\(1,2\)\(3,4\) along 2 has type II"):
            build_lower_interval("fpf", x)

    def test_build_classifies_each_label_once(self, monkeypatch) -> None:
        import sys

        import weakorder.matchings

        original = weakorder.matchings._cover_type
        calls = []

        def counted(w, i):
            calls.append(i)
            return original(w, i)

        for name, module in list(sys.modules.items()):
            held = getattr(module, "_cover_type", None)
            if name.split(".")[0] == "weakorder" and held is original:
                monkeypatch.setattr(module, "_cover_type", counted)
        P = build_poset("fpf", 8)
        assert len(calls) == sum(len(e.labels) for e in P.edges)

    def test_each_cover_raises_rank_by_one(self) -> None:
        for pi in brute_fpf(6):
            r = rank_fpf(pi)
            for _, tau, _ in upward_covers_fpf(pi):
                assert rank_fpf(tau) == r + 1


class TestCoversClan:
    def test_frozen_bottom_covers(self) -> None:
        got = {
            (i, tau.text(), t)
            for i, tau, t in upward_covers_clan(bottom_element("clan", (2, 2)))
        }
        assert got == {
            (1, "(1,3)(2,4)", CoverType.IC1),
            (2, "(1,4)(2+)(3-)", CoverType.II),
            (2, "(1,4)(2-)(3+)", CoverType.II),
            (3, "(1,3)(2,4)", CoverType.IC2),
        }

    def test_each_cover_raises_rank_by_one(self) -> None:
        for p, q in [(1, 1), (1, 2), (2, 2), (1, 3)]:
            for pi in brute_clans(p, q):
                r = rank_clan(pi)
                for _, tau, _ in upward_covers_clan(pi):
                    assert rank_clan(tau) == r + 1

    def test_detach_emits_both_sign_orders(self) -> None:
        pi = bottom_element("clan", (1, 1))
        covers = upward_covers_clan(pi)
        assert {tau.text() for _, tau, _ in covers} == {"(1+)(2-)", "(1-)(2+)"}
        assert all(t is CoverType.II for _, _, t in covers)
        assert [i for i, _, _ in covers] == [1, 1]

    def test_covers_preserve_signature(self) -> None:
        for pi in brute_clans(2, 2):
            for _, tau, _ in upward_covers_clan(pi):
                assert (tau.p, tau.q) == (2, 2)

    def test_maximal_clans_have_no_covers(self) -> None:
        for pi in brute_clans(2, 2):
            if rank_clan(pi) == 4:
                assert upward_covers_clan(pi) == []


_INV = Involution.from_cycles(3, [(1, 2)])
_FPF = FpfInvolution.from_cycles(2, [(1, 2)])
_CLAN = Clan.from_parts(3, [(1, 2)], {3: 1})


@pytest.mark.parametrize(
    "covers, x, want",
    [
        (upward_covers_involution, _FPF, "needs an Involution, got FpfInvolution"),
        (upward_covers_involution, _CLAN, "needs an Involution, got Clan"),
        (upward_covers_fpf, _INV, "needs a FpfInvolution, got Involution"),
        (upward_covers_fpf, _CLAN, "needs a FpfInvolution, got Clan"),
        (upward_covers_clan, _INV, "needs a Clan, got Involution"),
        (upward_covers_clan, _FPF, "needs a Clan, got FpfInvolution"),
    ],
)
def test_covers_reject_another_family(covers, x, want) -> None:
    # each family's covers take exactly its element type, as build_poset does
    name = covers.__name__.removeprefix("upward_covers_")
    with pytest.raises(ValueError, match=f"family '{name}' {want}"):
        covers(x)
