"""Matchings, their statistics, and the labeled covering moves."""

from __future__ import annotations

import pytest

from conftest import brute_clans, brute_fpf, brute_involutions
from weakorder import (
    CoverType,
    Matching,
    bottom_element,
    build_poset,
    clan_of,
    crossings,
    fpf_of,
    involution_of,
    matching_length,
    matching_of,
    nestings,
    rank_clan,
    rank_fpf,
    rank_involution,
    rs_step_fpf,
    rs_step_involution,
    signed_matching_of,
    upward_covers_clan,
    upward_covers_fpf,
    upward_covers_involution,
)
from weakorder.involutions import Involution, bottom_fpf


class TestRoundTrips:
    def test_involution_round_trip(self) -> None:
        for pi in brute_involutions(6):
            m = matching_of(pi)
            assert involution_of(m) == pi
            assert set(m.strands) == set(pi.cycles)
            assert m.isolated == pi.fixed_points

    def test_fpf_round_trip(self) -> None:
        for pi in brute_fpf(6):
            assert fpf_of(matching_of(pi.as_involution())) == pi

    def test_clan_round_trip(self) -> None:
        for pi in brute_clans(2, 2):
            assert clan_of(signed_matching_of(pi)) == pi

    def test_partner(self) -> None:
        m = matching_of(Involution.from_cycles(4, [(1, 3)]))
        assert m.partner(1) == 3
        assert m.partner(3) == 1
        assert m.partner(2) is None

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            Matching(3, ((1, 2), (2, 3)), ())


class TestStatistics:
    def test_frozen_values(self) -> None:
        nested = matching_of(Involution.from_cycles(6, [(1, 6), (2, 5), (3, 4)]))
        assert (crossings(nested), nestings(nested)) == (0, 3)
        crossed = matching_of(Involution.from_cycles(4, [(1, 3), (2, 4)]))
        assert (crossings(crossed), nestings(crossed)) == (1, 0)
        assert matching_length(crossed) == 3

    def test_length_equals_involution_rank(self) -> None:
        for n in range(1, 7):
            for pi in brute_involutions(n):
                assert matching_length(matching_of(pi)) == rank_involution(pi)


class TestCoversInvolution:
    def test_covers_agree_with_monoid_step(self) -> None:
        for n in range(1, 7):
            for pi in brute_involutions(n):
                expected = {
                    (i, rs_step_involution(i, pi))
                    for i in range(1, n)
                    if rs_step_involution(i, pi) != pi
                }
                got = {
                    (i, involution_of(m))
                    for i, m, _ in upward_covers_involution(matching_of(pi))
                }
                assert got == expected

    def test_each_cover_raises_rank_by_one(self) -> None:
        for pi in brute_involutions(6):
            r = rank_involution(pi)
            for _, m, _ in upward_covers_involution(matching_of(pi)):
                assert rank_involution(involution_of(m)) == r + 1

    def test_top_has_no_covers(self) -> None:
        top = matching_of(Involution.from_cycles(5, [(1, 5), (2, 4)]))
        assert upward_covers_involution(top) == []

    def test_attach_is_type_two(self) -> None:
        m = matching_of(Involution.from_cycles(2, []))
        assert upward_covers_involution(m) == [
            (1, matching_of(Involution.from_cycles(2, [(1, 2)])), CoverType.II)
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
                got = {
                    (i, fpf_of(m))
                    for i, m, _ in upward_covers_fpf(matching_of(pi.as_involution()))
                }
                assert got == expected

    def test_only_swap_types_appear(self) -> None:
        for pi in brute_fpf(6):
            for _, _, t in upward_covers_fpf(matching_of(pi.as_involution())):
                assert t in (CoverType.IB, CoverType.IC1, CoverType.IC2)

    def test_foreign_cover_type_raises(self, monkeypatch) -> None:
        import weakorder.matchings

        monkeypatch.setattr(weakorder.matchings, "_cover_type", lambda w, i: CoverType.II)
        with pytest.raises(RuntimeError, match="has type II"):
            upward_covers_fpf(matching_of(bottom_fpf(4).as_involution()))

    def test_foreign_cover_type_raises_in_build(self, monkeypatch) -> None:
        import weakorder.matchings

        monkeypatch.setattr(weakorder.matchings, "_cover_type", lambda w, i: CoverType.II)
        with pytest.raises(RuntimeError, match=r"\(1,2\)\(3,4\) along 2 has type II"):
            build_poset("fpf", 4)

    def test_each_cover_raises_rank_by_one(self) -> None:
        for pi in brute_fpf(6):
            r = rank_fpf(pi)
            for _, m, _ in upward_covers_fpf(matching_of(pi.as_involution())):
                assert rank_fpf(fpf_of(m)) == r + 1


class TestCoversClan:
    def test_frozen_bottom_covers(self) -> None:
        got = {
            (i, clan_of(m).text(), t)
            for i, m, t in upward_covers_clan(
                signed_matching_of(bottom_element("clan", (2, 2)))
            )
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
                for _, m, _ in upward_covers_clan(signed_matching_of(pi)):
                    assert rank_clan(clan_of(m)) == r + 1

    def test_detach_emits_both_sign_orders(self) -> None:
        pi = bottom_element("clan", (1, 1))
        covers = upward_covers_clan(signed_matching_of(pi))
        assert {clan_of(m).text() for _, m, _ in covers} == {"(1+)(2-)", "(1-)(2+)"}
        assert all(t is CoverType.II for _, _, t in covers)
        assert [i for i, _, _ in covers] == [1, 1]

    def test_covers_preserve_signature(self) -> None:
        for pi in brute_clans(2, 2):
            for _, m, _ in upward_covers_clan(signed_matching_of(pi)):
                tau = clan_of(m)
                assert (tau.p, tau.q) == (2, 2)

    def test_maximal_clans_have_no_covers(self) -> None:
        for pi in brute_clans(2, 2):
            if rank_clan(pi) == 4:
                assert upward_covers_clan(signed_matching_of(pi)) == []
