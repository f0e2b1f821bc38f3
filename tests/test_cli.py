"""Element parsing, exports, and the command-line entry points."""

from __future__ import annotations

import json

import pytest

from conftest import brute_clans, brute_involutions
from weakorder import Clan, FpfInvolution, Involution, build_poset
from weakorder.cli import export_dot, export_json, parse_element, run


class TestParseElement:
    def test_involution(self) -> None:
        pi = parse_element("(1,4)(2,3)", "involution", n=5)
        assert pi == Involution.from_cycles(5, [(1, 4), (2, 3)])
        assert parse_element("id", "involution", n=3) == Involution.from_cycles(3, [])
        assert parse_element(" (2, 5) ( 1 , 3 )", "involution", n=5).text() == "(1,3)(2,5)"

    def test_involution_needs_n(self) -> None:
        with pytest.raises(ValueError, match="n is required"):
            parse_element("(1,2)", "involution")

    def test_fpf_infers_n(self) -> None:
        pi = parse_element("(1,4)(2,3)", "fpf")
        assert pi == FpfInvolution.from_cycles(4, [(1, 4), (2, 3)])

    def test_clan_infers_n_and_signature(self) -> None:
        pi = parse_element("(1,6)(2,3)(4+)(5-)(7+)", "clan")
        assert isinstance(pi, Clan)
        assert (pi.n, pi.p, pi.q) == (7, 4, 3)

    def test_round_trip_through_text(self) -> None:
        for pi in brute_involutions(5):
            assert parse_element(pi.text(), "involution", n=5) == pi
        for pi in brute_clans(2, 2):
            assert parse_element(pi.text(), "clan") == pi

    def test_rejects_malformed(self) -> None:
        with pytest.raises(ValueError, match="malformed"):
            parse_element("(1,2", "involution", n=3)
        with pytest.raises(ValueError, match="malformed"):
            parse_element("1,2", "involution", n=3)
        with pytest.raises(ValueError, match="empty"):
            parse_element("  ", "involution", n=3)

    def test_rejects_repeats(self) -> None:
        with pytest.raises(ValueError, match="repeats"):
            parse_element("(2,2)", "involution", n=3)
        with pytest.raises(ValueError, match="more than once"):
            parse_element("(1,2)(2,3)", "involution", n=3)

    def test_rejects_out_of_range(self) -> None:
        with pytest.raises(ValueError, match="out of range"):
            parse_element("(1,7)", "involution", n=4)

    def test_rejects_signs_outside_clans(self) -> None:
        with pytest.raises(ValueError, match="only valid for clans"):
            parse_element("(1,2)(3+)", "involution", n=3)

    def test_rejects_incomplete_clan(self) -> None:
        with pytest.raises(ValueError, match="missing"):
            parse_element("(1,2)", "clan", n=3)

    def test_rejects_fpf_with_fixed_points(self) -> None:
        with pytest.raises(ValueError, match="fixed points"):
            parse_element("(1,2)", "fpf", n=4)

    def test_rejects_id_outside_involutions(self) -> None:
        with pytest.raises(ValueError, match="id"):
            parse_element("id", "clan", n=2)

    def test_rejects_unknown_family(self) -> None:
        with pytest.raises(ValueError, match="unknown family"):
            parse_element("(1,2)", "matching", n=2)


class TestExports:
    def test_dot_shape(self) -> None:
        P = build_poset("involution", 3)
        dot = export_dot(P)
        assert dot.startswith("digraph {\n  rankdir=BT;")
        assert '0 [label="id"];' in dot
        assert dot.rstrip().endswith("}")
        assert 'label="involution n=3"' in dot

    def test_dot_marks_attachments_bold(self) -> None:
        dot = export_dot(build_poset("involution", 2))
        assert "style=bold" in dot

    def test_json_schema(self) -> None:
        P = build_poset("clan", (1, 1))
        data = json.loads(export_json(P))
        assert data["family"] == "clan"
        assert data["params"] == {"p": 1, "q": 1}
        assert [e["rank"] for e in data["elements"]] == [0, 1, 1]
        assert all(set(e) == {"id", "text", "rank"} for e in data["elements"])
        assert all(set(e) == {"lo", "hi", "labels", "types"} for e in data["edges"])
        texts = {e["text"] for e in data["elements"]}
        assert texts == {"(1,2)", "(1+)(2-)", "(1-)(2+)"}
        assert all(e["types"] == ["II"] for e in data["edges"])

    def test_json_int_params(self) -> None:
        data = json.loads(export_json(build_poset("fpf", 4)))
        assert data["params"] == {"n": 4}
        assert len(data["elements"]) == 3


class TestRunWset:
    def test_plain(self, capsys) -> None:
        assert run(["wset", "--family", "inv", "--n", "4", "--element", "(1,4)(2,3)"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["[3,2,4,1]", "[3,4,1,2]", "[4,1,3,2]"]

    def test_compact(self, capsys) -> None:
        code = run(
            ["wset", "--family", "inv", "--n", "4", "--element", "(1,4)(2,3)", "--compact"]
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines() == ["3241", "3412", "4132"]

    def test_compact_rejected_for_wide_elements(self, capsys) -> None:
        code = run(
            ["wset", "--family", "inv", "--n", "10", "--element", "(1,2)", "--compact"]
        )
        assert code == 2
        assert "n <= 9" in capsys.readouterr().err

    def test_json(self, capsys) -> None:
        code = run(
            ["wset", "--family", "fpf", "--element", "(1,4)(2,3)", "--json"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["family"] == "fpf"
        assert data["element"] == "(1,4)(2,3)"
        assert data["rank"] == 2
        assert data["members"] == [[1, 4, 2, 3], [2, 3, 1, 4]]

    def test_bad_element_exits_2(self, capsys) -> None:
        assert run(["wset", "--family", "inv", "--n", "3", "--element", "(1,9)"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_json_and_plain_agree(self, capsys) -> None:
        argv = ["wset", "--family", "inv", "--n", "5", "--element", "(1,3)(2,5)"]
        assert run(argv) == 0
        plain = capsys.readouterr().out.splitlines()
        assert run(argv + ["--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        from_json = ["[" + ",".join(map(str, w)) + "]" for w in data["members"]]
        assert plain == from_json

    def test_clan_signature_cross_check(self, capsys) -> None:
        code = run(
            [
                "wset",
                "--family",
                "clan",
                "--element",
                "(1,4)(2,3)",
                "--p",
                "3",
                "--q",
                "1",
            ]
        )
        assert code == 2
        assert "signature" in capsys.readouterr().err


class TestRunChains:
    def test_plain_lists_label_words(self, capsys) -> None:
        assert run(["chains", "--family", "inv", "--n", "3", "--element", "(1,3)"]) == 0
        assert capsys.readouterr().out.splitlines() == ["1,2", "2,1"]

    def test_count(self, capsys) -> None:
        code = run(
            ["chains", "--family", "inv", "--n", "4", "--element", "(1,4)(2,3)", "--count"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "8"

    def test_json(self, capsys) -> None:
        code = run(
            ["chains", "--family", "clan", "--element", "(1+)(2-)", "--json"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["count"] == 1
        assert data["chains"] == [[1]]


class TestRunHasse:
    def test_dot_default(self, capsys) -> None:
        assert run(["hasse", "--family", "inv", "--n", "3"]) == 0
        assert capsys.readouterr().out.startswith("digraph {")

    def test_json(self, capsys) -> None:
        assert run(["hasse", "--family", "clan", "--p", "1", "--q", "2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["elements"]) == 6

    def test_clan_needs_signature(self, capsys) -> None:
        assert run(["hasse", "--family", "clan"]) == 2
        assert "need --p and --q" in capsys.readouterr().err

    def test_size_conflict(self, capsys) -> None:
        assert run(["hasse", "--family", "clan", "--p", "1", "--q", "2", "--n", "4"]) == 2
        assert "disagrees" in capsys.readouterr().err

    def test_byte_identical_reruns(self, capsys) -> None:
        argv = ["hasse", "--family", "inv", "--n", "4"]
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        assert capsys.readouterr().out == first


class TestRunRank:
    def test_involution(self, capsys) -> None:
        assert run(["rank", "--family", "inv", "--n", "5", "--element", "(1,3)(2,5)"]) == 0
        assert capsys.readouterr().out.strip() == "4"

    def test_clan_bottom(self, capsys) -> None:
        code = run(
            ["rank", "--family", "clan", "--element", "(1,4)(2,3)", "--p", "2", "--q", "2"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_json(self, capsys) -> None:
        assert run(["rank", "--family", "fpf", "--element", "(1,2)(3,4)", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"element": "(1,2)(3,4)", "rank": 0}


class TestRunVerify:
    def test_small_sweep(self, capsys) -> None:
        assert run(["verify", "--family", "inv", "--n", "4"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 4
        assert all(line.endswith("[ok]") for line in out)

    def test_family_all_includes_everything(self, capsys) -> None:
        assert run(["verify", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "involution n=3" in out
        assert "fpf n=2" in out
        assert "clan (p,q)=(1,2)" in out

    @pytest.mark.parametrize("argv", [["--n", "0"], ["--family", "fpf", "--n", "1"]])
    def test_nothing_to_verify_exits_2(self, capsys, argv) -> None:
        assert run(["verify"] + argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.rstrip().endswith("nothing to verify")

    def test_json(self, capsys) -> None:
        assert run(["verify", "--n", "3"]) == 0
        text = capsys.readouterr().out.splitlines()
        assert run(["verify", "--n", "3", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["failures"] == []
        assert len(data["jobs"]) == len(text)
        assert data["jobs"][0] == {
            "family": "involution",
            "params": {"n": 1},
            "elements": 1,
            "edges": 0,
            "agree": 1,
            "ok": True,
        }
        assert data["jobs"][-1]["params"] == {"p": 2, "q": 1}
        for job, line in zip(data["jobs"], text):
            assert f"{job['elements']} elements, {job['edges']} edges" in line
            assert line.endswith("[ok]") == job["ok"]

    def test_json_reports_failures(self, capsys, monkeypatch) -> None:
        import weakorder.cli
        from weakorder import WSet

        monkeypatch.setattr(weakorder.cli, "wset_oracle", lambda P, x: WSet(x, 0, ()))
        assert run(["verify", "--family", "fpf", "--n", "4", "--json"]) == 1
        captured = capsys.readouterr()
        data = json.loads(captured.out)
        assert [job["ok"] for job in data["jobs"]] == [False, False]
        assert data["failures"][0] == "fpf n=2: W-set mismatch at (1,2)"
        assert len(data["failures"]) == 1 + 3


class TestArgumentErrors:
    def test_missing_subcommand(self, capsys) -> None:
        assert run([]) == 2

    def test_unknown_family_flag(self, capsys) -> None:
        assert run(["wset", "--family", "magic", "--n", "3", "--element", "id"]) == 2

    def test_missing_required_flag(self, capsys) -> None:
        assert run(["wset", "--family", "inv", "--n", "3"]) == 2

    def test_pq_rejected_outside_clans(self, capsys) -> None:
        code = run(
            ["rank", "--family", "inv", "--n", "4", "--element", "(1,2)", "--p", "1"]
        )
        assert code == 2
        assert "only apply to clans" in capsys.readouterr().err
