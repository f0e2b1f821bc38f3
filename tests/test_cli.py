"""Element parsing, exports, and the command-line entry points."""

from __future__ import annotations

import hashlib
import json
import re
import sys
import time

import pytest

from conftest import brute_clans, brute_involutions
from weakorder import (
    Clan,
    CoverType,
    Edge,
    FpfInvolution,
    Involution,
    WeakOrderPoset,
    build_poset,
    wset_direct,
)
from weakorder.cli import export_dot, export_json, parse_element, run

_CLANS_UP_TO_6 = [(p, total - p) for total in range(2, 7) for p in range(1, total)]


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

    @pytest.mark.parametrize("text,family", [("(1,10000000)", "fpf"), ("(1+)(10000000-)", "clan")])
    def test_gaps_in_a_huge_n_fail_fast(self, text, family) -> None:
        started = time.perf_counter()
        with pytest.raises(ValueError) as err:
            parse_element(text, family)
        assert time.perf_counter() - started < 0.5
        assert len(str(err.value)) < 1024
        assert "9999998" in str(err.value)

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

    def test_exports_build_no_index_or_adjacency(self) -> None:
        P = build_poset("fpf", 8)
        export_dot(P), export_json(P)
        assert "_index" not in vars(P) and "_adjacency" not in vars(P)
        assert P.index_of(P.bottom) == 0 and P.up is P.up and P.down is P.down
        assert "_index" in vars(P) and "_adjacency" in vars(P)

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

    @staticmethod
    def nested_payload_json(P) -> str:
        """The export as ``json.dumps`` lays out the nested payload."""
        params = {"p": P.param[0], "q": P.param[1]} if P.family == "clan" else {"n": P.param}
        payload = {
            "family": P.family,
            "params": params,
            "elements": [
                {"id": j, "text": e.text(), "rank": P.ranks[j]}
                for j, e in enumerate(P.elements)
            ],
            "edges": [
                {
                    "lo": e.lo,
                    "hi": e.hi,
                    "labels": list(e.labels),
                    "types": [str(t) for t in e.types],
                }
                for e in P.edges
            ],
        }
        return json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize(
        "family, params",
        [
            ("involution", range(1, 9)),
            ("fpf", range(2, 11, 2)),
            ("clan", [(p, n - p) for n in range(2, 8) for p in range(1, n)]),
        ],
    )
    def test_json_writer_matches_nested_payload(self, family, params) -> None:
        for param in params:
            P = build_poset(family, param)
            assert export_json(P) == self.nested_payload_json(P), (family, param)

    def test_hand_made_edges_export_as_before(self) -> None:
        # an edge with no label, which no builder makes, and one with two
        # labels are laid out as json.dumps and the DOT writer always did
        P = build_poset("involution", 3)
        lo, hi = P.edges[0].lo, P.edges[0].hi
        Q = WeakOrderPoset(
            "involution", 3, P.elements, P.ranks,
            (Edge(lo, hi, (), ()), Edge(lo, hi + 1, (1, 2), (CoverType.II, CoverType.II))),
            False,
        )
        assert export_json(Q) == self.nested_payload_json(Q)
        assert export_dot(Q).splitlines()[-3:] == [
            f'  {lo} -> {hi} [label="", style=bold];',  # no type but II: bold, as ever
            f'  {lo} -> {hi + 1} [label="1,2", style=bold];',
            "}",
        ]

    @pytest.mark.parametrize("mode", [[], ["--json"]])
    @pytest.mark.parametrize(
        "size", [["inv", "--n", "5"], ["fpf", "--n", "8"], ["clan", "--p", "2", "--q", "3"]]
    )
    def test_hasse_reads_each_text_once(self, capsys, monkeypatch, size, mode) -> None:
        calls: list[tuple[int, ...]] = []
        for cls in (Involution, Clan):  # FpfInvolution inherits Involution's

            def counted(x, text=cls.text):
                calls.append(x.word)
                return text(x)

            monkeypatch.setattr(cls, "text", counted)
        assert run(["hasse", "--family", *size, *mode]) == 0
        capsys.readouterr()
        assert sorted(calls) == sorted(set(calls)), "an element's text() ran twice"
        family = {"inv": "involution"}.get(size[0], size[0])
        param = int(size[2]) if family != "clan" else (int(size[2]), int(size[4]))
        assert len(calls) == len(build_poset(family, param))


class _Pipe:
    """A stdout that records each write, or refuses every write as a closed pipe."""

    def __init__(self, closed: bool) -> None:
        self.closed, self.writes = closed, []

    def write(self, text: str) -> int:
        if self.closed:
            raise BrokenPipeError
        self.writes.append(text)
        return len(text)

    def flush(self) -> None:
        pass


_PLAIN_LISTINGS = [
    ["chains", "--family", "fpf", "--element", "(1,6)(2,5)(3,4)"],
    ["chains", "--family", "inv", "--n", "1", "--element", "id"],
    ["wset", "--family", "inv", "--n", "6", "--element", "(1,6)(2,5)(3,4)"],
    ["wset", "--family", "clan", "--element", "(1,4)(2+)(3-)", "--compact"],
]


@pytest.mark.parametrize("argv", _PLAIN_LISTINGS, ids=lambda a: f"{a[0]} {a[2]}")
def test_plain_listing_is_one_write(capsys, monkeypatch, argv) -> None:
    assert run(argv) == 0
    want = capsys.readouterr().out
    pipe = _Pipe(closed=False)
    monkeypatch.setattr("sys.stdout", pipe)
    assert run(argv) == 0
    assert pipe.writes == [want]
    monkeypatch.setattr("sys.stdout", _Pipe(closed=True))
    assert run(argv) == 0


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

    @pytest.mark.parametrize(
        "family,params",
        [("involution", range(1, 7)), ("fpf", (2, 4, 6, 8)), ("clan", _CLANS_UP_TO_6)],
        ids=["involution", "fpf", "clan"],
    )
    def test_json_is_the_nested_payload(self, capsys, family, params) -> None:
        # written row by row, byte for byte what json.dumps lays out
        for param in params:
            for x in build_poset(family, param).elements:
                argv = ["wset", "--family", family, "--n", str(x.n), "--element", x.text()]
                assert run(argv + ["--json"]) == 0
                ws = wset_direct(family, x)
                payload = {
                    "family": family,
                    "element": x.text(),
                    "rank": ws.rank,
                    "members": [list(w.word) for w in ws.members],
                }
                want = json.dumps(payload, indent=2) + "\n"
                assert capsys.readouterr().out == want, x.text()


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


# SHA-256 of `hasse` stdout (DOT, then --json) for every size up to
# involutions n = 7, fpf n = 8 and clans p+q = 6, recorded before the covers
# moved to one-line words; any change to elements, order, labels or cover
# types shows here.
_HASSE_SHA256 = [
    (("inv", "--n", "1"),
     "3031a80702e111e3ec834e5b10a9b3b9431e87de0e9b1f8a094c0daa65f923f0",
     "6dec6e801ab0b4f57e3bd604a9751f6bcb4f1bdd7dffd9ee49e7e2dca1468584"),
    (("inv", "--n", "2"),
     "bad744c1a5253186613ee43e924866608cff241d444e345dec4e0777a858e99a",
     "8260af3a67b2873b3ee05f46331c9965c2bb066c497ed2c837693b6c6ed36c40"),
    (("inv", "--n", "3"),
     "14e048f59eaecfe9ccdf216a46f085f82be062362f41ee3040ad0baf857525d7",
     "0db0512b50ea1cec38cef1b2092c4d76538cc6cab8cf21b99c46a2ee45c020f8"),
    (("inv", "--n", "4"),
     "bf5f110b8bca3968d1a3aa314782a21c824b5a1130ccac389d5f40e7986c5979",
     "7691422626d84392a45192a6eec2328702cd8ff791224aa6215022f99b171ef5"),
    (("inv", "--n", "5"),
     "8dba34d6140c5941da01e4984bd294449318094dd902acbe866e9b59eea4ff3b",
     "30d1bddbe391f65562142ee09e9cf75cb06c545268d5b39d096f541dc7ce9e01"),
    (("inv", "--n", "6"),
     "9cc1e51febccaa4b5f1c0500c522e412c30da5d9cccfc4418c75366fb629ef7b",
     "a0b8c71a5d348b1e801ac4f5ad660714d577f666c5b71af94c7aa4494925296c"),
    (("inv", "--n", "7"),
     "fd2c119f889ea494f5c857f54828bd826802e2684f82f8c11456efdece917154",
     "9efe05e79a70e5d6ff615c28510b068fe62c0c9c3e8b7a808870b9ae93904d49"),
    (("inv", "--n", "8"),
     "29a6e27481968515934a714db942ad3e08a4435ddcbc7537d64b573abd38bf46",
     "eefc5d961448b05a4daecbaaa7ee86ac904b20a49cdd1cca183a51a0ca56b545"),
    (("fpf", "--n", "2"),
     "bf4a86a5a3b9453e47b077afc7ce8a1671f7f41cb8fe2be2503467f3ff0ad1b6",
     "f81de07f43107c9dd98b81722cbbd23e08913ea79564e8223c9ebabb6ab7ba96"),
    (("fpf", "--n", "4"),
     "525996baa26c4527a679047f5fe137549d9b814d8bf210cd80f171872bfe8b09",
     "b578da24c2bb0d349cf6ca90f1e88f53c97cd217d3a13442afcc86e6b886b462"),
    (("fpf", "--n", "6"),
     "3a69c38ba7b3d57a52081d7d2e91963ab904ad5872a229d4100e8c38602c3190",
     "96382f227745858467856065fa3efbf943b560208fdb2af6c07951f6423ca97e"),
    (("fpf", "--n", "8"),
     "5f67607250053075a825ff945e4b2a783dbde79c9a9b286f7c54d2c3d1e3d224",
     "cff7cd74deaff3b3da7000dc522ac720f53f3a4ed6235b1d81eee1c19693b2d9"),
    (("fpf", "--n", "10"),
     "68ce4ecb990efe09aa8653c121191b4c000c2977232da7b736980b71774292cd",
     "48eff34feb6b41a035ede75c81f163cf83e291c145e49cfcb22c627549cf397b"),
    (("clan", "--p", "1", "--q", "1"),
     "f105e517d6b97b3e0c815d8d12aacaf193be680820ae773b246d06d24f0a6e05",
     "8080a11a4cbf21f2af9daf42a73d6afdd8948e245dcf69d1509f0fec942cac80"),
    (("clan", "--p", "1", "--q", "2"),
     "28b095e6d5864c7ec3c9faccfe190e6e382622f8d895831ca6969fe3943a8ffc",
     "3331ae3a2ca3b32df8061f17a3dade4d18a3a681fdd3268a03ed7e8da783fece"),
    (("clan", "--p", "2", "--q", "1"),
     "04e0eac94ad3ce2ff4e35c40309f0da8c9cc3deb05cd949b306982143f436ff7",
     "f5e3049bd21c6ed3541962c5bd5a5c6cef01e29645bfc26e6d0a6abc3132d823"),
    (("clan", "--p", "1", "--q", "3"),
     "f7a959296ef5d021564fb7a7729f486e7b96c12a0b27f79509ca02c0115d20ab",
     "30cf01c2491677191f22e0f83c87ac98d1977cba843309afe54ea0773f123303"),
    (("clan", "--p", "2", "--q", "2"),
     "2690c0c9924705b1f05b132d8a99a623eb1fedf66a31b62b4d13cdef120c3156",
     "71c912a0dcaa5a589e1fd3f059c29de2b151e983e360aab358ad758328459099"),
    (("clan", "--p", "3", "--q", "1"),
     "52cca9b31137badc8d750927c51f97b136ba3ff6e4971ca6d42f1181ca492d3c",
     "a88a929a5762eef87790a0774895b59b5d6cf54ebe28a522c2638d6070d5b2ba"),
    (("clan", "--p", "1", "--q", "4"),
     "a219cffdd977f2bfded7bb6b3e04ddd6c1c46fa49e46fca75487736249694309",
     "72dfe80d0fd96d3d1209ea28017afb0ea88c586d066afa41a65c89960715ddbe"),
    (("clan", "--p", "2", "--q", "3"),
     "af6b39842816f72057cb48d7999715ce2be5a4258bd29a6e690e11e9c2f4eb66",
     "57ae779603fbdcb2b3d46db1bc20084ee4a2b915c892bb010f4f30796af16010"),
    (("clan", "--p", "3", "--q", "2"),
     "f3f0b07602c43d3a00d2d799717e2644f2c19f44c26c5e0c88ac33327ab8091d",
     "a1423d681c0e9962efc30bec2f809207395627776166667187f2352f2e8a301f"),
    (("clan", "--p", "4", "--q", "1"),
     "3f21dbe66142246ab05d0de629bf224acfac4f17c2ea91f485cca0a9771ee707",
     "960435d8813b6ced178c6a77a3c1c73d952d3af97c0a5291e9e9b386e9a69e74"),
    (("clan", "--p", "1", "--q", "5"),
     "4fbd5afc133257fd585cae32b92bae19b0914a2da26aa45b3e955c57c797f8a6",
     "f2afccabff1d599abca495887ae55af1169ffd1eb1a52d4e7f7a17531a212924"),
    (("clan", "--p", "2", "--q", "4"),
     "e1b9949107b967a2e3b64fd71bceb53ca6bbef0a6a853aec9674b96b85261908",
     "320bbe75e8d79142754e9531b78364a19032c727cdd447a403adc2fc9bda1670"),
    (("clan", "--p", "3", "--q", "3"),
     "1e6f1cb3ec614319fb25959294ba98531f0e4b8db552619cd9e469a6b6a8ba7b",
     "86ecc8b9713a6ca957bcb5776385b0960ab01390864a370fc4a28969f7591a7f"),
    (("clan", "--p", "4", "--q", "2"),
     "caf789b8cf74613efa7e17a6f4d90d7a1bfa4a43e089ebb07a79eb02184ab62d",
     "a616fb27cec7536312e842f8f727efa7c921a62504926137e4990ff955e5cdc2"),
    (("clan", "--p", "5", "--q", "1"),
     "4469caf27cfc83297d0e21e87d21c013ac635a3e81aef41b272d4e1a7e8c26f8",
     "6b3dd5e72c8a8f44665b6cbe3544b7a848cdd2759975f309959cc73ab901f86f"),
]


@pytest.mark.parametrize(
    ("size", "dot", "js"), _HASSE_SHA256, ids=[" ".join(row[0]) for row in _HASSE_SHA256]
)
def test_hasse_output_frozen(capsys, size, dot, js) -> None:
    argv = ["hasse", "--family", *size]
    assert run(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == dot
    assert run(argv + ["--json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == js


# SHA-256 of `chains` stdout over every element of the poset, in poset order,
# for plain, --json, --count and --count --json output, recorded before the
# up- and down-moves of all three families shared two loops; any change to
# the lower intervals, their chains or their labels shows here.
_CHAINS_MODES = ((), ("--json",), ("--count",), ("--count", "--json"))
_CHAINS_SHA256 = [
    ("involution", 6, [
        "f2395766175a3d3b9cfa2a4dc06c39bb3beaeee1d158b51d69acfa8b429ab0a8",
        "b7eef31cfe16e6268cec52dba300dde7a349e47f1aaef8ffae5205051b9b05b7",
        "316ae53972f315c81cada647c20a328babc5aa2f04c9c129b2306e892e7152c3",
        "86b968bc121fd12f783d00e9a4f1f2f2a9e2b22dd7fafdc5087e252fae8b17a7",
    ]),
    ("fpf", 8, [
        "f6c48dcc831743419d1ea7ccadf4131ac30ebeb5f8046e645a9d709f11db3b90",
        "7dbe2d6a237d216b8a8d0041fa644a899948af81b111230982d3bff732855e08",
        "a955a7570ef612ec6bb8cb13869e499bbae57359783c3d5e3cb0b33f917a9a44",
        "45276adfae5bd0e2fb58759f703f0155bb21473b3790491ccaa719e4addb3349",
    ]),
    ("clan", (1, 1), [
        "b166be9a906fd40431e10072010c284fb46c548e28d4a569ac72ead9cb4b965c",
        "8f8258f5ed4ee6b563147fdc12f87c0544fee46a9064334b5ec07a5797f6b4db",
        "ccce065269620747ca153e9a430d44b175cdc1f7e0958741b567250a1d6b1d95",
        "551ec87207afad382f5a4bc0c64db97b6c5f20bdb62e5f4ab9d158b26d897864",
    ]),
    ("clan", (1, 2), [
        "1df464bf56c060a89034f2046a45f382e4bd52debb41e3d63540a1b5df9668ce",
        "6edbce6fa15bd752c2030d396f13a0efb91553d155c4dba4e11680cb91bedd83",
        "fc99b27a05eb7ca1581da764a20897b90bf0725f9429609fcc0543876821f860",
        "c6f444b6be509415d32b6b5cd9cef70ff41837dca20a53e3cec877b0428fb68b",
    ]),
    ("clan", (2, 1), [
        "01578b618ee2743743fb7c49a84c85139dc61316a8ca63f7dc589d3aa0a72c64",
        "f5485cb876ee00248b18d8f422571c63ea6b37f5ecf4ce29d2e006f195dd5be4",
        "fc99b27a05eb7ca1581da764a20897b90bf0725f9429609fcc0543876821f860",
        "de87f6abb7bc297702a5f67e70cfa27349e4e0d5d1bb5167d4b4d12bf47b5fe8",
    ]),
    ("clan", (1, 3), [
        "a5caa4e3a2c3e6de2c24dd4d3f8a4498e6af3f69570c5dd5d64d84fbf884147b",
        "582d07d5fd0fdf849d876850eaf0a9d147a88e56e11f637492fcda0f7bff9f9d",
        "8e64b6bbe198f2776de1e1be492580cbe0ee67671d53e89ea51c89aceba5e4f0",
        "7bd774b089306d7604301f9efbe1e08c1be04330f2a1876aada6420cabdd5510",
    ]),
    ("clan", (2, 2), [
        "540c14745c9a5a8ce9e2182279707664d3ba160d15aa586b407247fa7d237918",
        "48608b4c3ca2ff4ef1b7e0be087328776ae87eca4b4f05523f2e1a155fc6c699",
        "b4477694fbad578b075a449eaab77607a7fb4bc03764d6e74001b6bf18b215f7",
        "d3e50346975ed274e8ca8bb6e2ce2026a4136bc66ea02ddff00fa5cc8ad2253d",
    ]),
    ("clan", (3, 1), [
        "2265b102b4f5ae35e7f488da058567a6d5da4e79f951b2dddd2fec99ca67506b",
        "83c0615f55498f6d26a442f905a28117a08ef63fa19212fe2cbcef7c8c41fdde",
        "8e64b6bbe198f2776de1e1be492580cbe0ee67671d53e89ea51c89aceba5e4f0",
        "8ee034854a14d9b9ea28dd08a156a0e83bde864b0294cd6eba581bba26ead4b0",
    ]),
    ("clan", (1, 4), [
        "0f559ab83c1ca7d28982516a51cf5f4418e0da6642777f690935703607195d84",
        "b58ff92e994dfa63d94d215b610aeae3a5c8f06cbd2ea50f64e08f2e66e004f7",
        "aefe5b4acd34f436ea99a3fa61b56b3feeb59be40bb37046f6cb4800b18e07c7",
        "9028ff13ddeef3b473ea006aaaca46f2f0d7f669032517721377f2c5d5f73ffb",
    ]),
    ("clan", (2, 3), [
        "269b29a3b71f5e619b47c10103e4880fce31b40bf02d26e22a1e1c3d05022dad",
        "4ae0bb8be83f74bcfa6beece77c0c24775ecccfb4e60a6cf0b0107ed9760785c",
        "06998703c8404050ec289fdedd58deb671995ef6f20228738c3ce92b3db1a5fc",
        "83fb37d04805e23a5256ad1251e1e1a3619bac41e1d11ca547ab2ec8a792f78b",
    ]),
    ("clan", (3, 2), [
        "01da3c912d398bd8d8730a5a48ca7097f0baf738d58ef59ff77f14dd416be17d",
        "9c724b4f11901d1dc49b04ccdd654890116f097134763da1a063bf335de905fd",
        "9a44f870855000a8dc23013c2dc2e9186aa0203daee7ac0b93694a28b07fc00d",
        "1a9b30d27cd1448f033e21d2c22c65b006eeda7c5e269c48b2286e4afd848494",
    ]),
    ("clan", (4, 1), [
        "498379a5b069ee9e88d98938da185a28f7d1dde3615b9afd5106cd7b01586575",
        "addefe0015a8d394187958c313464d7bbfcfcd3f68afa948ccf53e7fa279ffde",
        "aefe5b4acd34f436ea99a3fa61b56b3feeb59be40bb37046f6cb4800b18e07c7",
        "cdddeaeb706a9ef3bb5bb7f02de1885e9a13cfa716ba8bd1638a16b0cd2c904e",
    ]),
    ("clan", (1, 5), [
        "876a0952c32f34a0507b5832a43fcbc32ff937985a3911892e91bfb91a44acff",
        "002d2bb9924972039a6c30a30a3cf4a7542e4dbe706a9115e276cbda062867a4",
        "540fc693cb4566f2d48b494cab08a43b9a2bcc935311733adefe2c54081385e0",
        "667da90876c92967cbfe15bd14e65ff81478b755ab0329f7db0b82e3ad2b7b01",
    ]),
    ("clan", (2, 4), [
        "d500b842b348ace751149e98b55a65e04298e73fc33cd28f089f97438dfa774b",
        "bbd24c565add7d71fc95ca1d0e15fc3aa40096311b85255f57d357ccb6982dc6",
        "6b61439570c233333ed2eca92708330dfcb7d32f8c27b2f4f155a2b99525b4c7",
        "e25c310a45b7d7a8a7032a3063ad67f8dcdaea97633e7aa1bcea43cfae39b585",
    ]),
    ("clan", (3, 3), [
        "0707dda87aac680d1f21c7c358e5a5733c3662279f976839a00c7603350c2725",
        "3082a4bdb1a00674f43978fa11e114d346eddb3f4b8d1e914ceee90419454658",
        "42b268e0a9f455be1433edc533525b15a0f8a44370eafa34e281de3ab8409c62",
        "5b6a9720950b50a7fb96f5724867bc8772d55cc67ac32db87bfbfe8d73871b20",
    ]),
    ("clan", (4, 2), [
        "23bc446e443b9979ef39ca15b28a99ca31135bb0fa30135a25396457bededebc",
        "7d91cd9ac988ca513a623d3d1530799329ed4390b1126f1b0b0199d562d49dd9",
        "3453528b0dae762bf3c12f2cbcca63958b60297bcbd69ad471aa32d69b5bcd40",
        "b3339d62724e0f8a0a43d93a42c05db25268dc44e78de9472bb2a9bcfd8d7616",
    ]),
    ("clan", (5, 1), [
        "02a67a9388ad877536482bb5c063e053ff14d99d9bf2921e80adba607b3ffd30",
        "40ac6c55c9dff23d89f42886dc0154dca624d6f3636e3c622b7716dafd259996",
        "540fc693cb4566f2d48b494cab08a43b9a2bcc935311733adefe2c54081385e0",
        "7aadcda59c40f0bba9cf04386a60b845f3c05447c988b78ec6adf570c0290e5c",
    ]),
]


@pytest.mark.parametrize(
    ("family", "param", "digests"),
    _CHAINS_SHA256,
    ids=[f"{family}-{param}" for family, param, _ in _CHAINS_SHA256],
)
def test_chains_output_frozen(capsys, family, param, digests) -> None:
    elements = build_poset(family, param).elements
    got = []
    for mode in _CHAINS_MODES:
        h = hashlib.sha256()
        for x in elements:
            argv = ["chains", "--family", family, "--n", str(x.n), "--element", x.text()]
            assert run(argv + list(mode)) == 0
            h.update(capsys.readouterr().out.encode())
        got.append(h.hexdigest())
    assert got == digests


# SHA-256 of plain `wset` stdout over every element of the poset, in poset
# order, member order included, recorded before the fixed costs of the W-set
# path were cut; any change to a member, its order or its text shows here.
_WSET_SHA256 = [
    ("involution", 1, "acc07b62f23f458923737c4cd4a66bd05d1e71eb4f384003baaf2dcc760d6349"),
    ("involution", 2, "75fbbb8c0c0ade2c0dc09100eb0d637deab8e46291ff623b018069f84686ce36"),
    ("involution", 3, "edb84dee26670c071851bb60688795159b3d850b75c1298f61daa450545b8744"),
    ("involution", 4, "713fa107085bf16377730e962cfc11e6d9afae89b7036f4b96833c484a59ac46"),
    ("involution", 5, "2d5ecf2bee7b1e2db70abdf475a29051e404122ddcac2393c7b9d4f4313e12ce"),
    ("involution", 6, "5068dc691ed625b9823641ccc148428a507ad5d27717f2d5a4f01b0db27b4af9"),
    ("involution", 7, "fb2309fb7ad6259f98c729ced06ed47d4bd749121ab62095f732054d5825f7e4"),
    ("fpf", 2, "f109b002d2f351fa534341fcb7d18145d187efd8a47fc21539f8395a7a85d0d6"),
    ("fpf", 4, "add121fad22648807a0d83ecc4b93a244b74711d94ccf58424177b66b54daf32"),
    ("fpf", 6, "f226d5d428c13fdf93b3200d3c37c35e7621c99321bc6606a7cb13a0162e21f0"),
    ("fpf", 8, "49e312a0533b09b257dad5b581aba3e098d6be49ed35db6621a6b69e6080073a"),
    ("clan", (1, 1), "03eeb1125c76232c8ededb220ed80e432c0e37aea05cae1a6e8f477e029c5fbb"),
    ("clan", (1, 2), "22b696740883257486c1b7451899a13324cc9b550030eda0519ada851603b1dd"),
    ("clan", (2, 1), "949dddde9022a9bf8e5749c84bdb75487a863530a79267be23767e6b2cca04d2"),
    ("clan", (1, 3), "2361b025e167e955e6ffddd1dfb2a1cf70a619bee67d9f1a81af504aa6dd2218"),
    ("clan", (2, 2), "4de2f3d3a080c53e8b5cbe663ae82adc356f5a1ef789e6e1cb56ce792441c663"),
    ("clan", (3, 1), "bab051dbe9f0c4f369be1c56c8122917ee8f756a2a4d09c2b14284a49e69680c"),
    ("clan", (1, 4), "d25497198de3a0e7673d99451b3ea80c9a32cd9a481272593dfa6ab58a04358f"),
    ("clan", (2, 3), "706d279317be774b9408648d842d881847410aef0cb4beb2101ccd59d12a34bf"),
    ("clan", (3, 2), "a2e9310e9a6b7ddd92f58e66e69e8ed2bda7427205deff5111c8ca9101871769"),
    ("clan", (4, 1), "88f688e305ddaa33b8df057410be599f1de67b483064c36f46aa7e22e6ddfa13"),
    ("clan", (1, 5), "d0c296e4aa8f6f5ac8553aa01c3e25fc0fc1fcbbc1870462853d28d0eb31da63"),
    ("clan", (2, 4), "a8a58378cfecf0a523ee6ac47dac13fd4a4fba963cb699acf13762706b38a079"),
    ("clan", (3, 3), "24de54e55a507aac605ddd509ec0945eada0e34ab0c7d48e1ce2d15c7eaff37e"),
    ("clan", (4, 2), "1914f8b10fc2ee6aca849c1c17dccf80a657d7102ff9b26d6e90978970aa1a9d"),
    ("clan", (5, 1), "bceeb39cdc943909193a52fcb241b044a007aa394d9bdd4c1febfa8eb9e5e242"),
]


@pytest.mark.parametrize(
    ("family", "param", "digest"),
    _WSET_SHA256,
    ids=[f"{family}-{param}" for family, param, _ in _WSET_SHA256],
)
def test_wset_output_frozen(capsys, family, param, digest) -> None:
    h = hashlib.sha256()
    for x in build_poset(family, param).elements:
        assert run(["wset", "--family", family, "--n", str(x.n), "--element", x.text()]) == 0
        h.update(capsys.readouterr().out.encode())
    assert h.hexdigest() == digest


# SHA-256 of `verify` stdout, recorded before an agreeing W-set was validated
# once instead of once per side; any change to the job list, the counts or
# the agreement shows here.
_VERIFY_SHA256 = [
    ((), "676eebd8ed32bbfad705828b050f5576411245bd96ef552de8a1b70bbe20c2da"),
    (("--json",), "6d74ebe8c412092a08c5c2faec8673a158dbfa0dd402ed39adea3e86ca00ba9e"),
    (
        ("--family", "inv", "--n", "8"),
        "050c340767b123312bff222e8a50460d9218aa51da90b5a01c152f5b5135fc9e",
    ),
]


@pytest.mark.parametrize(
    ("flags", "digest"), _VERIFY_SHA256, ids=[" ".join(row[0]) or "bare" for row in _VERIFY_SHA256]
)
def test_verify_output_frozen(capsys, flags, digest) -> None:
    assert run(["verify", *flags]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


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

    _CLANS_UP_TO_5 = (
        "clan:1,1 clan:1,2 clan:2,1 clan:1,3 clan:2,2 clan:3,1 clan:1,4 clan:2,3 "
        "clan:3,2 clan:4,1"
    )

    @pytest.mark.parametrize(
        "flags, want",
        [
            (
                [],
                "involution:1 involution:2 involution:3 involution:4 involution:5 "
                "involution:6 fpf:2 fpf:4 fpf:6 fpf:8 " + _CLANS_UP_TO_5
                + " clan:1,5 clan:2,4 clan:3,3 clan:4,2 clan:5,1",
            ),
            (
                ["--n", "5"],
                "involution:1 involution:2 involution:3 involution:4 involution:5 "
                "fpf:2 fpf:4 " + _CLANS_UP_TO_5,
            ),
            (["--family", "fpf", "--n", "9"], "fpf:2 fpf:4 fpf:6 fpf:8"),
            (
                ["--family", "clan", "--n", "4"],
                "clan:1,1 clan:1,2 clan:2,1 clan:1,3 clan:2,2 clan:3,1",
            ),
        ],
    )
    def test_job_sequence_frozen(self, capsys, flags, want) -> None:
        # the default caps (involutions n <= 6, fpf n <= 8, clans p+q <= 6)
        # and the job order, as verify printed them when this test was added
        assert run(["verify", "--json"] + flags) == 0
        jobs = json.loads(capsys.readouterr().out)["jobs"]
        got = " ".join(
            f"{job['family']}:" + ",".join(str(v) for v in job["params"].values())
            for job in jobs
        )
        assert got == want

    # faults go in at wsets._chain_products, the product sweep that both
    # verify's comparison and wset_oracle run; each fault yields modified
    # copies of the real sweep's products

    def test_json_reports_failures(self, capsys, monkeypatch) -> None:
        import weakorder.wsets

        real = weakorder.wsets._chain_products
        monkeypatch.setattr(
            weakorder.wsets,
            "_chain_products",
            lambda *args: ((w, d, set(), got) for w, d, _, got in real(*args)),
        )
        assert run(["verify", "--family", "fpf", "--n", "4", "--json"]) == 1
        captured = capsys.readouterr()
        data = json.loads(captured.out)
        assert [job["ok"] for job in data["jobs"]] == [False, False]
        assert data["failures"][0] == (
            "fpf n=2: W-set mismatch at (1,2): 1 only direct ([1,2]), 0 only oracle"
        )
        assert len(data["failures"]) == 1 + 3

    def test_failure_names_dropped_member(self, capsys, monkeypatch) -> None:
        import weakorder.wsets

        real = weakorder.wsets._chain_products

        def drop_one(*args):
            for w, depth, products, got in real(*args):
                yield w, depth, set(sorted(products)[1:]), got

        monkeypatch.setattr(weakorder.wsets, "_chain_products", drop_one)
        assert run(["verify", "--family", "inv", "--n", "4"]) == 1
        err = capsys.readouterr().err
        assert (
            "involution n=4: W-set mismatch at (1,4)(2,3): "
            "1 only direct ([3,2,4,1]), 0 only oracle"
        ) in err

    def test_one_sweep_per_job(self, capsys, monkeypatch) -> None:
        # verify sweeps each family's chain products once, passing or
        # failing; a per-element oracle lookup would count once per element,
        # and once more per element that disagrees
        import weakorder.wsets

        real, calls = weakorder.wsets._chain_products, []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(weakorder.wsets, "_chain_products", counted)
        assert run(["verify", "--family", "all", "--n", "5", "--json"]) == 0
        jobs = json.loads(capsys.readouterr().out)["jobs"]
        assert len(calls) == len(jobs) == 17

        def drop_one(*args):
            calls.append(args)
            for w, depth, products, got in real(*args):
                yield w, depth, set(sorted(products)[1:]), got

        calls.clear()
        monkeypatch.setattr(weakorder.wsets, "_chain_products", drop_one)
        assert run(["verify", "--family", "inv", "--n", "4"]) == 1
        assert len(calls) == 4
        captured = capsys.readouterr()
        assert captured.out.count("[FAIL]") == 4
        # every element disagrees: 1 + 2 + 4 + 10 failure lines, the bytes
        # that verify wrote when it built one oracle WSet per element
        assert len(captured.err.splitlines()) == 17
        assert (
            "involution n=4: W-set mismatch at (1,4)(2,3): "
            "1 only direct ([3,2,4,1]), 0 only oracle"
        ) in captured.err
        assert hashlib.sha256(captured.err.encode()).hexdigest() == (
            "13259696bd8ce5116d0a1d90597942efccfeb8b43a22ff088b1e246759242f63"
        )

    @pytest.mark.parametrize(
        "bad, err",
        [
            (
                lambda n: tuple(range(1, n + 1)),
                "error: member [1,2,3,4] of (1,4)(2,3) has length 0, expected the rank 2\n",
            ),
            (
                lambda n: (1,) * n,
                "error: not a permutation of 1..4: (1, 1, 1, 1)\n",
            ),
        ],
        ids=["wrong length", "not a permutation"],
    )
    def test_faulty_product_exits_2(self, capsys, monkeypatch, bad, err) -> None:
        # the top element's smallest product is swapped for a faulty word;
        # the error is the one verify gave when it built every oracle WSet
        import weakorder.wsets

        real = weakorder.wsets._chain_products

        def swap_one(start, moves, n):
            for w, depth, products, got in real(start, moves, n):
                if depth and not got:  # the top of a poset of more than one element
                    products = set(sorted(products)[1:]) | {bad(n)}
                yield w, depth, products, got

        monkeypatch.setattr(weakorder.wsets, "_chain_products", swap_one)
        assert run(["verify", "--family", "fpf", "--n", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "fpf n=2: 1 elements, 0 edges, 1/1 W-sets agree [ok]\n"
        assert captured.err == err

    def test_builds_no_poset(self, capsys, monkeypatch) -> None:
        import weakorder.cli
        import weakorder.posets

        def refuse(*args):
            raise AssertionError("verify built or graded a poset")

        for name in ("build_poset", "verify_graded"):
            monkeypatch.setattr(weakorder.posets, name, refuse)
        monkeypatch.setattr(weakorder.cli, "build_poset", refuse)
        assert run(["verify", "--n", "6"]) == 0
        assert capsys.readouterr().out.count("[ok]") == 6 + 3 + 15

    # faults go in at a family's up column of posets._FAMILY, the moves the
    # walk from the bottom's word takes

    @staticmethod
    def _patch_up(monkeypatch, family: str, extra) -> None:
        import dataclasses

        import weakorder.posets

        fam = weakorder.posets._FAMILY[family]
        up = fam.up
        faulty = dataclasses.replace(fam, up=lambda w: up(w) + extra(w))
        monkeypatch.setitem(weakorder.posets._FAMILY, family, faulty)

    @pytest.mark.parametrize(
        "target, line",
        [
            ((3, 2, 1, 4), "rank of (1,3): stored 1, formula gives 2"),
            ((4, 2, 3, 1), "rank of (1,4): stored 1, formula gives 3"),
            ((4, 3, 2, 1), "rank of (1,4)(2,3): stored 1, formula gives 4"),
            ((2, 1, 4, 3), "rank of (1,2)(3,4): stored 1, formula gives 2"),
        ],
        ids=["(1,3)", "(1,4)", "(1,4)(2,3)", "(1,2)(3,4)"],
    )
    def test_move_skipping_a_rank_fails_the_rank_formula(
        self, capsys, monkeypatch, target, line
    ) -> None:
        # the bottom of S_4 also moves straight to target, above rank 1: the
        # walk enters target one rank early and again at its own rank
        self._patch_up(
            monkeypatch, "involution", lambda w: [(1, target)] if w == (1, 2, 3, 4) else []
        )
        assert run(["verify", "--family", "inv", "--n", "4"]) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1].endswith("[FAIL]")
        assert f"verification failure: involution n=4: {line}\n" in captured.err
        assert "involution n=4: 11 elements, closed form gives 10\n" in captured.err

    def test_move_back_down_ends(self, capsys, monkeypatch) -> None:
        # (1,4)(2,3) moves back to the bottom: a cycle, walked until it has
        # re-entered more words than the closed form counts
        self._patch_up(
            monkeypatch, "involution", lambda w: [(2, (1, 2, 3, 4))] if w == (1, 4, 3, 2) else []
        )
        assert run(["verify", "--family", "inv", "--n", "4"]) in (1, 2)
        assert capsys.readouterr().err

    def test_forbidden_fpf_cover_raises(self, monkeypatch) -> None:
        # a move along the strand {i, i+1}: a type II cover, which no fpf
        # element has; the error is the one build_poset raises
        self._patch_up(
            monkeypatch, "fpf", lambda w: [(i, w) for i in range(1, len(w)) if w[i - 1] == i + 1]
        )
        error = "forbidden cover of (1,2) along 1 has type II"
        with pytest.raises(RuntimeError, match=re.escape(error)):
            run(["verify", "--family", "fpf", "--n", "4"])

    @staticmethod
    def _patch_faults(monkeypatch) -> None:
        """Two faults in one involution run: the bottoms of S_3 and S_4 also
        move straight to the top, a rank early, and each top reached above
        rank 0 loses its smallest chain product."""
        import weakorder.wsets

        tops = {(1, 2, 3): (3, 2, 1), (1, 2, 3, 4): (4, 3, 2, 1)}
        TestRunVerify._patch_up(
            monkeypatch, "involution", lambda w: [(1, tops[w])] if w in tops else []
        )
        real = weakorder.wsets._chain_products

        def drop_at_tops(*args):
            for w, depth, products, got in real(*args):
                if depth and not got:
                    products = set(sorted(products)[1:])
                yield w, depth, products, got

        monkeypatch.setattr(weakorder.wsets, "_chain_products", drop_at_tops)

    @pytest.mark.parametrize(
        "flags, out, err",
        [
            (
                [],
                "993451fcd9cec5f55a46de72c2078c4fb8570a9f81d7c2b4cb02b095841e75cf",
                "69eff899eee5a315ac181502cf614bed7ea712625a4a066843b3b93114f7cf86",
            ),
            (
                ["--json"],
                "0e26bdbf6ad184daf27c7c22c6b01dfa7aeb70e529dd6ea22cff3ef53f522460",
                # nothing: the failures are in the JSON
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
        ],
        ids=["plain", "json"],
    )
    def test_failing_output_frozen(self, capsys, monkeypatch, flags, out, err) -> None:
        # a rank failure, a count failure and W-set mismatches in two jobs,
        # and a mismatch alone in a third: the whole output, byte for byte
        self._patch_faults(monkeypatch)
        assert run(["verify", "--family", "inv", "--n", "4", *flags]) == 1
        captured = capsys.readouterr()
        digest = [hashlib.sha256(s.encode()).hexdigest() for s in captured]
        assert digest == [out, err]

    def test_job_function_is_the_json_job(self, capsys) -> None:
        # every job of a bare verify, at the default caps, as the library
        # function returns it: the same counts and no failure
        from weakorder.posets import _verify_job

        assert run(["verify", "--json"]) == 0
        jobs = json.loads(capsys.readouterr().out)["jobs"]
        assert len(jobs) == 6 + 4 + 15
        for job in jobs:
            values = tuple(job["params"].values())
            got = _verify_job(job["family"], values[0] if len(values) == 1 else values)
            assert got == (job["elements"], job["edges"], job["agree"], [])

    def test_job_function_failures_are_the_cli_lines(self, capsys, monkeypatch) -> None:
        # under the rank-skipping and dropped-product faults, the CLI writes
        # the function's failures, each after its job's head
        from weakorder.posets import _verify_job

        self._patch_faults(monkeypatch)
        assert run(["verify", "--family", "inv", "--n", "4"]) == 1
        err = capsys.readouterr().err.splitlines()
        want = [
            f"verification failure: involution n={n}: {line}"
            for n in range(1, 5)
            for line in _verify_job("involution", n)[3]
        ]
        assert err == want
        assert any("rank of" in line for line in err)

    def test_traced_peak_at_involution_n9(self, capsys) -> None:
        # two ranks of words and products are held, no poset: building each
        # poset first peaked at 5.97 MB here
        import tracemalloc

        tracemalloc.start()
        try:
            assert run(["verify", "--family", "inv", "--n", "9"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().out.count("[ok]") == 9
        assert peak < 3_000_000

    def test_checks_each_member_once_in_order(self, monkeypatch) -> None:
        # the sibling of test_oracle_checks_each_member_once_in_order: an
        # agreeing W-set is checked once, on the direct side, in word order,
        # and wsets builds no Permutation for it.  Only conversions made in
        # wsets count.  verify visits the elements in the order of its
        # product sweep
        import sys

        import weakorder.wsets
        from weakorder import Involution, Permutation, bottom_element, wset_direct
        from weakorder.posets import _FAMILY

        members = [
            w
            for n in range(1, 6)
            for word, *_ in weakorder.wsets._chain_products(
                bottom_element("involution", n).word, _FAMILY["involution"].up, n
            )
            for w in wset_direct("involution", Involution(word)).words
        ]
        checked, conversions = [], []
        check, convert = weakorder.wsets._permutation_inversions, Permutation.__post_init__

        def counted_check(w: tuple[int, ...], n: int) -> int:
            checked.append(w)
            return check(w, n)

        def counted_convert(w: Permutation) -> None:
            # frame 1 is the dataclass __init__, frame 2 its caller
            if sys._getframe(2).f_globals["__name__"] == "weakorder.wsets":
                conversions.append(w)
            convert(w)

        monkeypatch.setattr(weakorder.wsets, "_permutation_inversions", counted_check)
        monkeypatch.setattr(Permutation, "__post_init__", counted_convert)
        assert run(["verify", "--family", "inv", "--n", "5"]) == 0
        assert len(members) == 83
        assert checked == members
        assert conversions == []


class TestSizeGuard:
    """``hasse`` and ``verify`` refuse a poset above --max-elements from its
    closed-form count alone, before anything is built or printed."""

    @pytest.fixture
    def no_build(self, monkeypatch):
        import weakorder.cli

        def refuse(family, param):
            raise AssertionError(f"build_poset({family!r}, {param!r}) called")

        def no_sweep(start, moves, n):
            raise AssertionError(f"product sweep from {start!r} called")

        monkeypatch.setattr(weakorder.cli, "build_poset", refuse)
        monkeypatch.setattr(weakorder.wsets, "_chain_products", no_sweep)

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["hasse", "--family", "inv", "--n", "30"],
             "error: involution n=30 has 606917269909048576 elements, "
             "above --max-elements 250000\n"),
            (["verify", "--family", "inv", "--n", "30"],
             "error: involution n=13 has 568504 elements, above --max-elements 250000\n"),
            (["verify", "--n", "40"],
             "error: involution n=13 has 568504 elements, above --max-elements 250000\n"),
            (["hasse", "--family", "clan", "--p", "6", "--q", "6", "--json"],
             "error: clan (p,q)=(6,6) has 845691 elements, above --max-elements 250000\n"),
            (["hasse", "--family", "fpf", "--n", "2000"],
             "error: fpf n=2000 has about 10^2867 elements, above --max-elements 250000\n"),
            (["hasse", "--family", "inv", "--n", "10000"],
             "error: involution n=10000 has about 10^17872 elements, "
             "above --max-elements 250000\n"),
            # above the size limit the count is not computed at all
            (["hasse", "--family", "inv", "--n", "300000"],
             "error: involution n=300000 is above the size limit n <= 10000; "
             "its elements are not counted\n"),
            (["hasse", "--family", "inv", "--n", "100000000000000000000000"],
             "error: involution n=100000000000000000000000 is above the size limit "
             "n <= 10000; its elements are not counted\n"),
            (["hasse", "--family", "fpf", "--n", "600000"],
             "error: fpf n=600000 is above the size limit n <= 10000; "
             "its elements are not counted\n"),
            (["hasse", "--family", "clan", "--p", "1000000", "--q", "1000000"],
             "error: clan (p,q)=(1000000,1000000) is above the size limit "
             "p+q <= 10000; its elements are not counted\n"),
            # every size below 2661 is under this limit: the first one over
            # it is found by bisection, not by counting each size in turn
            (["verify", "--family", "inv", "--n", "10000", "--max-elements", str(10**4000)],
             "error: involution n=2661 has about 10^4001 elements, "
             "above --max-elements about 10^4000\n"),
        ],
        ids=[
            "hasse-inv-30", "verify-inv-30", "verify-all-40", "hasse-clan-6-6",
            "hasse-fpf-2000", "hasse-inv-10000", "hasse-inv-300000", "hasse-inv-10^23",
            "hasse-fpf-600000", "hasse-clan-10^6-10^6", "verify-inv-10000-limit-10^4000",
        ],
    )
    def test_refused_from_the_count(self, capsys, no_build, argv, err) -> None:
        started = time.perf_counter()
        assert run(argv) == 2
        assert time.perf_counter() - started < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == err

    def test_default_admits_the_largest_documented_sizes(self) -> None:
        import weakorder.cli

        for family, param in [("involution", 12), ("fpf", 14), ("clan", (5, 6))]:
            weakorder.cli._check_size(family, param, weakorder.cli._MAX_ELEMENTS)
        with pytest.raises(ValueError, match="involution n=13 has 568504 elements"):
            weakorder.cli._check_size("involution", 13, weakorder.cli._MAX_ELEMENTS)

    def test_limit_is_inclusive(self, capsys) -> None:
        # involutions of S_4: 10 elements; the verify jobs of inv --n 4
        # have 1, 2, 4 and 10
        assert run(["hasse", "--family", "inv", "--n", "4", "--max-elements", "10"]) == 0
        assert capsys.readouterr().out.startswith("digraph {")
        assert run(["hasse", "--family", "inv", "--n", "4", "--max-elements", "9"]) == 2
        assert capsys.readouterr().err == (
            "error: involution n=4 has 10 elements, above --max-elements 9\n"
        )
        assert run(["verify", "--family", "inv", "--n", "4", "--max-elements", "10"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4
        assert run(["verify", "--family", "inv", "--n", "4", "--max-elements", "9"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "involution n=4 has 10 elements" in captured.err


def test_parser_built_once_per_process(capsys, monkeypatch) -> None:
    import weakorder.cli

    # None calls run() with no argument, which reads sys.argv[1:]
    argvs = [
        ["rank", "--family", "inv", "--n", "5", "--element", "(1,3)(2,5)"],
        ["wset", "--family", "inv", "--n", "3"],
        ["--help"],
        None,
        ["chains", "--family", "clan", "--element", "(1+)(2-)", "--count"],
        ["hasse", "--family", "fpf", "--n", "4", "--json"],
        ["rank", "--family", "magic", "--element", "(1,2)"],
        ["rank", "--family", "fpf", "--element", "(1,2)(3,4)", "--json"],
    ]
    process_argv = ["weakorder", "rank", "--family", "fpf", "--element", "(1,4)(2,3)"]
    monkeypatch.setattr("sys.argv", process_argv)
    build = weakorder.cli._build_parser
    built = []

    def counting():
        built.append(build())
        return built[-1]

    def outcome(argv, fresh):
        if fresh:
            monkeypatch.setattr(weakorder.cli, "_PARSER", None)
        code = run(None if argv is None else list(argv))
        captured = capsys.readouterr()
        # the parser and the subcommand table in use come from the last build
        assert weakorder.cli._PARSER is built[-1][0]
        assert weakorder.cli._COMMANDS is built[-1][1]
        return code, captured.out, captured.err

    monkeypatch.setattr(weakorder.cli, "_PARSER", None)
    monkeypatch.setattr(weakorder.cli, "_COMMANDS", {})
    monkeypatch.setattr(weakorder.cli, "_build_parser", counting)
    reused = [outcome(argv, fresh=False) for argv in argvs]
    assert len(built) == 1
    assert list(built[0][1]) == ["wset", "chains", "hasse", "verify", "rank"]
    assert [code for code, _, _ in reused] == [0, 2, 0, 0, 0, 0, 2, 0]
    assert reused[3] == (0, "2\n", "")
    # a parser built for each call, as every call once did, answers the same
    assert reused == [outcome(argv, fresh=True) for argv in argvs]
    assert len(built) == 1 + len(argvs)
    assert len({id(commands) for _, commands in built}) == len(built)


# argv's for which run() must answer as the top-level parser alone does
_DISPATCH_CORPUS = [
    [],
    ["-h"],
    ["--help"],
    ["bogus"],
    ["ws"],
    ["ran", "--family", "inv", "--n", "5", "--element", "(1,3)"],
    *[[cmd, *more] for cmd in ("wset", "chains", "hasse", "verify", "rank") for more in ([], ["-h"])],
    ["wset", "--family", "inv", "--n", "4", "--element", "(1,3)"],
    ["wset", "--family", "fpf", "--element", "(1,4)(2,3)", "--json"],
    ["chains", "--family", "inv", "--n", "4", "--element", "(1,4)(2,3)"],
    ["chains", "--family", "clan", "--element", "(1,4)(2+)(3-)", "--count"],
    ["hasse", "--family", "fpf", "--n", "4"],
    ["hasse", "--family", "clan", "--p", "1", "--q", "2", "--json"],
    ["verify", "--family", "fpf", "--n", "4"],
    ["verify", "--n", "2", "--json"],
    ["rank", "--family", "inv", "--n", "5", "--element", "(1,3)(2,5)"],
    ["rank", "--family", "fpf", "--element", "(1,2)(3,4)", "--json"],
    ["rank", "--family", "inv", "--n", "5", "--element", "(1,3)(2,5)", "--bogus"],
    ["rank", "--family", "inv", "--n", "5", "--element", "(1,3)", "stray"],
    ["rank", "--family", "inv", "--n", "x", "--element", "(1,3)"],
    ["rank", "--fam", "inv", "--n", "5", "--element", "(1,3)"],
    ["rank", "--family=inv", "--n=5", "--element=(1,3)(2,5)"],
    ["rank", "--family", "inv", "--n", "5", "--", "--element", "(1,3)"],
    ["--json", "rank", "--family", "inv", "--n", "5", "--element", "(1,3)"],
    ["rank", "--he"],
    ["rank", "--family", "inv", "--n", "5", "--element", "-h"],
    ["rank", "--family", "magic", "--element", "(1,2)"],
    ["rank", "--family", "inv", "--element", "(1,2)"],
    ["hasse", "--family", "inv", "--n", "3", "--max-elements", "2"],
    ["verify", "--family", "all", "--n", "2", "--json", "--bogus"],
]


@pytest.mark.parametrize("argv", _DISPATCH_CORPUS, ids=" ".join)
def test_dispatch_answers_as_the_top_level_parser(capsys, monkeypatch, argv) -> None:
    import weakorder.cli

    parser, commands = weakorder.cli._build_parser()
    monkeypatch.setattr(weakorder.cli, "_PARSER", parser)
    monkeypatch.setattr(weakorder.cli, "_COMMANDS", commands)
    # every handler records the namespace it is given, on whichever path
    seen: list[dict] = []
    for sp in commands.values():

        def recording(args, handler=sp.get_default("handler")):
            seen.append(vars(args).copy())
            return handler(args)

        sp.set_defaults(handler=recording)

    code = run(list(argv))
    got = (code, *capsys.readouterr())
    namespaces = seen[:]
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as ex:
        want = (int(ex.code or 0), *capsys.readouterr())
        assert namespaces == []
    else:
        assert args.command == argv[0]
        try:
            code = args.handler(args)
        except ValueError as ex:
            print(f"error: {ex}", file=sys.stderr)
            code = 2
        want = (code, *capsys.readouterr())
        assert namespaces == [{k: v for k, v in vars(args).items() if k != "command"}]
    assert got == want


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

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["wset", "--family", "clan", "--element", "(1+)(2-)", "--p", "1"],
             "give both --p and --q or neither"),
            (["hasse", "--family", "inv", "--p", "1", "--q", "1"],
             "--p/--q only apply to clans"),
            (["hasse", "--family", "fpf"], "fpf posets need --n"),
            (["wset", "--family", "inv", "--n", "0", "--element", "id"],
             "n must be at least 1, got 0"),
            (["hasse", "--family", "clan", "--p", "2"], "clan posets need --p and --q"),
            (["hasse", "--family", "clan", "--p", "2", "--q", "2", "--n", "5"],
             "--n 5 disagrees with p+q=4"),
            (["rank", "--family", "clan", "--element", "(1,2)", "--p", "2", "--q", "2"],
             "element (1,2) has signature (1,1), flags say (2,2)"),
            (["rank", "--family", "inv", "--n", "3", "--element", "(1+)(2,3)"],
             "signed vertices [1] are only valid for clans"),
            (["rank", "--family", "fpf", "--n", "4", "--element", "(1,2)"],
             "fpf text must mention every vertex of 1..4; 2 left as fixed points: 3, 4"),
            (["rank", "--family", "clan", "--n", "4", "--element", "(1,2)"],
             "clan text must mention every vertex of 1..4; 2 missing: 3, 4"),
            (["rank", "--family", "fpf", "--element", "id"],
             "'id' names the involution with no two-cycles; "
             "spell the element out for this family"),
            (["rank", "--family", "inv", "--element", "(1,2)"],
             "n is required for involutions: fixed points are implicit"),
            (["hasse", "--family", "fpf", "--n", "3"], "n must be a positive even integer, got 3"),
            (["hasse", "--family", "inv", "--n", "-3"], "n must be at least 1, got -3"),
        ],
        ids=[
            "wset-p-without-q", "hasse-pq-outside-clans", "hasse-needs-n", "wset-n-0",
            "hasse-clan-needs-pq", "hasse-n-disagrees", "rank-signature-disagrees",
            "rank-signs-outside-clans", "rank-fpf-gaps", "rank-clan-gaps", "rank-fpf-id",
            "rank-inv-needs-n", "hasse-fpf-odd-n", "hasse-negative-n",
        ],
    )
    def test_flag_misuse_exits_2(self, capsys, argv, err) -> None:
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {err}\n"
