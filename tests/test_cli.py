"""Element parsing, exports, and the command-line entry points."""

from __future__ import annotations

import hashlib
import json
import time

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

    # faults go in at wsets._chain_products, the oracle's products that both
    # verify's comparison and wset_oracle read; each fault returns modified
    # copies and leaves the per-poset cache as it is

    def test_json_reports_failures(self, capsys, monkeypatch) -> None:
        import weakorder.wsets

        monkeypatch.setattr(
            weakorder.wsets, "_chain_products", lambda P: [set() for _ in P.elements]
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

        def drop_one(P):
            return [set(sorted(words)[1:]) for words in real(P)]

        monkeypatch.setattr(weakorder.wsets, "_chain_products", drop_one)
        assert run(["verify", "--family", "inv", "--n", "4"]) == 1
        err = capsys.readouterr().err
        assert (
            "involution n=4: W-set mismatch at (1,4)(2,3): "
            "1 only direct ([3,2,4,1]), 0 only oracle"
        ) in err

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

        def swap_one(P):
            products = list(real(P))
            if len(products) > 1:
                products[-1] = set(sorted(products[-1])[1:]) | {bad(P.bottom.n)}
            return products

        monkeypatch.setattr(weakorder.wsets, "_chain_products", swap_one)
        assert run(["verify", "--family", "fpf", "--n", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "fpf n=2: 1 elements, 0 edges, 1/1 W-sets agree [ok]\n"
        assert captured.err == err

    def test_converts_and_measures_each_member_once(self, monkeypatch) -> None:
        # the sibling of test_oracle_converts_and_measures_each_member_once:
        # an agreeing W-set is validated once, on the direct side.  Only
        # conversions made in wsets count; the rank reads its own elsewhere
        import sys

        import weakorder.wsets
        from weakorder import Permutation, wset_direct

        members = [
            w
            for n in range(1, 6)
            for x in build_poset("involution", n).elements
            for w in wset_direct("involution", x).members
        ]
        lengths, conversions = [], []
        measure, convert = weakorder.wsets.length, Permutation.__post_init__

        def counted_length(w: Permutation) -> int:
            lengths.append(w)
            return measure(w)

        def counted_convert(w: Permutation) -> None:
            # frame 1 is the dataclass __init__, frame 2 its caller
            if sys._getframe(2).f_globals["__name__"] == "weakorder.wsets":
                conversions.append(w)
            convert(w)

        monkeypatch.setattr(weakorder.wsets, "length", counted_length)
        monkeypatch.setattr(Permutation, "__post_init__", counted_convert)
        assert run(["verify", "--family", "inv", "--n", "5"]) == 0
        assert len(members) == 83
        assert lengths == conversions == members


class TestSizeGuard:
    """``hasse`` and ``verify`` refuse a poset above --max-elements from its
    closed-form count alone, before anything is built or printed."""

    @pytest.fixture
    def no_build(self, monkeypatch):
        import weakorder.cli

        def refuse(family, param):
            raise AssertionError(f"build_poset({family!r}, {param!r}) called")

        monkeypatch.setattr(weakorder.cli, "build_poset", refuse)

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
        ],
        ids=[
            "hasse-inv-30", "verify-inv-30", "verify-all-40", "hasse-clan-6-6",
            "hasse-fpf-2000", "hasse-inv-10000",
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

    argvs = [
        ["rank", "--family", "inv", "--n", "5", "--element", "(1,3)(2,5)"],
        ["wset", "--family", "inv", "--n", "3"],
        ["--help"],
        ["chains", "--family", "clan", "--element", "(1+)(2-)", "--count"],
        ["hasse", "--family", "fpf", "--n", "4", "--json"],
        ["rank", "--family", "magic", "--element", "(1,2)"],
        ["rank", "--family", "fpf", "--element", "(1,2)(3,4)", "--json"],
    ]
    build = weakorder.cli._build_parser
    built = []

    def counting():
        built.append(1)
        return build()

    def outcome(argv, fresh):
        if fresh:
            monkeypatch.setattr(weakorder.cli, "_PARSER", None)
        code = run(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    monkeypatch.setattr(weakorder.cli, "_PARSER", None)
    monkeypatch.setattr(weakorder.cli, "_build_parser", counting)
    reused = [outcome(argv, fresh=False) for argv in argvs]
    assert len(built) == 1
    assert [code for code, _, _ in reused] == [0, 2, 0, 0, 0, 2, 0]
    # a parser built for each call, as every call once did, answers the same
    assert reused == [outcome(argv, fresh=True) for argv in argvs]


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
        ],
        ids=["wset-p-without-q", "hasse-pq-outside-clans", "hasse-needs-n", "wset-n-0"],
    )
    def test_flag_misuse_exits_2(self, capsys, argv, err) -> None:
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {err}\n"
