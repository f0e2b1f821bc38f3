"""The benchmark's workloads: the CLI requests each one makes, and the checks
every answer must pass.

Requests are plain argv lists for ``weakorder.cli.run``.  The ``queries``
stream is drawn from the seed; ``verify-involution`` is a fixed command.  The
checks use only ``reference``, never the program, and run after the timed
section.
"""

from __future__ import annotations

import json
import random
import re
from collections import defaultdict
from dataclasses import dataclass

import reference as ref

WORKLOADS = ("verify-involution", "queries")

# full sizes, then the smoke sizes that run the same code in seconds
SIZES = {
    False: {"verify_inv": 8, "query_inv": 8, "query_fpf": 10, "query_clan": 7, "query_repeat": 2},
    True: {"verify_inv": 4, "query_inv": 4, "query_fpf": 6, "query_clan": 4, "query_repeat": 1},
}

# the W-set of an element is computed by exhausting S_n up to this n
EXHAUST_MAX_N = 8

_CLI_FAMILY = {"involution": "inv", "fpf": "fpf", "clan": "clan"}


@dataclass(frozen=True)
class Request:
    """One CLI call: its argv, and what the checks need to know about it."""

    kind: str  # verify | hasse | wset | chains | rank
    argv: tuple[str, ...]
    family: str = ""
    param: object = None
    element: "tuple | None" = None


def _element_request(kind: str, family: str, param, x: tuple) -> Request:
    argv = [kind, "--family", _CLI_FAMILY[family]]
    if family != "clan":
        argv += ["--n", str(param)]
    argv += ["--element", ref.format_element(family, x)]
    if kind == "chains":
        argv.append("--count")
    return Request(kind, tuple(argv), family, param, x)


def _query_pools(sizes: dict) -> list[tuple[str, object, int]]:
    """(family, param, draws per request kind): every clan signature of p+q."""
    k = sizes["query_clan"]
    return [
        ("involution", sizes["query_inv"], 7 * sizes["query_repeat"]),
        ("fpf", sizes["query_fpf"], 7 * sizes["query_repeat"]),
    ] + [("clan", (p, k - p), sizes["query_repeat"]) for p in range(1, k)]


def requests(workload: str, seed: int, smoke: bool = False) -> list[Request]:
    """The requests of one round.  Every round repeats the same list."""
    sizes = SIZES[smoke]
    if workload == "verify-involution":
        return [Request("verify", ("verify", "--family", "inv", "--n", str(sizes["verify_inv"])))]
    if workload != "queries":
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    # Rank-balanced draws: for each pool and request kind, walk the ranks in
    # a shuffled order and pick an element of that rank uniformly.
    rng = random.Random(seed)
    per_kind: dict[str, list[Request]] = defaultdict(list)
    for family, param, draws in _query_pools(sizes):
        by_rank = defaultdict(list)
        for x in ref.enumerate_family(family, param):
            by_rank[ref.rank(family, x)].append(x)
        for kind in ("wset", "chains", "rank"):
            order = rng.sample(sorted(by_rank), len(by_rank))
            for j in range(draws):
                x = rng.choice(by_rank[order[j % len(order)]])
                per_kind[kind].append(_element_request(kind, family, param, x))
    # the fpf poset of the chains pool, exported once as DOT and once as JSON
    n = sizes["query_fpf"]
    base = ("hasse", "--family", "fpf", "--n", str(n))
    stream = [r for trio in zip(*per_kind.values()) for r in trio] + [
        Request("hasse", base, "fpf", n),
        Request("hasse", base + ("--json",), "fpf", n),
    ]
    rng.shuffle(stream)
    return stream


# ------------------------------------------------------------------ checks

_VERIFY_LINE = re.compile(
    r"(?:(involution|fpf) n=(\d+)|(clan) \(p,q\)=\((\d+),(\d+)\)): (\d+) elements, "
    r"(\d+) edges, (\d+)/(\d+) W-sets agree \[(ok|FAIL)\]"
)
_DOT_NODE = re.compile(r'  (\d+) \[label="([^"]*)"\];')
_DOT_EDGE = re.compile(r'  (\d+) -> (\d+) \[label="([\d,]+)"(, style=bold)?\];')


class Checker:
    """Checks answers against this benchmark's own computations, cached."""

    def __init__(self) -> None:
        self._closures: dict = {}
        self._wsets: dict = {}
        self._rw_memo: dict = {}

    def closure(self, family: str, param):
        key = (family, param)
        if key not in self._closures:
            self._closures[key] = ref.closure(family, param)
        return self._closures[key]

    def wsets(self, family: str, param) -> dict:
        key = (family, param)
        if key not in self._wsets:
            n = param if family != "clan" else sum(param)
            self._wsets[key] = (
                ref.exhaustive_wsets(family, param) if n <= EXHAUST_MAX_N
                else ref.chain_products(family, param)
            )
        return self._wsets[key]

    def check(self, req: Request, code: int, out: str, err: str) -> list[str]:
        """Problems with one answer; an empty list means it is correct."""
        if code != 0:
            return [f"exit code {code}: {err.strip()[:300]}"]
        try:
            return getattr(self, "_check_" + req.kind)(req, out, err)
        except (ValueError, KeyError, IndexError, TypeError) as ex:
            return [f"unreadable output: {type(ex).__name__}: {ex}"]

    def _check_verify(self, req: Request, out: str, err: str) -> list[str]:
        fam_arg, cap = req.argv[2], int(req.argv[4])
        family = {"inv": "involution"}.get(fam_arg, fam_arg)
        want = _verify_jobs(family, cap)
        problems = [f"stderr not empty: {err.strip()[:200]}"] if err else []
        seen = []
        for line in out.splitlines():
            got = _VERIFY_LINE.fullmatch(line)
            if got is None:
                problems.append(f"unreadable verify line {line!r}")
                continue
            fam = got.group(1) or got.group(3)
            param = int(got.group(2)) if got.group(2) else (int(got.group(4)), int(got.group(5)))
            elements, edges, agree, total = (int(got.group(k)) for k in (6, 7, 8, 9))
            seen.append((fam, param))
            count = ref.family_count(fam, param)
            _, want_edges = self.closure(fam, param)
            if got.group(10) != "ok":
                problems.append(f"{line}: not ok")
            if elements != count or total != count or agree != count:
                problems.append(f"{line}: closed form gives {count} elements")
            if edges != len(want_edges):
                problems.append(f"{line}: expected {len(want_edges)} edges")
        if seen != want:
            problems.append(f"jobs {seen} differ from the expected {want}")
        return problems

    def _check_hasse(self, req: Request, out: str, err: str) -> list[str]:
        family, param = req.family, req.param
        n = param if family != "clan" else sum(param)
        if "--json" in req.argv:
            doc = json.loads(out)
            texts = [e["text"] for e in doc["elements"]]
            ids = [e["id"] for e in doc["elements"]]
            ranks = [e["rank"] for e in doc["elements"]]
            edges = [
                (e["lo"], e["hi"], tuple(e["labels"]), all(t == "II" for t in e["types"]))
                for e in doc["edges"]
            ]
            problems = [] if ids == list(range(len(ids))) else ["element ids not 0..N-1"]
            want_params = {"p": param[0], "q": param[1]} if family == "clan" else {"n": n}
            if doc["family"] != family or doc["params"] != want_params:
                problems.append(f"header names {doc['family']} {doc['params']}")
        else:
            lines = out.splitlines()
            texts, edges, problems = [], [], []
            if lines[0] != "digraph {" or lines[-1] != "}":
                problems.append("DOT text is not one digraph")
            for line in lines[4:-1]:
                node, edge = _DOT_NODE.fullmatch(line), _DOT_EDGE.fullmatch(line)
                if node is not None and int(node.group(1)) == len(texts):
                    texts.append(node.group(2))
                elif edge is not None:
                    labels = tuple(int(v) for v in edge.group(3).split(","))
                    edges.append((int(edge.group(1)), int(edge.group(2)), labels, bool(edge.group(4))))
                else:
                    problems.append(f"unreadable DOT line {line!r}")
            ranks = None
        elements = [ref.parse_element(t, family, n) for t in texts]
        want_ranks = [ref.rank(family, x) for x in elements]
        _, want_edges = self.closure(family, param)
        if len(elements) != ref.family_count(family, param):
            problems.append(f"{len(elements)} elements, closed form gives {ref.family_count(family, param)}")
        if set(elements) != set(ref.enumerate_family(family, param)) or len(set(elements)) != len(elements):
            problems.append("element set differs from the family")
        if ranks is not None and ranks != want_ranks:
            problems.append("stored ranks differ from the rank formula")
        order = [(r, t) for r, t in zip(want_ranks, texts)]
        if order != sorted(order):
            problems.append("elements not in (rank, text) order")
        got_edges = {}
        for lo, hi, labels, bold in edges:
            x, y = elements[lo], elements[hi]
            if want_ranks[hi] != want_ranks[lo] + 1:
                problems.append(f"edge {texts[lo]} -> {texts[hi]} does not raise the rank by 1")
            for i in labels:
                if y not in ref.ups(family, i, x):
                    problems.append(f"label {i} does not map {texts[lo]} to {texts[hi]}")
            if bold != all(ref.is_attach(family, i, x) for i in labels):
                problems.append(f"edge {texts[lo]} -> {texts[hi]} has the wrong cover type")
            got_edges[x, y] = set(labels)
        if got_edges != want_edges:
            problems.append(f"{len(got_edges)} edges differ from the {len(want_edges)} covers")
        return problems[:20]

    def _check_wset(self, req: Request, out: str, err: str) -> list[str]:
        family, x = req.family, req.element
        r = ref.rank(family, x)
        start = ref.bottom(family, req.param)
        members = [ref.parse_permutation(line) for line in out.splitlines()]
        problems = []
        if members != sorted(set(members)):
            problems.append("members not sorted and distinct")
        for w in members:
            if ref.inversions(w) != r:
                problems.append(f"member {w} has length {ref.inversions(w)}, rank is {r}")
            if x not in ref.act(family, ref.reduced_word(w), start):
                problems.append(f"member {w} does not carry the bottom to the element")
        want = self.wsets(family, req.param).get(x, set())
        if set(members) != want:
            problems.append(
                f"W-set differs: {len(set(members) - want)} extra, {len(want - set(members))} missing"
            )
        return problems[:20]

    def _check_chains(self, req: Request, out: str, err: str) -> list[str]:
        want_ws = self.wsets(req.family, req.param).get(req.element, set())
        want = sum(ref.reduced_word_count(w, self._rw_memo) for w in want_ws)
        got = int(out)
        return [] if got == want else [f"{got} chains, reduced words give {want}"]

    def _check_rank(self, req: Request, out: str, err: str) -> list[str]:
        want = ref.rank(req.family, req.element)
        got = int(out)
        return [] if got == want else [f"rank {got}, the formula gives {want}"]


def _verify_jobs(family: str, cap: int) -> list[tuple[str, object]]:
    # the sizes `verify --family F --n cap` documents: everything up to cap
    if family == "involution":
        return [(family, n) for n in range(1, cap + 1)]
    if family == "fpf":
        return [(family, n) for n in range(2, cap + 1, 2)]
    return [("clan", (p, t - p)) for t in range(2, cap + 1) for p in range(1, t)]
