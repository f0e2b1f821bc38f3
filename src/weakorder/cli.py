"""Command-line interface: element parsing, DOT/JSON export, and the driver.

Subcommands:

- ``wset``: print the W-set of an element, one permutation per line or JSON;
- ``chains``: enumerate (or just count) the labeled maximal chains from the
  bottom element up to a given element, exploring only that interval;
- ``hasse``: print a whole poset as DOT (default) or JSON;
- ``verify``: rebuild every poset up to a size cap, check gradedness, and
  check that the direct W-set of every element agrees with the chain oracle;
- ``rank``: print the rank of an element.

Element grammar: a sequence of cycles "(a,b)" and, for clans, signed
vertices "(v+)" or "(v-)"; whitespace is ignored.  Involutions leave fixed
points implicit, so they need an explicit --n; "id" names the involution
with no two-cycles.  Clan text must mention every vertex, so n is inferred.

Exit codes: 0 success, 1 verification failure, 2 malformed input or bad
arguments.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import re
import sys

from .involutions import Clan, FpfInvolution, Involution
from .matchings import CoverType
from .posets import (
    FAMILIES,
    Element,
    WeakOrderPoset,
    _family,
    build_lower_interval,
    build_poset,
    count_chains_below,
    maximal_chains,
    verify_graded,
    wset_direct,
)
from .wsets import oracle_words, wset_oracle

__all__ = ["parse_element", "export_dot", "export_json", "run", "main"]

_CYCLE = re.compile(r"\((\d+),(\d+)\)|\((\d+)([+-])\)")


def parse_element(text: str, family: str, n: "int | None" = None) -> Element:
    """Parse cycle/sign notation into an element of the named family.

    >>> parse_element("(1,4)(2,3)", "involution", n=4).cycles
    ((1, 4), (2, 3))
    >>> parse_element("(1,6)(2,3)(4+)(5-)(7+)", "clan").text()
    '(1,6)(2,3)(4+)(5-)(7+)'
    """
    _family(family)
    compact = "".join(text.split())
    if not compact:
        raise ValueError("empty element text")
    pairs: list[tuple[int, int]] = []
    signs: dict[int, int] = {}
    seen: set[int] = set()
    if compact == "id":
        if family != "involution":
            raise ValueError(
                "'id' names the involution with no two-cycles; "
                "spell the element out for this family"
            )
    else:
        at = 0
        while at < len(compact):
            got = _CYCLE.match(compact, at)
            if got is None:
                raise ValueError(
                    f"malformed element text {text!r} near {compact[at:at + 12]!r}"
                )
            if got.group(1) is not None:
                a, b = int(got.group(1)), int(got.group(2))
                if a == b:
                    raise ValueError(f"cycle ({a},{b}) repeats vertex {a}")
                fresh = (a, b)
                pairs.append((a, b))
            else:
                v = int(got.group(3))
                fresh = (v,)
                signs[v] = 1 if got.group(4) == "+" else -1
            for v in fresh:
                if v in seen:
                    raise ValueError(f"vertex {v} appears more than once in {text!r}")
                seen.add(v)
            at = got.end()
    if signs and family != "clan":
        raise ValueError(f"signed vertices {sorted(signs)} are only valid for clans")
    if family == "involution":
        if n is None:
            raise ValueError("n is required for involutions: fixed points are implicit")
    elif n is None:
        n = max(seen, default=0)
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    bad = sorted(v for v in seen if not 1 <= v <= n)
    if bad:
        raise ValueError(f"vertex {bad[0]} out of range 1..{n}")
    if family == "involution":
        return Involution.from_cycles(n, pairs)
    # seen lies in 1..n, so fewer than n vertices leaves gaps; name at most
    # ten of them, as the text may be short while n is huge
    if len(seen) < n:
        gaps = itertools.islice((v for v in range(1, n + 1) if v not in seen), 10)
        listed = ", ".join(map(str, gaps)) + (", ..." if n - len(seen) > 10 else "")
        what = "left as fixed points" if family == "fpf" else "missing"
        raise ValueError(
            f"{family} text must mention every vertex of 1..{n}; "
            f"{n - len(seen)} {what}: {listed}"
        )
    if family == "fpf":
        return FpfInvolution.from_cycles(n, pairs)
    return Clan.from_parts(n, pairs, signs)


def _describe(family: str, param: "int | tuple[int, int]") -> str:
    if family == "clan":
        p, q = param
        return f"clan (p,q)=({p},{q})"
    return f"{family} n={param}"


def export_dot(P: WeakOrderPoset) -> str:
    """Graphviz text for the Hasse diagram, deterministic byte for byte.

    Nodes are numbered in (rank, text) order and labeled with the canonical
    text; each cover is one edge labeled by its comma-joined label set, with
    attach edges (type II) drawn bold.
    """
    lines = [
        "digraph {",
        "  rankdir=BT;",
        f'  label="{_describe(P.family, P.param)}";',
        "  node [shape=plaintext];",
    ]
    lines += [f'  {j} [label="{e.text()}"];' for j, e in enumerate(P.elements)]
    for e in P.edges:
        bold = ", style=bold" if e.types.count(CoverType.II) == len(e.types) else ""
        lines.append(f'  {e.lo} -> {e.hi} [label="{",".join(map(str, e.labels))}"{bold}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _params_json(family: str, param: "int | tuple[int, int]") -> dict[str, int]:
    if family == "clan":
        return {"p": param[0], "q": param[1]}
    return {"n": param}


def _array(rows: "list[str]", pad: str) -> str:
    """Encoded rows as the JSON array ``json.dumps(..., indent=2)`` lays out
    with its closing bracket indented by ``pad``."""
    return "[\n" + ",\n".join(rows) + "\n" + pad + "]" if rows else "[]"


# each cover type as a JSON string on its own line of an edge's "types"
_TYPE_ROW = {t: f"        {json.dumps(str(t))}" for t in CoverType}


def export_json(P: WeakOrderPoset) -> str:
    """JSON dump of the poset: elements with ids and ranks, labeled edges.

    Byte for byte ``json.dumps(payload, indent=2) + "\\n"`` of the nested
    payload, written row by row: with ``indent`` set, ``json`` takes its
    pure-Python encoder, so only the strings go through the C-backed
    ``json.dumps(str)``.
    """
    params = [
        f"    {json.dumps(k)}: {v}" for k, v in _params_json(P.family, P.param).items()
    ]
    elements = [
        f'    {{\n      "id": {j},\n      "text": {json.dumps(e.text())},\n'
        f'      "rank": {r}\n    }}'
        for j, (e, r) in enumerate(zip(P.elements, P.ranks))
    ]
    edges = [
        f'    {{\n      "lo": {e.lo},\n      "hi": {e.hi},\n'
        f'      "labels": {_array([f"        {i}" for i in e.labels], "      ")},\n'
        f'      "types": {_array([_TYPE_ROW[t] for t in e.types], "      ")}\n    }}'
        for e in P.edges
    ]
    return (
        f'{{\n  "family": {json.dumps(P.family)},\n'
        f'  "params": {{\n' + ",\n".join(params) + "\n  },\n"
        f'  "elements": {_array(elements, "  ")},\n'
        f'  "edges": {_array(edges, "  ")}\n}}\n'
    )


def _element_from_args(args: argparse.Namespace) -> Element:
    if args.family != "clan" and (args.p is not None or args.q is not None):
        raise ValueError("--p/--q only apply to clans")
    x = parse_element(args.element, args.family, n=args.n)
    if args.family == "clan":
        if (args.p is None) != (args.q is None):
            raise ValueError("give both --p and --q or neither")
        if args.p is not None and (x.p, x.q) != (args.p, args.q):
            raise ValueError(
                f"element {x.text()} has signature ({x.p},{x.q}), "
                f"flags say ({args.p},{args.q})"
            )
    return x


def _param_from_flags(args: argparse.Namespace) -> "int | tuple[int, int]":
    if args.family == "clan":
        if args.p is None or args.q is None:
            raise ValueError("clan posets need --p and --q")
        if args.n is not None and args.n != args.p + args.q:
            raise ValueError(f"--n {args.n} disagrees with p+q={args.p + args.q}")
        return (args.p, args.q)
    if args.p is not None or args.q is not None:
        raise ValueError("--p/--q only apply to clans")
    if args.n is None:
        raise ValueError(f"{args.family} posets need --n")
    return args.n


def _cmd_wset(args: argparse.Namespace) -> int:
    x = _element_from_args(args)
    if args.compact and x.n > 9:
        raise ValueError("--compact digit form is only defined for n <= 9")
    ws = wset_direct(args.family, x)
    if args.json:
        payload = {
            "family": args.family,
            "element": x.text(),
            "rank": ws.rank,
            "members": [list(w.word) for w in ws.members],
        }
        print(json.dumps(payload, indent=2))
    else:
        for w in ws.members:
            print(w.as_text(compact=args.compact))
    return 0


def _cmd_chains(args: argparse.Namespace) -> int:
    x = _element_from_args(args)
    if args.count:
        total = count_chains_below(args.family, x)
        print(json.dumps({"element": x.text(), "count": total}) if args.json else total)
        return 0
    P = build_lower_interval(args.family, x)
    if args.json:
        chains = [list(c.labels) for c in maximal_chains(P, x)]
        payload = {"element": x.text(), "count": len(chains), "chains": chains}
        print(json.dumps(payload, indent=2))
    else:
        for c in maximal_chains(P, x):
            print(",".join(str(i) for i in c.labels))
    return 0


def _check_size(family: str, param: "int | tuple[int, int]", limit: int) -> None:
    """Raise ValueError if the closed-form element count is above ``limit``."""
    count = _family(family).count(param)
    if count > limit:
        # str() refuses ints of more than 4300 digits, and no one reads them
        amount = str(count) if count < 10**30 else f"about 10^{round(math.log10(count))}"
        raise ValueError(
            f"{_describe(family, param)} has {amount} elements, "
            f"above --max-elements {limit}"
        )


def _cmd_hasse(args: argparse.Namespace) -> int:
    param = _param_from_flags(args)
    _check_size(args.family, param, args.max_elements)
    P = build_poset(args.family, param)
    sys.stdout.write(export_json(P) if args.json else export_dot(P))
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    x = _element_from_args(args)
    r = _family(args.family).rank(x)
    if args.json:
        print(json.dumps({"element": x.text(), "rank": r}))
    else:
        print(r)
    return 0


def _only(mine: tuple, theirs: tuple, side: str) -> str:
    """How many W-set members only this side has, and up to five of them."""
    other = set(theirs)
    only = [w for w in mine if w not in other]
    shown = " ".join(w.as_text() for w in only[:5]) + (" ..." if len(only) > 5 else "")
    return f"{len(only)} only {side}" + (f" ({shown})" if only else "")


# the size cap of a bare ``verify`` per family: n, or p+q for clans
_VERIFY_CAPS = {"involution": 6, "fpf": 8, "clan": 6}

# the default element limit of ``hasse`` and ``verify``: it admits
# involutions n <= 12, fpf n <= 14 and clans p+q <= 11
_MAX_ELEMENTS = 250_000


def _cmd_verify(args: argparse.Namespace) -> int:
    families = FAMILIES if args.family == "all" else (args.family,)
    jobs = []
    # every job passes the size guard before any is built; counts grow with
    # n, so a huge cap stops at its first job above the limit
    for fam in families:
        for n in range(1, (_VERIFY_CAPS[fam] if args.n is None else args.n) + 1):
            for param in _family(fam).params(n):
                _check_size(fam, param, args.max_elements)
                jobs.append((fam, param))
    if not jobs:
        raise ValueError(f"--family {args.family} --n {args.n} leaves nothing to verify")
    failures: list[str] = []
    results = []
    for fam, param in jobs:
        P = build_poset(fam, param)
        report = verify_graded(P)
        for v in report.violations:
            failures.append(f"{_describe(fam, param)}: {v}")
        agree = 0
        for j, x in enumerate(P.elements):
            direct = wset_direct(fam, x).members
            # words equal to the validated direct members pass every check
            # of WSet, so the oracle's WSet is built only on a difference
            if oracle_words(P, j) == [w.word for w in direct]:
                agree += 1
                continue
            oracle = wset_oracle(P, x).members
            failures.append(
                f"{_describe(fam, param)}: W-set mismatch at {x.text()}: "
                f"{_only(direct, oracle, 'direct')}, {_only(oracle, direct, 'oracle')}"
            )
        ok = report.ok and agree == len(P.elements)
        results.append({
            "family": fam,
            "params": _params_json(fam, param),
            "elements": len(P.elements),
            "edges": len(P.edges),
            "agree": agree,
            "ok": ok,
        })
        if not args.json:
            print(
                f"{_describe(fam, param)}: {len(P.elements)} elements, "
                f"{len(P.edges)} edges, {agree}/{len(P.elements)} W-sets agree "
                f"[{'ok' if ok else 'FAIL'}]"
            )
    if args.json:
        print(json.dumps({"jobs": results, "failures": failures}, indent=2))
    else:
        for line in failures:
            print(f"verification failure: {line}", file=sys.stderr)
    return 1 if failures else 0


def _add_element_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--element", required=True, help="cycle/sign notation, e.g. (1,4)(2,3)")
    _add_size_args(sp)


def _add_size_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--n", type=int, help="ambient size (required for involutions)")
    sp.add_argument("--p", type=int, help="clan signature, plus part")
    sp.add_argument("--q", type=int, help="clan signature, minus part")


def _add_max_elements(sp: argparse.ArgumentParser) -> None:
    sp.add_argument(
        "--max-elements",
        type=int,
        default=_MAX_ELEMENTS,
        help="refuse (exit 2) a poset whose closed-form element count is above "
        f"this, before building anything (default {_MAX_ELEMENTS})",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakorder",
        description="Weak order posets on involutions, their chains and W-sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fam = {"choices": ["inv", *FAMILIES], "required": True}

    sp = sub.add_parser("wset", help="print the W-set of an element")
    sp.add_argument("--family", **fam)
    _add_element_args(sp)
    sp.add_argument("--compact", action="store_true", help="digit form when n <= 9")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(handler=_cmd_wset)

    sp = sub.add_parser("chains", help="labeled maximal chains up to an element")
    sp.add_argument("--family", **fam)
    _add_element_args(sp)
    sp.add_argument("--count", action="store_true", help="print only the chain count")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(handler=_cmd_chains)

    sp = sub.add_parser("hasse", help="export a whole poset as DOT or JSON")
    sp.add_argument("--family", **fam)
    _add_size_args(sp)
    _add_max_elements(sp)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(handler=_cmd_hasse)

    sp = sub.add_parser("verify", help="gradedness and W-set oracle checks")
    sp.add_argument("--family", choices=["inv", *FAMILIES, "all"], default="all")
    sp.add_argument("--n", type=int, help="size cap (p+q for clans)")
    _add_max_elements(sp)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(handler=_cmd_verify)

    sp = sub.add_parser("rank", help="print the rank of an element")
    sp.add_argument("--family", **fam)
    _add_element_args(sp)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(handler=_cmd_rank)

    return parser


# built on the first ``run`` and reused: building it costs about as much as
# answering a small request
_PARSER: "argparse.ArgumentParser | None" = None


def run(argv: "list[str] | None" = None) -> int:
    """Parse argv and run one subcommand; returns the exit code."""
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as ex:
        return int(ex.code or 0)
    if args.family == "inv":
        args.family = "involution"
    try:
        return args.handler(args)
    except ValueError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
