"""Command-line interface: element parsing, DOT/JSON export, and the driver.

Subcommands:

- ``wset``: print the W-set of an element, one permutation per line or JSON;
- ``chains``: enumerate (or just count) the labeled maximal chains from the
  bottom element up to a given element, exploring only that interval;
- ``hasse``: print a whole poset as DOT (default) or JSON, in bounded pieces;
- ``verify``: check every poset up to a size cap by ``posets._verify_job``;
- ``rank``: print the rank of an element.

Element grammar: a sequence of cycles "(a,b)" and, for clans, signed
vertices "(v+)" or "(v-)"; whitespace is ignored.  Involutions leave fixed
points implicit, so they need an explicit --n; "id" names the involution
with no two-cycles.  Fpf and clan text must mention every vertex, so n is
inferred, and a given --n must agree.

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
from bisect import bisect_left
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter
from typing import Iterable, Iterator

from .matchings import CoverType
from .permutations import _word_text
from .posets import (
    FAMILIES,
    Element,
    WeakOrderPoset,
    _chain_walk,
    _family,
    _named,
    _verify_job,
    build_lower_interval,
    build_poset,
    count_chains_below,
    wset_direct,
)

_II = CoverType.II

__all__ = ["parse_element", "export_dot", "export_json", "run", "main"]

_CYCLE = re.compile(r"\((\d+),(\d+)\)|\((\d+)([+-])\)")


def parse_element(text: str, family: str, n: "int | None" = None) -> Element:
    """Parse cycle/sign notation into an element of the named family.

    >>> parse_element("(1,4)(2,3)", "involution", n=4).cycles
    ((1, 4), (2, 3))
    >>> parse_element("(1,6)(2,3)(4+)(5-)(7+)", "clan").text()
    '(1,6)(2,3)(4+)(5-)(7+)'
    """
    fam = _family(family)
    compact = "".join(text.split())
    if not compact:
        raise ValueError("empty element text")
    # each vertex named, to its image: the other end of its cycle, or itself signed
    image: dict[int, int] = {}
    signed: list[int] = []
    if compact == "id":
        if fam.fixed != "implicit":
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
                fresh = {a: b, b: a}
            else:
                v = int(got.group(3))
                fresh = {v: v if got.group(4) == "+" else -v}
                signed.append(v)
            for v in fresh:
                if v in image:
                    raise ValueError(f"vertex {v} appears more than once in {text!r}")
            image.update(fresh)
            at = got.end()
    if signed and fam.fixed != "signed":
        raise ValueError(f"signed vertices {sorted(signed)} are only valid for clans")
    if n is None:
        if fam.fixed == "implicit":
            raise ValueError("n is required for involutions: fixed points are implicit")
        n = max(image, default=0)
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    bad = sorted(v for v in image if not 1 <= v <= n)
    if bad:
        raise ValueError(f"vertex {bad[0]} out of range 1..{n}")
    # the vertices named lie in 1..n, so fewer than n leaves gaps; name at
    # most ten of them, as the text may be short while n is huge
    if len(image) < n and fam.fixed != "implicit":
        gaps = itertools.islice((v for v in range(1, n + 1) if v not in image), 10)
        listed = ", ".join(map(str, gaps)) + (", ..." if n - len(image) > 10 else "")
        what = "left as fixed points" if fam.fixed == "absent" else "missing"
        raise ValueError(
            f"{family} text must mention every vertex of 1..{n}; "
            f"{n - len(image)} {what}: {listed}"
        )
    return fam.element(tuple([image.get(v, v) for v in range(1, n + 1)]))


def _describe(family: str, param: "int | tuple[int, int]") -> str:
    return _family(family).text.format(**_named(family, param))


def _numerals(P: WeakOrderPoset) -> list[str]:
    """``str(v)`` for every v below the larger of the element count and n:
    every element index and every label (1..n-1) of P, each formatted once
    per export."""
    n = P.elements[0].n if P.elements else 0
    return list(map(str, range(max(len(P.elements), n))))


# the most rows (DOT lines, JSON elements or edges) that one piece of a
# ``hasse`` export holds, so that an export holds its poset and one piece
_PIECE_ROWS = 250


def _pieces(rows: Iterable[str], sep: str = "", lead: str = "") -> Iterator[str]:
    """``lead + sep.join(rows)`` in pieces of at most ``_PIECE_ROWS`` rows,
    each after the first starting with ``sep``; nothing if there are no rows."""
    rows = iter(rows)
    while chunk := list(itertools.islice(rows, _PIECE_ROWS)):
        yield lead + sep.join(chunk)
        lead = sep


def _dot_pieces(P: WeakOrderPoset) -> Iterator[str]:
    """The pieces of ``export_dot(P)``, each formatted when it is asked for."""
    num = _numerals(P)
    yield (
        "digraph {\n  rankdir=BT;\n"
        f'  label="{_describe(P.family, P.param)}";\n  node [shape=plaintext];\n'
    )
    yield from _pieces(f'  {num[j]} [label="{t}"];\n' for j, t in enumerate(P.texts))
    yield from _pieces(
        f'  {num[lo]} -> {num[hi]} [label="'
        f'{num[labels[0]] if len(labels) == 1 else ",".join(map(str, labels))}"'
        f'{", style=bold" if types.count(_II) == len(types) else ""}];\n'
        for lo, hi, labels, types in P.edges
    )
    yield "}\n"


def export_dot(P: WeakOrderPoset) -> str:
    """Graphviz text for the Hasse diagram, deterministic byte for byte.

    Nodes are numbered in (rank, text) order and labeled with the canonical
    text, read from ``P.texts``; each cover is one edge labeled by its
    comma-joined label set, with attach edges (type II) drawn bold.  The
    text is the pieces that ``hasse`` writes one at a time, joined.
    """
    return "".join(_dot_pieces(P))


def _array(rows: "list[str]", pad: str) -> str:
    """Encoded rows as the JSON array ``json.dumps(..., indent=2)`` lays out
    with its closing bracket indented by ``pad``."""
    return "[\n" + ",\n".join(rows) + "\n" + pad + "]" if rows else "[]"


def _array_pieces(rows: Iterable[str], pad: str) -> Iterator[str]:
    """``_array(list(rows), pad)`` in pieces of at most ``_PIECE_ROWS`` rows."""
    end = "[]"
    for piece in _pieces(rows, ",\n", "[\n"):
        yield piece
        end = "\n" + pad + "]"
    yield end


# the separators inside an edge's "labels" and "types" arrays
_LABEL_SEP = ",\n        "
_TYPE_SEP = '",\n        "'
# a cover type's value, its JSON string without the quotes
_VALUE = attrgetter("_value_")


def _json_pieces(P: WeakOrderPoset) -> Iterator[str]:
    """The pieces of ``export_json(P)``, each formatted when it is asked for."""
    num = _numerals(P)
    params = [f"    {json.dumps(k)}: {v}" for k, v in _named(P.family, P.param).items()]
    yield (
        f'{{\n  "family": {json.dumps(P.family)},\n'
        f'  "params": {{\n' + ",\n".join(params) + '\n  },\n  "elements": '
    )
    yield from _array_pieces(
        (
            f'    {{\n      "id": {num[j]},\n      "text": {text},\n      "rank": {r}\n    }}'
            for j, (text, r) in enumerate(zip(map(_quote, P.texts), P.ranks))
        ),
        "  ",
    )
    yield ',\n  "edges": '
    yield from _array_pieces(
        (
            f'    {{\n      "lo": {num[lo]},\n      "hi": {num[hi]},\n      "labels": [\n        '
            f'{num[labels[0]] if len(labels) == 1 else _LABEL_SEP.join(map(str, labels))}'
            f'\n      ],\n      "types": [\n        "'
            f'{types[0]._value_ if len(types) == 1 else _TYPE_SEP.join(map(_VALUE, types))}'
            f'"\n      ]\n    }}'
            if labels and types
            else f'    {{\n      "lo": {lo},\n      "hi": {hi},\n'
            f'      "labels": {_array([f"        {i}" for i in labels], "      ")},\n'
            f'      "types": {_array([f"        {_quote(t.value)}" for t in types], "      ")}'
            "\n    }"
            for lo, hi, labels, types in P.edges
        ),
        "  ",
    )
    yield "\n}\n"


def export_json(P: WeakOrderPoset) -> str:
    """JSON dump of the poset: elements with ids, texts and ranks, labeled edges.

    Byte for byte ``json.dumps(payload, indent=2) + "\\n"`` of the nested
    payload, written row by row: with ``indent`` set, ``json`` takes its
    pure-Python encoder, so only the texts, read from ``P.texts``, go
    through the C-backed string encoder.  An edge with labels is one
    f-string of the numerals of ``_numerals`` and the types' values.  The
    text is the pieces that ``hasse`` writes one at a time, joined.
    """
    return "".join(_json_pieces(P))


def _flag_values(args: argparse.Namespace) -> list:
    """The values of the flags naming the family's parameter, None if not given."""
    flags = _family(args.family).flags
    if "p" not in flags and (args.p is not None or args.q is not None):
        raise ValueError("--p/--q only apply to clans")
    return [getattr(args, f) for f in flags]


def _element_from_args(args: argparse.Namespace) -> Element:
    values = _flag_values(args)
    x = parse_element(args.element, args.family, n=args.n)
    if values.count(None) not in (0, len(values)):
        raise ValueError("give both --p and --q or neither")
    if len(values) > 1 and None not in values:  # parse_element checked a lone --n
        got = list(_named(args.family, _family(args.family).param_of(x)).values())
        if got != values:
            raise ValueError(
                f"element {x.text()} has signature ({','.join(map(str, got))}), "
                f"flags say ({','.join(map(str, values))})"
            )
    return x


def _param_from_flags(args: argparse.Namespace) -> "int | tuple[int, int]":
    flags, values = _family(args.family).flags, _flag_values(args)
    if None in values:
        raise ValueError(f"{args.family} posets need {' and '.join('--' + f for f in flags)}")
    if args.n is not None and args.n != sum(values):
        raise ValueError(f"--n {args.n} disagrees with {'+'.join(flags)}={sum(values)}")
    return values[0] if len(values) == 1 else tuple(values)


def _cmd_wset(args: argparse.Namespace) -> int:
    x = _element_from_args(args)
    if args.compact and x.n > 9:
        raise ValueError("--compact digit form is only defined for n <= 9")
    ws = wset_direct(args.family, x)
    if args.json:
        # json.dumps(payload, indent=2) written row by row, as export_json does
        row = [f"      {v}" for v in range(x.n + 1)]
        rows = ["    " + _array([row[v] for v in w], "    ") for w in ws.words]
        print(
            f'{{\n  "family": {json.dumps(args.family)},\n'
            f'  "element": {json.dumps(x.text())},\n  "rank": {ws.rank},\n'
            f'  "members": {_array(rows, "  ")}\n}}'
        )
    else:
        # one string, as --json writes, not one print per member
        rows = [f"{_word_text(w, args.compact)}\n" for w in ws.words]
        sys.stdout.write("".join(rows))
    return 0


def _cmd_chains(args: argparse.Namespace) -> int:
    x = _element_from_args(args)
    if args.count:
        total = count_chains_below(args.family, x)
        print(json.dumps({"element": x.text(), "count": total}) if args.json else total)
        return 0
    chains = _chain_walk(build_lower_interval(args.family, x))
    if args.json:
        # json.dumps(payload, indent=2) written row by row, as export_json does
        row = [f"      {i}" for i in range(x.n)]
        rows = ["    " + _array([row[i] for i in labels], "    ") for labels, _ in chains]
        head = f'{{\n  "element": {json.dumps(x.text())},\n  "count": {len(rows)},\n'
        print(f'{head}  "chains": {_array(rows, "  ")}\n}}')
    else:
        # one string, as --json writes, not one print per chain
        name = [str(i) for i in range(x.n)]
        rows = [",".join([name[i] for i in labels]) for labels, _ in chains]
        sys.stdout.write("\n".join(rows) + "\n" if rows else "")
    return 0


def _amount(v: int) -> str:
    # str() refuses ints of more than 4300 digits, and no one reads them
    return str(v) if v < 10**30 else f"about 10^{round(math.log10(v))}"


def _check_size(family: str, param: "int | tuple[int, int]", limit: int) -> None:
    """Raise ValueError if the size, then the closed-form element count, is over its limit."""
    if sum(_named(family, param).values()) > _MAX_COUNTED_SIZE:
        raise ValueError(
            f"{_describe(family, param)} is above the size limit "
            f"{'+'.join(_family(family).flags)} <= {_MAX_COUNTED_SIZE}; "
            "its elements are not counted"
        )
    count = _family(family).count(param)
    if count > limit:
        raise ValueError(
            f"{_describe(family, param)} has {_amount(count)} elements, "
            f"above --max-elements {_amount(limit)}"
        )


def _cmd_hasse(args: argparse.Namespace) -> int:
    param = _param_from_flags(args)
    _check_size(args.family, param, args.max_elements)
    P = build_poset(args.family, param)
    # each piece written as it is made, so that no copy of the whole text is held
    for piece in (_json_pieces if args.json else _dot_pieces)(P):
        sys.stdout.write(piece)
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    x = _element_from_args(args)
    r = _family(args.family).rank(x)
    if args.json:
        print(json.dumps({"element": x.text(), "rank": r}))
    else:
        print(r)
    return 0


# the default element limit of ``hasse`` and ``verify``: it admits
# involutions n <= 12, fpf n <= 14 and clans p+q <= 11
_MAX_ELEMENTS = 250_000
# sizes (n, or p+q) above this are refused uncounted: a count costs time
# quadratic in the size, under 0.1 s at this one
_MAX_COUNTED_SIZE = 10_000


def _cmd_verify(args: argparse.Namespace) -> int:
    families = FAMILIES if args.family == "all" else (args.family,)
    jobs = []
    # counts grow with the size, so before anything is built, bisection finds
    # the first size with a job over the limit (with n - 1: fpf skips odd n)
    for fam in families:
        sizes = range(1, (_family(fam).cap if args.n is None else args.n) + 1)

        def refused(n: int, fam: str = fam) -> bool:
            try:
                for m in range(max(n - 1, 1), n + 1):
                    for param in _family(fam).params(m):
                        _check_size(fam, param, args.max_elements)
            except ValueError:
                return True
            return False

        first = bisect_left(sizes, True, key=refused)
        for param in _family(fam).params(sizes[first]) if first < len(sizes) else []:
            _check_size(fam, param, args.max_elements)
        jobs += [(fam, param) for n in sizes for param in _family(fam).params(n)]
    if not jobs:
        raise ValueError(f"--family {args.family} --n {args.n} leaves nothing to verify")
    failures: list[str] = []
    results = []
    for name, param in jobs:
        head = _describe(name, param)
        elements, edges, agree, bad = _verify_job(name, param)
        failures += [f"{head}: {line}" for line in bad]
        job = dict(elements=elements, edges=edges, agree=agree, ok=not bad)
        results.append({"family": name, "params": _named(name, param), **job})
        if not args.json:
            print(
                f"{head}: {elements} elements, {edges} edges, {agree}/{elements} "
                f"W-sets agree [{'ok' if not bad else 'FAIL'}]"
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


def _build_parser() -> "tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]":
    """The top-level parser and its subcommands' parsers, by name."""
    parser = argparse.ArgumentParser(
        prog="weakorder",
        description="Weak order posets on involutions, their chains and W-sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    alias = {"type": lambda name: "involution" if name == "inv" else name}
    fam = {"choices": ["inv", *FAMILIES], "required": True, **alias}

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
    sp.add_argument("--family", choices=["inv", *FAMILIES, "all"], default="all", **alias)
    sp.add_argument("--n", type=int, help="size cap (p+q for clans)")
    _add_max_elements(sp)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(handler=_cmd_verify)

    sp = sub.add_parser("rank", help="print the rank of an element")
    sp.add_argument("--family", **fam)
    _add_element_args(sp)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(handler=_cmd_rank)

    return parser, sub.choices


# built on the first ``run`` and reused, with the table of its subcommands'
# parsers: building them costs about as much as answering a small request.
# A request that names a subcommand first goes straight to that subcommand's
# parser; the top-level parser handles only help and errors
_PARSER: "argparse.ArgumentParser | None" = None
_COMMANDS: "dict[str, argparse.ArgumentParser]" = {}


def run(argv: "list[str] | None" = None) -> int:
    """Parse argv and run one subcommand; returns the exit code."""
    global _PARSER, _COMMANDS
    if _PARSER is None:
        _PARSER, _COMMANDS = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        sub = _COMMANDS.get(argv[0]) if argv else None
        args, rest = sub.parse_known_args(argv[1:]) if sub else (None, [])
        if args is None or rest:
            # no subcommand first, or arguments it left: the top-level parser
            # answers, with its own usage line and message
            args = _PARSER.parse_args(argv)
    except SystemExit as ex:
        return int(ex.code or 0)
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
