"""Per-layer tracing of weakorder from outside the program.

The tracer wraps public functions of the six modules of ``weakorder`` and
installs each wrapper under every module attribute that refers to the
function, which is the name its callers look it up by (``cli.build_poset``,
``posets.upward_covers_fpf``, ``wsets.apply_simple_left`` and so on).  The
program itself is not changed.

Wrappers come in three modes:

- ``span``: timed, and kept as a span (id, parent id, name, start, end,
  request) in memory until the run writes them out;
- ``leaf``: timed and counted, but aggregated rather than kept one by one,
  because these functions run hundreds of thousands of times a round;
- ``count``: counted only; its time stays in the caller's self time.

A function's self time is its duration minus the time of the wrapped calls
made inside it.  Every ``*_s`` metric is a self time, so within one round
the layer times add up to at most that round's wall time.
"""

from __future__ import annotations

import functools
import itertools
import sys
from collections import defaultdict
from time import perf_counter

__all__ = ["Tracer", "PER_LAYER", "layer_metrics"]

# (module, function, key, mode); several functions may share one key
TARGETS = (
    ("cli", "run", "cli.request", "span"),
    ("cli", "parse_element", "cli.parse_element", "span"),
    ("cli", "export_dot", "cli.export_dot", "span"),
    ("cli", "export_json", "cli.export_json", "span"),
    ("posets", "build_poset", "posets.build_poset", "span"),
    ("posets", "verify_graded", "posets.verify_graded", "span"),
    ("posets", "count_maximal_chains", "posets.count_maximal_chains", "span"),
    ("matchings", "upward_covers_involution", "matchings.upward_covers", "leaf"),
    ("matchings", "upward_covers_fpf", "matchings.upward_covers", "leaf"),
    ("matchings", "upward_covers_clan", "matchings.upward_covers", "leaf"),
    ("involutions", "rs_step_involution", "involutions.rs_step", "leaf"),
    ("involutions", "rs_step_fpf", "involutions.rs_step", "leaf"),
    ("wsets", "wset_involution", "wsets.direct_involution", "span"),
    ("wsets", "wset_fpf", "wsets.direct_fpf", "span"),
    ("wsets", "wset_clan", "wsets.direct_clan", "span"),
    ("wsets", "wset_oracle", "wsets.oracle", "span"),
    ("wsets", "check_conditions_involution", "wsets.candidates", "count"),
    ("permutations", "apply_simple_left", "permutations.apply_simple_left", "leaf"),
    ("permutations", "length", "permutations.length", "leaf"),
)

# sizes read off a wrapped function's result, per key
SIZES = {
    "posets.build_poset": lambda P: (
        ("posets.elements_built", len(P.elements)),
        ("posets.edges_built", len(P.edges)),
    ),
    "cli.export_dot": lambda text: (("cli.export_bytes", len(text.encode())),),
    "cli.export_json": lambda text: (("cli.export_bytes", len(text.encode())),),
    "wsets.direct_involution": lambda ws: (("wsets.involution_members", len(ws)),),
    "wsets.direct_fpf": lambda ws: (("wsets.fpf_members", len(ws)),),
    "wsets.direct_clan": lambda ws: (("wsets.clan_members", len(ws)),),
    "wsets.oracle": lambda ws: (("wsets.oracle_members", len(ws)),),
}

class Tracer:
    """Installs the wrappers on entry and restores the originals on exit.

    ``stats`` maps ``key@module`` (the module being the call site) to
    [calls, total seconds, self seconds]; ``sizes`` holds the counters of
    ``SIZES``.  ``take`` hands both over and starts fresh, once per round.
    """

    def __init__(self) -> None:
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.sizes: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.request: object = None
        self._stack: list[list] = [[0.0, None]]  # [child seconds, span id]
        self._undo: list[tuple] = []
        self._ids = itertools.count()
        self._origin = perf_counter()

    def __enter__(self) -> "Tracer":
        modules = {
            name.rpartition(".")[2]: mod
            for name, mod in sys.modules.items()
            if name == "weakorder" or name.startswith("weakorder.")
        }
        for owner, fname, key, mode in TARGETS:
            fn = getattr(modules[owner], fname)
            for site, mod in modules.items():
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._undo.append((mod, attr, value))
                        setattr(mod, attr, self._wrap(fn, f"{key}@{site}", key, mode))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()

    def take(self) -> tuple[dict, dict]:
        stats, sizes = dict(self.stats), dict(self.sizes)
        self.stats.clear()
        self.sizes.clear()
        return stats, sizes

    def _wrap(self, fn, stat_key: str, key: str, mode: str):
        stats = self.stats
        if mode == "count":

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                stats[stat_key][0] += 1
                return fn(*args, **kwargs)

            return counted

        stack = self._stack
        spans = self.spans if mode == "span" else None
        size_of = SIZES.get(key)
        sizes = self.sizes
        origin = self._origin
        ids = self._ids

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            parent = stack[-1][1]
            sid = next(ids) if spans is not None else parent
            frame = [0.0, sid]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                stack[-1][0] += dur
                stat = stats[stat_key]
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[0]
                if spans is not None:
                    spans.append((sid, parent, key, t0 - origin, t1 - origin, self.request))
            if size_of is not None:
                for name, value in size_of(result):
                    sizes[name] += value
            return result

        return timed


def _sum(stats: dict, key: str, field: int, site: "str | None" = None):
    return sum(
        v[field]
        for k, v in stats.items()
        if k.partition("@")[0] == key and (site is None or k.partition("@")[2] == site)
    )


def layer_metrics(stats: dict, sizes: dict) -> dict[str, float]:
    """One round's per-layer metrics from the tracer's stats and sizes."""

    def self_s(key):
        return _sum(stats, key, 2)

    def calls(key):
        return _sum(stats, key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    direct = sum(sizes.get(f"wsets.{f}_members", 0) for f in ("involution", "fpf", "clan"))
    return {
        "cli.parse_element_s": self_s("cli.parse_element"),
        "cli.parse_element_calls": calls("cli.parse_element"),
        "cli.export_dot_s": self_s("cli.export_dot"),
        "cli.export_json_s": self_s("cli.export_json"),
        "cli.export_bytes": sizes.get("cli.export_bytes", 0),
        "posets.build_poset_s": self_s("posets.build_poset"),
        "posets.build_poset_calls": calls("posets.build_poset"),
        "posets.elements_built": sizes.get("posets.elements_built", 0),
        "posets.edges_built": sizes.get("posets.edges_built", 0),
        "posets.verify_graded_s": self_s("posets.verify_graded"),
        "posets.count_maximal_chains_s": self_s("posets.count_maximal_chains"),
        "matchings.upward_covers_s": self_s("matchings.upward_covers"),
        "matchings.upward_covers_calls": calls("matchings.upward_covers"),
        "involutions.rs_step_s": self_s("involutions.rs_step"),
        "involutions.rs_step_calls": calls("involutions.rs_step"),
        "wsets.direct_involution_s": self_s("wsets.direct_involution"),
        "wsets.direct_members": direct,
        "wsets.involution_candidates_per_member": ratio(
            calls("wsets.candidates"), sizes.get("wsets.involution_members", 0)
        ),
        "wsets.direct_fpf_s": self_s("wsets.direct_fpf"),
        "wsets.direct_clan_s": self_s("wsets.direct_clan"),
        "wsets.oracle_s": self_s("wsets.oracle"),
        "wsets.oracle_products_per_member": ratio(
            _sum(stats, "permutations.apply_simple_left", 0, site="wsets"),
            sizes.get("wsets.oracle_members", 0),
        ),
        "permutations.apply_simple_left_s": self_s("permutations.apply_simple_left"),
        "permutations.apply_simple_left_calls": calls("permutations.apply_simple_left"),
        "permutations.length_s": self_s("permutations.length"),
        "permutations.length_calls": calls("permutations.length"),
    }


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "calls/member" if name.endswith("_per_member") else "count"


# name -> unit, in the order they are reported
PER_LAYER = {name: _unit(name) for name in layer_metrics({}, {})}
