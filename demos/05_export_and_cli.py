"""Clan posets, graph export, and the equivalent command-line calls.

Writes the (2,2) clan poset to weakorder_clan_2_2.dot next to this script;
render it with: dot -Tsvg weakorder_clan_2_2.dot -o poset.svg
"""

import json
import pathlib

from weakorder import build_poset, rank_clan, verify_graded
from weakorder.cli import export_dot, export_json, run

P = build_poset("clan", (2, 2))
print(f"clans of signature (2,2): {len(P)} elements, {len(P.edges)} edges")
print(f"bottom {P.bottom.text()} at rank 0; "
      f"{len(P.maximal_elements())} maximal elements at rank "
      f"{max(rank_clan(x) for x in P.maximal_elements())}:")
for x in P.maximal_elements():
    print(f"  {x.text()}")
print(f"graded: {verify_graded(P).ok}")
print()

out = pathlib.Path(__file__).with_name("weakorder_clan_2_2.dot")
out.write_text(export_dot(P))
print(f"wrote {out.name} ({out.stat().st_size} bytes); "
      "attach moves are drawn bold")
print()

data = json.loads(export_json(P))
print(f"JSON export keys: {sorted(data)}")
print(f"first edge record: {data['edges'][0]}")
print()

print("the same through the CLI (weakorder <subcommand> ...):")
for argv in (
    ["rank", "--family", "clan", "--element", "(1,4)(2,3)", "--p", "2", "--q", "2"],
    ["wset", "--family", "clan", "--element", "(1,4)(2+)(3-)", "--compact"],
    ["chains", "--family", "fpf", "--element", "(1,4)(2,3)", "--count"],
    ["verify", "--family", "clan", "--n", "4"],
):
    print(f"$ weakorder {' '.join(argv)}")
    code = run(argv)
    print(f"  (exit {code})")
