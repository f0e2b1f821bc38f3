"""Involutions as matchings: strand statistics and the local cover moves.

Each cover of the weak order is a purely local change at two adjacent
vertices i, i+1, classified by the shape of the strands meeting them.
"""

from weakorder import (
    Involution,
    crossings,
    matching_length,
    nestings,
    rank_involution,
    upward_covers_involution,
)

nested = Involution.from_cycles(6, [(1, 6), (2, 5), (3, 4)])
crossed = Involution.from_cycles(4, [(1, 3), (2, 4)])

print(f"{nested.text()}: crossings={crossings(nested)}, nestings={nestings(nested)}")
print(f"{crossed.text()}: crossings={crossings(crossed)}, nestings={nestings(crossed)}")
print()

# total strand span, minus crossings, counts the rank of the involution
for pi in (nested, crossed):
    print(f"matching_length({pi.text()}) = {matching_length(pi)} "
          f"= rank_involution = {rank_involution(pi)}")
print()

print("covers above (1,2) in S_4, with their local move types:")
pi = Involution.from_cycles(4, [(1, 2)])
for label, cover, kind in upward_covers_involution(pi):
    print(f"  label {label}: -> {cover.text():14} type {kind}")
print()

print("covers above (1,3)(2,4): the crossing turns into the nesting")
pi = Involution.from_cycles(4, [(1, 3), (2, 4)])
for label, cover, kind in upward_covers_involution(pi):
    print(f"  label {label}: -> {cover.text():14} type {kind}")
