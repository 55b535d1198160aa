#!/usr/bin/env python3
"""Print the cost of three oracle families as a Markdown table.

Usage (from the repository root):
    python3 scripts/family_cost.py

The families are ``oracles.all_diagrams`` over every poset of
``all_posets(3)`` with fiber ordinals <= 2, over the diamond a < b, c < d
with ordinals <= 2, and over the 6-element total space of id: [1] -> [1]
with ordinals <= 1.  For each, the table gives the number of diagrams, the
CPU time (process time, best of ROUNDS untraced runs) and the tracemalloc
peak of one more, traced run.  Every run starts from emptied library memos
(``tower._empty_tables()``), so no run reuses a proof or a walk of another.
"""

import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from trusskit import DeltaDiagram, DeltaMap, FinPoset, Ordinal, arrow_poset, tower, total_space  # noqa: E402
from trusskit.oracles import all_diagrams, all_posets  # noqa: E402

ROUNDS = 3


def families():
    """(name, function building the family) of each measured family."""
    diamond = FinPoset.from_covers("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    one = Ordinal(1)
    arrow = DeltaDiagram(arrow_poset(), {"0": one, "1": one}, {("0", "1"): DeltaMap.identity(one)})
    space = total_space(arrow).carrier
    posets = all_posets(3)
    return [
        ("all_posets(3), <= 2", lambda: [d for p in posets for d in all_diagrams(p, 2)]),
        ("diamond, <= 2", lambda: all_diagrams(diamond, 2)),
        ("total space of id: [1] -> [1], <= 1", lambda: all_diagrams(space, 1)),
    ]


def cost(build):
    """(diagrams, best CPU seconds of ROUNDS runs, traced peak in bytes)."""
    best = float("inf")
    for _ in range(ROUNDS):
        tower._empty_tables()
        start = time.process_time()
        built = build()
        best = min(best, time.process_time() - start)
        del built
    tower._empty_tables()
    tracemalloc.start()
    try:
        built = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return len(built), best, peak


def main():
    print("| family | diagrams | CPU s (best of %d) | traced peak MB |" % ROUNDS)
    print("|---|---|---|---|")
    for name, build in families():
        n, seconds, peak = cost(build)
        print(f"| {name} | {n} | {seconds:.3f} | {peak / 1e6:.2f} |")
    print()
    print(f"Python {sys.version.split()[0]}")


if __name__ == "__main__":
    main()
