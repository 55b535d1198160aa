#!/usr/bin/env python3
"""Print the cost of three oracle families, of a mesh round trip, of a pack
round trip, of the monotone maps between small posets, of a streamed
family and of closing a truss category as a Markdown table.

Usage (from the repository root):
    python3 scripts/family_cost.py

The families are ``oracles.all_diagrams`` over every poset of
``all_posets(3)`` with fiber ordinals <= 2, over the diamond a < b, c < d
with ordinals <= 2, and over the 6-element total space of id: [1] -> [1]
with ordinals <= 1.  The next row takes each diagram of the first family
(built once, untimed) through ``realize_bundle``, then ``reg_extract`` and
``sing_extract`` of the mesh, the next each of them through ``total_space``
and then ``classify``, and the one after it each tower of depth >= 1
of ``oracles.tower_family(0, 2)`` (built once, untimed) through ``pack`` and
``unpack``, and the last timed row every monotone map between two posets
of ``all_posets(3)`` through ``oracles.poset_maps``, which enumerates the
functors into ``LabelCategory.from_poset`` of the target, installed per call.
For each row, the table gives the number of items (diagrams, towers for
the pack row, maps for the poset_maps row), the CPU time (process time,
best of ROUNDS untraced runs), the tracemalloc peak of one more, traced
run, and the hits and misses of the two dual memos (``ordinal.dual_delta_to_nabla`` and
``ordinal.dual_nabla_to_delta``, summed) in that run.  A last row counts
the functors ``oracles.functors`` streams over the diamond into
``ordinal.Delta(3)``, Δ on the ordinals <= 3, keeping none, in one untraced
run: a traced one takes minutes.  The row after it closes Trs_{<=2}([1]),
``tower.truss_label_category`` of ``oracles.depth1_family`` over the point
(the objects) and over the arrow (the generators) with fiber ordinals <= 2,
each top labelled by every functor ``oracles.functors`` yields into the thin
category of the arrow poset [1] (built once, untimed), and gives its
objects, morphisms and composites and the CPU time of one untraced run.
Every run starts from emptied library memos (``tower._empty_tables()``), so
no run reuses a proof, a walk, a dual or a packed piece of another, and the
traced peak of the pack row includes what pack's memo retains, and that of
the classify row what the total-space and layout memos retain.
"""

import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from trusskit import (  # noqa: E402
    DeltaDiagram,
    DeltaMap,
    FinPoset,
    LabelCategory,
    Labeling,
    Ordinal,
    arrow_poset,
    classify,
    dual_delta_to_nabla,
    dual_nabla_to_delta,
    pack,
    point_poset,
    realize_bundle,
    reg_extract,
    sing_extract,
    tower,
    total_space,
    truss_label_category,
    unpack,
)
from trusskit.oracles import (  # noqa: E402
    all_diagrams,
    all_posets,
    depth1_family,
    functors,
    poset_maps,
    tower_family,
)
from trusskit.ordinal import Delta  # noqa: E402

ROUNDS = 3
DIAMOND = FinPoset.from_covers("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])


def families():
    """(name, function building the family) of each measured family."""
    one = Ordinal(1)
    arrow = DeltaDiagram(arrow_poset(), {"0": one, "1": one}, {("0", "1"): DeltaMap.identity(one)})
    space = total_space(arrow).carrier
    posets = all_posets(3)
    small = [d for p in posets for d in all_diagrams(p, 2)]
    towers = [t for t in tower_family(0, 2) if t.depth >= 1]
    return [
        ("all_posets(3), <= 2", lambda: [d for p in posets for d in all_diagrams(p, 2)]),
        ("diamond, <= 2", lambda: all_diagrams(DIAMOND, 2)),
        ("total space of id: [1] -> [1], <= 1", lambda: all_diagrams(space, 1)),
        ("mesh round trip over all_posets(3), <= 2", lambda: [round_trip(d) for d in small]),
        ("classify round trip over all_posets(3), <= 2", lambda: [classify(total_space(d)) for d in small]),
        ("pack round trip over tower_family(0, 2), depth >= 1", lambda: [unpack(pack(t)) for t in towers]),
        ("poset_maps over all_posets(3)², maps", lambda: [f for p in posets for q in posets for f in poset_maps(p, q)]),
    ]


def round_trip(d):
    m = realize_bundle(d)
    return m, reg_extract(m), sing_extract(m)


def dual_memo_counts():
    """(hits, misses) of the two dual memos, summed."""
    infos = [dual.cache_info() for dual in (dual_delta_to_nabla, dual_nabla_to_delta)]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


def cost(build):
    """(items, best CPU seconds of ROUNDS runs, traced peak in bytes,
    (dual memo hits, misses) of the traced run)."""
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
    return len(built), best, peak, dual_memo_counts()


def streamed_cost():
    """(functors over the diamond with ordinals <= 3, CPU seconds of one
    untraced run that keeps none of them)."""
    tower._empty_tables()
    start = time.process_time()
    streamed = functors(DIAMOND, Delta(3))
    n = sum(1 for _ in streamed)
    return n, time.process_time() - start


def closure_cost():
    """(objects, morphisms, composites, CPU seconds) of closing Trs_{<=2}([1])
    in one untraced run."""
    cat = LabelCategory.from_poset(arrow_poset())

    def labelings(top):
        return [Labeling(top, cat, at, {c: paths[c] for c in top.covers()}) for at, paths in functors(top, cat)]

    objects, generators = (depth1_family(root, 2, labelings) for root in (point_poset(), arrow_poset()))
    tower._empty_tables()
    start = time.process_time()
    closed = truss_label_category(objects, generators)
    seconds = time.process_time() - start
    return len(closed.objects), len(closed.morphisms), len(closed.compose), seconds


def main():
    print("| family | items | CPU s (best of %d) | traced peak MB | dual memo hits / misses |" % ROUNDS)
    print("|---|---|---|---|---|")
    for name, build in families():
        n, seconds, peak, (hits, misses) = cost(build)
        print(f"| {name} | {n} | {seconds:.3f} | {peak / 1e6:.2f} | {hits} / {misses} |")
    n, seconds = streamed_cost()
    print(f"| diamond, <= 3, streamed | {n} | {seconds:.3f} (one run) | not traced | not traced |")
    objects, morphisms, composites, seconds = closure_cost()
    print(f"| Trs_{{<=2}}([1]) closed: {objects} objects, {morphisms} morphisms, composites | {composites}"
          f" | {seconds:.3f} (one run) | not traced | not traced |")
    print()
    print(f"Python {sys.version.split()[0]}")


if __name__ == "__main__":
    main()
