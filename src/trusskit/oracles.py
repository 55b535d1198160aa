"""Brute-force enumeration suites.

Everything here re-derives a law the library claims, by exhaustive (or
seeded, where exhaustion is infeasible) enumeration at desk scale, and
returns a Report.  The suites double as the CLI's `oracle` command and as
the backing for the acceptance tests.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb

from .errors import CompositionError, DiagramError, DomainError, LabelingError
from .ordinal import (
    DeltaMap,
    Ordinal,
    compose_delta,
    compose_nabla,
    dual_delta_to_nabla,
    dual_nabla_to_delta,
    enumerate_delta_maps,
    enumerate_nabla_maps,
)
from .poset import POINT_ELEMENT, FinPoset, PosetMap, arrow_poset, point_poset
from .strata import (
    REGULAR,
    SINGULAR,
    Stratum,
    StratumMap,
    factorization_poset,
    fiber_objects,
    hom_strata,
    validate_stratum_map,
)
from .bundle import DeltaDiagram, LabelCategory, Labeling, classify, total_space
from .tower import (
    Bordism,
    PackedTower,
    TrussTower,
    compose_bordisms,
    compose_bordisms_audited,
    constant_inclusion,
    identity_bordism,
    pack,
    unpack,
)
from .mesh import StratSimplexPoint, interpolated_heights, realize_bundle, reg_extract, sing_extract
from .report import Report
from .serialize import dumps


# ---------------------------------------------------------------------------
# enumeration families


def all_posets(max_elements: int = 3) -> list:
    """Every partial order on labeled element sets of size 1..max_elements."""
    names = ("a", "b", "c", "d", "e")[:max_elements]
    out = []
    for n in range(1, max_elements + 1):
        els = list(names[:n])
        pairs = [(u, v) for u in els for v in els if u != v]
        for bits in itertools.product((False, True), repeat=len(pairs)):
            rel = {p for p, keep in zip(pairs, bits) if keep}
            if any((v, u) in rel for (u, v) in rel):
                continue
            if any(
                (u, w) not in rel
                for (u, v) in rel
                for (v2, w) in rel
                if v == v2 and u != w
            ):
                continue
            leq = rel | {(e, e) for e in els}
            out.append(FinPoset(els, leq))
    return out


def all_diagrams(base: FinPoset, max_ordinal: int = 2) -> list:
    """Every functorial bundle over the base with fiber ordinals up to the
    bound."""
    els = base.elements
    covers = base.covers()
    out = []
    for ns in itertools.product(range(max_ordinal + 1), repeat=len(els)):
        ords = {e: Ordinal(k) for e, k in zip(els, ns)}
        choices = [enumerate_delta_maps(ords[a], ords[b]) for (a, b) in covers]
        for maps in itertools.product(*choices):
            try:
                out.append(DeltaDiagram(base, ords, dict(zip(covers, maps))))
            except DiagramError:
                continue
    return out


def poset_maps(src: FinPoset, dst: FinPoset) -> list:
    """Every monotone map between two finite posets."""
    out = []
    for values in itertools.product(dst.elements, repeat=len(src.elements)):
        mapping = dict(zip(src.elements, values))
        try:
            out.append(PosetMap(src, dst, mapping))
        except DomainError:
            continue
    return out


def chain3_poset() -> FinPoset:
    return FinPoset.from_covers(["a", "b", "c"], [("a", "b"), ("b", "c")])


def vee3_poset() -> FinPoset:
    return FinPoset.from_covers(["a", "b", "c"], [("a", "c"), ("b", "c")])


def _heights(p: FinPoset) -> dict:
    h = {}
    for x in p.linear_extension():
        below = [h[y] for (y, _) in p.covers_into(x)]
        h[x] = 1 + max(below) if below else 0
    return h


def _longest_chain(p: FinPoset) -> list:
    h = _heights(p)
    top = max(p.elements, key=lambda x: (h[x], str(x)))
    chain = [top]
    while True:
        lower = [y for (y, _) in p.covers_into(chain[0]) if h[y] == h[chain[0]] - 1]
        if not lower:
            return chain
        chain.insert(0, sorted(lower, key=str)[0])


def labeling_from_map(domain: FinPoset, cat: LabelCategory, f: dict) -> Labeling:
    """The labeling induced by a monotone object assignment into a thin
    category (covering relations get the unique morphism)."""
    on_rel = {}
    for (u, v) in domain.covers():
        hom = cat.hom(f[u], f[v])
        if not hom:
            raise LabelingError(f"no morphism {f[u]!r} -> {f[v]!r} for cover ({u!r}, {v!r})")
        on_rel[(u, v)] = hom[0]
    return Labeling(domain, cat, dict(f), on_rel)


def monotone_label_maps(domain: FinPoset, p: FinPoset, rng=None, samples: int = 2) -> list:
    """Constant, height-canonical, and seeded monotone object assignments
    from a poset into a label poset."""
    h = _heights(domain)
    chain = _longest_chain(p)
    maps = []
    for c in p.elements:
        maps.append({x: c for x in domain.elements})
    maps.append({x: chain[min(h[x], len(chain) - 1)] for x in domain.elements})
    if rng is not None:
        top = max(h.values()) if h else 0
        for _ in range(samples):
            cuts = sorted(rng.randint(0, top + 1) for _ in range(len(chain) - 1))
            maps.append({
                x: chain[sum(1 for c in cuts if c <= h[x])] for x in domain.elements
            })
    seen = set()
    unique = []
    for f in maps:
        key = tuple(sorted(((str(k), str(v)) for k, v in f.items())))
        if key not in seen:
            seen.add(key)
            unique.append(f)
    return unique


def all_labelings(domain: FinPoset, p: FinPoset, rng=None, samples: int = 2) -> list:
    cat = LabelCategory.from_poset(p)
    return [labeling_from_map(domain, cat, f) for f in monotone_label_maps(domain, p, rng, samples)]


def random_diagram(base: FinPoset, max_ordinal: int, rng) -> DeltaDiagram:
    """A seeded functorial bundle over the base (rejection sampled)."""
    els = base.elements
    covers = base.covers()
    while True:
        ords = {e: Ordinal(rng.randint(0, max_ordinal)) for e in els}
        arrow = {}
        for (a, b) in covers:
            arrow[(a, b)] = rng.choice(enumerate_delta_maps(ords[a], ords[b]))
        try:
            return DeltaDiagram(base, ords, arrow)
        except DiagramError:
            continue


def tower_family(seed: int = 0, max_ordinal: int = 2) -> list:
    """A bounded deterministic family of labelled towers over the point:
    exhaustive at depth 1, exhaustive stage data with canonical labels at
    depth 2 (small first stage), and seeded deeper samples."""
    rng = random.Random(seed)
    pt = point_poset()
    chain = chain3_poset()
    vee = vee3_poset()
    towers = []
    for n1 in range(max_ordinal + 1):
        d1 = DeltaDiagram(pt, {POINT_ELEMENT: Ordinal(n1)}, {})
        top1 = total_space(d1).carrier
        for p in (chain, vee):
            for lab in all_labelings(top1, p, rng, samples=1):
                towers.append(TrussTower(pt, (d1,), lab))
    for n1 in range(2):
        d1 = DeltaDiagram(pt, {POINT_ELEMENT: Ordinal(n1)}, {})
        top1 = total_space(d1).carrier
        seconds = all_diagrams(top1, max_ordinal)
        cat = LabelCategory.from_poset(chain)
        for d2 in seconds:
            top2 = total_space(d2).carrier
            f = monotone_label_maps(top2, chain)[-1]
            towers.append(TrussTower(pt, (d1, d2), labeling_from_map(top2, cat, f)))
        for d2 in rng.sample(seconds, min(12, len(seconds))):
            top2 = total_space(d2).carrier
            for lab in all_labelings(top2, vee, rng, samples=1):
                towers.append(TrussTower(pt, (d1, d2), lab))
    for _ in range(8):
        d1 = DeltaDiagram(pt, {POINT_ELEMENT: Ordinal(rng.randint(0, 1))}, {})
        d2 = random_diagram(total_space(d1).carrier, 1, rng)
        d3 = random_diagram(total_space(d2).carrier, 1, rng)
        top3 = total_space(d3).carrier
        for p in (chain, vee):
            f = monotone_label_maps(top3, p, rng, samples=1)[-1]
            towers.append(TrussTower(pt, (d1, d2, d3), labeling_from_map(top3, LabelCategory.from_poset(p), f)))
    return towers


def depth1_bordisms(max_ordinal: int = 2, label_posets=None, rng=None, samples: int = 1) -> list:
    """Depth-1 bordisms over the arrow: exhaustive stage data up to the
    ordinal bound, with constant, canonical, and seeded labels."""
    ab = arrow_poset()
    out = []
    posets = label_posets if label_posets is not None else [chain3_poset(), vee3_poset()]
    for n0 in range(max_ordinal + 1):
        for n1 in range(max_ordinal + 1):
            for alpha in enumerate_delta_maps(n0, n1):
                d = DeltaDiagram(
                    ab,
                    {"0": Ordinal(n0), "1": Ordinal(n1)},
                    {("0", "1"): alpha},
                )
                top = total_space(d).carrier
                for p in posets:
                    for lab in all_labelings(top, p, rng, samples=samples):
                        out.append(Bordism(ab, (d,), lab))
    return out


def bordism_family(seed: int = 0) -> list:
    """Depth-1 exhaustive small bordisms plus constants and identities at
    depths 2 and 3."""
    rng = random.Random(seed)
    out = depth1_bordisms(2, rng=rng, samples=1)
    chain = chain3_poset()
    cat = LabelCategory.from_poset(chain)
    morphs = [m for m in cat.morphisms]
    for depth in (2, 3):
        for _ in range(6):
            maps = []
            for _ in range(depth):
                n0, n1 = rng.randint(0, 1), rng.randint(0, 1)
                maps.append(rng.choice(enumerate_delta_maps(n0, n1)))
            out.append(constant_inclusion(maps, rng.choice(morphs), cat))
    for t in tower_family(seed, max_ordinal=1)[:10]:
        out.append(identity_bordism(t))
    return out


def composable_triples(bordisms, limit: int, rng) -> list:
    by_source = {}
    for b in bordisms:
        by_source.setdefault(b.end(0), []).append(b)
    triples = []
    for b1 in bordisms:
        for b2 in by_source.get(b1.end(1), ()):
            for b3 in by_source.get(b2.end(1), ()):
                triples.append((b1, b2, b3))
    if len(triples) > limit:
        triples = rng.sample(triples, limit)
    return triples


# ---------------------------------------------------------------------------
# oracle suites


def _clause_filter(x: Stratum, y: Stratum, alpha: DeltaMap) -> bool:
    # intentionally a second, independent spelling of the hom constraints
    i, j = x.index, y.index
    v = alpha.values
    if x.kind == REGULAR and y.kind == REGULAR:
        return v[i] == j
    if x.kind == SINGULAR and y.kind == SINGULAR:
        return v[i] <= j and j < v[i + 1]
    if x.kind == SINGULAR and y.kind == REGULAR:
        return v[i] <= j and j <= v[i + 1]
    return False


def suite_homsets(max_ordinal: int = 3, seed=None) -> Report:
    counts = {"delta_homs": 0, "nabla_homs": 0, "strata_pairs": 0, "strata_maps": 0}
    for n in range(max_ordinal + 1):
        for m in range(max_ordinal + 1):
            maps = enumerate_delta_maps(n, m)
            if len(maps) != comb(n + m + 1, n + 1):
                return Report.failure(f"delta([{n}],[{m}])", f"expected {comb(n + m + 1, n + 1)} maps, got {len(maps)}")
            counts["delta_homs"] += len(maps)
            for f in maps:
                if dual_nabla_to_delta(dual_delta_to_nabla(f)) != f:
                    return Report.failure(f"dual({f})", "duality round trip failed")
    for n in range(1, max_ordinal + 2):
        for m in range(1, max_ordinal + 2):
            gs = enumerate_nabla_maps(n, m)
            expected = len(enumerate_delta_maps(m - 1, n - 1))
            if len(gs) != expected:
                return Report.failure(f"nabla([{n}],[{m}])", f"expected {expected} maps, got {len(gs)}")
            counts["nabla_homs"] += len(gs)
            for g in gs:
                if dual_delta_to_nabla(dual_nabla_to_delta(g)) != g:
                    return Report.failure(f"dual({g})", "duality round trip failed")
    objects = []
    for n in range(max_ordinal + 1):
        objects.extend(fiber_objects(n))
    for x in objects:
        for y in objects:
            counts["strata_pairs"] += 1
            got = [f.underlying for f in hom_strata(x, y)]
            want = [a for a in enumerate_delta_maps(x.n, y.n) if _clause_filter(x, y, a)]
            if got != want:
                return Report.failure(
                    f"hom({x},{y})",
                    f"library {len(got)} maps, brute force {len(want)}"
                    + (", in another order" if len(got) == len(want) else ""),
                )
            counts["strata_maps"] += len(got)
            if x.is_regular and not y.is_regular and got:
                return Report.failure(f"hom({x},{y})", "regular -> singular must be empty")
    spot = [
        (Stratum.singular(0, 1), Stratum.regular(1, 2), 4),
        (Stratum.singular(0, 2), Stratum.singular(1, 2), 2),
    ]
    for x, y, k in spot:
        if len(hom_strata(x, y)) != k:
            return Report.failure(f"hom({x},{y})", f"expected {k} maps, got {len(hom_strata(x, y))}")
    return Report.ok(counts)


def suite_factorization(max_ordinal: int = 2, seed=None) -> Report:
    counts = {"triangles": 0, "instances": 0, "with_min": 0, "with_max": 0, "cone_missing": 0}
    diagnostics = []
    for a in range(max_ordinal + 1):
        for b in range(max_ordinal + 1):
            for c in range(max_ordinal + 1):
                for alpha in enumerate_delta_maps(a, b):
                    for beta in enumerate_delta_maps(b, c):
                        counts["triangles"] += 1
                        composite = compose_delta(alpha, beta)
                        for x in fiber_objects(a):
                            for z in fiber_objects(c):
                                if not validate_stratum_map(x, z, composite):
                                    continue
                                h = StratumMap(x, z, composite)
                                poset = factorization_poset(x, z, h, alpha, beta)
                                counts["instances"] += 1
                                if not poset.elements:
                                    return Report.failure(
                                        f"factor({x},{z} over {alpha};{beta})",
                                        "factorization poset is empty",
                                        counts,
                                    )
                                if not poset.is_connected():
                                    return Report.failure(
                                        f"factor({x},{z} over {alpha};{beta})",
                                        "factorization poset is disconnected",
                                        counts,
                                    )
                                has_min = poset.minimum() is not None
                                has_max = poset.maximum() is not None
                                counts["with_min"] += has_min
                                counts["with_max"] += has_max
                                if not (has_min or has_max):
                                    counts["cone_missing"] += 1
                                    if len(diagnostics) < 5:
                                        diagnostics.append((
                                            f"factor({x},{z} over {alpha};{beta})",
                                            "no cone point (reported, not asserted)",
                                        ))
    return Report.ok(counts, diagnostics)


def suite_roundtrip_bundle(max_elements: int = 3, max_ordinal: int = 2, seed=None) -> Report:
    counts = {"bases": 0, "diagrams": 0}
    for base in all_posets(max_elements):
        counts["bases"] += 1
        for d in all_diagrams(base, max_ordinal):
            counts["diagrams"] += 1
            back = classify(total_space(d))
            if back != d:
                return Report.failure(
                    "classify", "total space does not classify back:\n" + dumps(d), counts
                )
    return Report.ok(counts)


def suite_roundtrip_mesh(max_elements: int = 3, max_ordinal: int = 2, seed=None) -> Report:
    counts = {"bundles": 0, "covers": 0}
    half = StratSimplexPoint((Fraction(1, 2), Fraction(1, 2)))
    for base in all_posets(max_elements):
        for d in all_diagrams(base, max_ordinal):
            m = realize_bundle(d)
            counts["bundles"] += 1
            if reg_extract(m) != d:
                return Report.failure(
                    "reg_extract", "mesh does not extract back:\n" + dumps(d), counts
                )
            sing = sing_extract(m)
            for cov in base.covers():
                counts["covers"] += 1
                if sing.arrow[cov] != dual_delta_to_nabla(d.arrow[cov]):
                    return Report.failure(
                        f"sing_extract {cov!r}",
                        "duality triangle fails:\n" + dumps(d),
                        counts,
                    )
                if sing.arrow[cov] != m.sing[cov]:
                    return Report.failure(
                        f"sing_extract {cov!r}",
                        "extracted attachment differs from stored:\n" + dumps(d),
                        counts,
                    )
                mid = interpolated_heights(m, cov, half)
                if any(u >= v for u, v in zip(mid, mid[1:])):
                    return Report.failure(
                        f"barycenter {cov!r}", "interpolated heights collide:\n" + dumps(d), counts
                    )
    return Report.ok(counts)


def suite_pack(max_ordinal: int = 2, seed: int = 0) -> Report:
    counts = {"towers": 0, "double_packs": 0}
    towers = tower_family(seed or 0, max_ordinal)
    for t in towers:
        if t.depth < 1:
            continue
        counts["towers"] += 1
        if unpack(pack(t)) != t:
            return Report.failure("pack", "pack/unpack did not round trip:\n" + dumps(t), counts)
    for t in towers:
        if t.depth >= 2 and counts["double_packs"] < 3:
            counts["double_packs"] += 1
            once = pack(t)
            p2 = pack(once.tower)
            if unpack(PackedTower(unpack(p2))) != t:
                return Report.failure("pack", "double pack did not round trip", counts)
    return Report.ok(counts)


def suite_bordism_assoc(seed: int = 0, triple_limit: int = 400) -> Report:
    rng = random.Random(seed or 0)
    counts = {
        "bordisms": 0,
        "identity_checks": 0,
        "triples": 0,
        "crossings_audited": 0,
        "alternatives_audited": 0,
    }
    bordisms = bordism_family(seed or 0)
    counts["bordisms"] = len(bordisms)
    for b in bordisms:
        left = compose_bordisms(identity_bordism(b.end(0)), b)
        right = compose_bordisms(b, identity_bordism(b.end(1)))
        counts["identity_checks"] += 2
        if left != b:
            return Report.failure("identity", "left identity law failed:\n" + dumps(b), counts)
        if right != b:
            return Report.failure("identity", "right identity law failed:\n" + dumps(b), counts)
    mismatched = 0
    for b1 in bordisms:
        for b2 in bordisms[:10]:
            if b1.end(1) == b2.end(0):
                continue
            try:
                compose_bordisms(b1, b2)
                return Report.failure("boundary", "mismatched bordisms composed", counts)
            except CompositionError:
                mismatched += 1
            break
        if mismatched >= 5:
            break
    for (b1, b2, b3) in composable_triples(bordisms, triple_limit, rng):
        counts["triples"] += 1
        left, audit_l = compose_bordisms_audited(compose_bordisms(b1, b2), b3)
        right, audit_r = compose_bordisms_audited(b1, compose_bordisms(b2, b3))
        counts["crossings_audited"] += audit_l.crossings + audit_r.crossings
        counts["alternatives_audited"] += audit_l.alternatives + audit_r.alternatives
        if left != right:
            return Report.failure(
                "associativity",
                "triple composed differently:\n" + dumps(b1) + dumps(b2) + dumps(b3),
                counts,
            )
    return Report.ok(counts)


def _run_homsets(max_ordinal=None, seed=None):
    return suite_homsets(3 if max_ordinal is None else max_ordinal, seed)


def _run_factorization(max_ordinal=None, seed=None):
    return suite_factorization(2 if max_ordinal is None else max_ordinal, seed)


def _run_roundtrip_bundle(max_ordinal=None, seed=None):
    return suite_roundtrip_bundle(3, 2 if max_ordinal is None else max_ordinal, seed)


def _run_roundtrip_mesh(max_ordinal=None, seed=None):
    return suite_roundtrip_mesh(3, 2 if max_ordinal is None else max_ordinal, seed)


def _run_pack(max_ordinal=None, seed=None):
    return suite_pack(2 if max_ordinal is None else max_ordinal, 0 if seed is None else seed)


def _run_bordism_assoc(max_ordinal=None, seed=None):
    return suite_bordism_assoc(0 if seed is None else seed)


SUITES = {
    "homsets": _run_homsets,
    "factorization": _run_factorization,
    "roundtrip-bundle": _run_roundtrip_bundle,
    "roundtrip-mesh": _run_roundtrip_mesh,
    "pack": _run_pack,
    "bordism-assoc": _run_bordism_assoc,
}
