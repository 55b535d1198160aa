"""Brute-force enumeration suites.

Everything here re-derives a law the library claims, by exhaustive (or
seeded, where exhaustion is infeasible) enumeration at desk scale, and
returns a Report.  The suites back the acceptance tests and the CLI's
`oracle` command, the one runner of any list of them.  Every SUITES entry
runs under audited(), the one audit of what the library installs without
checks (one _INSTALLS row per _trusted install point, trusted towers and
their recorded ends included), and fails if an audit count would overwrite
one of its own; the enumeration families run unaudited when called on
their own.  The diagram and map families come from one backtracking
enumerator, functors(), which composes each pair once per prefix and cuts
a prefix at its first disagreement; all_diagrams installs its diagrams
unchecked, so each is one trusted functor to the audit.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from math import comb

from .errors import CompositionError, DiagramError, DomainError, ParseError, TrussError
from .ordinal import (
    Delta,
    DeltaMap,
    MonotoneMap,
    Ordinal,
    compose_delta,
    dual_delta_to_nabla,
    dual_nabla_to_delta,
    enumerate_delta_maps,
    enumerate_nabla_maps,
)
from .poset import POINT_ELEMENT, FinPoset, PosetMap, arrow_poset, bits, path_poset, point_poset
from .strata import (
    REGULAR,
    SINGULAR,
    Stratum,
    StratumMap,
    factorization_poset,
    fiber_objects,
    fiber_over_map,
    fiber_over_ordinal,
    hom_strata,
    stratum_targets,
    validate_stratum_map,
)
from .bundle import (
    _PROVED,
    CoverFunctor,
    DeltaDiagram,
    LabelCategory,
    Labeling,
    TotalPoset,
    _walk,
    classify,
    total_space,
)
from .tower import (
    Bordism,
    PackedTower,
    TrussTower,
    _assemble,
    _empty_tables,
    compose_bordisms,
    compose_bordisms_audited,
    constant_inclusion,
    identity_bordism,
    pack,
    pullback_tower,
    restrict_bordism,
    truss_category,
    unpack,
)
from .mesh import PLMeshBundle, StratSimplexPoint, interpolated_heights, realize_bundle, reg_extract, sing_extract
from .report import Report
from .serialize import cover_key, dumps, element_key


# ---------------------------------------------------------------------------
# enumeration families


def functors(base: FinPoset, cat):
    """Every functor from base into the category cat, as (at, paths): at
    holds one of cat.objects per element, paths the functor's path table.
    They come in product order: objects per element in element order, then
    one of cat.hom(at[a], at[b]) per cover (a, b) in covers() order, the
    last varying fastest.  cat is read as a functor's target is, at use:
    a LabelCategory, a bounded ordinal.Delta, any value with objects, hom,
    identity_of and compose_pair.  Each table holds the keys of the base's
    _walk in functor_table's order, the diagonal valued
    cat.identity_of(at[x]); a pair x < z is composed along its first route,
    cat.compose_pair(value of (x, y), cover (y, z)), as soon as every cover
    on its routes is chosen, so once per prefix.  A prefix is cut at an
    empty hom between assigned elements, or at two routes of a pair that
    disagree.  The functors of one object assignment share its at."""
    steps, diagonal = _walk(base)
    covers, objects, compose = base.covers(), tuple(cat.objects), cat.compose_pair
    ends = [(base.index[a], base.index[b]) for a, b in covers]
    keys = diagonal + [key for below, _ in steps for _, _, key in below]
    pos = {key: k for k, key in enumerate(keys)}
    # per cover, the pairs it completes: (position, first route, other routes),
    # a route as the positions of (x, y) and of the cover (y, z)
    last, plan = {c: p for p, c in enumerate(covers)}, [[] for _ in covers]
    for below, incoming in steps:
        for i, up, key in below:
            if key not in last:
                routes = [((key[0], y), p) for j, y, p in incoming if up >> j & 1]
                last[key] = max(max(p, last[xy]) for xy, p in routes)
                first, *rest = [(pos[xy], pos[covers[p]]) for xy, p in routes]
                plan[last[key]].append((pos[key], first, rest))
    closing = [[] for _ in diagonal]  # per element, the covers between it and the elements before it
    for ia, ib in ends:
        closing[max(ia, ib)].append((ia, ib))
    hom_of = lru_cache(None)(lambda u, v: tuple(cat.hom(u, v)))
    objs, vals = [None] * len(diagonal), [None] * len(keys)

    def choose(p, at, homs):
        if p == len(covers):
            yield at, dict(zip(keys, vals))
            return
        here = pos[covers[p]]
        for f in homs[p]:
            vals[here] = f
            for k, (xy, yz), rest in plan[p]:
                value = vals[k] = compose(vals[xy], vals[yz])
                if any(compose(vals[a], vals[b]) != value for a, b in rest):
                    break
            else:
                yield from choose(p + 1, at, homs)

    def assign(i):
        if i == len(objs):
            vals[:i] = map(cat.identity_of, objs)
            yield from choose(0, dict(zip(base.elements, objs)), [hom_of(objs[a], objs[b]) for a, b in ends])
            return
        for o in objects:
            objs[i] = o
            if all(hom_of(objs[a], objs[b]) for a, b in closing[i]):
                yield from assign(i + 1)

    return assign(0)


def all_posets(max_elements: int = 3) -> list:
    """Every partial order on labeled element sets of size 1..max_elements:
    every relation, a choice per pair of distinct elements, that FinPoset
    accepts."""
    out = []
    for n in range(1, max_elements + 1):
        els = "abcde"[:n]
        pairs = [(u, v) for u in els for v in els if u != v]
        for keep in itertools.product((False, True), repeat=len(pairs)):
            try:
                out.append(FinPoset(els, [(e, e) for e in els] + list(itertools.compress(pairs, keep))))
            except DomainError:
                continue
    return out


def all_diagrams(base: FinPoset, max_ordinal: int = 2) -> list:
    """Every functorial bundle over the base with fiber ordinals up to the
    bound, as functors() yields them into Δ: each installed through
    DeltaDiagram._trusted with its path table, then kept in bundle._PROVED,
    so a constructor given an equal key shares its proof."""
    out = [DeltaDiagram._trusted((base, ords), paths) for ords, paths in functors(base, Delta(max_ordinal))]
    for d in out:  # after the installs: audited() checks each against a real proof
        _PROVED[hash(d)] = d
    return out


def poset_maps(src: FinPoset, dst: FinPoset) -> list:
    """Every monotone map between two finite posets: the functors into dst's
    thin category, LabelCategory.from_poset(dst), one arrow "u<=v" when
    u <= v and none otherwise.  A functor is monotone by construction, so
    each map installs through PosetMap._trusted with its object assignment
    as its mapping: a thin target gives one functor per assignment, so no
    two maps share one."""
    thin = functors(src, LabelCategory.from_poset(dst))
    return [PosetMap._trusted(src, dst, mapping) for mapping, _ in thin]


def chain3_poset() -> FinPoset:
    return FinPoset.from_covers(["a", "b", "c"], [("a", "b"), ("b", "c")])


def vee3_poset() -> FinPoset:
    return FinPoset.from_covers(["a", "b", "c"], [("a", "c"), ("b", "c")])


def _heights(p: FinPoset) -> dict:
    """Each element's longest chain from a minimal one, pushed up the covers."""
    h, els = dict.fromkeys(p.elements, 0), p.elements
    for x in p.linear_extension():
        for j in p.upper[p.index[x]]:
            h[els[j]] = max(h[els[j]], h[x] + 1)
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


def monotone_label_maps(domain: FinPoset, cat: LabelCategory, chain: list, rng=None) -> list:
    """The tables (on objects, on covers) of the constant and height-canonical
    labelings of domain into a thin category cat (chain: a longest chain of
    its objects), and of a seeded one given an rng.  Each object assignment
    is monotone, so each cover takes the one morphism between its labels;
    a family builds through Labeling(...) only the tables it keeps."""
    h = _heights(domain)
    maps = [{x: c for x in domain.elements} for c in cat.objects]
    maps.append({x: chain[min(h[x], len(chain) - 1)] for x in domain.elements})
    if rng is not None:
        top = max(h.values()) if h else 0
        cuts = sorted(rng.randint(0, top + 1) for _ in range(len(chain) - 1))
        maps.append({x: chain[sum(1 for c in cuts if c <= h[x])] for x in domain.elements})
    unique = {}
    for f in maps:
        unique.setdefault(tuple(f[x] for x in domain.elements), f)
    arrow = {(cat.src[m], cat.dst[m]): m for m in cat.morphisms}  # thin: one morphism per pair of ends
    return [(f, {(u, v): arrow[f[u], f[v]] for u, v in domain.covers()}) for f in unique.values()]


def _label_posets(*posets) -> list:
    """(thin category, longest chain) per label poset for _labelled_in, made
    once per family."""
    return [(LabelCategory.from_poset(p), _longest_chain(p)) for p in posets]


def random_diagram(base: FinPoset, max_ordinal: int, rng) -> DeltaDiagram:
    """A seeded functorial bundle over the base (rejection sampled)."""
    els = base.elements
    covers = base.covers()
    while True:
        ords = {e: Ordinal(rng.randint(0, max_ordinal)) for e in els}
        arrow = {(a, b): rng.choice(enumerate_delta_maps(ords[a], ords[b])) for a, b in covers}
        try:
            return DeltaDiagram(base, ords, arrow)
        except DiagramError:
            continue


def depth1_family(root: FinPoset, max_ordinal: int, labelings) -> list:
    """Every depth-1 tower over root (the point or the arrow) whose stage is
    one of all_diagrams(root, max_ordinal), in that order, labelled by each
    labeling that labelings(top) lists for its top space: over the point
    TrussTowers, over the arrow Bordisms."""
    cls = Bordism if root == arrow_poset() else TrussTower
    return [cls(root, (d,), lab) for d in all_diagrams(root, max_ordinal) for lab in labelings(total_space(d).carrier)]


def _labelled_in(labels, rng):
    """labelings for depth1_family: monotone_label_maps into the thin
    category of each of _label_posets."""
    return lambda top: [
        Labeling(top, cat, *tables) for cat, chain in labels for tables in monotone_label_maps(top, cat, chain, rng)
    ]


def tower_family(seed: int = 0, max_ordinal: int = 2) -> list:
    """A bounded deterministic family of labelled towers over the point:
    exhaustive at depth 1, exhaustive stage data with canonical labels at
    depth 2 (small first stage), and seeded deeper samples."""
    rng = random.Random(seed)
    pt = point_poset()
    labels = _label_posets(chain3_poset(), vee3_poset())
    towers = depth1_family(pt, max_ordinal, _labelled_in(labels, rng))
    (cat, longest), in_vee = labels[0], _labelled_in(labels[1:], rng)
    for d1 in all_diagrams(pt, 1):
        seconds = all_diagrams(total_space(d1).carrier, max_ordinal)
        for d2 in seconds:
            top2 = total_space(d2).carrier
            tables = monotone_label_maps(top2, cat, longest)[-1]
            towers.append(TrussTower(pt, (d1, d2), Labeling(top2, cat, *tables)))
        for d2 in rng.sample(seconds, min(12, len(seconds))):
            towers += [TrussTower(pt, (d1, d2), lab) for lab in in_vee(total_space(d2).carrier)]
    for _ in range(8):
        d1 = DeltaDiagram(pt, {POINT_ELEMENT: Ordinal(rng.randint(0, 1))}, {})
        d2 = random_diagram(total_space(d1).carrier, 1, rng)
        d3 = random_diagram(total_space(d2).carrier, 1, rng)
        top3 = total_space(d3).carrier
        for p_cat, p_chain in labels:
            tables = monotone_label_maps(top3, p_cat, p_chain, rng)[-1]
            towers.append(TrussTower(pt, (d1, d2, d3), Labeling(top3, p_cat, *tables)))
    return towers


def bordism_family(seed: int = 0) -> list:
    """Depth-1 bordisms over the arrow, exhaustive stage data up to fiber
    ordinal 2 with constant, canonical and one seeded label each into the
    chain and the vee, plus constants and identities at depths 2 and 3."""
    rng = random.Random(seed)
    labels = _label_posets(chain3_poset(), vee3_poset())
    out = depth1_family(arrow_poset(), 2, _labelled_in(labels, rng))
    cat = labels[0][0]
    for depth in (2, 3):
        for _ in range(6):
            # per stage: the source and target ordinals drawn in turn, then the map
            maps = [rng.choice(enumerate_delta_maps(rng.randint(0, 1), rng.randint(0, 1))) for _ in range(depth)]
            out.append(constant_inclusion(maps, rng.choice(cat.morphisms), cat))
    # head[:10] is tower_family(seed, 1)[:10]
    head = depth1_family(point_poset(), 1, _labelled_in(labels, random.Random(seed)))
    out += [identity_bordism(t) for t in head[:10]]
    return out


def composable_triples(bordisms, limit: int, rng) -> list:
    """Every triple (b1, b2, b3) of bordisms, each starting at the end of
    the one before, in the order of ``bordisms`` at each place; past
    ``limit`` of them, the ``limit`` that ``rng.sample`` draws.  Triples are
    counted per composable pair, and only those returned are built: the
    indices ``rng.sample(range(total), limit)`` draws are those it draws
    from the list of every triple."""
    by_source = {}
    for j, b in enumerate(bordisms):
        by_source.setdefault(b.end(0), []).append(j)
    nexts = [by_source.get(b.end(1), ()) for b in bordisms]
    counts = [sum(len(nexts[j]) for j in after) for after in nexts]
    ends = list(itertools.accumulate(counts))

    def triple(t):
        i = bisect_right(ends, t)
        t -= ends[i] - counts[i]
        for j in nexts[i]:
            if t < len(nexts[j]):
                return bordisms[i], bordisms[j], bordisms[nexts[j][t]]
            t -= len(nexts[j])

    total = ends[-1] if ends else 0
    return [triple(t) for t in (range(total) if total <= limit else rng.sample(range(total), limit))]


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


def _filtered(objs, ident: DeltaMap) -> FinPoset:
    """The validating FinPoset on strata objs over one ordinal, x <= y when
    validate_stratum_map(x, y, ident): fibers and factorization posets
    spelled pair by pair, independently of their masks."""
    return FinPoset(objs, [(x, y) for x in objs for y in objs if validate_stratum_map(x, y, ident)])


def _fiber_over_map_filtered(alpha: DeltaMap, id_src: DeltaMap, id_dst: DeltaMap) -> FinPoset:
    """fiber_over_map(alpha) spelled pair by pair: (s, x) <= (t, y) when the
    map of the tags (s, t) carries a morphism x -> y."""
    over = {("src", "src"): id_src, ("dst", "dst"): id_dst, ("src", "dst"): alpha}
    els = [("src", x) for x in fiber_objects(alpha.src.n)] + [("dst", y) for y in fiber_objects(alpha.dst.n)]
    return FinPoset(els, [
        (p, q) for p in els for q in els
        if (p[0], q[0]) in over and validate_stratum_map(p[1], q[1], over[p[0], q[0]])
    ])


def suite_homsets(max_ordinal: int = 3, seed=None) -> Report:
    """Hom sets against binomial counts and a brute-force filter, the
    duality round trip, and every fiber over an ordinal or a map
    (fibers) against its filter spelling."""
    counts = {"delta_homs": 0, "nabla_homs": 0, "strata_pairs": 0, "strata_maps": 0, "fibers": 0}
    idents = [DeltaMap(n, n, range(n + 1)) for n in range(max_ordinal + 1)]
    for n in range(max_ordinal + 1):
        if fiber_over_ordinal(n) != _filtered(fiber_objects(n), idents[n]):
            return Report.failure(f"fiber([{n}])", "it differs from its filter spelling")
        counts["fibers"] += 1
        for m in range(max_ordinal + 1):
            maps = enumerate_delta_maps(n, m)
            if len(maps) != comb(n + m + 1, n + 1):
                return Report.failure(f"delta([{n}],[{m}])", f"expected {comb(n + m + 1, n + 1)} maps, got {len(maps)}")
            counts["delta_homs"] += len(maps)
            for f in maps:
                if dual_nabla_to_delta(dual_delta_to_nabla(f)) != f:
                    return Report.failure(f"dual({f})", "duality round trip failed")
                if fiber_over_map(f) != _fiber_over_map_filtered(f, idents[n], idents[m]):
                    return Report.failure(f"fiber({f})", "it differs from its filter spelling")
                counts["fibers"] += 1
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


def _not_a_tree(poset: FinPoset):
    """Why a factorization poset's Hasse diagram is not a tree, or None."""
    if not poset.elements:
        return "factorization poset is empty"
    if not poset.is_connected():
        return "factorization poset is disconnected"
    edges = len(poset.covers())
    if edges != len(poset.elements) - 1:
        return f"factorization poset is not a tree: {edges} Hasse edges on {len(poset.elements)} elements"
    return None


def suite_factorization(max_ordinal: int = 2, seed=None) -> Report:
    """Every factorization poset's Hasse diagram is a tree (trees), so the
    poset dismantles leaf by leaf (a leaf is a beat point) and is
    contractible; cone points are counted and reported.  Each poset is also
    compared with its filter spelling."""
    counts = {"triangles": 0, "instances": 0, "trees": 0, "with_min": 0, "with_max": 0, "cone_missing": 0}
    diagnostics = []
    idents = [DeltaMap(n, n, range(n + 1)) for n in range(max_ordinal + 1)]
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
                                why = _not_a_tree(poset)
                                if why is None:
                                    mids = [
                                        y for y in fiber_objects(b)
                                        if validate_stratum_map(x, y, alpha) and validate_stratum_map(y, z, beta)
                                    ]
                                    if poset != _filtered(mids, idents[b]):
                                        why = "it differs from its filter spelling"
                                if why is not None:
                                    return Report.failure(f"factor({x},{z} over {alpha};{beta})", why, counts)
                                counts["trees"] += 1
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


def suite_roundtrip_bundle(max_ordinal: int = 2, seed=None) -> Report:
    """classify inverts total_space over every poset of up to 3 elements;
    as a SUITES entry, every total space is also checked by audited()
    (total_space_checks)."""
    counts = {"bases": 0, "diagrams": 0}
    for base in all_posets(3):
        counts["bases"] += 1
        for d in all_diagrams(base, max_ordinal):
            counts["diagrams"] += 1
            if classify(total_space(d)) != d:
                return Report.failure("classify", "total space does not classify back:\n" + dumps(d), counts)
    return Report.ok(counts)


def _geometry_disagrees(m: PLMeshBundle, cov, quarter: tuple, half: tuple, reg, sing):
    """Why the sheets along the cover (a, b), each extrapolated to a from its
    heights at (3/4, 1/4) and (1/2, 1/2), do not land on the heights sing
    attaches them to, or the interior ones landing below each midpoint of
    a's heights are not as many as reg's map says; None when all is well."""
    a, b = cov
    ha = m.heights[a]
    limits = [2 * q - h for q, h in zip(quarter, half)]
    position = {h: i for i, h in enumerate(ha.heights)}
    lands = tuple(position.get(x) for x in limits)
    if None in lands:
        j = lands.index(None)
        return f"sheet {j} over {b!r} extrapolates to {limits[j]}, which is no height over {a!r}"
    if lands != sing.arrow[cov].values:
        return f"the sheets over {b!r} land on heights {lands} over {a!r}, not where sing_extract attaches them"
    mids = [(u + v) / 2 for u, v in zip(ha.heights, ha.heights[1:])]
    if tuple(sum(x < mid for x in limits[1:-1]) for mid in mids) != reg.arrow[cov].values:
        return f"the regular intervals over {a!r} do not track the sheets as reg_extract says"
    return None


def suite_roundtrip_mesh(max_ordinal: int = 2, seed=None) -> Report:
    """The readbacks agree with the geometry (_geometry_disagrees), reg_extract
    inverts realize_bundle, and duality and barycenter strictness hold over
    every poset of up to 3 elements; as a SUITES entry, every realized mesh
    is also rebuilt by audited() (mesh_checks)."""
    counts = {"bundles": 0, "covers": 0}
    quarter = StratSimplexPoint((Fraction(3, 4), Fraction(1, 4)))
    half = StratSimplexPoint((Fraction(1, 2), Fraction(1, 2)))
    for base in all_posets(3):
        for d in all_diagrams(base, max_ordinal):
            m = realize_bundle(d)
            counts["bundles"] += 1
            reg, sing = reg_extract(m), sing_extract(m)
            for cov in base.covers():
                counts["covers"] += 1
                mid = interpolated_heights(m, cov, half)
                why = _geometry_disagrees(m, cov, interpolated_heights(m, cov, quarter), mid, reg, sing)
                if why is not None:
                    return Report.failure(f"geometry {cov!r}", why + ":\n" + dumps(d), counts)
                if sing.arrow[cov] != dual_delta_to_nabla(d.arrow[cov]):
                    return Report.failure(f"sing_extract {cov!r}", "duality triangle fails:\n" + dumps(d), counts)
                if any(u >= v for u, v in zip(mid, mid[1:])):
                    return Report.failure(
                        f"barycenter {cov!r}", "interpolated heights collide:\n" + dumps(d), counts
                    )
            if reg != d:
                return Report.failure("reg_extract", "mesh does not extract back:\n" + dumps(d), counts)
    return Report.ok(counts)


def _label_disagrees(t: TrussTower, packed: PackedTower, counts: dict):
    """Why the labels of packed = pack(t) are not in truss_category of t's
    label category, or a label is not the fresh pullback of t's last stage
    and labels along its element or cover (path tables are audited as they
    are installed); None when all is well.  Counts each label checked."""
    last, lab, dom = t.stages[-1], packed.tower.labels, t.stages[-1].base
    if lab.target != truss_category(t.labels.target):
        return "the labels are not in the truss category of the tower's label category"
    top = TrussTower(dom, (last,), t.labels)
    labels = [(x, point_poset(), {POINT_ELEMENT: x}, lab.on_objects[x]) for x in dom.elements]
    labels += [((x, y), arrow_poset(), {"0": x, "1": y}, lab.on_relations[(x, y)]) for x, y in dom.covers()]
    for where, src, image, label in labels:
        counts["label_checks"] += 1
        if label != pullback_tower(top, PosetMap(src, dom, image)):
            return f"the label of {where!r} differs from its fresh pullback:\n" + dumps(t)
    return None


def _z2_relabelled(t: TrussTower, rng) -> TrussTower:
    """t labelled in the cyclic group of order 2 instead: a random 2-colouring
    of its top, and each cover labelled e where the colour changes (a
    coboundary, so functorial).  Unlike a poset's, these cover labels are
    not fixed by their ends' labels, so they reach the parts of pack's keys
    that the poset-labelled family leaves idle."""
    cat = LabelCategory(["*"], ["1", "e"], {"1": "*", "e": "*"}, {"1": "*", "e": "*"}, {"*": "1"},
                        {(f, g): "1" if f == g else "e" for f in "1e" for g in "1e"})
    colour = {x: rng.random() < 0.5 for x in t.top.elements}
    on_rel = {(x, y): "e" if colour[x] != colour[y] else "1" for x, y in t.top.covers()}
    return TrussTower(t.base, t.stages, Labeling(t.top, cat, dict.fromkeys(t.top.elements, "*"), on_rel))


def suite_pack(max_ordinal: int = 2, seed: int = 0) -> Report:
    """pack/unpack round trips over tower_family and over its towers
    relabelled in the cyclic group of order 2, each label of pack checked
    against a fresh pullback (label_checks), and double packs."""
    counts = {"towers": 0, "label_checks": 0, "double_packs": 0}
    rng = random.Random(seed or 0)
    towers = tower_family(seed or 0, max_ordinal)
    for t in towers:
        counts["towers"] += 1
        for u in (t, _z2_relabelled(t, rng)):
            try:
                packed = pack(u)
            except TrussError as exc:
                return Report.failure("pack", f"pack raised {exc}:\n" + dumps(u), counts)
            why = _label_disagrees(u, packed, counts)
            if why is not None:
                return Report.failure("pack labels", why, counts)
            if unpack(packed) != u:
                return Report.failure("pack", "pack/unpack did not round trip:\n" + dumps(u), counts)
    for t in towers:
        if t.depth >= 2 and counts["double_packs"] < 3:
            counts["double_packs"] += 1
            once = pack(t)
            p2 = pack(once.tower)
            if unpack(PackedTower(unpack(p2))) != t:
                return Report.failure("pack", "double pack did not round trip", counts)
    return Report.ok(counts)


def _glue(b1: TrussTower, b2: TrussTower) -> TrussTower:
    """Lay two boundary-matched bordisms side by side over {0 < 1 < 2};
    every layer is built through the validating over(), so functor_table
    proves the whole glued tower."""
    layers = _assemble(path_poset(), ((b1, {"0": "0", "1": "1"}), (b2, {"0": "1", "1": "2"})))
    return TrussTower(path_poset(), layers[:-1], layers[-1])


def _glue_disagrees(b1: TrussTower, b2: TrussTower, composite: TrussTower):
    """Why composite is not the glue of b1 and b2 restricted to {0 < 2}
    (the composite's definition), or None when it is."""
    outer = PosetMap(arrow_poset(), path_poset(), {"0": "0", "1": "2"})
    try:
        glued = pullback_tower(_glue(b1, b2), outer)
    except TrussError as exc:
        return f"the glued tower fails its checks: {exc}"
    if dumps(glued) != dumps(composite):
        return "the composite prints differently from the restricted glue"
    return None


def suite_bordism_assoc(seed: int = 0, max_ordinal=None) -> Report:
    """Unit laws, boundary checks and associativity of composition (on at
    most 400 sampled triples), and every composite formed compared with the
    glued tower over {0 < 1 < 2} restricted to {0 < 2}; max_ordinal is
    unused (bordism_family fixes it)."""
    rng = random.Random(seed or 0)
    counts = {
        "bordisms": 0,
        "identity_checks": 0,
        "triples": 0,
        "crossings_audited": 0,
        "alternatives_audited": 0,
        "glue_checks": 0,
    }

    def glue_failure(formed):
        for b1, b2, composite in formed:
            counts["glue_checks"] += 1
            why = _glue_disagrees(b1, b2, composite)
            if why is not None:
                return Report.failure("glue", why + ":\n" + dumps(b1) + dumps(b2), counts)
        return None

    bordisms = bordism_family(seed or 0)
    counts["bordisms"] = len(bordisms)
    for b in bordisms:
        i0, i1 = identity_bordism(b.end(0)), identity_bordism(b.end(1))
        left = compose_bordisms(i0, b)
        right = compose_bordisms(b, i1)
        counts["identity_checks"] += 2
        if left != b:
            return Report.failure("identity", "left identity law failed:\n" + dumps(b), counts)
        if right != b:
            return Report.failure("identity", "right identity law failed:\n" + dumps(b), counts)
        failure = glue_failure(((i0, b, left), (b, i1, right)))
        if failure is not None:
            return failure
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
    for (b1, b2, b3) in composable_triples(bordisms, 400, rng):
        counts["triples"] += 1
        b12, b23 = compose_bordisms(b1, b2), compose_bordisms(b2, b3)
        left, audit_l = compose_bordisms_audited(b12, b3)
        right, audit_r = compose_bordisms_audited(b1, b23)
        counts["crossings_audited"] += audit_l.crossings + audit_r.crossings
        counts["alternatives_audited"] += audit_l.alternatives + audit_r.alternatives
        failure = glue_failure(((b1, b2, b12), (b2, b3, b23), (b12, b3, left), (b1, b23, right)))
        if failure is not None:
            return failure
        if left != right:
            return Report.failure(
                "associativity",
                "triple composed differently:\n" + dumps(b1) + dumps(b2) + dumps(b3),
                counts,
            )
    return Report.ok(counts)


def suite_derived(max_ordinal: int = 2, seed: int = 0) -> Report:
    """Derive towers from every source as the library does, by pullback: the
    ends of a tower over the arrow and their identity bordisms (or the
    identity bordism of a tower over the point), and pack's fiber trusses
    and cover bordisms: every source has depth 1 or more.
    As a SUITES entry, audited() checks every layer, total space and tower
    installed, ends too."""
    counts = {"sources": 0, "derived": 0}
    for t in tower_family(seed, max_ordinal) + bordism_family(seed):
        counts["sources"] += 1
        out = [t.end(0), t.end(1)] if t.base == arrow_poset() else []
        out += [identity_bordism(e) for e in out or [t]]
        lab = pack(t).tower.labels
        out += [*lab.on_objects.values(), *lab.on_relations.values()]
        counts["derived"] += len(out)
    return Report.ok(counts)


# ---------------------------------------------------------------------------
# the audit of unchecked installs


class _Disagreement(Exception):
    """An unchecked install that differs from its checked rebuild: (kind, why, value)."""


def _shown(value) -> str:
    """dumps(value), a poset's elements and covers by key, else its key's
    repr (a poset whose masks name a non-element has no covers)."""
    try:
        if isinstance(value, FinPoset):
            return (f"elements {', '.join(map(element_key, value.elements))}\n"
                    f"covers {', '.join(map(cover_key, value.covers()))}")
        return dumps(value)
    except (ParseError, IndexError):
        return repr(getattr(value, "_key", value))


def _functor_disagrees(new: CoverFunctor, fields):
    """Why new differs from its rebuild through over(), path table included; or None."""
    again = new.over(new.base, new.objects, new.covers)
    return None if again == new and again._paths == new._paths else "it differs from its validating rebuild"


def _total_space_disagrees(new: TotalPoset, fields):
    """Why new, total_space(d) as laid out and installed unchecked, is not
    the poset the validating constructor builds from its elements, shuffled,
    and the relation spelled pair by pair from stratum_targets; None when it
    is."""
    d, carrier = fields[0], new.carrier
    shuffled = random.Random(0).sample(carrier.elements, len(carrier.elements))
    pairs = [
        ((a, e), (b, e2))
        for a, b in d.base.leq
        for e in fiber_objects(d.ord[a].n)
        for e2 in stratum_targets(e, d.map_for(a, b))
    ]
    again = FinPoset(shuffled, pairs)
    if again.elements != carrier.elements:
        return "the elements are not in canonical order"
    if again != carrier:
        return "the order differs from its validating rebuild"
    return None


def _poset_disagrees(new: FinPoset, fields):
    """Why new, installed unchecked, is not the validating FinPoset(...) of
    its elements and the pairs its masks name; None when it is."""
    els = new.elements
    if any(up >> len(els) for up in new.ups):
        return "a mask names a non-element"
    pairs = [(a, els[j]) for a, up in zip(els, new.ups) for j in bits(up)]
    return None if FinPoset(els, pairs) == new else "it differs from its validating rebuild"


def _rebuild_disagrees(new, fields):
    """Why new differs from what its class's constructor builds from the same fields; or None."""
    return None if type(new)(*fields) == new else "it differs from its validating rebuild"


def _category_disagrees(new: LabelCategory, fields):
    """Why new differs from its validating rebuild, or why compose_bordisms
    of a bordism in it and the identity at one of its ends is not that
    bordism (truss_label_category enters these unit entries uncomposed); or
    None."""
    why = _rebuild_disagrees(new, fields)
    for i, f in enumerate(new.morphisms if why is None else ()):
        units = (new.identity[new.src[f]], f), (f, new.identity[new.dst[f]])
        if isinstance(f, TrussTower) and any(compose_bordisms(*pair) != f for pair in units):
            return f"a unit law fails at morphism {i}: its composite with an identity differs from it"
    return why


def _recorded(new: TrussTower, fields) -> dict:
    """The ends new holds where its TrussTower._trusted call records one,
    whatever else the live tower has recorded before."""
    return {k: new._ends[k] for k in (fields[2] or ())} if len(fields) > 2 else {}


def _tower_disagrees(new: TrussTower, fields):
    """Why an end the install records differs from restrict_bordism's, or
    new from its class's checking constructor on its layers; or None."""
    for k, end in sorted(_recorded(new, fields).items()):
        if restrict_bordism(new, k) != end:
            return f"end {k} differs from restrict_bordism"
    return _rebuild_disagrees(new, (new.base, new.stages, new.labels))


# One row per class whose own _trusted installs unchecked: the kind a failure
# names; the count (a name per install, or a function of the value, of the
# install's fields and of whether it is checked now); the key (subject,
# witness): a subject is checked once per distinct witness, every witness
# checked being kept, and shown on failure; and the check.
_INSTALLS = (
    # == compares elements in order and masks: a non-canonical order differs
    (FinPoset, "trusted poset", "poset_checks", lambda new, fields: (new, ()), _poset_disagrees),
    (CoverFunctor, "trusted functor",
     lambda new, fields, fresh: "mesh_checks" if isinstance(new, PLMeshBundle) else "layers",
     lambda new, fields: (new, fields[1]), _functor_disagrees),
    # each distinct space once: a memo evicting one does not count it twice
    (TotalPoset, "total space", lambda new, fields, fresh: fresh and "total_space_checks",
     lambda new, fields: (fields[0], ()), _total_space_disagrees),
    # == compares objects and morphisms as sets; equal lengths also rule out a duplicate
    (LabelCategory, "label category", "category_checks",
     lambda new, fields: (new, (len(new.objects), len(new.morphisms))), _category_disagrees),
    (MonotoneMap, "trusted map", "map_checks", lambda new, fields: (new, ()), _rebuild_disagrees),
    (StratumMap, "trusted map", "map_checks", lambda new, fields: (new, ()), _rebuild_disagrees),
    (PosetMap, "trusted map", "map_checks", lambda new, fields: (new, ()), _rebuild_disagrees),
    # by the ends each install records: an interned tower may hold more
    (TrussTower, "trusted tower", lambda new, fields, fresh: "end_checks" if _recorded(new, fields) else None,
     lambda new, fields: (new, tuple(sorted(_recorded(new, fields).items()))), _tower_disagrees),
)


@contextmanager
def audited():
    """Audit what the library installs unchecked while the block runs; yields
    the counts of installs audited.  The _trusted of every _INSTALLS row is
    patched, and nothing else, and restored on exit: each distinct install is
    checked once and counted as its row says.  tower._empty_tables() empties
    the memos (composites, plans, identities, total spaces, layouts, walks,
    duals), tower._PACKED, pack's pieces, bundle._PROVED, the functors
    proved by their constructor, and tower._BUILT, the towers _trusted
    interned, on entry and exit, so what the block uses is installed, and
    audited, or proved inside it, and nothing made inside outlives it.
    A _trusted install enters _PROVED only from all_diagrams, once its
    install has returned, so its own rebuild is a real proof, and a later
    rebuild of an equal key shares an audited table.  A tower install is
    counted and checked by the ends it records, whatever else the interned
    tower holds.  A disagreement raises _Disagreement."""
    counts, checked = Counter(), {}  # checked: (kind, subject) -> the witnesses checked
    saved = {row[0]: row[0].__dict__["_trusted"] for row in _INSTALLS}

    def patched(owner, kind, count, key, check):
        def install(cls, *fields):
            new = saved[owner].__func__(cls, *fields)
            subject, witness = key(new, fields)
            # a list, not a set: a functor's witness is its path table, a dict
            fresh = witness not in checked.setdefault((kind, subject), [])
            if fresh:
                try:
                    why = check(new, fields)
                except TrussError as exc:
                    why = f"the validating rebuild fails: {exc}"
                if why is not None:
                    raise _Disagreement(kind, why, subject)
                checked[(kind, subject)].append(witness)
            name = count(new, fields, fresh) if callable(count) else count
            if name:
                counts[name] += 1
            return new
        return classmethod(install)

    _empty_tables()
    for row in _INSTALLS:
        row[0]._trusted = patched(*row)
    try:
        yield counts
    finally:
        for owner, install in saved.items():
            owner._trusted = install
        _empty_tables()


def _audited_suite(suite):
    """A SUITES entry: the suite under audited(), given max_ordinal and seed
    unless None; nonzero audit counts join the report's, and a disagreement
    ends the run as a failing Report naming the kind of install, any other
    library error as one located at "library error", and an audit count
    named like one of the suite's as one located at "audit counts"."""
    def run(max_ordinal=None, seed=None):
        options = {k: v for k, v in (("max_ordinal", max_ordinal), ("seed", seed)) if v is not None}
        with audited() as audit:
            try:
                report = suite(**options)
            except _Disagreement as exc:
                kind, why, value = exc.args
                report = Report.failure(kind, why + ":\n" + _shown(value))
            except TrussError as exc:
                report = Report.failure("library error", f"{type(exc).__name__}: {exc}")
        clashes = ", ".join(sorted(set(audit) & set(report.counts)))
        if clashes:
            return Report.failure("audit counts", f"the audit's {clashes} would overwrite the suite's", report.counts)
        report.counts.update(audit)
        return report
    return run


SUITES = {
    "homsets": _audited_suite(suite_homsets),
    "factorization": _audited_suite(suite_factorization),
    "roundtrip-bundle": _audited_suite(suite_roundtrip_bundle),
    "roundtrip-mesh": _audited_suite(suite_roundtrip_mesh),
    "pack": _audited_suite(suite_pack),
    "bordism-assoc": _audited_suite(suite_bordism_assoc),
    "derived": _audited_suite(suite_derived),
}
