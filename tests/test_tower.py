"""Towers, bordisms, composition, and the packing equivalence."""

import ast
import collections
import copy
import functools
import gc
import hashlib
import itertools
import random
import re
import weakref
from pathlib import Path
from types import SimpleNamespace

import pytest

from trusskit import (
    POINT_ELEMENT,
    Bordism,
    CompositionError,
    DeltaDiagram,
    DeltaMap,
    DiagramError,
    DomainError,
    FinPoset,
    InternalError,
    LabelCategory,
    Labeling,
    LabelingError,
    LayoutError,
    MeshError,
    NablaDiagram,
    NablaMap,
    Ordinal,
    PackedTower,
    PackingError,
    ParseError,
    PLMeshBundle,
    PosetMap,
    Report,
    SectionError,
    StratSimplexPoint,
    Stratum,
    StratumMap,
    TotalPoset,
    TrussError,
    TrussTower,
    arrow_poset,
    classify,
    compose_bordisms,
    compose_bordisms_audited,
    compose_delta,
    compose_nabla,
    constant_inclusion,
    dual_delta_to_nabla,
    dual_nabla_to_delta,
    enumerate_delta_maps,
    dumps,
    fiber_over_ordinal,
    forget_to_delta,
    identity_bordism,
    interpolated_heights,
    load,
    pack,
    parse,
    point_poset,
    pullback_tower,
    realize_bundle,
    restrict_bordism,
    save,
    scene_to_svg,
    section_to_strata,
    total_space,
    truss_label_category,
    unpack,
    validate_stratum_map,
)
from trusskit import bundle, tower
from trusskit.bundle import pullback_bundle
from trusskit.oracles import (
    SUITES,
    _glue,
    _z2_relabelled,
    bordism_family,
    composable_triples,
    depth1_family,
    functors,
    tower_family,
)
from trusskit.poset import bits, path_poset
from trusskit.tower import root_of, truss_category
from conftest import terminal_labeling


def test_tower_requires_chained_stages(single_node):
    stages = single_node.stages
    with pytest.raises(TrussError):
        TrussTower(point_poset(), (stages[0], stages[0]), single_node.labels)


def test_tower_requires_labels_on_top(single_node):
    wrong = terminal_labeling(total_space(single_node.stages[0]).carrier)
    with pytest.raises(TrussError):
        TrussTower(point_poset(), single_node.stages, wrong)


def test_depth_and_totals(single_node):
    assert single_node.depth == 2
    assert len(single_node.totals) == 2
    assert len(single_node.top.elements) == 9


def test_pullback_along_identity(single_node):
    assert pullback_tower(single_node, PosetMap.identity(point_poset())) == single_node


def test_identity_bordism_ends(single_node):
    b = identity_bordism(single_node)
    assert isinstance(b, Bordism)
    assert b.end(0) == single_node
    assert b.end(1) == single_node


def test_equal_towers_from_different_routes_compare_equal(single_node, chain_cat):
    # equality looks at the stored hashes first, so equal values must hash alike
    b = constant_inclusion([DeltaMap(1, 2, (0, 2))], "a<=b", chain_cat)
    for t in (single_node, b, b.end(1), identity_bordism(single_node)):
        parsed = parse(dumps(t))
        assert parsed is not t and parsed == t and hash(parsed) == hash(t)
        for built, read in zip(t.layers, parsed.layers):
            assert built == read and hash(built) == hash(read)
    assert b.end(1) == constant_inclusion([2], "b", chain_cat)
    assert b.end(0) != b.end(1) and b.end(1).stages != b.end(0).stages


def test_restrict_bordism_of_constant(chain_cat):
    f = DeltaMap(1, 2, (0, 2))
    b = constant_inclusion([f], "a<=b", chain_cat)
    left, right = restrict_bordism(b, 0), restrict_bordism(b, 1)
    assert left == constant_inclusion([1], "a", chain_cat)
    assert right == constant_inclusion([2], "b", chain_cat)


def test_identity_laws(chain_cat):
    b = constant_inclusion([DeltaMap(1, 2, (0, 2))], "a<=b", chain_cat)
    left = compose_bordisms(identity_bordism(b.end(0)), b)
    right = compose_bordisms(b, identity_bordism(b.end(1)))
    assert left == b
    assert right == b


def test_constant_chain_composition_audit(chain_cat):
    b1 = constant_inclusion([DeltaMap(1, 1, (0, 0))], "a<=b", chain_cat)
    b2 = constant_inclusion([DeltaMap(1, 1, (0, 1))], "b<=c", chain_cat)
    c, audit = compose_bordisms_audited(b1, b2)
    assert c.stages[0].arrow[("0", "1")] == DeltaMap(1, 1, (0, 0))
    assert c.labels.on_relations[
        next(cov for cov in c.top.covers() if cov[0][0] != cov[1][0])
    ] == "a<=c"
    # 1 stage crossing + 2 seam-crossing covers on the top
    assert audit.crossings == 3
    assert audit.alternatives == 3
    # identity fibers: 1 stage crossing + 3 crossing covers (r0, s0, r1)
    i1 = constant_inclusion([DeltaMap.identity(1)], "a<=b", chain_cat)
    i2 = constant_inclusion([DeltaMap.identity(1)], "b<=c", chain_cat)
    _, audit2 = compose_bordisms_audited(i1, i2)
    assert audit2.crossings == 4
    assert audit2.alternatives == 4


def test_composition_functorial_on_constants(chain_cat):
    f = DeltaMap(1, 2, (0, 2))
    g = DeltaMap(2, 1, (0, 1, 1))
    b1 = constant_inclusion([f], "a<=b", chain_cat)
    b2 = constant_inclusion([g], "b<=c", chain_cat)
    composite = compose_bordisms(b1, b2)
    assert composite == constant_inclusion([compose_delta(f, g)], "a<=c", chain_cat)


def test_boundary_mismatch_raises(chain_cat):
    b1 = constant_inclusion([DeltaMap(1, 2, (0, 2))], "a<=b", chain_cat)
    b2 = constant_inclusion([DeltaMap(1, 1, (0, 1))], "b<=c", chain_cat)
    with pytest.raises(CompositionError):
        compose_bordisms(b1, b2)


def test_composition_needs_bordisms(single_node, chain_cat):
    b = constant_inclusion([DeltaMap(1, 1, (0, 1))], "a<=b", chain_cat)
    with pytest.raises(CompositionError):
        compose_bordisms(single_node, b)


def test_associativity_on_constants(chain_cat):
    f = DeltaMap(0, 1, (0,))
    g = DeltaMap(1, 1, (0, 1))
    h = DeltaMap(1, 0, (0, 0))
    b1 = constant_inclusion([f], "a<=b", chain_cat)
    b2 = constant_inclusion([g], "b<=c", chain_cat)
    b3 = constant_inclusion([h], "c<=c", chain_cat)
    lhs = compose_bordisms(compose_bordisms(b1, b2), b3)
    rhs = compose_bordisms(b1, compose_bordisms(b2, b3))
    assert lhs == rhs


def test_constant_inclusion_depth_zero(chain_cat):
    t = constant_inclusion([], "a", chain_cat)
    assert t.depth == 0
    b = constant_inclusion([], "a<=b", chain_cat)
    assert isinstance(b, Bordism)
    with pytest.raises(DomainError):
        constant_inclusion([], "nope", chain_cat)


def test_constant_inclusion_rejects_mixed_data(chain_cat):
    with pytest.raises(DomainError):
        constant_inclusion([Ordinal(1), DeltaMap.identity(1)], "a", chain_cat)
    with pytest.raises(DomainError):
        constant_inclusion([1], "a<=b", chain_cat)


def _constant_by_stages(data, label, cat):
    """constant_inclusion spelled stage by stage: each stage and the labels
    built over the grown base through the validating constructors."""
    if label in cat.objects:
        root, maps, ends = point_poset(), [DeltaMap.identity(n) for n in data], (label, label)
    else:
        root, maps, ends = arrow_poset(), data, (cat.src[label], cat.dst[label])
    cur, stages = root, []
    for m in maps:
        at = {el: (m.src, m.dst)[root_of(el) == "1"] for el in cur.elements}
        arrow = {(u, v): m if root_of(u) != root_of(v) else DeltaMap.identity(at[u]) for u, v in cur.covers()}
        stages.append(DeltaDiagram(cur, at, arrow))
        cur = total_space(stages[-1]).carrier
    on_obj = {el: ends[root_of(el) == "1"] for el in cur.elements}
    on_rel = {(u, v): label if root_of(u) != root_of(v) else cat.identity[on_obj[u]] for u, v in cur.covers()}
    return (TrussTower if label in cat.objects else Bordism)(root, stages, Labeling(cur, cat, on_obj, on_rel))


def _constant_inputs(cat):
    """Ordinal and map lists of depths 0 to 3, with labels, over both roots."""
    rng = random.Random(3)
    maps = [m for a in range(3) for b in range(3) for m in enumerate_delta_maps(a, b)]
    out = [([], "b"), ([], "a<=c")]
    for depth in (1, 2, 3):
        for _ in range(4):
            out.append(([rng.randint(0, 2) for _ in range(depth)], rng.choice(cat.objects)))
            out.append(([rng.choice(maps) for _ in range(depth)], rng.choice(cat.morphisms)))
    return out


def test_constant_inclusion_matches_its_stagewise_spelling(chain_cat):
    for data, label in _constant_inputs(chain_cat):
        assert dumps(constant_inclusion(data, label, chain_cat)) == dumps(_constant_by_stages(data, label, chain_cat))


def test_constant_inclusion_proves_functors_only_on_the_root(monkeypatch, chain_cat):
    sizes, real = [], bundle.functor_table

    def counted(base, *rest):
        sizes.append(len(base.elements))
        return real(base, *rest)

    monkeypatch.setattr(bundle, "functor_table", counted)
    for data, label in _constant_inputs(chain_cat) + [([1, 1], "a"), ([DeltaMap.identity(1)] * 2, "a<=b")]:
        constant_inclusion(data, label, chain_cat)
    assert sizes and max(sizes) <= 2


def test_pack_unpack_roundtrip(single_node):
    p = pack(single_node)
    assert isinstance(p, PackedTower)
    assert p.depth == 1
    assert unpack(p) == single_node


def test_pack_depth_zero_rejected(chain_cat):
    t = constant_inclusion([], "a", chain_cat)
    with pytest.raises(TrussError):
        pack(t)


def test_packed_labels_are_fiber_trusses(single_node):
    p = pack(single_node)
    lab = p.tower.labels
    for el in p.tower.top.elements:
        fiber = lab.target if False else lab.on_objects[el]
        assert isinstance(fiber, TrussTower)
        assert fiber.base == point_poset()
        assert fiber.depth == 1
    for cov in p.tower.top.covers():
        assert isinstance(lab.on_relations[cov], Bordism)


def test_double_pack_roundtrip(single_node):
    def stage3(carrier):
        return (
            DeltaDiagram(
                carrier,
                {x: Ordinal(0) for x in carrier.elements},
                {cov: DeltaMap.identity(0) for cov in carrier.covers()},
            )
        )

    d3 = stage3(single_node.top)
    t3 = TrussTower(
        point_poset(),
        single_node.stages + (d3,),
        terminal_labeling(total_space(d3).carrier),
    )
    p1 = pack(t3)
    p2 = pack(p1.tower)
    assert unpack(PackedTower(unpack(p2))) == t3


def test_unpack_rejects_tampered_labels(single_node):
    # a valid labeling of the packed top, but into the terminal category
    # instead of the truss category
    p = pack(single_node)
    tampered = terminal_labeling(p.tower.top)
    with pytest.raises(PackingError, match="is not a depth-1 truss over the point"):
        unpack(PackedTower(TrussTower(p.tower.base, p.tower.stages, tampered)))


def test_truss_label_category_closure(single_node, chain_cat):
    lab = pack(single_node).tower.labels
    cat = truss_label_category(lab.on_objects.values(), lab.on_relations.values())
    # closed under composition: every table entry is again a bordism, the
    # category's own instance
    own = {id(m) for m in cat.morphisms}
    for (f, g), h in cat.compose.items():
        assert h in set(cat.morphisms) and id(h) in own
    # identities restrict to their object on both ends
    for obj in cat.objects:
        ident = cat.identity[obj]
        assert ident.end(0) == obj
        assert ident.end(1) == obj


def test_pullback_tower_to_bordism_end(chain_cat):
    b = constant_inclusion([DeltaMap(1, 2, (0, 2))], "a<=b", chain_cat)
    incl = PosetMap(point_poset(), arrow_poset(), {"pt": "0"})
    t = pullback_tower(b, incl)
    assert t.depth == 1
    assert t.stages[0].ord["pt"] == Ordinal(1)
    assert type(t) is TrussTower
    assert isinstance(pullback_tower(b, PosetMap.identity(arrow_poset())), Bordism)


def test_plain_tower_over_arrow_has_ends_and_composes(chain_cat, single_node):
    b = constant_inclusion([DeltaMap(1, 2, (0, 2))], "a<=b", chain_cat)
    plain = TrussTower(arrow_poset(), b.stages, b.labels)
    assert not isinstance(plain, Bordism)
    for i in (0, 1):
        assert plain.end(i) == restrict_bordism(b, i)
    assert compose_bordisms(identity_bordism(plain.end(0)), plain) == b
    assert compose_bordisms(plain, identity_bordism(plain.end(1))) == b
    with pytest.raises(DomainError, match="pullback map must land in the tower's base"):
        single_node.end(0)


def test_truss_label_category_rejects_foreign_endpoint(chain_cat):
    b = constant_inclusion([DeltaMap(1, 2, (0, 2))], "a<=b", chain_cat)
    with pytest.raises(PackingError, match="a generator's endpoint is not among the objects"):
        truss_label_category([b.end(0)], [b])


def test_unpack_rejects_cover_bordism_with_wrong_ends(chain_cat):
    # a hand-built category whose src/dst claim the fiber towers, though the
    # cover bordism really ends at [2] labelled b, not at [1] labelled b
    o0 = constant_inclusion([1], "a", chain_cat)
    o1 = constant_inclusion([1], "b", chain_cat)
    g = constant_inclusion([DeltaMap(1, 2, (0, 2))], "a<=b", chain_cat)
    i0, i1 = identity_bordism(o0), identity_bordism(o1)
    cat = LabelCategory(
        objects=[o0, o1],
        morphisms=[i0, i1, g],
        src={i0: o0, i1: o1, g: o0},
        dst={i0: o0, i1: o1, g: o1},
        identity={o0: i0, o1: i1},
        compose={(i0, i0): i0, (i1, i1): i1, (i0, g): g, (g, i1): g},
    )
    lab = Labeling(arrow_poset(), cat, {"0": o0, "1": o1}, {("0", "1"): g})
    with pytest.raises(PackingError, match=r"cover bordism on \('0', '1'\) does not restrict to its endpoints"):
        unpack(PackedTower(TrussTower(arrow_poset(), (), lab)))


# -- references: restriction written out by hand --------------------------
#
# Composition, fiber trusses and cover bordisms used to be spelled out
# stage by stage instead of going through pullback_tower; the copies below
# keep those constructions so the single primitive is checked against them.


def _reference_via_middles(poset, a, b, compute):
    mids = [
        y for y in poset.elements
        if root_of(y) == "1" and poset.le(a, y) and poset.le(y, b)
    ]
    assert mids
    # the least middle, else the greatest, else the first
    least = [y for y in mids if all(poset.le(y, z) for z in mids)]
    greatest = [y for y in mids if all(poset.le(z, y) for z in mids)]
    pick = (least or greatest or mids)[0]
    value = compute(pick)
    assert all(compute(y) == value for y in mids)
    return value, len(mids)


def reference_compose_audited(b1, b2):
    """Glue, then restrict to {0 < 2} stage by stage, forming every crossing
    composite through a picked factorization middle."""
    glued = _glue(b1, b2)
    crossings = alternatives = 0
    cur_base = arrow_poset()
    cur_map = {"0": "0", "1": "2"}
    stages = []
    for d_g in glued.stages:
        ords = {x: d_g.ord[cur_map[x]] for x in cur_base.elements}
        arrows = {}
        for (u, v) in cur_base.covers():
            a, b = cur_map[u], cur_map[v]
            if (a, b) in d_g.arrow:
                arrows[(u, v)] = d_g.arrow[(a, b)]
            else:
                arrows[(u, v)], n_mids = _reference_via_middles(
                    d_g.base, a, b,
                    lambda y: compose_delta(d_g.map_for(a, y), d_g.map_for(y, b)),
                )
                crossings += 1
                alternatives += n_mids
        d_r = DeltaDiagram(cur_base, ords, arrows)
        stages.append(d_r)
        carrier = total_space(d_r).carrier
        cur_map = {(x, e): (cur_map[x], e) for (x, e) in carrier.elements}
        cur_base = carrier
    lab = glued.labels
    on_obj = {x: lab.on_objects[cur_map[x]] for x in cur_base.elements}
    on_rel = {}
    for (u, v) in cur_base.covers():
        a, b = cur_map[u], cur_map[v]
        if (a, b) in lab.on_relations:
            on_rel[(u, v)] = lab.on_relations[(a, b)]
        else:
            on_rel[(u, v)], n_mids = _reference_via_middles(
                glued.top, a, b,
                lambda y: lab.target.compose_pair(lab.morphism_for(a, y), lab.morphism_for(y, b)),
            )
            crossings += 1
            alternatives += n_mids
    composite = Bordism(arrow_poset(), stages, Labeling(cur_base, lab.target, on_obj, on_rel))
    return composite, (crossings, alternatives)


def reference_fiber_truss(last, labels, x):
    pt = point_poset()
    d = DeltaDiagram(pt, {POINT_ELEMENT: last.ord[x]}, {})
    carrier = total_space(d).carrier
    lab = Labeling(
        carrier,
        labels.target,
        {(POINT_ELEMENT, e): labels.on_objects[(x, e)] for (_, e) in carrier.elements},
        {
            ((POINT_ELEMENT, e), (POINT_ELEMENT, e2)): labels.on_relations[((x, e), (x, e2))]
            for ((_, e), (_, e2)) in carrier.covers()
        },
    )
    return TrussTower(pt, (d,), lab)


def reference_cover_bordism(last, labels, cov):
    x, y = cov
    d = DeltaDiagram(
        arrow_poset(), {"0": last.ord[x], "1": last.ord[y]}, {("0", "1"): last.arrow[cov]}
    )
    carrier = total_space(d).carrier
    lift = {"0": x, "1": y}
    lab = Labeling(
        carrier,
        labels.target,
        {(t0, e): labels.on_objects[(lift[t0], e)] for (t0, e) in carrier.elements},
        {
            ((t0, e), (t1, e2)): labels.on_relations[((lift[t0], e), (lift[t1], e2))]
            for ((t0, e), (t1, e2)) in carrier.covers()
        },
    )
    return Bordism(arrow_poset(), (d,), lab)


@functools.lru_cache(maxsize=None)
def composable_pairs() -> tuple:
    """Identities on either side and both bracketings of sampled triples."""
    bordisms = bordism_family(0)
    pairs = [(identity_bordism(b.end(0)), b) for b in bordisms[::7]]
    pairs += [(b, identity_bordism(b.end(1))) for b in bordisms[3::7]]
    for (b1, b2, b3) in composable_triples(bordisms, 40, random.Random(0)):
        pairs += [(compose_bordisms(b1, b2), b3), (b1, compose_bordisms(b2, b3))]
    return tuple(pairs)


def test_composition_matches_reference_restriction():
    pairs = composable_pairs()
    crossed = 0
    for b1, b2 in pairs:
        composite, audit = compose_bordisms_audited(b1, b2)
        ref, ref_counts = reference_compose_audited(b1, b2)
        assert dumps(composite) == dumps(ref)
        assert (audit.crossings, audit.alternatives) == ref_counts
        assert compose_bordisms(b1, b2) == composite
        crossed += audit.crossings
    assert len(pairs) > 100 and crossed > len(pairs)


def test_pack_labels_match_reference_restriction():
    towers = [t for t in tower_family(0) if t.depth >= 1]
    sample = [t for t in towers if t.depth != 2] + [t for t in towers if t.depth == 2][::10]
    for t in sample:
        last = t.stages[-1]
        lab = pack(t).tower.labels
        for x in last.base.elements:
            assert lab.on_objects[x] == reference_fiber_truss(last, t.labels, x)
        for cov in last.base.covers():
            g = lab.on_relations[cov]
            assert isinstance(g, Bordism)
            assert g == reference_cover_bordism(last, t.labels, cov)
    assert {t.depth for t in sample} == {1, 2, 3}


# -- references: gluing written out by hand --------------------------------
#
# Composition and unpack used to build the glued stages and labels table by
# table; the copies below keep those constructions so the one gluing routine
# is checked against them.

_REFERENCE_SIDES = ({"0": "0", "1": "1"}, {"0": "1", "1": "2"})


def _reference_retag(el, rootmap):
    if isinstance(el, tuple):
        return (_reference_retag(el[0], rootmap), el[1])
    return rootmap[el]


def _reference_merge(tables, on_covers, what):
    merged = {}
    for table, rmap in zip(tables, _REFERENCE_SIDES):
        for key, value in table.items():
            if on_covers:
                g = (_reference_retag(key[0], rmap), _reference_retag(key[1], rmap))
            else:
                g = _reference_retag(key, rmap)
            if merged.setdefault(g, value) != value:
                raise InternalError(f"glued bordisms disagree on a shared {what}")
    return merged


def reference_glue(b1, b2):
    """Lay two boundary-matched bordisms side by side over {0 < 1 < 2}."""
    base = path_poset()
    stages = []
    for d1, d2 in zip(b1.stages, b2.stages):
        ords = _reference_merge((d1.ord, d2.ord), False, "fiber ordinal")
        arrows = _reference_merge((d1.arrow, d2.arrow), True, "covering map")
        if set(ords) != set(base.elements):
            raise InternalError("glued stage base does not match the expected total space")
        if set(arrows) != set(base.covers()):
            raise InternalError("a covering relation of the glued base crosses the seam")
        d_g = DeltaDiagram(base, ords, arrows)
        stages.append(d_g)
        base = total_space(d_g).carrier
    l1, l2 = b1.labels, b2.labels
    if l1.target != l2.target:
        raise CompositionError("bordisms are labelled in different categories")
    on_obj = _reference_merge((l1.on_objects, l2.on_objects), False, "label")
    on_rel = _reference_merge((l1.on_relations, l2.on_relations), True, "relation label")
    if set(on_rel) != set(base.covers()):
        raise InternalError("a top covering relation of the glued tower crosses the seam")
    labels = Labeling(base, l1.target, on_obj, on_rel)
    return TrussTower(path_poset(), stages, labels)


def reference_unpack(p):
    """Read the last stage's ordinals, covering maps and labels back out of
    the fiber-truss labels of a well-formed packed tower."""
    t = p.tower
    lab = t.labels
    dom = lab.domain
    cat = lab.on_objects[dom.elements[0]].labels.target
    ords = {x: lab.on_objects[x].stages[0].ord[POINT_ELEMENT] for x in dom.elements}
    arrows = {cov: lab.on_relations[cov].stages[0].arrow[("0", "1")] for cov in dom.covers()}
    d_last = DeltaDiagram(dom, ords, arrows)
    carrier = total_space(d_last).carrier
    on_obj = {}
    on_rel = {}
    for (x, e) in carrier.elements:
        on_obj[(x, e)] = lab.on_objects[x].labels.on_objects[(POINT_ELEMENT, e)]
    for ((x, e), (y, e2)) in carrier.covers():
        if x == y:
            on_rel[((x, e), (y, e2))] = lab.on_objects[x].labels.on_relations[
                ((POINT_ELEMENT, e), (POINT_ELEMENT, e2))
            ]
        else:
            g = lab.on_relations[(x, y)]
            on_rel[((x, e), (y, e2))] = g.labels.on_relations[(("0", e), ("1", e2))]
    labels = Labeling(carrier, cat, on_obj, on_rel)
    return TrussTower(t.base, t.stages + (d_last,), labels)


def test_glue_matches_reference():
    for b1, b2 in composable_pairs():
        assert _glue(b1, b2) == reference_glue(b1, b2)


def test_composition_checks_every_factorization_middle(chain_cat):
    # a copy of b1 whose label layer's target composes every pair to a fresh
    # value, so two middles of one crossing pair disagree
    b1 = constant_inclusion([DeltaMap.identity(1)], "a<=b", chain_cat)
    b2 = constant_inclusion([DeltaMap.identity(1)], "b<=c", chain_cat)
    assert compose_bordisms_audited(b1, b2)[1].alternatives == 4
    labels = copy.copy(b1.labels)
    fresh = itertools.count()
    labels.target = SimpleNamespace(compose_pair=lambda f, g: next(fresh))
    bad = copy.copy(b1)
    bad.layers = b1.stages + (labels,)
    middle = ("1", Stratum.singular(0, 1))
    # bad == b1, so the value-keyed memo would return b1's good composite;
    # the plan of b1's stages is warm, and still every label middle is checked
    tower._composite.cache_clear()
    plans = tower._plan.cache_info()
    for compose in (compose_bordisms, compose_bordisms_audited):
        with pytest.raises(InternalError, match=re.escape(f"factorization middle {middle!r} disagrees")):
            compose(bad, b2)
    assert tower._plan.cache_info()[:2] == (plans.hits + 2, plans.misses)


def test_warm_plans_compose_as_cold_ones(monkeypatch):
    bordisms = bordism_family(0)
    by_source = {}
    for b in bordisms:
        by_source.setdefault(b.end(0), []).append(b)
    pairs = [(b1, b2) for b1 in bordisms for b2 in by_source.get(b1.end(1), ())]

    def composed():
        tower._composite.cache_clear()
        return [(dumps(c), audit) for c, audit in itertools.starmap(compose_bordisms_audited, pairs)]

    with monkeypatch.context() as m:
        m.setattr(tower, "_plan", tower._plan.__wrapped__)  # a fresh plan for every composite
        cold = composed()
    tower._plan.cache_clear()
    for b1, b2 in pairs:
        tower._plan(b1.stages, b2.stages)
    built = tower._plan.cache_info().misses
    assert composed() == cold
    assert tower._plan.cache_info().misses == built < len(pairs) == 3237


def test_depth_zero_bordisms_compose(chain_cat):
    b1, b2 = (constant_inclusion([], label, chain_cat) for label in ("a<=b", "b<=c"))
    composite, audit = compose_bordisms_audited(b1, b2)
    assert composite == constant_inclusion([], "a<=c", chain_cat)
    assert (audit.crossings, audit.alternatives) == (1, 1)


def reference_layer_plan(base1, base2, base):
    """_layer_plan spelled by name: the seam found by root, b2's middles
    named by retagging b1's seam from "1" to "0", every position looked up
    in the bases' indexes."""
    els1, els2 = base1.elements, base2.elements
    seam = sum(1 << j for j, m in enumerate(els1) if root_of(m) == "1")
    ups = {x: [(x, els1[j]) for j in bits(up & seam)] for x, up in zip(els1, base1.ups) if root_of(x) == "0"}
    downs = {y: {} for y in els2 if root_of(y) == "1"}
    for j in bits(seam):
        m2 = _reference_retag(els1[j], {"1": "0"})
        for k in bits(base2.ups[base2.index[m2]]):
            if els2[k] in downs:
                downs[els2[k]][els1[j]] = (m2, els2[k])
    crossings = {}
    for x, above in ups.items():
        related = base.ups[base.index[x]]
        for y, below in downs.items():
            if related >> base.index[y] & 1:
                mids = crossings[(x, y)] = tuple((k1, below[k1[1]]) for k1 in above if k1[1] in below)
                if not mids:
                    raise InternalError(f"empty factorization middle set between {x!r} and {y!r}")
    return (base, tuple(x for x in base.elements if x in ups), tuple(x for x in base.elements if x not in ups),
            tuple((x, els1[j]) for x, up in zip(els1, base1.ups) if x in ups for j in bits(up & ~seam)),
            tuple((y, els2[j]) for y, up in zip(els2, base2.ups) if y in downs for j in bits(up)), crossings)


def family_pairs() -> list:
    """The 3237 composable pairs of bordism_family(0), depths 1-3."""
    bordisms = bordism_family(0)
    by_source = {}
    for b in bordisms:
        by_source.setdefault(b.end(0), []).append(b)
    return [(b1, b2) for b1 in bordisms for b2 in by_source.get(b1.end(1), ())]


def test_layer_plan_reads_by_position_as_the_reference_reads_by_name():
    layers, depths = set(), set()
    for b1, b2 in family_pairs():
        depths.add(b1.depth)
        bases = [[arrow_poset()] + [t.carrier for t in b.totals] for b in (b1, b2, compose_bordisms(b1, b2))]
        layers.update(zip(*bases))
    assert depths == {1, 2, 3} and len(layers) == 400
    for triple in layers:
        plan, ref = tower._layer_plan(*triple), reference_layer_plan(*triple)
        assert plan == ref and list(plan[-1]) == list(ref[-1])  # the crossings in the same order too


def test_plans_extend_their_stage_prefix(monkeypatch):
    # each pair's plan extends its prefixes' plans, so the layer over the
    # arrow, which every pair starts from, is planned once
    pairs, plan, asked = family_pairs(), tower._layer_plan, collections.Counter()

    def layer_plan(*bases):
        asked[bases == (arrow_poset(),) * 3] += 1
        return plan(*bases)

    monkeypatch.setattr(tower, "_layer_plan", layer_plan)
    tower._empty_tables()
    for b1, b2 in pairs:
        compose_bordisms(b1, b2)
    assert len(pairs) == 3237 and asked == {True: 1, False: 399}


def test_layer_plan_refuses_a_related_pair_with_no_middle_and_unaligned_factors():
    discrete = FinPoset(["0", "1"], [("0", "0"), ("1", "1")])  # nothing of base2's over "0" lies below "1"
    for plan in (tower._layer_plan, reference_layer_plan):
        with pytest.raises(InternalError, match="empty factorization middle set between '0' and '1'"):
            plan(arrow_poset(), discrete, arrow_poset())
    with pytest.raises(InternalError, match="seam or prefix lengths disagree"):
        tower._layer_plan(arrow_poset(), point_poset(), arrow_poset())


def _depth1_trusses_and_bordisms(k: int, labels: FinPoset):
    """Every depth-1 truss over the point and bordism with fibers <= k, with
    every monotone labelling in labels (read as a thin category)."""
    cat = LabelCategory.from_poset(labels)

    def labelings(top):
        return [Labeling(top, cat, at, {c: paths[c] for c in top.covers()}) for at, paths in functors(top, cat)]

    return depth1_family(point_poset(), k, labelings), depth1_family(arrow_poset(), k, labelings)


@pytest.mark.parametrize("k, labels, sizes", [
    (1, FinPoset(["0", "1"], [("0", "0"), ("0", "1"), ("1", "1")]), (7, 73, 692)),
    (2, FinPoset(["*"], [("*", "*")]), (3, 31, 393)),
])
def test_truss_category_closes_alike_cold_and_warm(k, labels, sizes):
    # every depth-1 bordism between the trusses: the closure adds no morphism
    objects, bordisms = _depth1_trusses_and_bordisms(k, labels)
    assert len(bordisms) == sizes[1]

    def closed():
        cat = truss_label_category(objects, bordisms)
        index = {m: i for i, m in enumerate(cat.morphisms)}
        table = {(index[f], index[g]): index[h] for (f, g), h in cat.compose.items()}
        return (len(cat.objects), len(cat.morphisms), len(table)), [dumps(m) for m in cat.morphisms], table

    tower._empty_tables()
    cold = closed()
    assert cold[0] == sizes
    assert closed() == cold


def test_truss_category_hom_reads_the_index_as_the_filter_does():
    objects, bordisms = _depth1_trusses_and_bordisms(1, FinPoset(["0", "1"], [("0", "0"), ("0", "1"), ("1", "1")]))
    cat = truss_label_category(objects, bordisms)
    assert (len(cat.objects), len(cat.morphisms)) == (7, 73)
    for a in cat.objects:
        for b in cat.objects:
            assert cat.hom(a, b) == tuple(m for m in cat.morphisms if cat.src[m] == a and cat.dst[m] == b)
    assert cat.hom(bordisms[0], cat.objects[0]) == () and cat.hom("zz", cat.objects[0]) == ()
    # the closure installs one instance per value, and the index names it
    assert all(cat._objects[o] is o for o in cat.objects) and all(cat._morphisms[m] is m for m in cat.morphisms)
    # built apart, from fresh composites: equal, and hashed alike
    tower._empty_tables()
    again = truss_label_category(objects, bordisms)
    assert again.identity[objects[0]] is not cat.identity[objects[0]]
    assert again == cat and hash(again) == hash(cat)


def test_composition_runs_no_functor_table(monkeypatch):
    pairs = composable_pairs()
    calls = []
    real = bundle.functor_table
    monkeypatch.setattr(bundle, "functor_table", lambda *args: calls.append(args) or real(*args))
    for b1, b2 in pairs:
        compose_bordisms(b1, b2)
        compose_bordisms_audited(b1, b2)
    assert calls == []
    bundle._PROVED.clear()  # an equal diagram lives in the memos
    DeltaDiagram(point_poset(), {POINT_ELEMENT: 1}, {})
    assert len(calls) == 1


def test_unpack_matches_reference():
    towers = [t for t in tower_family(0) if t.depth >= 1]
    for t in towers:
        p = pack(t)
        assert dumps(unpack(p)) == dumps(reference_unpack(p))
    assert len(towers) == 465


def _null_category(objects, generators, zero):
    """One object, an identity, and every composite of two non-identity
    morphisms equal to ``zero``."""
    (obj,) = objects
    ident = identity_bordism(obj)
    morphisms = [ident] + list(generators) + [zero]
    compose = {}
    for f in morphisms:
        for g in morphisms:
            compose[(f, g)] = g if f == ident else f if g == ident else zero
    return LabelCategory(
        objects=[obj],
        morphisms=morphisms,
        src={m: obj for m in morphisms},
        dst={m: obj for m in morphisms},
        identity={obj: ident},
        compose=compose,
    )


def test_unpack_rejects_fibers_that_do_not_assemble():
    # over the square a < b < d, a < c < d, four cover bordisms between
    # constant [2] fibers whose maps compose differently along the two
    # routes; the hand-built category composes both routes to one morphism
    term = LabelCategory.terminal()
    square = FinPoset.from_covers(["a", "b", "c", "d"], [("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")])
    fiber = constant_inclusion([2], "*", term)
    maps = {
        ("a", "b"): (0, 0, 0), ("b", "d"): (1, 1, 1),
        ("a", "c"): (0, 0, 1), ("c", "d"): (2, 2, 2),
    }
    gens = {cov: constant_inclusion([DeltaMap(2, 2, v)], "*<=*", term) for cov, v in maps.items()}
    assert compose_delta(DeltaMap(2, 2, maps[("a", "b")]), DeltaMap(2, 2, maps[("b", "d")])) != \
        compose_delta(DeltaMap(2, 2, maps[("a", "c")]), DeltaMap(2, 2, maps[("c", "d")]))
    zero = constant_inclusion([DeltaMap(2, 2, (0, 1, 1))], "*<=*", term)
    cat = _null_category([fiber], gens.values(), zero)
    lab = Labeling(square, cat, {x: fiber for x in square.elements}, gens)
    with pytest.raises(PackingError, match="fiber labels do not assemble into a bundle") as info:
        unpack(PackedTower(TrussTower(square, (), lab)))
    assert isinstance(info.value.__cause__, DiagramError)


def test_truss_label_category_rejects_non_bordism_generator(chain_cat):
    # a truss over the point offered as a generator has no ends to compare
    fiber = constant_inclusion([1], "a", chain_cat)
    with pytest.raises(PackingError, match="a generator is not a bordism"):
        truss_label_category([fiber], [fiber])


def test_derived_suite_rebuilds_every_pulled_back_layer():
    # pullbacks inherit their path tables; the suite re-proves each layer
    report = SUITES["derived"](max_ordinal=None, seed=None)
    assert report.is_ok, report.to_text()
    counts = report.counts
    assert counts["sources"] == 756
    assert counts["layers"] > counts["derived"] > counts["sources"]


# -- pack makes each distinct truss once, across calls ----------------------


def test_pack_pulls_back_once_per_distinct_label(monkeypatch):
    calls, mine = [], []
    real, table = tower._pullback, tower.functor_table
    monkeypatch.setattr(tower, "_pullback",
                        lambda t, root, image, ends=None: calls.append(root) or real(t, root, image, ends))
    # pack's own pullbacks are those of its last stage with t's labels, all
    # made before it builds its labels' path table; the table's identities
    # may pull back a fiber that is pack's own top, one interned instance
    monkeypatch.setattr(tower, "functor_table", lambda *args: mine.extend(calls) or table(*args))
    towers = [t for t in tower_family(0, 2) if t.depth >= 1]
    tower._empty_tables()
    made, labels = 0, []
    for t in towers:
        calls.clear()
        mine.clear()
        lab = pack(t).tower.labels
        fibers, gens = list(lab.on_objects.values()), list(lab.on_relations.values())
        # at most one pullback per distinct label in each call
        assert sum(root == point_poset() for root in mine) <= len(set(fibers))
        assert sum(root == arrow_poset() for root in mine) <= len(set(gens))
        made += len(mine)
        labels += fibers + gens
    # one pullback per distinct (label category, content key) over the
    # family: a piece's value fixes both, and both fix it
    distinct = set(labels)
    assert len(towers) == 465 and made == len(distinct) < len(labels)
    # equal labels are one instance across calls, not only within one
    assert len({id(x) for x in labels}) == len(distinct)


def test_pack_installs_towers_only_over_the_point_or_the_arrow(monkeypatch):
    # pack's pieces, their identities and composites, and the ends it
    # restricts; no tower over the last stage's base is installed and dropped
    towers, roots = [t for t in tower_family(0, 2) if t.depth >= 1], []
    real = TrussTower.__dict__["_trusted"].__func__

    def install(cls, base, layers, ends=None):
        roots.append(base)
        return real(cls, base, layers, ends)

    monkeypatch.setattr(TrussTower, "_trusted", classmethod(install))
    tower._empty_tables()
    for t in towers:
        pack(t)
    assert any(t.depth == 2 for t in towers) and roots
    assert all(root == point_poset() or root == arrow_poset() for root in roots)


def test_pack_shares_no_piece_across_label_categories():
    # suite_pack's Z/2 relabelling, and the family tower with every label
    # the identity in the trivial group and in Z/2, whose content keys agree
    t = [t for t in tower_family(0, 2) if t.depth >= 1][100]
    z2 = _z2_relabelled(t, random.Random(0))
    trivial = LabelCategory(["*"], ["1"], {"1": "*"}, {"1": "*"}, {"*": "1"}, {("1", "1"): "1"})
    plain = [TrussTower(t.base, t.stages, Labeling(t.top, cat, dict.fromkeys(t.top.elements, "*"),
                                                   dict.fromkeys(t.top.covers(), "1")))
             for cat in (trivial, z2.labels.target)]
    tower._empty_tables()
    for u in [t, z2] + plain + [t, z2] + plain[::-1]:
        lab = pack(u).tower.labels
        for x in list(lab.on_objects.values()) + list(lab.on_relations.values()):
            assert x.labels.target == u.labels.target


def test_unpack_of_pack_restricts_no_bordism(monkeypatch):
    # pack's generators, identities and their composites record their ends
    calls = []
    real = tower.restrict_bordism
    monkeypatch.setattr(tower, "restrict_bordism", lambda b, end: calls.append(end) or real(b, end))
    tower._composite.cache_clear()
    tower.identity_bordism.cache_clear()
    packed = [pack(t) for t in tower_family(0, 2) if t.depth >= 1]
    assert calls == []
    for p in packed:
        unpack(p)
    assert calls == []


def test_parsed_packed_labels_are_the_category_instances():
    towers = [t for t in tower_family(0, 2) if t.depth >= 2][::20]
    checked = 0
    for t in towers:
        p = pack(t)
        q = parse(dumps(p))
        lab, cat = q.tower.labels, q.tower.labels.target
        # the parser labels in the truss category pack labels in, checked
        assert cat == p.tower.labels.target == truss_category(t.labels.target)
        assert all(x in cat.identity for x in lab.on_objects.values())
        assert all(g in cat.src and g in cat.dst for g in lab.on_relations.values())
        assert q == p and dumps(q) == dumps(p) and unpack(q) == t
        checked += len(lab.on_relations)
    assert checked > 0


# -- one trusted install for every tower the library builds ------------------


def test_trusted_builders_match_the_checking_constructor(chain_cat):
    # pullbacks (restrictions, identities, pack's labels), composites and
    # constants give the class and the bytes of TrussTower(...)/Bordism(...)
    b = constant_inclusion([DeltaMap(1, 2, (0, 2))], "a<=b", chain_cat)
    built = [constant_inclusion([1, 2], "a", chain_cat), b, restrict_bordism(b, 0), restrict_bordism(b, 1)]
    built += [pullback_tower(b, PosetMap(arrow_poset(), arrow_poset(), {"0": "0", "1": "0"}))]
    built += [h for pair in composable_pairs()[::5] for h in pair + (compose_bordisms(*pair),)]
    for t in [t for t in tower_family(0, 1) if t.depth >= 1][::9]:
        p = pack(t)
        lab = p.tower.labels
        closed = truss_label_category(lab.on_objects.values(), lab.on_relations.values())
        built += [identity_bordism(t), *lab.on_objects.values(), *lab.on_relations.values(), *closed.morphisms]
        # the packed tower itself, labelled in a truss category, prints as packed/v1
        checked = TrussTower(p.tower.base, p.tower.stages, lab)
        assert type(p.tower) is type(checked) and dumps(PackedTower(checked)) == dumps(p)
    for u in built:
        checked = (Bordism if u.base == arrow_poset() else TrussTower)(u.base, u.stages, u.labels)
        assert type(u) is type(checked) and dumps(u) == dumps(checked)
    assert {type(u) for u in built} == {TrussTower, Bordism}


_MUTATORS = {"clear", "pop", "popitem", "setdefault", "update"}


def _writes_ends(node) -> bool:
    """Whether node writes a tower's ``_ends``: assigns or deletes the
    attribute or an entry of it, calls a mutating method on it, or names it
    in setattr/delattr or a ``__dict__`` subscript."""
    def is_ends(n):
        return isinstance(n, ast.Attribute) and n.attr == "_ends"

    if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
        return node.attr == "_ends"
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
        return is_ends(node.value) or (isinstance(node.slice, ast.Constant) and node.slice.value == "_ends")
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in _MUTATORS:
        return is_ends(node.func.value)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("setattr", "delattr"):
        return len(node.args) > 1 and isinstance(node.args[1], ast.Constant) and node.args[1].value == "_ends"
    return False


def _ends_writes(source: str) -> list:
    """(line, enclosing class names) of every write to ``_ends`` in source."""
    found = []

    def walk(node, classes):
        if isinstance(node, ast.ClassDef):
            classes = classes + (node.name,)
        if _writes_ends(node):
            found.append((node.lineno, classes))
        for child in ast.iter_child_nodes(node):
            walk(child, classes)

    walk(ast.parse(source), ())
    return found


def test_no_module_writes_ends_outside_truss_tower():
    assert [line for line, _ in _ends_writes(
        "b._ends = {}\nb._ends[0] = t\ndel b._ends[1]\nb._ends.update(e)\nsetattr(b, '_ends', {})\n"
        "vars(b)['_ends'] = {}\nb._ends.get(0)\nx = b._ends\n"
    )] == [1, 2, 3, 4, 5, 6]
    package = Path(tower.__file__).parent
    inside, outside = [], []
    for path in sorted(package.glob("*.py")):
        for line, classes in _ends_writes(path.read_text()):
            mine = path.name == "tower.py" and classes == ("TrussTower",)
            (inside if mine else outside).append(f"{path.name}:{line}")
    assert outside == []
    assert len(inside) >= 3  # _install starts the ends, _trusted merges the recorded ones, end() its memo


# -- built towers are interned --------------------------------------------------


def test_trusted_routes_to_an_equal_tower_share_its_live_instance(chain_cat):
    tower._BUILT.clear()  # no equal tower another test keeps alive is found
    bordism = constant_inclusion([DeltaMap.identity(1), DeltaMap.identity(2)], "a<=a", chain_cat)
    t = constant_inclusion([1, 2], "a", chain_cat)
    assert restrict_bordism(bordism, 0) is t and restrict_bordism(bordism, 1) is t
    assert TrussTower(t.base, t.stages, t.labels) is not t  # checked, so never interned
    printed, first = dumps(t), weakref.ref(t)
    del t
    gc.collect()
    assert first() is None
    again = restrict_bordism(bordism, 0)
    assert dumps(again) == printed and restrict_bordism(bordism, 1) is again
    # the identity bordism is the constant bordism, with the ends it records
    assert identity_bordism(again) is bordism and bordism.end(0) is again and bordism.end(1) is again


@pytest.mark.parametrize("reverse, between, warmed", [
    (False, None, False),
    (True, None, False),
    (False, lambda: tower._BUILT.clear(), False),
    (False, lambda: tower._empty_tables(), False),
    (False, None, True),
], ids=["in order", "in reverse", "table emptied between packs", "every table emptied between packs",
        "memo warmed in reverse"])
def test_pack_prints_alike_whatever_the_intern_table_holds(reverse, between, warmed):
    towers = [t for t in tower_family(0, 2) if t.depth >= 1]
    tower._empty_tables()
    if warmed:  # pack's memo then holds pieces a reverse pass made
        for t in reversed(towers):
            pack(t)
        assert tower._PACKED
    printed = {}
    for i in sorted(range(len(towers)), reverse=reverse):
        if between:
            between()
        printed[i] = dumps(pack(towers[i]))
    digest = hashlib.sha256("".join(printed[i] for i in range(len(towers))).encode()).hexdigest()
    assert digest[:12] == "1ff865e59377"


# -- pack shares composites and identities across calls ----------------------


def test_pack_composes_each_distinct_pair_once(monkeypatch):
    memo = tower._composite
    printed, pairs, operands = {}, set(), []

    def spelled(b):
        # printed keeps each operand alive, so no id is reused
        return printed.setdefault(id(b), (b, dumps(b)))[1]

    def composite(b1, b2):
        pairs.add((spelled(b1), spelled(b2)))
        operands.append((b1, b2))
        return memo(b1, b2)

    monkeypatch.setattr(tower, "_composite", composite)
    memo.cache_clear()
    towers = [t for t in tower_family(0, 2) if t.depth >= 1]
    labels, composed = [], {}
    for t in towers:
        labels.append(pack(t).tower.labels)
        composed[t.depth] = composed.get(t.depth, 0) + len(operands)
        operands.clear()
    info = memo.cache_info()
    assert len(towers) == 465
    # pack composes only along a relation of its domain that is no cover: a
    # zigzag, the domain at depth 1 or 2 over the point, has none
    assert composed == {1: 0, 2: 0, 3: 8} and info.misses == len(pairs) == 8 and info.hits == 0
    memo.cache_clear()
    pairs.clear()
    for lab in labels:
        truss_label_category(lab.on_objects.values(), lab.on_relations.values())
    info = memo.cache_info()
    # the explicit closures enter their unit laws uncomposed, so no identity reaches _composite
    assert info.misses == len(pairs) == 81 and info.hits == 23
    assert not any(b == identity_bordism(b.end(0)) for pair in operands for b in pair)


def test_packed_pieces_past_the_bound_evict_the_oldest_first():
    t = next(t for t in tower_family(0, 2) if t.depth >= 1 and t.stages[-1].base.covers())
    tower._empty_tables()
    printed = dumps(pack(t))
    made = len(tower._PACKED)
    dummies = [("dummy", k) for k in range(2048)]
    try:
        tower._empty_tables()
        tower._PACKED.update((key, object()) for key in dummies)
        assert dumps(pack(t)) == printed
        assert len(tower._PACKED) == 2048 and dummies[0] not in tower._PACKED
        assert list(tower._PACKED)[:2048 - made] == dummies[made:]
    finally:
        tower._empty_tables()


# a directory no test makes, so a path in it cannot be written
_MISSING_DIRECTORY = Path(__file__).parent / "no-such-directory"


def _refusal_operands():
    """A bordism, one of its stage diagrams and a monotone map into that
    diagram's base, the well-typed operands beside each wrong one."""
    b = bordism_family(0)[0]
    return b, b.stages[0], PosetMap(point_poset(), arrow_poset(), {POINT_ELEMENT: "0"})


def _packed_over(base: FinPoset, fibers: dict) -> PackedTower:
    """A tower over base, each element labelled by its fiber truss and each
    cover by the identity at its source, in a bare category on the fibers
    that holds no bordism."""
    name = {t: str(i) for i, t in enumerate(dict.fromkeys(fibers.values()))}
    truss_of = {n: t for t, n in name.items()}
    cat = LabelCategory(list(name), list(truss_of), truss_of, truss_of, name, {(n, n): n for n in truss_of})
    labels = Labeling(base, cat, fibers, {(x, y): name[fibers[x]] for x, y in base.covers()})
    return PackedTower(TrussTower(base, (), labels))


def _over_empty_base(cat: LabelCategory) -> TrussTower:
    """A depth-1 tower over the empty poset, labelled in cat; towers in two
    categories differ, but nothing over the empty base records which."""
    d = DeltaDiagram(FinPoset([], []), {}, {})
    return TrussTower(d.base, (d,), Labeling(total_space(d).carrier, cat, {}, {}))


DISCRETE = FinPoset(["x", "y"], [("x", "x"), ("y", "y")])
BUNDLE_GUARD = "pullback_bundle needs a DeltaDiagram and a PosetMap"
TOWER_GUARD = "pullback_tower needs a TrussTower and a PosetMap"
UNPACK_GUARD = "unpack needs a PackedTower holding a TrussTower"
CATEGORY_GUARD = "the objects and the generators must be sequences of TrussTowers"


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda b, d, f: pullback_bundle(d, 5), DomainError, BUNDLE_GUARD, id="pullback_bundle(d, 5)"),
    pytest.param(lambda b, d, f: pullback_bundle(5, f), DomainError, BUNDLE_GUARD, id="pullback_bundle(5, f)"),
    pytest.param(lambda b, d, f: pullback_tower(b, 5), DomainError, TOWER_GUARD, id="pullback_tower(t, 5)"),
    pytest.param(lambda b, d, f: restrict_bordism(5, 0), DomainError, TOWER_GUARD, id="restrict_bordism(5, 0)"),
    pytest.param(lambda b, d, f: restrict_bordism(b, 2), DomainError, "end must be 0 or 1",
                 id="restrict_bordism(b, 2)"),
    pytest.param(lambda b, d, f: compose_bordisms(b, constant_inclusion([d.arrow[("0", "1")]] * 2, "a<=a",
                                                                          b.labels.target)),
                 CompositionError, "bordisms of different depth do not compose", id="compose_bordisms(b, depth 2)"),
    pytest.param(lambda b, d, f: identity_bordism(5), DomainError, "identity bordisms are formed on towers over",
                 id="identity_bordism(5)"),
    pytest.param(lambda b, d, f: identity_bordism([]), DomainError, "identity bordisms are formed on towers over",
                 id="identity_bordism([])"),
    pytest.param(lambda b, d, f: compose_bordisms(5, b), CompositionError, "both arguments must be bordisms",
                 id="compose_bordisms(5, b)"),
    pytest.param(lambda b, d, f: compose_bordisms([], b), CompositionError, "both arguments must be bordisms",
                 id="compose_bordisms([], b)"),
    pytest.param(lambda b, d, f: compose_bordisms([], []), CompositionError, "both arguments must be bordisms",
                 id="compose_bordisms([], [])"),
    pytest.param(lambda b, d, f: compose_bordisms_audited(b, []), CompositionError,
                 "both arguments must be bordisms", id="compose_bordisms_audited(b, [])"),
    pytest.param(lambda b, d, f: compose_bordisms_audited(b, 5), CompositionError, "both arguments must be bordisms",
                 id="compose_bordisms_audited(b, 5)"),
    pytest.param(lambda b, d, f: TrussTower(5, (), 5), DomainError, "a tower's base must be a FinPoset",
                 id="TrussTower(5, (), 5)"),
    pytest.param(lambda b, d, f: TrussTower(point_poset(), 5, b.labels), DomainError,
                 "a tower's stages must be a sequence of DeltaDiagrams", id="TrussTower(pt, 5, lab)"),
    pytest.param(lambda b, d, f: TrussTower(point_poset(), [5], b.labels), DomainError,
                 "stage 1 is not a DeltaDiagram", id="TrussTower(pt, [5], lab)"),
    pytest.param(lambda b, d, f: TrussTower(point_poset(), (), 5), DomainError,
                 "labels must be a functor on the topmost total space", id="TrussTower(pt, (), 5)"),
    pytest.param(lambda b, d, f: Bordism(5, (), 5), DomainError, "a bordism's root base must be the arrow poset",
                 id="Bordism(5, (), 5)"),
    pytest.param(lambda b, d, f: Bordism(arrow_poset(), 5, b.labels), DomainError,
                 "a tower's stages must be a sequence of DeltaDiagrams", id="Bordism(arrow, 5, lab)"),
    pytest.param(lambda b, d, f: Bordism(arrow_poset(), [5], b.labels), DomainError,
                 "stage 1 is not a DeltaDiagram", id="Bordism(arrow, [5], lab)"),
    pytest.param(lambda b, d, f: constant_inclusion(5, "a", b.labels.target), DomainError,
                 "data must be all ordinals or all maps", id="constant_inclusion(5, 'a', cat)"),
    pytest.param(lambda b, d, f: constant_inclusion([1], "*", 5), DomainError,
                 "constant_inclusion needs a category, got int", id="constant_inclusion([1], '*', 5)"),
    pytest.param(lambda b, d, f: constant_inclusion([1], [], b.labels.target), DomainError,
                 "[] is not an object of the label category", id="constant_inclusion([1], [], cat)"),
    pytest.param(lambda b, d, f: constant_inclusion([], {}, b.labels.target), DomainError,
                 "{} is neither an object nor a morphism", id="constant_inclusion([], {}, cat)"),
    pytest.param(lambda b, d, f: constant_inclusion([d.arrow[("0", "1")]], "a", b.labels.target), DomainError,
                 "'a' is not a morphism of the label category", id="constant_inclusion([map], 'a', cat)"),
    pytest.param(lambda b, d, f: truss_label_category(5, []), PackingError, CATEGORY_GUARD,
                 id="truss_label_category(5, [])"),
    pytest.param(lambda b, d, f: truss_label_category([], 5), PackingError, CATEGORY_GUARD,
                 id="truss_label_category([], 5)"),
    pytest.param(lambda b, d, f: truss_label_category([], [5]), PackingError, CATEGORY_GUARD,
                 id="truss_label_category([], [5])"),
    pytest.param(lambda b, d, f: truss_label_category([[]], []), PackingError, CATEGORY_GUARD,
                 id="truss_label_category([[]], [])"),
    pytest.param(lambda b, d, f: truss_label_category([b], []), PackingError,
                 "an object is not a tower over the point", id="truss_label_category([bordism], [])"),
    pytest.param(lambda b, d, f: pack(5), PackingError, "pack needs a tower", id="pack(5)"),
    pytest.param(lambda b, d, f: unpack(5), PackingError, UNPACK_GUARD, id="unpack(5)"),
    pytest.param(lambda b, d, f: unpack(PackedTower(5)), PackingError, UNPACK_GUARD, id="unpack(PackedTower(5))"),
    pytest.param(lambda b, d, f: unpack(_packed_over(FinPoset([], []), {})), PackingError,
                 "cannot unpack over an empty base", id="unpack(empty base)"),
    pytest.param(lambda b, d, f: pack(_over_empty_base(LabelCategory.terminal())), PackingError,
                 "cannot pack over an empty base", id="pack(empty base)"),
    pytest.param(lambda b, d, f: unpack(_packed_over(DISCRETE, {"x": b.end(0), "y": constant_inclusion(
                     [0], "*", LabelCategory.terminal())})),
                 PackingError, "fiber trusses are labelled in different categories", id="unpack(mixed categories)"),
    pytest.param(lambda b, d, f: unpack(_packed_over(arrow_poset(), {"0": b.end(0), "1": b.end(0)})), PackingError,
                 "label of cover ('0', '1') is not a depth-1 bordism", id="unpack(cover label no bordism)"),
    pytest.param(lambda b, d, f: classify(5), DomainError, "classify needs a TotalPoset, got int", id="classify(5)"),
    pytest.param(lambda b, d, f: classify(TotalPoset(5, point_poset())), DomainError,
                 "a total space's carrier must be a FinPoset, got int", id="classify(TotalPoset(5, pt))"),
    pytest.param(lambda b, d, f: classify(TotalPoset(point_poset(), 5)), DomainError,
                 "a total space's base must be a FinPoset, got int", id="classify(TotalPoset(pt, 5))"),
    pytest.param(lambda b, d, f: total_space(5), DomainError, "total_space needs a DeltaDiagram, got int",
                 id="total_space(5)"),
    pytest.param(lambda b, d, f: total_space([]), DomainError, "total_space needs a DeltaDiagram, got list",
                 id="total_space([])"),
    pytest.param(lambda b, d, f: validate_stratum_map("x", Stratum.regular(0, 1), d.arrow[("0", "1")]), DomainError,
                 "validate_stratum_map needs two strata and a map, got 'x', Stratum(",
                 id="validate_stratum_map('x', r0@1, map)"),
    pytest.param(lambda b, d, f: DeltaDiagram(5, {}, {}), DomainError,
                 "a DeltaDiagram's base must be a FinPoset, got int", id="DeltaDiagram(5, {}, {})"),
    pytest.param(lambda b, d, f: Labeling(5, b.labels.target, {}, {}), DomainError,
                 "a Labeling's base must be a FinPoset, got int", id="Labeling(5, cat, {}, {})"),
    pytest.param(lambda b, d, f: Labeling(point_poset(), 5, {POINT_ELEMENT: "a"}, {}), LabelingError,
                 "a Labeling's target must be a category, got int", id="Labeling(pt, 5, ...)"),
    pytest.param(lambda b, d, f: Labeling(point_poset(), b.labels.target, {POINT_ELEMENT: "zz"}, {}), LabelingError,
                 "label 'zz' of 'pt' is not an object", id="Labeling(pt, cat, {pt: 'zz'}, {})"),
    pytest.param(lambda b, d, f: Labeling(arrow_poset(), b.labels.target, {"0": "a", "1": "b"}, {("0", "1"): "zz"}),
                 LabelingError, "label 'zz' of cover ('0', '1') is not a morphism",
                 id="Labeling(arrow, cat, ..., {cover: 'zz'})"),
    pytest.param(lambda b, d, f: FinPoset(["a", "a"], [("a", "a")]), DomainError, "duplicate poset elements",
                 id="FinPoset(['a', 'a'], ...)"),
    pytest.param(lambda b, d, f: PosetMap(point_poset(), arrow_poset(), {}), DomainError, "map undefined on 'pt'",
                 id="PosetMap(pt, arrow, {})"),
    pytest.param(lambda b, d, f: PosetMap(point_poset(), arrow_poset(), {POINT_ELEMENT: "zz"}), DomainError,
                 "image 'zz' of 'pt' is not in the target", id="PosetMap(pt, arrow, {pt: 'zz'})"),
    pytest.param(lambda b, d, f: NablaDiagram(point_poset(), {POINT_ELEMENT: Ordinal(0)}, {}), DiagramError,
                 "interval objects must be ordinals [n] with n >= 1", id="NablaDiagram over [0]"),
    pytest.param(lambda b, d, f: PLMeshBundle(point_poset(), {POINT_ELEMENT: 5}, {}), MeshError,
                 "heights over 'pt' are not a compactified 1-mesh", id="PLMeshBundle(pt, {pt: 5}, {})"),
    pytest.param(lambda b, d, f: b.end([]), DomainError, "end must be 0 or 1", id="bordism.end([])"),
    pytest.param(lambda b, d, f: section_to_strata(realize_bundle(d), 5), SectionError,
                 "a section maps base elements to strata, got int", id="section_to_strata(m, 5)"),
    pytest.param(lambda b, d, f: compose_delta([1], [2]), DomainError,
                 "compose_delta needs two maps, got list and list", id="compose_delta([1], [2])"),
    pytest.param(lambda b, d, f: compose_delta(5, 6), DomainError, "compose_delta needs two maps, got int and int",
                 id="compose_delta(5, 6)"),
    pytest.param(lambda b, d, f: compose_nabla([1], [2]), DomainError,
                 "compose_nabla needs two interval maps, got list and list", id="compose_nabla([1], [2])"),
    pytest.param(lambda b, d, f: dual_delta_to_nabla([1]), DomainError, "dual_delta_to_nabla needs a map, got list",
                 id="dual_delta_to_nabla([1])"),
    pytest.param(lambda b, d, f: dual_nabla_to_delta([1]), DomainError,
                 "dual_nabla_to_delta needs an interval map, got list", id="dual_nabla_to_delta([1])"),
    pytest.param(lambda b, d, f: fiber_over_ordinal([3]), DomainError,
                 "a fiber lies over an ordinal [n], n an int, got list", id="fiber_over_ordinal([3])"),
    pytest.param(lambda b, d, f: Stratum.parse(5), DomainError, "bad stratum literal 5", id="Stratum.parse(5)"),
    pytest.param(lambda b, d, f: FinPoset(5, []), DomainError,
                 "poset elements must be an iterable of hashables: 'int'", id="FinPoset(5, [])"),
    pytest.param(lambda b, d, f: FinPoset([[1]], []), DomainError,
                 "poset elements must be an iterable of hashables: unhashable type: 'list'", id="FinPoset([[1]], [])"),
    pytest.param(lambda b, d, f: FinPoset(["a"], [5]), DomainError,
                 "a poset's relation must be an iterable of pairs of hashables: cannot unpack non-iterable int",
                 id="FinPoset(['a'], [5])"),
    pytest.param(lambda b, d, f: FinPoset.from_covers(5, []), DomainError,
                 "poset elements must be an iterable of hashables: 'int'", id="FinPoset.from_covers(5, [])"),
    pytest.param(lambda b, d, f: PosetMap(5, 5, {}), DomainError, "a PosetMap runs between FinPosets, got int and int",
                 id="PosetMap(5, 5, {})"),
    pytest.param(lambda b, d, f: PosetMap.identity(5), DomainError,
                 "a PosetMap runs between FinPosets, got int and int", id="PosetMap.identity(5)"),
    pytest.param(lambda b, d, f: LabelCategory(5, [], {}, {}, {}, {}), DomainError,
                 "a LabelCategory takes iterables of hashables and four tables: 'int'",
                 id="LabelCategory(5, [], {}, {}, {}, {})"),
    pytest.param(lambda b, d, f: LabelCategory.from_poset(5), DomainError, "from_poset needs a FinPoset, got int",
                 id="LabelCategory.from_poset(5)"),
    pytest.param(lambda b, d, f: DeltaDiagram(point_poset(), 5, {}), DomainError,
                 "a DeltaDiagram's ord and arrow must be tables: 'int'", id="DeltaDiagram(pt, 5, {})"),
    pytest.param(lambda b, d, f: NablaDiagram(point_poset(), 5, {}), DomainError,
                 "a NablaDiagram's ord and arrow must be tables: 'int'", id="NablaDiagram(pt, 5, {})"),
    pytest.param(lambda b, d, f: PLMeshBundle(point_poset(), {}, 5), DomainError,
                 "a PLMeshBundle's heights and sing must be tables: 'int'", id="PLMeshBundle(pt, {}, 5)"),
    pytest.param(lambda b, d, f: Labeling(point_poset(), LabelCategory.terminal(), 5, {}), DomainError,
                 "a Labeling's object labels and relation labels must be tables: 'int'",
                 id="Labeling(pt, terminal, 5, {})"),
    pytest.param(lambda b, d, f: Labeling(point_poset(), LabelCategory.terminal(), {POINT_ELEMENT: ["*"]}, {}),
                 LabelingError, "label ['*'] of 'pt' is not an object", id="Labeling(pt, terminal, {pt: ['*']}, {})"),
    pytest.param(lambda b, d, f: forget_to_delta(5), DomainError, "forget_to_delta needs a stratum map, got int",
                 id="forget_to_delta(5)"),
    pytest.param(lambda b, d, f: scene_to_svg(5), LayoutError, "scene_to_svg needs a Scene, got int",
                 id="scene_to_svg(5)"),
    pytest.param(lambda b, d, f: parse(5), ParseError, "parse needs JSON text, got int", id="parse(5)"),
    pytest.param(lambda b, d, f: load(5), ParseError, "cannot read 5: ", id="load(5)"),
    pytest.param(lambda b, d, f: save(d, 5), DomainError, "cannot write 5: ", id="save(d, 5)"),
    pytest.param(lambda b, d, f: save(d, _MISSING_DIRECTORY / "d.json"), DomainError,
                 f"cannot write {_MISSING_DIRECTORY / 'd.json'}: ", id="save(d, missing-directory/d.json)"),
    pytest.param(lambda b, d, f: DeltaMap(5, 5, 5), DomainError, "a map's values must be a sequence, got int",
                 id="DeltaMap(5, 5, 5)"),
    pytest.param(lambda b, d, f: NablaMap(1, 1, 5), DomainError, "a map's values must be a sequence, got int",
                 id="NablaMap(1, 1, 5)"),
    pytest.param(lambda b, d, f: PosetMap(point_poset(), point_poset(), None), DomainError,
                 "a PosetMap's mapping must be a table, got NoneType", id="PosetMap(pt, pt, None)"),
    pytest.param(lambda b, d, f: PosetMap(point_poset(), point_poset(), "x"), DomainError,
                 "a PosetMap's mapping must be a table, got str", id="PosetMap(pt, pt, 'x')"),
    pytest.param(lambda b, d, f: PosetMap(point_poset(), point_poset(), {POINT_ELEMENT: [1]}), DomainError,
                 "image [1] of 'pt' is not in the target", id="PosetMap(pt, pt, {pt: [1]})"),
    pytest.param(lambda b, d, f: StratumMap([], Stratum.regular(0, 0), DeltaMap.identity(0)), DomainError,
                 "a StratumMap needs two strata and a map, got list, Stratum, DeltaMap", id="StratumMap([], s, f)"),
    pytest.param(lambda b, d, f: interpolated_heights(realize_bundle(d), [[1]], StratSimplexPoint((1,))),
                 DomainError, "chain vertices must be elements of the base", id="interpolated_heights(m, [[1]], p)"),
    pytest.param(lambda b, d, f: Labeling(arrow_poset(), b.labels.target, {"0": "a", "1": "b"}, {("0", "1"): ["a"]}),
                 LabelingError, "label ['a'] of cover ('0', '1') is not a morphism", id="Labeling(cover label ['a'])"),
    pytest.param(lambda b, d, f: Report("maybe"), DomainError, "unknown report status 'maybe'", id="Report('maybe')"),
])
def test_entry_points_refuse_a_wrong_type(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call(*_refusal_operands())
