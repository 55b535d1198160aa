"""Bundles over finite posets: construction, total space, classification."""

import gc
import itertools
import random
import re
import time

import pytest

from trusskit import (
    ClassificationError,
    DeltaDiagram,
    DeltaMap,
    DiagramError,
    DomainError,
    FinPoset,
    LabelCategory,
    Labeling,
    LabelingError,
    NablaDiagram,
    NablaMap,
    Ordinal,
    PosetMap,
    Stratum,
    TotalPoset,
    arrow_poset,
    classify,
    point_poset,
    pullback_bundle,
    total_space,
    validate_stratum_map,
)
from trusskit import bundle
from trusskit.bundle import CoverFunctor
from trusskit.oracles import (
    SUITES,
    _total_space_disagrees,
    all_diagrams,
    all_posets,
    audited,
    random_diagram,
    tower_family,
)
from trusskit.strata import fiber_objects, stratum_targets
from trusskit import tower
from trusskit.tower import root_of
from conftest import one_wrong_entry


def arrow_diagram(n, m, values):
    base = arrow_poset()
    return DeltaDiagram(
        base,
        {"0": Ordinal(n), "1": Ordinal(m)},
        {("0", "1"): DeltaMap(n, m, values)},
    )


def test_diagram_coverage_errors():
    base = arrow_poset()
    with pytest.raises(DiagramError):
        DeltaDiagram(base, {"0": Ordinal(1)}, {("0", "1"): DeltaMap.identity(1)})
    with pytest.raises(DiagramError):
        DeltaDiagram(base, {"0": Ordinal(1), "1": Ordinal(1)}, {})
    with pytest.raises(DiagramError):
        DeltaDiagram(
            base,
            {"0": Ordinal(1), "1": Ordinal(2)},
            {("0", "1"): DeltaMap.identity(1)},  # wrong endpoint shape
        )


@pytest.mark.parametrize("ords, arrow, message", [
    ({"0": 1}, {("0", "1"): DeltaMap.identity(1)}, "ord must assign exactly the base elements"),
    ({"0": 1, "1": 1, "2": 1}, {("0", "1"): DeltaMap.identity(1)}, "ord must assign exactly the base elements"),
    ({"0": 1, "2": 1}, {("0", "1"): DeltaMap.identity(1)}, "ord must assign exactly the base elements"),
    ({"0": 1, "1": 1}, {}, "(missing [('0', '1')], extra [])"),
    ({"0": 1, "1": 1}, {("1", "0"): DeltaMap.identity(1)}, "(missing [('0', '1')], extra [('1', '0')])"),
    ({"0": 1, "1": 1}, {("0", "1"): DeltaMap.identity(1), ("1", "0"): DeltaMap.identity(1)},
     "(missing [], extra [('1', '0')])"),
    ({"0": 1, "1": 1}, {("0", "1"): NablaMap(1, 1, (0, 1))},
     "map on cover ('0', '1') is [1]->[1]:[0, 1] (interval), expected [1]->[1]"),
    ({"0": 1, "1": 1}, {("0", "1"): 5}, "map on cover ('0', '1') is 5, expected [1]->[1]"),
], ids=["element missing", "element extra", "element renamed", "cover missing", "cover swapped", "cover extra",
        "interval map", "int"])
def test_an_assignment_off_the_base_is_refused_with_what_is_missing_and_extra(ords, arrow, message):
    if message.startswith("("):
        message = "arrow must assign exactly the covering relations " + message
    with pytest.raises(DiagramError, match=re.escape(message) + "$"):
        DeltaDiagram(arrow_poset(), ords, arrow)


def test_functoriality_no_diamond_counterexample():
    """Unequal-length Hasse paths with no commuting squares at all: a check
    that only inspects diamonds accepts any pair of conflicting composites
    here.  Construction must still fail."""
    base = FinPoset.from_covers(
        ["a", "x", "y", "z", "b"],
        [("a", "x"), ("x", "y"), ("y", "b"), ("a", "z"), ("z", "b")],
    )
    ords = {e: Ordinal(1) for e in base.elements}
    ident = DeltaMap.identity(1)
    collapse = DeltaMap(1, 1, (0, 0))
    arrows = {
        ("a", "x"): ident,
        ("x", "y"): ident,
        ("y", "b"): ident,
        ("a", "z"): ident,
        ("z", "b"): collapse,
    }
    with pytest.raises(DiagramError):
        DeltaDiagram(base, ords, arrows)
    # the agreeing assignment passes and exposes composite maps
    arrows[("z", "b")] = ident
    d = DeltaDiagram(base, ords, arrows)
    assert d.map_for("a", "b") == ident


def test_map_for_identity_and_composites():
    d = arrow_diagram(1, 2, (0, 2))
    assert d.map_for("0", "0") == DeltaMap.identity(1)
    assert d.map_for("0", "1") == DeltaMap(1, 2, (0, 2))
    with pytest.raises(DomainError):
        d.map_for("1", "0")


def test_total_space_of_point_is_fiber():
    d = DeltaDiagram(point_poset(), {"pt": Ordinal(2)}, {})
    t = total_space(d)
    assert len(t.carrier.elements) == 5
    assert [e for e in t.carrier.elements if root_of(e) == "pt"] == list(t.carrier.elements)
    assert [e for _, e in t.carrier.elements] == list(fiber_objects(2))


def test_total_space_cross_relations_match_hom_clauses():
    d = arrow_diagram(1, 2, (0, 2))
    t = total_space(d)
    s0 = ("0", Stratum.singular(0, 1))
    assert t.carrier.le(s0, ("1", Stratum.singular(0, 2)))
    assert t.carrier.le(s0, ("1", Stratum.singular(1, 2)))
    assert t.carrier.le(s0, ("1", Stratum.regular(1, 2)))
    assert not t.carrier.le(("0", Stratum.regular(0, 1)), ("1", Stratum.regular(1, 2)))


def test_classify_roundtrip_samples():
    import random

    for base in (point_poset(), arrow_poset()):
        for d in all_diagrams(base, max_ordinal=2):
            assert classify(total_space(d)) == d
    rng = random.Random(7)
    chain = FinPoset.from_covers(["a", "b", "c"], [("a", "b"), ("b", "c")])
    for _ in range(10):
        d = random_diagram(chain, 3, rng)
        assert classify(total_space(d)) == d


def test_classify_rejects_non_bundle():
    el = ("pt", Stratum.regular(0, 1))
    p = FinPoset([el], [(el, el)])
    from trusskit import TotalPoset

    with pytest.raises(ClassificationError):
        classify(TotalPoset(p, point_poset()))
    # elements that are not (base element, stratum) pairs, over the base {a}
    base = FinPoset(["a"], [("a", "a")])
    for el in ("abc", ("a",), ("a", 1, 2)):
        with pytest.raises(ClassificationError, match="is not a \\(base element, stratum\\) pair"):
            classify(TotalPoset(FinPoset([el], [(el, el)]), base))


def spelled_on_covers(base, ords, arrows):
    """The poset on base-and-fiber pairs generated by the fibers' zigzags and,
    over each cover (a, b), (a, e) <= (b, e2) for e2 in stratum_targets(e, f):
    a total space when the arrows are a functor, closed here either way."""
    elements = [(b, e) for b in base.elements for e in fiber_objects(ords[b])]
    gen = [((b, s), (b, r)) for b in base.elements for s in fiber_objects(ords[b]) if not s.is_regular
           for r in fiber_objects(ords[b])[s.index:s.index + 2]]
    gen += [((a, e), (b, e2)) for (a, b), f in arrows.items()
            for e in fiber_objects(ords[a]) for e2 in stratum_targets(e, f)]
    return FinPoset.from_covers(elements, gen)


def discrete(*els):
    return FinPoset(els, [(e, e) for e in els])


def refusal_not_a_pair():
    return TotalPoset(discrete("abc"), discrete("a"))


def refusal_no_regular():
    return TotalPoset(discrete(("a", Stratum.singular(0, 1))), discrete("a"))


def refusal_not_the_zigzag():
    return TotalPoset(discrete(("a", Stratum.regular(0, 1))), discrete("a"))


def refusal_images(*targets):
    """[0] over "0" and [1] over "1" of the arrow, the regular over "0"
    below the regulars r_j over "1" for j in targets."""
    base = arrow_poset()
    fibers = {"0": fiber_objects(0), "1": fiber_objects(1)}
    leq = [(x, x) for b in base.elements for x in ((b, e) for e in fibers[b])]
    leq += [(("1", fibers["1"][2]), ("1", r)) for r in fibers["1"][:2]]
    leq += [(("0", fibers["0"][0]), ("1", fibers["1"][j])) for j in targets]
    return TotalPoset(FinPoset([x for x, y in leq if x == y], leq), base)


def refusal_not_functorial():
    base = FinPoset.from_covers(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    ident = DeltaMap.identity(1)
    arrows = {("a", "b"): ident, ("a", "c"): ident, ("b", "d"): ident, ("c", "d"): DeltaMap(1, 1, (0, 0))}
    return TotalPoset(spelled_on_covers(base, {e: 1 for e in base.elements}, arrows), base)


def refusal_not_the_total_space():
    # the arrow's total space over the discrete poset on the arrow's elements
    return TotalPoset(total_space(arrow_diagram(1, 1, (0, 1))).carrier, discrete("0", "1"))


R00 = Stratum.regular(0, 0)


def refusal_head_not_a_pair():
    # the fiber over "a" is the zigzag over [0]; the run over "b" opens with a triple
    return TotalPoset(discrete(("a", R00), ("b", R00, "x")), discrete("a", "b"))


def refusal_cut_short():
    # r0@1 opens a run of three positions; the carrier ends after two
    return TotalPoset(discrete(("a", Stratum.regular(0, 1)), ("a", Stratum.regular(1, 1))), discrete("a"))


def refusal_stray_pair():
    # a pair over "b", which is not a base element, sorts between the fibers over "a" and "c"
    return TotalPoset(discrete(("a", R00), ("b", R00), ("c", R00)), discrete("a", "c"))


def refusal_huge_head():
    # the one element names the first of 2 * 10**12 + 1 positions
    return TotalPoset(discrete(("a", Stratum.regular(0, 10**12))), discrete("a"))


def refusal_not_the_layout():
    # three positions, as many as the zigzag over [1], but s0@2 where that has s0@1
    return TotalPoset(discrete(*(("a", e) for e in fiber_objects(1)[:2]), ("a", Stratum.singular(0, 2))),
                      discrete("a"))


def refusal_crossed_regulars():
    # the total space of a diagram installed over the arrow with the map (1, 0), rebuilt through the
    # checking constructor: a valid poset, whose recovered map (1, 0) is not weakly increasing
    good = arrow_diagram(1, 1, (0, 1))
    crossed = DeltaDiagram._trusted(good._key[:-1],
                                    {**good._paths, ("0", "1"): DeltaMap._trusted(Ordinal(1), Ordinal(1), (1, 0))})
    carrier = total_space(crossed).carrier
    els, ups = carrier.elements, carrier.ups
    return TotalPoset(FinPoset(els, [(x, els[j]) for x, up in zip(els, ups) for j in range(len(els)) if up >> j & 1]),
                      arrow_poset())


def refusal_image_after_crossed_regulars():
    # over x < y, x < z: the crossed map (1, 0) on the earlier cover (x, y), and r0 over x stripped of its
    # relation to the fiber over z, so the later cover (x, z) gives position 0 over x no image
    base = FinPoset.from_covers("xyz", [("x", "y"), ("x", "z")])
    good = DeltaDiagram(base, {e: Ordinal(1) for e in "xyz"},
                        {("x", "y"): DeltaMap.identity(1), ("x", "z"): DeltaMap.identity(1)})
    crossed = DeltaDiagram._trusted(good._key[:-1],
                                    {**good._paths, ("x", "y"): DeltaMap._trusted(Ordinal(1), Ordinal(1), (1, 0))})
    carrier = total_space(crossed).carrier
    els, ups, r0 = carrier.elements, carrier.ups, ("x", Stratum.regular(0, 1))
    return TotalPoset(FinPoset(els, [(x, els[j]) for x, up in zip(els, ups) for j in range(len(els))
                                     if up >> j & 1 and not (x == r0 and els[j][0] == "z")]), base)


@pytest.mark.parametrize("make, message", [
    pytest.param(refusal_not_a_pair, "element 'abc' is not a (base element, stratum) pair", id="not-a-pair"),
    pytest.param(refusal_no_regular, "fiber over 'a' has no regular position", id="no-regular"),
    pytest.param(refusal_not_the_zigzag, "fiber over 'a' is not the zigzag over [0]", id="not-the-zigzag"),
    pytest.param(refusal_images, "regular position 0 over '0' has 0 images over '1'",
                 id="no-image"),
    pytest.param(lambda: refusal_images(0, 1), "regular position 0 over '0' has 2 images over '1'",
                 id="two-images"),
    pytest.param(refusal_not_functorial, "recovered data is not a bundle: composites from 'a' to 'd'"
                 " disagree through 'b' and 'c'", id="not-a-bundle"),
    pytest.param(refusal_not_the_total_space, "poset is not the total space of the recovered bundle",
                 id="not-the-total-space"),
    pytest.param(refusal_head_not_a_pair, f"element {('b', R00, 'x')!r} is not a (base element, stratum) pair",
                 id="run-head-not-a-pair"),
    pytest.param(refusal_cut_short, "fiber over 'a' is not the zigzag over [1]", id="fiber-cut-short"),
    pytest.param(refusal_stray_pair, "poset is not the total space of the recovered bundle", id="stray-pair"),
    pytest.param(refusal_huge_head, "fiber over 'a' is not the zigzag over [0]", id="huge-run-head"),
    pytest.param(refusal_not_the_layout, "fiber over 'a' is not the zigzag over [1]", id="not-the-layout"),
    pytest.param(refusal_crossed_regulars, "recovered data is not a bundle: values (1, 0) are not weakly increasing",
                 id="crossed-regulars"),
    pytest.param(refusal_image_after_crossed_regulars, "regular position 0 over 'x' has 0 images over 'z'",
                 id="image-after-crossed-regulars"),
])
def test_classify_refusals(make, message):
    with pytest.raises(ClassificationError, match="^" + re.escape(message) + "$"):
        classify(make())


@pytest.mark.parametrize("make, laid", [
    (refusal_head_not_a_pair, False),
    (refusal_cut_short, False),
    (refusal_stray_pair, False),
    (refusal_huge_head, False),
    (refusal_not_the_layout, True),
], ids=["run-head-not-a-pair", "fiber-cut-short", "stray-pair", "huge-run-head", "not-the-layout"])
def test_classify_leaves_the_shared_layout_for_the_walk(monkeypatch, make, laid):
    # each bail-out of the layout check; all but the last before any layout is built
    t, real, asked = make(), bundle._layout, []
    monkeypatch.setattr(bundle, "_layout", lambda base, sizes: asked.append(sizes) or real(base, sizes))
    assert bundle._laid_regulars(t.base, t.carrier.elements) is None
    assert bool(asked) == laid


def test_a_huge_run_head_is_refused_without_enumerating_its_fiber(monkeypatch):
    asked = []
    monkeypatch.setattr(bundle, "fiber_objects", lambda n: asked.append(n) or fiber_objects(n))
    start = time.process_time()
    with pytest.raises(ClassificationError):
        classify(refusal_huge_head())
    assert asked == [0] and time.process_time() - start < 1


def test_total_spaces_over_one_base_and_sizes_share_one_layout():
    a, b = total_space(arrow_diagram(1, 2, (0, 2))).carrier, total_space(arrow_diagram(1, 2, (1, 1))).carrier
    assert a != b
    assert a.elements is b.elements and a.index is b.index
    assert total_space(arrow_diagram(2, 1, (0, 0, 1))).carrier.elements != a.elements


def test_a_total_space_miss_reads_its_layout_once(monkeypatch):
    d, real, asked = arrow_diagram(1, 2, (0, 2)), bundle._layout, []
    monkeypatch.setattr(bundle, "_layout", lambda base, sizes: asked.append(sizes) or real(base, sizes))
    t = total_space.__wrapped__(d)  # the function past its memo: a miss
    assert asked == [(1, 2)]
    assert t.carrier.elements is real(d.base, (1, 2))[0] and t.carrier.index is real(d.base, (1, 2))[1]


def test_the_layout_plans_each_cover_target_first_and_lays_each_fiber_at_its_offset():
    for base in all_posets(3):
        for sizes in itertools.product(range(3), repeat=len(base.elements)):
            elements, _, offsets, plan, fibers = bundle._layout(base, sizes)
            done, planned = set(), []
            for reg, n, uppers in plan:
                a = elements[reg][0]
                assert n == sizes[base.index[a]] and offsets[base.index[a]] == reg
                for breg, bsing, (x, b) in uppers:
                    assert x == a and b in done and elements[breg] == (b, Stratum.regular(0, sizes[base.index[b]]))
                    assert bsing == breg + sizes[base.index[b]] + 1
                    planned.append((x, b))
                done.add(a)
            assert done == set(base.elements) and sorted(planned) == sorted(base.covers())
            for b, k, n in zip(base.elements, offsets, sizes):
                laid, mask = fibers[b]
                assert laid == range(k, k + n + 1) and mask == sum(1 << i for i in laid)
                assert [elements[i] for i in laid] == [(b, Stratum.regular(i, n)) for i in range(n + 1)]


def test_a_carrier_rebuilt_from_shuffled_elements_classifies_alike():
    # an equal element tuple, not the shared one: classify compares values
    rng = random.Random(7)
    for d in all_diagrams(FinPoset.from_covers("abc", [("a", "b"), ("a", "c")]), 2)[::40]:
        t = total_space(d)
        carrier = FinPoset(rng.sample(t.carrier.elements, len(t.carrier.elements)), t.carrier.leq)
        assert carrier.elements == t.carrier.elements and carrier.elements is not t.carrier.elements
        assert classify(TotalPoset(carrier, t.base)) == d


def test_pullback_identity_and_point():
    d = arrow_diagram(1, 2, (0, 2))
    assert pullback_bundle(d, PosetMap.identity(arrow_poset())) == d
    incl = PosetMap(point_poset(), arrow_poset(), {"pt": "1"})
    pulled = pullback_bundle(d, incl)
    assert pulled.ord["pt"] == Ordinal(2)
    assert pulled.arrow == {}
    with pytest.raises(DomainError):
        pullback_bundle(d, PosetMap.identity(point_poset()))


def arrow_labeling():
    cat = LabelCategory.from_poset(FinPoset.from_covers(["a", "b"], [("a", "b")]))
    return Labeling(arrow_poset(), cat, {"0": "a", "1": "b"}, {("0", "1"): "a<=b"})


@pytest.mark.parametrize("make", [lambda: arrow_diagram(1, 2, (0, 2)), arrow_labeling])
def test_pullback_rejects_bad_images(make):
    f = make()
    with pytest.raises(DomainError, match="image 'zz' of 'pt' is not in the target"):
        f.pullback(point_poset(), {"pt": "zz"})
    with pytest.raises(DomainError, match="map undefined on '1'"):
        f.pullback(arrow_poset(), {"0": "0"})
    with pytest.raises(DomainError, match="map is not monotone on '0' <= '1'"):
        f.pullback(arrow_poset(), {"0": "1", "1": "0"})


def test_pullback_commutes_with_total_space():
    d = arrow_diagram(1, 2, (0, 1))
    incl = PosetMap(point_poset(), arrow_poset(), {"pt": "0"})
    left = total_space(pullback_bundle(d, incl)).carrier
    fiber = [e for e in total_space(d).carrier.elements if root_of(e) == "0"]
    assert [e for _, e in left.elements] == [e for _, e in fiber]


def test_label_category_from_poset_laws():
    p = FinPoset.from_covers(["a", "b", "c"], [("a", "b"), ("b", "c")])
    cat = LabelCategory.from_poset(p)
    assert set(cat.objects) == {"a", "b", "c"}
    assert cat.compose_pair("a<=b", "b<=c") == "a<=c"
    assert cat.hom("c", "a") == ()
    with pytest.raises(DomainError):
        cat.compose_pair("b<=c", "a<=b")


@pytest.mark.parametrize("els, covers", [
    ([1, "1"], []),  # both identities print "1<=1"
    (["1", "2<=3", "1<=2", "3"], [("1", "2<=3"), ("1<=2", "3")]),  # both covers print "1<=2<=3"
])
def test_label_category_from_poset_refuses_pairs_that_print_alike(els, covers):
    p = FinPoset.from_covers(els, covers)
    with pytest.raises(DomainError, match="duplicate objects or morphisms"):
        LabelCategory.from_poset(p)


def test_label_category_validates_table():
    with pytest.raises(DomainError):
        LabelCategory(
            objects=["a"],
            morphisms=["id"],
            src={"id": "a"},
            dst={"id": "a"},
            identity={"a": "id"},
            compose={},  # misses id;id
        )


def _two_morphism_tables():
    """The tables of the category with one object a and morphisms id, e,
    where e;e = e."""
    return dict(
        objects=["a"],
        morphisms=["id", "e"],
        src={"id": "a", "e": "a"},
        dst={"id": "a", "e": "a"},
        identity={"a": "id"},
        compose={("id", "id"): "id", ("id", "e"): "e", ("e", "id"): "e", ("e", "e"): "e"},
    )


@pytest.mark.parametrize("table, key, value, message", [
    ("identity", "zz", "id", "the identity table names 'zz', which is not an object"),
    ("src", "zz", "a", "the src table names 'zz', which is not a morphism"),
    ("dst", "zz", "a", "the dst table names 'zz', which is not a morphism"),
    ("compose", ("zz", "id"), "e", "table composes ('zz', 'id'), which is not a pair of morphisms"),
    ("compose", ("id", "zz"), "e", "table composes ('id', 'zz'), which is not a pair of morphisms"),
    ("compose", ("zz", "yy"), "e", "table composes ('zz', 'yy'), which is not a pair of morphisms"),
    ("src", "e", "zz", "morphism 'e' has no valid endpoints"),
    ("compose", ("id", "e"), "id", "left unit law fails at 'e'"),
    ("compose", ("e", "id"), "id", "right unit law fails at 'e'"),
], ids=["identity key", "src key", "dst key", "compose (zz, id)", "compose (id, zz)", "compose (zz, yy)",
        "src value", "left unit", "right unit"])
def test_label_category_refuses_a_stray_entry(table, key, value, message):
    tables = _two_morphism_tables()
    LabelCategory(**tables)  # the clean category builds
    tables[table][key] = value
    with pytest.raises(DomainError, match=re.escape(message)):
        LabelCategory(**tables)


@pytest.mark.parametrize("objects, morphism, src, identity, message", [
    (["*"], None, {None: "*"}, {}, "object '*' has no identity morphism"),
    (["*"], None, {None: "*"}, {"*": None}, "table misses the composite of None, None"),
    ([None], "1", {}, {None: "1"}, "morphism '1' has no valid endpoints"),
], ids=["identity", "composite", "src"])
def test_label_category_refuses_a_missing_entry_where_none_is_a_name(objects, morphism, src, identity, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        LabelCategory(objects, [morphism], src, {morphism: objects[0]}, identity, {})


def test_label_category_refuses_a_non_composable_entry_as_ever():
    tables = _two_morphism_tables()
    tables["objects"].append("b")
    tables["morphisms"].append("idb")
    tables["src"]["idb"] = tables["dst"]["idb"] = "b"
    tables["identity"]["b"] = "idb"
    tables["compose"][("idb", "idb")] = "idb"
    LabelCategory(**tables)
    tables["compose"][("e", "idb")] = "e"
    with pytest.raises(DomainError, match=re.escape("table composes non-composable 'e', 'idb'")):
        LabelCategory(**tables)


def test_label_category_refuses_a_non_associative_table():
    tables = _two_morphism_tables()
    tables["morphisms"].append("f")
    tables["src"]["f"] = tables["dst"]["f"] = "a"
    tables["compose"].update({("id", "f"): "f", ("f", "id"): "f", ("e", "f"): "f", ("f", "e"): "e", ("f", "f"): "f"})
    LabelCategory(**tables)  # x then y is y: associative
    tables["compose"][("f", "f")] = "e"
    with pytest.raises(DomainError, match=re.escape("associativity fails on 'f', 'e', 'f'")):
        LabelCategory(**tables)


def _hom_by_filter(cat, a, b):
    return tuple(m for m in cat.morphisms if cat.src[m] == a and cat.dst[m] == b)


def test_label_category_hom_reads_the_index_as_the_filter_does():
    for p in all_posets(3):
        cat = LabelCategory.from_poset(p)
        for a in p.elements:
            for b in p.elements:
                assert cat.hom(a, b) == _hom_by_filter(cat, a, b)
        for stray in ("zz", None, [], ("a", [])):
            assert cat.hom(stray, p.elements[0]) == () and cat.hom(p.elements[0], stray) == ()


def test_label_categories_built_apart_compare_and_hash_alike():
    chain = FinPoset.from_covers(["a", "b", "c"], [("a", "b"), ("b", "c")])
    one, two = LabelCategory.from_poset(chain), LabelCategory.from_poset(chain)
    assert one is not two and one == two and hash(one) == hash(two)
    reordered = LabelCategory(reversed(one.objects), reversed(one.morphisms), one.src, one.dst, one.identity,
                              dict(reversed(one.compose.items())))
    assert reordered == one and hash(reordered) == hash(one)
    tables = _two_morphism_tables()
    base = LabelCategory(**tables)
    tables["compose"][("e", "e")] = "id"  # e;e = id: the cyclic group of order 2
    other = LabelCategory(**tables)
    assert other != base and base != other and hash(other) == hash(base)


def test_label_category_of_a_long_chain_builds_at_pair_and_triple_cost():
    els = [f"{i:02d}" for i in range(60)]
    thin = LabelCategory.from_poset(FinPoset.from_covers(els, list(zip(els, els[1:]))))
    start = time.perf_counter()  # the checking constructor: from_poset installs unchecked
    cat = LabelCategory(thin.objects, thin.morphisms, thin.src, thin.dst, thin.identity, thin.compose)
    elapsed = time.perf_counter() - start
    assert (len(cat.morphisms), len(cat.compose)) == (1830, 37820)
    assert elapsed < 2  # 5.9 s when the checks scanned every pair and every (composite, morphism) pair


def test_labeling_checks_relations():
    p = FinPoset.from_covers(["a", "b", "c"], [("a", "b"), ("b", "c")])
    cat = LabelCategory.from_poset(p)
    dom = arrow_poset()
    lab = Labeling(dom, cat, {"0": "a", "1": "b"}, {("0", "1"): "a<=b"})
    assert lab.morphism_for("0", "1") == "a<=b"
    assert lab.morphism_for("0", "0") == "a<=a"
    with pytest.raises(LabelingError):
        Labeling(dom, cat, {"0": "a", "1": "b"}, {})
    with pytest.raises(LabelingError):
        Labeling(dom, cat, {"0": "a", "1": "b"}, {("0", "1"): "b<=c"})


def total_space_reference(d):
    """The quadratic build that tests every pair of fiber positions."""
    fibers = {b: fiber_objects(d.ord[b].n) for b in d.base.elements}
    elements = [(b, e) for b in d.base.elements for e in fibers[b]]
    leq = []
    for a, b in d.base.leq:
        f = d.map_for(a, b)
        for e in fibers[a]:
            for e2 in fibers[b]:
                if validate_stratum_map(e, e2, f):
                    leq.append(((a, e), (b, e2)))
    return TotalPoset(FinPoset(elements, leq), d.base)


def test_total_space_matches_reference():
    count = 0
    for p in all_posets(3):
        for d in all_diagrams(p, 2):
            t, ref = total_space(d), total_space_reference(d)
            assert t == ref
            assert t.carrier.elements == ref.carrier.elements
            assert list(t.carrier.leq) == list(ref.carrier.leq)
            count += 1
    assert count > 1000


def depth_two_stages():
    return [d for t in tower_family(0, 2) if len(t.stages) == 2 for d in t.stages]


def small_base_diagrams():
    return [d for p in all_posets(3) for d in all_diagrams(p, 2)]


def diamond_sample():
    base = FinPoset.from_covers(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    rng = random.Random(3)
    return [random_diagram(base, 3, rng) for _ in range(300)]


@pytest.mark.parametrize("family, least", [
    pytest.param(depth_two_stages, 800, id="tower_family(0, 2) depth 2"),
    pytest.param(small_base_diagrams, 5000, id="all_posets(3), ordinals <= 2"),
    pytest.param(diamond_sample, 300, id="diamond, ordinals <= 3"),
])
def test_total_space_closed_over_covers_is_the_pair_by_pair_spelling(family, least):
    diagrams = family()
    assert len(diagrams) >= least
    assert any(d.ord[b].n == 0 for d in diagrams for b in d.base.elements)
    for d in diagrams:
        assert _total_space_disagrees(total_space.__wrapped__(d), (d,)) is None


def test_total_space_of_a_long_chain_is_linear():
    els = [str(i) for i in range(500)]
    chain = FinPoset.from_covers(els, list(zip(els, els[1:])))
    d = DeltaDiagram(chain, {e: Ordinal(1) for e in els}, {c: DeltaMap.identity(1) for c in chain.covers()})
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        t = total_space.__wrapped__(d)
        best = min(best, time.perf_counter() - start)
    assert len(t.carrier.elements) == 1500
    assert t.carrier.ups[0].bit_count() == 1 + 499  # r_0 over "0" lies below r_0 over every element
    assert best < 0.05  # 0.25 s when each related pair of the base set its own masks


# One proof per value while an equal one lives: bundle._PROVED


def count_proofs(monkeypatch):
    """Patch functor_table to record each proof it runs."""
    calls, real = [], bundle.functor_table
    monkeypatch.setattr(bundle, "functor_table", lambda *args: calls.append(args) or real(*args))
    return calls


def diamond_diagram(corner=DeltaMap.identity(7)):
    """Ordinals [7] over the diamond a < b, c < d, which no family of the
    library builds: identities on the covers, corner on (c, d)."""
    base = FinPoset.from_covers(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    ident = DeltaMap.identity(7)
    arrows = {("a", "b"): ident, ("a", "c"): ident, ("b", "d"): ident, ("c", "d"): corner}
    return DeltaDiagram(base, {e: Ordinal(7) for e in base.elements}, arrows)


def chain_labeling():
    cat = LabelCategory.from_poset(FinPoset.from_covers(["u", "v", "w"], [("u", "v"), ("v", "w")]))
    return Labeling(arrow_poset(), cat, {"0": "u", "1": "w"}, {("0", "1"): "u<=w"})


@pytest.mark.parametrize("make", [diamond_diagram, chain_labeling], ids=["DeltaDiagram", "Labeling"])
def test_an_equal_functor_shares_the_proof_of_a_live_one(monkeypatch, make):
    calls = count_proofs(monkeypatch)
    first, again = make(), make()
    assert len(calls) == 1
    assert again == first and again._paths is first._paths and again._key is first._key
    del first, again
    gc.collect()
    make()
    assert len(calls) == 2


def test_classify_of_a_listed_diagram_shares_its_proof_and_checks_no_map(monkeypatch):
    d = all_diagrams(FinPoset.from_covers("abc", [("a", "b"), ("a", "c")]), 2)[-1]
    t, calls, made = total_space(d), count_proofs(monkeypatch), []
    init, post_init = DeltaDiagram.__init__, DeltaMap.__post_init__
    monkeypatch.setattr(DeltaDiagram, "__init__", lambda self, *args: made.append(args) or init(self, *args))
    monkeypatch.setattr(DeltaMap, "__post_init__", lambda self: made.append(self) or post_init(self))
    back = classify(t)
    assert back == d and back._paths is d._paths
    assert not calls and not made


def test_classify_proves_once_and_an_equal_total_space_shares_the_proof(monkeypatch):
    d = all_diagrams(FinPoset.from_covers("abc", [("a", "b"), ("b", "c")]), 2)[-1]
    tower._empty_tables()  # so no live proved key is equal to d's
    calls = count_proofs(monkeypatch)
    first = classify(total_space(d))
    assert len(calls) == 1 and first == d and first._paths is not d._paths
    again = classify(total_space.__wrapped__(d))  # an equal total space, not the memo's
    assert len(calls) == 1 and again == first and again._paths is first._paths


def test_an_equal_key_of_another_kind_is_proved_again(monkeypatch):
    calls = count_proofs(monkeypatch)
    base = FinPoset.from_covers(["s", "t"], [])
    ords = {"s": Ordinal(5), "t": Ordinal(5)}
    delta, nabla = DeltaDiagram(base, ords, {}), NablaDiagram(base, ords, {})
    assert len(calls) == 2 and delta._key == nabla._key
    assert isinstance(nabla.map_for("s", "s"), NablaMap) and type(nabla.target) is not type(delta.target)


def test_an_unequal_key_hashing_alike_is_proved(monkeypatch):
    monkeypatch.setattr(bundle, "_key_hash", lambda key: 0)
    calls = count_proofs(monkeypatch)
    first = diamond_diagram()
    other = DeltaDiagram(arrow_poset(), {"0": Ordinal(7), "1": Ordinal(7)}, {("0", "1"): DeltaMap.identity(7)})
    assert len(calls) == 2 and other != first and other.base == arrow_poset()


def test_a_non_functorial_key_is_refused_alike_on_every_attempt(monkeypatch):
    calls = count_proofs(monkeypatch)
    messages = []
    for _ in range(2):
        with pytest.raises(DiagramError) as caught:
            diamond_diagram(DeltaMap(7, 7, (0,) * 8))
        messages.append(str(caught.value))
    assert len(calls) == 2
    assert messages == ["composites from 'a' to 'd' disagree through 'b' and 'c'"] * 2


def test_functor_table_stops_at_the_first_routes_that_disagree():
    ident, collapse = DeltaMap.identity(7), DeltaMap(7, 7, (0,) * 8)
    base = diamond_diagram().base
    covers = {**dict.fromkeys(base.covers(), ident), ("c", "d"): collapse}
    table, why = bundle.functor_table(base, DeltaDiagram.target, dict.fromkeys(base.elements, Ordinal(7)), covers)
    assert why == "composites from 'a' to 'd' disagree through 'b' and 'c'"
    # d's sources come in element order, so the walk ends before any pair into d
    assert sorted(table) == sorted([(e, e) for e in "abcd"] + [("a", "b"), ("a", "c")])


def test_a_pair_joined_by_a_cover_reads_the_cover_itself():
    base = diamond_diagram().base
    ident, collapse = DeltaMap.identity(1), DeltaMap(1, 1, (0, 0))
    arrows = {("a", "b"): collapse, ("a", "c"): ident, ("b", "d"): ident, ("c", "d"): collapse}
    d = DeltaDiagram(base, dict.fromkeys(base.elements, Ordinal(1)), arrows)
    assert all(d.map_for(a, b) is d.arrow[(a, b)] for a, b in base.covers())
    assert d.map_for("a", "d") == collapse


def _square_zero_monoid(zero):
    """The one-object category {1, g, zero} where g;g = zero and zero absorbs."""
    mors = ["1", "g", zero]
    compose = {(f, h): zero for f in mors for h in mors}
    compose.update({**{("1", m): m for m in mors}, **{(m, "1"): m for m in mors}})
    return LabelCategory(["*"], mors, dict.fromkeys(mors, "*"), dict.fromkeys(mors, "*"), {"*": "1"}, compose)


def test_a_morphism_named_none_is_a_value_like_any_other():
    cat = _square_zero_monoid(None)
    labels = {("a", "b"): "g", ("b", "d"): "g", ("a", "c"): "1", ("c", "d"): "g"}
    with pytest.raises(LabelingError, match=re.escape("composites from 'a' to 'd' disagree through 'b' and 'c'")):
        Labeling(diamond_diagram().base, cat, dict.fromkeys("abcd", "*"), labels)
    on_cover = Labeling(arrow_poset(), cat, {"0": "*", "1": "*"}, {("0", "1"): None})
    assert on_cover.map_for("0", "1") is None


def test_renaming_a_morphism_named_none_changes_no_verdict_and_no_diagnostic():
    fresh = object()
    named = {None: _square_zero_monoid(None), fresh: _square_zero_monoid(fresh)}

    def verdict(base, zero, choice):
        labels = {c: zero if m is None else m for c, m in zip(base.covers(), choice)}
        try:
            lab = Labeling(base, named[zero], dict.fromkeys(base.elements, "*"), labels)
        except LabelingError as exc:
            return "refused", str(exc)
        return "accepted", {k: None if v is zero else v for k, v in lab._paths.items()}

    seen = set()
    for base in all_posets(3) + [diamond_diagram().base]:  # the diamond has two routes, so refusals too
        for choice in itertools.product(("1", "g", None), repeat=len(base.covers())):
            outcome = verdict(base, None, choice)
            assert verdict(base, fresh, choice) == outcome
            seen.add(outcome[0])
    assert seen == {"accepted", "refused"}


@pytest.mark.parametrize("suite", ["derived", "pack"])
def test_a_live_trusted_functor_with_a_wrong_table_is_proved_and_audited(monkeypatch, suite):
    good = diamond_diagram()
    bad = DeltaDiagram._trusted(good._key[:-1], {**good._paths, ("a", "d"): DeltaMap(7, 7, (0,) * 8)})
    del good
    gc.collect()
    calls = count_proofs(monkeypatch)
    again = diamond_diagram()
    assert len(calls) == 1 and again == bad and again._paths != bad._paths
    # every pullback of the suite installs such a functor, and the audit's
    # rebuild through the constructor still reports the first
    real = CoverFunctor.pullback

    def wrong(self, base, image):
        right = real(self, base, image)
        return right._derive(base, right.objects, one_wrong_entry(base, right._paths))

    monkeypatch.setattr(CoverFunctor, "pullback", wrong)
    report = SUITES[suite]()
    assert not report.is_ok
    assert report.diagnostics[0][0] == "trusted functor"


def test_audited_leaves_the_table_empty():
    outside = diamond_diagram()
    with audited():
        assert len(bundle._PROVED) == 0
        inside = chain_labeling()
        assert len(bundle._PROVED) == 1
    assert len(bundle._PROVED) == 0
    assert outside == diamond_diagram() and inside == chain_labeling()


class UnhashableMap(DeltaMap):
    __hash__ = None


def test_a_trusted_functor_hashes_on_first_use():
    d = diamond_diagram()
    same = {x: x for x in d.base.elements}
    f, g = d.pullback(d.base, same), d.pullback(d.base, same)
    assert f._hash is None and g._hash is None
    assert f == g and f == d and f._hash is None and g._hash is None
    assert hash(f) == hash(d) and f._hash == d._hash and g._hash is None


def test_an_unhashable_trusted_functor_installs_and_is_refused_a_hash():
    d = diamond_diagram()
    corner = UnhashableMap(7, 7, tuple(range(8)))
    f = DeltaDiagram._trusted(d._key[:-1], {**d._paths, ("c", "d"): corner})
    assert f.covers[("c", "d")] is corner and f == f
    with pytest.raises(TypeError, match="unhashable type: 'UnhashableMap'"):
        hash(f)


@pytest.mark.parametrize("collapse, error, message", [
    (False, TypeError, "unhashable type: 'UnhashableMap'"),
    (True, DiagramError, "composites from 'a' to 'd' disagree through 'b' and 'c'"),
])
def test_an_unhashable_key_is_proved_and_refused_as_ever(monkeypatch, collapse, error, message):
    calls = count_proofs(monkeypatch)
    corner = UnhashableMap(7, 7, (0,) * 8 if collapse else tuple(range(8)))
    for attempt in (1, 2):
        with pytest.raises(error, match=message):
            diamond_diagram(corner)
        assert len(calls) == attempt


HUGE = 2 ** 63  # one past the largest index of a 64-bit machine


@pytest.mark.parametrize("cls", [DeltaDiagram, NablaDiagram])
def test_an_ordinal_past_the_machine_size_is_refused(cls):
    # the proof's identity on [HUGE] would need more values than an index reaches
    with pytest.raises(DomainError, match=re.escape(f"the identity on [{HUGE}] is too large to build")):
        cls(point_poset(), {"pt": Ordinal(HUGE)}, {})
