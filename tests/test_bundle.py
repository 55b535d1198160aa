"""Bundles over finite posets: construction, total space, classification."""

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
from trusskit.oracles import all_diagrams, all_posets, random_diagram
from trusskit.strata import fiber_objects
from trusskit.tower import root_of


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
    with pytest.raises(DomainError, match="'zz' of 'pt' is not in the base"):
        f.pullback(point_poset(), {"pt": "zz"})
    with pytest.raises(DomainError, match="misses the base element '1'"):
        f.pullback(arrow_poset(), {"0": "0"})
    with pytest.raises(DomainError, match="'1' and '0' are not related in the base"):
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
