"""Bundles over finite posets: construction, total space, classification."""

import gc
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
])
def test_classify_refusals(make, message):
    with pytest.raises(ClassificationError, match="^" + re.escape(message) + "$"):
        classify(make())


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
    chain = FinPoset.from_covers(els, list(zip(els, els[1:])))
    start = time.perf_counter()
    cat = LabelCategory.from_poset(chain)
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


def test_an_equal_key_of_another_kind_is_proved_again(monkeypatch):
    calls = count_proofs(monkeypatch)
    base = FinPoset.from_covers(["s", "t"], [])
    ords = {"s": Ordinal(5), "t": Ordinal(5)}
    delta, nabla = DeltaDiagram(base, ords, {}), NablaDiagram(base, ords, {})
    assert len(calls) == 2 and delta._key == nabla._key
    assert isinstance(nabla.map_for("s", "s"), NablaMap) and nabla.compose is not delta.compose


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


@pytest.mark.parametrize("suite", ["derived", "pack"])
def test_a_live_trusted_functor_with_a_wrong_table_is_proved_and_audited(monkeypatch, suite):
    good = diamond_diagram()
    bad = DeltaDiagram._trusted(good._key[:-1], good.compose, {**good._paths, ("a", "d"): DeltaMap(7, 7, (0,) * 8)})
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
    f = DeltaDiagram._trusted(d._key[:-1], d.compose, {**d._paths, ("c", "d"): corner})
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
