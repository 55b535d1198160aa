"""The audit of unchecked installs: oracles.audited(), under which every
SUITES entry runs, catches one wrong install of each kind as a failing
Report and leaves the library as it found it."""

import copy
import hashlib
import importlib
import inspect
import itertools
import pkgutil
import random
import sys
import tracemalloc
from types import SimpleNamespace

import pytest

import trusskit
from trusskit import (
    DeltaDiagram,
    DeltaMap,
    DiagramError,
    DomainError,
    FinPoset,
    Labeling,
    LabelingError,
    Ordinal,
    PosetMap,
    Report,
    Stratum,
    StratumMap,
    arrow_poset,
    bundle,
    enumerate_delta_maps,
    mesh,
    oracles,
    ordinal,
    poset,
    strata,
    tower,
)
from trusskit.bundle import CoverFunctor, LabelCategory, TotalPoset, total_space
from trusskit.mesh import PLMeshBundle
from trusskit.ordinal import Delta
from trusskit.oracles import (
    SUITES,
    all_diagrams,
    all_posets,
    audited,
    bordism_family,
    chain3_poset,
    functors,
    poset_maps,
    tower_family,
)
from trusskit.tower import TrussTower, compose_bordisms, identity_bordism, pack, truss_label_category, unpack
from conftest import one_wrong_entry


def trusted_classes():
    """Every trusskit class whose own namespace defines _trusted."""
    return {
        cls
        for name, module in list(sys.modules.items()) if name.partition(".")[0] == "trusskit"
        for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__.partition(".")[0] == "trusskit" and "_trusted" in vars(cls)
    }


TRUSTED = {cls: cls.__dict__["_trusted"] for cls in trusted_classes()}
END = TrussTower.__dict__["end"]
MEMOS = (tower._composite, tower._plan, tower.identity_bordism, total_space, bundle._layout, bundle._walk,
         ordinal._identities, ordinal.dual_delta_to_nabla, ordinal.dual_nabla_to_delta)


def assert_restored():
    assert {cls: cls.__dict__["_trusted"] for cls in trusted_classes()} == TRUSTED
    # nothing composed, made an identity, walked, laid out or packed inside the audit outlives it
    assert [memo.cache_info().currsize for memo in MEMOS] == [0] * len(MEMOS)
    assert tower._PACKED == {}


def assert_caught(report, kind):
    assert not report.is_ok
    [(where, why)] = report.diagnostics
    assert where == kind, why
    assert_restored()


def test_audit_catches_a_wrong_realized_path(monkeypatch):
    def wrong(cls, key, paths):
        return super(PLMeshBundle, cls)._trusted(key, one_wrong_entry(key[0], paths))

    monkeypatch.setattr(PLMeshBundle, "_trusted", classmethod(wrong))
    report = SUITES["roundtrip-mesh"]()
    monkeypatch.undo()
    assert_caught(report, "trusted functor")


def _fiber_over_map_with(change):
    """fiber_over_map with one up-set changed by change(p, ups), installed
    through FinPoset._trusted as the library installs it."""
    real = oracles.fiber_over_map

    def wrong(alpha):
        p = real(alpha)
        ups = list(p.ups)
        change(p, alpha, ups)
        return FinPoset._trusted(p.elements, ups)
    return wrong


def _break_transitivity(p, alpha, ups):
    # src s_0 <= src r_0 <= dst r_alpha(0), but no longer src s_0 <= dst r_alpha(0)
    if alpha.src.n:
        ups[p.index["src", Stratum.singular(0, alpha.src.n)]] &= ~(1 << alpha.values[0])


def _drop_a_cross_relation(p, alpha, ups):
    # src r_0 <= dst r_alpha(0) dropped: still an order, no longer the fiber
    i = p.index["src", Stratum.regular(0, alpha.src.n)]
    ups[i] = 1 << i


def test_audit_catches_a_non_order_mask(monkeypatch):
    monkeypatch.setattr(oracles, "fiber_over_map", _fiber_over_map_with(_break_transitivity))
    report = SUITES["homsets"]()
    monkeypatch.undo()
    assert_caught(report, "trusted poset")
    assert "the validating rebuild fails: transitivity fails" in report.diagnostics[0][1]


def test_homsets_catches_a_dropped_cross_relation(monkeypatch):
    monkeypatch.setattr(oracles, "fiber_over_map", _fiber_over_map_with(_drop_a_cross_relation))
    report = SUITES["homsets"]()
    monkeypatch.undo()
    assert not report.is_ok
    [(where, why)] = report.diagnostics
    assert where == "fiber([0]->[0]:[0])" and why == "it differs from its filter spelling"
    assert_restored()


def test_audit_catches_a_non_canonical_order():
    elements = ("b", "a")
    with audited():
        with pytest.raises(oracles._Disagreement, match="trusted poset"):
            FinPoset._trusted(elements, (1, 2))
    assert_restored()


def test_a_trusted_poset_failure_names_its_elements_and_covers(monkeypatch):
    real = oracles.fiber_over_ordinal

    def reversed_fiber(n):
        # a true order laid out in reverse: only the poset shown can tell which
        p = real(n)
        last = len(p.elements) - 1
        ups = [sum(1 << last - j for j in oracles.bits(up)) for up in reversed(p.ups)]
        return FinPoset._trusted(p.elements[::-1], ups)

    monkeypatch.setattr(oracles, "fiber_over_ordinal", reversed_fiber)
    report = SUITES["homsets"]()
    monkeypatch.undo()
    assert_caught(report, "trusted poset")
    assert report.diagnostics[0][1] == (
        "it differs from its validating rebuild:\nelements s0, r1, r0\ncovers s0->r1, s0->r0"
    )


def test_audit_catches_a_flipped_total_space_bit(monkeypatch):
    real = TotalPoset.__dict__["_trusted"].__func__

    def flipped(cls, d, elements, ups):
        ups = list(ups)
        ups[0] ^= 1 << (len(ups) - 1)
        return real(cls, d, elements, ups)

    monkeypatch.setattr(TotalPoset, "_trusted", classmethod(flipped))
    report = SUITES["roundtrip-bundle"]()
    monkeypatch.undo()
    assert_caught(report, "total space")


def test_empty_tables_and_audited_empty_the_layouts():
    d = DeltaDiagram(chain3_poset(), {"a": 0, "b": 1, "c": 1},
                     {("a", "b"): DeltaMap(0, 1, (0,)), ("b", "c"): DeltaMap.identity(1)})
    bundle.classify(total_space(d))
    assert bundle._layout.cache_info().currsize
    tower._empty_tables()
    assert bundle._layout.cache_info().currsize == 0
    total_space(d)
    with audited():
        assert bundle._layout.cache_info().currsize == 0
        assert bundle.classify(total_space(d)) == d
        assert bundle._layout.cache_info().currsize
    assert_restored()


def test_audit_catches_a_wrong_poset_map(monkeypatch):
    chain = chain3_poset()
    with audited() as counts:
        maps = poset_maps(chain, chain)
    assert counts["map_checks"] == len(maps) == 10
    real = PosetMap.__dict__["_trusted"].__func__

    def reversed_values(cls, src, dst, mapping):
        return real(cls, src, dst, dict(zip(mapping, list(mapping.values())[::-1])))

    monkeypatch.setattr(PosetMap, "_trusted", classmethod(reversed_values))
    with audited():
        with pytest.raises(oracles._Disagreement, match="trusted map"):
            poset_maps(chain, chain)
    monkeypatch.undo()
    assert_restored()


def test_roundtrip_bundle_suite_default_report():
    report = SUITES["roundtrip-bundle"]()
    assert report.is_ok, report.to_text()
    assert report.counts == {"bases": 23, "diagrams": 5453, "layers": 5453, "map_checks": 15547,
                             "total_space_checks": 5453}


@pytest.mark.parametrize("suite", ["derived", "pack", "bordism-assoc"])
def test_audit_catches_a_wrong_pullback_entry(monkeypatch, suite):
    def wrong(self, base, image):
        objects = {x: self.objects[image[x]] for x in base.elements}
        paths = {(x, y): self._paths[(image[x], image[y])] for x, y in base.leq}
        return self._derive(base, objects, one_wrong_entry(base, paths))

    monkeypatch.setattr(CoverFunctor, "pullback", wrong)
    assert_caught(SUITES[suite](), "trusted functor")


def caught_with_wrong_ends(make_replace, message):
    """Run derived and then pack with TrussTower._trusted passing each
    install's recorded ends through a fresh make_replace(); both must fail
    at "trusted tower" with message."""
    real = TrussTower.__dict__["_trusted"].__func__
    for suite in ("derived", "pack"):
        replace = make_replace()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(TrussTower, "_trusted",
                       classmethod(lambda cls, base, layers, ends=None: real(cls, base, layers, ends and replace(ends))))
            report = SUITES[suite]()
        assert_caught(report, "trusted tower")
        assert report.diagnostics[0][1].startswith(message), (suite, report.diagnostics)


def test_audit_catches_a_wrong_recorded_end():
    # from the second install whose two ends are one tower (an identity
    # bordism's, say) on, end 1 is the first such install's tower
    def make_replace():
        first = []

        def replace(ends):
            if ends.get(0) is not ends.get(1):
                return ends
            first.append(ends[0])
            return {0: ends[0], 1: first[0]}
        return replace

    caught_with_wrong_ends(make_replace, "end 1 differs from restrict_bordism")
    # the wrong identity bordisms were memoized inside the suites; the audit
    # dropped them on exit, so pack outside any suite still works
    for t in [t for t in tower_family(0, 2) if t.depth >= 1][::10]:
        assert unpack(pack(t)) == t


def test_audit_catches_a_wrong_generator_end():
    # the first bordism installed with two different ends gets end 1 as both
    def make_replace():
        swapped = []

        def replace(ends):
            if swapped or len(ends) < 2 or ends[0] == ends[1]:
                return ends
            swapped.append(ends)
            return {0: ends[1], 1: ends[1]}
        return replace

    caught_with_wrong_ends(make_replace, "end 0 differs from restrict_bordism")


class OneWrongComposite(LabelCategory):
    @classmethod
    def _trusted(cls, objects, morphisms, src, dst, identity, compose):
        # the first composite that is no identity becomes its source's identity
        compose = dict(compose)
        for (f, g), h in compose.items():
            if h not in identity.values():
                compose[(f, g)] = identity[src[f]]
                break
        return super()._trusted(objects, morphisms, src, dst, identity, compose)


def close_packed_labels(max_ordinal=2, seed=0) -> Report:
    """The closure pack made per call before it labelled in truss_category:
    truss_label_category of the fiber trusses and cover bordisms of pack(t),
    for each source t of the derived suite."""
    for t in tower_family(seed, max_ordinal) + bordism_family(seed):
        lab = pack(t).tower.labels
        truss_label_category(lab.on_objects.values(), lab.on_relations.values())
    return Report.ok({})


# the explicit closure, audited as a SUITES entry is
CLOSURES = oracles._audited_suite(close_packed_labels)


def test_audit_catches_a_wrong_closure_entry(monkeypatch):
    monkeypatch.setattr(tower, "LabelCategory", OneWrongComposite)
    assert_caught(CLOSURES(), "label category")


def test_audit_catches_a_wrong_seeded_unit_entry(monkeypatch):
    # identity_bordism gives a loop g with g then g not g for g's end, so the
    # closure enters g then g as g uncomposed, and its table is still a category
    labels = [pack(t).tower.labels for t in tower_family(0, 2) if t.depth >= 1]
    loop = next(m for lab in labels
                for m in truss_label_category(lab.on_objects.values(), lab.on_relations.values()).morphisms
                if m.end(0) == m.end(1) and compose_bordisms(m, m) != m)
    real = tower.identity_bordism
    monkeypatch.setattr(tower, "identity_bordism", lambda o: loop if o == loop.end(0) else real(o))
    report = CLOSURES()
    monkeypatch.undo()
    assert_caught(report, "label category")
    assert report.diagnostics[0][1].startswith("a unit law fails at morphism"), report.diagnostics


def test_an_audit_count_named_like_a_suite_count_is_a_failing_report():
    t = tower_family(0, 2)[0]

    def stub():
        identity_bordism(t)  # installs layers under the audit
        return Report.ok({"layers": 1})

    report = oracles._audited_suite(stub)()
    assert_caught(report, "audit counts")
    assert report.diagnostics[0][1] == "the audit's layers would overwrite the suite's"
    assert report.counts == {"layers": 1}


def assert_library_error(report, message):
    assert_caught(report, "library error")
    assert report.diagnostics[0][1].startswith(message), report.diagnostics


def test_a_library_error_in_a_suite_is_a_failing_report(monkeypatch):
    # each cover's chain handed to interpolated_heights reversed: the
    # library refuses it as not strictly increasing
    def backwards(m, chain, point):
        return mesh.interpolated_heights(m, chain[::-1], point)

    monkeypatch.setattr(oracles, "interpolated_heights", backwards)
    assert_library_error(SUITES["roundtrip-mesh"](), "DomainError: chain must be strictly increasing in the base")


class OneMiddle(Exception):
    """A composite's label layer was reached with no second middle to check."""


def one_middle(*args):
    raise OneMiddle


def test_a_composition_error_in_a_suite_is_a_failing_report(monkeypatch):
    # composites formed through a copy of b1 whose label layer's target
    # composes every pair to a fresh value, so two factorization middles disagree; where no
    # pair has two middles, the composite is formed as usual
    real = tower._composite.__wrapped__

    def wrong(b1, b2):
        labels = copy.copy(b1.labels)
        fresh = itertools.count()
        labels.target, labels._derive = SimpleNamespace(compose_pair=lambda f, g: next(fresh)), one_middle
        bad = copy.copy(b1)
        bad.layers = b1.stages + (labels,)
        try:
            return real(bad, b2)
        except OneMiddle:
            return real(b1, b2)

    monkeypatch.setattr(tower, "_composite", wrong)
    assert_library_error(SUITES["bordism-assoc"](), "InternalError: factorization middle")


def refuse(*args):
    raise DomainError("refused")


def fresh_texts(real):
    """A dumps whose every text differs from the last."""
    made = itertools.count()
    return lambda value: str(next(made))


# (suite, max_ordinal, the name the suite imports, its replacement given the
# real one, the failing report's location, the start of its message)
FAULTS = [
    pytest.param("homsets", 3, "fiber_over_ordinal", lambda real: lambda n: FinPoset(["x"], [("x", "x")]),
                 "fiber([0])", "it differs from its filter spelling", id="homsets-fiber"),
    pytest.param("homsets", 3, "enumerate_delta_maps", lambda real: lambda n, m: real(n, m)[1:],
                 "delta([0],[0])", "expected 1 maps, got 0", id="homsets-delta-count"),
    pytest.param("homsets", 3, "dual_nabla_to_delta", lambda real: lambda g: DeltaMap(0, 1, (1,)),
                 "dual([0]->[0]:[0])", "duality round trip failed", id="homsets-delta-dual"),
    pytest.param("homsets", 3, "enumerate_nabla_maps", lambda real: lambda n, m: real(n, m)[1:],
                 "nabla([1],[1])", "expected 1 maps, got 0", id="homsets-nabla-count"),
    pytest.param("homsets", 3, "hom_strata", lambda real: lambda x, y: real(x, y)[:-1],
                 "hom(r0@0,r0@0)", "library 0 maps, brute force 1", id="homsets-hom"),
    pytest.param("homsets", 0, "hom_strata", lambda real: lambda x, y: real(x, y) if x.is_regular else (),
                 "hom(s0@1,r1@2)", "expected 4 maps, got 0", id="homsets-spot"),
    pytest.param("factorization", 2, "_filtered", lambda real: lambda objs, ident: FinPoset(["x"], [("x", "x")]),
                 "factor(r0@0,r0@0 over [0]->[0]:[0];[0]->[0]:[0])", "it differs from its filter spelling",
                 id="factorization-filter"),
    pytest.param("roundtrip-bundle", 2, "classify", lambda real: lambda t: None,
                 "classify", "total space does not classify back", id="roundtrip-bundle-classify"),
    pytest.param("roundtrip-mesh", 2, "reg_extract", lambda real: lambda m: None,
                 "reg_extract", "mesh does not extract back", id="roundtrip-mesh-reg"),
    pytest.param("roundtrip-mesh", 2, "dual_delta_to_nabla", lambda real: lambda f: None,
                 "sing_extract ('b', 'a')", "duality triangle fails", id="roundtrip-mesh-sing"),
    pytest.param("pack", 1, "pack", lambda real: refuse, "pack", "pack raised refused", id="pack-raises"),
    pytest.param("pack", 1, "unpack", lambda real: lambda p: None,
                 "pack", "pack/unpack did not round trip", id="pack-unpack"),
    pytest.param("pack", 1, "pullback_tower", lambda real: lambda t, f: None,
                 "pack labels", "the label of 'pt' differs from its fresh pullback", id="pack-labels"),
    pytest.param("pack", 1, "PackedTower", lambda real: oracles.pack,
                 "pack", "double pack did not round trip", id="pack-double"),
    pytest.param("bordism-assoc", None, "compose_bordisms", lambda real: lambda b1, b2: None,
                 "identity", "left identity law failed", id="bordism-assoc-left"),
    pytest.param("bordism-assoc", None, "compose_bordisms", lambda real: lambda b1, b2: b2,
                 "identity", "right identity law failed", id="bordism-assoc-right"),
    pytest.param("bordism-assoc", None, "dumps", fresh_texts,
                 "glue", "the composite prints differently from the restricted glue", id="bordism-assoc-glue"),
    pytest.param("bordism-assoc", None, "pullback_tower", lambda real: refuse,
                 "glue", "the glued tower fails its checks: refused", id="bordism-assoc-glue-refused"),
    pytest.param("bordism-assoc", None, "compose_bordisms",
                 lambda real: lambda b1, b2: real(b1, b2) if b1.end(1) == b2.end(0) else b1,
                 "boundary", "mismatched bordisms composed", id="bordism-assoc-boundary"),
    pytest.param("bordism-assoc", None, "compose_bordisms_audited", lambda real: lambda b1, b2: (b1, real(b1, b2)[1]),
                 "glue", "the composite prints differently from the restricted glue", id="bordism-assoc-triple"),
]


@pytest.mark.parametrize("suite, max_ordinal, name, fault, where, why", FAULTS)
def test_each_suite_reports_an_injected_fault_at_its_location(monkeypatch, suite, max_ordinal, name, fault, where,
                                                               why):
    monkeypatch.setattr(oracles, name, fault(getattr(oracles, name)))
    report = SUITES[suite](max_ordinal)
    monkeypatch.undo()
    assert_caught(report, where)
    assert report.diagnostics[0][1].startswith(why), report.diagnostics


def test_audit_words_a_total_space_out_of_canonical_order(monkeypatch):
    real = TotalPoset.__dict__["_trusted"].__func__
    monkeypatch.setattr(TotalPoset, "_trusted",
                        classmethod(lambda cls, d, layout, ups: real(cls, d, (layout[0][::-1],) + layout[1:], ups)))
    report = SUITES["roundtrip-bundle"]()
    monkeypatch.undo()
    assert_caught(report, "total space")
    assert report.diagnostics[0][1].startswith("the elements are not in canonical order")


def _name_a_non_element(p, alpha, ups):
    ups[0] |= 1 << len(ups)


def test_audit_words_a_mask_naming_a_non_element(monkeypatch):
    monkeypatch.setattr(oracles, "fiber_over_map", _fiber_over_map_with(_name_a_non_element))
    report = SUITES["homsets"]()
    monkeypatch.undo()
    assert_caught(report, "trusted poset")
    assert report.diagnostics[0][1] == (
        "a mask names a non-element:\n"
        "((('dst', Stratum(kind='r', index=0, n=0)), ('src', Stratum(kind='r', index=0, n=0))), (5, 3))"
    )


def test_audit_rebuilds_an_equal_functor_with_another_path_table():
    chain = chain3_poset()
    d = DeltaDiagram(chain, {"a": 0, "b": 1, "c": 1},
                     {("a", "b"): DeltaMap(0, 1, (0,)), ("b", "c"): DeltaMap.identity(1)})
    wrong = one_wrong_entry(chain, d._paths)
    assert wrong != d._paths
    with audited() as counts:
        d._derive(chain, d.objects, d._paths)
        with pytest.raises(oracles._Disagreement, match="differs from its validating rebuild"):
            d._derive(chain, d.objects, wrong)
    assert counts["layers"] == 1
    assert_restored()


def test_audit_patches_every_trusted_install():
    # every install point is audited, and nothing else is patched
    assert {FinPoset, CoverFunctor, TotalPoset, TrussTower} < set(TRUSTED)
    with audited():
        assert [cls for cls in TRUSTED if cls.__dict__["_trusted"] is TRUSTED[cls]] == []
        assert TrussTower.__dict__["end"] is END
    assert TrussTower.__dict__["end"] is END
    assert_restored()


def test_audit_counts_each_total_space_once():
    d = DeltaDiagram(chain3_poset(), {"a": 0, "b": 1, "c": 1},
                     {("a", "b"): DeltaMap(0, 1, (0,)), ("b", "c"): DeltaMap.identity(1)})
    with audited() as counts:
        for _ in range(2):
            total_space.cache_clear()  # as when the memo evicts it
            total_space(d)
    assert counts["total_space_checks"] == 1
    assert_restored()


def test_audit_checks_each_witness_of_a_tower_once(monkeypatch):
    # a tower installed with its ends, then without, then with them again:
    # the audit keeps both witnesses, so the ends are restricted once
    b = bordism_family(0)[0]
    restricted = []
    real = oracles.restrict_bordism
    monkeypatch.setattr(oracles, "restrict_bordism", lambda t, k: restricted.append(k) or real(t, k))
    with audited() as counts:
        ends = {0: b.end(0), 1: b.end(1)}
        restricted.clear()
        for recorded in (ends, None, ends, None):
            assert TrussTower._trusted(b.base, b.layers, recorded) == b
    assert restricted == [0, 1] and counts["end_checks"] == 2
    assert_restored()


def test_audit_leaves_nothing_behind():
    assert SUITES["homsets"]().is_ok
    assert_restored()
    with pytest.raises(ZeroDivisionError):
        with audited():
            1 / 0
    assert_restored()


def test_pack_outside_a_suite_rebuilds_nothing(monkeypatch):
    calls = []
    real = CoverFunctor.over
    monkeypatch.setattr(CoverFunctor, "over", lambda self, *args: calls.append(self) or real(self, *args))
    towers = [t for t in tower_family(0, 1) if t.depth >= 1][:20]
    for t in towers:
        pack(t)
    assert calls == []
    with audited():
        pack(towers[-1])
    assert calls


def test_memoized_values_from_outside_are_installed_again_inside():
    b = bordism_family(0)[0]
    start = b.end(0)
    ident = identity_bordism(start)
    composite = compose_bordisms(ident, b)
    with audited() as counts:
        ident_again = identity_bordism(start)
        after_identity = counts["layers"]
        composite_again = compose_bordisms(ident_again, b)
        assert counts["layers"] - after_identity >= len(b.layers)
    assert after_identity >= len(b.layers)
    assert ident_again == ident and ident_again is not ident
    assert composite_again == composite and composite_again is not composite
    assert_restored()


def test_audited_empties_packs_memo_on_entry_and_exit():
    # a piece pack memoized outside is installed, audited and counted again inside
    t = next(t for t in tower_family(0, 2) if t.depth >= 1 and t.stages[-1].base.covers())
    tower._empty_tables()
    with audited() as cold:
        pack(t)
    assert tower._PACKED == {}
    pack(t)
    outside = dict(tower._PACKED)
    assert outside
    with audited() as warm:
        assert tower._PACKED == {}
        pack(t)
        inside = dict(tower._PACKED)
    assert inside.keys() == outside.keys()
    assert all(inside[k] == outside[k] and inside[k] is not outside[k] for k in outside)
    assert warm == cold and warm["layers"] > 0 and warm["end_checks"] > 0
    assert_restored()


def test_a_suite_reports_the_same_counts_twice():
    first, second = SUITES["pack"](), SUITES["pack"]()
    assert first.is_ok and second.is_ok
    assert first.counts == second.counts
    assert first.counts["category_checks"] > 0
    assert first.counts["map_checks"] > 0


def test_audit_checks_each_distinct_category_once(monkeypatch):
    built = []
    real = LabelCategory._validate
    monkeypatch.setattr(LabelCategory, "_validate", lambda self: built.append(self) or real(self))
    report = CLOSURES()
    # 756 closure installs and 4 of from_poset's, which installs through _trusted
    assert report.is_ok and report.counts["category_checks"] == 760
    rebuilt = [c for c in built if isinstance(c.objects[0], TrussTower)]  # not from_poset's
    assert len(rebuilt) == len(set(rebuilt)) == 484
    thin = [c for c in built if not isinstance(c.objects[0], TrussTower)]  # the chain's and the vee's
    assert len(thin) == len(set(thin)) == 2


def test_audit_rebuilds_an_equal_category_with_a_duplicate_entry():
    cat = LabelCategory.from_poset(chain3_poset())
    table = (cat.objects, cat.morphisms, cat.src, cat.dst, cat.identity, cat.compose)
    with audited() as counts:
        assert LabelCategory._trusted(*table) == cat
        with pytest.raises(oracles._Disagreement, match="validating rebuild fails: duplicate"):
            LabelCategory._trusted(cat.objects + cat.objects[:1], *table[1:])
    assert counts["category_checks"] == 1
    assert_restored()


# the underlying map of a wrong x -> y made from the last map f of hom(x, y),
# or None where this pair offers none
WRONG_MAPS = {
    "non-monotone values": lambda x, y, f: (
        DeltaMap._trusted(f.underlying.src, f.underlying.dst, f.underlying.values[::-1])
        if f.underlying.values[0] < f.underlying.values[-1] else None),
    "no morphism": lambda x, y, f: (
        DeltaMap.identity(x.n) if x.is_regular and x.n == y.n and x.index != y.index else None),
}


@pytest.mark.parametrize("wrong", WRONG_MAPS)
def test_audit_catches_a_wrong_trusted_map(monkeypatch, wrong):
    real, bad = oracles.hom_strata, []

    def wrong_hom(x, y):
        maps = real(x, y)
        under = None if bad or not maps else WRONG_MAPS[wrong](x, y, maps[-1])
        if under is None:
            return maps
        bad.append(StratumMap._trusted(x, y, under))
        return maps[:-1] + tuple(bad)

    monkeypatch.setattr(oracles, "hom_strata", wrong_hom)
    assert_caught(SUITES["homsets"](), "trusted map")


def _listed_triples(bordisms, limit, rng):
    """composable_triples spelled as the list of every triple, sampled."""
    by_source = {}
    for b in bordisms:
        by_source.setdefault(b.end(0), []).append(b)
    triples = [(b1, b2, b3) for b1 in bordisms for b2 in by_source.get(b1.end(1), ())
               for b3 in by_source.get(b2.end(1), ())]
    return rng.sample(triples, limit) if len(triples) > limit else triples


@pytest.mark.parametrize("seed", range(4))
def test_composable_triples_samples_what_the_list_spelling_samples(seed):
    bordisms = bordism_family(seed)
    for limit in (400, 800):
        got = oracles.composable_triples(bordisms, limit, random.Random(seed))
        want = _listed_triples(bordisms, limit, random.Random(seed))
        assert len(got) == len(want) == limit
        assert all(x is y for g, w in zip(got, want) for x, y in zip(g, w))
    # below the limit, every triple in order
    assert oracles.composable_triples(bordisms[:40], 10**6, None) == _listed_triples(bordisms[:40], 10**6, None)


def test_homsets_suite_at_ordinal_five():
    report = SUITES["homsets"](5)
    assert report.is_ok, report.to_text()
    assert report.counts["strata_maps"] == 24947


def _diagrams_by_constructor(base, max_ordinal):
    """all_diagrams spelled by brute force: every product of cover maps, each
    given to DeltaDiagram(...), a DiagramError refusing it; (the diagrams
    kept, the refusal messages)."""
    kept, refused = [], []
    covers = base.covers()
    for ns in itertools.product(range(max_ordinal + 1), repeat=len(base.elements)):
        ords = {e: Ordinal(k) for e, k in zip(base.elements, ns)}
        for maps in itertools.product(*(enumerate_delta_maps(ords[a], ords[b]) for a, b in covers)):
            try:
                kept.append(DeltaDiagram(base, ords, dict(zip(covers, maps))))
            except DiagramError as exc:
                refused.append(str(exc))
    return kept, refused


def _maps_by_constructor(posets):
    """poset_maps over every ordered pair of posets, spelled by brute force:
    every assignment of target elements, given to PosetMap(...), a
    DomainError refusing it; (the maps kept, the refusal messages)."""
    kept, refused = [], []
    for src in posets:
        for dst in posets:
            for values in itertools.product(dst.elements, repeat=len(src.elements)):
                try:
                    kept.append(PosetMap(src, dst, dict(zip(src.elements, values))))
                except DomainError as exc:
                    refused.append(str(exc))
    return kept, refused


def _posets_by_filter(max_elements):
    """all_posets spelled by brute force: every relation on 1..max_elements
    of a, b, c, d, a choice per pair of distinct elements, kept when it is
    antisymmetric and transitive pair by pair; (the posets kept, the strict
    relations refused)."""
    kept, refused = [], []
    for n in range(1, max_elements + 1):
        els = "abcd"[:n]
        pairs = [(u, v) for u in els for v in els if u != v]
        for keep in itertools.product((False, True), repeat=len(pairs)):
            rel = [p for p, k in zip(pairs, keep) if k]
            if any((v, u) in rel for u, v in rel) or any(
                (u, w) not in rel for u, v in rel for v2, w in rel if v == v2 and u != w
            ):
                refused.append(repr(rel))
            else:
                kept.append(FinPoset(els, rel + [(e, e) for e in els]))
    return kept, refused


S0, R1 = Stratum.singular(0, 1), Stratum.regular(1, 1)
ANTISYMMETRY = repr([("a", "b"), ("b", "a")])
DIAMOND = FinPoset.from_covers(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])


def _arrow_total_space():
    """The 6-element total space of id: [1] -> [1] over the arrow."""
    d = DeltaDiagram(arrow_poset(), {"0": Ordinal(1), "1": Ordinal(1)}, {("0", "1"): DeltaMap.identity(1)})
    return total_space(d).carrier


ARROW_TOTAL = _arrow_total_space()


@pytest.mark.parametrize("family, spelled, kept, refused, first", [
    pytest.param(lambda: all_diagrams(DIAMOND, 2), lambda: _diagrams_by_constructor(DIAMOND, 2),
                 6743, 22874, "composites from 'a' to 'd' disagree through 'b' and 'c'", id="diamond, <= 2"),
    pytest.param(lambda: all_diagrams(ARROW_TOTAL, 1), lambda: _diagrams_by_constructor(ARROW_TOTAL, 1), 1714, 4888,
                 f"composites from {('0', S0)!r} to {('1', R1)!r} disagree through {('0', R1)!r} and {('1', S0)!r}",
                 id="total space of id over the arrow, <= 1"),
    pytest.param(lambda: [f for p in all_posets(3) for q in all_posets(3) for f in poset_maps(p, q)],
                 lambda: _maps_by_constructor(all_posets(3)), 4818, 6020, "map is not monotone on 'b' <= 'a'",
                 id="poset_maps over all_posets(3) squared"),
    *(pytest.param(lambda n=n: all_posets(n), lambda n=n: _posets_by_filter(n), kept, refused, first,
                   id=f"all_posets({n})")
      for n, kept, refused, first in [(1, 1, 0, None), (2, 4, 1, ANTISYMMETRY), (3, 23, 46, ANTISYMMETRY),
                                      (4, 242, 3923, ANTISYMMETRY)]),
])
def test_all_diagrams_is_the_constructor_over_every_product(family, spelled, kept, refused, first):
    # each side proves every product itself: no proof is shared through _PROVED
    tower._empty_tables()
    got = family()
    tower._empty_tables()
    want, messages = spelled()
    assert (len(want), len(messages), next(iter(messages), None)) == (kept, refused, first)
    assert got == want  # element by element: for a diagram its base, ordinals and cover maps
    assert [type(x) for x in got] == [type(w) for w in want]
    for d, w in zip(got, want):
        if isinstance(d, DeltaDiagram):  # and its path table, each cover its own route
            assert d._paths == w._paths and all(d.map_for(*c) is d.arrow[c] for c in d.base.covers())


def _paths_digest(diagrams) -> str:
    """sha256 of every (key, value) of each diagram's path table, in order."""
    h = hashlib.sha256()
    for d in diagrams:
        h.update(repr(list(d._paths.items())).encode())
    return h.hexdigest()[:12]


@pytest.mark.parametrize("family, digest", [
    (lambda: [d for p in all_posets(3) for d in all_diagrams(p, 2)], "393e15df753a"),
    (lambda: all_diagrams(DIAMOND, 2), "e65bbccbffd1"),
], ids=["all_posets(3), <= 2", "diamond, <= 2"])
def test_path_tables_are_pinned(family, digest):
    # the walk keeps each table's pairs, values and insertion order
    tower._empty_tables()
    assert _paths_digest(family()) == digest


def test_tables_over_one_base_share_their_keys_and_identities():
    # every diagram over DIAMOND at <= 1, and one more over an equal base built apart
    tower._empty_tables()
    diagrams = all_diagrams(DIAMOND, 1)
    again = FinPoset.from_covers(list(reversed(DIAMOND.elements)), DIAMOND.covers())
    assert again == DIAMOND and again is not DIAMOND
    diagrams.append(DeltaDiagram(again, dict.fromkeys("abcd", 2), {c: DeltaMap.identity(2) for c in again.covers()}))
    keys, ids = list(diagrams[0]._paths), {}
    for d in diagrams:
        assert len(d._paths) == len(keys) and all(k is j for k, j in zip(d._paths, keys))
        for x in d.base.elements:
            assert ids.setdefault(d.ord[x], d.map_for(x, x)) is d.map_for(x, x)
    assert len(ids) == 3


def test_empty_tables_empties_the_walks_and_identities():
    # and the duals a mesh round trip reads
    mesh.reg_extract(mesh.realize_bundle(all_diagrams(chain3_poset(), 1)[-1]))
    memos = (bundle._walk, ordinal._identities, ordinal.dual_delta_to_nabla, ordinal.dual_nabla_to_delta)
    assert all(memo.cache_info().currsize for memo in memos)
    tower._empty_tables()
    assert [memo.cache_info().currsize for memo in memos] == [0] * len(memos)


# the tables of constants, shared for the life of the process
CONSTANT_TABLES = (poset.point_poset, poset.arrow_poset, poset.path_poset, tower._end_inclusion, mesh._even_heights,
                   strata.fiber_objects, strata.validate_stratum_map)


def test_no_audit_counts_the_constant_posets():
    # built by the checking constructor, so a suite's counts do not depend on
    # which suite ran first in the process
    tables = (poset.point_poset, poset.arrow_poset, poset.path_poset)
    with audited() as counts:
        built = [table.__wrapped__() for table in tables]
    assert built == [table() for table in tables] and counts == {}
    assert_restored()


def test_every_memo_is_emptied_or_a_table_of_constants():
    # so a memo added later cannot outlive _empty_tables() and oracles.audited()
    modules = [importlib.import_module(f"trusskit.{m.name}") for m in pkgutil.iter_modules(trusskit.__path__)]
    memos = {id(fn): f"{module.__name__}.{name}" for module in [trusskit] + modules
             for name, fn in vars(module).items() if callable(fn) and hasattr(fn, "cache_clear")}
    known = {id(fn) for fn in tower._MEMOS + CONSTANT_TABLES}
    assert [name for key, name in memos.items() if key not in known] == []
    assert known <= memos.keys()


def test_the_diamond_family_is_bounded_in_memory():
    # 13.5 MB traced (Python 3.11) when every table made its own keys and identities
    tower._empty_tables()
    tracemalloc.start()
    try:
        diagrams = all_diagrams(DIAMOND, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(diagrams) == 6743 and peak < 10.5e6


# functors, the enumerator behind all_diagrams and poset_maps

ROUTE_CHECK = "if any(compose(vals[a], vals[b]) != value for a, b in rest):"


def test_an_enumerator_that_skips_its_route_check_is_caught_by_the_audit(monkeypatch):
    # unpatched, every diagram is one trusted install, audited as one layer
    with audited() as counts:
        assert len(all_diagrams(DIAMOND, 2)) == counts["layers"] == 6743
    source = inspect.getsource(oracles.functors)
    assert source.count(ROUTE_CHECK) == 1
    space = dict(vars(oracles))
    exec(source.replace(ROUTE_CHECK, "if False:"), space)
    monkeypatch.setattr(oracles, "functors", space["functors"])
    with audited():
        with pytest.raises(oracles._Disagreement, match="trusted functor"):
            all_diagrams(DIAMOND, 2)
    assert_restored()


def test_a_constructor_shares_the_table_of_a_listed_diagram(monkeypatch):
    # classify's rebuild of a listed diagram proves nothing again
    tower._empty_tables()
    diagrams = all_diagrams(DIAMOND, 1)
    calls, real = [], bundle.functor_table
    monkeypatch.setattr(bundle, "functor_table", lambda *args: calls.append(args) or real(*args))
    again = [DeltaDiagram(d.base, d.ord, d.arrow) for d in diagrams]
    assert not calls and all(a._paths is d._paths for a, d in zip(again, diagrams))


Z2 = LabelCategory(["*"], ["1", "e"], {"1": "*", "e": "*"}, {"1": "*", "e": "*"}, {"*": "1"},
                   {(f, g): "1" if f == g else "e" for f in "1e" for g in "1e"})


def _labelings_by_constructor(base, cat):
    """Every product of object and cover labels that Labeling(...) accepts."""
    kept, covers = [], base.covers()
    for objs in itertools.product(cat.objects, repeat=len(base.elements)):
        at = dict(zip(base.elements, objs))
        for labels in itertools.product(*(cat.hom(at[a], at[b]) for a, b in covers)):
            try:
                kept.append(Labeling(base, cat, at, dict(zip(covers, labels))))
            except LabelingError:
                continue
    return kept


@pytest.mark.parametrize("base", [*all_posets(3), DIAMOND], ids=lambda p: "diamond" if p is DIAMOND else None)
def test_functors_into_a_category_that_is_not_thin_are_the_labelings(base):
    # Z/2, one object and two morphisms: every route check compares labels
    want = _labelings_by_constructor(base, Z2)
    got = list(functors(base, Z2))
    assert len(got) == len(want) == (8 if base is DIAMOND else 2 ** len(base.covers()))
    for (at, paths), w in zip(got, want):
        assert at == w.on_objects and list(paths.items()) == list(w._paths.items())


def test_the_diamond_streams_in_bounded_memory():
    # 7.6 MB traced (Python 3.11) for the list all_diagrams(DIAMOND, 2) builds
    tower._empty_tables()
    tracemalloc.start()
    try:
        streamed = functors(DIAMOND, Delta(2))
        count = sum(1 for _ in streamed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 6743 and peak < 2e6
