"""Regular/singular positions, their morphisms, and the fibers."""

import copy
import enum
import itertools
import pickle
import re
import time

import pytest
from hypothesis import given, strategies as st

from trusskit import (
    DeltaDiagram,
    DeltaMap,
    DomainError,
    FinPoset,
    Ordinal,
    Stratum,
    StratumMap,
    compose_strata,
    enumerate_delta_maps,
    factorization_poset,
    fiber_over_map,
    fiber_over_ordinal,
    forget_to_delta,
    arrow_poset,
    dumps,
    hom_strata,
    parse,
    realize_bundle,
    section_to_strata,
    stratum_targets,
    validate_stratum_map,
)
from trusskit import oracles
from trusskit.ordinal import compose_delta
from trusskit.strata import fiber_objects


def all_strata(max_n):
    out = []
    for n in range(max_n + 1):
        out.extend(Stratum.regular(i, n) for i in range(n + 1))
        out.extend(Stratum.singular(i, n) for i in range(n))
    return out


def cross_relations(f):
    p = fiber_over_map(f)
    rel = sorted(
        f"{a[1]}->{b[1]}"
        for a in p.elements
        for b in p.elements
        if a[0] == "src" and b[0] == "dst" and p.le(a, b)
    )
    cov = sorted(f"{a[1]}->{b[1]}" for (a, b) in p.covers() if a[0] == "src" and b[0] == "dst")
    return rel, cov


def test_stratum_validation():
    Stratum.regular(2, 2)
    Stratum.singular(1, 2)
    with pytest.raises(DomainError):
        Stratum.regular(3, 2)
    with pytest.raises(DomainError):
        Stratum.singular(2, 2)
    with pytest.raises(DomainError):
        Stratum("q", 0, 1)


@pytest.mark.parametrize("index, n", [(0, "x"), (0, True), (0, 1.5), ("0", 1), (False, 1), (0.0, 1)])
def test_stratum_rejects_non_int_index_and_ambient(index, n):
    with pytest.raises(DomainError):
        Stratum.regular(index, n)
    with pytest.raises(DomainError):
        Stratum.singular(index, n)


def test_stratum_parse_roundtrip():
    for x in all_strata(3):
        assert Stratum.parse(str(x)) == x
    with pytest.raises(DomainError):
        Stratum.parse("r1")
    with pytest.raises(DomainError):
        Stratum.parse("x0@1")


def test_hom_spot_values():
    assert len(hom_strata(Stratum.singular(0, 1), Stratum.regular(1, 2))) == 4
    assert len(hom_strata(Stratum.singular(0, 2), Stratum.singular(1, 2))) == 2


def test_regular_to_singular_always_empty():
    for x in all_strata(2):
        for y in all_strata(2):
            if x.is_regular and not y.is_regular:
                assert hom_strata(x, y) == ()


def test_ambient_mismatch_raises():
    with pytest.raises(DomainError):
        validate_stratum_map(
            Stratum.regular(0, 1), Stratum.regular(0, 1), DeltaMap(1, 2, (0, 2))
        )


def test_identity_and_associativity_small():
    objs = all_strata(1)
    homs = {(x, y): hom_strata(x, y) for x in objs for y in objs}
    for x in objs:
        ident = StratumMap(x, x, DeltaMap.identity(x.n))
        for y in objs:
            for f in homs[(x, y)]:
                assert compose_strata(ident, f) == f
            for f in homs[(y, x)]:
                assert compose_strata(f, ident) == f
    for x in objs:
        for y in objs:
            for z in objs:
                for w in objs:
                    for f in homs[(x, y)]:
                        for g in homs[(y, z)]:
                            for h in homs[(z, w)]:
                                assert compose_strata(compose_strata(f, g), h) == compose_strata(
                                    f, compose_strata(g, h)
                                )


def test_forgetful_functor_strict():
    x, y, z = Stratum.singular(0, 1), Stratum.singular(0, 2), Stratum.regular(1, 1)
    for f in hom_strata(x, y):
        for g in hom_strata(y, z):
            fg = compose_strata(f, g)
            assert forget_to_delta(fg).values == tuple(
                forget_to_delta(g)(v) for v in forget_to_delta(f).values
            )
    ident = StratumMap(x, x, DeltaMap.identity(1))
    assert forget_to_delta(ident) == DeltaMap.identity(1)


def test_fiber_shape():
    for n in range(6):
        p = fiber_over_ordinal(n)
        assert len(p.elements) == 2 * n + 1
        assert len(p.covers()) == 2 * n
        # zigzag: each singular position sits under its two flanking regulars
        for i in range(n):
            s = Stratum.singular(i, n)
            assert p.le(s, Stratum.regular(i, n))
            assert p.le(s, Stratum.regular(i + 1, n))


def test_fiber_over_terminal_ordinal_is_a_point():
    p = fiber_over_ordinal(0)
    assert p.elements == (Stratum.regular(0, 0),)
    assert p.covers() == ()


def test_fiber_outer_face_example():
    rel, cov = cross_relations(DeltaMap(1, 2, (1, 2)))
    assert rel == ["r0@1->r1@2", "r1@1->r2@2", "s0@1->r1@2", "s0@1->r2@2", "s0@1->s1@2"]
    assert cov == ["r0@1->r1@2", "r1@1->r2@2", "s0@1->s1@2"]


def test_fiber_degeneracy_example():
    rel, cov = cross_relations(DeltaMap(1, 0, (0, 0)))
    assert rel == ["r0@1->r0@0", "r1@1->r0@0", "s0@1->r0@0"]
    assert cov == ["r0@1->r0@0", "r1@1->r0@0"]


def test_fiber_inner_face_example():
    # the singular position splits in two and a regular level appears between
    rel, cov = cross_relations(DeltaMap(1, 2, (0, 2)))
    assert rel == [
        "r0@1->r0@2",
        "r1@1->r2@2",
        "s0@1->r0@2",
        "s0@1->r1@2",
        "s0@1->r2@2",
        "s0@1->s0@2",
        "s0@1->s1@2",
    ]
    assert cov == ["r0@1->r0@2", "r1@1->r2@2", "s0@1->s0@2", "s0@1->s1@2"]


def test_fiber_over_map_carries_both_fibers():
    f = DeltaMap(1, 2, (0, 2))
    p = fiber_over_map(f)
    assert len(p.elements) == 3 + 5
    src_side = [e for e in p.elements if e[0] == "src"]
    assert len(src_side) == 3


def test_factorization_preconditions():
    alpha = DeltaMap(1, 2, (0, 2))
    beta = DeltaMap(2, 0, (0, 0, 0))
    h = StratumMap(Stratum.singular(0, 1), Stratum.regular(0, 0), DeltaMap(1, 0, (0, 0)))
    factorization_poset(h.src, h.dst, h, alpha, beta)
    with pytest.raises(DomainError):
        factorization_poset(h.src, h.dst, h, beta, alpha)
    wrong = StratumMap(Stratum.regular(0, 1), Stratum.regular(0, 0), DeltaMap(1, 0, (0, 0)))
    with pytest.raises(DomainError):
        factorization_poset(h.src, h.dst, wrong, alpha, beta)


def test_factorization_with_cone_point():
    # regular source forces the unique regular middle
    alpha = DeltaMap(1, 2, (0, 2))
    beta = DeltaMap(2, 1, (0, 0, 1))
    h = StratumMap(Stratum.regular(0, 1), Stratum.regular(0, 1), DeltaMap.identity(1))
    mids = factorization_poset(h.src, h.dst, h, alpha, beta)
    assert mids.elements == (Stratum.regular(0, 2),)
    assert mids.minimum() == Stratum.regular(0, 2)


def test_factorization_zigzag_without_cone_point():
    # the middle set can be the whole fiber zigzag: connected, no extremum
    alpha = DeltaMap(1, 2, (0, 2))
    beta = DeltaMap(2, 0, (0, 0, 0))
    h = StratumMap(Stratum.singular(0, 1), Stratum.regular(0, 0), DeltaMap(1, 0, (0, 0)))
    mids = factorization_poset(h.src, h.dst, h, alpha, beta)
    assert set(mids.elements) == set(fiber_over_ordinal(2).elements)
    assert mids.is_connected()
    assert mids.minimum() is None
    assert mids.maximum() is None


def test_factorization_suite_counts_trees():
    report = oracles.suite_factorization(2)
    assert report.is_ok, report.to_text()
    assert report.counts["trees"] == report.counts["instances"] > 0


@pytest.mark.parametrize("elements, covers, message", [
    ("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
     "factorization poset is not a tree: 4 Hasse edges on 4 elements"),
    ("ab", [], "factorization poset is disconnected"),
    ("", [], "factorization poset is empty"),
])
def test_factorization_suite_fails_off_trees(monkeypatch, elements, covers, message):
    # a connected poset whose Hasse diagram has a cycle is not a tree
    poset = FinPoset.from_covers(list(elements), covers)
    monkeypatch.setattr(oracles, "factorization_poset", lambda *args: poset)
    report = oracles.suite_factorization(1)
    assert not report.is_ok
    assert report.diagnostics[0][1] == message
    assert report.counts["trees"] == 0


@given(st.data())
def test_hom_members_validate(data):
    objs = all_strata(2)
    x = data.draw(st.sampled_from(objs))
    y = data.draw(st.sampled_from(objs))
    morphisms = hom_strata(x, y)
    brute = [
        a for a in enumerate_delta_maps(x.n, y.n) if validate_stratum_map(x, y, a)
    ]
    assert [m.underlying for m in morphisms] == brute


# The quadratic builds that test every candidate pair, kept as references
# for the interval-based constructions.


def fiber_over_ordinal_reference(n):
    objs = fiber_objects(n)
    ident = DeltaMap.identity(n)
    leq = [(x, y) for x in objs for y in objs if validate_stratum_map(x, y, ident)]
    return FinPoset(objs, leq)


def fiber_over_map_reference(alpha):
    src_objs = fiber_objects(alpha.src.n)
    dst_objs = fiber_objects(alpha.dst.n)
    id_src = DeltaMap.identity(alpha.src)
    id_dst = DeltaMap.identity(alpha.dst)
    elements = [("src", x) for x in src_objs] + [("dst", y) for y in dst_objs]
    leq = []
    for x in src_objs:
        for y in src_objs:
            if validate_stratum_map(x, y, id_src):
                leq.append((("src", x), ("src", y)))
    for x in dst_objs:
        for y in dst_objs:
            if validate_stratum_map(x, y, id_dst):
                leq.append((("dst", x), ("dst", y)))
    for x in src_objs:
        for y in dst_objs:
            if validate_stratum_map(x, y, alpha):
                leq.append((("src", x), ("dst", y)))
    return FinPoset(elements, leq)


def factorization_poset_reference(x, z, alpha, beta):
    mid = alpha.dst.n
    ident = DeltaMap.identity(mid)
    objs = [
        y
        for y in fiber_objects(mid)
        if validate_stratum_map(x, y, alpha) and validate_stratum_map(y, z, beta)
    ]
    leq = [(a, b) for a in objs for b in objs if validate_stratum_map(a, b, ident)]
    return FinPoset(objs, leq)


def assert_same_poset(p, ref):
    assert p == ref
    assert p.elements == ref.elements
    assert list(p.leq) == list(ref.leq)
    assert p.covers() == ref.covers()


def test_stratum_targets_match_filter():
    for n, m in itertools.product(range(4), repeat=2):
        for a in enumerate_delta_maps(n, m):
            for x in fiber_objects(n):
                want = tuple(y for y in fiber_objects(m) if validate_stratum_map(x, y, a))
                assert stratum_targets(x, a) == want


def test_stratum_targets_ambient_mismatch_raises():
    with pytest.raises(DomainError):
        stratum_targets(Stratum.regular(0, 1), DeltaMap(2, 2, (0, 1, 2)))


def test_fiber_over_ordinal_matches_reference():
    for n in range(13):
        assert_same_poset(fiber_over_ordinal(n), fiber_over_ordinal_reference(n))


def test_fiber_over_map_matches_reference():
    for n, m in itertools.product(range(4), repeat=2):
        for a in enumerate_delta_maps(n, m):
            assert_same_poset(fiber_over_map(a), fiber_over_map_reference(a))


def test_factorization_poset_matches_reference():
    triangles = 0
    for a, b, c in itertools.product(range(3), repeat=3):
        for alpha in enumerate_delta_maps(a, b):
            for beta in enumerate_delta_maps(b, c):
                h = compose_delta(alpha, beta)
                triangles += 1
                for x in fiber_objects(a):
                    for z in fiber_objects(c):
                        if validate_stratum_map(x, z, h):
                            assert_same_poset(
                                factorization_poset(x, z, StratumMap(x, z, h), alpha, beta),
                                factorization_poset_reference(x, z, alpha, beta),
                            )
    assert triangles > 0


def test_fiber_over_large_ordinal_is_output_sensitive():
    start = time.perf_counter()
    p = fiber_over_ordinal(5000)
    assert time.perf_counter() - start < 5.0
    assert len(p.elements) == 10001
    assert len(p.leq) == 10001 + 2 * 5000


def test_hom_regular_pins_one_value():
    # the brute filter would build C(25, 13) = 5,200,300 maps to keep one
    maps = hom_strata(Stratum.regular(12, 12), Stratum.regular(0, 12))
    assert [m.underlying.values for m in maps] == [(0,) * 13]


def test_hom_large_set_is_lexicographic():
    maps = hom_strata(Stratum.regular(0, 10), Stratum.regular(5, 10))
    values = [m.underlying.values for m in maps]
    assert len(values) == 3003
    assert values == sorted(set(values))
    assert all(v[0] == 5 for v in values)


HUGE = 10 ** 20  # past the machine's index size


@pytest.mark.parametrize("x, y", [
    (Stratum.regular(0, HUGE), Stratum.regular(0, 1)),
    (Stratum.singular(0, 3), Stratum.regular(0, HUGE)),
], ids=["huge source", "huge target"])
def test_hom_past_the_machine_size_is_refused(x, y):
    with pytest.raises(DomainError, match=re.escape(f"hom({x}, {y}) is too large to enumerate")):
        hom_strata(x, y)


@pytest.mark.parametrize("make", [
    lambda: fiber_over_ordinal(HUGE),
    lambda: fiber_over_map(DeltaMap(0, HUGE, (0,))),
    lambda: fiber_objects(HUGE),
], ids=["over an ordinal", "over a map", "its positions"])
def test_fiber_past_the_machine_size_is_refused(make):
    with pytest.raises(DomainError, match=re.escape(f"the fiber over [{HUGE}] is too large to enumerate")):
        make()


class _Small(enum.IntEnum):
    ONE = 1
    TWO = 2


def test_stratum_routes_give_the_interned_instance():
    x = Stratum("s", 1, 2)
    assert Stratum("s", 1, 2) is x
    assert Stratum.singular(1, 2) is x
    assert Stratum.parse("s1@2") is x
    assert fiber_objects(2)[4] is x  # r0 r1 r2 s0 s1
    assert copy.copy(x) is x
    assert copy.deepcopy(x) is x
    assert copy.deepcopy([(("pt", x), x)])[0][0][1] is x
    assert pickle.loads(pickle.dumps(x)) is x
    assert Stratum.regular(_Small.TWO, 2) is Stratum.regular(2, 2)
    assert Stratum.singular(_Small.ONE, _Small.TWO) is x
    assert type(Stratum.singular(_Small.ONE, _Small.TWO).index) is int


def test_parsed_truss_elements_are_interned(single_node):
    back = parse(dumps(single_node))
    assert back.top.elements == single_node.top.elements
    for new, old in zip(back.top.elements, single_node.top.elements):
        assert new[1] is old[1]
        assert new[0][1] is old[0][1]


def test_mesh_section_strata_are_interned():
    m = realize_bundle(
        DeltaDiagram(arrow_poset(), {"0": Ordinal(1), "1": Ordinal(2)}, {("0", "1"): DeltaMap(1, 2, (0, 2))})
    )
    out = section_to_strata(m, {"0": ("s", 0), "1": ("r", _Small.ONE)})
    assert out["0"] is Stratum.singular(0, 1)
    assert out["1"] is Stratum.regular(1, 2)


def test_stratum_is_immutable():
    x = Stratum.regular(0, 1)
    for field in ("kind", "index", "n", "is_regular", "other"):
        with pytest.raises(AttributeError):
            setattr(x, field, 0)
    with pytest.raises(AttributeError):
        del x.kind
    assert not hasattr(x, "__dict__")
    assert (x.kind, x.index, x.n, x.is_regular) == ("r", 0, 1, True)
    assert repr(x) == "Stratum(kind='r', index=0, n=1)"


@pytest.mark.parametrize(
    "kind, index, n",
    [([], 0, 1), ({}, 0, 1), ("r", True, 1), ("r", 1, True), ("s", False, 1), ("q", 0, 1), ("r", 0, -1), ("s", 1, 1)],
)
def test_invalid_stratum_values_are_never_interned(kind, index, n):
    # intern the valid values these compare equal to, so a lookup that
    # skipped the checks would find them
    Stratum.regular(1, 1)
    Stratum.singular(0, 1)
    with pytest.raises(DomainError):
        Stratum(kind, index, n)


FIBER_GUARD = "a fiber lies over an ordinal [n] with n a nonnegative int"
F12 = DeltaMap(1, 2, (0, 2))
H = StratumMap(Stratum.singular(0, 1), Stratum.regular(0, 0), DeltaMap(1, 0, (0, 0)))
ID1 = StratumMap(Stratum.regular(0, 1), Stratum.regular(0, 1), DeltaMap.identity(1))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: fiber_over_ordinal("3"), FIBER_GUARD, id="fiber_over_ordinal('3')"),
    pytest.param(lambda: fiber_over_ordinal(2.0), FIBER_GUARD, id="fiber_over_ordinal(2.0)"),
    pytest.param(lambda: fiber_over_ordinal(True), FIBER_GUARD, id="fiber_over_ordinal(True)"),
    pytest.param(lambda: fiber_over_ordinal(-1), FIBER_GUARD, id="fiber_over_ordinal(-1)"),
    pytest.param(lambda: fiber_objects(-1), FIBER_GUARD, id="fiber_objects(-1)"),
    pytest.param(lambda: fiber_objects(Ordinal(2)), FIBER_GUARD, id="fiber_objects(Ordinal(2))"),
    pytest.param(lambda: fiber_over_map(5), "fiber_over_map needs a DeltaMap, got 5", id="fiber_over_map(5)"),
    pytest.param(lambda: fiber_over_map(Stratum.regular(0, 1)), "fiber_over_map needs a DeltaMap",
                 id="fiber_over_map(stratum)"),
    pytest.param(lambda: stratum_targets(5, F12), "stratum_targets needs a stratum and a map, got 5",
                 id="stratum_targets(5, f)"),
    pytest.param(lambda: stratum_targets(Stratum.regular(0, 1), (0, 2)), "stratum_targets needs a stratum and a map",
                 id="stratum_targets(x, (0, 2))"),
    pytest.param(lambda: factorization_poset(H.src, H.dst, 5, F12, DeltaMap(2, 0, (0, 0, 0))),
                 "factorization_poset needs two strata, a stratum map and two maps", id="factorization_poset(x, z, 5, a, b)"),
    pytest.param(lambda: factorization_poset(H.src, H.dst, H, F12, (0, 0, 0)),
                 "factorization_poset needs two strata, a stratum map and two maps", id="factorization_poset(x, z, h, a, 5)"),
    pytest.param(lambda: factorization_poset("s0@1", H.dst, H, F12, DeltaMap(2, 0, (0, 0, 0))),
                 "factorization_poset needs two strata, a stratum map and two maps", id="factorization_poset('s0@1', ...)"),
    pytest.param(lambda: compose_strata(5, 6), "compose_strata needs two stratum maps, got 5 and 6",
                 id="compose_strata(5, 6)"),
    pytest.param(lambda: compose_strata(H, 6), "compose_strata needs two stratum maps", id="compose_strata(h, 6)"),
    pytest.param(lambda: compose_strata(H, H), f"cannot compose {H} before {H}", id="compose_strata(h, h)"),
    pytest.param(lambda: factorization_poset(ID1.src, ID1.dst, ID1, DeltaMap(1, 1, (0, 0)), DeltaMap(1, 1, (0, 0))),
                 f"{ID1} does not lie over the composite of", id="factorization_poset(x, x, id, c, c)"),
])
def test_strata_entry_points_refuse_a_wrong_type(call, message):
    fiber_objects(2)  # cached, so a value equal to 2 could meet it
    with pytest.raises(DomainError, match=re.escape(message)):
        call()
