"""The target categories of the CoverFunctor classes: each fixed target is a
category at desk scale, oracles.functors takes a category value, and so
does a Labeling."""

import itertools
import json
import re
from types import SimpleNamespace

import pytest

from trusskit import (
    POINT_ELEMENT,
    DeltaDiagram,
    DeltaMap,
    DomainError,
    FinPoset,
    LabelCategory,
    Labeling,
    LabelingError,
    NablaDiagram,
    Ordinal,
    PackedTower,
    PackingError,
    ParseError,
    PLMeshBundle,
    TrussTower,
    arrow_poset,
    compose_bordisms,
    constant_inclusion,
    dumps,
    identity_bordism,
    pack,
    parse,
    point_poset,
    total_space,
    unpack,
)
from trusskit.mesh import realize_1truss
from trusskit.oracles import functors, tower_family
from trusskit.tower import truss_category
from trusskit.ordinal import Delta, enumerate_delta_maps, enumerate_nabla_maps

INTERVALS = [Ordinal(n) for n in (1, 2, 3)]
# the cyclic group of order 2: one object, not thin
Z2 = LabelCategory(["*"], ["1", "e"], {"1": "*", "e": "*"}, {"1": "*", "e": "*"}, {"*": "1"},
                   {(f, g): "1" if f == g else "e" for f in "1e" for g in "1e"})

CASES = {
    # Δ over the ordinals <= 2
    "delta": (DeltaDiagram.target, [Ordinal(n) for n in (0, 1, 2)], enumerate_delta_maps),
    # ∇^op over the interval ordinals 1-3: a morphism a -> b is an interval map [b] -> [a]
    "nabla-op": (NablaDiagram.target, INTERVALS, lambda a, b: enumerate_nabla_maps(b, a)),
    # 1-meshes over the same intervals, attached backward alike
    "meshes": (PLMeshBundle.target, [realize_1truss(n.n - 1) for n in INTERVALS],
               lambda h, k: enumerate_nabla_maps(k.interval, h.interval)),
}


@pytest.mark.parametrize("name", CASES)
def test_each_fixed_target_is_a_category(name):
    target, objects, hom = CASES[name]
    compose, identity = target.compose_pair, target.identity_of
    arrows = {(a, b): hom(a, b) for a in objects for b in objects}
    for (a, b), fs in arrows.items():
        for f in fs:
            assert compose(identity(a), f) == f == compose(f, identity(b))
    triples = 0
    for a, b, c, d in itertools.product(objects, repeat=4):
        for f, g, h in itertools.product(arrows[(a, b)], arrows[(b, c)], arrows[(c, d)]):
            fg = compose(f, g)
            assert fg in arrows[(a, c)]
            assert compose(fg, h) == compose(f, compose(g, h))
            triples += 1
    assert triples > 1000


def test_each_functor_class_names_its_target():
    lab = Labeling(arrow_poset(), Z2, {"0": "*", "1": "*"}, {("0", "1"): "e"})
    assert lab.target is Z2 and lab.map_for("0", "0") == Z2.identity_of("*") == "1"
    assert isinstance(DeltaDiagram.target, Delta) and not DeltaDiagram.target.objects
    assert type(NablaDiagram.target) is not type(PLMeshBundle.target)


def test_functors_take_the_category_itself():
    got = list(functors(arrow_poset(), Z2))
    assert [paths[("0", "1")] for _, paths in got] == ["1", "e"]
    assert all(paths[("0", "0")] == paths[("1", "1")] == "1" for _, paths in got)
    # a bounded Δ: [0] and [1] over the arrow, with every map between them
    bounded = list(functors(arrow_poset(), Delta(1)))
    assert Delta(1).objects == (Ordinal(0), Ordinal(1))
    assert len(bounded) == sum(len(enumerate_delta_maps(a, b)) for a in Delta(1).objects for b in Delta(1).objects)


class PlainZ2:
    """Z/2 as a plain hashable value, no LabelCategory: the tables a Labeling
    reads (the keys of identity are the objects, those of src the morphisms)
    and the two operations its proof composes with."""

    identity = {"*": "1"}
    src = dst = {"1": "*", "e": "*"}

    def identity_of(self, o):
        return self.identity[o]

    def compose_pair(self, f, g):
        return "1" if f == g else "e"


PLAIN = PlainZ2()
DIAMOND = FinPoset.from_covers("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])


def test_a_category_value_that_is_no_label_category_labels_the_arrow():
    lab = Labeling(arrow_poset(), PLAIN, {"0": "*", "1": "*"}, {("0", "1"): "e"})
    assert lab.target is PLAIN
    assert [lab.map_for(*pair) for pair in (("0", "0"), ("0", "1"), ("1", "1"))] == ["1", "e", "1"]
    same = Labeling(arrow_poset(), PLAIN, {"0": "*", "1": "*"}, {("0", "1"): "e"})
    assert same == lab and hash(same) == hash(lab)
    assert lab != Labeling(arrow_poset(), Z2, {"0": "*", "1": "*"}, {("0", "1"): "e"})
    # on the diamond, the routes through b and through c compose in Z/2
    covers = {("a", "b"): "e", ("a", "c"): "e", ("b", "d"): "e", ("c", "d"): "e"}
    assert Labeling(DIAMOND, PLAIN, dict.fromkeys("abcd", "*"), covers).map_for("a", "d") == "1"


@pytest.mark.parametrize("domain, on_objects, on_relations", [
    (arrow_poset(), {"0": "zz", "1": "*"}, {("0", "1"): "e"}),
    (arrow_poset(), {"0": ["*"], "1": "*"}, {("0", "1"): "e"}),
    (arrow_poset(), {"0": "*", "1": "*"}, {("0", "1"): "zz"}),
    (arrow_poset(), {"0": "*", "1": "*"}, {("0", "1"): ["e"]}),
    (DIAMOND, dict.fromkeys("abcd", "*"), {("a", "b"): "e", ("a", "c"): "1", ("b", "d"): "1", ("c", "d"): "1"}),
], ids=["object", "unhashable object", "morphism", "unhashable morphism", "routes disagree"])
def test_a_plain_category_refuses_labels_as_a_label_category_does(domain, on_objects, on_relations):
    texts = []
    for target in (PLAIN, Z2):
        with pytest.raises(LabelingError) as refused:
            Labeling(domain, target, on_objects, on_relations)
        texts.append(str(refused.value))
    assert texts[0] == texts[1]


def test_a_tower_labelled_in_a_plain_category_packs_but_does_not_serialize():
    d = DeltaDiagram(point_poset(), {POINT_ELEMENT: Ordinal(1)}, {})
    top = total_space(d).carrier
    t = TrussTower(point_poset(), (d,), Labeling(top, PLAIN, dict.fromkeys(top.elements, "*"),
                                                 {c: "e" for c in top.covers()}))
    assert unpack(pack(t)) == t
    assert identity_bordism(t).end(0) == t == identity_bordism(t).end(1)
    with pytest.raises(ParseError, match="only a LabelCategory serializes, got PlainZ2"):
        dumps(t)


class TablesOnly:
    """Z/2's tables without the operations the proof composes with."""

    identity, src, dst = PlainZ2.identity, PlainZ2.src, PlainZ2.dst


def test_a_category_value_must_be_hashable_and_have_the_tables_and_operations():
    unhashable = SimpleNamespace(identity=PLAIN.identity, src=PLAIN.src, dst=PLAIN.dst,
                                 identity_of=PLAIN.identity_of, compose_pair=PLAIN.compose_pair)
    for target in (unhashable, TablesOnly(), object()):
        with pytest.raises(LabelingError, match=re.escape(
                f"a Labeling's target must be a category, got {type(target).__name__}")):
            Labeling(arrow_poset(), target, {"0": "*", "1": "*"}, {("0", "1"): "e"})


def test_a_plain_category_labels_constant_towers_and_bordisms():
    alpha = DeltaMap(1, 2, (0, 2))
    for data, label in (([1, 2], "*"), ([alpha], "e")):
        plain, group = (constant_inclusion(data, label, target) for target in (PLAIN, Z2))
        assert plain.labels.target is PLAIN and plain.base == group.base and plain.stages == group.stages
        assert plain.labels.on_objects == group.labels.on_objects
        assert plain.labels.on_relations == group.labels.on_relations
    b = constant_inclusion([alpha], "e", PLAIN)
    assert b.end(0) == constant_inclusion([1], "*", PLAIN) and b.end(1) == constant_inclusion([2], "*", PLAIN)
    # the refusals read the same tables, so their texts are the LabelCategory's
    for data, label in (([1], "zz"), ([alpha], "zz"), ([], "zz"), ([1], ["*"])):
        texts = []
        for target in (PLAIN, Z2):
            with pytest.raises(DomainError) as refused:
                constant_inclusion(data, label, target)
            texts.append(str(refused.value))
        assert texts[0] == texts[1]
    with pytest.raises(DomainError, match="constant_inclusion needs a category, got object"):
        constant_inclusion([1], "*", object())


def test_the_truss_category_equals_and_hashes_by_its_labels():
    again = LabelCategory(Z2.objects, Z2.morphisms, Z2.src, Z2.dst, Z2.identity, Z2.compose)
    assert again is not Z2 and truss_category(again) == truss_category(Z2)
    assert hash(truss_category(again)) == hash(truss_category(Z2))
    assert truss_category(PLAIN) != truss_category(Z2) != Z2
    assert truss_category(truss_category(Z2)) == truss_category(truss_category(again))
    assert truss_category(truss_category(Z2)) != truss_category(Z2)


def test_the_truss_category_answers_only_for_depth_1_towers_labelled_in_its_category():
    cat = truss_category(Z2)
    t, g = constant_inclusion([1], "*", Z2), constant_inclusion([DeltaMap(1, 1, (0, 1))], "e", Z2)
    assert cat.identity[t] == cat.identity_of(t) == identity_bordism(t)
    assert (cat.src[g], cat.dst[g]) == (g.end(0), g.end(1)) == (t, t)
    assert cat.compose_pair(g, g) == compose_bordisms(g, g)
    deep, other = constant_inclusion([1, 1], "*", Z2), constant_inclusion([1], "*", PLAIN)
    deep_g = constant_inclusion([DeltaMap(1, 1, (0, 1))] * 2, "e", Z2)
    other_g = constant_inclusion([DeltaMap(1, 1, (0, 1))], "e", PLAIN)
    # a depth-2 tower, one labelled in another category, a bordism as an object, an object as a morphism
    for table, wrong in ((cat.identity, (deep, other, g, "*", 5)), (cat.src, (deep_g, other_g, t, "e", 5)),
                         (cat.dst, (deep_g, other_g, t, "e", 5))):
        for x in wrong:
            assert x not in table
            with pytest.raises(KeyError):
                table[x]
    # so a Labeling in it words its refusals as in any category
    with pytest.raises(LabelingError, match="of 'pt' is not an object"):
        Labeling(point_poset(), cat, {POINT_ELEMENT: deep}, {})
    with pytest.raises(LabelingError, match=r"of cover \('0', '1'\) is not a morphism"):
        Labeling(arrow_poset(), cat, {"0": t, "1": t}, {("0", "1"): other_g})


def test_pack_and_the_parser_label_in_the_truss_category_of_the_labels():
    towers = [t for t in tower_family(0, 1) if t.depth >= 1][::7]
    for t in towers:
        p = pack(t)
        assert p.tower.labels.target == truss_category(t.labels.target)
        assert parse(dumps(p)).tower.labels.target == truss_category(t.labels.target)
    doubles = [t for t in towers if t.depth >= 2]
    for t in doubles:
        twice = pack(pack(t).tower)
        assert twice.tower.labels.target == truss_category(truss_category(t.labels.target))
        assert unpack(PackedTower(unpack(twice))) == t
    assert doubles


def _tampered_packed(edit) -> str:
    """dumps(pack(t)) of a depth-2 tower whose last stage has covers, as a
    JSON object edited in place by edit."""
    t = next(t for t in tower_family(0, 1) if t.depth == 2 and t.stages[-1].base.covers())
    obj = json.loads(dumps(pack(t)))
    edit(obj, t)
    return json.dumps(obj)


def _foreign_end(obj, t):
    foreign = constant_inclusion([5], t.labels.target.objects[0], t.labels.target)
    obj["relations"]["pt.s0->pt.r0"] = json.loads(dumps(identity_bordism(foreign)))


def _identity_at_r0(obj, t):
    fiber = pack(t).tower.labels.on_objects[t.stages[-1].base.elements[0]]
    obj["relations"]["pt.s0->pt.r0"] = json.loads(dumps(identity_bordism(fiber)))


def _extra_object(obj, t):
    cat = obj["objects"]["pt.s0"]["labels"]["category"]
    cat["objects"].append("z")
    cat["morphisms"].append("z<=z")
    cat["src"]["z<=z"] = cat["dst"]["z<=z"] = "z"
    cat["identity"]["z"] = "z<=z"
    cat["compose"]["z<=z|z<=z"] = "z<=z"


@pytest.mark.parametrize("edit, error, text", [
    (lambda obj, t: obj["objects"].update({"pt.r0": obj["relations"]["pt.s0->pt.r0"]}),
     PackingError, "an object is not a tower over the point"),
    (lambda obj, t: obj["relations"].update({"pt.s0->pt.r0": obj["objects"]["pt.r0"]}),
     PackingError, "a generator is not a bordism: its base is not the arrow poset"),
    (_foreign_end, PackingError, "a generator's endpoint is not among the objects"),
    (_extra_object, PackingError, "fiber trusses are labelled in different categories"),
    (_identity_at_r0, LabelingError,
     "label of cover (('pt', Stratum(kind='s', index=0, n=1)), ('pt', Stratum(kind='r', index=0, n=1)))"
     " has wrong endpoints"),
], ids=["object over the arrow", "generator over the point", "foreign end", "mixed categories", "wrong ends"])
def test_the_packed_parser_refuses_bad_pieces_in_its_own_words(edit, error, text):
    with pytest.raises(error) as refused:
        parse(_tampered_packed(edit))
    assert str(refused.value) == text
