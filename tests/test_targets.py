"""The target categories of the CoverFunctor classes: each fixed target is a
category at desk scale, oracles.functors takes a category value, and so
does a Labeling."""

import itertools
import re
from types import SimpleNamespace

import pytest

from trusskit import (
    POINT_ELEMENT,
    DeltaDiagram,
    FinPoset,
    LabelCategory,
    Labeling,
    LabelingError,
    NablaDiagram,
    Ordinal,
    ParseError,
    PLMeshBundle,
    TrussTower,
    arrow_poset,
    dumps,
    identity_bordism,
    pack,
    point_poset,
    total_space,
    unpack,
)
from trusskit.mesh import realize_1truss
from trusskit.oracles import functors
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
