"""The target categories of the CoverFunctor classes: each fixed target is a
category at desk scale, and oracles.functors takes a category value."""

import itertools

import pytest

from trusskit import DeltaDiagram, LabelCategory, Labeling, NablaDiagram, Ordinal, PLMeshBundle, arrow_poset
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
