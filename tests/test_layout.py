"""Planar layout of depth-2 trusses and the SVG emitter."""

from fractions import Fraction

import pytest

from trusskit import (
    POINT_ELEMENT,
    DeltaMap,
    LayoutError,
    Stratum,
    constant_inclusion,
    dual_delta_to_nabla,
    layout_2truss,
    realize_1truss,
    scene_to_svg,
)
from trusskit.bundle import LabelCategory
from trusskit.layout import Node, Region, Scene, Wire
from trusskit.oracles import tower_family
from trusskit.serialize import element_key

F = Fraction


def test_single_node_counts(single_node):
    scene = layout_2truss(single_node)
    assert scene.counts == {"regions": 4, "wires": 2, "nodes": 1}


def test_single_node_geometry(single_node):
    scene = layout_2truss(single_node)
    node = scene.nodes[0]
    assert (node.x, node.y) == (F(0), F(0))
    assert [w.points for w in scene.wires] == [
        ((F(0), F(-1)), (F(0), F(0))),
        ((F(0), F(0)), (F(0), F(1))),
    ]
    first = scene.regions[0]
    assert first.key == "pt.r0.r0"
    assert first.corners == (
        (F(-1), F(-1)),
        (F(0), F(-1)),
        (F(0), F(0)),
        (F(-1), F(0)),
    )


def test_scene_sorted_by_key(single_node):
    scene = layout_2truss(single_node)
    keys = [r.key for r in scene.regions]
    assert keys == sorted(keys)


def test_counts_match_stratum_pairs(single_node):
    scene = layout_2truss(single_node)
    top = single_node.top
    from collections import Counter

    kinds = Counter()
    for (_, x1), x2 in top.elements:
        kinds[x1.kind + x2.kind] += 1
    assert scene.counts["regions"] == kinds["rr"]
    assert scene.counts["wires"] == kinds["rs"]
    assert scene.counts["nodes"] == kinds["ss"]


def test_layout_requires_depth_two_over_point():
    cat = LabelCategory.terminal()
    t1 = constant_inclusion([1], "*", cat)
    with pytest.raises(LayoutError):
        layout_2truss(t1)
    b = constant_inclusion([DeltaMap.identity(1), DeltaMap.identity(1)], "*<=*", cat)
    with pytest.raises(LayoutError):
        layout_2truss(b)


def test_layout_constant_two_stage():
    cat = LabelCategory.terminal()
    t = constant_inclusion([2, 1], "*", cat)
    scene = layout_2truss(t)
    # three bands of two regions, one wire per band, one node per level
    assert scene.counts == {"regions": 6, "wires": 3, "nodes": 2}
    xs = {n.x for n in scene.nodes}
    ys = {n.y for n in scene.nodes}
    assert xs == {F(0)}
    assert ys == {F(-1, 3), F(1, 3)}


def test_svg_deterministic(single_node):
    scene = layout_2truss(single_node)
    a = scene_to_svg(scene)
    b = scene_to_svg(layout_2truss(single_node))
    assert a == b
    assert a.endswith("\n")


def test_svg_structure(single_node):
    svg = scene_to_svg(layout_2truss(single_node))
    assert svg.startswith('<?xml version="1.0"')
    assert 'viewBox="0 0 100 100"' in svg
    assert svg.count("<path") == 4
    assert svg.count("<polyline") == 2
    assert svg.count("<circle") == 1
    assert 'id="node-pt-s0-s0"' in svg
    assert 'r="3"' in svg


def test_labels_carried_into_scene(chain_cat):
    t = constant_inclusion([1, 1], "b", chain_cat)
    scene = layout_2truss(t)
    assert {r.label for r in scene.regions} == {"b"}
    assert {n.label for n in scene.nodes} == {"b"}


def reference_layout(t):
    """The layout computed from the stage data directly: evenly spaced
    fibers and the interval dual of each covering map, band by band."""
    s1, s2 = t.stages
    n = s1.ord[POINT_ELEMENT].n
    vertical = realize_1truss(n)

    def reg1(i):
        return (POINT_ELEMENT, Stratum.regular(i, n))

    def sing1(j):
        return (POINT_ELEMENT, Stratum.singular(j, n))

    fiber = {x: realize_1truss(s2.ord[x]) for x in s2.base.elements}

    def attach(band, idx, top):
        level = band if top else band - 1
        if 0 <= level < n:
            sigma = dual_delta_to_nabla(s2.arrow[(sing1(level), reg1(band))])
            return fiber[sing1(level)][sigma(idx)]
        return fiber[reg1(band)][idx]

    regions, wires, nodes = [], [], []
    for i in range(n + 1):
        x = reg1(i)
        m = s2.ord[x].n
        y_bot, y_top = vertical[i], vertical[i + 1]
        for j in range(m + 1):
            el = (x, Stratum.regular(j, m))
            regions.append(Region(element_key(el), t.labels.on_objects[el], (
                (attach(i, j, False), y_bot),
                (attach(i, j + 1, False), y_bot),
                (attach(i, j + 1, True), y_top),
                (attach(i, j, True), y_top),
            )))
        for k in range(m):
            el = (x, Stratum.singular(k, m))
            wires.append(Wire(element_key(el), t.labels.on_objects[el], (
                (attach(i, k + 1, False), y_bot),
                (attach(i, k + 1, True), y_top),
            )))
    for j in range(n):
        x = sing1(j)
        m = s2.ord[x].n
        for k in range(m):
            el = (x, Stratum.singular(k, m))
            nodes.append(Node(element_key(el), t.labels.on_objects[el], fiber[x][k + 1], vertical[j + 1]))
    return Scene(
        regions=tuple(sorted(regions, key=lambda r: r.key)),
        wires=tuple(sorted(wires, key=lambda w: w.key)),
        nodes=tuple(sorted(nodes, key=lambda p: p.key)),
    )


def test_layout_matches_reference_on_depth_two_families():
    cat = LabelCategory.terminal()
    towers = [t for seed in range(4) for t in tower_family(seed, 2) if t.depth == 2]
    towers += [constant_inclusion([a, b], "*", cat) for a in range(6) for b in range(6)]
    assert len(towers) == 1735
    for t in towers:
        scene, expected = layout_2truss(t), reference_layout(t)
        assert scene == expected
        assert scene_to_svg(scene) == scene_to_svg(expected)
