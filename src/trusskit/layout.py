"""Geometric layout of depth-2 trusses, read off the realized mesh.

A depth-2 picture is the projection of the tower's realized 2-mesh:
mesh.realize_bundle alone decides where sheets sit and where they attach.
The heights of the first stage's mesh over the point, the shared
realize_1truss instance of its ordinal, are the singular levels of the
vertical axis; the second stage's mesh puts singular points on each level
and band, and its attachment maps say where a band's sheets meet the
levels above and below it (outer boundaries keep the band's own heights).
Each element of the stage-2 total space is drawn by its pair of strata,
the second stage's over the first stage's:

  regular over regular   -> region (a quad between attachment heights)
  singular over regular  -> wire (a segment crossing the band)
  singular over singular -> node (a point on its level)
  regular over singular  -> nothing (a stretch of a level between nodes)
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import LayoutError
from .mesh import realize_1truss, realize_bundle
from .poset import POINT_ELEMENT, point_poset
from .serialize import element_key, next_keys
from .strata import Stratum
from .tower import TrussTower


@dataclass(frozen=True)
class Region:
    key: str
    label: object
    corners: tuple


@dataclass(frozen=True)
class Wire:
    key: str
    label: object
    points: tuple


@dataclass(frozen=True)
class Node:
    key: str
    label: object
    x: object
    y: object


@dataclass(frozen=True)
class Scene:
    regions: tuple
    wires: tuple
    nodes: tuple

    @property
    def counts(self) -> dict:
        return {
            "regions": len(self.regions),
            "wires": len(self.wires),
            "nodes": len(self.nodes),
        }


def layout_2truss(t: TrussTower) -> Scene:
    """Lay out a depth-2 truss over the point as regions, wires and nodes."""
    if not isinstance(t, TrussTower) or t.base != point_poset():
        raise LayoutError("layout needs a truss tower over the point")
    if t.depth != 2:
        raise LayoutError(f"layout supports depth 2 only, got depth {t.depth}")
    s1, s2 = t.stages
    vertical = realize_1truss(s1.ord[POINT_ELEMENT])
    m = realize_bundle(s2)
    n = s1.ord[POINT_ELEMENT].n

    def edge(band, level):
        # sheet positions of a band on singular level `level`; outer
        # boundaries keep the band's own heights
        if not 0 <= level < n:
            return m.heights[band].__getitem__
        s = (POINT_ELEMENT, Stratum.singular(level, n))
        return lambda idx: m.heights[s][m.sing[(s, band)](idx)]

    regions, wires, nodes = [], [], []
    for el, key in zip(t.top.elements, next_keys(next_keys((element_key(POINT_ELEMENT),), s1), s2)):
        x, e = el
        pair = x[1].kind + e.kind
        if pair == "sr":
            continue
        i, k = x[1].index, e.index
        label = t.labels.on_objects[el]
        if pair == "ss":
            nodes.append(Node(key, label, m.heights[x][k + 1], vertical[i + 1]))
            continue
        bot, top = edge(x, i - 1), edge(x, i)
        y_bot, y_top = vertical[i], vertical[i + 1]
        if pair == "rr":
            corners = ((bot(k), y_bot), (bot(k + 1), y_bot), (top(k + 1), y_top), (top(k), y_top))
            regions.append(Region(key, label, corners))
        else:
            wires.append(Wire(key, label, ((bot(k + 1), y_bot), (top(k + 1), y_top))))
    return Scene(
        regions=tuple(sorted(regions, key=lambda r: r.key)),
        wires=tuple(sorted(wires, key=lambda w: w.key)),
        nodes=tuple(sorted(nodes, key=lambda p: p.key)),
    )


def _coord(v) -> str:
    text = format(float(v), ".4f").rstrip("0").rstrip(".")
    return text if text else "0"


def _sx(x) -> str:
    return _coord((x + 1) * 50)


def _sy(y) -> str:
    return _coord((1 - y) * 50)


def _svg_id(prefix: str, key: str) -> str:
    return prefix + "-" + re.sub(r"[^A-Za-z0-9_-]", "-", key)


def scene_to_svg(scene: Scene) -> str:
    """Deterministic SVG 1.1 text for a scene; same scene, same bytes."""
    if not isinstance(scene, Scene):
        raise LayoutError(f"scene_to_svg needs a Scene, got {type(scene).__name__}")
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="0 0 100 100">',
    ]
    for r in scene.regions:
        path = " L ".join(f"{_sx(x)},{_sy(y)}" for x, y in r.corners)
        lines.append(
            f'  <path id="{_svg_id("region", r.key)}" d="M {path} Z" '
            'fill="#dce6f2" stroke="#8aa0b8" stroke-width="0.4"/>'
        )
    for w in scene.wires:
        pts = " ".join(f"{_sx(x)},{_sy(y)}" for x, y in w.points)
        lines.append(
            f'  <polyline id="{_svg_id("wire", w.key)}" points="{pts}" '
            'fill="none" stroke="#1d3352" stroke-width="1.2"/>'
        )
    for p in scene.nodes:
        lines.append(
            f'  <circle id="{_svg_id("node", p.key)}" cx="{_sx(p.x)}" cy="{_sy(p.y)}" '
            'r="3" fill="#132031"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
