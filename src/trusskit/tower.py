"""Labelled truss towers and their bordisms.

A tower of depth n stacks n bundles: the first lives over the tower's base,
each later one over the total space of the one before, and the labels form a
functor from the topmost total space into a label category.  A bordism is a
tower whose root base is the walking arrow.  Every restriction of a tower
goes through pullback_tower: the ends and identities of bordisms, the
composite of two bordisms (their data glued over the chain {0 < 1 < 2} and
pulled back along the outer arrow {0 < 2}) and the fiber trusses and cover
bordisms of pack.  Factorization middles of crossing composites are only
looked at by compose_bordisms_audited, which checks that each one gives the
composite's value.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    CompositionError,
    DiagramError,
    DomainError,
    InternalError,
    PackingError,
)
from .ordinal import DeltaMap, Ordinal, compose_delta
from .poset import (
    POINT_ELEMENT,
    FinPoset,
    PosetMap,
    arrow_poset,
    path_poset,
    point_poset,
)
from .bundle import DeltaDiagram, LabelCategory, Labeling, pullback_bundle, total_space


def root_of(el):
    """The root base element under an iterated total-space element."""
    while isinstance(el, tuple):
        el = el[0]
    return el


class TrussTower:
    """A chain of bundles, each over the previous total space, plus labels."""

    def __init__(self, base: FinPoset, stages, labels: Labeling):
        self.base = base
        self.stages = tuple(stages)
        self.labels = labels
        expected = base
        totals = []
        for k, d in enumerate(self.stages):
            if d.base != expected:
                raise DomainError(f"stage {k + 1} does not live over the previous total space")
            tot = total_space(d)
            totals.append(tot)
            expected = tot.carrier
        self.totals = tuple(totals)
        self.top = expected
        if labels.domain != self.top:
            raise DomainError("labels must be a functor on the topmost total space")
        self._hash = hash((self.base, self.stages, self.labels))

    @property
    def depth(self) -> int:
        return len(self.stages)

    def __eq__(self, other):
        return (
            isinstance(other, TrussTower)
            and self.base == other.base
            and self.stages == other.stages
            and self.labels == other.labels
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"TrussTower(depth={self.depth}, top={len(self.top.elements)} elements)"


class Bordism(TrussTower):
    """A tower over the walking arrow; its endpoint restrictions are towers
    over the point."""

    def __init__(self, base, stages, labels):
        if base != arrow_poset():
            raise DomainError("a bordism's root base must be the arrow poset")
        super().__init__(base, stages, labels)
        self._ends = {}

    def end(self, which: int) -> TrussTower:
        if which not in self._ends:
            self._ends[which] = restrict_bordism(self, which)
        return self._ends[which]


@dataclass(frozen=True)
class PackedTower:
    """A tower one level shallower whose labels are fiber trusses and cover
    bordisms in a synthesized truss category."""

    tower: TrussTower

    @property
    def depth(self) -> int:
        return self.tower.depth


@dataclass(frozen=True)
class CompositionAudit:
    """How many crossing composites were formed and how many factorization
    choices were checked to agree while composing two bordisms."""

    crossings: int
    alternatives: int


def pullback_tower(t: TrussTower, f: PosetMap) -> TrussTower:
    """Restrict a tower stagewise along a monotone map into its base."""
    if f.dst != t.base:
        raise DomainError("pullback map must land in the tower's base")
    cur_base = f.src
    cur_map = dict(f.mapping)
    stages = []
    for d in t.stages:
        d2 = pullback_bundle(d, PosetMap(cur_base, d.base, cur_map))
        stages.append(d2)
        carrier = total_space(d2).carrier
        cur_map = {(b, e): (cur_map[b], e) for (b, e) in carrier.elements}
        cur_base = carrier
    labels = Labeling(
        cur_base,
        t.labels.target,
        {x: t.labels.on_objects[cur_map[x]] for x in cur_base.elements},
        {(u, v): t.labels.morphism_for(cur_map[u], cur_map[v]) for (u, v) in cur_base.covers()},
    )
    return TrussTower(f.src, stages, labels)


def restrict_bordism(b: TrussTower, end: int) -> TrussTower:
    """The tower over the point sitting at one end of a bordism."""
    if end not in (0, 1):
        raise DomainError("end must be 0 or 1")
    incl = PosetMap(point_poset(), arrow_poset(), {POINT_ELEMENT: str(end)})
    return pullback_tower(b, incl)


def identity_bordism(t: TrussTower) -> Bordism:
    """Pull a tower over the point back along the collapse of the arrow."""
    if t.base != point_poset():
        raise DomainError("identity bordisms are formed on towers over the point")
    collapse = PosetMap(arrow_poset(), point_poset(), {"0": POINT_ELEMENT, "1": POINT_ELEMENT})
    pb = pullback_tower(t, collapse)
    return Bordism(pb.base, pb.stages, pb.labels)


def _retag(el, rootmap):
    if isinstance(el, tuple):
        return (_retag(el[0], rootmap), el[1])
    return rootmap[el]


_SIDES = ({"0": "0", "1": "1"}, {"0": "1", "1": "2"})


def _merge(tables, on_covers: bool, what: str) -> dict:
    """Retag the two sides' tables (keyed by elements, or by covering
    pairs) onto {0 < 1 < 2}; the sides must agree where they meet."""
    merged = {}
    for table, rmap in zip(tables, _SIDES):
        for key, value in table.items():
            g = (_retag(key[0], rmap), _retag(key[1], rmap)) if on_covers else _retag(key, rmap)
            if merged.setdefault(g, value) != value:
                raise InternalError(f"glued bordisms disagree on a shared {what}")
    return merged


def _glue(b1: TrussTower, b2: TrussTower) -> TrussTower:
    """Lay two boundary-matched bordisms side by side over {0 < 1 < 2}."""
    base = path_poset()
    stages = []
    for d1, d2 in zip(b1.stages, b2.stages):
        ords = _merge((d1.ord, d2.ord), False, "fiber ordinal")
        arrows = _merge((d1.arrow, d2.arrow), True, "covering map")
        if set(ords) != set(base.elements):
            raise InternalError("glued stage base does not match the expected total space")
        if set(arrows) != set(base.covers()):
            raise InternalError("a covering relation of the glued base crosses the seam")
        d_g = DeltaDiagram(base, ords, arrows)
        stages.append(d_g)
        base = total_space(d_g).carrier
    l1, l2 = b1.labels, b2.labels
    if l1.target != l2.target:
        raise CompositionError("bordisms are labelled in different categories")
    on_obj = _merge((l1.on_objects, l2.on_objects), False, "label")
    on_rel = _merge((l1.on_relations, l2.on_relations), True, "relation label")
    if set(on_rel) != set(base.covers()):
        raise InternalError("a top covering relation of the glued tower crosses the seam")
    labels = Labeling(base, l1.target, on_obj, on_rel)
    return TrussTower(path_poset(), stages, labels)


def _via_middles(poset: FinPoset, a, b, value, compute) -> int:
    """Check that a crossing composite from a to b gives ``value`` through
    every factorization middle over "1"; returns how many middles there are."""
    mids = [
        y for y in poset.elements
        if root_of(y) == "1" and poset.le(a, y) and poset.le(y, b)
    ]
    if not mids:
        raise InternalError(f"empty factorization middle set between {a!r} and {b!r}")
    for y in mids:
        if compute(y) != value:
            raise InternalError(f"factorization middle {y!r} disagrees with the composite"
                                f" from {a!r} to {b!r}")
    return len(mids)


_OUTER = {"0": "0", "1": "2"}


def _composite(b1: TrussTower, b2: TrussTower):
    """Check that b1 then b2 compose; returns (glued, composite)."""
    if b1.base != arrow_poset() or b2.base != arrow_poset():
        raise CompositionError("both arguments must be bordisms over the arrow poset")
    if b1.depth != b2.depth:
        raise CompositionError("bordisms of different depth do not compose")
    left_end = b1.end(1) if isinstance(b1, Bordism) else restrict_bordism(b1, 1)
    right_end = b2.end(0) if isinstance(b2, Bordism) else restrict_bordism(b2, 0)
    if left_end != right_end:
        raise CompositionError("bordism endpoints do not match")
    glued = _glue(b1, b2)
    pb = pullback_tower(glued, PosetMap(arrow_poset(), path_poset(), _OUTER))
    return glued, Bordism(pb.base, pb.stages, pb.labels)


def compose_bordisms(b1: TrussTower, b2: TrussTower) -> Bordism:
    """First b1, then b2: glue over {0 < 1 < 2} and restrict to {0 < 2}."""
    return _composite(b1, b2)[1]


def compose_bordisms_audited(b1: TrussTower, b2: TrussTower):
    """Compose two bordisms; returns (composite, audit).

    Every covering relation of a composite stage base, and of the composite
    top, whose image in the glued tower is not a glued cover crosses the
    seam; the audit checks that each factorization middle of a crossing
    gives the composite's map (or label) and counts crossings and middles.
    """
    glued, composite = _composite(b1, b2)
    layers = [
        (d.base, d.arrow, d_g.base, d_g.arrow, d_g.map_for, compose_delta)
        for d, d_g in zip(composite.stages, glued.stages)
    ]
    layers.append((
        composite.top, composite.labels.on_relations,
        glued.top, glued.labels.on_relations,
        glued.labels.morphism_for, glued.labels.target.compose_pair,
    ))
    crossings = 0
    alternatives = 0
    for base, values, glued_base, glued_covers, path, compose in layers:
        for (u, v) in base.covers():
            a, b = _retag(u, _OUTER), _retag(v, _OUTER)
            if (a, b) in glued_covers:
                continue
            crossings += 1
            alternatives += _via_middles(
                glued_base, a, b, values[(u, v)],
                lambda y: compose(path(a, y), path(y, b)),
            )
    return composite, CompositionAudit(crossings, alternatives)


def truss_label_category(objects, generators) -> LabelCategory:
    """The finite category generated by labelled trusses, their identity
    bordisms and the given generators, closed under composition."""
    objs = list(dict.fromkeys(objects))
    idents = {o: identity_bordism(o) for o in objs}
    morphisms = list(dict.fromkeys(list(idents.values()) + list(generators)))
    src = {}
    dst = {}
    known = set(objs)
    for m in morphisms:
        src[m] = restrict_bordism(m, 0)
        dst[m] = restrict_bordism(m, 1)
        if src[m] not in known or dst[m] not in known:
            raise PackingError("a generator's endpoint is not among the objects")
    compose = {}
    changed = True
    while changed:
        changed = False
        for f in list(morphisms):
            for g in list(morphisms):
                if dst[f] != src[g] or (f, g) in compose:
                    continue
                h = compose_bordisms(f, g)
                compose[(f, g)] = h
                if h not in src:
                    morphisms.append(h)
                    src[h] = restrict_bordism(h, 0)
                    dst[h] = restrict_bordism(h, 1)
                    changed = True
    return LabelCategory(
        objects=objs,
        morphisms=morphisms,
        src=src,
        dst=dst,
        identity=idents,
        compose=compose,
    )


def pack(t: TrussTower) -> PackedTower:
    """Trade the last stage for labels: each element of its base becomes a
    labelled fiber truss, each covering relation a cover bordism, and the
    label category is synthesized by closing these under composition."""
    if t.depth < 1:
        raise PackingError("pack needs a tower of depth at least 1")
    last = t.stages[-1]
    dom = last.base
    top = TrussTower(dom, (last,), t.labels)
    fibers = {
        x: pullback_tower(top, PosetMap(point_poset(), dom, {POINT_ELEMENT: x}))
        for x in dom.elements
    }
    gens = {}
    for (x, y) in dom.covers():
        pb = pullback_tower(top, PosetMap(arrow_poset(), dom, {"0": x, "1": y}))
        gens[(x, y)] = Bordism(pb.base, pb.stages, pb.labels)
    cat = truss_label_category(fibers.values(), gens.values())
    lab = Labeling(dom, cat, fibers, gens)
    return PackedTower(TrussTower(t.base, t.stages[:-1], lab))


def unpack(p: PackedTower) -> TrussTower:
    """Inverse of pack: read the last stage's ordinals, covering maps and
    labels back out of the fiber-truss labels."""
    t = p.tower
    lab = t.labels
    dom = lab.domain
    if not dom.elements:
        raise PackingError("cannot unpack over an empty base")
    for x in dom.elements:
        obj = lab.on_objects[x]
        if not isinstance(obj, TrussTower) or obj.depth != 1 or obj.base != point_poset():
            raise PackingError(f"label of {x!r} is not a depth-1 truss over the point")
    cat = lab.on_objects[dom.elements[0]].labels.target
    if any(lab.on_objects[x].labels.target != cat for x in dom.elements):
        raise PackingError("fiber trusses are labelled in different categories")
    ords = {x: lab.on_objects[x].stages[0].ord[POINT_ELEMENT] for x in dom.elements}
    arrows = {}
    for cov in dom.covers():
        x, y = cov
        g = lab.on_relations[cov]
        if not isinstance(g, TrussTower) or g.depth != 1 or g.base != arrow_poset():
            raise PackingError(f"label of cover ({x!r}, {y!r}) is not a depth-1 bordism")
        if restrict_bordism(g, 0) != lab.on_objects[x] or restrict_bordism(g, 1) != lab.on_objects[y]:
            raise PackingError(f"cover bordism on ({x!r}, {y!r}) does not restrict to its endpoints")
        arrows[cov] = g.stages[0].arrow[("0", "1")]
    try:
        d_last = DeltaDiagram(dom, ords, arrows)
    except DiagramError as exc:
        raise PackingError(f"fiber labels do not assemble into a bundle: {exc}") from exc
    carrier = total_space(d_last).carrier
    on_obj = {}
    on_rel = {}
    for (x, e) in carrier.elements:
        on_obj[(x, e)] = lab.on_objects[x].labels.on_objects[(POINT_ELEMENT, e)]
    for ((x, e), (y, e2)) in carrier.covers():
        if x == y:
            on_rel[((x, e), (y, e2))] = lab.on_objects[x].labels.on_relations[
                ((POINT_ELEMENT, e), (POINT_ELEMENT, e2))
            ]
        else:
            g = lab.on_relations[(x, y)]
            on_rel[((x, e), (y, e2))] = g.labels.on_relations[(("0", e), ("1", e2))]
    labels = Labeling(carrier, cat, on_obj, on_rel)
    return TrussTower(t.base, t.stages + (d_last,), labels)


def constant_inclusion(data, label, cat: LabelCategory):
    """Constant towers and bordisms.

    A list of ordinals with an object label gives the tower over the point
    whose stages are constant with identity maps; a list of maps with a
    morphism label gives the bordism whose stage k is constant at the k-th
    map.  Depth 0 is allowed with an empty list.
    """
    entries = list(data)
    if entries and all(isinstance(e, DeltaMap) for e in entries):
        as_bordism = True
    elif not all(isinstance(e, (int, Ordinal)) for e in entries):
        raise DomainError("data must be all ordinals or all maps")
    elif entries or label in set(cat.objects):
        as_bordism = False
    elif label in set(cat.morphisms):
        as_bordism = True
    else:
        raise DomainError(f"{label!r} is neither an object nor a morphism")
    if not as_bordism:
        if label not in set(cat.objects):
            raise DomainError(f"{label!r} is not an object of the label category")
        maps = [DeltaMap.identity(n if isinstance(n, Ordinal) else Ordinal(n)) for n in entries]
        root, ends = point_poset(), (label, label)
    else:
        if label not in set(cat.morphisms):
            raise DomainError(f"{label!r} is not a morphism of the label category")
        maps = entries
        root, ends = arrow_poset(), (cat.src[label], cat.dst[label])

    def side(el, pair):
        # pair holds the values at the source end (or the point) and at the
        # target end; an element takes the one at its root
        return pair[root_of(el) == "1"]

    def crosses(u, v):
        return root_of(u) != root_of(v)

    cur = root
    stages = []
    for m in maps:
        fibers = (m.src, m.dst)
        d = DeltaDiagram(
            cur,
            {el: side(el, fibers) for el in cur.elements},
            {(u, v): m if crosses(u, v) else DeltaMap.identity(side(u, fibers)) for (u, v) in cur.covers()},
        )
        stages.append(d)
        cur = total_space(d).carrier
    on_obj = {el: side(el, ends) for el in cur.elements}
    on_rel = {(u, v): label if crosses(u, v) else cat.identity[on_obj[u]] for (u, v) in cur.covers()}
    lab = Labeling(cur, cat, on_obj, on_rel)
    return (Bordism if as_bordism else TrussTower)(root, stages, lab)
