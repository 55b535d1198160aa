"""Labelled truss towers and their bordisms.

A tower of depth n stacks n bundles: the first lives over the tower's base,
each later one over the total space of the one before, and the labels form a
functor from the topmost total space into a label category.  The stages and
then the labels are the tower's layers, and every walk goes over the layers
alike, through the CoverFunctor core.  A bordism is a tower whose root base is
the walking arrow.  Every tower the library builds is a pullback, a composite,
a constant or a glue; all but the glue chain by construction and end in
TrussTower._trusted, unchecked, with the ends their builder knows, and every
tower _trusted installs is one the library returns or keeps.  _trusted
interns: while a tower it installed with equal layers over an equal base
lives, it returns that one instance, the caller's ends merged into its own,
so the memos, the closure's tables and the end comparisons below mostly
match by identity; the checking constructors, parse and unpack build fresh
towers.  Towers compare and hash through poset._Keyed by (base, stages,
labels), so a Bordism and a TrussTower with equal layers are equal both ways.
A constant tower is its layers' functors on the root (the point or
the arrow), each pulled back along the root projection of the previous total
space.  Every restriction is _pullback's walk over a chain of layers: the
identities of bordisms, pack's fiber trusses and cover bordisms (a walk of
the last stage with the labels, which installs no tower for that chain,
once per distinct label category and content key, each the label
category's own instance), and the ends of a tower over the arrow, which
TrussTower.end forms once unless they were recorded: an identity bordism's
are its tower, a cover bordism of pack's the fiber trusses over its cover,
a composite's its factors' outer ends.
Composition builds the composite directly over the arrow, layer by layer,
from the two bordisms' path tables: a crossing path goes through the first
factorization middle over the seam, and every other middle is checked to
give the same value.  Once per pair of stage tuples, _plan builds and checks
the composite's stages and its audit, and lays out its label layer: which
elements and paths come from which bordism, and each crossing pair's
middles; each composite only reads, composes and checks its label values.
_plan extends the plan of the pair's prefixes (the tuples without their last
stages) by one layer, as _pullback walks a tower, so a prefix shared by two
pairs, the empty one over the arrow above all, is built once while held.  A
layer's layout, _layer_plan, is read by position off the three bases' up-set
masks (the elements over "0" come first, and b2's are b1's seam).
Composites, plans and identity bordisms are memoized by value in bounded
caches that every caller shares, and pack's pieces in _PACKED, bounded too,
so separate pack calls pull back a repeated piece once and close their label
categories from the same composites.  The closure enters each morphism's
composites with the identities at its ends as the morphism itself, uncomposed
(the unit laws), and, a category by construction, is installed through
LabelCategory._trusted.  oracles.audited() checks trusted towers with their
recorded ends, re-proves the closure, composes its unit entries to prove them
and, through _empty_tables, empties every table on entry and exit.
_assemble glues towers over parts of a base for unpack, and for the oracles'
"bordism-assoc" suite, which checks each composite against a glue; it lifts
each piece's root map up the layers as _pullback lifts its map.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from weakref import WeakValueDictionary

from .errors import (
    CompositionError,
    DiagramError,
    DomainError,
    InternalError,
    PackingError,
)
from .ordinal import DeltaMap, Ordinal, _by_value, _identities, dual_delta_to_nabla, dual_nabla_to_delta
from .poset import (
    POINT_ELEMENT,
    FinPoset,
    PosetMap,
    _Keyed,
    _along,
    arrow_poset,
    bits,
    point_poset,
)
from .bundle import _PROVED, DeltaDiagram, LabelCategory, Labeling, _layout, _walk, total_space


def root_of(el):
    """The root base element under an iterated total-space element."""
    while isinstance(el, tuple):
        el = el[0]
    return el


# The towers _trusted has installed, by (base, layers); an entry dies with
# its tower.  oracles.audited() empties it on entry and exit.
_BUILT = WeakValueDictionary()


class TrussTower(_Keyed):
    """A chain of bundles, each over the previous total space, plus labels
    (``layers``: the stages, then the labels), checked unless ``_trusted``."""

    def __init__(self, base: FinPoset, stages, labels: Labeling):
        if not isinstance(base, FinPoset):
            raise DomainError("a tower's base must be a FinPoset")
        try:
            stages = tuple(stages)
        except TypeError:
            raise DomainError("a tower's stages must be a sequence of DeltaDiagrams") from None
        for k, d in enumerate(stages):
            if not isinstance(d, DeltaDiagram):
                raise DomainError(f"stage {k + 1} is not a DeltaDiagram")
        if not isinstance(labels, Labeling):
            raise DomainError("labels must be a functor on the topmost total space")
        # installed first, so the chain is checked against the installed total spaces
        self._install(base, stages + (labels,))
        below = (base,) + tuple(tot.carrier for tot in self.totals)
        for k, d in enumerate(stages):
            if d.base != below[k]:
                raise DomainError(f"stage {k + 1} does not live over the previous total space")
        if labels.domain != self.top:
            raise DomainError("labels must be a functor on the topmost total space")

    def _install(self, base, layers):
        """Store layers that form the chain; no end is recorded yet."""
        self.base, self.layers = base, tuple(layers)
        self.stages, self.labels = self.layers[:-1], self.layers[-1]
        self.totals = tuple(total_space(d) for d in self.stages)
        self.top = self.totals[-1].carrier if self.totals else base
        self._key = (base, self.stages, self.labels)
        self._hash = hash(self._key)
        self._ends = {}

    @classmethod
    def _trusted(cls, base, layers, ends=None):
        """The live tower _trusted installed with these layers over base, or
        else a new one, unchecked (a Bordism if base is the arrow); the ends
        the caller records are merged into the tower's."""
        key = (base, tuple(layers))
        new = _BUILT.get(key)
        if new is None:
            new = _BUILT[key] = (Bordism if base == arrow_poset() else TrussTower)._made(*key)
        new._ends.update(ends or ())
        return new

    def end(self, which: int) -> TrussTower:
        """The tower over the point at end ``which`` (0 or 1) of a tower over
        the arrow, recorded at install or else formed once; DomainError elsewhere."""
        if which not in (0, 1):
            raise DomainError("end must be 0 or 1")
        if which not in self._ends:
            self._ends[which] = restrict_bordism(self, which)
        return self._ends[which]

    @property
    def depth(self) -> int:
        return len(self.stages)

    def __repr__(self):
        return f"TrussTower(depth={self.depth}, top={len(self.top.elements)} elements)"


class Bordism(TrussTower):
    """A tower over the walking arrow; its ends are towers over the point."""

    def __init__(self, base, stages, labels):
        if base != arrow_poset():
            raise DomainError("a bordism's root base must be the arrow poset")
        super().__init__(base, stages, labels)


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
    """Restrict a tower layer by layer along a monotone map into its base;
    the result is a Bordism when the map's source is the arrow."""
    src, image = _along(f, t, TrussTower, "pullback_tower", "tower")
    return _pullback(t.layers, src, image)


def _pullback(chain, root: FinPoset, image: dict, ends=None) -> TrussTower:
    """pullback_tower's walk of a chain of layers (stages, each over the
    previous total space, then labels on the last) along the monotone map
    out of root whose value at x is image[x], as CoverFunctor.pullback takes
    it; installs the result, with the ends the caller knows, unchecked."""
    base, layers = root, []
    for layer in chain:
        if layers:
            base = total_space(layers[-1]).carrier
            image = {(b, e): (image[b], e) for (b, e) in base.elements}
        layers.append(layer.pullback(base, image))
    return TrussTower._trusted(root, layers, ends)


# The end inclusions are built once and shared, like the posets.
@lru_cache(maxsize=None)
def _end_inclusion(end: int) -> PosetMap:
    return PosetMap(point_poset(), arrow_poset(), {POINT_ELEMENT: str(end)})


def restrict_bordism(b: TrussTower, end: int) -> TrussTower:
    """The tower over the point at one end of a bordism; TrussTower.end keeps it."""
    if end not in (0, 1):
        raise DomainError("end must be 0 or 1")
    return pullback_tower(b, _end_inclusion(end))


@_by_value(2048)
def identity_bordism(t: TrussTower) -> Bordism:
    """Pull a tower over the point back along the collapse of the arrow,
    recording t as both its ends.  Memoized by value (ordinal._by_value);
    a wrong type, an unhashable one included, is refused by the guard."""
    if not isinstance(t, TrussTower) or t.base != point_poset():
        raise DomainError("identity bordisms are formed on towers over the point")
    return _pullback(t.layers, arrow_poset(), {"0": POINT_ELEMENT, "1": POINT_ELEMENT}, {0: t, 1: t})


def _merge(tables, on_covers: bool) -> dict:
    """Move the pieces' tables (keyed by elements, or by covering pairs)
    along their maps into the glued base; the pieces must agree where they meet."""
    merged = {}
    for table, image in tables:
        for key, value in table.items():
            g = (image[key[0]], image[key[1]]) if on_covers else image[key]
            if merged.setdefault(g, value) != value:
                raise InternalError(f"glued pieces disagree at {g!r}")
    return merged


def _assemble(base: FinPoset, pieces) -> list:
    """Glue towers of one depth into the layers of a tower over base.

    A piece is (tower, root map), the root map sending its base elements
    into base.  Layer by layer, each piece's map is lifted to the base of its
    next layer as _pullback lifts its map, (b, e) going to (image[b], e); the
    pieces' element and cover tables are moved along their maps and merged,
    and the merged layer is built over the previous merged total space by the
    first piece's layer, so every check runs.
    """
    layers = []
    for k, layer in enumerate(pieces[0][0].layers):
        if layers:
            base = total_space(layers[-1]).carrier
            pieces = [(t, {(b, e): (image[b], e) for b, e in t.layers[k].base.elements}) for t, image in pieces]
        layers.append(layer.over(
            base,
            _merge(((t.layers[k].objects, image) for t, image in pieces), False),
            _merge(((t.layers[k].covers, image) for t, image in pieces), True),
        ))
    return layers


def _layer_plan(base1: FinPoset, base2: FinPoset, base: FinPoset):
    """How a composite layer over base reads layers over base1 and base2:
    (base, the elements whose objects come from b1, those from b2, the path
    keys copied from b1, those from b2, and each crossing pair's middles in
    canonical order, as (b1 key, b2 key) pairs).  Read by position: the
    elements over "0" come first, so base1's p over "0" are base's first p,
    base2's over "1" are base's rest, and base2's s over "0" are base1's seam,
    its s over "1", in order (_composite has checked the ends)."""
    (els1, ups1), (els2, ups2), (els, ups) = ((b.elements, b.ups) for b in (base1, base2, base))
    p, s = (bisect_left(e, "1", key=root_of) for e in (els1, els2))
    if len(els1) - p != s or bisect_left(els, "1", key=root_of) != p or len(els) - p != len(els2) - s:
        raise InternalError("the factors' seam or prefix lengths disagree")
    # per base2 element over "1", the mask of the seam positions below it
    below = [sum(1 << t for t in range(s) if ups2[t] >> k & 1) for k in range(s, len(els2))]
    crossings = {}
    for i in range(p):
        for k in bits(ups[i] >> p):
            x, y = els1[i], els2[s + k]
            mids = crossings[(x, y)] = tuple(((x, els1[p + t]), (els2[t], y)) for t in bits(ups1[i] >> p & below[k]))
            if not mids:
                raise InternalError(f"empty factorization middle set between {x!r} and {y!r}")
    return (base, els[:p], els[p:], tuple((x, els1[j]) for x, up in zip(els1[:p], ups1) for j in bits(up % (1 << p))),
            tuple((y, els2[j]) for y, up in zip(els2[s:], ups2[s:]) for j in bits(up)), crossings)


def _apply(plan, l1, l2):
    """The composite layer plan lays out, read from l1's and l2's path tables;
    each crossing composes through its first middle, and the others must agree."""
    base, left, right, keys1, keys2, crossings = plan
    p1, p2, o1, o2, compose = l1._paths, l2._paths, l1.objects, l2.objects, l1.target.compose_pair
    paths = {k: p[k] for p, keys in ((p1, keys1), (p2, keys2)) for k in keys}
    for (x, y), ((k1, k2), *others) in crossings.items():
        value = paths[(x, y)] = compose(p1[k1], p2[k2])
        for m1, m2 in others:
            if compose(p1[m1], p2[m2]) != value:
                raise InternalError(f"factorization middle {m1[1]!r} disagrees with the composite"
                                    f" from {x!r} to {y!r} through {k1[1]!r}")
    return l1._derive(base, {x: o[x] for o, xs in ((o1, left), (o2, right)) for x in xs}, paths)


@lru_cache(maxsize=2048)
def _plan(stages1: tuple, stages2: tuple):
    """What two composable bordisms' stages (tuples of one length) determine,
    built once per pair: the composite's stages, the plan of the layer over
    its top and its CompositionAudit.  It extends the plan of the pair's
    prefixes, so a prefix shared by two pairs is built once: that plan lays
    out the last composite stage, and the one new layer is planned; the
    empty pair plans the layer over the arrow."""
    if stages1:
        stages, plan, audit = _plan(stages1[:-1], stages2[:-1])
        stages += (_apply(plan, stages1[-1], stages2[-1]),)
        bases = (total_space(s[-1]).carrier for s in (stages1, stages2, stages))
    else:
        stages, audit, bases = (), CompositionAudit(0, 0), (arrow_poset(),) * 3
    plan = _layer_plan(*bases)
    crossed = [len(plan[-1][c]) for c in plan[0].covers() if c in plan[-1]]
    return stages, plan, CompositionAudit(audit.crossings + len(crossed), audit.alternatives + sum(crossed))


@_by_value(2048)
def _composite(b1: TrussTower, b2: TrussTower):
    """Check that the bordisms b1 then b2 compose and build the composite as
    the module docstring says; returns (composite, audit), memoized by value."""
    arrow = arrow_poset()
    if not (isinstance(b1, TrussTower) and isinstance(b2, TrussTower) and b1.base == arrow and b2.base == arrow):
        raise CompositionError("both arguments must be bordisms over the arrow poset")
    if b1.depth != b2.depth:
        raise CompositionError("bordisms of different depth do not compose")
    if b1.end(1) != b2.end(0):
        raise CompositionError("bordism endpoints do not match")
    stages, plan, audit = _plan(b1.stages, b2.stages)
    ends = {k: b._ends[k] for k, b in ((0, b1), (1, b2)) if k in b._ends}
    return TrussTower._trusted(arrow_poset(), stages + (_apply(plan, b1.layers[-1], b2.layers[-1]),), ends), audit


def compose_bordisms(b1: TrussTower, b2: TrussTower) -> Bordism:
    """First b1, then b2, built directly over the arrow from the two path
    tables; raises InternalError if two factorization middles disagree."""
    return _composite(b1, b2)[0]


def compose_bordisms_audited(b1: TrussTower, b2: TrussTower):
    """Compose as compose_bordisms does; returns (composite, audit), the
    audit counting the crossings (the covers of a composite layer whose
    ends lie over different ends of the arrow) and their middles."""
    return _composite(b1, b2)


# captured, so a patched name cannot hide one
_MEMOS = (_composite, identity_bordism, _plan, total_space, _layout, _walk, _identities,
          dual_delta_to_nabla, dual_nabla_to_delta)


def _empty_tables():
    """Empty the memos, bundle._PROVED, _BUILT and _PACKED, as oracles.audited() does on entry and exit."""
    for memo in _MEMOS:
        memo.cache_clear()
    _PROVED.clear()
    _BUILT.clear()
    _PACKED.clear()


def truss_label_category(objects, generators) -> LabelCategory:
    """The finite category generated by labelled trusses, their identity
    bordisms and the given generators, closed under composition; a composite
    equal to a known morphism enters the table as that instance, and each
    morphism's composites with the identities at its ends enter as itself,
    uncomposed.  It is installed unchecked, as the module docstring says."""
    try:
        objs, gens = list(objects), list(generators)
        towers = all(isinstance(x, TrussTower) for x in objs + gens)
    except TypeError:
        towers = False
    if not towers:
        raise PackingError("the objects and the generators must be sequences of TrussTowers")
    objs = list(dict.fromkeys(objs))
    if any(o.base != point_poset() for o in objs):
        raise PackingError("an object is not a tower over the point")
    idents = {o: identity_bordism(o) for o in objs}
    # seen: the morphisms, in morphism order, each to its instance; by_source:
    # the morphisms out of each object, in morphism order
    seen, by_source, compose = {}, {o: [] for o in objs}, {}

    def join(m):  # its unit laws enter the table uncomposed
        seen[m] = m
        by_source[m.end(0)].append(m)
        compose[(idents[m.end(0)], m)] = compose[(m, idents[m.end(1)])] = m

    for m in dict.fromkeys(list(idents.values()) + gens):
        if m.base != arrow_poset():
            raise PackingError("a generator is not a bordism: its base is not the arrow poset")
        if m.end(0) not in by_source or m.end(1) not in by_source:
            raise PackingError("a generator's endpoint is not among the objects")
        join(m)
    changed = True
    while changed:
        changed = False
        for f in list(seen):
            for g in list(by_source[f.end(1)]):
                if (f, g) in compose:
                    continue
                h = compose_bordisms(f, g)
                if h not in seen:
                    join(h)
                    changed = True
                compose[(f, g)] = seen[h]
    return LabelCategory._trusted(
        objs, list(seen), {m: m.end(0) for m in seen}, {m: m.end(1) for m in seen}, idents, compose
    )


def _packed_tower(base: FinPoset, stages, domain: FinPoset, fibers: dict, gens: dict) -> PackedTower:
    """The packed tower whose labels on domain are the fiber trusses and
    cover bordisms given, each replaced by the equal instance of the
    synthesized category; pack and the packed/v1 parser both end here."""
    cat = truss_label_category(fibers.values(), gens.values())
    lab = Labeling(domain, cat, {x: cat._objects[o] for x, o in fibers.items()},
                   {c: cat._morphisms[g] for c, g in gens.items()})
    return PackedTower(TrussTower(base, stages, lab))


# pack's fiber trusses and cover bordisms by (label category, content key),
# shared by every call; bounded like the memos, emptied by _empty_tables.
_PACKED = {}


def pack(t: TrussTower) -> PackedTower:
    """Trade the last stage for labels: each element of its base becomes a
    labelled fiber truss, each covering relation a cover bordism, and the
    label category is synthesized by closing these under composition.
    Each piece's content key is read in one pass over the top: for the fiber
    truss over x, last.ord[x] and the labels on x's fiber in the top's index
    order; for the cover bordism over (x, y), both fiber keys,
    last.arrow[(x, y)] and the labels of the covers from x's fiber to y's.
    Each piece is _pullback's walk of the chain (last, t.labels), which
    installs no tower for the chain itself, and runs once per distinct
    (label category, key) across calls: _PACKED keeps the pieces made, its
    oldest entry leaving first past 2048, and _empty_tables empties it.  A
    cover bordism records its ends, the fiber trusses over x and y."""
    if not isinstance(t, TrussTower) or t.depth < 1:
        raise PackingError("pack needs a tower of depth at least 1")
    last = t.stages[-1]
    dom = last.base
    if not dom.elements:  # unpack could not tell the label category
        raise PackingError("cannot pack over an empty base")
    els, lab = t.top.elements, t.labels
    objs, covs = {x: [] for x in dom.elements}, {}
    for a, upper in zip(els, t.top.upper):
        objs[a[0]].append(lab.objects[a])
        for j in upper:
            covs.setdefault((a[0], els[j][0]), []).append(lab.covers[(a, els[j])])

    def once(key, src, image, ends=None):
        key = (lab.target, key)
        made = _PACKED.get(key)
        if made is None:
            if len(_PACKED) >= 2048:  # the oldest entry leaves first
                del _PACKED[next(iter(_PACKED))]
            made = _PACKED[key] = _pullback((last, lab), src, image, ends)
        return made

    keys = {x: (last.ord[x], tuple(objs[x]), tuple(covs.get((x, x), ()))) for x in dom.elements}
    fibers = {x: once(keys[x], point_poset(), {POINT_ELEMENT: x}) for x in dom.elements}
    gens = {
        (x, y): once((keys[x], keys[y], last.arrow[(x, y)], tuple(covs.get((x, y), ()))),
                     arrow_poset(), {"0": x, "1": y}, {0: fibers[x], 1: fibers[y]})
        for (x, y) in dom.covers()
    }
    return _packed_tower(t.base, t.stages[:-1], dom, fibers, gens)


def unpack(p: PackedTower) -> TrussTower:
    """Inverse of pack: glue the fiber trusses and cover bordisms back into
    the last stage and its labels."""
    if not (isinstance(p, PackedTower) and isinstance(p.tower, TrussTower)):
        raise PackingError("unpack needs a PackedTower holding a TrussTower")
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
    pieces = [(lab.on_objects[x], {POINT_ELEMENT: x}) for x in dom.elements]
    for (x, y) in dom.covers():
        g = lab.on_relations[(x, y)]
        if not isinstance(g, TrussTower) or g.depth != 1 or g.base != arrow_poset():
            raise PackingError(f"label of cover ({x!r}, {y!r}) is not a depth-1 bordism")
        if g.end(0) != lab.on_objects[x] or g.end(1) != lab.on_objects[y]:
            raise PackingError(f"cover bordism on ({x!r}, {y!r}) does not restrict to its endpoints")
        pieces.append((g, {"0": x, "1": y}))
    try:
        d_last, labels = _assemble(dom, pieces)
    except DiagramError as exc:
        raise PackingError(f"fiber labels do not assemble into a bundle: {exc}") from exc
    return TrussTower(t.base, t.stages + (d_last,), labels)


def constant_inclusion(data, label, cat: LabelCategory):
    """Constant towers and bordisms.

    A list of ordinals with an object label gives the tower over the point
    whose stages are constant with identity maps; a list of maps with a
    morphism label gives the bordism whose stage k is constant at the k-th
    map.  Depth 0 is allowed with an empty list.  Each stage, and then the
    labels, is a functor on the root (the point or the arrow) pulled back
    along the root projection of the previous total space.
    """
    if not isinstance(cat, LabelCategory):
        raise DomainError("constant_inclusion needs a LabelCategory")
    try:
        entries = list(data)
    except TypeError:
        raise DomainError("data must be all ordinals or all maps") from None
    try:  # an unhashable label is neither
        is_object, is_morphism = label in cat.identity, label in cat.src
    except TypeError:
        is_object = is_morphism = False
    if entries and all(isinstance(e, DeltaMap) for e in entries):
        as_bordism = True
    elif not all(isinstance(e, (int, Ordinal)) for e in entries):
        raise DomainError("data must be all ordinals or all maps")
    elif not (entries or is_object or is_morphism):
        raise DomainError(f"{label!r} is neither an object nor a morphism")
    else:
        as_bordism = not (entries or is_object)
    if not as_bordism:
        if not is_object:
            raise DomainError(f"{label!r} is not an object of the label category")
        root = point_poset()
        roots = [DeltaDiagram(root, {POINT_ELEMENT: n}, {}) for n in entries]
        roots.append(Labeling(root, cat, {POINT_ELEMENT: label}, {}))
    else:
        if not is_morphism:
            raise DomainError(f"{label!r} is not a morphism of the label category")
        root = arrow_poset()
        roots = [DeltaDiagram(root, {"0": m.src, "1": m.dst}, {("0", "1"): m}) for m in entries]
        roots.append(Labeling(root, cat, {"0": cat.src[label], "1": cat.dst[label]}, {("0", "1"): label}))
    layers, base = [], root
    for f in roots:
        if layers:
            base = total_space(layers[-1]).carrier
        layers.append(f.pullback(base, {x: root_of(x) for x in base.elements}))
    return TrussTower._trusted(root, layers)
