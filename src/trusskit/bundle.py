"""Truss bundles over finite posets.

A bundle is presented as a functor from a finite poset into the ordinal
category: an ordinal per element and a weakly increasing map per covering
relation.  Its total space is the poset of pairs (base element, stratum)
with (b, e) <= (b', e') exactly when b <= b' and some stratum morphism
e -> e' exists over the composite map of the base relation.  classify
recovers the functor from a total space, total_space being its inverse.
Both directions read one canonical layout per base and fiber sizes from the
bounded memo _layout, which also holds what each reads of it: total_space
installs its elements and index and walks its step plan, reading only the
cover values to compute the up-set masks; classify reads the fiber sizes
from the head of each run, compares the carrier's elements with the layout
at once and reads each fiber's regulars off it, walking the elements one by
one only to word a refusal.  classify then only proves: its maps are
installed unchecked, and its diagram goes through CoverFunctor's proof step
alone, since its construction makes the shape checks true and its last
check, total_space of the result, checks the rest again.
tower._empty_tables empties _layout with the other memos.

Bundles, labelings (functors into a label category), mesh bundles and their
bare attachment diagrams (mesh.PLMeshBundle, mesh.NablaDiagram) share one
CoverFunctor core: it checks which elements and covers are assigned, proves
functoriality with functor_table and keeps the resulting path table.  Each
class names the category its values live in as ``target``, read at use:
ordinal.Delta for bundles, ordinal.NablaOp (∇^op) for attachment diagrams,
mesh.Meshes for mesh bundles and a labeling's own category value (a
LabelCategory, or any hashable value with identity, src and dst tables);
every proof and every composite reads its identities (identity_of) and its
composition (compose_pair) from that one value.  It and LabelCategory
compare, hash and install unchecked through poset._Keyed, the structure
layer's one base, by their keys.  One proof per value while
an equal one lives: a key equal to a live proved functor's, or to a live
diagram of oracles.all_diagrams, shares its key and path table.  Tables
proved over one base store the key tuples of its _walk, and every proof
takes its identities from ordinal's table, one per class and ordinal.  A
functor installed unchecked hashes on first use, so installs nobody looks
up never hash.  The core also carries the two operations every walk over
a tower needs: over() rebuilds a functor of the same kind over another
base through the validating constructor, and pullback() precomposes with
a map of bases.  A pullback of a functor along a monotone map is a
functor, so pullback() proves nothing again: it inherits its path table
from the parent's, reading each related pair's value at the pair's image,
and reads its cover values from that table.  What the library installs
unchecked goes through a _trusted classmethod (CoverFunctor's,
TotalPoset's, LabelCategory's), and oracles.audited(), under which every
oracle suite runs, patches each.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import le
from weakref import WeakValueDictionary

from .errors import (
    ClassificationError,
    DiagramError,
    DomainError,
    LabelingError,
)
from .ordinal import Delta, DeltaMap, Ordinal, _by_value
from .poset import FinPoset, PosetMap, _Keyed, _along, bits, element_sort_key
from .strata import Stratum, fiber_objects


@lru_cache(maxsize=2)
def _walk(base: FinPoset):
    """functor_table's bookkeeping over a base: (steps, keys (e, e)).  A step is a
    target z with something below it, in linear extension order: its strict
    down-set, each x as (index, up-set mask, key (x, z)) in canonical order, and
    its covers (y, z) as (index of y, y, position in covers()).  Tables share its keys."""
    els, ups, index = base.elements, base.ups, base.index
    below, incoming = [[] for _ in els], [[] for _ in els]
    for i, up in enumerate(ups):
        for k in bits(up ^ (1 << i)):
            below[k].append((i, up, (els[i], els[k])))
    for p, (a, b) in enumerate(base.covers()):
        incoming[index[b]].append((index[a], a, p))
    steps = [(below[k], incoming[k]) for k in map(index.__getitem__, base.linear_extension()) if below[k]]
    return steps, [(e, e) for e in els]


def functor_table(base: FinPoset, target, objects, covers):
    """Extend an assignment on covering relations to all related pairs: a
    functor into the category target, objects its value per element and
    covers per covering relation; target's identity_of and compose_pair,
    read once per proof, give the diagonal and the composites.

    Processes the upper ends z along a linear extension; for a pair x < z
    the first route (x -> y, then the cover y -> z) gives the value and
    every later route must compose to it, as in oracles.functors and
    bordism composition; no value, None included, stands for "none yet".
    Checking all incoming covers of every pair is a complete functoriality
    test.  Upper ends come in the order of ``base.linear_extension()``,
    sources x of one in the canonical order of ``base.elements`` and
    covers into it in the order of ``base.covers()``, so the first
    diagnostic is deterministic.  The bookkeeping is the base's _walk,
    built once for all the tables over it, and the checks cost one
    composite per pair x < z and cover y -> z with x < y; a cover is its
    own route, by the unit law of the target (Δ, ∇^op, meshes, validated
    or closed label categories).  Returns (table, diagnostic): the first
    diagnostic ends the walk, and then the table is only partial; it is
    None on success.
    """
    steps, diagonal = _walk(base)
    identity_of, compose_pair = target.identity_of, target.compose_pair
    table = {key: identity_of(objects[key[0]]) for key in diagonal}
    values = [covers[c] for c in base.covers()]
    for below, incoming in steps:
        routes = [(j, y, values[p]) for j, y, p in incoming]
        for i, up, key in below:
            x, rest = key[0], iter(routes)
            # x < z, so some lower cover y of z has x <= y: a first route exists
            for j, witness, c in rest:
                if up >> j & 1:
                    value = c if j == i else compose_pair(table[(x, witness)], c)
                    break
            for j, y, c in rest:
                if up >> j & 1 and compose_pair(table[(x, y)], c) != value:
                    return table, f"composites from {x!r} to {key[1]!r} disagree through {witness!r} and {y!r}"
            table[key] = value
    return table, None


def _key_hash(key) -> int:
    """The hash of a CoverFunctor key, its two tables taken as sets of items."""
    return hash(key[:-2] + (frozenset(key[-2].items()), frozenset(key[-1].items())))


# The functors functor_table has proved, and those oracles.all_diagrams has
# enumerated, by the hash of their key; an entry dies with its functor.
# oracles.audited() empties it on entry and exit.
_PROVED = WeakValueDictionary()


class CoverFunctor(_Keyed):
    """A functor out of a finite poset, given on its elements and covers.

    A subclass normalizes its arguments into a key (base, [target,] element
    values, cover values), names the key's entries in ``_fields``, checks
    its values and endpoints in ``_check_values(*key)`` and calls
    ``_extend`` from its constructor, its two tables read through
    ``_tables``.  That checks that exactly the base elements and covering
    relations are assigned, checks the values, and hands the key to
    ``_prove``, the proof step, which extends the cover values to every
    related pair with functor_table into ``target``, the category the
    values live in, read at use (a class attribute, or a labeling's
    category value), and stores that path table;
    functor_table's diagnostic is raised as ``_error``.  ``_proved`` is the
    proof step's class-level entry, for a key whose shape and values hold
    by construction (classify's).  One proof per value while an equal one
    lives: a proved functor is kept, weakly, in ``_PROVED`` under its key's
    hash, as is each diagram that oracles.all_diagrams installs, and a
    later key of the same type equal to its key installs its key and path
    table, shared, without a proof; so ``_prove`` hashes the key at once, and an unhashable key is refused with the
    hash's TypeError once proved.
    ``_trusted`` builds a functor without any of these checks from a path
    table known to be functorial: ``pullback`` reads one from the parent,
    bordism composition joins the two bordisms' tables, mesh.realize_bundle
    dualizes one, the mesh readbacks reuse or dualize the mesh's and
    oracles.all_diagrams takes each that oracles.functors enumerates;
    oracles.audited() rebuilds each through ``over``, the subclass
    constructor.  Every
    subclass reads alike through the core: ``base``, the tables ``objects``
    (per element) and ``covers`` (per covering relation), and ``target``,
    the category the path table composes in, read at use by the proof and
    by bordism composition.  Equality and hashing go by
    ``_key``, through poset._Keyed: the base, any target, then the element
    and cover tables.  A trusted functor's hash is taken on first use
    (``_hashed``) and kept, ``==`` compares hashes only when both sides have
    one, and functors of two sibling classes are never equal.
    """

    _error = DiagramError
    _names = ("ord", "arrow")
    _fields = ("base", "ord", "arrow")

    def _extend(self, key):
        base, objects, covers = key[0], key[-2], key[-1]
        if not isinstance(base, FinPoset):
            raise DomainError(f"a {type(self).__name__}'s base must be a FinPoset, got {type(base).__name__}")
        if objects.keys() != base.index.keys():
            raise self._error(f"{self._names[0]} must assign exactly the base elements")
        expected = base.covers()
        if len(covers) != len(expected) or not all(map(covers.__contains__, expected)):
            raise self._error(  # sets only to word the refusal
                f"{self._names[1]} must assign exactly the covering relations"
                f" (missing {sorted(set(expected) - set(covers), key=element_sort_key)},"
                f" extra {sorted(set(covers) - set(expected), key=element_sort_key)})"
            )
        self._check_values(*key)
        self._prove(key)

    def _prove(self, key):
        """_extend's proof step: share the key and path table of a live
        proved functor of this type with an equal key, else prove the key
        with functor_table into ``target``, install it and keep it in
        ``_PROVED``."""
        try:
            h = _key_hash(key)
        except TypeError:  # proved as ever, then refused with the same error
            h = None
        known = _PROVED.get(h)
        if known is not None and type(known) is type(self) and known._key == key:
            self._install(known._key, known._paths, h)
            return
        table, diagnostic = functor_table(key[0], self.target, key[-2], key[-1])
        if diagnostic is not None:
            raise self._error(diagnostic)
        if h is None:
            _key_hash(key)  # raises the TypeError
        self._install(key, table, h)
        _PROVED[h] = self

    @classmethod
    def _proved(cls, key):
        """A functor from a key whose shape and values hold by construction
        (its element and cover tables assign exactly the base elements and
        covers, with values of the right ends), through the proof step only:
        no constructor, no shape or value check.  classify builds its
        diagram through it."""
        new = object.__new__(cls)
        new._prove(key)
        return new

    def _tables(self, objects, covers):
        """A constructor's element and cover tables as dicts; DomainError
        names a table that is not one."""
        try:
            return dict(objects), dict(covers)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"a {type(self).__name__}'s {' and '.join(self._names)} must be tables: {exc}") from None

    def _install(self, key, paths, h=None):
        """Store a key whose path table is known to be functorial, under
        the core's names and the subclass's ``_fields``; h is the key's hash
        when already taken, else __hash__ takes it on first use."""
        self.base, self.objects, self.covers = key[0], key[-2], key[-1]
        self._paths, self._key, self._hash = paths, key, h
        for name, value in zip(self._fields, key):
            setattr(self, name, value)

    def map_for(self, a, b):
        """The composite value of any related pair a <= b."""
        try:
            return self._paths[(a, b)]
        except (KeyError, TypeError):  # an unhashable one is no element
            raise DomainError(f"{a!r} and {b!r} are not related in the base") from None

    def over(self, base, objects, covers):
        """The same kind of functor, into the same target, over another base;
        built by the subclass constructor, so every check runs."""
        return type(self)(base, *self._key[1:-2], objects, covers)

    def pullback(self, base, image):
        """Precompose with the monotone map out of base whose value at x is
        image[x].  The path table is the parent's, read at the images of the
        related pairs, and the covers are read from it.  An image that is
        not such a map, or a base that is no poset, fails a lookup, and
        PosetMap(base, self.base, image) words the refusal as a DomainError:
        no FinPoset, undefined, not in the target, or not monotone on a
        cover."""
        try:
            parent, els = self._paths, base.elements
            objects = {x: self.objects[image[x]] for x in els}
            images = [image[x] for x in els]
            paths = {
                (x, els[j]): parent[(fx, images[j])]
                for x, fx, up in zip(els, images, base.ups)
                for j in bits(up)
            }
        except (AttributeError, KeyError, TypeError):
            PosetMap(base, self.base, image)
            raise
        return self._derive(base, objects, paths)

    @classmethod
    def _trusted(cls, key, paths):
        """A functor from its key less the covers, (base, [target,] objects),
        and a functorial path table; reads its covers from the table."""
        covers = {c: paths[c] for c in key[0].covers()}
        return cls._made(key + (covers,), paths)

    def _derive(self, base, objects, paths):
        """_trusted for the same kind of functor, into the same target."""
        return self._trusted((base,) + self._key[1:-2] + (objects,), paths)

    def _hashed(self):
        return _key_hash(self._key)


class DeltaDiagram(CoverFunctor):
    """A functor from a finite poset to ordinals and weakly increasing maps.

    ord maps each base element to an Ordinal; arrow maps each covering
    relation to a DeltaMap between the fiber ordinals.  Construction fails
    unless the covering data extends coherently to all related pairs.
    """

    target = Delta()

    def __init__(self, base: FinPoset, ord, arrow):
        ord, arrow = self._tables(ord, arrow)
        ords = {b: o if isinstance(o, Ordinal) else Ordinal(o) for b, o in ord.items()}
        self._extend((base, ords, arrow))

    @staticmethod
    def _check_values(base, ords, arrow):
        for (a, b), f in arrow.items():
            if not isinstance(f, DeltaMap) or f.src != ords[a] or f.dst != ords[b]:
                raise DiagramError(f"map on cover ({a!r}, {b!r}) is {f}, expected"
                                   f" {ords[a]}->{ords[b]}")

    def __repr__(self):
        return f"DeltaDiagram(base={self.base!r}, ords={[o.n for _, o in sorted(self.ord.items(), key=lambda kv: element_sort_key(kv[0]))]})"


@dataclass(frozen=True)
class TotalPoset:
    """The total space of a bundle, remembering the base it projects to."""

    carrier: FinPoset
    base: FinPoset

    @classmethod
    def _trusted(cls, d, layout, ups):
        """total_space(d) from _layout's record (elements, index, offsets)
        for d's base and fiber sizes and from its up-set masks, unchecked;
        the carrier shares the layout's elements and index.  The carrier is
        FinPoset._made, not FinPoset._trusted: the audit checks a total
        space, carrier included, by its own row, so its carrier is not
        checked a second time as a trusted poset."""
        elements, index = layout[:2]
        return cls(FinPoset._made(elements, index, ups), d.base)


@lru_cache(maxsize=4096)
def _layout(base: FinPoset, sizes: tuple):
    """The canonical layout of a total space over base whose k-th fiber is
    over the ordinal [sizes[k]]: (elements, index, offsets, plan, fibers).
    The elements are the fibers in base order, each in fiber_objects order;
    index maps each to its position, and offsets holds each fiber's first
    position, then the length.  plan is total_space's walk: the base
    elements in ascending order of up-set size, each as (offset of its
    regulars, its fiber size, its upper covers), an upper cover (a, b) as
    (offset of the regulars over b, of the singulars over b, the cover (a, b)).
    fibers maps each base element to its regulars' positions, as a range and
    as a mask, which classify reads.  total_space and classify read one per
    (base, sizes); tower._empty_tables empties it."""
    els = base.elements
    elements = tuple((b, e) for b, n in zip(els, sizes) for e in fiber_objects(n))
    offsets = [0]
    for n in sizes:
        offsets.append(offsets[-1] + 2 * n + 1)
    plan = tuple((offsets[k], sizes[k], tuple((offsets[j], offsets[j] + sizes[j] + 1, (els[k], els[j]))
                                              for j in base.upper[k]))
                 for k in sorted(range(len(els)), key=lambda k: base.ups[k].bit_count()))
    fibers = {b: (range(k, k + n + 1), (1 << n + 1) - 1 << k) for b, k, n in zip(els, offsets, sizes)}
    return elements, {e: i for i, e in enumerate(elements)}, offsets, plan, fibers


@_by_value(4096)
def total_space(d: DeltaDiagram) -> TotalPoset:
    """Pair every base element with its fiber positions; relate (a, e) and
    (b, e') when a <= b and e -> e' is valid over the composite map.

    The pairs are _layout's for the base and the fiber sizes, shared with
    every total space and classify call over them: base elements in order,
    then each fiber in fiber_objects order (regulars, then singulars).  The
    only work per diagram is the up-sets, closed over the upper covers, one
    step per cover and fiber position, along the layout's plan, so a call
    reads nothing of the base but the cover values.  The plan visits the
    base elements in ascending order of up-set size: a < b makes b's up-set
    strictly smaller, so every upper cover b of a is finished before a, and
    no linear extension is needed.  For each upper cover (a, b), f its map:
    the up-set of r_i over a is its own bit with that of r_f(i) over b;
    the up-set of s_i over a is its own bit with those of r_i and r_(i+1)
    over a and those of s_j over b for f(i) <= j < f(i+1).  The masks and
    the layout, read once, are installed unchecked by TotalPoset._trusted,
    which oracles.audited() patches to check each against a pair-by-pair
    stratum_targets spelling.
    Memoized by value (ordinal._by_value, 4096 entries); a wrong type, an
    unhashable one included, is refused by the guard below."""
    if not isinstance(d, DeltaDiagram):
        raise DomainError(f"total_space needs a DeltaDiagram, got {type(d).__name__}")
    layout = _layout(d.base, tuple([d.ord[b].n for b in d.base.elements]))
    ups, covers = [0] * len(layout[0]), d.covers
    for reg, n, uppers in layout[3]:
        sing = reg + n + 1
        # (offset of the regulars over b, of the singulars over b, f's values)
        over = [(breg, bsing, covers[key].values) for breg, bsing, key in uppers]
        for i in range(n + 1):
            mask = 1 << reg + i
            for breg, _, v in over:
                mask |= ups[breg + v[i]]
            ups[reg + i] = mask
        for i in range(n):
            mask = 1 << sing + i | ups[reg + i] | ups[reg + i + 1]
            for _, bsing, v in over:
                for j in range(bsing + v[i], bsing + v[i + 1]):
                    mask |= ups[j]
            ups[sing + i] = mask
    return TotalPoset._trusted(d, layout, ups)


def pullback_bundle(d: DeltaDiagram, f: PosetMap) -> DeltaDiagram:
    """Restrict d along a monotone map into its base; fibers are reused and
    covering maps are the composites between the images."""
    src, image = _along(f, d, DeltaDiagram, "pullback_bundle", "diagram")
    return d.pullback(src, image)


def classify(t: TotalPoset) -> DeltaDiagram:
    """Recover the bundle from its total space.

    The fiber ordinal over b has one fewer than its regular positions, and
    the map on a covering relation sends i to the unique j with
    (b, r_i) <= (b', r_j): the one bit of (b, r_i)'s up-set mask among the
    regulars over b'.  The regular positions come from the layout total_space
    shares (_laid_regulars), else from a walk over the elements that words
    the refusal.  Every cover's images are read first, then each map is
    checked weakly increasing in cover order; a crossed one is worded by the
    checking DeltaMap constructor, the others are installed by
    DeltaMap._trusted, their length and range holding by construction.  The
    diagram is built by DeltaDiagram._proved: its tables assign exactly the
    base elements and covers, with maps between their ordinals, so only the
    proof step runs, shared with a live equal diagram's.  Fails if the
    fibers are not stratum zigzags, a regular position has no or several
    images, a map is not weakly increasing, the maps are not functorial, or
    the rebuilt bundle does not reproduce the total space.
    """
    if not isinstance(t, TotalPoset):
        raise DomainError(f"classify needs a TotalPoset, got {type(t).__name__}")
    for name, part in (("carrier", t.carrier), ("base", t.base)):
        if not isinstance(part, FinPoset):
            raise DomainError(f"a total space's {name} must be a FinPoset, got {type(part).__name__}")
    els, ups = t.carrier.elements, t.carrier.ups
    regular = _laid_regulars(t.base, els)
    if regular is None:
        regular = _walked_regulars(t.base, els)
    ords = {b: Ordinal(len(ks) - 1) for b, (ks, _) in regular.items()}
    arrow = {}
    for a, b in t.base.covers():
        values, over = [], regular[b][1]
        for i, k in enumerate(regular[a][0]):
            image = ups[k] & over
            if image.bit_count() != 1:
                raise ClassificationError(
                    f"regular position {i} over {a!r} has {image.bit_count()} images over {b!r}"
                )
            values.append(els[image.bit_length() - 1][1].index)
        arrow[(a, b)] = tuple(values)
    try:  # a map that is not weakly increasing is refused by the checking constructor
        maps = {(a, b): (DeltaMap._trusted if all(map(le, vs, vs[1:])) else DeltaMap)(ords[a], ords[b], vs)
                for (a, b), vs in arrow.items()}
        d = DeltaDiagram._proved((t.base, ords, maps))
    except (DiagramError, DomainError) as exc:
        raise ClassificationError(f"recovered data is not a bundle: {exc}") from exc
    if total_space(d) != t:
        raise ClassificationError("poset is not the total space of the recovered bundle")
    return d


def _laid_regulars(base: FinPoset, els):
    """Each base element's regular positions in the carrier, as the layout's
    (range, mask), when els is _layout's tuple for the base, else None.
    Each fiber's size is read from the head of its run, and the sizes are
    bounded by the carrier's length before any layout is built; then one
    tuple comparison decides."""
    sizes, end = [], 0
    for _ in base.elements:
        head = els[end] if end < len(els) else None  # None past the end: a run cut short
        if not (isinstance(head, tuple) and len(head) == 2 and isinstance(head[1], Stratum)):
            return None
        sizes.append(head[1].n)
        end += 2 * head[1].n + 1
    if end != len(els):
        return None
    layout = _layout(base, tuple(sizes))
    return layout[4] if els == layout[0] else None


def _walked_regulars(base: FinPoset, els) -> dict:
    """Each base element's regular positions in the carrier, as a list of
    indices and a mask, found element by element; refuses an element that
    is not a pair, and a fiber that has no regular position or is not the
    zigzag over its ordinal."""
    by_base = {b: [] for b in base.elements}  # element indices over each base element
    for k, el in enumerate(els):
        if not (isinstance(el, tuple) and len(el) == 2):
            raise ClassificationError(f"element {el!r} is not a (base element, stratum) pair")
        fib = by_base.get(el[0])
        if fib is not None:
            fib.append(k)
    regular = {}
    for b, ks in by_base.items():
        fib = [els[k][1] for k in ks]
        n = sum(1 for e in fib if isinstance(e, Stratum) and e.is_regular) - 1
        if n < 0:
            raise ClassificationError(f"fiber over {b!r} has no regular position")
        if tuple(fib) != fiber_objects(n):
            raise ClassificationError(f"fiber over {b!r} is not the zigzag over [{n}]")
        regular[b] = ks[:n + 1], sum(1 << k for k in ks[:n + 1])
    return regular


# What a table lookup reads for a missing entry: None may name an object or a morphism.
_ABSENT = object()


class LabelCategory(_Keyed):
    """A finite category with an explicit, total composition table.

    Morphism entries are arbitrary hashables; compose[(f, g)] is "first f,
    then g", defined for every composable pair, and no table names anything
    else.  The install indexes the category once, duplicates and all:
    ``_objects`` and ``_morphisms`` map each value to its instance here (for
    tower._packed_tower; every other reader outside the class reads the
    public tables), and ``_out`` each object to the morphisms out of it, in
    morphism order.  The constructor checks the laws over composable pairs
    and triples only;
    ``_trusted`` installs truss_label_category's closure and from_poset's
    thin categories (once their names are distinct) unchecked, and
    oracles.audited() rebuilds each through the constructor.  Equality goes
    through poset._Keyed by the key (objects and morphisms as sets, then the
    src, dst, identity and compose tables); the hash covers objects,
    morphisms and identities.
    """

    def __init__(self, objects, morphisms, src, dst, identity, compose):
        try:
            self._install(objects, morphisms, src, dst, identity, compose)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"a LabelCategory takes iterables of hashables and four tables: {exc}") from None
        self._validate()

    def _install(self, objects, morphisms, src, dst, identity, compose):
        self.objects, self.morphisms = tuple(objects), tuple(morphisms)
        self.src, self.dst, self.identity, self.compose = dict(src), dict(dst), dict(identity), dict(compose)
        self._objects, self._morphisms = {o: o for o in self.objects}, {m: m for m in self.morphisms}
        self._out = {o: [] for o in self.objects}
        for m in self.morphisms:
            self._out.get(self.src.get(m, _ABSENT), []).append(m)
        self._key = (self._objects.keys(), self._morphisms.keys(), self.src, self.dst, self.identity, self.compose)
        self._hash = hash((frozenset(self._objects), frozenset(self._morphisms), frozenset(self.identity.items())))

    @classmethod
    def _trusted(cls, objects, morphisms, src, dst, identity, compose):
        return cls._made(objects, morphisms, src, dst, identity, compose)

    def _validate(self):
        objs, mors, out, src, dst, compose = self._objects, self._morphisms, self._out, self.src, self.dst, self.compose
        if len(objs) != len(self.objects) or len(mors) != len(self.morphisms):
            raise DomainError("duplicate objects or morphisms")
        for m in self.morphisms:
            if src.get(m, _ABSENT) not in objs or dst.get(m, _ABSENT) not in objs:
                raise DomainError(f"morphism {m!r} has no valid endpoints")
        for o in self.objects:
            i = self.identity.get(o, _ABSENT)
            if i not in mors or src[i] != o or dst[i] != o:
                raise DomainError(f"object {o!r} has no identity morphism")
        for name, table, keys, kind in (("src", src, mors, "a morphism"), ("dst", dst, mors, "a morphism"),
                                        ("identity", self.identity, objs, "an object")):
            stray = [k for k in table if k not in keys]
            if stray:
                raise DomainError(f"the {name} table names {stray[0]!r}, which is not {kind}")
        for f in self.morphisms:
            for g in out[dst[f]]:
                h = compose.get((f, g), _ABSENT)
                if h not in mors:
                    raise DomainError(f"table misses the composite of {f!r}, {g!r}")
                if src[h] != src[f] or dst[h] != dst[g]:
                    raise DomainError(f"composite of {f!r}, {g!r} has wrong endpoints")
        # every composable pair has its entry, so an extra entry is a stray one
        for key in compose if len(compose) != sum(len(out[dst[f]]) for f in self.morphisms) else ():
            if not (isinstance(key, tuple) and len(key) == 2 and key[0] in mors and key[1] in mors):
                raise DomainError(f"table composes {key!r}, which is not a pair of morphisms")
            if dst[key[0]] != src[key[1]]:
                raise DomainError(f"table composes non-composable {key[0]!r}, {key[1]!r}")
        for f in self.morphisms:
            if compose[(self.identity[src[f]], f)] != f:
                raise DomainError(f"left unit law fails at {f!r}")
            if compose[(f, self.identity[dst[f]])] != f:
                raise DomainError(f"right unit law fails at {f!r}")
        for (f, g), fg in compose.items():
            for h in out[dst[g]]:
                if compose[(fg, h)] != compose[(f, compose[(g, h)])]:
                    raise DomainError(f"associativity fails on {f!r}, {g!r}, {h!r}")

    def compose_pair(self, f, g):
        try:
            return self.compose[(f, g)]
        except (KeyError, TypeError):  # an unhashable one is no morphism
            raise DomainError(f"{f!r} and {g!r} do not compose") from None

    def identity_of(self, o):
        """The identity of the object o, as a functor's target gives it."""
        try:
            return self.identity[o]
        except (KeyError, TypeError):  # an unhashable one is no object
            raise DomainError(f"{o!r} is not an object") from None

    def hom(self, a, b) -> tuple:
        """The morphisms from a to b, in morphism order; () unless a is an object."""
        try:
            return tuple(m for m in self._out.get(a, ()) if self.dst[m] == b)
        except TypeError:  # an unhashable a is no object
            return ()

    @classmethod
    def from_poset(cls, p: FinPoset) -> "LabelCategory":
        """The thin category of a poset; morphism names are "a<=b" strings in
        the pairs' canonical order, and a <= b composes with b's up-set.  A
        category by construction once no two pairs print alike, it is
        installed through _trusted."""
        if not isinstance(p, FinPoset):
            raise DomainError(f"from_poset needs a FinPoset, got {type(p).__name__}")
        els = p.elements
        above = {a: [els[j] for j in bits(up)] for a, up in zip(els, p.ups)}
        name = {(a, b): f"{a}<={b}" for a, up in above.items() for b in up}
        if len(set(name.values())) != len(name):  # 1 and "1" print alike, and so do "1<=2", "3" and "1", "2<=3"
            raise DomainError("duplicate objects or morphisms")
        return cls._trusted(
            els, name.values(), {m: a for (a, b), m in name.items()}, {m: b for (a, b), m in name.items()},
            {a: name[(a, a)] for a in els},
            {(m, name[(b, c)]): name[(a, c)] for (a, b), m in name.items() for c in above[b]},
        )

    @classmethod
    def terminal(cls) -> "LabelCategory":
        return cls.from_poset(FinPoset(["*"], [("*", "*")]))

    def __repr__(self):
        return f"LabelCategory({len(self.objects)} objects, {len(self.morphisms)} morphisms)"


class Labeling(CoverFunctor):
    """A functor from a finite poset into a label category.

    Given on objects and on covering relations; composites along any two
    routes between the same pair must agree.  The target is any hashable
    category value, a LabelCategory or another, read through its public
    tables: the keys of ``identity`` are its objects, those of ``src`` its
    morphisms, each with its ends in ``src`` and ``dst``, and the proof
    composes with ``identity_of`` and ``compose_pair``.  A value without
    these five names, or an unhashable one, is refused with LabelingError.
    """

    _error = LabelingError
    _names = ("object labels", "relation labels")
    _fields = ("domain", "target", "on_objects", "on_relations")

    def __init__(self, domain: FinPoset, target, on_objects, on_relations):
        try:  # the key is hashed, _check_values reads the tables and the proof the operations
            hash(target), target.identity, target.src, target.dst, target.identity_of, target.compose_pair
        except (AttributeError, TypeError):
            raise LabelingError(f"a Labeling's target must be a category, got {type(target).__name__}") from None
        self.target = target  # the proof step's target, before the install sets it again
        self._extend((domain, target, *self._tables(on_objects, on_relations)))

    @staticmethod
    def _check_values(domain, target, on_objects, on_relations):
        for b, o in on_objects.items():
            try:
                target.identity[o]
            except (KeyError, TypeError):  # an unhashable label is no object
                raise LabelingError(f"label {o!r} of {b!r} is not an object") from None
        for (a, b), m in on_relations.items():
            try:
                ends = target.src[m], target.dst[m]
            except (KeyError, TypeError):  # nor a morphism
                raise LabelingError(f"label {m!r} of cover ({a!r}, {b!r}) is not a morphism") from None
            if ends != (on_objects[a], on_objects[b]):
                raise LabelingError(f"label of cover ({a!r}, {b!r}) has wrong endpoints")

    morphism_for = CoverFunctor.map_for

    def __repr__(self):
        return f"Labeling({len(self.on_objects)} objects into {self.target!r})"
