"""Finite posets stored as up-set bitmasks, and monotone maps between them.

Elements are arbitrary hashables.  Total spaces of bundles use nested pairs
(base element, stratum), so ordering of elements is defined structurally by
element_sort_key rather than by relying on the elements being comparable.
A poset keeps its elements in that canonical order, each element's index in
it, and for each element one Python int whose bit j is set when the element
is <= the j-th element.  Comparison, equality, hashing, the Hasse diagram
(transitive reduction of the masks, after Aho, Garey and Ullman 1972) and the
linear extension (Kahn 1962, over indices) all read the masks; the relation
as a set of pairs is built only for a caller that asks for ``leq``.

_Keyed is the one equality, hash and unchecked install of the structure
layer: FinPoset and PosetMap here, and bundle's CoverFunctor and
LabelCategory and tower's TrussTower.  Each stores its value as a ``_key``
and its hash as ``_hash``, and two values compare stored hashes before keys,
the hash-consing discipline of Filliâtre and Conchon (2006).
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from heapq import heappop, heappush
from itertools import count

from .errors import DomainError


def element_sort_key(el):
    """Canonical sort key: plain values first (a string s as (0, s), any
    other value v as (0, str(v), v's type name), so "1" precedes 1), then
    objects exposing sort_key(), then tuples compared componentwise."""
    if isinstance(el, tuple):
        return (2,) + tuple(element_sort_key(c) for c in el)
    if hasattr(el, "sort_key"):
        return (1,) + tuple(el.sort_key())
    if isinstance(el, str):
        return (0, el)
    return (0, str(el), type(el).__name__)


def bits(mask: int) -> list:
    """The indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class _Keyed:
    """The base of a structure value: equal exactly when its ``_key`` is.

    ``==`` is identity first; a value not of the left side's class is
    NotImplemented, so Python tries the reflected side and falls back to
    identity: a tower and a bordism with equal layers are equal both ways,
    and sibling functors never are.  Otherwise the stored hashes are
    compared, only when both are taken, and then the keys.  A class whose
    install leaves ``_hash`` None takes it on first use through its
    ``_hashed()``.  ``_made`` is the unchecked install behind each class's
    own ``_trusted``: no constructor, only the class's ``_install``."""

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, type(self)):
            return NotImplemented
        h, g = self._hash, other._hash  # compared only when both are taken
        return (h is None or g is None or h == g) and self._key == other._key

    def __hash__(self):
        if self._hash is None:
            self._hash = self._hashed()
        return self._hash

    @classmethod
    def _made(cls, *fields):
        new = object.__new__(cls)
        new._install(*fields)
        return new


class FinPoset(_Keyed):
    """A finite poset: elements in canonical order plus one up-set mask each.

    ``index`` maps each element to its position in ``elements``, and bit j
    of ``ups[i]`` is set exactly when elements[i] <= elements[j].  The
    constructor takes the full reflexive order relation as pairs, checks
    reflexivity, antisymmetry and transitivity on the masks and raises
    DomainError on the first violation in index order.  ``leq``, the
    relation as a frozenset of pairs, is built on first use.
    """

    def __init__(self, elements, leq):
        order, index = _canonical(elements)
        ups, strays = _masks(index, leq, "a poset's relation")
        self._install(order, index, ups)
        self._validate(strays)

    @classmethod
    def _trusted(cls, elements, ups):
        """A poset from elements already in canonical order and up-set masks
        already reflexive, antisymmetric and transitive; nothing is sorted or
        checked."""
        return cls._made(elements, {e: i for i, e in enumerate(elements)}, ups)

    def _install(self, elements, index, ups):
        self.elements, self.index, self.ups = tuple(elements), index, tuple(ups)
        self._covers = self._linear = None
        self._key = (self.elements, self.ups)
        self._hash = hash(self._key)

    def _validate(self, strays=()):
        """Raise on the first violation: reflexivity, antisymmetry and
        transitivity in index order, then a pair naming a non-element."""
        els, ups = self.elements, self.ups
        for i, up in enumerate(ups):
            if not up >> i & 1:
                raise DomainError(f"relation is not reflexive at {els[i]!r}")
        closed = all(up == _union(ups, up) for up in ups)
        # a reflexive, transitive relation is antisymmetric iff no two
        # elements share an up-set; otherwise search for the first violation
        if not closed or len(set(ups)) != len(ups):
            for i, up in enumerate(ups):
                for j in bits(up ^ (1 << i)):
                    if ups[j] >> i & 1:
                        raise DomainError(f"antisymmetry fails on {els[i]!r}, {els[j]!r}")
            for i, up in enumerate(ups):
                for j in bits(up):
                    extra = ups[j] & ~up
                    if extra:
                        c = els[(extra & -extra).bit_length() - 1]
                        raise DomainError(f"transitivity fails: {els[i]!r} <= {els[j]!r} <= {c!r}")
        if strays:
            a, b = min(strays, key=lambda r: (element_sort_key(r[0]), element_sort_key(r[1])))
            raise DomainError(f"relation ({a!r}, {b!r}) mentions a non-element")

    @classmethod
    def from_covers(cls, elements, covers):
        """Build from covering pairs; takes the reflexive transitive closure.

        The closure is one pass of Tarjan's strongly connected components
        algorithm (1972), which finishes the components in reverse
        topological order: an element's up-set is its own bit and the up-sets
        of its successors, all already closed.  A component of two or more
        elements, or a loop, is a cycle, refused naming its first element in
        canonical order.  The closure of an acyclic relation is a partial
        order, so it is installed unchecked.
        """
        order, index = _canonical(elements)
        succ, strays = _masks(index, covers, "covers")
        if strays:
            raise DomainError(f"cover {strays[0]!r} mentions a non-element")
        ups, first = _closure(succ)
        if first is not None:
            raise DomainError(f"cover relation has a cycle through {order[first]!r}")
        return cls._trusted(order, ups)

    def le(self, a, b) -> bool:
        index = self.index
        try:
            return bool(self.ups[index[a]] >> index[b] & 1)
        except (KeyError, TypeError):  # TypeError: an unhashable value is no element
            return False

    @cached_property
    def upper(self):
        """Per element index, the ascending indices of the elements covering
        it: the strict up-set minus the strict up-sets of its members."""
        strict = [up ^ (1 << i) for i, up in enumerate(self.ups)]
        return tuple(bits(s & ~_union(strict, s)) for s in strict)

    def covers(self):
        """Hasse diagram: pairs (a, b) with a < b and nothing strictly
        between, in index order (the canonical order of the pairs)."""
        if self._covers is None:
            els = self.elements
            self._covers = tuple((els[i], els[j]) for i, up in enumerate(self.upper) for j in up)
        return self._covers

    def covers_into(self, b):
        return tuple(p for p in self.covers() if p[1] == b)

    @cached_property
    def leq(self):
        """The order relation as a frozenset of pairs, built on first use."""
        els = self.elements
        return frozenset((a, els[j]) for a, up in zip(els, self.ups) for j in bits(up))

    def linear_extension(self):
        """Deterministic topological order of the elements.

        Each step places the first element, in the canonical order of
        ``self.elements``, whose strict down-set is already placed.  Kahn's
        algorithm over the covers with a heap of indices gives exactly that
        order: an element's lower covers are placed only after everything
        below them.  Computed once per poset, as covers() is.
        """
        if self._linear is None:
            upper = self.upper
            indegree = [0] * len(upper)
            for up in upper:
                for j in up:
                    indegree[j] += 1
            ready = [i for i, d in enumerate(indegree) if not d]  # sorted, so a heap
            out = []
            while ready:
                i = heappop(ready)
                out.append(self.elements[i])
                for j in upper[i]:
                    indegree[j] -= 1
                    if not indegree[j]:
                        heappush(ready, j)
            self._linear = tuple(out)
        return self._linear

    def minimum(self):
        full = (1 << len(self.elements)) - 1
        return next((e for e, up in zip(self.elements, self.ups) if up == full), None)

    def maximum(self):
        common = (1 << len(self.elements)) - 1
        for up in self.ups:
            common &= up
        return self.elements[common.bit_length() - 1] if common else None

    def is_connected(self) -> bool:
        """Connectivity of the comparability graph: grow the component of
        the first element by every up-set that meets it."""
        full = (1 << len(self.elements)) - 1
        reached, grown = 0, full & 1
        while grown != reached:
            reached = grown
            for up in self.ups:
                if up & reached:
                    grown |= up
        return reached == full

    def __contains__(self, el):
        try:
            return el in self.index
        except TypeError:  # an unhashable value is no element
            return False

    def __repr__(self):
        return f"FinPoset({len(self.elements)} elements, {sum(up.bit_count() for up in self.ups)} relations)"


def _canonical(elements):
    """The elements in canonical order and the index of each; raises
    DomainError on a duplicate, and on elements that are not an iterable
    of hashables."""
    try:
        order = tuple(sorted(elements, key=element_sort_key))
        index = {e: i for i, e in enumerate(order)}
    except TypeError as exc:
        raise DomainError(f"poset elements must be an iterable of hashables: {exc}") from None
    if len(index) != len(order):
        raise DomainError("duplicate poset elements")
    return order, index


def _masks(index, pairs, what) -> tuple:
    """Per element of index, the mask with bit j set for each pair of it and
    the j-th element; and the pairs that name a non-element, in order.
    Raises DomainError unless pairs is an iterable of pairs of hashables."""
    masks, strays = [0] * len(index), []
    try:
        for a, b in pairs:
            i, j = index.get(a), index.get(b)
            if i is None or j is None:
                strays.append((a, b))
            else:
                masks[i] |= 1 << j
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{what} must be an iterable of pairs of hashables: {exc}") from None
    return masks, strays


def _closure(succ) -> tuple:
    """The reflexive transitive closure of successor masks, by one iterative
    pass of Tarjan's algorithm, and the least index on a cycle (None if
    acyclic).  ``order`` holds each element's visit number until its
    component is finished, then len(succ), which lowers no low-link."""
    n = len(succ)
    ups, order, low, stack, cyclic, visits = [0] * n, [None] * n, [0] * n, [], [], count()
    for root in range(n):
        work = [] if order[root] is not None else [(root, None, 0)]
        while work:
            v, todo, base = work.pop()
            if todo is None:
                order[v] = low[v] = next(visits)
                base, todo = len(stack), iter(bits(succ[v]))
                stack.append(v)
            for w in todo:
                if order[w] is None:
                    work += ((v, todo, base), (w, None, 0))
                    break
                low[v] = min(low[v], order[w])
            else:
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == order[v]:
                    component = stack[base:]
                    del stack[base:]
                    for w in component:
                        order[w] = n
                    if len(component) > 1 or succ[v] >> v & 1:
                        cyclic.append(min(component))
                    else:
                        ups[v] = _union(ups, succ[v]) | 1 << v
    return ups, min(cyclic, default=None)


def _union(masks, sel: int) -> int:
    """The union of masks[j] over the set bits j of sel."""
    out = 0
    for j in bits(sel):
        out |= masks[j]
    return out


class PosetMap(_Keyed):
    """A monotone map between finite posets, given by an element dictionary.

    The constructor checks totality and monotonicity on the covers;
    ``_trusted`` installs oracles.poset_maps' enumeration unchecked, and
    oracles.audited() rebuilds each through the constructor.  The key is
    (src, dst, mapping), hashed on first use with the mapping as a set of
    items."""

    def __init__(self, src: FinPoset, dst: FinPoset, mapping):
        if not (isinstance(src, FinPoset) and isinstance(dst, FinPoset)):
            raise DomainError(f"a PosetMap runs between FinPosets, got {type(src).__name__} and {type(dst).__name__}")
        try:
            mapping = dict(mapping)
        except (TypeError, ValueError):
            raise DomainError(f"a PosetMap's mapping must be a table, got {type(mapping).__name__}") from None
        self._install(src, dst, mapping)
        for e in src.elements:
            if e not in self.mapping:
                raise DomainError(f"map undefined on {e!r}")
            if self.mapping[e] not in dst:
                raise DomainError(f"image {self.mapping[e]!r} of {e!r} is not in the target")
        # monotone on the covers is monotone on their closure
        els = src.elements
        for a, upper in zip(els, src.upper):
            for j in upper:
                if not dst.le(self.mapping[a], self.mapping[els[j]]):
                    raise DomainError(f"map is not monotone on {a!r} <= {els[j]!r}")

    @classmethod
    def _trusted(cls, src, dst, mapping):
        """A map from a dictionary known to be total and monotone, kept as
        given; nothing is checked."""
        return cls._made(src, dst, mapping)

    def _install(self, src, dst, mapping):
        self.src, self.dst, self.mapping = src, dst, mapping
        self._key, self._hash = (src, dst, mapping), None

    def _hashed(self):
        return hash((self.src, self.dst, frozenset(self.mapping.items())))

    def __call__(self, e):
        try:
            return self.mapping[e]
        except (KeyError, TypeError):  # an unhashable one is no element
            raise DomainError(f"map undefined on {e!r}") from None

    @staticmethod
    def identity(p: FinPoset) -> "PosetMap":
        # a p that is no FinPoset gets an empty table, and the constructor refuses it
        return PosetMap(p, p, {e: e for e in p.elements} if isinstance(p, FinPoset) else {})

    def __repr__(self):
        return f"PosetMap({self.mapping})"


def _along(f, x, cls, name: str, what: str) -> tuple:
    """The source and mapping of f, once x is a cls and f a PosetMap into
    x's base: the checks of the public pullbacks, each refusal worded for
    the caller name and x's kind, what."""
    if not (isinstance(x, cls) and isinstance(f, PosetMap)):
        raise DomainError(f"{name} needs a {cls.__name__} and a PosetMap")
    if f.dst != x.base:
        raise DomainError(f"pullback map must land in the {what}'s base")
    return f.src, f.mapping


POINT_ELEMENT = "pt"


# The constant posets are built once and shared: a FinPoset never changes
# after construction apart from its lazily computed covers.  All three go
# through the checking constructor, so no audit counts them, whichever
# builds them first.
@lru_cache(maxsize=None)
def point_poset() -> FinPoset:
    return FinPoset([POINT_ELEMENT], [(POINT_ELEMENT, POINT_ELEMENT)])


@lru_cache(maxsize=None)
def arrow_poset() -> FinPoset:
    """The walking arrow {0 < 1} with string elements."""
    return FinPoset(["0", "1"], [("0", "0"), ("0", "1"), ("1", "1")])


@lru_cache(maxsize=None)
def path_poset() -> FinPoset:
    """The chain {0 < 1 < 2} used to glue bordisms."""
    return FinPoset(["0", "1", "2"], [(a, b) for a in "012" for b in "012" if a <= b])
