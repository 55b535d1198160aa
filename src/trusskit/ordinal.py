"""Finite nonempty ordinals and weakly monotone maps.

Two arrow flavours live here: plain weakly increasing maps between the
ordinals [n] = {0, ..., n}, and endpoint-preserving weakly increasing maps
(the strict-interval side), both checked by one MonotoneMap base; its
_trusted installs unchecked the identities, composites, enumerations and
duals of validated maps, valid by construction (oracles.audited() audits
them).  The two are exchanged by an explicit duality given by counting
preimages, implemented in both directions below.  Identities and duals are
memoized by value: one identity per class and ordinal, and one dual per
map in a bounded table for each direction, so a mesh round trip dualizes
each distinct map once.  tower._empty_tables() empties these tables with
the library's others, so oracles.audited() installs, and audits, what a
block uses.

Ordinals are interned: there is exactly one Ordinal instance per n, so two
ordinals are equal exactly when they are the same object, and equality and
hashing run in C.  Maps stay value objects compared field by field: slotted
frozen dataclasses.  The value layer spells each half once, here, for
strata.py too: _Interned is the immutable base of Ordinal and Stratum, whose
copies and unpickled values are rebuilt from their value fields, and
_slotted gives MonotoneMap and StratumMap their _trusted, which sets the
three slots through their descriptors, and a __reduce__ that rebuilds
copies and unpickled values through the checking constructor.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import FrozenInstanceError, dataclass
from functools import lru_cache, wraps
from operator import attrgetter, gt

from .errors import DomainError


class _Interned:
    """The immutable base of an interned value: its fields are set once, in
    __new__, and a copy or an unpickled value is rebuilt from the fields
    _value names, which returns the one instance with that value."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (type(self), tuple(getattr(self, f) for f in self._value))


def _slotted(cls):
    """Give a slotted frozen dataclass of three fields _trusted, an install
    the constructor would accept, unchecked, that sets the slots through
    their own descriptors, and a __reduce__ that rebuilds copies and
    unpickled values through the checking constructor."""
    new, fields = object.__new__, attrgetter(*cls.__slots__)
    set_a, set_b, set_c = (cls.__dict__[f].__set__ for f in cls.__slots__)

    def _trusted(cls, a, b, c):
        self = new(cls)
        set_a(self, a)
        set_b(self, b)
        set_c(self, c)
        return self

    cls._trusted, cls.__reduce__ = classmethod(_trusted), lambda self: (type(self), fields(self))
    return cls


# One instance per ordinal, keyed by n.
_ORDINALS = {}


class Ordinal(_Interned):
    """The ordinal [n] = {0, 1, ..., n}, so always nonempty.

    Ordinals are interned: constructing, copying or unpickling one returns
    the single instance for its n, so equality is identity.  Instances are
    immutable.
    """

    __slots__ = ("n", "size")
    _value = ("n",)

    def __new__(cls, n):
        if type(n) is int:
            try:
                return _ORDINALS[n]
            except KeyError:
                pass
        if type(n) is bool or not isinstance(n, int) or n < 0:
            raise DomainError(f"ordinal index must be a nonnegative int, got {n!r}")
        n = int(n)
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "size", n + 1)
        return _ORDINALS.setdefault(n, self)

    def __repr__(self):
        return f"Ordinal(n={self.n!r})"

    def __str__(self):
        return f"[{self.n}]"


def _as_ordinal(x) -> Ordinal:
    return x if isinstance(x, Ordinal) else Ordinal(x)


@_slotted
@dataclass(frozen=True)
class MonotoneMap:
    """A weakly increasing map [src] -> [dst], stored as its value sequence;
    the shared value object of DeltaMap and NablaMap."""

    __slots__ = ("src", "dst", "values")

    src: Ordinal
    dst: Ordinal
    values: tuple

    def __post_init__(self):
        src, dst = _as_ordinal(self.src), _as_ordinal(self.dst)
        try:
            vs = tuple(self.values)
        except TypeError:
            raise DomainError(f"a map's values must be a sequence, got {type(self.values).__name__}") from None
        _set_src(self, src)
        _set_dst(self, dst)
        _set_values(self, vs)
        if len(vs) != src.size:
            raise DomainError(f"map on {src} needs {src.size} values, got {len(vs)}")
        top = dst.n
        for v in vs:
            if type(v) is bool or not isinstance(v, int) or not 0 <= v <= top:
                raise DomainError(f"value {v!r} outside {dst}")
        if any(map(gt, vs, vs[1:])):
            raise DomainError(f"values {vs} are not weakly increasing")

    def __call__(self, i: int) -> int:
        return self.values[i]

    def __str__(self):
        return f"{self.src}->{self.dst}:{list(self.values)}"

    @classmethod
    def identity(cls, n):
        """The identity on [n], one shared instance per class and ordinal."""
        return _identities(cls, _as_ordinal(n))


# the slots' own setters, for __post_init__: a frozen dataclass refuses setattr
_set_src, _set_dst, _set_values = (MonotoneMap.__dict__[f].__set__ for f in MonotoneMap.__slots__)


@lru_cache(maxsize=128)
def _identities(cls, n: Ordinal):
    make = cls._trusted if n.n or cls is DeltaMap else cls  # no interval map on [0]
    return make(n, n, tuple(range(n.size)))


class DeltaMap(MonotoneMap):
    """A weakly increasing map [src] -> [dst]."""

    __slots__ = ()

    # bound here, not only inherited, so the class's own __dict__ holds it
    __post_init__ = MonotoneMap.__post_init__


class NablaMap(MonotoneMap):
    """A weakly increasing endpoint-preserving map between ordinals of size >= 2."""

    __slots__ = ()

    def __post_init__(self):
        MonotoneMap.__post_init__(self)
        vs, top = self.values, self.dst.n
        if self.src.n < 1 or top < 1:
            raise DomainError("interval maps need ordinals [n] with n >= 1")
        if vs[0] != 0 or vs[-1] != top:
            raise DomainError(f"values {vs} do not preserve the endpoints of {self.dst}")

    def __str__(self):
        return MonotoneMap.__str__(self) + " (interval)"


def compose_delta(f: DeltaMap, g: DeltaMap) -> DeltaMap:
    """First f, then g."""
    try:
        if f.dst != g.src:
            raise DomainError(f"cannot compose {f} before {g}: middle ordinals differ")
    except AttributeError:
        raise DomainError(f"compose_delta needs two maps, got {type(f).__name__} and {type(g).__name__}") from None
    make = DeltaMap._trusted if isinstance(f, MonotoneMap) and isinstance(g, MonotoneMap) else DeltaMap
    return make(f.src, g.dst, tuple(g.values[v] for v in f.values))


def compose_nabla(f: NablaMap, g: NablaMap) -> NablaMap:
    """First f, then g.  Endpoint preservation is closed under composition."""
    try:
        if f.dst != g.src:
            raise DomainError(f"cannot compose {f} before {g}: middle ordinals differ")
    except AttributeError:
        raise DomainError(f"compose_nabla needs two maps, got {type(f).__name__} and {type(g).__name__}") from None
    make = NablaMap._trusted if isinstance(f, NablaMap) and isinstance(g, NablaMap) else NablaMap
    return make(f.src, g.dst, tuple(g.values[v] for v in f.values))


def enumerate_delta_maps(n, m) -> list:
    """All weakly increasing maps [n] -> [m], in lexicographic order.

    There are C(n+m+1, n+1) of them.
    """
    n, m = _as_ordinal(n), _as_ordinal(m)
    make = DeltaMap._trusted
    return [make(n, m, vs) for vs in itertools.combinations_with_replacement(range(m.size), n.size)]


def enumerate_nabla_maps(n, m) -> list:
    """All endpoint-preserving weakly increasing maps [n] -> [m], lexicographic."""
    n, m = _as_ordinal(n), _as_ordinal(m)
    if n.n < 1 or m.n < 1:
        raise DomainError("interval maps need ordinals [n] with n >= 1")
    make, combos = NablaMap._trusted, itertools.combinations_with_replacement(range(m.size), n.size)
    return [make(n, m, vs) for vs in combos if vs[0] == 0 and vs[-1] == m.n]


class Delta:
    """Δ, the ordinals and weakly increasing maps, as the target category of
    a functor (bundle.DeltaDiagram's): identity_of(n) is n's identity and
    compose_pair(f, g), first f then g, is compose_delta.  compose_pair and
    hom are read at use, not bound here, so a rebound compose_delta or
    enumerate_delta_maps (a tracer's) is the one called.  Delta(k) is the
    full subcategory on [0], ..., [k], whose objects and hom(a, b)
    oracles.functors enumerates; Delta(), Δ itself, lists no objects."""

    identity_of = DeltaMap.identity
    compose_pair = property(lambda self: compose_delta)
    hom = property(lambda self: enumerate_delta_maps)

    def __init__(self, bound=-1):
        self.objects = tuple(map(Ordinal, range(bound + 1)))


class NablaOp:
    """∇^op, the strict intervals [n], n >= 1, with interval maps taken
    backward, as the target category of a functor (mesh.NablaDiagram's): a
    morphism a -> b is an interval map [b] -> [a], so compose_pair(f, g),
    first f then g, is compose_nabla(g, f), read at use."""

    identity_of = NablaMap.identity

    def compose_pair(self, f, g):
        return compose_nabla(g, f)


def _by_value(maxsize):
    """The library's one memo for a public function: fn, memoized by its
    arguments' values in an lru_cache of maxsize entries that every caller
    shares.  Arguments that cannot be hashed run fn itself, so the type
    guard in fn's body refuses them as it refuses any other wrong type.
    Like an lru_cache, the wrapper has the table's cache_info and
    cache_clear, and __wrapped__ is fn."""
    def memoize(fn):
        memo = lru_cache(maxsize=maxsize)(fn)

        @wraps(fn)
        def by_value(*args):
            try:
                return memo(*args)
            except TypeError:  # unhashable; a TypeError of fn itself recurs
                return fn(*args)

        by_value.cache_info, by_value.cache_clear = memo.cache_info, memo.cache_clear
        return by_value
    return memoize


@_by_value(1024)
def dual_delta_to_nabla(f: DeltaMap) -> NablaMap:
    """The dual of f: [n] -> [m] is the interval map [m+1] -> [n+1] with

        j  |->  #{ i : f(i) < j }.

    It sends 0 to 0 and m+1 to n+1, so it preserves endpoints.  The values
    of f are sorted, so the count is a bisection.
    """
    try:
        vals = tuple(bisect_left(f.values, j) for j in range(f.dst.n + 2))
    except AttributeError:
        raise DomainError(f"dual_delta_to_nabla needs a map, got {type(f).__name__}") from None
    make = NablaMap._trusted if isinstance(f, MonotoneMap) else NablaMap
    return make(Ordinal(f.dst.n + 1), Ordinal(f.src.n + 1), vals)


@_by_value(1024)
def dual_nabla_to_delta(g: NablaMap) -> DeltaMap:
    """Inverse of dual_delta_to_nabla: for g: [m+1] -> [n+1] the dual
    [n] -> [m] sends i to #{ j in {1, ..., m+1} : g(j) <= i } (a bisection).
    """
    try:
        n, m = g.dst.n - 1, g.src.n - 1
    except AttributeError:
        raise DomainError(f"dual_nabla_to_delta needs a map, got {type(g).__name__}") from None
    vals = tuple(bisect_right(g.values, i, 1) - 1 for i in range(n + 1))
    make = DeltaMap._trusted if isinstance(g, NablaMap) else DeltaMap
    return make(Ordinal(n), Ordinal(m), vals)
