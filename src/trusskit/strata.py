"""The category of stratum positions over finite ordinals.

Objects are the strata of a 1-truss with n+1 regular levels: regular
positions r_i@n for 0 <= i <= n and singular positions s_i@n for
0 <= i < n.  A morphism over a weakly increasing map a: [n] -> [m] from a
position with index i to one with index j exists exactly when

    regular  -> regular :  a(i) = j
    singular -> singular:  a(i) <= j <  a(i+1)
    singular -> regular :  a(i) <= j <= a(i+1)
    regular  -> singular:  never

These constraints are closed under composition, so the composite of two
valid morphisms is valid by construction.

For a fixed a the targets of a position form an interval of the zigzag
over [m]: a regular r_i has the single target r_{a(i)}, and a singular s_i
has the targets r_j for a(i) <= j <= a(i+1) and s_j for a(i) <= j < a(i+1).
stratum_targets returns that interval.  Fibers and factorization posets
are built from it, laid out as masks: elements in canonical order by
construction, and each up-set set as the bit interval of its targets,
installed unchecked through FinPoset._trusted.  Bundle total spaces are
laid out in the same order, but close each up-set over the base's covers
(bundle.total_space), and install through TotalPoset._trusted.  hom_strata
generates its maps without filtering and installs them unchecked
(StratumMap._trusted, as compose_strata does), so each costs time
proportional to its output.  oracles.audited() audits every unchecked
install, posets through its FinPoset row, and the homsets and factorization
suites compare fibers and factorization posets with a pair-by-pair filter
spelling.  StratumMap is a slotted frozen dataclass whose _trusted and
copies come from ordinal._slotted, as the ordinal maps' do.

Strata are interned: there is exactly one Stratum instance per value
(kind, index, n), however it was made (constructed, parsed, copied or
unpickled), so two strata are equal exactly when they are the same object.
Like Ordinal, Stratum is an ordinal._Interned: immutable, and copied or
unpickled by its value.  Total-space elements are nested tuples of strata,
so hashing and comparing them runs in C.  Only values that pass every check
are interned.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement

from .errors import DomainError
from .ordinal import DeltaMap, MonotoneMap, Ordinal, _Interned, _slotted, compose_delta
from .poset import FinPoset

REGULAR = "r"
SINGULAR = "s"


# One instance per stratum value, keyed by (kind, index, n).
_STRATA = {}


class Stratum(_Interned):
    """A regular or singular position in the fiber over the ordinal [n].

    Strata are interned: constructing, parsing, copying or unpickling a
    stratum returns the one instance with its value, so equality is
    identity and hashing is the object's own, both done in C.  Instances
    are immutable.
    """

    __slots__ = ("kind", "index", "n", "is_regular", "_sort_key")
    _value = ("kind", "index", "n")

    def __new__(cls, kind, index, n):
        if type(index) is int and type(n) is int:
            try:
                return _STRATA[kind, index, n]
            except (KeyError, TypeError):  # TypeError: an unhashable kind
                pass
        if kind not in (REGULAR, SINGULAR):
            raise DomainError(f"kind must be {REGULAR!r} or {SINGULAR!r}, got {kind!r}")
        if type(index) is bool or not isinstance(index, int):
            raise DomainError(f"stratum index must be an int, got {index!r}")
        if type(n) is bool or not isinstance(n, int):
            raise DomainError(f"ambient ordinal must be an int, got {n!r}")
        if n < 0:
            raise DomainError(f"ambient ordinal must be nonnegative, got {n}")
        hi = n if kind == REGULAR else n - 1
        if not 0 <= index <= hi:
            raise DomainError(f"index {index} out of range for {kind}@{n}")
        key = (REGULAR if kind == REGULAR else SINGULAR, int(index), int(n))
        self = object.__new__(cls)
        set_field = object.__setattr__
        set_field(self, "kind", key[0])
        set_field(self, "index", key[1])
        set_field(self, "n", key[2])
        set_field(self, "is_regular", key[0] == REGULAR)
        set_field(self, "_sort_key", key)
        return _STRATA.setdefault(key, self)

    @staticmethod
    def regular(i: int, n: int) -> "Stratum":
        return Stratum(REGULAR, i, n)

    @staticmethod
    def singular(i: int, n: int) -> "Stratum":
        return Stratum(SINGULAR, i, n)

    @staticmethod
    def parse(text: str) -> "Stratum":
        """Parse literals like "r0@2" or "s1@3"."""
        try:
            kind = text[0]
            i, n = text[1:].split("@")
            return Stratum(kind, int(i), int(n))
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:  # no str, or no literal
            raise DomainError(f"bad stratum literal {text!r}, expected e.g. 's0@1'") from exc

    def sort_key(self):
        return self._sort_key

    def __repr__(self):
        return f"Stratum(kind={self.kind!r}, index={self.index!r}, n={self.n!r})"

    def __str__(self):
        return f"{self.kind}{self.index}@{self.n}"


# Kept small: the StratumMap constructor calls it with maps that are often
# fresh keys, so a large cache would only keep dead maps alive.
@lru_cache(maxsize=4096)
def validate_stratum_map(src: Stratum, dst: Stratum, alpha: DeltaMap) -> bool:
    """Whether alpha carries a morphism src -> dst.  The ambient ordinals of
    src and dst must match alpha's endpoints."""
    if not (isinstance(src, Stratum) and isinstance(dst, Stratum) and isinstance(alpha, MonotoneMap)):
        raise DomainError(f"validate_stratum_map needs two strata and a map, got {src!r}, {dst!r} and {alpha!r}")
    if alpha.src.n != src.n or alpha.dst.n != dst.n:
        raise DomainError(f"{alpha} does not run between the ambients of {src} and {dst}")
    i, j = src.index, dst.index
    if src.is_regular:
        return dst.is_regular and alpha(i) == j
    if dst.is_regular:
        return alpha(i) <= j <= alpha(i + 1)
    return alpha(i) <= j < alpha(i + 1)


@_slotted
@dataclass(frozen=True)
class StratumMap:
    """A valid morphism between stratum positions, over its underlying map."""

    __slots__ = ("src", "dst", "underlying")

    src: Stratum
    dst: Stratum
    underlying: DeltaMap

    def __post_init__(self):
        try:
            valid = validate_stratum_map(self.src, self.dst, self.underlying)
        except TypeError:  # the cache hashes its arguments first
            names = ", ".join(type(v).__name__ for v in (self.src, self.dst, self.underlying))
            raise DomainError(f"a StratumMap needs two strata and a map, got {names}") from None
        if not valid:
            raise DomainError(f"{self.underlying} carries no morphism {self.src} -> {self.dst}")

    def __str__(self):
        return f"{self.src} -> {self.dst} via {list(self.underlying.values)}"


def hom_strata(x: Stratum, y: Stratum) -> tuple:
    """All morphisms x -> y, ordered lexicographically by underlying values.

    The values a(0..i-1) of a map r_i -> r_j lie in [0, j], a(i) = j and
    the rest lie in [j, m]; for s_i -> y the values a(0..i) lie in [0, j]
    and the rest in [j, m] (in [j+1, m] when y is singular).  Heads and
    tails are each enumerated in lexicographic order, so their product in
    head-major order is lexicographic too.  A hom set whose ordinals pass
    the machine's index size is refused with a DomainError.
    """
    if not (isinstance(x, Stratum) and isinstance(y, Stratum)):
        raise DomainError(f"hom_strata needs two strata, got {x!r} and {y!r}")
    i, j, m = x.index, y.index, y.n
    if x.is_regular:
        if not y.is_regular:
            return ()
        head, pin, low = i, (j,), j
    else:
        head, pin, low = i + 1, (), j if y.is_regular else j + 1
    src, dst = Ordinal(x.n), Ordinal(m)
    make, under = StratumMap._trusted, DeltaMap._trusted
    try:
        tails = tuple(combinations_with_replacement(range(low, m + 1), x.n - i))
        return tuple(
            make(x, y, under(src, dst, h + pin + t))
            for h in combinations_with_replacement(range(j + 1), head)
            for t in tails
        )
    except OverflowError:
        raise DomainError(f"hom({x}, {y}) is too large to enumerate") from None


def compose_strata(f: StratumMap, g: StratumMap) -> StratumMap:
    """First f, then g.  The composite of two StratumMaps is valid by
    closure; of anything else with an underlying map it is checked."""
    if not all(isinstance(k, StratumMap) or hasattr(k, "underlying") for k in (f, g)):
        raise DomainError(f"compose_strata needs two stratum maps, got {f!r} and {g!r}")
    if f.dst != g.src:
        raise DomainError(f"cannot compose {f} before {g}")
    make = StratumMap._trusted if isinstance(f, StratumMap) and isinstance(g, StratumMap) else StratumMap
    return make(f.src, g.dst, compose_delta(f.underlying, g.underlying))


def forget_to_delta(f: StratumMap) -> DeltaMap:
    """The underlying map; strictly functorial by construction."""
    if not isinstance(f, StratumMap):
        raise DomainError(f"forget_to_delta needs a stratum map, got {type(f).__name__}")
    return f.underlying


# typed, so that only an int n can meet its cached fiber
@lru_cache(maxsize=1024, typed=True)
def fiber_objects(n: int) -> tuple:
    """The 2n+1 positions over [n], in canonical order: r_0..r_n, then
    s_0..s_(n-1)."""
    if type(n) is bool or not isinstance(n, int) or n < 0:
        raise DomainError(f"a fiber lies over an ordinal [n] with n a nonnegative int, got {n!r}")
    if 2 * n + 1 > sys.maxsize:  # more positions than the machine can index
        raise DomainError(f"the fiber over [{n}] is too large to enumerate")
    regs = [Stratum.regular(i, n) for i in range(n + 1)]
    sings = [Stratum.singular(i, n) for i in range(n)]
    return tuple(regs + sings)


def stratum_targets(x: Stratum, alpha: DeltaMap) -> tuple:
    """Every y over alpha's target with a morphism x -> y over alpha, in
    the order of fiber_objects: an interval of regulars, then of singulars."""
    if not (isinstance(x, Stratum) and isinstance(alpha, MonotoneMap)):
        raise DomainError(f"stratum_targets needs a stratum and a map, got {x!r} and {alpha!r}")
    if alpha.src.n != x.n:
        raise DomainError(f"{alpha} does not start at the ambient of {x}")
    m = alpha.dst.n
    objs = fiber_objects(m)
    lo = alpha.values[x.index]
    if x.is_regular:
        return objs[lo:lo + 1]
    hi = alpha.values[x.index + 1]
    return objs[lo:hi + 1] + objs[m + 1 + lo:m + 1 + hi]


def _fiber_ups(n: int, at: int = 0) -> list:
    """The up-set masks of the fiber over [n] laid out from bit at: r_i is
    bit at + i, and s_i is bit at + n + 1 + i, below r_i and r_(i+1)."""
    return [1 << at + i for i in range(n + 1)] + [(3 << at + i) | 1 << at + n + 1 + i for i in range(n)]


def fiber_over_ordinal(n: int) -> FinPoset:
    """The fiber over [n]: the zigzag r_0 > s_0 < r_1 > ... < r_n, with
    s_i below both r_i and r_{i+1}."""
    try:
        objs = fiber_objects(n)
    except TypeError:  # unhashable: the cache refuses it before the guard
        raise DomainError(f"a fiber lies over an ordinal [n], n an int, got {type(n).__name__}") from None
    return FinPoset._trusted(objs, _fiber_ups(n))


def fiber_over_map(alpha: DeltaMap) -> FinPoset:
    """Both fibers side by side, plus every cross relation realized by a
    morphism over alpha.  Elements are tagged ("src", x) and ("dst", y);
    in canonical order the ("dst", y) come first, from bit 0, then the
    ("src", x), and the up-set of ("src", x) adds the interval
    stratum_targets(x, alpha) of the target fiber."""
    if not isinstance(alpha, MonotoneMap):
        raise DomainError(f"fiber_over_map needs a DeltaMap, got {alpha!r}")
    n, m, v = alpha.src.n, alpha.dst.n, alpha.values
    elements = [("dst", y) for y in fiber_objects(m)] + [("src", x) for x in fiber_objects(n)]
    at = 2 * m + 1
    ups = _fiber_ups(m) + _fiber_ups(n, at)
    for i in range(n + 1):
        ups[at + i] |= 1 << v[i]
    for i in range(n):
        lo, width = v[i], v[i + 1] - v[i]
        ups[at + n + 1 + i] |= ((2 << width) - 1) << lo | ((1 << width) - 1) << m + 1 + lo
    return FinPoset._trusted(elements, ups)


def factorization_poset(
    x: Stratum, z: Stratum, h: StratumMap, alpha: DeltaMap, beta: DeltaMap
) -> FinPoset:
    """All middle positions y over alpha's target through which h factors as
    (x -> y over alpha) then (y -> z over beta), ordered as in the fiber.

    Since a morphism over a fixed underlying map either exists or not, a
    factorization is determined by the object it passes through.  The
    middles are a subset of stratum_targets(x, alpha), so already in
    canonical order; a singular middle s_j lies below the regular middles
    r_j and r_(j+1).
    """
    if not (
        isinstance(x, Stratum) and isinstance(z, Stratum) and isinstance(h, StratumMap)
        and isinstance(alpha, MonotoneMap) and isinstance(beta, MonotoneMap)
    ):
        raise DomainError("factorization_poset needs two strata, a stratum map and two maps")
    if alpha.dst != beta.src:
        raise DomainError(f"{alpha} and {beta} do not compose")
    if h.src != x or h.dst != z:
        raise DomainError(f"{h} does not run from {x} to {z}")
    if h.underlying != compose_delta(alpha, beta):
        raise DomainError(f"{h} does not lie over the composite of {alpha} and {beta}")
    objs = [y for y in stratum_targets(x, alpha) if z in stratum_targets(y, beta)]
    index = {y: k for k, y in enumerate(objs)}
    fiber = fiber_objects(alpha.dst.n)
    ups = []
    for k, y in enumerate(objs):
        up = 1 << k
        if not y.is_regular:
            for r in fiber[y.index:y.index + 2]:
                if r in index:
                    up |= 1 << index[r]
        ups.append(up)
    return FinPoset._trusted(objs, ups)
