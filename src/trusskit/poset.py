"""Finite posets with explicit relation sets, and monotone maps between them.

Elements are arbitrary hashables.  Total spaces of bundles use nested pairs
(base element, stratum), so ordering of elements is defined structurally by
element_sort_key rather than by relying on the elements being comparable.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heappop, heappush

from .errors import DomainError


def element_sort_key(el):
    """Canonical sort key: strings/ints first, then objects exposing
    sort_key(), then tuples compared componentwise."""
    if isinstance(el, tuple):
        return (2,) + tuple(element_sort_key(c) for c in el)
    if hasattr(el, "sort_key"):
        return (1,) + tuple(el.sort_key())
    return (0, str(el))


class FinPoset:
    """A finite poset: elements plus the full reflexive order relation.

    The constructor checks reflexivity, antisymmetry and transitivity and
    raises DomainError on any violation.
    """

    def __init__(self, elements, leq):
        elements = list(elements)
        if len(set(elements)) != len(elements):
            raise DomainError("duplicate poset elements")
        self.elements = tuple(sorted(elements, key=element_sort_key))
        self.leq = frozenset((a, b) for a, b in leq)
        self._eset = frozenset(self.elements)
        self._validate()
        self._covers = None
        self._hash = hash((self.elements, self.leq))

    def _validate(self):
        up = {e: set() for e in self.elements}
        for a, b in self.leq:
            if a not in self._eset or b not in self._eset:
                raise DomainError(f"relation ({a!r}, {b!r}) mentions a non-element")
            up[a].add(b)
        for e in self.elements:
            if e not in up[e]:
                raise DomainError(f"relation is not reflexive at {e!r}")
        for a, b in self.leq:
            if a != b and (b, a) in self.leq:
                raise DomainError(f"antisymmetry fails on {a!r}, {b!r}")
            for c in up[b]:
                if (a, c) not in self.leq:
                    raise DomainError(f"transitivity fails: {a!r} <= {b!r} <= {c!r}")
        self._up = {e: frozenset(s) for e, s in up.items()}

    @classmethod
    def from_covers(cls, elements, covers):
        """Build from covering pairs; takes the reflexive transitive closure."""
        elements = list(elements)
        adj = {e: set() for e in elements}
        for a, b in covers:
            if a not in adj or b not in adj:
                raise DomainError(f"cover ({a!r}, {b!r}) mentions a non-element")
            adj[a].add(b)
        leq = set()
        for e in elements:
            seen = {e}
            stack = [e]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y == e:
                        raise DomainError(f"cover relation has a cycle through {e!r}")
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            leq.update((e, y) for y in seen)
        return cls(elements, leq)

    def le(self, a, b) -> bool:
        return (a, b) in self.leq

    def up(self, a):
        return self._up[a]

    def down(self, a):
        return frozenset(x for x in self.elements if (x, a) in self.leq)

    def covers(self):
        """Hasse diagram: pairs (a, b) with a < b and nothing strictly between."""
        if self._covers is None:
            out = []
            for a, b in self.leq:
                if a == b:
                    continue
                between = any(m != a and m != b and (m, b) in self.leq for m in self._up[a])
                if not between:
                    out.append((a, b))
            self._covers = tuple(sorted(out, key=lambda p: (element_sort_key(p[0]), element_sort_key(p[1]))))
        return self._covers

    def covers_into(self, b):
        return tuple(p for p in self.covers() if p[1] == b)

    def linear_extension(self):
        """Deterministic topological order of the elements.

        Each step places the first element, in the canonical order of
        ``self.elements``, whose strict down-set is already placed.  Kahn's
        algorithm with a heap of canonical indices gives exactly that order
        in O(|<=| log n).
        """
        elements = self.elements
        index = {e: i for i, e in enumerate(elements)}
        indegree = [0] * len(elements)
        for a, b in self.leq:
            if a != b:
                indegree[index[b]] += 1
        ready = [i for i, d in enumerate(indegree) if not d]  # sorted, so a heap
        out = []
        while ready:
            e = elements[heappop(ready)]
            out.append(e)
            for b in self._up[e]:
                if b != e:
                    j = index[b]
                    indegree[j] -= 1
                    if not indegree[j]:
                        heappush(ready, j)
        if len(out) != len(elements):
            raise DomainError("no linear extension: relation is cyclic")
        return tuple(out)

    def minimum(self):
        for e in self.elements:
            if all((e, x) in self.leq for x in self.elements):
                return e
        return None

    def maximum(self):
        for e in self.elements:
            if all((x, e) in self.leq for x in self.elements):
                return e
        return None

    def is_connected(self) -> bool:
        """Connectivity of the comparability graph."""
        if not self.elements:
            return True
        seen = {self.elements[0]}
        stack = [self.elements[0]]
        while stack:
            x = stack.pop()
            for a, b in self.leq:
                other = b if a == x else a if b == x else None
                if other is not None and other not in seen:
                    seen.add(other)
                    stack.append(other)
        return len(seen) == len(self.elements)

    def subposet(self, subset):
        subset = set(subset)
        return FinPoset(
            [e for e in self.elements if e in subset],
            [(a, b) for a, b in self.leq if a in subset and b in subset],
        )

    def __contains__(self, el):
        return el in self._eset

    def __eq__(self, other):
        return (
            isinstance(other, FinPoset)
            and self.elements == other.elements
            and self.leq == other.leq
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"FinPoset({len(self.elements)} elements, {len(self.leq)} relations)"


class PosetMap:
    """A monotone map between finite posets, given by an element dictionary."""

    def __init__(self, src: FinPoset, dst: FinPoset, mapping, label: str = ""):
        self.src = src
        self.dst = dst
        self.mapping = dict(mapping)
        self.label = label
        for e in src.elements:
            if e not in self.mapping:
                raise DomainError(f"map undefined on {e!r}")
            if self.mapping[e] not in dst:
                raise DomainError(f"image {self.mapping[e]!r} of {e!r} is not in the target")
        for a, b in src.leq:
            if not dst.le(self.mapping[a], self.mapping[b]):
                raise DomainError(f"map is not monotone on {a!r} <= {b!r}")

    def __call__(self, e):
        return self.mapping[e]

    @staticmethod
    def identity(p: FinPoset) -> "PosetMap":
        return PosetMap(p, p, {e: e for e in p.elements})

    def __eq__(self, other):
        return (
            isinstance(other, PosetMap)
            and self.src == other.src
            and self.dst == other.dst
            and self.mapping == other.mapping
        )

    def __hash__(self):
        return hash((self.src, self.dst, frozenset(self.mapping.items())))

    def __repr__(self):
        return f"PosetMap({self.mapping})"


POINT_ELEMENT = "pt"


# The constant posets are built once and shared: a FinPoset never changes
# after construction apart from its lazily computed covers.
@lru_cache(maxsize=None)
def point_poset() -> FinPoset:
    return FinPoset([POINT_ELEMENT], [(POINT_ELEMENT, POINT_ELEMENT)])


@lru_cache(maxsize=None)
def arrow_poset() -> FinPoset:
    """The walking arrow {0 < 1} with string elements."""
    return FinPoset.from_covers(["0", "1"], [("0", "1")])


@lru_cache(maxsize=None)
def path_poset() -> FinPoset:
    """The chain {0 < 1 < 2} used to glue bordisms."""
    return FinPoset.from_covers(["0", "1", "2"], [("0", "1"), ("1", "2")])
