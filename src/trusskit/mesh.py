"""PL meshes with exact rational coordinates.

A 1-mesh stratifies the open interval (-1, 1) by finitely many singular
points; its compactification pads the endpoints.  A mesh bundle over a
finite poset (triangulated by its nerve) stores one compactified fiber per
vertex and, per covering relation, the interval map that says where each
singular sheet of the upper fiber attaches in the lower one.  The attachment
maps must form a NablaDiagram, a contravariant functor into intervals on the
CoverFunctor core of bundle.py.

Heights over an interior point of a simplex are convex combinations, and they
are strictly increasing by construction, so the constructor does not check
them.  Over a point of the simplex of a chain a_0 < ... < a_k whose stratum
vertex is a_s, sheet j sits at the sum over i <= s of c_i * h_i[g_i(j)],
where h_i are the compact heights over a_i, c_i the barycentric weights and
g_i the composite attachment map from a_s back to a_i.  Every g_i is weakly
increasing (an interval map; g_s is the identity), every h_i is strictly
increasing (CompactMesh1) and c_s > 0, so the sum strictly increases in j.
At the barycenter of a cover (a, b) this reads (h_a[g(j)] + h_b[j]) / 2.
The roundtrip-mesh oracle recomputes it at every cover's barycenter.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DiagramError, DomainError, MeshError, SectionError
from .ordinal import (
    DeltaMap,
    NablaMap,
    Ordinal,
    compose_nabla,
    dual_delta_to_nabla,
)
from .poset import FinPoset, PosetMap
from .strata import Stratum, validate_stratum_map
from .bundle import CoverFunctor, DeltaDiagram


ONE = Fraction(1)


@dataclass(frozen=True)
class Mesh1:
    """Strictly increasing singular heights inside (-1, 1)."""

    heights: tuple

    def __post_init__(self):
        hs = tuple(Fraction(h) for h in self.heights)
        object.__setattr__(self, "heights", hs)
        for h in hs:
            if not -ONE < h < ONE:
                raise MeshError(f"height {h} is not strictly inside (-1, 1)")
        if any(a >= b for a, b in zip(hs, hs[1:])):
            raise MeshError("heights must be strictly increasing")

    @property
    def ordinal(self) -> Ordinal:
        return Ordinal(len(self.heights))


@dataclass(frozen=True)
class CompactMesh1:
    """Heights with the endpoints -1 and 1 adjoined."""

    heights: tuple

    def __post_init__(self):
        hs = tuple(Fraction(h) for h in self.heights)
        object.__setattr__(self, "heights", hs)
        if len(hs) < 2 or hs[0] != -ONE or hs[-1] != ONE:
            raise MeshError("compact heights must start at -1 and end at 1")
        if any(a >= b for a, b in zip(hs, hs[1:])):
            raise MeshError("heights must be strictly increasing")

    @property
    def interior(self) -> tuple:
        return self.heights[1:-1]

    def __getitem__(self, i: int) -> Fraction:
        return self.heights[i]


def realize_1truss(n) -> Mesh1:
    """Evenly spaced singular heights for the fiber over [n]."""
    n = n.n if isinstance(n, Ordinal) else int(n)
    return Mesh1(tuple(-ONE + 2 * Fraction(k + 1, n + 1) for k in range(n)))


def compactify(m: Mesh1) -> CompactMesh1:
    return CompactMesh1((-ONE,) + m.heights + (ONE,))


@dataclass(frozen=True)
class StratSimplexPoint:
    """A point of a stratified simplex in barycentric coordinates; its
    stratum is the last vertex with nonzero weight."""

    coords: tuple

    def __post_init__(self):
        cs = tuple(Fraction(c) for c in self.coords)
        object.__setattr__(self, "coords", cs)
        if not cs or any(c < 0 for c in cs) or sum(cs) != 1:
            raise MeshError("coordinates must be nonnegative rationals summing to 1")

    @property
    def stratum(self) -> int:
        return max(i for i, c in enumerate(self.coords) if c != 0)


class NablaDiagram(CoverFunctor):
    """A contravariant functor into strict intervals: an ordinal [n] with
    n >= 1 per base element and, per covering relation a <= b, a backward
    interval map from the one over b to the one over a.  map_for(a, b) is
    the composite backward map of any related pair."""

    def __init__(self, base: FinPoset, ord, arrow):
        self.base = base
        self.ord = dict(ord)
        self.arrow = dict(arrow)
        ords = self.ord
        # contravariant: the composite along x <= y <= z runs z -> y -> x
        self._extend(
            (base, ords, self.arrow),
            lambda x: NablaMap.identity(ords[x]),
            lambda m_xy, m_yz: compose_nabla(m_yz, m_xy),
        )

    def _check_values(self):
        for n in self.ord.values():
            if not isinstance(n, Ordinal) or n.n < 1:
                raise DiagramError("interval objects must be ordinals [n] with n >= 1")
        for (a, b), g in self.arrow.items():
            if not isinstance(g, NablaMap) or g.src != self.ord[b] or g.dst != self.ord[a]:
                raise DiagramError(f"arrow on ({a!r}, {b!r}) is not an interval map"
                                   f" {self.ord[b]}->{self.ord[a]}")


class PLMeshBundle:
    """Compactified fiber heights per base vertex plus, per covering
    relation, the backward interval map attaching upper sheets to lower
    heights.  Validation is exact: fiber monotonicity, and the attachment
    maps must form a NablaDiagram over the fiber intervals, so they have the
    fibers' shapes and are functorial (any two routes between two vertices
    attach alike).  Interpolated heights are then strict at every interior
    point (see the module docstring), so they are not re-checked here."""

    def __init__(self, base: FinPoset, heights, sing):
        self.base = base
        self.heights = dict(heights)
        self.sing = dict(sing)
        for b, h in self.heights.items():
            if not isinstance(h, CompactMesh1):
                raise MeshError(f"heights over {b!r} are not a compactified 1-mesh")
        try:
            self._attach = NablaDiagram(
                base, {b: Ordinal(len(h.heights) - 1) for b, h in self.heights.items()}, self.sing
            )
        except DiagramError as exc:
            raise MeshError(f"heights and attachments are not an interval diagram: {exc}") from exc

    def fiber(self, b) -> CompactMesh1:
        return self.heights[b]

    def __eq__(self, other):
        return (
            isinstance(other, PLMeshBundle)
            and self.base == other.base
            and self.heights == other.heights
            and self.sing == other.sing
        )

    def __hash__(self):
        return hash((self.base, tuple(sorted(self.heights.items(), key=lambda kv: str(kv[0]))),
                     tuple(sorted(self.sing.items(), key=lambda kv: str(kv[0])))))

    def __repr__(self):
        return f"PLMeshBundle(base={len(self.base.elements)} vertices)"


def interpolated_heights(m: PLMeshBundle, chain, point: StratSimplexPoint) -> tuple:
    """Sheet heights over a point of the simplex spanned by a base chain.

    The sheets are those of the fiber over the point's stratum vertex; each
    earlier vertex contributes its attachment height weighted by the
    barycentric coordinate.  Endpoints stay at -1 and 1.
    """
    chain = tuple(chain)
    if len(point.coords) != len(chain):
        raise DomainError("barycentric coordinates must match the chain length")
    if any(v not in m.heights for v in chain):
        raise DomainError("chain vertices must be elements of the base")
    for u, v in zip(chain, chain[1:]):
        if u == v or not m.base.le(u, v):
            raise DomainError("chain must be strictly increasing in the base")
    top = chain[point.stratum]
    n_top = len(m.heights[top].heights) - 2
    backs = [m._attach.map_for(chain[k], top) for k in range(point.stratum + 1)]
    out = []
    for j in range(n_top + 2):
        total = Fraction(0)
        for k in range(point.stratum + 1):
            total += point.coords[k] * m.heights[chain[k]][backs[k](j)]
        out.append(total)
    return tuple(out)


def realize_bundle(d: DeltaDiagram, vertex_heights=None) -> PLMeshBundle:
    """Choose heights for a combinatorial bundle.

    Defaults to even spacing per fiber; any strictly monotone choice with
    the right number of interior heights is accepted.  Sheet attachments
    are the interval duals of the covering maps.
    """
    supplied = vertex_heights or {}
    heights = {}
    for b in d.base.elements:
        m1 = supplied[b] if b in supplied else realize_1truss(d.ord[b])
        if m1.ordinal != d.ord[b]:
            raise MeshError(f"supplied heights over {b!r} do not match ordinal {d.ord[b]}")
        heights[b] = compactify(m1)
    sing = {cov: dual_delta_to_nabla(d.arrow[cov]) for cov in d.base.covers()}
    return PLMeshBundle(d.base, heights, sing)


def reg_extract(m: PLMeshBundle) -> DeltaDiagram:
    """Read the combinatorial bundle back off the coordinates.

    The ordinal over b counts regular intervals minus one; the covering map
    tracks each regular interval's midpoint past the attachment heights of
    the upper fiber's sheets.
    """
    ords = {b: Ordinal(len(m.heights[b].heights) - 2) for b in m.base.elements}
    arrows = {}
    for (a, b) in m.base.covers():
        ha, hb = m.heights[a], m.heights[b]
        na, nb = ords[a].n, ords[b].n
        sigma = m.sing[(a, b)]
        attach = [ha[sigma(j)] for j in range(1, nb + 1)]
        vals = []
        for i in range(na + 1):
            mid = (ha[i] + ha[i + 1]) / 2
            vals.append(sum(1 for t in attach if t < mid))
        arrows[(a, b)] = DeltaMap(ords[a], ords[b], tuple(vals))
    try:
        return DeltaDiagram(m.base, ords, arrows)
    except DiagramError as exc:
        raise MeshError(f"extracted covering maps are not functorial: {exc}") from exc


def sing_extract(m: PLMeshBundle) -> NablaDiagram:
    """Read the backward interval maps off the interpolated geometry.

    Each sheet over the upper vertex is affine along the edge, so its
    attachment height is extrapolated from two interior samples and looked
    up in the lower fiber.
    """
    ords = {b: Ordinal(len(m.heights[b].heights) - 1) for b in m.base.elements}
    arrows = {}
    quarter = StratSimplexPoint((Fraction(3, 4), Fraction(1, 4)))
    half = StratSimplexPoint((Fraction(1, 2), Fraction(1, 2)))
    for (a, b) in m.base.covers():
        ha = m.heights[a]
        at_quarter = interpolated_heights(m, (a, b), quarter)
        at_half = interpolated_heights(m, (a, b), half)
        vals = []
        for j in range(len(at_half)):
            limit = 2 * at_quarter[j] - at_half[j]
            if limit not in ha.heights:
                raise MeshError(
                    f"sheet {j} over {b!r} does not attach to a height over {a!r}"
                )
            vals.append(ha.heights.index(limit))
        try:
            arrows[(a, b)] = NablaMap(ords[b], ords[a], tuple(vals))
        except DomainError as exc:
            raise MeshError(f"backward lift over ({a!r}, {b!r}) is not an interval map: {exc}") from exc
    try:
        return NablaDiagram(m.base, ords, arrows)
    except DiagramError as exc:
        raise MeshError(f"backward lifts are not contravariantly functorial: {exc}") from exc


def section_to_strata(m: PLMeshBundle, section) -> dict:
    """Turn a per-vertex choice of stratum into position markers, checking
    that the choice is continuous across every covering relation.

    The section maps each base element to (kind, index): the i-th regular
    interval or the i-th singular point of its fiber.
    """
    reg = reg_extract(m)
    out = {}
    for b in m.base.elements:
        if b not in section:
            raise SectionError(f"section misses base element {b!r}")
        choice = section[b]
        n = reg.ord[b].n
        if isinstance(choice, Stratum):
            if choice.n != n:
                raise SectionError(f"section at {b!r} lives in the wrong fiber")
            out[b] = choice
        else:
            kind, index = choice
            try:
                out[b] = Stratum(kind, index, n)
            except DomainError as exc:
                raise SectionError(f"section at {b!r} is out of range: {exc}") from exc
    for (a, b) in m.base.covers():
        if not validate_stratum_map(out[a], out[b], reg.arrow[(a, b)]):
            raise SectionError(
                f"section jumps across the covering relation ({a!r}, {b!r})"
            )
    return out


def pullback_mesh(m: PLMeshBundle, f: PosetMap) -> PLMeshBundle:
    """Restrict a mesh bundle along a monotone map into its base: each vertex
    keeps the heights over its image, and each cover attaches by the path
    table's composite between the images (the identity on a collapse)."""
    if f.dst != m.base:
        raise DomainError("pullback map must land in the bundle's base")
    return PLMeshBundle(
        f.src,
        {b: m.heights[f(b)] for b in f.src.elements},
        {(a, b): m._attach.map_for(f(a), f(b)) for (a, b) in f.src.covers()},
    )
