"""PL meshes with exact rational coordinates.

A 1-mesh stratifies [-1, 1] by finitely many singular heights; CompactMesh1,
a plain value, holds them with the endpoints.  realize_1truss shares one
evenly spaced CompactMesh1 per ordinal.
A mesh bundle over a finite poset (triangulated by its nerve) is a functor
on the CoverFunctor core: compact heights per vertex and, per covering
relation, the interval map attaching each singular sheet of the upper fiber
to a height of the lower one.  Its target, read at use, is Meshes, the
1-meshes with backward attachments: ∇^op (ordinal.NablaOp, NablaDiagram's
target) on the meshes' intervals, so both compose contravariantly.
realize_bundle, pullback_mesh and the readbacks (the mesh's own table or
its interval dual) install path tables known to be functorial;
PLMeshBundle(...) and parse check everything, and oracles.audited()
rebuilds every install through the checking constructor.  Duals and
identities are memoized by value in ordinal's tables, so a round trip
through realize_bundle and reg_extract reads each path entry's dual with
one lookup, and every proof shares one identity per ordinal.

Heights over an interior point of a simplex are convex combinations, and they
are strictly increasing by construction, so the constructor does not check
them.  Over a point of the simplex of a chain a_0 < ... < a_k whose stratum
vertex is a_s, sheet j sits at the sum over i <= s of c_i * h_i[g_i(j)],
where h_i are the compact heights over a_i, c_i the barycentric weights and
g_i the composite attachment map from a_s back to a_i.  Every g_i is weakly
increasing (an interval map; g_s is the identity), every h_i is strictly
increasing (CompactMesh1) and c_s > 0, so the sum strictly increases in j.
At the barycenter of a cover (a, b) this reads (h_a[g(j)] + h_b[j]) / 2.

The readbacks are the dualities and read no coordinates.  Along a cover
(a, b) sheet j runs from h_a[g(j)] to h_b[j], so it extrapolates to
h_a[g(j)] over a: sing_extract returns the stored g.  The i-th midpoint of
h_a lies strictly between h_a[i] and h_a[i + 1], so the interior sheets
landing below it are those with g(j) <= i, as many as the interval dual of
g gives at i: reg_extract returns that dual.  The roundtrip-mesh oracle
makes both readings through interpolated_heights, the independent
spelling of the geometry, and checks every cover's barycenter.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DiagramError, DomainError, MeshError, SectionError
from .ordinal import NablaMap, NablaOp, Ordinal, dual_delta_to_nabla, dual_nabla_to_delta
from .poset import FinPoset, PosetMap, _along
from .strata import Stratum, validate_stratum_map
from .bundle import CoverFunctor, DeltaDiagram


ONE = Fraction(1)


def _rationals(values, what: str) -> tuple:
    """values as Fractions; MeshError unless each is an int or a Fraction."""
    vs = tuple(values) if isinstance(values, Iterable) else None
    if vs is None or not all(type(v) in (int, Fraction) for v in vs):
        raise MeshError(f"{what} must be ints or Fractions, got {values!r}")
    return tuple(map(Fraction, vs))


@dataclass(frozen=True)
class CompactMesh1:
    """Strictly increasing heights from -1 to 1: the endpoints and, between
    them, the singular heights of a 1-mesh, given as ints or Fractions."""

    heights: tuple

    def __post_init__(self):
        hs = _rationals(self.heights, "compact heights")
        object.__setattr__(self, "heights", hs)
        if len(hs) < 2 or hs[0] != -ONE or hs[-1] != ONE:
            raise MeshError("compact heights must start at -1 and end at 1")
        if any(a >= b for a, b in zip(hs, hs[1:])):
            raise MeshError("heights must be strictly increasing")

    @property
    def interior(self) -> tuple:
        return self.heights[1:-1]

    @property
    def interval(self) -> Ordinal:
        """The interval [n + 1] indexing the heights."""
        return Ordinal(len(self.heights) - 1)

    def __getitem__(self, i: int) -> Fraction:
        return self.heights[i]


@lru_cache(maxsize=None)
def _even_heights(n: Ordinal) -> CompactMesh1:
    return CompactMesh1(tuple(-ONE + 2 * Fraction(k, n.size) for k in range(n.size + 1)))


def realize_1truss(n) -> CompactMesh1:
    """Evenly spaced singular heights for the fiber over the ordinal [n],
    endpoints included; one shared instance per ordinal."""
    return _even_heights(n if isinstance(n, Ordinal) else Ordinal(n))


@dataclass(frozen=True)
class StratSimplexPoint:
    """A point of a stratified simplex in barycentric coordinates (ints or
    Fractions); its stratum is the last vertex with nonzero weight."""

    coords: tuple

    def __post_init__(self):
        cs = _rationals(self.coords, "barycentric coordinates")
        object.__setattr__(self, "coords", cs)
        if not cs or any(c < 0 for c in cs) or sum(cs) != 1:
            raise MeshError("coordinates must be nonnegative rationals summing to 1")

    @property
    def stratum(self) -> int:
        return max(i for i, c in enumerate(self.coords) if c != 0)


def _check_attachments(ords, arrow, error):
    for (a, b), g in arrow.items():
        if not isinstance(g, NablaMap) or g.src != ords[b] or g.dst != ords[a]:
            raise error(f"arrow on ({a!r}, {b!r}) is not an interval map {ords[b]}->{ords[a]}")


class Meshes(NablaOp):
    """1-meshes with backward attachments, as the target category of a
    functor (PLMeshBundle's): an object is a CompactMesh1 and a morphism
    h -> k an interval map from k's interval to h's, composed as in ∇^op.
    A value that is no CompactMesh1 is read as ∇^op reads an object, so a
    wrong type is refused there."""

    def identity_of(self, h):
        return NablaMap.identity(h.interval if isinstance(h, CompactMesh1) else h)


class NablaDiagram(CoverFunctor):
    """A contravariant functor into strict intervals: an ordinal [n] with
    n >= 1 per base element and, per covering relation a <= b, a backward
    interval map from the one over b to the one over a.  map_for(a, b) is
    the composite backward map of any related pair."""

    target = NablaOp()

    def __init__(self, base: FinPoset, ord, arrow):
        self._extend((base, *self._tables(ord, arrow)))

    @staticmethod
    def _check_values(base, ords, arrow):
        for n in ords.values():
            if not isinstance(n, Ordinal) or n.n < 1:
                raise DiagramError("interval objects must be ordinals [n] with n >= 1")
        _check_attachments(ords, arrow, DiagramError)


class PLMeshBundle(CoverFunctor):
    """A NablaDiagram of attachments carrying compact heights per vertex:
    ``heights`` per base vertex and, per covering relation, the backward
    interval map ``sing`` attaching the upper sheets to lower heights.
    Validation is exact: the heights are CompactMesh1, the attachments have
    the fibers' shapes and are functorial (any two routes between two
    vertices attach alike).  Interpolated heights are then strict at every
    interior point (see the module docstring), so they are not re-checked
    here."""

    _error = MeshError
    _names = ("heights", "sing")
    _fields = ("base", "heights", "sing")
    target = Meshes()

    def __init__(self, base: FinPoset, heights, sing):
        self._extend((base, *self._tables(heights, sing)))

    @staticmethod
    def _check_values(base, heights, sing):
        for b, h in heights.items():
            if not isinstance(h, CompactMesh1):
                raise MeshError(f"heights over {b!r} are not a compactified 1-mesh")
        _check_attachments({b: h.interval for b, h in heights.items()}, sing, MeshError)

    def fiber(self, b) -> CompactMesh1:
        try:
            return self.heights[b]
        except (KeyError, TypeError):  # an unhashable one is no element
            raise DomainError(f"{b!r} is not a base element") from None

    def __repr__(self):
        return f"PLMeshBundle(base={len(self.base.elements)} vertices)"


def interpolated_heights(m: PLMeshBundle, chain, point: StratSimplexPoint) -> tuple:
    """Sheet heights over a point of the simplex spanned by a base chain.

    The sheets are those of the fiber over the point's stratum vertex; each
    earlier vertex contributes its attachment height weighted by the
    barycentric coordinate.  Endpoints stay at -1 and 1.
    """
    if not (isinstance(m, PLMeshBundle) and isinstance(chain, Iterable) and isinstance(point, StratSimplexPoint)):
        raise DomainError("interpolated_heights needs a PLMeshBundle, a chain and a StratSimplexPoint")
    chain = tuple(chain)
    if len(point.coords) != len(chain):
        raise DomainError("barycentric coordinates must match the chain length")
    if any(v not in m.base for v in chain):
        raise DomainError("chain vertices must be elements of the base")
    for u, v in zip(chain, chain[1:]):
        if u == v or not m.base.le(u, v):
            raise DomainError("chain must be strictly increasing in the base")
    top = chain[point.stratum]
    # per vertex up to the stratum's: its weight, its heights and its attachment map from top
    terms = [(point.coords[k], m.heights[chain[k]], m.map_for(chain[k], top)) for k in range(point.stratum + 1)]
    return tuple(sum((c * h[g(j)] for c, h, g in terms), Fraction(0)) for j in range(len(m.heights[top].heights)))


def realize_bundle(d: DeltaDiagram, vertex_heights=None) -> PLMeshBundle:
    """Choose heights for a combinatorial bundle.

    Defaults to even spacing per fiber; vertex_heights may supply a
    CompactMesh1 with the right number of interior heights for any base
    element.  Sheet attachments are the interval duals of d's maps: duality
    is a contravariant isomorphism of Delta with Nabla^op, so the duals of
    d's path table are a functorial path table, installed unchecked;
    oracles.audited() rebuilds the result through the checking constructor.
    """
    if not isinstance(d, DeltaDiagram):
        raise DomainError(f"realize_bundle needs a DeltaDiagram, got {type(d).__name__}")
    if not isinstance(vertex_heights, (Mapping, type(None))):
        raise MeshError(f"supplied heights must map base elements to CompactMesh1, got {vertex_heights!r}")
    supplied = dict(vertex_heights or {})
    for b, h in supplied.items():
        if b not in d.ord:
            raise MeshError(f"supplied heights name {b!r}, which is not a base element")
        if not isinstance(h, CompactMesh1):
            raise MeshError(f"supplied heights over {b!r} are not a CompactMesh1")
        if len(h.interior) != d.ord[b].n:
            raise MeshError(f"supplied heights over {b!r} do not match ordinal {d.ord[b]}")
    heights = {b: supplied[b] if b in supplied else realize_1truss(d.ord[b]) for b in d.base.elements}
    paths = {k: dual_delta_to_nabla(f) for k, f in d._paths.items()}
    return PLMeshBundle._trusted((d.base, heights), paths)


def reg_extract(m: PLMeshBundle) -> DeltaDiagram:
    """Read the combinatorial bundle back off the mesh.

    The ordinal over b counts regular intervals minus one, and each
    regular interval tracks past the attachment heights of the upper
    fiber's sheets as the interval dual of the stored attachment says (see
    the module docstring).  The dual of the mesh's path table is installed
    unchecked.
    """
    if not isinstance(m, PLMeshBundle):
        raise DomainError(f"reg_extract needs a PLMeshBundle, got {type(m).__name__}")
    ords = {b: Ordinal(len(m.heights[b].interior)) for b in m.base.elements}
    paths = {k: dual_nabla_to_delta(g) for k, g in m._paths.items()}
    return DeltaDiagram._trusted((m.base, ords), paths)


def sing_extract(m: PLMeshBundle) -> NablaDiagram:
    """Read the backward interval maps off the mesh: each sheet over the
    upper vertex of a cover extrapolates to the height it attaches to (see
    the module docstring), so the mesh's own path table is installed
    unchecked."""
    if not isinstance(m, PLMeshBundle):
        raise DomainError(f"sing_extract needs a PLMeshBundle, got {type(m).__name__}")
    ords = {b: m.heights[b].interval for b in m.base.elements}
    return NablaDiagram._trusted((m.base, ords), m._paths)


def section_to_strata(m: PLMeshBundle, section) -> dict:
    """Turn a per-vertex choice of stratum into position markers, checking
    that the choice is continuous across every covering relation.

    The section maps each base element to (kind, index): the i-th regular
    interval or the i-th singular point of its fiber.
    """
    reg = reg_extract(m)
    if not isinstance(section, Mapping):
        raise SectionError(f"a section maps base elements to strata, got {type(section).__name__}")
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
            try:
                kind, index = choice
                out[b] = Stratum(kind, index, n)
            except (TypeError, ValueError, DomainError) as exc:  # not a pair, or no such stratum
                raise SectionError(f"section at {b!r} is not a stratum of its fiber: {exc}") from exc
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
    src, image = _along(f, m, PLMeshBundle, "pullback_mesh", "bundle")
    return m.pullback(src, image)
