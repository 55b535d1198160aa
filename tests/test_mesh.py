"""Exact PL meshes: realization, extraction, duality, sections."""

import copy
import hashlib
import pickle
import re
from bisect import bisect_left
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trusskit import (
    CompactMesh1,
    DeltaDiagram,
    DeltaMap,
    DomainError,
    MeshError,
    NablaDiagram,
    NablaMap,
    Ordinal,
    PLMeshBundle,
    PosetMap,
    SectionError,
    StratSimplexPoint,
    Stratum,
    arrow_poset,
    dual_delta_to_nabla,
    dual_nabla_to_delta,
    dumps,
    interpolated_heights,
    point_poset,
    pullback_mesh,
    realize_1truss,
    realize_bundle,
    reg_extract,
    section_to_strata,
    sing_extract,
)
from trusskit import bundle, mesh, oracles, tower
from trusskit.bundle import pullback_bundle
from trusskit.oracles import SUITES, all_diagrams, all_posets, poset_maps
from trusskit.poset import FinPoset


F = Fraction


def inner_face_diagram():
    return DeltaDiagram(
        arrow_poset(),
        {"0": Ordinal(1), "1": Ordinal(2)},
        {("0", "1"): DeltaMap(1, 2, (0, 2))},
    )


def test_mesh1_validation():
    CompactMesh1((F(-1), F(-1, 3), F(1, 3), F(1)))
    with pytest.raises(MeshError, match="strictly increasing"):
        CompactMesh1((F(-1), F(1, 3), F(-1, 3), F(1)))
    with pytest.raises(MeshError, match="strictly increasing"):
        CompactMesh1((F(-1), F(-1), F(1, 2), F(1)))  # endpoint is not interior
    with pytest.raises(MeshError, match="strictly increasing"):
        CompactMesh1((F(-1), F(0), F(0), F(1)))


def test_compact_mesh_endpoints():
    m = CompactMesh1((-1, 0, 1))
    assert m.heights == (F(-1), F(0), F(1))
    assert m.interior == (F(0),)
    assert m.interval == Ordinal(2)
    with pytest.raises(MeshError):
        CompactMesh1((F(0), F(1)))


@pytest.mark.parametrize("heights", [(-1, "x", 1), (-1, None, 1), 5, (-1, "1e99999999", 1), (-1, True, 1)])
def test_compact_mesh_rejects_non_rational_heights(heights):
    # refused before Fraction sees the value, so an exponent string cannot
    # ask for a huge number
    with pytest.raises(MeshError, match="ints or Fractions"):
        CompactMesh1(heights)


def test_realize_even_spacing():
    assert realize_1truss(0).interior == ()
    assert realize_1truss(1).interior == (F(0),)
    assert realize_1truss(2).interior == (F(-1, 3), F(1, 3))
    assert realize_1truss(Ordinal(3)).interior == (F(-1, 2), F(0), F(1, 2))
    assert realize_1truss(1).heights == (F(-1), F(0), F(1))
    # one shared instance per ordinal, also inside realized bundles
    assert realize_1truss(2) is realize_1truss(Ordinal(2)) is realize_bundle(inner_face_diagram()).fiber("1")


@pytest.mark.parametrize("n", [-1, "x", None, 1.5, True])
def test_realize_1truss_refuses_a_non_ordinal(n):
    with pytest.raises(DomainError, match="ordinal index must be a nonnegative int"):
        realize_1truss(n)


def test_filled_tables_leave_a_compact_mesh_unchanged():
    filled = CompactMesh1((-1, F(-2, 3), F(1, 5), 1))
    fresh = CompactMesh1((-1, F(-2, 3), F(1, 5), 1))
    assert filled == fresh and hash(filled) == hash(fresh)
    bundles = [PLMeshBundle(point_poset(), {"pt": h}, {}) for h in (filled, fresh)]
    assert dumps(bundles[0]) == dumps(bundles[1])
    for twin in (copy.copy(filled), copy.deepcopy(filled), pickle.loads(pickle.dumps(filled))):
        assert twin == fresh and vars(twin) == vars(fresh) == {"heights": fresh.heights}
    assert pickle.dumps(filled) == pickle.dumps(fresh)


def test_strat_simplex_point():
    p = StratSimplexPoint((F(1, 2), F(1, 2)))
    assert p.stratum == 1
    assert StratSimplexPoint((F(1), F(0))).stratum == 0
    with pytest.raises(MeshError):
        StratSimplexPoint((F(1, 2), F(1, 4)))
    with pytest.raises(MeshError):
        StratSimplexPoint(())


@pytest.mark.parametrize("coords", [("x",), (None,), 5, (F(1, 2), 0.5), (True,)])
def test_strat_simplex_point_refuses_non_rational_coordinates(coords):
    with pytest.raises(MeshError, match="barycentric coordinates must be ints or Fractions"):
        StratSimplexPoint(coords)


def test_realize_bundle_inner_face():
    m = realize_bundle(inner_face_diagram())
    assert m.fiber("0").heights == (F(-1), F(0), F(1))
    assert m.fiber("1").heights == (F(-1), F(-1, 3), F(1, 3), F(1))
    assert m.sing[("0", "1")] == NablaMap(3, 2, (0, 1, 1, 2))


def test_interpolated_heights_at_barycenter():
    m = realize_bundle(inner_face_diagram())
    mid = interpolated_heights(
        m, ("0", "1"), StratSimplexPoint((F(1, 2), F(1, 2)))
    )
    assert mid == (F(-1), F(-1, 6), F(1, 6), F(1))


def test_interpolated_heights_validates_input():
    m = realize_bundle(inner_face_diagram())
    with pytest.raises(DomainError):
        interpolated_heights(m, ("1", "0"), StratSimplexPoint((F(1, 2), F(1, 2))))
    with pytest.raises(DomainError):
        interpolated_heights(m, ("0",), StratSimplexPoint((F(1, 2), F(1, 2))))
    with pytest.raises(DomainError, match="chain vertices must be elements of the base"):
        interpolated_heights(m, ("zz",), StratSimplexPoint((F(1),)))


def test_interpolated_heights_on_longer_chain():
    chain = FinPoset.from_covers(["a", "b", "c"], [("a", "b"), ("b", "c")])
    d = DeltaDiagram(
        chain,
        {"a": Ordinal(1), "b": Ordinal(2), "c": Ordinal(2)},
        {("a", "b"): DeltaMap(1, 2, (0, 2)), ("b", "c"): DeltaMap.identity(2)},
    )
    m = realize_bundle(d)
    third = F(1, 3)
    hs = interpolated_heights(m, ("a", "b", "c"), StratSimplexPoint((third, third, third)))
    assert hs[0] == F(-1) and hs[-1] == F(1)
    assert all(u < v for u, v in zip(hs, hs[1:]))


def test_reg_extract_roundtrip():
    d = inner_face_diagram()
    assert reg_extract(realize_bundle(d)) == d


def test_reg_extract_roundtrip_custom_heights():
    d = inner_face_diagram()
    custom = {
        "0": CompactMesh1((F(-1), F(-1, 2), F(1))),
        "1": CompactMesh1((F(-1), F(-7, 8), F(3, 4), F(1))),
    }
    m = realize_bundle(d, vertex_heights=custom)
    assert m.fiber("1").heights == (F(-1), F(-7, 8), F(3, 4), F(1))
    assert reg_extract(m) == d


def test_realize_bundle_rejects_wrong_height_count():
    d = inner_face_diagram()
    with pytest.raises(MeshError, match=r"over '1' do not match ordinal \[2\]"):
        realize_bundle(d, vertex_heights={"1": CompactMesh1((F(-1), F(0), F(1)))})


def test_realize_bundle_rejects_bad_supplied_heights():
    d = inner_face_diagram()
    with pytest.raises(MeshError, match="over '1' are not a CompactMesh1"):
        realize_bundle(d, vertex_heights={"1": (F(-1, 3), F(1, 3))})
    with pytest.raises(MeshError, match="name 'zz', which is not a base element"):
        realize_bundle(d, vertex_heights={"zz": CompactMesh1((F(-1), F(0), F(1)))})


def test_realize_bundle_accepts_partial_supplied_heights():
    d = inner_face_diagram()
    m = realize_bundle(d, vertex_heights={"0": CompactMesh1((F(-1), F(1, 2), F(1)))})
    assert m.fiber("0").heights == (F(-1), F(1, 2), F(1))
    assert m.fiber("1") == realize_1truss(2)
    assert m == PLMeshBundle(d.base, m.heights, m.sing)


def test_duality_triangle():
    d = inner_face_diagram()
    m = realize_bundle(d)
    reg = reg_extract(m)
    sing = sing_extract(m)
    for cov in d.base.covers():
        assert sing.arrow[cov] == dual_delta_to_nabla(reg.arrow[cov])
        assert sing.arrow[cov] == m.sing[cov]


def test_sing_extract_map_for_composes():
    chain = FinPoset.from_covers(["a", "b", "c"], [("a", "b"), ("b", "c")])
    d = DeltaDiagram(
        chain,
        {"a": Ordinal(0), "b": Ordinal(1), "c": Ordinal(2)},
        {("a", "b"): DeltaMap(0, 1, (0,)), ("b", "c"): DeltaMap(1, 2, (1, 2))},
    )
    m = realize_bundle(d)
    sing = sing_extract(m)
    assert sing.map_for("a", "c") == dual_delta_to_nabla(reg_extract(m).map_for("a", "c"))


def test_non_functorial_attachments_are_rejected():
    # on the square a < b < d, a < c < d every cover attaches by the
    # identity except (c, d), so the routes from d down to a disagree
    square = FinPoset.from_covers(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    heights = {v: CompactMesh1((F(-1), F(0), F(1))) for v in square.elements}
    sing = {cov: NablaMap(2, 2, (0, 1, 2)) for cov in square.covers()}
    sing[("c", "d")] = NablaMap(2, 2, (0, 0, 2))
    with pytest.raises(MeshError, match="composites from 'a' to 'd' disagree through 'b' and 'c'"):
        PLMeshBundle(square, heights, sing)


def test_attachment_must_be_an_interval_map():
    # a weakly increasing map that moves the endpoints is not an attachment
    heights = {v: CompactMesh1((F(-1), F(0), F(1))) for v in ("0", "1")}
    with pytest.raises(MeshError, match=r"arrow on \('0', '1'\) is not an interval map \[2\]->\[2\]"):
        PLMeshBundle(arrow_poset(), heights, {("0", "1"): DeltaMap(2, 2, (1, 1, 1))})


def test_section_to_strata_valid():
    m = realize_bundle(inner_face_diagram())
    out = section_to_strata(m, {"0": ("r", 0), "1": ("r", 0)})
    assert out == {"0": Stratum.regular(0, 1), "1": Stratum.regular(0, 2)}
    out = section_to_strata(m, {"0": ("s", 0), "1": Stratum.singular(1, 2)})
    assert out["1"] == Stratum.singular(1, 2)


def test_section_to_strata_rejects_jump():
    m = realize_bundle(inner_face_diagram())
    with pytest.raises(SectionError):
        section_to_strata(m, {"0": ("r", 0), "1": ("r", 1)})


def test_section_to_strata_rejects_bad_shapes():
    m = realize_bundle(inner_face_diagram())
    with pytest.raises(SectionError):
        section_to_strata(m, {"0": ("r", 0)})
    with pytest.raises(SectionError):
        section_to_strata(m, {"0": ("r", 5), "1": ("r", 0)})
    with pytest.raises(SectionError):
        section_to_strata(m, {"0": Stratum.regular(0, 2), "1": ("r", 0)})
    for shape in (5, ("r",), ("r", 0, 1)):
        with pytest.raises(SectionError, match="section at '0'"):
            section_to_strata(m, {"0": shape, "1": ("r", 0)})


def test_pullback_mesh_point():
    m = realize_bundle(inner_face_diagram())
    incl = PosetMap(point_poset(), arrow_poset(), {"pt": "1"})
    pulled = pullback_mesh(m, incl)
    assert pulled.fiber("pt") == m.fiber("1")
    assert pulled.sing == {}
    with pytest.raises(DomainError):
        pullback_mesh(m, PosetMap.identity(point_poset()))


def reference_pullback_mesh(m, f):
    """Pull back through the combinatorial bundle: extract it from the
    coordinates, pull it back and take the interval duals of its maps."""
    pulled = pullback_bundle(reg_extract(m), f)
    return PLMeshBundle(
        f.src,
        {b: m.heights[f(b)] for b in f.src.elements},
        {cov: dual_delta_to_nabla(pulled.arrow[cov]) for cov in f.src.covers()},
    )


def test_pullback_mesh_matches_reference_route():
    # every monotone map from a poset of at most two elements, collapses
    # included, into a sample of the bundles over posets of three or fewer;
    # the printed pullbacks are pinned by their sha256
    sources = all_posets(2)
    pulled = collapsed = 0
    digest = hashlib.sha256()
    for p in all_posets(3):
        for d in all_diagrams(p, 2)[::30]:
            m = realize_bundle(d)
            for src in sources:
                for f in poset_maps(src, p):
                    mine = pullback_mesh(m, f)
                    assert mine == reference_pullback_mesh(m, f)
                    digest.update(dumps(mine).encode())
                    pulled += 1
                    collapsed += len(set(f.mapping.values())) < len(src.elements)
    assert (pulled, collapsed) == (4490, 1797)
    assert digest.hexdigest() == "68e3a0a1d3193e6f2b917c0fc0618567b505b35b25b4515374558e14ce68cc39"


def test_realized_mesh_bytes_are_pinned():
    # every seventh bundle over each poset of three or fewer elements (the
    # first over every base included), printed and hashed
    digest = hashlib.sha256()
    for p in all_posets(3):
        for d in all_diagrams(p, 2)[::7]:
            digest.update(dumps(realize_bundle(d)).encode())
    assert digest.hexdigest() == "8d0594a065d858dd9823eeb5e4f125457591e72cb86e41e1ef03e3336cdfc89f"


def test_realize_and_pullback_run_no_functor_table(monkeypatch):
    # both install path tables known to be functorial; only the checking
    # constructor proves one
    diagrams = [d for p in all_posets(3) for d in all_diagrams(p, 2)[::30]]
    maps = {p: [f for src in all_posets(2) for f in poset_maps(src, p)] for p in all_posets(3)}
    calls = []
    real = bundle.functor_table
    monkeypatch.setattr(bundle, "functor_table", lambda *args: calls.append(args) or real(*args))
    for d in diagrams:
        m = realize_bundle(d)
        for f in maps[d.base]:
            pullback_mesh(m, f)
    assert calls == []
    PLMeshBundle(m.base, m.heights, m.sing)
    assert len(calls) == 1


def test_readbacks_run_no_functor_table(monkeypatch):
    # both install the mesh's own path table or its interval dual; only the
    # checking constructors prove one
    meshes = [realize_bundle(d) for p in all_posets(3) for d in all_diagrams(p, 2)[::30]]
    calls = []
    real = bundle.functor_table
    monkeypatch.setattr(bundle, "functor_table", lambda *args: calls.append(args) or real(*args))
    for m in meshes:
        reg_extract(m)
        sing_extract(m)
    assert calls == []
    NablaDiagram(m.base, sing_extract(m).ord, m.sing)
    assert len(calls) == 1


def test_a_round_trip_dualizes_each_distinct_map_once():
    # every path entry is one lookup in the memo of its direction
    diagrams = [d for p in all_posets(3) for d in all_diagrams(p, 2)]
    tower._empty_tables()
    meshes = [realize_bundle(d) for d in diagrams]
    for m in meshes:
        reg_extract(m)
    for dual, tables in ((dual_delta_to_nabla, diagrams), (dual_nabla_to_delta, meshes)):
        entries = [f for t in tables for f in t._paths.values()]
        info = dual.cache_info()
        assert (info.misses, info.hits) == (len(set(entries)), len(entries) - len(set(entries)))


def reference_reg_extract(m):
    """reg_extract spelled through the validating constructors: each cover
    bisects the attachment heights at the lower fiber's midpoints."""
    ords = {b: Ordinal(len(m.heights[b].interior)) for b in m.base.elements}
    arrows = {}
    for (a, b) in m.base.covers():
        attach = [m.heights[a][i] for i in m.sing[(a, b)].values[1:-1]]
        hs = m.heights[a].heights
        mids = [(u + v) / 2 for u, v in zip(hs, hs[1:])]
        arrows[(a, b)] = DeltaMap(ords[a], ords[b], tuple(bisect_left(attach, mid) for mid in mids))
    return DeltaDiagram(m.base, ords, arrows)


def reference_sing_extract(m):
    """sing_extract spelled through the validating constructors: each sheet
    extrapolated from its samples at (3/4, 1/4) and (1/2, 1/2) in Fractions
    and looked up by height."""
    ords = {b: m.heights[b].interval for b in m.base.elements}
    arrows = {}
    for (a, b) in m.base.covers():
        ha, hb = m.heights[a], m.heights[b].heights
        ends = [(ha[i], y) for i, y in zip(m.map_for(a, b).values, hb)]
        lands = (ha.heights.index(2 * (3 * x + y) / 4 - (x + y) / 2) for x, y in ends)
        arrows[(a, b)] = NablaMap(ords[b], ords[a], tuple(lands))
    return NablaDiagram(m.base, ords, arrows)


def assert_readbacks_match_reference(m):
    reg, sing = reg_extract(m), sing_extract(m)
    ref_reg, ref_sing = reference_reg_extract(m), reference_sing_extract(m)
    assert reg == ref_reg and reg._paths == ref_reg._paths and dumps(reg) == dumps(ref_reg)
    # no schema prints a bare NablaDiagram: print each as the mesh it attaches
    assert sing == ref_sing and sing._paths == ref_sing._paths
    assert dumps(PLMeshBundle(m.base, m.heights, sing.arrow)) == dumps(PLMeshBundle(m.base, m.heights, ref_sing.arrow))


def test_readbacks_match_the_validating_reference():
    for p in all_posets(3):
        for d in all_diagrams(p, 2):
            assert_readbacks_match_reference(realize_bundle(d))


def assert_geometry_fails(why):
    report = SUITES["roundtrip-mesh"]()
    [(where, message)] = report.diagnostics
    assert not report.is_ok and where.startswith("geometry ("), report.diagnostics
    assert re.match(why, message), message


def test_a_limit_on_a_wrong_height_fails_the_geometry_check(monkeypatch):
    # every height mirrored to -h: each limit x lands on -x, a height of
    # every evenly spaced fiber, but not the one its sheet attaches to
    real = oracles.interpolated_heights
    monkeypatch.setattr(oracles, "interpolated_heights", lambda *args: tuple(-h for h in real(*args)))
    assert_geometry_fails(r"the sheets over '\w' land on heights \(1, 0\) over '\w', not where sing_extract")


def test_a_limit_on_no_height_fails_the_geometry_check(monkeypatch):
    # sheet 0 nudged by 1/1000 at the quarter sample: its limit is no height
    real = oracles.interpolated_heights
    quarter = StratSimplexPoint((F(3, 4), F(1, 4)))

    def nudged(m, chain, point):
        hs = real(m, chain, point)
        return (hs[0] + F(1, 1000),) + hs[1:] if point == quarter else hs

    monkeypatch.setattr(oracles, "interpolated_heights", nudged)
    assert_geometry_fails(r"sheet 0 over '\w' extrapolates to -499/500, which is no height over '\w'")


def reflected(f):
    """f conjugated by the order reversal of the ordinals: i -> m - f(n - i).
    Reversal is a functor, so a table of reflected maps stays functorial
    and passes the audit of installs."""
    n, m = f.src.n, f.dst.n
    return DeltaMap(f.src, f.dst, tuple(m - f(n - i) for i in range(n + 1)))


def test_a_wrong_dual_in_reg_extract_fails_the_geometry_check(monkeypatch):
    real = mesh.dual_nabla_to_delta
    monkeypatch.setattr(mesh, "dual_nabla_to_delta", lambda g: reflected(real(g)))
    assert_geometry_fails("the regular intervals over")


def test_readbacks_refuse_a_non_mesh():
    d = inner_face_diagram()
    for readback in (reg_extract, sing_extract):
        with pytest.raises(DomainError, match=f"{readback.__name__} needs a PLMeshBundle, got DeltaDiagram"):
            readback(d)


def test_section_to_strata_refuses_a_non_mesh():
    with pytest.raises(DomainError, match="reg_extract needs a PLMeshBundle, got DeltaDiagram"):
        section_to_strata(inner_face_diagram(), {"0": ("r", 0), "1": ("r", 0)})


def test_realize_bundle_refuses_a_non_diagram():
    m = realize_bundle(inner_face_diagram())
    with pytest.raises(DomainError, match="realize_bundle needs a DeltaDiagram, got PLMeshBundle"):
        realize_bundle(m)


@pytest.mark.parametrize("heights", [5, "01", [("0", realize_1truss(1))]])
def test_realize_bundle_refuses_supplied_heights_that_are_no_mapping(heights):
    with pytest.raises(MeshError, match="supplied heights must map base elements to CompactMesh1"):
        realize_bundle(inner_face_diagram(), heights)


@pytest.mark.parametrize("which", ["map", "mesh"])
def test_pullback_mesh_refuses_a_non_map_or_a_non_mesh(which):
    d = inner_face_diagram()
    args = (realize_bundle(d), 5) if which == "map" else (d, PosetMap.identity(d.base))
    with pytest.raises(DomainError, match="pullback_mesh needs a PLMeshBundle and a PosetMap"):
        pullback_mesh(*args)


@pytest.mark.parametrize("which", ["chain", "mesh", "point"])
def test_interpolated_heights_refuses_arguments_of_the_wrong_kind(which):
    d = inner_face_diagram()
    half = StratSimplexPoint((F(1, 2), F(1, 2)))
    args = {
        "chain": (realize_bundle(d), 5, half),
        "mesh": (d, ("0", "1"), half),
        "point": (realize_bundle(d), ("0", "1"), (F(1, 2), F(1, 2))),
    }[which]
    with pytest.raises(DomainError, match="interpolated_heights needs a PLMeshBundle, a chain and a StratSimplexPoint"):
        interpolated_heights(*args)


def crowded_heights(n, toward):
    """n singular heights packed against one end of (-1, 1)."""
    low = tuple(-1 + F(k + 1, 4 * (n + 1)) for k in range(n))
    return CompactMesh1((-1,) + (low if toward < 0 else tuple(-h for h in reversed(low))) + (1,))


def test_barycenter_strictness_holds_for_all_small_bundles():
    # the constructor no longer checks this (mesh.py proves it); here it is
    # recomputed at every cover's barycenter and at an interior point of
    # every 3-chain, for even and for supplied, lopsided heights
    half = StratSimplexPoint((F(1, 2), F(1, 2)))
    inner = StratSimplexPoint((F(1, 5), F(3, 10), F(1, 2)))
    chain = FinPoset.from_covers(["0", "1", "2"], [("0", "1"), ("1", "2")])
    checked = 0
    for d in all_diagrams(arrow_poset(), max_ordinal=2) + all_diagrams(chain, max_ordinal=2):
        lopsided = {b: crowded_heights(d.ord[b].n, k % 2 * 2 - 1) for k, b in enumerate(d.base.elements)}
        for m in (realize_bundle(d), realize_bundle(d, lopsided)):
            points = [(cov, half) for cov in d.base.covers()]
            if d.base == chain:
                points.append((("0", "1", "2"), inner))
            for simplex, point in points:
                hs = interpolated_heights(m, simplex, point)
                assert all(u < v for u, v in zip(hs, hs[1:]))
                checked += 1
    assert checked == 2 * (31 + 393 * 3)


SMALL_DIAGRAMS = [d for p in all_posets(3) for d in all_diagrams(p, 2)]


@st.composite
def uneven_heights(draw, n):
    """n strictly increasing singular heights in (-1, 1), nonzero with odd
    denominators, so no height is a dyadic rational."""
    den = st.sampled_from((3, 5, 7, 9, 11, 13, 21))
    inner = draw(st.lists(
        den.flatmap(lambda q: st.integers(1 - q, q - 1).filter(bool).map(lambda p: F(p, q))),
        min_size=n, max_size=n, unique=True,
    ))
    return CompactMesh1((-1, *sorted(inner), 1))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from(SMALL_DIAGRAMS), st.data())
def test_mesh_kernels_on_uneven_heights(d, data):
    heights = {b: data.draw(uneven_heights(d.ord[b].n)) for b in d.base.elements}
    m = realize_bundle(d, heights)
    assert reg_extract(m) == d
    assert_readbacks_match_reference(m)
    sing = sing_extract(m)
    assert sing.arrow == m.sing
    quarter = StratSimplexPoint((F(3, 4), F(1, 4)))
    half = StratSimplexPoint((F(1, 2), F(1, 2)))
    for (a, b) in d.base.covers():
        q, h = interpolated_heights(m, (a, b), quarter), interpolated_heights(m, (a, b), half)
        attached = [m.heights[a][i] for i in sing.arrow[(a, b)].values]
        assert attached == [2 * qj - hj for qj, hj in zip(q, h)]
