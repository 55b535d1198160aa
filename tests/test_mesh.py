"""Exact PL meshes: realization, extraction, duality, sections."""

from fractions import Fraction

import pytest

from trusskit import (
    CompactMesh1,
    DeltaDiagram,
    DeltaMap,
    DomainError,
    Mesh1,
    MeshError,
    NablaMap,
    Ordinal,
    PLMeshBundle,
    PosetMap,
    SectionError,
    StratSimplexPoint,
    Stratum,
    arrow_poset,
    compactify,
    dual_delta_to_nabla,
    interpolated_heights,
    point_poset,
    pullback_mesh,
    realize_1truss,
    realize_bundle,
    reg_extract,
    section_to_strata,
    sing_extract,
)
from trusskit.bundle import pullback_bundle
from trusskit.oracles import all_diagrams, all_posets, poset_maps
from trusskit.poset import FinPoset


F = Fraction


def inner_face_diagram():
    return DeltaDiagram(
        arrow_poset(),
        {"0": Ordinal(1), "1": Ordinal(2)},
        {("0", "1"): DeltaMap(1, 2, (0, 2))},
    )


def test_mesh1_validation():
    Mesh1((F(-1, 3), F(1, 3)))
    with pytest.raises(MeshError):
        Mesh1((F(1, 3), F(-1, 3)))
    with pytest.raises(MeshError):
        Mesh1((F(-1), F(1, 2)))  # endpoint is not interior
    with pytest.raises(MeshError):
        Mesh1((F(0), F(0)))


def test_compact_mesh_endpoints():
    m = compactify(Mesh1((F(0),)))
    assert m.heights == (F(-1), F(0), F(1))
    assert m.interior == (F(0),)
    with pytest.raises(MeshError):
        CompactMesh1((F(0), F(1)))


def test_realize_even_spacing():
    assert realize_1truss(0).heights == ()
    assert realize_1truss(1).heights == (F(0),)
    assert realize_1truss(2).heights == (F(-1, 3), F(1, 3))
    assert realize_1truss(3).heights == (F(-1, 2), F(0), F(1, 2))


def test_strat_simplex_point():
    p = StratSimplexPoint((F(1, 2), F(1, 2)))
    assert p.stratum == 1
    assert StratSimplexPoint((F(1), F(0))).stratum == 0
    with pytest.raises(MeshError):
        StratSimplexPoint((F(1, 2), F(1, 4)))
    with pytest.raises(MeshError):
        StratSimplexPoint(())


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
        "0": Mesh1((F(-1, 2),)),
        "1": Mesh1((F(-7, 8), F(3, 4))),
    }
    m = realize_bundle(d, vertex_heights=custom)
    assert m.fiber("1").heights == (F(-1), F(-7, 8), F(3, 4), F(1))
    assert reg_extract(m) == d


def test_realize_bundle_rejects_wrong_height_count():
    d = inner_face_diagram()
    with pytest.raises(MeshError):
        realize_bundle(d, vertex_heights={"1": Mesh1((F(0),))})


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
    # included, into a sample of the bundles over posets of three or fewer
    sources = all_posets(2)
    pulled = collapsed = 0
    for p in all_posets(3):
        for d in all_diagrams(p, 2)[::30]:
            m = realize_bundle(d)
            for src in sources:
                for f in poset_maps(src, p):
                    assert pullback_mesh(m, f) == reference_pullback_mesh(m, f)
                    pulled += 1
                    collapsed += len(set(f.mapping.values())) < len(src.elements)
    assert (pulled, collapsed) == (4490, 1797)


def test_barycenter_strictness_holds_for_all_small_bundles():
    # the constructor re-checks this; here we recompute it independently
    from trusskit.oracles import all_diagrams

    half = StratSimplexPoint((F(1, 2), F(1, 2)))
    for d in all_diagrams(arrow_poset(), max_ordinal=2):
        m = realize_bundle(d)
        for cov in d.base.covers():
            hs = interpolated_heights(m, cov, half)
            assert all(u < v for u, v in zip(hs, hs[1:]))
