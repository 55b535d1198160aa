"""README's rule, swept: every public callable that trusskit exports either
returns or raises a TrussError when one of its arguments is replaced by a
value of the wrong type."""

from fractions import Fraction
import inspect

import pytest

import trusskit
from trusskit import (
    POINT_ELEMENT,
    DeltaMap,
    FinPoset,
    LabelCategory,
    NablaMap,
    Ordinal,
    PosetMap,
    StratSimplexPoint,
    Stratum,
    StratumMap,
    TrussError,
    TrussTower,
    arrow_poset,
    compose_delta,
    dual_delta_to_nabla,
    dumps,
    layout_2truss,
    pack,
    point_poset,
    realize_bundle,
    save,
    sing_extract,
    total_space,
)
from trusskit.oracles import bordism_family, tower_family

WRONG = (None, 5, [], [1], "x", {}, object(), 1.5, True, [[1]], {1: 2})

# plain value records: their constructors check nothing
RECORDS = {"CompositionAudit", "Node", "PackedTower", "Region", "Scene", "TotalPoset", "Wire"}


def exported_callables() -> set:
    return {
        name for name in dir(trusskit)
        if not name.startswith("_") and callable(value := getattr(trusskit, name))
        and not (isinstance(value, type) and issubclass(value, BaseException))
    }


def operands(path) -> dict:
    """Valid operands of each exported callable but the records, by name."""
    b = bordism_family(0)[0]
    d, t = b.stages[0], b.end(0)
    t2 = next(u for u in tower_family(0, 1) if u.depth == 2)
    f = PosetMap(point_poset(), arrow_poset(), {POINT_ELEMENT: "0"})
    m = realize_bundle(d)
    alpha = d.arrow[("0", "1")]
    ida = DeltaMap.identity(alpha.dst.n)
    x, y = Stratum.regular(0, alpha.src.n), Stratum.regular(alpha(0), alpha.dst.n)
    h, g = StratumMap(x, y, alpha), dual_delta_to_nabla(alpha)
    cat = b.labels.target
    save(d, path)
    return {
        "Bordism": (b.base, b.stages, b.labels),
        "CompactMesh1": (m.heights["0"].heights,),
        "DeltaDiagram": (d.base, d.ord, d.arrow),
        "DeltaMap": (alpha.src, alpha.dst, alpha.values),
        "FinPoset": (("a", "b"), (("a", "a"), ("a", "b"), ("b", "b"))),
        "LabelCategory": (cat.objects, cat.morphisms, cat.src, cat.dst, cat.identity, cat.compose),
        "Labeling": (b.labels.domain, cat, b.labels.on_objects, b.labels.on_relations),
        "NablaDiagram": (m.base, sing_extract(m).ord, sing_extract(m).arrow),
        "NablaMap": (g.src, g.dst, g.values),
        "Ordinal": (2,),
        "PLMeshBundle": (m.base, m.heights, m.sing),
        "PosetMap": (f.src, f.dst, f.mapping),
        "Report": ("ok", [], {}),
        "StratSimplexPoint": ((Fraction(1, 2), Fraction(1, 2)),),
        "Stratum": ("r", 0, 1),
        "StratumMap": (x, y, alpha),
        "TrussTower": (t.base, t.stages, t.labels),
        "arrow_poset": (),
        "classify": (total_space(d),),
        "compose_bordisms": (b, b),
        "compose_bordisms_audited": (b, b),
        "compose_delta": (alpha, ida),
        "compose_nabla": (g, NablaMap.identity(g.dst.n)),
        "compose_strata": (h, StratumMap(y, y, ida)),
        "constant_inclusion": ([1], cat.objects[0], cat),
        "dual_delta_to_nabla": (alpha,),
        "dual_nabla_to_delta": (g,),
        "dumps": (d,),
        "element_key": ("a",),
        "enumerate_delta_maps": (1, 2),
        "enumerate_nabla_maps": (1, 2),
        "factorization_poset": (x, y, StratumMap(x, y, compose_delta(alpha, ida)), alpha, ida),
        "fiber_over_map": (alpha,),
        "fiber_over_ordinal": (2,),
        "forget_to_delta": (h,),
        "hom_strata": (x, y),
        "identity_bordism": (t,),
        "interpolated_heights": (m, ("1",), StratSimplexPoint((1,))),
        "layout_2truss": (t2,),
        "load": (path,),
        "pack": (t,),
        "parse": (dumps(d),),
        "path_poset": (),
        "point_poset": (),
        "pullback_bundle": (d, f),
        "pullback_mesh": (m, f),
        "pullback_tower": (b, f),
        "realize_1truss": (2,),
        "realize_bundle": (d, None),
        "reg_extract": (m,),
        "restrict_bordism": (b, 0),
        "save": (d, path),
        "scene_to_svg": (layout_2truss(t2),),
        "section_to_strata": (m, {e: ("r", 0) for e in m.base.elements}),
        "sing_extract": (m,),
        "stratum_targets": (x, alpha),
        "total_space": (d,),
        "truss_label_category": ([t], []),
        "unpack": (pack(t),),
        "validate_stratum_map": (x, y, alpha),
    }


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    return operands(tmp_path_factory.mktemp("files") / "d.json")


def test_the_sweep_covers_every_export_but_the_records(valid):
    assert set(valid) == exported_callables() - RECORDS
    assert RECORDS <= exported_callables()


@pytest.mark.parametrize("name", sorted(exported_callables() - RECORDS))
def test_a_wrong_argument_returns_or_raises_a_truss_error(valid, name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # save and load read a wrong str as a relative path
    call, args = getattr(trusskit, name), valid[name]
    call(*args)
    for i in range(len(args)):
        for wrong in WRONG:
            try:
                call(*args[:i], wrong, *args[i + 1:])
            except TrussError:
                pass
            except TypeError as exc:
                # documented: the bare cache hashes its arguments first
                if not (name == "validate_stratum_map" and "unhashable" in str(exc)):
                    raise AssertionError(f"{name} with {wrong!r} at argument {i}: {exc!r}") from exc
            except Exception as exc:
                raise AssertionError(f"{name} with {wrong!r} at argument {i}: {exc!r}") from exc


# the public methods of the exported classes that the method sweep leaves out, with the reason
UNSWEPT = {
    **dict.fromkeys(("Bordism.depth", "CompactMesh1.interior", "CompactMesh1.interval", "PackedTower.depth",
                     "Report.is_ok", "Scene.counts", "StratSimplexPoint.stratum", "TrussTower.depth"),
                    "a property, so it takes no argument"),
    **dict.fromkeys(("FinPoset.covers", "FinPoset.is_connected", "FinPoset.linear_extension", "FinPoset.maximum",
                     "FinPoset.minimum", "LabelCategory.terminal", "Report.to_text", "Stratum.sort_key"),
                    "takes no argument"),
    **dict.fromkeys(("Report.ok", "Report.failure"),
                    "the suites build it from the counts and notes they write themselves, so no caller hands it"
                    " an input, and like the plain records it checks nothing but its status"),
}


def public_methods() -> set:
    """Class.name of each public method and property of an exported class,
    inherited ones included."""
    classes = {name: value for name in exported_callables() if isinstance(value := getattr(trusskit, name), type)}
    return {
        f"{name}.{attr}" for name, cls in classes.items() for attr in dir(cls)
        if not attr.startswith("_")
        and (callable(getattr(cls, attr)) or isinstance(inspect.getattr_static(cls, attr), property))
    }


def methods() -> dict:
    """A public method per name, bound, with valid operands: each public
    method of an exported class but those UNSWEPT names, and the fixed
    targets' of the functor classes."""
    b = bordism_family(0)[0]
    d, lab, cat = b.stages[0], b.labels, b.labels.target
    m = realize_bundle(d)
    f = PosetMap(point_poset(), arrow_poset(), {POINT_ELEMENT: "0"})
    g, x = cat.morphisms[-1], lab.domain.elements[0]
    n, alpha = sing_extract(m), d.arrow[("0", "1")]
    beta = n.arrow[("0", "1")]
    arrow = arrow_poset()
    return {
        "Stratum.parse": (Stratum.parse, ("r0@1",)),
        "Stratum.regular": (Stratum.regular, (0, 1)),
        "Stratum.singular": (Stratum.singular, (0, 1)),
        "DeltaMap.identity": (DeltaMap.identity, (1,)),
        "NablaMap.identity": (NablaMap.identity, (1,)),
        "FinPoset.from_covers": (FinPoset.from_covers, (("a", "b"), (("a", "b"),))),
        "FinPoset.le": (arrow.le, ("0", "1")),
        "FinPoset.covers_into": (arrow.covers_into, ("1",)),
        "PosetMap.identity": (PosetMap.identity, (arrow,)),
        "TrussTower.end": (TrussTower(b.base, b.stages, b.labels).end, (0,)),
        "Bordism.end": (b.end, (1,)),
        "DeltaDiagram.map_for": (d.map_for, ("0", "1")),
        "NablaDiagram.map_for": (n.map_for, ("0", "1")),
        "PLMeshBundle.map_for": (m.map_for, ("0", "1")),
        "Labeling.map_for": (lab.map_for, (x, x)),
        "Labeling.morphism_for": (lab.morphism_for, (x, x)),
        "LabelCategory.compose_pair": (cat.compose_pair, (cat.identity[cat.src[g]], g)),
        "LabelCategory.identity_of": (cat.identity_of, (cat.objects[0],)),
        "LabelCategory.hom": (cat.hom, (cat.src[g], cat.dst[g])),
        "LabelCategory.from_poset": (LabelCategory.from_poset, (arrow,)),
        "DeltaDiagram.over": (d.over, (d.base, d.ord, d.arrow)),
        "NablaDiagram.over": (n.over, (n.base, n.ord, n.arrow)),
        "PLMeshBundle.over": (m.over, (m.base, m.heights, m.sing)),
        "Labeling.over": (lab.over, (lab.domain, lab.on_objects, lab.on_relations)),
        "DeltaDiagram.pullback": (d.pullback, (f.src, f.mapping)),
        "NablaDiagram.pullback": (n.pullback, (f.src, f.mapping)),
        "PLMeshBundle.pullback": (m.pullback, (f.src, f.mapping)),
        "Labeling.pullback": (lab.pullback, (point_poset(), {POINT_ELEMENT: x})),
        "PLMeshBundle.fiber": (m.fiber, ("0",)),
        "PosetMap.__call__": (f, (POINT_ELEMENT,)),
        # the fixed targets of the functor classes
        "Delta.identity_of": (d.target.identity_of, (Ordinal(1),)),
        "Delta.compose_pair": (d.target.compose_pair, (alpha, DeltaMap.identity(alpha.dst))),
        "Delta.hom": (d.target.hom, (1, 2)),
        "NablaOp.identity_of": (n.target.identity_of, (Ordinal(1),)),
        "NablaOp.compose_pair": (n.target.compose_pair, (beta, NablaMap.identity(beta.src))),
        "Meshes.identity_of": (m.target.identity_of, (m.heights["0"],)),
    }


def test_the_method_sweep_covers_every_public_method_but_the_unswept():
    assert public_methods() - set(UNSWEPT) == public_methods() & set(methods())
    assert set(UNSWEPT) <= public_methods()


@pytest.mark.parametrize("name", sorted(methods()))
def test_a_wrong_argument_to_a_method_returns_or_raises_a_truss_error(name):
    call, args = methods()[name]
    call(*args)
    for i in range(len(args)):
        for wrong in WRONG:
            try:
                call(*args[:i], wrong, *args[i + 1:])
            except TrussError:
                pass
            except Exception as exc:
                raise AssertionError(f"{name} with {wrong!r} at argument {i}: {exc!r}") from exc
