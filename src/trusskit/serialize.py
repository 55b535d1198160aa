"""Canonical JSON files for truss data.

Five schemas, each a flat JSON object with a "schema" discriminator:

  diagram/v1   one bundle over a named finite poset
  truss/v1     a tower or bordism over the point or the arrow
  labelcat/v1  a finite category with string tokens
  mesh/v1      a PL mesh bundle with exact rational heights
  packed/v1    a packed tower whose labels are nested truss payloads

Dictionaries are keyed by element keys computed from the reconstructed
total spaces; the parser never splits key strings, it recomputes the
expected keys and matches them, so printing and parsing are mutually
inverse on canonical files.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .errors import DomainError, ParseError, TrussError
from .ordinal import DeltaMap, NablaMap, Ordinal
from .poset import FinPoset, arrow_poset, point_poset
from .strata import Stratum
from .bundle import DeltaDiagram, LabelCategory, Labeling, total_space
from .tower import Bordism, PackedTower, TrussTower, truss_label_category
from .mesh import CompactMesh1, PLMeshBundle


SCHEMA_DIAGRAM = "diagram/v1"
SCHEMA_TRUSS = "truss/v1"
SCHEMA_LABELCAT = "labelcat/v1"
SCHEMA_MESH = "mesh/v1"
SCHEMA_PACKED = "packed/v1"


def element_key(el) -> str:
    """Deterministic string key for base and total-space elements."""
    if isinstance(el, str):
        return el
    if isinstance(el, Stratum):
        return f"{el.kind}{el.index}"
    if isinstance(el, tuple):
        return ".".join(element_key(p) for p in el)
    raise ParseError(f"element {el!r} has no canonical key")


def cover_key(cov) -> str:
    return element_key(cov[0]) + "->" + element_key(cov[1])


def _element_lookup(poset: FinPoset, where: str) -> dict:
    lookup = {}
    for el in poset.elements:
        k = element_key(el)
        if k in lookup:
            raise ParseError(f"{where}: element keys collide at {k!r}")
        lookup[k] = el
    return lookup


def _cover_lookup(poset: FinPoset, where: str) -> dict:
    lookup = {}
    for cov in poset.covers():
        k = cover_key(cov)
        if k in lookup:
            raise ParseError(f"{where}: cover keys collide at {k!r}")
        lookup[k] = cov
    return lookup


def _expect(obj, key, where: str):
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"{where}: missing field {key!r}")
    return obj[key]


def _int(v, where: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ParseError(f"{where}: expected an integer, got {v!r}")
    return v


def _str(v, where: str) -> str:
    if not isinstance(v, str):
        raise ParseError(f"{where}: expected a string, got {v!r}")
    return v


def _dict(v, where: str) -> dict:
    if not isinstance(v, dict):
        raise ParseError(f"{where}: expected an object, got {v!r}")
    return v


def _list(v, where: str) -> list:
    if not isinstance(v, list):
        raise ParseError(f"{where}: expected a list, got {v!r}")
    return v


def _ordinal(v, where: str) -> Ordinal:
    n = _int(v, where)
    if n < 0:
        raise ParseError(f"{where}: expected a nonnegative integer, got {n!r}")
    return Ordinal(n)


def _schema(obj, schema: str, where: str) -> None:
    """Embedded payloads carry their own schema field; it must match."""
    if _expect(obj, "schema", where) != schema:
        raise ParseError(f"{where}: expected schema {schema!r}")


def _fraction(v, where: str) -> Fraction:
    try:
        return Fraction(_str(v, where))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{where}: bad rational {v!r}") from exc


def _map_payload(f) -> dict:
    """A DeltaMap or NablaMap as its endpoints and value list."""
    return {"src": f.src.n, "dst": f.dst.n, "values": list(f.values)}


def _parse_map(cls, obj, where: str):
    """Read a _map_payload back as a cls (DeltaMap or NablaMap)."""
    src = _int(_expect(obj, "src", where), where)
    dst = _int(_expect(obj, "dst", where), where)
    values = _expect(obj, "values", where)
    if not isinstance(values, list):
        raise ParseError(f"{where}: values must be a list")
    try:
        return cls(Ordinal(src), Ordinal(dst), tuple(_int(v, where) for v in values))
    except DomainError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _poset_payload(p: FinPoset) -> dict:
    for el in p.elements:
        if not isinstance(el, str):
            raise ParseError("only posets with string-named elements serialize")
    return {"elements": list(p.elements), "covers": [list(c) for c in p.covers()]}


def _parse_poset(obj, where: str) -> FinPoset:
    elements = _expect(obj, "elements", where)
    covers = _expect(obj, "covers", where)
    if not isinstance(elements, list) or not isinstance(covers, list):
        raise ParseError(f"{where}: elements and covers must be lists")
    names = [_str(e, where) for e in elements]
    if len(set(names)) != len(names):
        raise ParseError(f"{where}: duplicate element names")
    pairs = []
    for c in covers:
        if not isinstance(c, list) or len(c) != 2:
            raise ParseError(f"{where}: covers must be two-element lists")
        u, v = _str(c[0], where), _str(c[1], where)
        if u not in names or v not in names:
            raise ParseError(f"{where}: cover ({u!r}, {v!r}) names unknown elements")
        pairs.append((u, v))
    return FinPoset.from_covers(names, pairs)


def _base_name(p: FinPoset) -> str:
    if p == point_poset():
        return "point"
    if p == arrow_poset():
        return "arrow"
    raise ParseError("only towers over the point or the arrow serialize")


def _named_base(name: str) -> FinPoset:
    if name == "point":
        return point_poset()
    if name == "arrow":
        return arrow_poset()
    raise ParseError(f"unknown base name {name!r}")


def _stage_payloads(t: TrussTower) -> list:
    stages = []
    for d in t.stages:
        lookup = _element_lookup(d.base, "stage")
        ordp = {k: d.ord[el].n for k, el in lookup.items()}
        covs = _cover_lookup(d.base, "stage")
        arrp = {k: _map_payload(d.arrow[cov]) for k, cov in covs.items()}
        stages.append({"ord": ordp, "arrow": arrp})
    return stages


def _parse_stages(payload, base: FinPoset, where: str):
    if not isinstance(payload, list):
        raise ParseError(f"{where}: stages must be a list")
    cur = base
    stages = []
    for i, sp in enumerate(payload):
        tag = f"{where} stage {i + 1}"
        lookup = _element_lookup(cur, tag)
        ordp = _dict(_expect(sp, "ord", tag), tag)
        if set(ordp) != set(lookup):
            raise ParseError(f"{tag}: ordinal keys do not match the base elements")
        ords = {lookup[k]: _ordinal(v, tag) for k, v in ordp.items()}
        covs = _cover_lookup(cur, tag)
        arrp = _dict(_expect(sp, "arrow", tag), tag)
        if set(arrp) != set(covs):
            raise ParseError(f"{tag}: arrow keys do not match the covering relations")
        arrows = {covs[k]: _parse_map(DeltaMap, v, f"{tag} arrow {k}") for k, v in arrp.items()}
        d = DeltaDiagram(cur, ords, arrows)
        stages.append(d)
        cur = total_space(d).carrier
    return stages, cur


def _token(value, where: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{where}: only string label tokens serialize, got {value!r}")
    return value


def _labelcat_payload(cat: LabelCategory) -> dict:
    objects = [_token(o, "labelcat object") for o in cat.objects]
    morphisms = [_token(m, "labelcat morphism") for m in cat.morphisms]
    composep = {}
    for (f, g), h in sorted(cat.compose.items()):
        key = f + "|" + g
        if key in composep:
            raise ParseError(f"labelcat: composition keys collide at {key!r}")
        composep[key] = h
    return {
        "schema": SCHEMA_LABELCAT,
        "objects": objects,
        "morphisms": morphisms,
        "src": dict(cat.src),
        "dst": dict(cat.dst),
        "identity": dict(cat.identity),
        "compose": composep,
    }


def _parse_labelcat(obj, where: str = "labelcat") -> LabelCategory:
    _schema(obj, SCHEMA_LABELCAT, where)
    objects = [_str(o, where) for o in _list(_expect(obj, "objects", where), where)]
    morphisms = [_str(m, where) for m in _list(_expect(obj, "morphisms", where), where)]
    srcp = _expect(obj, "src", where)
    dstp = _expect(obj, "dst", where)
    identp = _expect(obj, "identity", where)
    composep = _dict(_expect(obj, "compose", where), where)
    for table, keys in ((srcp, morphisms), (dstp, morphisms), (identp, objects)):
        if not isinstance(table, dict) or set(table) != set(keys):
            raise ParseError(f"{where}: endpoint tables do not match the morphism list")
    src = {m: _str(srcp[m], where) for m in morphisms}
    dst = {m: _str(dstp[m], where) for m in morphisms}
    pair_for = {}
    for f in morphisms:
        for g in morphisms:
            if dst[f] != src[g]:
                continue
            key = f + "|" + g
            if key in pair_for:
                raise ParseError(f"{where}: composition keys collide at {key!r}")
            pair_for[key] = (f, g)
    if set(composep) != set(pair_for):
        raise ParseError(f"{where}: composition keys do not match the composable pairs")
    compose = {pair_for[k]: _str(v, where) for k, v in composep.items()}
    identity = {o: _str(identp[o], where) for o in objects}
    return LabelCategory(objects, morphisms, src, dst, identity, compose)


def _truss_payload(t: TrussTower) -> dict:
    lookup = _element_lookup(t.top, "labels")
    covs = _cover_lookup(t.top, "labels")
    return {
        "schema": SCHEMA_TRUSS,
        "base": _base_name(t.base),
        "stages": _stage_payloads(t),
        "labels": {
            "category": _labelcat_payload(t.labels.target),
            "objects": {k: _token(t.labels.on_objects[el], f"label of {k}") for k, el in lookup.items()},
            "relations": {k: _token(t.labels.on_relations[cov], f"label of {k}") for k, cov in covs.items()},
        },
    }


def _parse_truss(obj, where: str = "truss") -> TrussTower:
    _schema(obj, SCHEMA_TRUSS, where)
    base = _named_base(_str(_expect(obj, "base", where), where))
    stages, top = _parse_stages(_expect(obj, "stages", where), base, where)
    labp = _expect(obj, "labels", where)
    cat = _parse_labelcat(_expect(labp, "category", where), f"{where} labels")
    lookup = _element_lookup(top, f"{where} labels")
    covs = _cover_lookup(top, f"{where} labels")
    objp = _dict(_expect(labp, "objects", where), where)
    relp = _dict(_expect(labp, "relations", where), where)
    if set(objp) != set(lookup):
        raise ParseError(f"{where}: object label keys do not match the top elements")
    if set(relp) != set(covs):
        raise ParseError(f"{where}: relation label keys do not match the covering relations")
    known_objects = set(cat.objects)
    known_morphisms = set(cat.morphisms)
    on_obj = {}
    for k, v in objp.items():
        token = _str(v, where)
        if token not in known_objects:
            raise ParseError(f"{where}: unknown object token {token!r} at {k}")
        on_obj[lookup[k]] = token
    on_rel = {}
    for k, v in relp.items():
        token = _str(v, where)
        if token not in known_morphisms:
            raise ParseError(f"{where}: unknown morphism token {token!r} at {k}")
        on_rel[covs[k]] = token
    labels = Labeling(top, cat, on_obj, on_rel)
    cls = Bordism if base == arrow_poset() else TrussTower
    return cls(base, stages, labels)


def _diagram_payload(d: DeltaDiagram) -> dict:
    lookup = _element_lookup(d.base, "diagram")
    covs = _cover_lookup(d.base, "diagram")
    return {
        "schema": SCHEMA_DIAGRAM,
        "base": _poset_payload(d.base),
        "ord": {k: d.ord[el].n for k, el in lookup.items()},
        "arrow": {k: _map_payload(d.arrow[cov]) for k, cov in covs.items()},
    }


def _parse_diagram(obj, where: str = "diagram") -> DeltaDiagram:
    base = _parse_poset(_expect(obj, "base", where), where)
    lookup = _element_lookup(base, where)
    covs = _cover_lookup(base, where)
    ordp = _dict(_expect(obj, "ord", where), where)
    arrp = _dict(_expect(obj, "arrow", where), where)
    if set(ordp) != set(lookup):
        raise ParseError(f"{where}: ordinal keys do not match the base elements")
    if set(arrp) != set(covs):
        raise ParseError(f"{where}: arrow keys do not match the covering relations")
    ords = {lookup[k]: _ordinal(v, where) for k, v in ordp.items()}
    arrows = {covs[k]: _parse_map(DeltaMap, v, f"{where} arrow {k}") for k, v in arrp.items()}
    return DeltaDiagram(base, ords, arrows)


def _mesh_payload(m: PLMeshBundle) -> dict:
    lookup = _element_lookup(m.base, "mesh")
    covs = _cover_lookup(m.base, "mesh")
    return {
        "schema": SCHEMA_MESH,
        "base": _poset_payload(m.base),
        "heights": {k: [str(h) for h in m.heights[el].heights] for k, el in lookup.items()},
        "sing": {k: _map_payload(m.sing[cov]) for k, cov in covs.items()},
    }


def _parse_mesh(obj, where: str = "mesh") -> PLMeshBundle:
    base = _parse_poset(_expect(obj, "base", where), where)
    lookup = _element_lookup(base, where)
    covs = _cover_lookup(base, where)
    hp = _dict(_expect(obj, "heights", where), where)
    sp = _dict(_expect(obj, "sing", where), where)
    if set(hp) != set(lookup):
        raise ParseError(f"{where}: height keys do not match the base elements")
    if set(sp) != set(covs):
        raise ParseError(f"{where}: attachment keys do not match the covering relations")
    heights = {}
    for k, hs in hp.items():
        if not isinstance(hs, list):
            raise ParseError(f"{where}: heights at {k} must be a list")
        heights[lookup[k]] = CompactMesh1(tuple(_fraction(h, f"{where} height at {k}") for h in hs))
    sing = {covs[k]: _parse_map(NablaMap, v, f"{where} sing {k}") for k, v in sp.items()}
    return PLMeshBundle(base, heights, sing)


def _packed_payload(p: PackedTower) -> dict:
    t = p.tower
    lookup = _element_lookup(t.top, "packed labels")
    covs = _cover_lookup(t.top, "packed labels")
    return {
        "schema": SCHEMA_PACKED,
        "base": _base_name(t.base),
        "stages": _stage_payloads(t),
        "objects": {k: _truss_payload(t.labels.on_objects[el]) for k, el in lookup.items()},
        "relations": {k: _truss_payload(t.labels.on_relations[cov]) for k, cov in covs.items()},
    }


def _parse_packed(obj, where: str = "packed") -> PackedTower:
    base = _named_base(_str(_expect(obj, "base", where), where))
    stages, top = _parse_stages(_expect(obj, "stages", where), base, where)
    lookup = _element_lookup(top, where)
    covs = _cover_lookup(top, where)
    objp = _dict(_expect(obj, "objects", where), where)
    relp = _dict(_expect(obj, "relations", where), where)
    if set(objp) != set(lookup):
        raise ParseError(f"{where}: object keys do not match the top elements")
    if set(relp) != set(covs):
        raise ParseError(f"{where}: relation keys do not match the covering relations")
    fibers = {lookup[k]: _parse_truss(v, f"{where} object {k}") for k, v in objp.items()}
    gens = {covs[k]: _parse_truss(v, f"{where} relation {k}") for k, v in relp.items()}
    cat = truss_label_category(fibers.values(), gens.values())
    labels = Labeling(top, cat, fibers, gens)
    return PackedTower(TrussTower(base, stages, labels))


_PARSERS = {
    SCHEMA_DIAGRAM: _parse_diagram,
    SCHEMA_TRUSS: _parse_truss,
    SCHEMA_LABELCAT: _parse_labelcat,
    SCHEMA_MESH: _parse_mesh,
    SCHEMA_PACKED: _parse_packed,
}


def payload_for(obj) -> dict:
    if isinstance(obj, PackedTower):
        return _packed_payload(obj)
    if isinstance(obj, TrussTower):
        return _truss_payload(obj)
    if isinstance(obj, DeltaDiagram):
        return _diagram_payload(obj)
    if isinstance(obj, LabelCategory):
        return _labelcat_payload(obj)
    if isinstance(obj, PLMeshBundle):
        return _mesh_payload(obj)
    raise ParseError(f"no file schema for {type(obj).__name__}")


def dumps(obj) -> str:
    """Canonical text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(payload_for(obj), sort_keys=True, indent=2) + "\n"


def parse(text: str):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested too deeply") from exc
    if not isinstance(obj, dict) or "schema" not in obj:
        raise ParseError("file must be a JSON object with a 'schema' field")
    schema = obj["schema"]
    parser = _PARSERS.get(schema) if isinstance(schema, str) else None
    if parser is None:
        known = ", ".join(sorted(_PARSERS))
        raise ParseError(f"unknown schema {schema!r} (known: {known})")
    return parser(obj)


def save(obj, path) -> None:
    Path(path).write_text(dumps(obj), encoding="utf-8")


def load(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse(text)
