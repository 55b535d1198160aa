"""Canonical JSON files for truss data.

Five schemas, each a flat JSON object with a "schema" discriminator:

  diagram/v1   one bundle over a named finite poset
  truss/v1     a tower or bordism over the point or the arrow
  labelcat/v1  a finite category with string tokens
  mesh/v1      a PL mesh bundle with exact rational heights
  packed/v1    a packed tower whose labels are nested truss payloads

Each table holds a value per element or per covering relation of a poset
(diagram and stage ord/arrow, truss labels, mesh heights/sing, packed
labels), keyed by element_key and cover_key of the reconstructed total
spaces.  The keys are walked once per tower: total_space lays out each base
element's fiber in fiber_objects order, so a layer's keys are its base's
keys with a stratum suffix each (next_keys); cover keys join two by index
(cover_keys).  One codec, _keyed and _unkeyed, writes and reads all tables:
the parser never splits key strings, it recomputes and matches them, so
printing and parsing are mutually inverse on canonical files.  Rational
heights are read only in the p or p/q form dumps writes.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import partial
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter
from pathlib import Path

from .errors import DomainError, ParseError
from .ordinal import DeltaMap, NablaMap, Ordinal
from .poset import FinPoset, arrow_poset, point_poset
from .strata import Stratum, fiber_objects
from .bundle import DeltaDiagram, LabelCategory, Labeling, total_space
from .tower import Bordism, PackedTower, TrussTower, _packed_tower
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


def _base_keys(p: FinPoset) -> tuple:
    return tuple(map(element_key, p.elements))


def next_keys(keys: tuple, d: DeltaDiagram) -> tuple:
    """element_key of each element of total_space(d).carrier from those of d.base, in index order."""
    return tuple(f"{k}.{s.kind}{s.index}" for k, b in zip(keys, d.base.elements) for s in fiber_objects(d.ord[b].n))


def cover_keys(p: FinPoset, keys: tuple) -> tuple:
    """cover_key of each of p.covers(), from the element keys of p."""
    return tuple(keys[i] + "->" + keys[j] for i, up in enumerate(p.upper) for j in up)


def _expect(obj, key, where: str):
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"{where}: missing field {key!r}")
    return obj[key]


_KINDS = {int: "an integer", str: "a string", dict: "an object", list: "a list"}


def _typed(v, kind: type, where: str):
    """v if it is an instance of kind, a key of _KINDS (a bool is no integer)."""
    if not isinstance(v, kind) or kind is int and isinstance(v, bool):
        raise ParseError(f"{where}: expected {_KINDS[kind]}, got {v!r}")
    return v


def _ordinal(v, where: str) -> Ordinal:
    n = _typed(v, int, where)
    if n < 0:
        raise ParseError(f"{where}: expected a nonnegative integer, got {n!r}")
    return Ordinal(n)


_ordinal_n = attrgetter("n")


def _schema(obj, schema: str, where: str) -> None:
    """Embedded payloads carry their own schema field; it must match."""
    if _expect(obj, "schema", where) != schema:
        raise ParseError(f"{where}: expected schema {schema!r}")


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _fraction(v, where: str) -> Fraction:
    """A height as dumps writes it, an integer or p/q; no exponents, so a
    short string cannot ask for a huge number."""
    if not _RATIONAL.fullmatch(_typed(v, str, where)):
        raise ParseError(f"{where}: bad rational {v!r}, expected p or p/q")
    try:
        return Fraction(v)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{where}: bad rational {v!r}") from exc


def _map_payload(f) -> dict:
    """A DeltaMap or NablaMap as its endpoints and value list."""
    return {"src": f.src.n, "dst": f.dst.n, "values": list(f.values)}


def _parse_map(obj, where: str, cls=DeltaMap):
    """Read a _map_payload back as a cls (DeltaMap or NablaMap)."""
    src = _typed(_expect(obj, "src", where), int, where)
    dst = _typed(_expect(obj, "dst", where), int, where)
    values = _expect(obj, "values", where)
    if not isinstance(values, list):
        raise ParseError(f"{where}: values must be a list")
    try:
        return cls(Ordinal(src), Ordinal(dst), tuple(_typed(v, int, where) for v in values))
    except DomainError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _lookup(items, keys, where: str) -> dict:
    """Items by their string keys; two items with one key cannot be told
    apart in a file."""
    lookup = dict(zip(keys, items))
    if len(lookup) != len(items):
        seen = set()
        dup = next(k for k in keys if k in seen or seen.add(k))
        raise ParseError(f"{where}: keys collide at {dup!r}")
    return lookup


def _keyed(poset: FinPoset, keys: tuple, tables, encoders, where: str) -> tuple:
    """A value per element and a value per covering relation of poset, as
    two JSON objects keyed by the element keys and their cover keys."""
    return tuple(
        {k: encode(table[x]) for k, x in _lookup(items, ks, where).items()}
        for items, ks, table, encode in zip(
            (poset.elements, poset.covers()), (keys, cover_keys(poset, keys)), tables, encoders
        )
    )


def _unkeyed(obj, fields, poset: FinPoset, keys: tuple, decoders, where: str) -> list:
    """Inverse of _keyed: read the element and cover objects named by fields
    from obj.  Each must have exactly the keys of poset; a value that fails
    to decode is reported with its key."""
    found = []
    sides = zip(fields, (poset.elements, poset.covers()), (keys, cover_keys(poset, keys)))
    for (field, items, ks), what in zip(sides, ("elements", "covering relations")):
        lookup = _lookup(items, ks, where)
        table = _typed(_expect(obj, field, where), dict, where)
        if table.keys() != lookup.keys():
            raise ParseError(f"{where}: {field} keys do not match the {what}")
        found.append((field, table, lookup))
    out = []
    for (field, table, lookup), decode in zip(found, decoders):
        values = {}
        for k, v in table.items():
            try:
                values[lookup[k]] = decode(v, where)
            except ParseError as exc:
                raise ParseError(f"{exc} (at {field} {k})") from exc
        out.append(values)
    return out


def _poset_payload(p: FinPoset) -> dict:
    for el in p.elements:
        if not isinstance(el, str):
            raise ParseError("only posets with string-named elements serialize")
    return {"elements": list(p.elements), "covers": [list(c) for c in p.covers()]}


def _parse_poset(obj, where: str) -> FinPoset:
    """A poset payload's string names and two-name covers, read back by
    FinPoset.from_covers, which refuses a duplicate name, a cover naming a
    non-element and a cycle; its DomainError is reported at where."""
    elements = _expect(obj, "elements", where)
    covers = _expect(obj, "covers", where)
    if not isinstance(elements, list) or not isinstance(covers, list):
        raise ParseError(f"{where}: elements and covers must be lists")
    names = [_typed(e, str, where) for e in elements]
    pairs = []
    for c in covers:
        if not isinstance(c, list) or len(c) != 2:
            raise ParseError(f"{where}: covers must be two-element lists")
        pairs.append((_typed(c[0], str, where), _typed(c[1], str, where)))
    try:
        return FinPoset.from_covers(names, pairs)
    except DomainError as exc:
        raise ParseError(f"{where}: {exc}") from exc


_BASES = {"point": point_poset, "arrow": arrow_poset}


def _base_name(p: FinPoset) -> str:
    for name, base in _BASES.items():
        if p == base():
            return name
    raise ParseError("only towers over the point or the arrow serialize")


def _named_base(name: str) -> FinPoset:
    if name not in _BASES:
        raise ParseError(f"unknown base name {name!r}")
    return _BASES[name]()


def _tower_payload(t: TrussTower, schema: str, encode, where: str) -> tuple:
    """The head of a truss or packed file, its schema, base name and stage
    payloads, then its top space's labels written by encode."""
    stages, keys = [], _base_keys(t.base)
    for d in t.stages:
        ordp, arrp = _keyed(d.base, keys, (d.ord, d.arrow), (_ordinal_n, _map_payload), "stage")
        stages.append({"ord": ordp, "arrow": arrp})
        keys = next_keys(keys, d)
    labels = _keyed(t.top, keys, (t.labels.on_objects, t.labels.on_relations), (encode, encode), where)
    return ({"schema": schema, "base": _base_name(t.base), "stages": stages},) + labels


def _parse_tower_head(obj, schema: str, where: str):
    """Inverse of _tower_payload's head: the base, the stages, their top
    space and its element keys."""
    _schema(obj, schema, where)
    base = _named_base(_typed(_expect(obj, "base", where), str, where))
    cur, keys, stages = base, _base_keys(base), []
    for i, sp in enumerate(_typed(_expect(obj, "stages", where), list, where)):
        tag = f"{where} stage {i + 1}"
        ords, arrows = _unkeyed(sp, ("ord", "arrow"), cur, keys, (_ordinal, _parse_map), tag)
        d = DeltaDiagram(cur, ords, arrows)
        stages.append(d)
        cur, keys = total_space(d).carrier, next_keys(keys, d)
    return base, stages, cur, keys


def _token(value) -> str:
    if not isinstance(value, str):
        raise ParseError(f"only string label tokens serialize, got {value!r}")
    return value


def _token_in(known):
    """A decoder for label tokens that must be among known."""
    def decode(v, where):
        if _typed(v, str, where) not in known:
            raise ParseError(f"{where}: unknown label token {v!r}")
        return v
    return decode


def _labelcat_payload(cat: LabelCategory) -> dict:
    objects = [_token(o) for o in cat.objects]
    morphisms = [_token(m) for m in cat.morphisms]
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
    objects = [_typed(o, str, where) for o in _typed(_expect(obj, "objects", where), list, where)]
    morphisms = [_typed(m, str, where) for m in _typed(_expect(obj, "morphisms", where), list, where)]
    srcp = _expect(obj, "src", where)
    dstp = _expect(obj, "dst", where)
    identp = _expect(obj, "identity", where)
    composep = _typed(_expect(obj, "compose", where), dict, where)
    for table, keys in ((srcp, morphisms), (dstp, morphisms), (identp, objects)):
        if not isinstance(table, dict) or set(table) != set(keys):
            raise ParseError(f"{where}: endpoint tables do not match the morphism list")
    src = {m: _typed(srcp[m], str, where) for m in morphisms}
    dst = {m: _typed(dstp[m], str, where) for m in morphisms}
    out_of = {}
    for g in morphisms:
        out_of.setdefault(src[g], []).append(g)
    pair_for = {}
    for f in morphisms:
        for g in out_of.get(dst[f], ()):
            key = f + "|" + g
            if key in pair_for:
                raise ParseError(f"{where}: composition keys collide at {key!r}")
            pair_for[key] = (f, g)
    if set(composep) != set(pair_for):
        raise ParseError(f"{where}: composition keys do not match the composable pairs")
    compose = {pair_for[k]: _typed(v, str, where) for k, v in composep.items()}
    identity = {o: _typed(identp[o], str, where) for o in objects}
    return LabelCategory(objects, morphisms, src, dst, identity, compose)


def _truss_payload(t: TrussTower) -> dict:
    head, objects, relations = _tower_payload(t, SCHEMA_TRUSS, _token, "labels")
    head["labels"] = {"category": _labelcat_payload(t.labels.target), "objects": objects, "relations": relations}
    return head


def _parse_truss(obj, where: str = "truss") -> TrussTower:
    base, stages, top, keys = _parse_tower_head(obj, SCHEMA_TRUSS, where)
    labp = _expect(obj, "labels", where)
    cat = _parse_labelcat(_expect(labp, "category", where), f"{where} labels")
    on_obj, on_rel = _unkeyed(
        labp, ("objects", "relations"), top, keys,
        (_token_in(cat._objects), _token_in(cat._morphisms)), f"{where} labels",
    )
    cls = Bordism if base == arrow_poset() else TrussTower
    return cls(base, stages, Labeling(top, cat, on_obj, on_rel))


def _diagram_payload(d: DeltaDiagram) -> dict:
    ordp, arrp = _keyed(d.base, _base_keys(d.base), (d.ord, d.arrow), (_ordinal_n, _map_payload), "diagram")
    return {"schema": SCHEMA_DIAGRAM, "base": _poset_payload(d.base), "ord": ordp, "arrow": arrp}


def _parse_diagram(obj, where: str = "diagram") -> DeltaDiagram:
    base = _parse_poset(_expect(obj, "base", where), where)
    ords, arrows = _unkeyed(obj, ("ord", "arrow"), base, _base_keys(base), (_ordinal, _parse_map), where)
    return DeltaDiagram(base, ords, arrows)


def _heights_payload(h: CompactMesh1) -> list:
    return [str(x) for x in h.heights]


def _parse_heights(hs, where: str) -> CompactMesh1:
    return CompactMesh1(tuple(_fraction(h, where) for h in _typed(hs, list, where)))


def _mesh_payload(m: PLMeshBundle) -> dict:
    hp, sp = _keyed(m.base, _base_keys(m.base), (m.heights, m.sing), (_heights_payload, _map_payload), "mesh")
    return {"schema": SCHEMA_MESH, "base": _poset_payload(m.base), "heights": hp, "sing": sp}


def _parse_mesh(obj, where: str = "mesh") -> PLMeshBundle:
    base = _parse_poset(_expect(obj, "base", where), where)
    heights, sing = _unkeyed(
        obj, ("heights", "sing"), base, _base_keys(base), (_parse_heights, partial(_parse_map, cls=NablaMap)), where
    )
    return PLMeshBundle(base, heights, sing)


def _packed_payload(p: PackedTower) -> dict:
    head, objects, relations = _tower_payload(p.tower, SCHEMA_PACKED, _truss_payload, "packed labels")
    head.update(objects=objects, relations=relations)
    return head


def _parse_packed(obj, where: str = "packed") -> PackedTower:
    base, stages, top, keys = _parse_tower_head(obj, SCHEMA_PACKED, where)
    fibers, gens = _unkeyed(obj, ("objects", "relations"), top, keys, (_parse_truss, _parse_truss), where)
    return _packed_tower(base, stages, top, fibers, gens)


# (schema, class, payload, parser) of each file schema; payload_for takes
# the first row whose class the value is an instance of
_SCHEMAS = (
    (SCHEMA_PACKED, PackedTower, _packed_payload, _parse_packed),
    (SCHEMA_TRUSS, TrussTower, _truss_payload, _parse_truss),
    (SCHEMA_DIAGRAM, DeltaDiagram, _diagram_payload, _parse_diagram),
    (SCHEMA_LABELCAT, LabelCategory, _labelcat_payload, _parse_labelcat),
    (SCHEMA_MESH, PLMeshBundle, _mesh_payload, _parse_mesh),
)


def payload_for(obj) -> dict:
    for _, cls, payload, _ in _SCHEMAS:
        if isinstance(obj, cls):
            return payload(obj)
    raise ParseError(f"no file schema for {type(obj).__name__}")


def _write(value, nl: str, out: list) -> None:
    """Append to out json.dumps(value, sort_keys=True, indent=2)'s text, nested after
    the break and indent nl; TypeError at a value not str, int, list, tuple or str-keyed dict."""
    t = type(value)
    if t is str:
        out.append(_quote(value))
    elif t is int:
        out.append(repr(value))
    elif t is list or t is tuple or t is dict:
        if not value:
            out.append("{}" if t is dict else "[]")
            return
        inner, sep = nl + "  ", "{" if t is dict else "["
        for k in sorted(value) if t is dict else range(len(value)):
            out += (sep, inner, _quote(k) + ": ") if t is dict else (sep, inner)
            _write(value[k], inner, out)
            sep = ","
        out += (nl, "}" if t is dict else "]")
    else:
        raise TypeError(value)


def dumps(obj) -> str:
    """Canonical text: sorted keys, two-space indent, trailing newline.  An indent sends
    json to its pure-Python encoder, so _write spells what it can, as json would."""
    payload, out = payload_for(obj), []
    try:
        _write(payload, "\n", out)
    except TypeError:
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return "".join(out) + "\n"


def parse(text: str):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested too deeply") from exc
    except TypeError:
        raise ParseError(f"parse needs JSON text, got {type(text).__name__}") from None
    if not isinstance(obj, dict) or "schema" not in obj:
        raise ParseError("file must be a JSON object with a 'schema' field")
    schema = obj["schema"]
    for name, _, _, parser in _SCHEMAS:
        if name == schema:
            return parser(obj)
    known = ", ".join(sorted(row[0] for row in _SCHEMAS))
    raise ParseError(f"unknown schema {schema!r} (known: {known})")


def save(obj, path) -> None:
    text = dumps(obj)  # a value dumps refuses writes nothing
    try:
        Path(path).write_text(text, encoding="utf-8")
    except (OSError, TypeError) as exc:
        raise DomainError(f"cannot write {path}: {exc}") from exc


def load(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError, TypeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse(text)
