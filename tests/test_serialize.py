"""Canonical JSON round trips for every schema."""

import hashlib
import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trusskit import (
    Bordism,
    DeltaDiagram,
    DeltaMap,
    FinPoset,
    LabelCategory,
    Labeling,
    Ordinal,
    PackedTower,
    ParseError,
    TrussError,
    TrussTower,
    arrow_poset,
    constant_inclusion,
    dumps,
    load,
    pack,
    parse,
    realize_bundle,
    save,
    unpack,
)
from trusskit.layout import layout_2truss
from trusskit.oracles import tower_family
from trusskit import serialize
from trusskit.serialize import cover_key, cover_keys, element_key, next_keys, payload_for


def inner_face_diagram():
    return DeltaDiagram(
        arrow_poset(),
        {"0": Ordinal(1), "1": Ordinal(2)},
        {("0", "1"): DeltaMap(1, 2, (0, 2))},
    )


def roundtrip(obj):
    text = dumps(obj)
    back = parse(text)
    assert back == obj
    assert dumps(back) == text
    return text


def test_dumps_is_canonical(single_node):
    text = dumps(single_node)
    assert text.endswith("\n")
    payload = json.loads(text)
    assert payload["schema"] == "truss/v1"
    # canonical: re-serializing the parsed JSON with sorted keys is identical
    assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == text


def test_diagram_roundtrip():
    roundtrip(inner_face_diagram())


def test_truss_roundtrip(single_node):
    roundtrip(single_node)


def test_bordism_roundtrip(chain_cat):
    b = constant_inclusion([DeltaMap(1, 2, (0, 2))], "a<=b", chain_cat)
    text = roundtrip(b)
    assert isinstance(parse(text), Bordism)


def test_labelcat_roundtrip(chain_cat):
    roundtrip(chain_cat)
    roundtrip(LabelCategory.terminal())


def test_mesh_roundtrip():
    m = realize_bundle(inner_face_diagram())
    text = roundtrip(m)
    payload = json.loads(text)
    # exact rational heights serialize as strings
    assert "-1/3" in text
    assert payload["schema"] == "mesh/v1"


def test_packed_roundtrip(single_node):
    p = pack(single_node)
    text = dumps(p)
    back = parse(text)
    assert isinstance(back, PackedTower)
    assert unpack(back) == single_node
    assert dumps(back) == text


def test_save_load(tmp_path, single_node):
    path = tmp_path / "truss.json"
    save(single_node, path)
    assert load(path) == single_node


def test_load_missing_file(tmp_path):
    with pytest.raises(ParseError):
        load(tmp_path / "absent.json")


def test_load_rejects_non_utf8_file(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'\xff\xfe{"schema": "diagram/v1"}')
    with pytest.raises(ParseError) as err:
        load(path)
    assert "cannot read" in str(err.value)


def test_parse_rejects_bad_json():
    with pytest.raises(ParseError) as err:
        parse("{not json")
    assert "line" in str(err.value)


def test_parse_rejects_deeply_nested_json():
    with pytest.raises(ParseError) as err:
        parse("[" * 100000 + "]" * 100000)
    assert "nested too deeply" in str(err.value)


def test_parse_rejects_unknown_schema():
    with pytest.raises(ParseError) as err:
        parse('{"schema": "nope/v9"}')
    assert "diagram/v1" in str(err.value)


@pytest.mark.parametrize("schema", [[], {}, ["diagram/v1"], 5, None])
def test_parse_rejects_non_string_schema(schema):
    with pytest.raises(ParseError) as err:
        parse(json.dumps({"schema": schema}))
    assert "unknown schema" in str(err.value)


def test_parse_rejects_missing_fields():
    with pytest.raises(ParseError):
        parse('{"schema": "diagram/v1"}')


def test_parse_rejects_wrong_types():
    payload = payload_for(inner_face_diagram())
    payload["ord"]["0"] = "one"
    with pytest.raises(ParseError):
        parse(json.dumps(payload))


def test_parse_rejects_non_object_diagram_arrow():
    # over the point the arrow table has no keys, so a list passes the key
    # match and must still be refused as a non-object
    payload = {
        "schema": "diagram/v1",
        "base": {"elements": ["pt"], "covers": []},
        "ord": {"pt": 1},
        "arrow": [],
    }
    with pytest.raises(ParseError):
        parse(json.dumps(payload))


def test_parse_rejects_non_object_stage_arrow(single_node):
    payload = payload_for(single_node)
    assert payload["stages"][0]["arrow"] == {}
    payload["stages"][0]["arrow"] = []
    with pytest.raises(ParseError):
        parse(json.dumps(payload))


@pytest.mark.parametrize("field", ["objects", "morphisms"])
@pytest.mark.parametrize("value", [5, None, "a", {"a": "a"}])
def test_parse_rejects_non_list_labelcat_fields(chain_cat, field, value):
    payload = payload_for(chain_cat)
    payload[field] = value
    with pytest.raises(ParseError) as err:
        parse(json.dumps(payload))
    assert "expected a list" in str(err.value)


@pytest.mark.parametrize("field", ["objects", "morphisms"])
def test_parse_rejects_non_list_truss_label_category(single_node, field):
    payload = payload_for(single_node)
    payload["labels"]["category"][field] = 5
    with pytest.raises(ParseError):
        parse(json.dumps(payload))


@pytest.mark.parametrize("height", ["1e999999999", "1e-9", "0.5", "1/0", "-1/-3", "1/3 ", "١/3", "Infinity"])
def test_parse_accepts_only_canonical_heights(height):
    # dumps writes heights as p or p/q; exponents would let a short string
    # ask Fraction for a huge power of ten, and parse must not hang on it
    payload = payload_for(realize_bundle(inner_face_diagram()))
    payload["heights"]["1"][1] = height
    with pytest.raises(ParseError, match="bad rational"):
        parse(json.dumps(payload))
    payload["heights"]["1"][1] = "-2/4"
    assert parse(json.dumps(payload)).heights["1"][1] == Fraction(-1, 2)


def test_parse_rejects_tampered_maps():
    payload = payload_for(inner_face_diagram())
    payload["arrow"]["0->1"]["values"] = [2, 0]
    with pytest.raises(ParseError):
        parse(json.dumps(payload))


def test_element_keys_are_flat_strings(single_node):
    keys = {element_key(e) for e in single_node.top.elements}
    assert len(keys) == len(single_node.top.elements)
    assert all("." in k for k in keys)
    assert "pt.s0.s0" in keys


def test_parse_keeps_semantic_failures_separate():
    # a well-formed file with incoherent diagram data fails validation
    # (DiagramError), while malformed values fail parsing (ParseError)
    from trusskit import DiagramError

    payload = {
        "schema": "diagram/v1",
        "base": {
            "elements": ["p", "q", "r", "s"],
            "covers": [["p", "q"], ["p", "r"], ["q", "s"], ["r", "s"]],
        },
        "ord": {"p": 1, "q": 1, "r": 1, "s": 1},
        "arrow": {
            "p->q": {"src": 1, "dst": 1, "values": [0, 1]},
            "p->r": {"src": 1, "dst": 1, "values": [0, 1]},
            "q->s": {"src": 1, "dst": 1, "values": [0, 1]},
            "r->s": {"src": 1, "dst": 1, "values": [0, 0]},
        },
    }
    with pytest.raises(DiagramError):
        parse(json.dumps(payload))


# both "a|b" then "c" and "a" then "b|c" key their composite "a|b|c"
COLLIDING = ["1", "a", "a|b", "c", "b|c"]


def colliding_monoid_tables():
    """A monoid on COLLIDING: "1" its unit, every other product "a"."""
    ends = dict.fromkeys(COLLIDING, "*")
    products = {(f, g): f if g == "1" else g if f == "1" else "a" for f in COLLIDING for g in COLLIDING}
    return ["*"], COLLIDING, ends, ends, {"*": "1"}, products


def elsewhere_tower(chain_cat):
    """A depth-0 tower over a one-element poset that is not the point."""
    x = FinPoset(["x"], [("x", "x")])
    return TrussTower(x, (), Labeling(x, chain_cat, {"x": "a"}, {}))


def colliding_labelcat_text():
    objects, morphisms, src, dst, identity, _ = colliding_monoid_tables()
    return json.dumps({"schema": "labelcat/v1", "objects": objects, "morphisms": morphisms, "src": src, "dst": dst,
                       "identity": identity, "compose": {}})


DUPLICATE_NAMES = json.dumps({"schema": "diagram/v1", "base": {"elements": ["a", "a"], "covers": []},
                              "ord": {}, "arrow": {}})


def cyclic_base(schema: str) -> str:
    """A schema's file whose base covers form the cycle a -> b -> a."""
    return json.dumps({"schema": schema, "base": {"elements": ["a", "b"], "covers": [["a", "b"], ["b", "a"]]}})


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda cat: element_key(5), "element 5 has no canonical key", id="element_key(5)"),
    pytest.param(lambda cat: dumps(DeltaDiagram(FinPoset([("a",)], [(("a",), ("a",))]), {("a",): Ordinal(0)}, {})),
                 "only posets with string-named elements serialize", id="dumps(diagram over ('a',))"),
    pytest.param(lambda cat: parse(DUPLICATE_NAMES), "diagram: duplicate poset elements", id="parse(elements a, a)"),
    pytest.param(lambda cat: parse(cyclic_base("diagram/v1")), "diagram: cover relation has a cycle through 'a'",
                 id="parse(diagram over a cycle)"),
    pytest.param(lambda cat: parse(cyclic_base("mesh/v1")), "mesh: cover relation has a cycle through 'a'",
                 id="parse(mesh over a cycle)"),
    pytest.param(lambda cat: dumps(elsewhere_tower(cat)), "only towers over the point or the arrow serialize",
                 id="dumps(tower over x)"),
    pytest.param(lambda cat: dumps(LabelCategory(*colliding_monoid_tables())),
                 "labelcat: composition keys collide at 'a|b|c'", id="dumps(colliding labelcat)"),
    pytest.param(lambda cat: parse(colliding_labelcat_text()), "labelcat: composition keys collide at 'a|b|c'",
                 id="parse(colliding labelcat)"),
])
def test_key_and_name_refusals(chain_cat, call, message):
    with pytest.raises(ParseError) as err:
        call(chain_cat)
    assert str(err.value) == message


def test_a_large_discrete_category_parses_in_time():
    # the composable pairs come from an index by source, not from every pair
    objects = [f"o{i}" for i in range(5000)]
    ids = [f"id{i}" for i in range(5000)]
    cat = LabelCategory(objects, ids, dict(zip(ids, objects)), dict(zip(ids, objects)), dict(zip(objects, ids)),
                        {(m, m): m for m in ids})
    text = dumps(cat)
    start = time.perf_counter()
    back = parse(text)
    assert time.perf_counter() - start < 0.5
    assert back == cat


def test_unsupported_object_rejected():
    with pytest.raises(ParseError):
        payload_for(42)


# ---------------------------------------------------------------------------
# mutation fuzz: malformed fields are ParseErrors, nothing escapes as a raw
# Python exception

FUZZ_VALUES = (5, None, [], {}, "x", [1], True, -1)


def canonical_files(chain_cat):
    """One small canonical file per schema."""
    return {
        "diagram/v1": dumps(inner_face_diagram()),
        "truss/v1": dumps(constant_inclusion([DeltaMap(1, 2, (0, 2))], "a<=b", chain_cat)),
        "labelcat/v1": dumps(chain_cat),
        "mesh/v1": dumps(realize_bundle(inner_face_diagram())),
        "packed/v1": dumps(pack(constant_inclusion([1, 1], "a", chain_cat))),
    }


def field_paths(obj, prefix=()):
    """The path of every object value and list item, outermost first."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from field_paths(value, prefix + (key,))


def mutated(payload, mutations):
    out = json.loads(json.dumps(payload))
    for path, value in mutations:
        node = out
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return out


def parse_failure(payload):
    """None if the payload parses, else what parse raised."""
    try:
        parse(json.dumps(payload))
    except Exception as exc:  # the callers assert on its type
        return exc
    return None


def test_parse_fuzz_one_field(chain_cat):
    # a value of another JSON type, or -1 for an integer, is malformed and
    # must be a ParseError; a well-typed value may instead break an object
    # invariant (a TrussError, exit 1), but nothing may escape untyped
    checked = 0
    for schema, text in canonical_files(chain_cat).items():
        payload = json.loads(text)
        for path in field_paths(payload):
            old = payload
            for key in path:
                old = old[key]
            for value in FUZZ_VALUES:
                exc = parse_failure(mutated(payload, [(path, value)]))
                where = (schema, path, value, exc)
                if type(value) is not type(old) or (value == -1 and type(old) is int):
                    assert isinstance(exc, ParseError), where
                else:
                    assert exc is None or isinstance(exc, TrussError), where
                checked += 1
    assert checked > 3000


def test_parse_fuzz_two_fields(chain_cat):
    rng = random.Random(0)
    outcomes = {"ok": 0, "ParseError": 0, "other TrussError": 0}
    for schema, text in canonical_files(chain_cat).items():
        payload = json.loads(text)
        paths = list(field_paths(payload))
        for _ in range(300):
            p, q = rng.sample(paths, 2)
            if p[:len(q)] == q or q[:len(p)] == p:
                continue  # one field holds the other
            exc = parse_failure(mutated(payload, [(p, rng.choice(FUZZ_VALUES)), (q, rng.choice(FUZZ_VALUES))]))
            assert exc is None or isinstance(exc, TrussError), (schema, p, q, exc)
            kind = "ok" if exc is None else "ParseError" if isinstance(exc, ParseError) else "other TrussError"
            outcomes[kind] += 1
    assert outcomes["ParseError"] > 1000


def test_parse_fuzz_keys(chain_cat):
    # in every object of the canonical files, a dropped key or a key renamed
    # to "x" is malformed; an added key "x" is malformed or ignored, so the
    # file then reads back to the same canonical text
    checked = 0
    for schema, text in canonical_files(chain_cat).items():
        payload = json.loads(text)
        for path in [()] + list(field_paths(payload)):
            node = payload
            for key in path:
                node = node[key]
            if not isinstance(node, dict):
                continue
            assert "x" not in node
            for key in node:
                for rename in (False, True):
                    out = json.loads(text)
                    target = out
                    for step in path:
                        target = target[step]
                    value = target.pop(key)
                    if rename:
                        target["x"] = value
                    exc = parse_failure(out)
                    assert isinstance(exc, ParseError), (schema, path, key, rename, exc)
                    checked += 1
            out = mutated(payload, [(path + ("x",), 0)])
            exc = parse_failure(out)
            assert exc is None or isinstance(exc, ParseError), (schema, path, exc)
            if exc is None:
                assert dumps(parse(json.dumps(out))) == text, (schema, path)
            checked += 1
    assert checked > 500


def test_parse_rejects_negative_ordinals(single_node):
    payload = payload_for(inner_face_diagram())
    payload["ord"]["0"] = -1
    with pytest.raises(ParseError):
        parse(json.dumps(payload))
    payload = payload_for(single_node)
    payload["stages"][0]["ord"]["pt"] = -1
    with pytest.raises(ParseError):
        parse(json.dumps(payload))


@pytest.mark.parametrize("schema", [5, None, "mesh/v1", "truss/v1"])
def test_parse_checks_embedded_schemas(single_node, schema):
    payload = payload_for(single_node)
    payload["labels"]["category"]["schema"] = schema
    with pytest.raises(ParseError):
        parse(json.dumps(payload))
    packed = payload_for(pack(single_node))
    key = sorted(packed["objects"])[0]
    packed["objects"][key]["schema"] = "labelcat/v1" if schema == "truss/v1" else schema
    with pytest.raises(ParseError):
        parse(json.dumps(packed))


# ---------------------------------------------------------------------------
# key walk: dumps and parse key each layer from the one below it, by index


@pytest.fixture(scope="module")
def walk_towers():
    """The towers of tower_family(s, 2) for s = 0, 1 and a depth-3 constant
    tower, then the pack of each."""
    towers = tower_family(0, 2) + tower_family(1, 2)
    towers.append(constant_inclusion([1, 2, 1], "*", LabelCategory.terminal()))
    return towers, [pack(t) for t in towers]


def walked_layers(t):
    """(layer poset, walked element keys) for the base and every total space."""
    keys = tuple(map(element_key, t.base.elements))
    layers = [(t.base, keys)]
    for d, tot in zip(t.stages, t.totals):
        keys = next_keys(keys, d)
        layers.append((tot.carrier, keys))
    return layers


def test_key_walk_matches_element_key(walk_towers):
    towers, packs = walk_towers
    nested = [x for p in packs for table in (p.tower.labels.on_objects, p.tower.labels.on_relations)
              for x in table.values()]
    checked = 0
    for t in towers + [p.tower for p in packs] + nested:
        for poset, keys in walked_layers(t):
            assert keys == tuple(map(element_key, poset.elements))
            assert cover_keys(poset, keys) == tuple(map(cover_key, poset.covers()))
            checked += 1
    assert checked == 13369


def test_dumps_bytes_are_pinned(walk_towers):
    # sha256 of the concatenated dumps: the key walk must write exactly the
    # bytes that keying every element through element_key writes
    towers, packs = walk_towers
    assert (len(towers), len(packs)) == (929, 929)
    digest = hashlib.sha256("".join(map(dumps, towers + packs)).encode()).hexdigest()
    assert digest == "4bbb6bcc8465caccf141fbd626d69e885082b7a8507c97cac337ba9f6da09233"


def count_element_keys(monkeypatch, target):
    """Patch target (element_key as a module sees it) to record its arguments."""
    calls = []

    def counting(el):
        calls.append(el)
        return element_key(el)

    monkeypatch.setattr(target, counting)
    return calls


def test_only_root_elements_go_through_element_key(monkeypatch):
    calls = count_element_keys(monkeypatch, "trusskit.serialize.element_key")
    t = constant_inclusion([1, 2, 1], "*", LabelCategory.terminal())
    text = dumps(t)
    assert calls == list(t.base.elements)
    calls.clear()
    assert parse(text) == t
    assert calls == list(t.base.elements)
    p = pack(t)
    nested = (*p.tower.labels.on_objects.values(), *p.tower.labels.on_relations.values())
    roots = sorted(el for base in [p.tower.base] + [x.base for x in nested] for el in base.elements)
    calls.clear()
    text = dumps(p)
    assert sorted(calls) == roots
    calls.clear()
    assert parse(text) == p
    assert sorted(calls) == roots


def test_layout_keys_only_the_root(monkeypatch, single_node):
    calls = count_element_keys(monkeypatch, "trusskit.layout.element_key")
    layout_2truss(single_node)
    assert calls == list(single_node.base.elements)


def collision_diagram():
    # the covers (a, b->c) and (a->b, c) both key as "a->b->c"
    base = FinPoset.from_covers(["a", "b->c", "a->b", "c"], [("a", "b->c"), ("a->b", "c")])
    return DeltaDiagram(
        base,
        {x: Ordinal(0) for x in base.elements},
        {cov: DeltaMap.identity(0) for cov in base.covers()},
    )


def test_cover_keys_collide():
    message = "diagram: keys collide at 'a->b->c'"
    with pytest.raises(ParseError) as err:
        dumps(collision_diagram())
    assert str(err.value) == message
    text = """{
      "schema": "diagram/v1",
      "base": {"elements": ["a", "b->c", "a->b", "c"], "covers": [["a", "b->c"], ["a->b", "c"]]},
      "ord": {"a": 0, "b->c": 0, "a->b": 0, "c": 0},
      "arrow": {"a->b->c": {"src": 0, "dst": 0, "values": [0]}}
    }"""
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


class Size(int):
    """An int subclass: json writes int.__repr__ of it, and dumps hands it to json."""


# strings with non-ASCII characters, quotes, backslashes and control characters
TEXT = st.text(st.sampled_from('ab"\\/\n\t\x00\x1f\x7fé€😀 '), max_size=6)
PLAIN = st.recursive(
    st.one_of(TEXT, st.integers()),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=20,
)
MIXED = st.recursive(
    st.one_of(TEXT, st.integers(), st.booleans(), st.none(), st.integers().map(Size), st.floats(allow_nan=False)),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(TEXT, inner, max_size=4), st.dictionaries(st.integers(), inner, max_size=3)),
    max_leaves=20,
)
JSON_PROPERTY = settings(derandomize=True, max_examples=300, deadline=None)


@JSON_PROPERTY
@given(PLAIN)
def test_dumps_writer_is_json_with_an_indent(payload):
    # str, int, list, tuple and str-keyed dict: the writer spells all of it
    out = []
    serialize._write(payload, "\n", out)
    assert "".join(out) == json.dumps(payload, sort_keys=True, indent=2)


@JSON_PROPERTY
@given(MIXED)
def test_dumps_is_json_with_an_indent_on_any_payload(payload):
    # bools, None, int subclasses, floats and int keys fall back to json
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(serialize, "payload_for", lambda obj: obj)
        assert dumps(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("payload", [{}, [], (), {"a": []}, {"a": {}}, [[], {}], "", 0, Size(3), True, None])
def test_dumps_writes_empty_containers_and_scalars_as_json_does(payload):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(serialize, "payload_for", lambda obj: obj)
        assert dumps(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"
