"""The structure layer's one equality, hash and unchecked install:
poset._Keyed, shared by FinPoset, PosetMap, CoverFunctor, LabelCategory and
TrussTower."""

import pytest

from trusskit import (
    POINT_ELEMENT,
    DeltaDiagram,
    FinPoset,
    LabelCategory,
    NablaDiagram,
    Ordinal,
    PosetMap,
    TrussTower,
    arrow_poset,
    point_poset,
)
from trusskit.bundle import CoverFunctor
from trusskit.oracles import bordism_family

KEYED = (FinPoset, PosetMap, CoverFunctor, LabelCategory, TrussTower)


def one_of_each():
    b = bordism_family(0)[0]
    return (b.base, PosetMap(point_poset(), arrow_poset(), {POINT_ELEMENT: "0"}), b.stages[0], b.labels.target, b)


@pytest.mark.parametrize("cls", KEYED, ids=lambda cls: cls.__name__)
def test_no_structure_class_spells_its_own_equality(cls):
    assert not {"__eq__", "__hash__"} & vars(cls).keys()
    assert "_trusted" in vars(cls)


def test_a_bordism_and_a_tower_with_equal_layers_are_equal_both_ways():
    b = bordism_family(0)[0]
    t = TrussTower(arrow_poset(), b.stages, b.labels)
    assert type(t) is TrussTower and t is not b
    assert b == t and t == b and not b != t and not t != b
    assert hash(b) == hash(t)


def test_sibling_functors_with_equal_keys_stay_unequal():
    pt = point_poset()
    d = DeltaDiagram(pt, {POINT_ELEMENT: 1}, {})
    n = NablaDiagram(pt, {POINT_ELEMENT: Ordinal(1)}, {})
    assert d._key == n._key
    assert d != n and n != d and not d == n and not n == d


@pytest.mark.parametrize("k", range(len(KEYED)), ids=[cls.__name__ for cls in KEYED])
def test_a_foreign_value_is_left_to_python(k):
    x = one_of_each()[k]
    assert isinstance(x, KEYED[k])
    assert (x == 5) is False and (x != 5) is True
    assert x.__eq__(5) is NotImplemented


def test_a_trusted_and_a_checked_poset_map_are_one_value():
    src, dst = point_poset(), arrow_poset()
    mapping = {POINT_ELEMENT: "1"}
    checked, trusted = PosetMap(src, dst, mapping), PosetMap._trusted(src, dst, dict(mapping))
    assert checked == trusted and trusted == checked
    expected = hash((src, dst, frozenset(mapping.items())))
    assert hash(checked) == hash(trusted) == expected


def test_comparing_a_trusted_functor_with_a_checked_one_takes_no_hash():
    d = bordism_family(0)[0].stages[0]
    f = DeltaDiagram._trusted(d._key[:-1], d._paths)
    assert f is not d and f._hash is None
    assert f == d and d == f and f._hash is None
