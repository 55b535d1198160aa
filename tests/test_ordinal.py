"""Monotone map arithmetic and the interval duality."""

import copy
import enum
import pickle
from math import comb

import pytest
from hypothesis import given, strategies as st

from trusskit import (
    DeltaMap,
    DomainError,
    NablaMap,
    Ordinal,
    compose_delta,
    compose_nabla,
    dual_delta_to_nabla,
    dual_nabla_to_delta,
    enumerate_delta_maps,
    enumerate_nabla_maps,
    ordinal,
    tower,
)


def delta_maps(max_n=3):
    return st.tuples(
        st.integers(min_value=0, max_value=max_n),
        st.integers(min_value=0, max_value=max_n),
    ).flatmap(
        lambda nm: st.lists(
            st.integers(min_value=0, max_value=nm[1]),
            min_size=nm[0] + 1,
            max_size=nm[0] + 1,
        ).map(lambda vs: DeltaMap(nm[0], nm[1], tuple(sorted(vs))))
    )


def test_ordinal_rejects_negative():
    with pytest.raises(DomainError):
        Ordinal(-1)


def test_ordinal_rejects_bool():
    with pytest.raises(DomainError):
        Ordinal(True)


def test_map_values_reject_bool():
    with pytest.raises(DomainError):
        DeltaMap(1, 1, (False, True))
    with pytest.raises(DomainError):
        NablaMap(1, 1, (False, True))


def test_ordinal_size():
    assert Ordinal(0).size == 1
    assert Ordinal(4).size == 5


def test_delta_map_validation():
    DeltaMap(1, 2, (0, 2))
    with pytest.raises(DomainError):
        DeltaMap(1, 2, (2, 0))  # not monotone
    with pytest.raises(DomainError):
        DeltaMap(1, 2, (0, 3))  # out of range
    with pytest.raises(DomainError):
        DeltaMap(1, 2, (0, 1, 2))  # wrong arity


def test_nabla_map_needs_endpoints():
    NablaMap(1, 2, (0, 2))
    with pytest.raises(DomainError):
        NablaMap(1, 2, (0, 1))
    with pytest.raises(DomainError):
        NablaMap(1, 2, (1, 2))
    with pytest.raises(DomainError):
        NablaMap(0, 2, (0,))  # ordinals too small on the interval side


def test_compose_requires_matching_middle():
    f = DeltaMap(1, 2, (0, 2))
    with pytest.raises(DomainError):
        compose_delta(f, f)


def test_delta_count_is_binomial():
    for n in range(4):
        for m in range(4):
            assert len(enumerate_delta_maps(n, m)) == comb(n + m + 1, n + 1)


def test_nabla_count_matches_delta_via_duality():
    # endpoint-preserving [n] -> [m] correspond to plain [m-1] -> [n-1]
    for n in range(1, 4):
        for m in range(1, 4):
            assert len(enumerate_nabla_maps(n, m)) == len(
                enumerate_delta_maps(m - 1, n - 1)
            )


def test_dual_of_inner_face():
    f = DeltaMap(1, 2, (0, 2))
    g = dual_delta_to_nabla(f)
    assert (g.src, g.dst) == (Ordinal(3), Ordinal(2))
    assert g.values == (0, 1, 1, 2)
    assert dual_nabla_to_delta(g) == f


def test_dual_roundtrip_exhaustive():
    for n in range(4):
        for m in range(4):
            for f in enumerate_delta_maps(n, m):
                assert dual_nabla_to_delta(dual_delta_to_nabla(f)) == f
    for n in range(1, 4):
        for m in range(1, 4):
            for g in enumerate_nabla_maps(n, m):
                assert dual_delta_to_nabla(dual_nabla_to_delta(g)) == g


def _fresh_nabla(f):
    """The dual of a Δ map by its checking constructor, counting preimages."""
    return NablaMap(f.dst.n + 1, f.src.n + 1, [sum(1 for v in f.values if v < j) for j in range(f.dst.n + 2)])


def _fresh_delta(g):
    """The dual of a ∇ map by its checking constructor, counting the j >= 1 with g(j) <= i."""
    return DeltaMap(g.dst.n - 1, g.src.n - 1, [sum(1 for v in g.values[1:] if v <= i) for i in range(g.dst.n)])


@pytest.mark.parametrize("enumerate_maps, lowest, dual, fresh, inverse", [
    (enumerate_delta_maps, 0, dual_delta_to_nabla, _fresh_nabla, dual_nabla_to_delta),
    (enumerate_nabla_maps, 1, dual_nabla_to_delta, _fresh_delta, dual_delta_to_nabla),
], ids=["delta", "nabla"])
def test_memoized_duals_are_fresh_duals_up_to_four(enumerate_maps, lowest, dual, fresh, inverse):
    tower._empty_tables()
    maps = [f for n in range(lowest, 5) for m in range(lowest, 5) for f in enumerate_maps(n, m)]
    first = [dual(f) for f in maps]
    assert dual.cache_info().misses == len(maps) and dual.cache_info().hits == 0
    for f, g in zip(maps, first):
        again = dual(type(f)(f.src, f.dst, f.values))  # an equal map, built apart
        assert again is g and g == fresh(f) and type(g) is type(fresh(f))
        assert inverse(g) == f
    assert dual.cache_info().hits == len(maps)


def test_identities_are_shared_per_class_and_ordinal():
    tower._empty_tables()
    for n in range(5):
        assert DeltaMap.identity(n) is DeltaMap.identity(Ordinal(n)) == DeltaMap(n, n, range(n + 1))
    for n in range(1, 5):
        assert NablaMap.identity(n) is NablaMap.identity(Ordinal(n)) == NablaMap(n, n, range(n + 1))
        assert NablaMap.identity(n) != DeltaMap.identity(n)
    assert ordinal._identities.cache_info().currsize == 9
    with pytest.raises(DomainError, match="interval maps need ordinals"):
        NablaMap.identity(0)


def test_duality_is_contravariant():
    for f in enumerate_delta_maps(1, 2):
        for g in enumerate_delta_maps(2, 1):
            lhs = dual_delta_to_nabla(compose_delta(f, g))
            rhs = compose_nabla(dual_delta_to_nabla(g), dual_delta_to_nabla(f))
            assert lhs == rhs


def test_identity_is_neutral():
    f = DeltaMap(2, 1, (0, 0, 1))
    assert compose_delta(DeltaMap.identity(2), f) == f
    assert compose_delta(f, DeltaMap.identity(1)) == f
    g = NablaMap(2, 3, (0, 2, 3))
    assert compose_nabla(NablaMap.identity(2), g) == g
    assert compose_nabla(g, NablaMap.identity(3)) == g


@given(delta_maps())
def test_dual_roundtrip_property(f):
    assert dual_nabla_to_delta(dual_delta_to_nabla(f)) == f


@given(delta_maps(), st.data())
def test_compose_associative_property(f, data):
    g = data.draw(delta_maps().filter(lambda g: g.src == f.dst))
    h = data.draw(delta_maps().filter(lambda h: h.src == g.dst))
    assert compose_delta(compose_delta(f, g), h) == compose_delta(
        f, compose_delta(g, h)
    )


@given(delta_maps())
def test_dual_counts_preimages(f):
    g = dual_delta_to_nabla(f)
    for j in range(g.src.size):
        assert g(j) == sum(1 for i in range(f.src.size) if f(i) < j)


class _Small(enum.IntEnum):
    TWO = 2


def test_ordinal_routes_give_the_interned_instance():
    o = Ordinal(2)
    assert Ordinal(2) is o
    assert Ordinal(_Small.TWO) is o
    assert type(Ordinal(_Small.TWO).n) is int
    assert DeltaMap(1, 2, (0, 2)).dst is o
    assert DeltaMap.identity(2).src is o
    assert copy.copy(o) is o
    assert copy.deepcopy(o) is o
    assert pickle.loads(pickle.dumps(o)) is o
    f = DeltaMap(1, 2, (0, 2))
    g = pickle.loads(pickle.dumps(f))
    assert g == f and hash(g) == hash(f) and g.dst is o


def test_ordinal_is_immutable():
    o = Ordinal(3)
    for field in ("n", "size", "other"):
        with pytest.raises(AttributeError):
            setattr(o, field, 0)
    assert not hasattr(o, "__dict__")
    assert (o.n, o.size, repr(o), str(o)) == (3, 4, "Ordinal(n=3)", "[3]")


@pytest.mark.parametrize("n", [-1, True, False, 1.0, "1", None])
def test_invalid_ordinals_are_never_interned(n):
    # intern the valid values True, False and 1.0 compare equal to
    Ordinal(0)
    Ordinal(1)
    with pytest.raises(DomainError):
        Ordinal(n)
