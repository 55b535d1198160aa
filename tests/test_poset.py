"""Finite posets: linear extension order, cover construction errors, and the
first diagnostic of a non-functorial diagram (bundle or interval) or
labeling."""

import time

import pytest

from trusskit import (
    DeltaDiagram,
    DeltaMap,
    DiagramError,
    DomainError,
    FinPoset,
    LabelCategory,
    Labeling,
    LabelingError,
    NablaDiagram,
    NablaMap,
    Ordinal,
    constant_inclusion,
    oracles,
)


def greedy_linear_extension(p):
    """The original rescanning order, kept as the reference: repeatedly take
    the first remaining element whose strict down-set is placed."""
    remaining = list(p.elements)
    placed = set()
    out = []
    while remaining:
        for e in remaining:
            if all(x in placed or x == e for x in p.down(e)):
                out.append(e)
                placed.add(e)
                remaining.remove(e)
                break
        else:
            raise AssertionError("relation is cyclic")
    return tuple(out)


def test_linear_extension_matches_reference_on_all_small_posets():
    posets = oracles.all_posets(4)
    assert len(posets) == 1 + 3 + 19 + 219
    for p in posets:
        assert p.linear_extension() == greedy_linear_extension(p)


def test_linear_extension_matches_reference_on_tower_carriers():
    carriers = set()
    for t in oracles.tower_family(0):
        carriers.add(t.base)
        carriers.update(tot.carrier for tot in t.totals)
    assert max(len(p.elements) for p in carriers) > 10
    for p in carriers:
        assert p.linear_extension() == greedy_linear_extension(p)


def test_from_covers_rejects_unknown_cover_endpoints():
    with pytest.raises(DomainError, match=r"cover \('z', 'a'\)"):
        FinPoset.from_covers(["a"], [("z", "a")])
    with pytest.raises(DomainError, match=r"cover \('a', 'z'\)"):
        FinPoset.from_covers(["a"], [("a", "z")])
    with pytest.raises(DomainError, match="cycle"):
        FinPoset.from_covers(["a", "b"], [("a", "b"), ("b", "a")])


def _grid():
    """The product of the chains {0 < 1 < 2} and {0 < 1}: two stacked squares."""
    names = {(i, j): f"p{i}{j}" for i in range(3) for j in range(2)}
    covers = [(names[i, j], names[i + 1, j]) for i in range(2) for j in range(2)]
    covers += [(names[i, 0], names[i, 1]) for i in range(3)]
    return FinPoset.from_covers(sorted(names.values()), covers)


# Covers sent to a non-identity value; each set breaks one square or both.
NON_FUNCTORIAL = [
    ({("p10", "p20"), ("p01", "p11")}, "composites from 'p00' to 'p11' disagree through 'p01' and 'p10'"),
    ({("p20", "p21")}, "composites from 'p00' to 'p21' disagree through 'p11' and 'p20'"),
]


# (diagram class, fiber ordinal, identity map, idempotent non-identity map)
DIAGRAM_KINDS = [
    (DeltaDiagram, 1, DeltaMap(1, 1, (0, 1)), DeltaMap(1, 1, (0, 0))),
    (NablaDiagram, 2, NablaMap(2, 2, (0, 1, 2)), NablaMap(2, 2, (0, 0, 2))),
]


@pytest.mark.parametrize("kind", DIAGRAM_KINDS, ids=lambda k: k[0].__name__)
@pytest.mark.parametrize("flat, message", NON_FUNCTORIAL)
def test_first_diagram_error_message(flat, message, kind):
    cls, n, ident, idem = kind
    grid = _grid()
    arrows = {c: idem if c in flat else ident for c in grid.covers()}
    with pytest.raises(DiagramError) as exc:
        cls(grid, {e: Ordinal(n) for e in grid.elements}, arrows)
    assert str(exc.value) == message


@pytest.mark.parametrize("flat, message", NON_FUNCTORIAL)
def test_first_labeling_error_message(flat, message):
    grid = _grid()
    monoid = LabelCategory(
        ["x"], ["1", "e"], {"1": "x", "e": "x"}, {"1": "x", "e": "x"}, {"x": "1"},
        {("1", "1"): "1", ("1", "e"): "e", ("e", "1"): "e", ("e", "e"): "e"},
    )
    relations = {c: "e" if c in flat else "1" for c in grid.covers()}
    with pytest.raises(LabelingError) as exc:
        Labeling(grid, monoid, {e: "x" for e in grid.elements}, relations)
    assert str(exc.value) == message


def test_constant_tower_of_depth_four_builds_quickly(chain_cat):
    start = time.perf_counter()
    tower = constant_inclusion([2, 2, 2, 2], "a", chain_cat)
    elapsed = time.perf_counter() - start
    assert len(tower.top.elements) == 625
    assert elapsed < 20, f"[2,2,2,2] took {elapsed:.1f} s"

