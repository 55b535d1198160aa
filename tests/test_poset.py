"""Finite posets: the mask representation against a pair-set reference,
linear extension order, cover construction errors, the first diagnostic of
an invalid relation, and the first diagnostic of a non-functorial diagram
(bundle or interval) or labeling."""

import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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
    Stratum,
    constant_inclusion,
    oracles,
)
from trusskit.poset import element_sort_key


def greedy_linear_extension(p):
    """The original rescanning order, kept as the reference: repeatedly take
    the first remaining element whose strict down-set is placed."""
    remaining = list(p.elements)
    placed = set()
    out = []
    while remaining:
        for e in remaining:
            if all(x in placed or x == e for x in p.elements if p.le(x, e)):
                out.append(e)
                placed.add(e)
                remaining.remove(e)
                break
        else:
            raise AssertionError("relation is cyclic")
    return tuple(out)


# -- the masks against a pair-set reference --------------------------------

# Elements of every kind a poset meets: strings, strata and the nested
# (name, stratum) pairs of total spaces.
ELEMENT_POOL = (
    list("abcdef")
    + [Stratum.regular(i, 1) for i in range(2)]
    + [Stratum.singular(0, 1), Stratum.regular(0, 0)]
    + [(b, Stratum.regular(0, 1)) for b in "ab"]
    + [("a", Stratum.singular(0, 1)), ("b", Stratum.regular(0, 0))]
)


def pair_key(pair):
    return element_sort_key(pair[0]), element_sort_key(pair[1])


def reference_accepts(elements, pairs) -> bool:
    """Whether pairs is a partial order on elements, tested pair by pair."""
    present = set(elements)
    return (
        all(a in present and b in present for a, b in pairs)
        and all((e, e) in pairs for e in present)
        and not any(a != b and (b, a) in pairs for a, b in pairs)
        and all((a, c) in pairs for a, b in pairs for b2, c in pairs if b == b2)
    )


def reference_closure(elements, edges) -> set:
    """The reflexive transitive closure of edges, by Warshall's loop."""
    rel = {(e, e) for e in elements} | set(edges)
    for m in elements:
        rel |= {(a, c) for a, b in rel if b == m for b2, c in rel if b2 == m}
    return rel


def reference_hasse(pairs) -> list:
    strict = {(a, b) for a, b in pairs if a != b}
    return sorted(
        ((a, b) for a, b in strict if not any((a, m) in strict and (m, b) in strict for _, m in strict)),
        key=pair_key,
    )


@st.composite
def relations(draw):
    """Elements of mixed kinds with a relation on them: the closure of random
    edges along a random order (a partial order), then a few pairs added or
    dropped, some of which may name a non-element."""
    elements = draw(st.lists(st.sampled_from(ELEMENT_POOL), max_size=6, unique=True))
    ranked = draw(st.permutations(elements))
    edges = [(a, b) for a, b in itertools.combinations(ranked, 2) if draw(st.booleans())]
    pairs = reference_closure(elements, edges)
    noise = draw(st.lists(st.tuples(st.sampled_from(ELEMENT_POOL), st.sampled_from(ELEMENT_POOL)), max_size=2))
    for pair in noise:
        pairs ^= {pair}
    return elements, pairs


PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)


@PROPERTY
@given(relations(), st.randoms(use_true_random=False))
def test_masks_agree_with_pair_set_reference(rel, rng):
    elements, pairs = rel
    shuffled = list(elements)
    rng.shuffle(shuffled)
    try:
        p = FinPoset(shuffled, pairs)
    except DomainError:
        assert not reference_accepts(elements, pairs)
        return
    assert reference_accepts(elements, pairs)
    assert p.elements == tuple(sorted(elements, key=element_sort_key))
    assert p.leq == pairs
    assert list(p.covers()) == reference_hasse(pairs)
    for a in ELEMENT_POOL + ["z"]:
        for b in ELEMENT_POOL + ["z"]:
            assert p.le(a, b) == ((a, b) in pairs)
    assert p.linear_extension() == greedy_linear_extension(p)
    assert FinPoset.from_covers(elements, reference_hasse(pairs)) == p


@PROPERTY
@given(relations(), relations())
def test_equality_and_hash_follow_elements_and_pairs(rel1, rel2):
    posets = []
    for elements, pairs in (rel1, rel2):
        try:
            posets.append((FinPoset(elements, pairs), set(elements), pairs))
        except DomainError:
            return
    (p, e1, r1), (q, e2, r2) = posets
    assert (p == q) == (e1 == e2 and r1 == r2)
    again = FinPoset(reversed(list(p.elements)), set(p.leq))
    assert again == p and hash(again) == hash(p)


@PROPERTY
@given(st.lists(st.sampled_from(ELEMENT_POOL), max_size=10, unique=True), st.data())
def test_from_covers_takes_the_reference_closure(elements, data):
    # up to 16 covers on 10 elements: several cycles, loops and chains
    # between them, so the components are finished in varied orders
    edges = data.draw(st.lists(st.tuples(st.sampled_from(elements), st.sampled_from(elements)), max_size=16)
                      if elements else st.just([]))
    closure = reference_closure(elements, edges)
    # a loop, even on one element, is a cycle of covers; the message names
    # the first element on a cycle in canonical order
    on_cycle = [a for a, b in edges if (b, a) in closure]
    if on_cycle:
        first = min(on_cycle, key=element_sort_key)
        with pytest.raises(DomainError) as exc:
            FinPoset.from_covers(elements, edges)
        assert str(exc.value) == f"cover relation has a cycle through {first!r}"
    else:
        assert FinPoset.from_covers(elements, edges).leq == closure


# -- the first diagnostic does not depend on the hash seed ------------------

SRC = Path(__file__).resolve().parent.parent / "src"

CHAIN_SCRIPT = r"""
from trusskit import DomainError, FinPoset
names = list("abcdef")
try:
    FinPoset(names, [(e, e) for e in names] + list(zip(names, names[1:])))
except DomainError as exc:
    print(exc)
"""


def test_first_relation_violation_is_independent_of_hash_seed():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for seed in range(1, 7):
        proc = subprocess.run(
            [sys.executable, "-c", CHAIN_SCRIPT], env=dict(env, PYTHONHASHSEED=str(seed)),
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "transitivity fails: 'a' <= 'b' <= 'c'\n", f"hash seed {seed}"


def test_first_relation_violation_order():
    els = ["a", "b", "c"]
    refl = [(e, e) for e in els]
    with pytest.raises(DomainError, match="not reflexive at 'a'"):
        FinPoset(els, refl[1:] + [("z", "a")])
    with pytest.raises(DomainError, match="antisymmetry fails on 'a', 'b'"):
        FinPoset(els, refl + [("a", "b"), ("b", "a"), ("b", "c"), ("z", "a")])
    with pytest.raises(DomainError, match=r"relation \('a', 'z'\) mentions a non-element"):
        FinPoset(els, refl + [("b", "z"), ("a", "z")])


def test_values_with_equal_strings_have_one_canonical_order():
    # 1 and "1" print alike; the key breaks the tie by type, "1" first
    refl = [(1, 1), ("1", "1")]
    p, q = FinPoset([1, "1"], refl), FinPoset(["1", 1], refl)
    assert p == q and hash(p) == hash(q)
    assert p.elements == q.elements == ("1", 1)
    assert element_sort_key("1") < element_sort_key(1) < element_sort_key("10")


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


def test_from_covers_closes_a_long_chain_quickly():
    # the closure is one pass in reverse topological order; closing by
    # doubling took over 3 s on this chain
    names = [f"e{i:04d}" for i in range(2000)]
    start = time.perf_counter()
    chain = FinPoset.from_covers(reversed(names), list(zip(names, names[1:])))
    elapsed = time.perf_counter() - start
    assert chain.ups[0] == (1 << 2000) - 1 and chain.ups[-1] == 1 << 1999
    assert chain.le(names[0], names[-1]) and not chain.le(names[-1], names[0])
    assert elapsed < 1.0, f"a 2000-element chain took {elapsed:.2f} s"


def test_from_covers_names_a_long_cycle_quickly():
    # one strongly-connected-components pass names the element; closing by
    # doubling took about 3 s on this cycle
    names = [f"e{i:04d}" for i in range(2000)]
    start = time.perf_counter()
    with pytest.raises(DomainError, match="^cover relation has a cycle through 'e0000'$"):
        FinPoset.from_covers(reversed(names), list(zip(names, names[1:] + names[:1])))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"a 2000-element cycle took {elapsed:.2f} s"


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

