"""The audit of unchecked installs: oracles.audited(), under which every
SUITES entry runs, catches one wrong install of each kind as a failing
Report and leaves the library as it found it."""

import sys

import pytest

from trusskit import DeltaDiagram, DeltaMap, FinPoset, bundle, oracles, tower
from trusskit.bundle import CoverFunctor, total_space
from trusskit.mesh import PLMeshBundle
from trusskit.oracles import SUITES, audited, chain3_poset, tower_family
from trusskit.tower import TrussTower, pack

ORIGINALS = (CoverFunctor.__dict__["_trusted"], TrussTower.__dict__["end"], total_space)


def one_wrong_entry(base, paths):
    """paths with its first related non-cover pair (x, z) set to the
    identity at z."""
    covers = set(base.covers())
    for x, z in paths:
        if x != z and (x, z) not in covers:
            return {**paths, (x, z): paths[(z, z)]}
    return paths


def assert_restored():
    trusted, end, space = ORIGINALS
    assert CoverFunctor.__dict__["_trusted"] is trusted
    assert TrussTower.__dict__["end"] is end
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "trusskit" and hasattr(module, "total_space"):
            assert module.total_space is space, name


def assert_caught(report, kind):
    assert not report.is_ok
    [(where, why)] = report.diagnostics
    assert where == kind, why
    assert_restored()


def test_audit_catches_a_wrong_realized_path(monkeypatch):
    def wrong(cls, key, compose, paths):
        return super(PLMeshBundle, cls)._trusted(key, compose, one_wrong_entry(key[0], paths))

    monkeypatch.setattr(PLMeshBundle, "_trusted", classmethod(wrong))
    assert_caught(SUITES["roundtrip-mesh"](), "trusted functor")


def test_audit_catches_a_flipped_total_space_bit(monkeypatch):
    real = bundle.TotalPoset

    def flipped(carrier, base):
        ups = list(carrier.ups)
        ups[0] ^= 1 << (len(ups) - 1)
        return real(FinPoset._trusted(carrier.elements, ups), base)

    total_space.cache_clear()
    monkeypatch.setattr(bundle, "TotalPoset", flipped)
    try:
        report = SUITES["roundtrip-bundle"]()
    finally:
        total_space.cache_clear()  # no flipped space may outlive the test
    assert_caught(report, "total space")


@pytest.mark.parametrize("suite", ["derived", "pack"])
def test_audit_catches_a_wrong_pullback_entry(monkeypatch, suite):
    def wrong(self, base, image):
        objects = {x: self.objects[image[x]] for x in base.elements}
        paths = {(x, y): self._paths[(image[x], image[y])] for x, y in base.leq}
        return self._derive(base, objects, one_wrong_entry(base, paths))

    monkeypatch.setattr(CoverFunctor, "pullback", wrong)
    assert_caught(SUITES[suite](), "trusted functor")


def test_audit_catches_a_wrong_recorded_end(monkeypatch):
    real, first = tower.identity_bordism, []

    def wrong(t):
        b = real(t)
        first.append(t)
        b._ends = {0: t, 1: first[0]}
        return b

    monkeypatch.setattr(tower, "identity_bordism", wrong)
    monkeypatch.setattr(oracles, "identity_bordism", wrong)
    assert_caught(SUITES["derived"](), "recorded end")


def test_audit_rebuilds_an_equal_functor_with_another_path_table():
    chain = chain3_poset()
    d = DeltaDiagram(chain, {"a": 0, "b": 1, "c": 1},
                     {("a", "b"): DeltaMap(0, 1, (0,)), ("b", "c"): DeltaMap.identity(1)})
    wrong = one_wrong_entry(chain, d._paths)
    assert wrong != d._paths
    with audited() as counts:
        d._derive(chain, d.objects, d._paths)
        with pytest.raises(oracles._Disagreement, match="differs from its validating rebuild"):
            d._derive(chain, d.objects, wrong)
    assert counts["layers"] == 1
    assert_restored()


def test_audit_leaves_nothing_behind():
    assert SUITES["homsets"]().is_ok
    assert_restored()
    with pytest.raises(ZeroDivisionError):
        with audited():
            1 / 0
    assert_restored()


def test_pack_outside_a_suite_rebuilds_nothing(monkeypatch):
    calls = []
    real = CoverFunctor.over
    monkeypatch.setattr(CoverFunctor, "over", lambda self, *args: calls.append(self) or real(self, *args))
    towers = [t for t in tower_family(0, 1) if t.depth >= 1][:20]
    for t in towers:
        pack(t)
    assert calls == []
    with audited():
        pack(towers[-1])
    assert calls
