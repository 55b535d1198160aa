"""The routes that install maps unchecked (MonotoneMap._trusted and
StratumMap._trusted) give the values the validating constructors give.
Every route that was refused before is refused still, with a DomainError,
and an argument that is no map of the entry point's classes, a look-alike
with the same fields included, is refused by its type."""

import copy
from dataclasses import FrozenInstanceError, fields
import json
import pickle
from types import SimpleNamespace as Like

import pytest

from trusskit import (
    DeltaMap,
    DomainError,
    NablaMap,
    Ordinal,
    Stratum,
    StratumMap,
    compose_delta,
    compose_nabla,
    compose_strata,
    dual_delta_to_nabla,
    dual_nabla_to_delta,
    enumerate_delta_maps,
    enumerate_nabla_maps,
    hom_strata,
)
from trusskit.cli import main
from trusskit.oracles import audited


@pytest.mark.parametrize("call, message", [
    (lambda: NablaMap.identity(0), "interval maps need ordinals"),
    (lambda: dual_nabla_to_delta(DeltaMap(1, 1, (0, 0))), "dual_nabla_to_delta needs an interval map, got DeltaMap"),
    (lambda: compose_nabla(DeltaMap(1, 1, (0, 0)), NablaMap.identity(1)),
     "compose_nabla needs two interval maps, got DeltaMap and NablaMap"),
    (lambda: DeltaMap(1, 2, (2, 0)), "not weakly increasing"),
    (lambda: DeltaMap(1, 0, (0, 1)), r"value 1 outside \[0\]"),
    (lambda: compose_delta(DeltaMap(0, 1, (1,)), DeltaMap(2, 2, (0, 1, 2))), "middle ordinals differ"),
    (lambda: StratumMap(Stratum.regular(0, 1), Stratum.regular(1, 1), DeltaMap.identity(1)), "carries no morphism"),
    (lambda: hom_strata("r0@1", Stratum.regular(0, 1)), "needs two strata"),
    (lambda: compose_nabla(NablaMap.identity(1), NablaMap.identity(2)), r"\(interval\): middle ordinals differ"),
    (lambda: enumerate_nabla_maps(0, 1), r"interval maps need ordinals \[n\] with n >= 1"),
])
def test_refusals_stay(call, message):
    with pytest.raises(DomainError, match=message):
        call()


# a map-like argument that is no map of the entry point's classes is refused by its type, valid or not;
# rebuilt through the checking constructor, an invalid one is refused by its values
@pytest.mark.parametrize("call, message", [
    (lambda: compose_delta(Like(src=Ordinal(1), dst=Ordinal(1), values=(1, 0)), DeltaMap.identity(1)),
     "compose_delta needs two maps, got SimpleNamespace and DeltaMap"),
    pytest.param(lambda: compose_delta(Like(src=Ordinal(1), dst=Ordinal(1), values=(0, 1)), DeltaMap.identity(1)),
                 "compose_delta needs two maps, got SimpleNamespace and DeltaMap", id="a valid look-alike"),
    (lambda: dual_delta_to_nabla(Like(src=Ordinal(0), dst=Ordinal(1), values=(5,))),
     "dual_delta_to_nabla needs a map, got SimpleNamespace"),
    (lambda: compose_strata(Like(src=Stratum.regular(0, 1), dst=Stratum.regular(1, 1), underlying=DeltaMap.identity(1)),
                            hom_strata(Stratum.regular(1, 1), Stratum.regular(1, 1))[0]),
     "compose_strata needs two stratum maps, got namespace"),
    (lambda: StratumMap(**vars(Like(src=Stratum.regular(0, 1), dst=Stratum.regular(1, 1),
                                    underlying=DeltaMap.identity(1)))), "carries no morphism"),
    pytest.param(lambda: compose_nabla(DeltaMap(1, 1, (0, 1)), NablaMap.identity(1)),
                 "compose_nabla needs two interval maps, got DeltaMap and NablaMap",
                 id="an endpoint-preserving DeltaMap"),
])
def test_map_likes_are_refused(call, message):
    with pytest.raises(DomainError, match=message):
        call()


def test_a_non_monotone_diagram_file_is_a_parse_error(tmp_path, capsys):
    payload = {
        "schema": "diagram/v1",
        "base": {"elements": ["0", "1"], "covers": [["0", "1"]]},
        "ord": {"0": 1, "1": 2},
        "arrow": {"0->1": {"src": 1, "dst": 2, "values": [2, 0]}},
    }
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps(payload))
    assert main(["validate", str(path)]) == 2
    assert "not weakly increasing" in capsys.readouterr().err


F, G = DeltaMap(1, 2, (0, 2)), DeltaMap(2, 1, (0, 1, 1))
S, T = NablaMap(2, 3, (0, 1, 3)), NablaMap(3, 2, (0, 0, 1, 2))
X, Y, Z = Stratum.singular(0, 1), Stratum.regular(1, 2), Stratum.regular(0, 1)

# one call of each route that installs unchecked
ROUTES = {
    "compose_delta": lambda: compose_delta(F, G),
    "compose_nabla": lambda: compose_nabla(S, T),
    "DeltaMap.identity(0)": lambda: DeltaMap.identity(0),
    "DeltaMap.identity(3)": lambda: DeltaMap.identity(3),
    "NablaMap.identity": lambda: NablaMap.identity(2),
    "enumerate_delta_maps": lambda: enumerate_delta_maps(2, 3)[7],
    "enumerate_nabla_maps": lambda: enumerate_nabla_maps(3, 2)[1],
    "dual_delta_to_nabla": lambda: dual_delta_to_nabla(F),
    "dual_nabla_to_delta": lambda: dual_nabla_to_delta(S),
    "hom_strata": lambda: hom_strata(X, Y)[2],
    "compose_strata": lambda: compose_strata(hom_strata(X, Y)[1], hom_strata(Y, Z)[0]),
}


def rebuilt(m):
    if isinstance(m, StratumMap):
        return StratumMap(m.src, m.dst, rebuilt(m.underlying))
    return type(m)(m.src.n, m.dst.n, list(m.values))


@pytest.mark.parametrize("route", ROUTES)
def test_a_trusted_map_is_its_validated_rebuild(route):
    made = ROUTES[route]()
    again = rebuilt(made)
    assert made == again and hash(made) == hash(again) and str(made) == str(again)
    assert type(made) is type(again)
    for value in (made, again):  # by both routes: copied alike, slotted and frozen
        for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert copied == again and hash(copied) == hash(again) and str(copied) == str(again)
        assert not hasattr(value, "__dict__")
        for field in fields(value):
            with pytest.raises(FrozenInstanceError):
                setattr(value, field.name, 0)


@pytest.mark.parametrize("route", ROUTES)
def test_each_route_installs_through_the_audited_point(route):
    with audited() as counts:
        ROUTES[route]()
    assert counts["map_checks"] > 0


def test_a_copy_is_rebuilt_through_the_checking_constructor():
    # unpickling a map whose fields break the constructor's checks refuses it
    bad = DeltaMap._trusted(Ordinal(1), Ordinal(1), (1, 0))
    with pytest.raises(DomainError, match="not weakly increasing"):
        copy.copy(bad)


class UnslottedUnhashableMap(DeltaMap):
    __hash__ = None


def test_a_subclass_without_slots_still_works():
    f = UnslottedUnhashableMap(1, 1, (0, 1))
    assert (f.src, f.dst, f.values) == (Ordinal(1), Ordinal(1), (0, 1)) and f.__dict__ == {}
    assert type(copy.deepcopy(f)) is UnslottedUnhashableMap and copy.copy(f) == f
    with pytest.raises(TypeError, match="unhashable"):
        hash(f)
