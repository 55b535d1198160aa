"""Exercise every subcommand through main(); exit codes are the contract."""

import json
import re

import pytest

from trusskit import (
    DeltaDiagram,
    DeltaMap,
    Ordinal,
    Report,
    arrow_poset,
    constant_inclusion,
    dumps,
    load,
    pack,
    parse,
    save,
)
from trusskit import cli
from trusskit.cli import main
from trusskit.oracles import tower_family


@pytest.fixture
def truss_file(tmp_path, single_node):
    path = tmp_path / "truss.json"
    save(single_node, path)
    return path


@pytest.fixture
def diagram_file(tmp_path):
    d = DeltaDiagram(
        arrow_poset(),
        {"0": Ordinal(1), "1": Ordinal(2)},
        {("0", "1"): DeltaMap(1, 2, (0, 2))},
    )
    path = tmp_path / "diagram.json"
    save(d, path)
    return path


@pytest.fixture
def labelcat_file(tmp_path, chain_cat):
    path = tmp_path / "labelcat.json"
    save(chain_cat, path)
    return path


@pytest.fixture
def bordism_files(tmp_path, chain_cat):
    b1 = constant_inclusion([DeltaMap(1, 1, (0, 0))], "a<=b", chain_cat)
    b2 = constant_inclusion([DeltaMap(1, 1, (0, 1))], "b<=c", chain_cat)
    p1, p2 = tmp_path / "b1.json", tmp_path / "b2.json"
    save(b1, p1)
    save(b2, p2)
    return p1, p2


def test_validate_ok(truss_file, capsys):
    assert main(["validate", str(truss_file)]) == 0
    out = capsys.readouterr().out
    assert "status: ok" in out
    assert "count depth: 2" in out


@pytest.mark.parametrize("fixture, counts", [
    ("diagram_file", "count base_elements: 2\ncount elements: 8\ncount relations: 10\n"),
    ("labelcat_file", "count morphisms: 6\ncount objects: 3\n"),
])
def test_validate_counts_a_diagram_and_a_label_category(request, fixture, counts, capsys):
    assert main(["validate", str(request.getfixturevalue(fixture))]) == 0
    assert capsys.readouterr().out == "status: ok\n" + counts


def test_validate_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_validate_corrupt_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{]")
    assert main(["validate", str(path)]) == 2


def test_hom_lists_morphisms(capsys):
    assert main(["hom", "s0@1", "r1@2"]) == 0
    out = capsys.readouterr().out
    assert out.count("via") == 4
    assert "count morphisms: 4" in out


def test_hom_empty_regular_to_singular(capsys):
    assert main(["hom", "r0@1", "s0@1"]) == 0
    assert "count morphisms: 0" in capsys.readouterr().out


def test_hom_bad_literal(capsys):
    assert main(["hom", "q0@1", "r1@2"]) == 2


def test_fiber_over_ordinal(capsys):
    assert main(["fiber", "2"]) == 0
    out = capsys.readouterr().out
    assert "count objects: 5" in out
    assert "count covers: 4" in out
    assert "s0" in out and "r2" in out


def test_fiber_over_map(capsys):
    assert main(["fiber", "0,2@2"]) == 0
    out = capsys.readouterr().out
    assert "count objects: 8" in out


def test_fiber_bad_argument(capsys):
    assert main(["fiber", "x"]) == 2
    assert main(["fiber", "0,2@"]) == 2
    capsys.readouterr()
    assert main(["fiber", "-1"]) == 2
    assert capsys.readouterr().err == "error: fiber ordinal must be nonnegative\n"


@pytest.mark.parametrize("literal", ["0,5@2", "2,1@3", "0@-1", "0,-1@2"])
def test_fiber_invalid_map_literal_is_a_parse_error(literal, capsys):
    assert main(["fiber", literal]) == 2
    assert "bad map literal" in capsys.readouterr().err


def test_hom_past_the_machine_size_is_refused(capsys):
    assert main(["hom", "s0@3", "r0@99999999999999999999"]) == 1
    assert capsys.readouterr().err == "error: hom(s0@3, r0@99999999999999999999) is too large to enumerate\n"


@pytest.mark.parametrize("over", ["99999999999999999999", "0@99999999999999999999"])
def test_fiber_past_the_machine_size_is_refused(over, capsys):
    assert main(["fiber", over]) == 1
    assert capsys.readouterr().err == "error: the fiber over [99999999999999999999] is too large to enumerate\n"


@pytest.mark.parametrize("packed", [False, True], ids=["truss/v1", "packed/v1"])
def test_validate_refuses_a_stage_ordinal_past_the_machine_size(tmp_path, single_node, packed, capsys):
    payload = json.loads(dumps(pack(single_node) if packed else single_node))
    payload["stages"][0]["ord"]["pt"] = 10 ** 30
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(payload))
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == f"error: the identity on [{10 ** 30}] is too large to build\n"


def test_hom_negative_ambient_is_a_parse_error():
    assert main(["hom", "r0@-1", "r0@1"]) == 2


def test_total(diagram_file, capsys):
    assert main(["total", str(diagram_file)]) == 0
    out = capsys.readouterr().out
    assert "count elements: 8" in out


def test_total_rejects_truss_file(truss_file, capsys):
    assert main(["total", str(truss_file)]) == 2


def test_total_rejects_non_object_arrow_table(tmp_path, capsys):
    path = tmp_path / "bad_diagram.json"
    path.write_text(json.dumps({
        "schema": "diagram/v1",
        "base": {"elements": ["pt"], "covers": []},
        "ord": {"pt": 1},
        "arrow": [],
    }))
    assert main(["total", str(path)]) == 2
    assert "expected an object" in capsys.readouterr().err


def test_validate_rejects_non_list_label_objects(tmp_path, single_node, capsys):
    payload = json.loads(dumps(single_node))
    payload["labels"]["category"]["objects"] = 5
    path = tmp_path / "bad_truss.json"
    path.write_text(json.dumps(payload))
    assert main(["validate", str(path)]) == 2
    assert "expected a list" in capsys.readouterr().err


def square_mesh_payload(attach_cd):
    """A mesh/v1 file over the square a < b < d, a < c < d; every cover
    attaches by the identity except (c, d), which attaches by attach_cd."""
    identity = {"src": 2, "dst": 2, "values": [0, 1, 2]}
    return {
        "schema": "mesh/v1",
        "base": {"elements": ["a", "b", "c", "d"], "covers": [["a", "b"], ["a", "c"], ["b", "d"], ["c", "d"]]},
        "heights": {v: ["-1", "0", "1"] for v in "abcd"},
        "sing": {
            "a->b": identity,
            "a->c": identity,
            "b->d": identity,
            "c->d": {"src": 2, "dst": 2, "values": attach_cd},
        },
    }


def test_validate_rejects_non_functorial_mesh(tmp_path, capsys):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(square_mesh_payload([0, 1, 2])))
    assert main(["validate", str(path)]) == 0
    path.write_text(json.dumps(square_mesh_payload([0, 0, 2])))
    assert main(["validate", str(path)]) == 1
    assert "disagree" in capsys.readouterr().err


@pytest.mark.parametrize("schema", ["diagram/v1", "mesh/v1"])
def test_validate_refuses_a_cyclic_base_as_a_parse_error(tmp_path, schema, capsys):
    path = tmp_path / "cycle.json"
    base = {"elements": ["a", "b"], "covers": [["a", "b"], ["b", "a"]]}
    path.write_text(json.dumps({"schema": schema, "base": base}))
    assert main(["validate", str(path)]) == 2
    where = schema.partition("/")[0]
    assert capsys.readouterr().err == f"error: {where}: cover relation has a cycle through 'a'\n"


def test_validate_rejects_exponent_heights(tmp_path, capsys):
    # Fraction would expand the power of ten and never return
    payload = square_mesh_payload([0, 1, 2])
    payload["heights"]["b"][1] = "1e999999999"
    path = tmp_path / "square.json"
    path.write_text(json.dumps(payload))
    assert main(["validate", str(path)]) == 2
    assert "bad rational" in capsys.readouterr().err


def test_compose_to_stdout(bordism_files, capsys):
    p1, p2 = bordism_files
    assert main(["compose", str(p1), str(p2)]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["schema"] == "truss/v1"
    assert "count crossings: 3" in captured.err
    assert "all factorization choices agree" in captured.err


def test_compose_to_file(bordism_files, tmp_path, capsys):
    p1, p2 = bordism_files
    out = tmp_path / "composite.json"
    assert main(["compose", str(p1), str(p2), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "status: ok" in captured.out
    from trusskit import Stratum

    composite = load(out)
    assert composite.labels.on_objects[("0", Stratum.regular(0, 1))] == "a"


def test_compose_boundary_mismatch(tmp_path, chain_cat, capsys):
    b1 = constant_inclusion([DeltaMap(1, 2, (0, 2))], "a<=b", chain_cat)
    b2 = constant_inclusion([DeltaMap(1, 1, (0, 1))], "b<=c", chain_cat)
    p1, p2 = tmp_path / "x.json", tmp_path / "y.json"
    save(b1, p1)
    save(b2, p2)
    assert main(["compose", str(p1), str(p2)]) == 1
    assert "error" in capsys.readouterr().err


def test_compose_rejects_plain_truss(truss_file, bordism_files):
    p1, _ = bordism_files
    assert main(["compose", str(truss_file), str(p1)]) == 2


def test_pack_unpack_cycle(truss_file, tmp_path, capsys):
    packed_path = tmp_path / "packed.json"
    assert main(["pack", str(truss_file), "--out", str(packed_path)]) == 0
    assert "count packed: 1" in capsys.readouterr().out
    unpacked_path = tmp_path / "unpacked.json"
    assert main(["unpack", str(packed_path), "--out", str(unpacked_path)]) == 0
    capsys.readouterr()
    assert unpacked_path.read_text() == truss_file.read_text()


def test_unpack_rejects_generator_that_is_not_a_bordism(tmp_path, capsys):
    # a cover label replaced by a fiber truss, which lives over the point
    t = next(t for t in tower_family(0, 1) if t.depth == 2 and t.stages[-1].base.covers())
    obj = json.loads(dumps(pack(t)))
    obj["relations"]["pt.s0->pt.r0"] = obj["objects"]["pt.r0"]
    path = tmp_path / "packed.json"
    path.write_text(json.dumps(obj))
    for command in ("validate", "unpack"):
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert "a generator is not a bordism" in captured.out + captured.err


def test_pack_rejects_diagram(diagram_file):
    assert main(["pack", str(diagram_file)]) == 2


def test_unpack_rejects_truss(truss_file):
    assert main(["unpack", str(truss_file)]) == 2


def test_realize(diagram_file, tmp_path, capsys):
    out = tmp_path / "mesh.json"
    assert main(["realize", str(diagram_file), "--out", str(out)]) == 0
    assert "count sheets: 3" in capsys.readouterr().out
    mesh_payload = json.loads(out.read_text())
    assert mesh_payload["schema"] == "mesh/v1"
    assert mesh_payload["heights"]["1"] == ["-1", "-1/3", "1/3", "1"]


def test_render(truss_file, tmp_path, capsys):
    out = tmp_path / "scene.svg"
    assert main(["render", str(truss_file), "--out", str(out)]) == 0
    assert "count nodes: 1" in capsys.readouterr().out
    svg = out.read_text()
    assert svg.startswith('<?xml version="1.0"')
    # byte determinism across a second run
    out2 = tmp_path / "scene2.svg"
    assert main(["render", str(truss_file), "--out", str(out2)]) == 0
    assert out2.read_text() == svg


def test_render_rejects_depth_one(tmp_path, chain_cat):
    t = constant_inclusion([1], "a", chain_cat)
    path = tmp_path / "shallow.json"
    save(t, path)
    assert main(["render", str(path)]) == 1


def test_oracle_known_suite(capsys):
    assert main(["oracle", "homsets", "--max-ordinal", "2"]) == 0
    out = capsys.readouterr().out
    assert "status: ok" in out


def test_oracle_unknown_suite(capsys):
    assert main(["oracle", "everything"]) == 2
    assert "known suites" in capsys.readouterr().err


def test_oracle_negative_max_ordinal(capsys):
    for suite in ("pack", "homsets"):
        assert main(["oracle", suite, "--max-ordinal", "-1"]) == 2
        captured = capsys.readouterr()
        assert "--max-ordinal must be nonnegative, got -1" in captured.err
        assert "status" not in captured.out


def _stub_suites(monkeypatch, failing=()):
    """Replace the CLI's suites by stubs b, a, c that record their calls."""
    ran = []

    def suite(name):
        def run(max_ordinal=None, seed=None):
            ran.append((name, max_ordinal, seed))
            return Report.failure(name, "stub failure") if name in failing else Report.ok({"runs": 1})
        return run

    monkeypatch.setattr(cli, "SUITES", {n: suite(n) for n in "bac"})
    return ran


def test_oracle_runs_every_suite_in_sorted_order_by_default(monkeypatch, capsys):
    ran = _stub_suites(monkeypatch)
    assert main(["oracle", "--seed", "1"]) == 0
    assert ran == [("a", None, 1), ("b", None, 1), ("c", None, 1)]
    captured = capsys.readouterr()
    assert captured.out == "".join(f"== {n}\nstatus: ok\ncount runs: 1\n" for n in "abc") + "all 3 suite(s) ok\n"
    # wall times go to stderr, so stdout stays byte-deterministic
    assert re.fullmatch(r"a: \d+\.\d\d s\nb: \d+\.\d\d s\nc: \d+\.\d\d s\n", captured.err)


def test_oracle_runs_two_suites_in_the_order_given(capsys):
    outs = []
    for _ in range(2):
        assert main(["oracle", "homsets", "factorization", "--max-ordinal", "1"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    out = outs[0]
    assert out.startswith("== homsets\nstatus: ok\n") and out.count("status: ok") == 2
    assert out.index("== homsets") < out.index("== factorization")
    assert out.endswith("all 2 suite(s) ok\n")


def test_oracle_failing_suite_exits_one_and_the_rest_still_run(monkeypatch, capsys):
    ran = _stub_suites(monkeypatch, failing=("a", "c"))
    assert main(["oracle", "c", "b", "a"]) == 1
    assert [name for name, _, _ in ran] == ["c", "b", "a"]
    captured = capsys.readouterr()
    assert "note c: stub failure" in captured.out and "== b\nstatus: ok" in captured.out
    assert "suite(s) ok" not in captured.out
    assert captured.err.endswith("FAILED: c, a\n")


def test_oracle_factorization_reports_cone_misses(capsys):
    assert main(["oracle", "factorization", "--max-ordinal", "2"]) == 0
    out = capsys.readouterr().out
    assert "count cone_missing: 42" in out
    assert "reported, not asserted" in out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_report_shape():
    from trusskit import DomainError, Report

    r = Report.ok({"things": 3})
    assert r.is_ok
    text = r.to_text()
    assert text.splitlines()[0] == "status: ok"
    assert "count things: 3" in text
    bad = Report.failure("here", "broke", {})
    assert not bad.is_ok
    assert "note here: broke" in bad.to_text()
    with pytest.raises(DomainError):
        Report("error", [], {})  # failures need a diagnostic
