"""Exercise every subcommand through main(); exit codes are the contract."""

import importlib.util
import json
from pathlib import Path

import pytest

from trusskit import (
    DeltaDiagram,
    DeltaMap,
    Ordinal,
    arrow_poset,
    constant_inclusion,
    dumps,
    load,
    parse,
    save,
)
from trusskit.cli import main


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


@pytest.mark.parametrize("literal", ["0,5@2", "2,1@3", "0@-1", "0,-1@2"])
def test_fiber_invalid_map_literal_is_a_parse_error(literal, capsys):
    assert main(["fiber", literal]) == 2
    assert "bad map literal" in capsys.readouterr().err


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


def test_run_oracles_script_refuses_negative_max_ordinal(capsys):
    path = Path(__file__).resolve().parent.parent / "scripts" / "run_oracles.py"
    spec = importlib.util.spec_from_file_location("run_oracles", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    with pytest.raises(SystemExit) as err:
        script.main(["homsets", "--max-ordinal", "-1"])
    assert err.value.code == 2
    assert "--max-ordinal must be nonnegative" in capsys.readouterr().err


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
