"""Command line surface.

Exit codes: 0 on success, 1 on validation failure, 2 on usage or parse
errors.  Commands that produce a file accept --out; without it the payload
goes to stdout and the report to stderr, so output stays pipeable.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import DomainError, ParseError, TrussError
from .ordinal import DeltaMap, Ordinal
from .strata import Stratum, fiber_over_map, fiber_over_ordinal, hom_strata
from .bundle import DeltaDiagram, LabelCategory, total_space
from .tower import Bordism, PackedTower, TrussTower, compose_bordisms_audited, pack, unpack
from .mesh import PLMeshBundle, realize_bundle
from .layout import layout_2truss, scene_to_svg
from .report import Report
from .serialize import dumps, element_key, load
from .oracles import SUITES


def _deliver(text: str, out, report: Report) -> Report:
    if out:
        Path(out).write_text(text, encoding="utf-8")
        print(report.to_text())
    else:
        sys.stdout.write(text)
        print(report.to_text(), file=sys.stderr)
    return report


def _counts_for(obj) -> dict:
    if isinstance(obj, PackedTower):
        inner = _counts_for(obj.tower)
        inner["packed"] = 1
        return inner
    if isinstance(obj, TrussTower):
        return {
            "depth": obj.depth,
            "elements": len(obj.top.elements),
            "relations": len(obj.top.covers()),
            "labels": len(obj.labels.on_objects) + len(obj.labels.on_relations),
        }
    if isinstance(obj, DeltaDiagram):
        carrier = total_space(obj).carrier
        return {
            "base_elements": len(obj.base.elements),
            "elements": len(carrier.elements),
            "relations": len(carrier.covers()),
        }
    if isinstance(obj, LabelCategory):
        return {"objects": len(obj.objects), "morphisms": len(obj.morphisms)}
    if isinstance(obj, PLMeshBundle):
        return {
            "vertices": len(obj.base.elements),
            "covers": len(obj.base.covers()),
            "sheets": sum(len(h.heights) - 2 for h in obj.heights.values()),
        }
    raise ParseError(f"no validator for {type(obj).__name__}")


def cmd_validate(args) -> Report:
    report = Report.ok(_counts_for(load(args.path)))
    print(report.to_text())
    return report


def cmd_hom(args) -> Report:
    try:
        x = Stratum.parse(args.source)
        y = Stratum.parse(args.target)
    except TrussError as exc:
        raise ParseError(str(exc)) from exc
    maps = hom_strata(x, y)
    for m in maps:
        print(f"{x} -> {y} via {list(m.underlying.values)}")
    report = Report.ok({"morphisms": len(maps)})
    print(report.to_text())
    return report


def _parse_map_literal(text: str) -> DeltaMap:
    try:
        values_text, dst_text = text.split("@")
        values = tuple(int(v) for v in values_text.split(","))
        return DeltaMap(Ordinal(len(values) - 1), Ordinal(int(dst_text)), values)
    except (ValueError, IndexError) as exc:
        raise ParseError(f"bad map literal {text!r}, expected e.g. '0,2@2'") from exc
    except DomainError as exc:
        raise ParseError(f"bad map literal {text!r}: {exc}") from exc


def cmd_fiber(args) -> Report:
    literal = args.over
    if "@" in literal:
        fiber = fiber_over_map(_parse_map_literal(literal))
    else:
        try:
            n = int(literal)
        except ValueError as exc:
            raise ParseError(f"bad fiber argument {literal!r}: give an ordinal or a map literal") from exc
        if n < 0:
            raise ParseError("fiber ordinal must be nonnegative")
        fiber = fiber_over_ordinal(n)
    for el in fiber.elements:
        print(element_key(el))
    for (u, v) in fiber.covers():
        print(f"{element_key(u)} < {element_key(v)}")
    report = Report.ok({"objects": len(fiber.elements), "covers": len(fiber.covers())})
    print(report.to_text())
    return report


def cmd_total(args) -> Report:
    obj = load(args.path)
    if not isinstance(obj, DeltaDiagram):
        raise ParseError("total expects a diagram/v1 file")
    carrier = total_space(obj).carrier
    for el in carrier.elements:
        print(element_key(el))
    report = Report.ok({"elements": len(carrier.elements), "relations": len(carrier.covers())})
    print(report.to_text())
    return report


def _load_bordism(path) -> Bordism:
    obj = load(path)
    if not isinstance(obj, Bordism):
        raise ParseError(f"{path} is not a bordism file")
    return obj


def cmd_compose(args) -> Report:
    b1 = _load_bordism(args.first)
    b2 = _load_bordism(args.second)
    composite, audit = compose_bordisms_audited(b1, b2)
    report = Report.ok(
        {"crossings": audit.crossings, "alternatives": audit.alternatives},
        [("audit", "all factorization choices agree")],
    )
    return _deliver(dumps(composite), args.out, report)


def cmd_pack(args) -> Report:
    obj = load(args.path)
    if not isinstance(obj, TrussTower):
        raise ParseError("pack expects a truss/v1 file")
    packed = pack(obj)
    report = Report.ok(_counts_for(packed))
    return _deliver(dumps(packed), args.out, report)


def cmd_unpack(args) -> Report:
    obj = load(args.path)
    if not isinstance(obj, PackedTower):
        raise ParseError("unpack expects a packed/v1 file")
    tower = unpack(obj)
    report = Report.ok(_counts_for(tower))
    return _deliver(dumps(tower), args.out, report)


def cmd_realize(args) -> Report:
    obj = load(args.path)
    if not isinstance(obj, DeltaDiagram):
        raise ParseError("realize expects a diagram/v1 file")
    mesh = realize_bundle(obj)
    report = Report.ok(_counts_for(mesh))
    return _deliver(dumps(mesh), args.out, report)


def cmd_render(args) -> Report:
    obj = load(args.path)
    if not isinstance(obj, TrussTower):
        raise ParseError("render expects a truss/v1 file")
    scene = layout_2truss(obj)
    report = Report.ok(scene.counts)
    return _deliver(scene_to_svg(scene), args.out, report)


def cmd_oracle(args) -> Report:
    fn = SUITES.get(args.suite)
    if fn is None:
        known = ", ".join(sorted(SUITES))
        raise ParseError(f"unknown suite {args.suite!r}; known suites: {known}")
    if args.max_ordinal is not None and args.max_ordinal < 0:
        raise ParseError(f"--max-ordinal must be nonnegative, got {args.max_ordinal}")
    report = fn(max_ordinal=args.max_ordinal, seed=args.seed)
    print(report.to_text())
    return report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trusskit",
        description="Construct, validate, compose, pack and lay out labelled trusses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="run the full invariant suite of a file")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("hom", help="list stratum morphisms, e.g. hom s0@1 r1@2")
    p.add_argument("source")
    p.add_argument("target")
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("fiber", help="print the fiber over an ordinal (2) or a map (0,2@2)")
    p.add_argument("over")
    p.set_defaults(func=cmd_fiber)

    p = sub.add_parser("total", help="print the total space of a diagram file")
    p.add_argument("path")
    p.set_defaults(func=cmd_total)

    p = sub.add_parser("compose", help="compose two bordism files")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--out")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("pack", help="trade the last stage for truss-valued labels")
    p.add_argument("path")
    p.add_argument("--out")
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("unpack", help="inverse of pack")
    p.add_argument("path")
    p.add_argument("--out")
    p.set_defaults(func=cmd_unpack)

    p = sub.add_parser("realize", help="realize a diagram file as a PL mesh bundle")
    p.add_argument("path")
    p.add_argument("--out")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("render", help="render a depth-2 truss file as SVG")
    p.add_argument("path")
    p.add_argument("--out")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("oracle", help="run a brute-force enumeration suite")
    p.add_argument("suite")
    p.add_argument("--max-ordinal", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrussError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if report.is_ok else 1


if __name__ == "__main__":
    sys.exit(main())
