"""Command line surface.

Exit codes: 0 on success, 1 on validation failure, 2 on usage or parse
errors.  Commands that produce a file accept --out; without it the payload
goes to stdout and the report to stderr, so output stays pipeable.
"""

from __future__ import annotations

import argparse
import sys
import time
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


def _listed(lines, counts: dict) -> Report:
    """Print lines, then the ok report of counts, on stdout."""
    for line in lines:
        print(line)
    report = Report.ok(counts)
    print(report.to_text())
    return report


def cmd_validate(args) -> Report:
    return _listed((), _counts_for(load(args.path)))


def cmd_hom(args) -> Report:
    try:
        x = Stratum.parse(args.source)
        y = Stratum.parse(args.target)
    except TrussError as exc:
        raise ParseError(str(exc)) from exc
    maps = hom_strata(x, y)
    return _listed((f"{x} -> {y} via {list(m.underlying.values)}" for m in maps), {"morphisms": len(maps)})


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
    covers = fiber.covers()
    lines = [element_key(el) for el in fiber.elements] + [f"{element_key(u)} < {element_key(v)}" for u, v in covers]
    return _listed(lines, {"objects": len(fiber.elements), "covers": len(covers)})


def cmd_total(args) -> Report:
    obj = load(args.path)
    if not isinstance(obj, DeltaDiagram):
        raise ParseError("total expects a diagram/v1 file")
    carrier = total_space(obj).carrier
    counts = {"elements": len(carrier.elements), "relations": len(carrier.covers())}
    return _listed(map(element_key, carrier.elements), counts)


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


def _converter(expected, message, build, counts=_counts_for, text=dumps):
    """A command that loads one file, checks its type (raising ParseError with
    message), builds from it and delivers the text of the result."""
    def cmd(args) -> Report:
        obj = load(args.path)
        if not isinstance(obj, expected):
            raise ParseError(message)
        result = build(obj)
        report = Report.ok(counts(result))
        return _deliver(text(result), args.out, report)
    return cmd


cmd_pack = _converter(TrussTower, "pack expects a truss/v1 file", pack)
cmd_unpack = _converter(PackedTower, "unpack expects a packed/v1 file", unpack)
cmd_realize = _converter(DeltaDiagram, "realize expects a diagram/v1 file", realize_bundle)
cmd_render = _converter(TrussTower, "render expects a truss/v1 file", layout_2truss,
                        lambda scene: scene.counts, scene_to_svg)


def cmd_oracle(args) -> Report:
    """Run the named suites (all, sorted, if none): each report on stdout
    after "== NAME", its wall time on stderr, so stdout stays deterministic."""
    names = args.suites or sorted(SUITES)
    unknown = ", ".join(repr(n) for n in names if n not in SUITES)
    if unknown:
        raise ParseError(f"unknown suite(s) {unknown}; known suites: {', '.join(sorted(SUITES))}")
    if args.max_ordinal is not None and args.max_ordinal < 0:
        raise ParseError(f"--max-ordinal must be nonnegative, got {args.max_ordinal}")
    failed = []
    for name in names:
        start = time.perf_counter()
        report = SUITES[name](max_ordinal=args.max_ordinal, seed=args.seed)
        print(f"== {name}\n{report.to_text()}")
        print(f"{name}: {time.perf_counter() - start:.2f} s", file=sys.stderr)
        if not report.is_ok:
            failed.append(name)
    if not failed:
        print(f"all {len(names)} suite(s) ok")
        return Report.ok()
    print(f"FAILED: {', '.join(failed)}", file=sys.stderr)
    return Report.failure("oracle", "a suite failed")


# (name, help, arguments, function) of each subcommand, in --help order
_COMMANDS = (
    ("validate", "run the full invariant suite of a file", ("path",), cmd_validate),
    ("hom", "list stratum morphisms, e.g. hom s0@1 r1@2", ("source", "target"), cmd_hom),
    ("fiber", "print the fiber over an ordinal (2) or a map (0,2@2)", ("over",), cmd_fiber),
    ("total", "print the total space of a diagram file", ("path",), cmd_total),
    ("compose", "compose two bordism files", ("first", "second", "--out"), cmd_compose),
    ("pack", "trade the last stage for truss-valued labels", ("path", "--out"), cmd_pack),
    ("unpack", "inverse of pack", ("path", "--out"), cmd_unpack),
    ("realize", "realize a diagram file as a PL mesh bundle", ("path", "--out"), cmd_realize),
    ("render", "render a depth-2 truss file as SVG", ("path", "--out"), cmd_render),
    ("oracle", "run the named brute-force suites, or all", ("suites", "--max-ordinal", "--seed"), cmd_oracle),
)
_ARGUMENT_OPTIONS = {"suites": {"nargs": "*", "metavar": "SUITE"}, "--max-ordinal": {"type": int},
                     "--seed": {"type": int}}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trusskit",
        description="Construct, validate, compose, pack and lay out labelled trusses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, arguments, func in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for arg in arguments:
            p.add_argument(arg, **_ARGUMENT_OPTIONS.get(arg, {}))
        p.set_defaults(func=func)
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
