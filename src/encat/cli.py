"""Command-line driver.

Exit codes: 0 success / all checks pass; 1 check failure or round-trip
mismatch; 2 invalid input; 3 construction failure (missing or ambiguous
witness).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import core, monoidal, vcat, vmodule, vstruct
from .core import (
    CheckReport,
    EncatError,
    EngineBugError,
    WitnessError,
    canonical_diff,
    validate_category,
)
from .equiv import (
    bimodule_completion,
    cylinder_to_module,
    cylinder_to_tensored,
    module_to_cylinder,
    tensored_to_cylinder,
)
from .instances import build_instance, parse_instance_name
from .interface import Document, DocumentError, dumps, parse, serialize
from .monoidal import check_closed, check_monoidal, check_symmetry
from .vcat import check_vcategory, underlying_category
from .vmodule import (
    check_closed_bimodule,
    check_closed_module,
    check_tensor_closed,
    check_vmodule,
    comodule_name,
    induced_vstructure,
)
from .vstruct import associated_vcategory, check_cylinder, check_path, check_vstructure

_CHECKER_MODULES = (monoidal, vcat, vstruct, vmodule)
_LAWS = tuple(law for mod in _CHECKER_MODULES for law in mod.LAWS)
_NAMES = {law.name for law in _LAWS}.union(
    core.CHECKS, *(mod.CHECKS for mod in _CHECKER_MODULES))

# every name a checker reports under, the reversed side's under comodule names
KNOWN_LAWS = tuple(sorted(_NAMES | {comodule_name(name) for name in _NAMES}))

# the documented core: the named diagrams of the theory
_CORE = {law.name for law in _LAWS if law.core} | {monoidal.CLOSED_BIJECTION}
LAW_REGISTRY = tuple(sorted(_CORE | {comodule_name(name) for name in _CORE}))

CONSTRUCT_OPS = (
    "underlying", "associated-vcat", "induced-vstructure", "module-to-cylinder",
    "cylinder-to-module", "tensored-to-cylinder", "cylinder-to-tensored",
    "bimodule-complete",
)


def _color_enabled(out) -> bool:
    env = os.environ.get("ENCAT_COLOR")
    if env == "1":
        return True
    if env == "0":
        return False
    return hasattr(out, "isatty") and out.isatty()


def _paint(text: str, code: str, color: bool) -> str:
    if color:
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def run_checks(doc: Document) -> list[CheckReport]:
    """The kind-appropriate checker stack for a parsed document."""
    kind, data = doc.kind, doc.data
    if kind == "fincategory":
        return validate_category(data)
    if kind == "monoidal":
        reports = validate_category(data.base)
        if reports:
            return reports
        reports = check_monoidal(data)
        if not reports and data.symmetry is not None:
            reports += check_symmetry(data)
        if not reports and data.closed is not None:
            reports += check_closed(data)
        return reports
    if kind == "vcategory":
        return check_vcategory(data)
    if kind == "vstructure":
        return check_vstructure(data)
    if kind == "cylinder":
        vs, cyl = data
        return check_vstructure(vs) + check_cylinder(vs, cyl)
    if kind == "path":
        vs, pth = data
        return check_vstructure(vs) + check_path(vs, pth)
    if kind == "vmodule":
        return check_vmodule(data)
    if kind == "tensorclosed":
        return check_tensor_closed(data)
    if kind == "closedmodule":
        return check_closed_module(data)
    if kind == "bimodule":
        return check_closed_bimodule(data)
    raise DocumentError(f"no checker for kind {kind!r}")


def _print_reports(reports: list[CheckReport], fmt: str, out, unselected: int) -> None:
    if fmt == "json":
        records = [{"law": r.law, "site": list(r.site), "lhs": r.lhs, "rhs": r.rhs,
                    "witness_count": r.witness_count, "note": r.note}
                   for r in reports]
        extra = {"unselected": unselected} if unselected else {}
        print(dumps({"reports": records, **extra}), file=out)
        return
    color = _color_enabled(out)
    for r in reports:
        site = "(" + ", ".join(r.site) + ")"
        print(f"{_paint('FAIL', '31', color)} {_paint(r.law, '1', color)} site={site} "
              f"lhs={r.lhs} rhs={r.rhs}", file=out)
    if reports:
        print(f"{len(reports)} failing check(s)", file=out)
    elif unselected:
        print(f"NOT CHECKED: {unselected} failing check(s) outside the selected laws; "
              "the selected laws may not have been evaluated", file=out)
    else:
        print("OK: all checks passed", file=out)


def _construct(doc: Document, op: str) -> Document:
    kind, data = doc.kind, doc.data
    if op == "underlying":
        if kind != "vcategory":
            raise DocumentError("underlying needs a vcategory document")
        _cat, vs = underlying_category(data)
        return Document("vstructure", vs)
    if op == "associated-vcat":
        if kind != "vstructure":
            raise DocumentError("associated-vcat needs a vstructure document")
        return Document("vcategory", associated_vcategory(data))
    if op == "induced-vstructure":
        tc = _as_tensorclosed(doc)
        return Document("vstructure", induced_vstructure(tc))
    if op == "module-to-cylinder":
        tc = _as_tensorclosed(doc)
        return Document("cylinder", module_to_cylinder(tc))
    if op == "cylinder-to-module":
        if kind != "cylinder":
            raise DocumentError("cylinder-to-module needs a cylinder document")
        vs, cyl = data
        return Document("tensorclosed", cylinder_to_module(vs, cyl))
    if op in ("tensored-to-cylinder", "cylinder-to-tensored"):
        # tensor assignments share the cylinder wire format: the coevaluation
        # elements are recomputed from the units, so both ops route through it
        if kind != "cylinder":
            raise DocumentError(f"{op} needs a cylinder document")
        vs, cyl = data
        td = cylinder_to_tensored(vs, cyl)
        back = tensored_to_cylinder(associated_vcategory(vs), td)
        return Document("cylinder", (vs, back))
    if op == "bimodule-complete":
        if kind != "closedmodule":
            raise DocumentError("bimodule-complete needs a closedmodule document")
        return Document("bimodule", bimodule_completion(data))
    raise DocumentError(f"unknown construction {op!r}")


def _as_tensorclosed(doc: Document):
    if doc.kind == "tensorclosed":
        return doc.data
    if doc.kind == "closedmodule":
        return doc.data.tensorClosed
    if doc.kind == "bimodule":
        return doc.data.closedModule.tensorClosed
    raise DocumentError(f"expected a module document, got {doc.kind!r}")


def _roundtrip(doc: Document, pair: str, out) -> int:
    if pair == "module-cylinder":
        want = _as_tensorclosed(doc)
        back = cylinder_to_module(*module_to_cylinder(want))
    elif pair == "cylinder-tensored":
        if doc.kind != "cylinder":
            raise DocumentError("cylinder-tensored round trip needs a cylinder document")
        vs, want = doc.data
        back = tensored_to_cylinder(associated_vcategory(vs), cylinder_to_tensored(vs, want))
    else:
        raise DocumentError(f"unknown round-trip pair {pair!r}")
    diff = canonical_diff(back, want)
    print("equal" if diff is None else f"unequal: {diff}", file=out)
    return 0 if diff is None else 1


def _load(path: str) -> Document:
    with open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read())


def _save(doc: Document, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize(doc))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="encat",
        description="check and transform finite enriched-category documents")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run the kind-appropriate checker")
    p_check.add_argument("file")
    p_check.add_argument("--laws", default=None,
                         help="comma-separated law names to report")
    p_check.add_argument("--format", choices=("text", "json"), default="text")

    p_con = sub.add_parser("construct", help="run a named construction")
    p_con.add_argument("file")
    p_con.add_argument("--op", required=True, choices=CONSTRUCT_OPS)
    p_con.add_argument("-o", "--output", required=True)

    p_rt = sub.add_parser("roundtrip", help="verify a correspondence round trip")
    p_rt.add_argument("file")
    p_rt.add_argument("--pair", required=True,
                      choices=("module-cylinder", "cylinder-tensored"))

    p_inst = sub.add_parser("instance", help="emit a builtin instance")
    p_inst.add_argument("name")
    p_inst.add_argument("-o", "--output", required=True)
    return parser


_PARSER = _build_parser()


def cli(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0

    try:
        if args.command == "check":
            doc = _load(args.file)
            reports = run_checks(doc)
            unselected = 0  # failing checks outside --laws, which may gate the laws in it
            if args.laws is not None:
                wanted = [w.strip() for w in args.laws.split(",") if w.strip()]
                unknown = [w for w in wanted if w not in KNOWN_LAWS]
                if unknown:
                    print(f"unknown law name(s): {', '.join(unknown)}", file=out)
                    print("known laws: " + ", ".join(KNOWN_LAWS), file=out)
                    return 2
                selected = [r for r in reports if r.law in wanted]
                reports, unselected = selected, 0 if selected else len(reports)
            _print_reports(reports, args.format, out, unselected)
            return 1 if reports or unselected else 0

        if args.command == "construct":
            doc = _load(args.file)
            result = _construct(doc, args.op)
            _save(result, args.output)
            print(f"wrote {result.kind} document to {args.output}", file=out)
            return 0

        if args.command == "roundtrip":
            return _roundtrip(_load(args.file), args.pair, out)

        if args.command == "instance":
            spec = parse_instance_name(args.name)
            kind, data = build_instance(spec)
            _save(Document(kind, data), args.output)
            print(f"wrote {kind} document to {args.output}", file=out)
            return 0
    except (DocumentError, OSError) as exc:
        print(f"error: {exc}", file=out)
        return 2
    except WitnessError as exc:
        print(f"construction failed: {exc}", file=out)
        return 3
    except EngineBugError as exc:
        print(f"engine bug: {exc}", file=out)
        return 3
    except EncatError as exc:
        print(f"error: {exc}", file=out)
        return 2
    return 2


def main() -> None:
    raise SystemExit(cli())
