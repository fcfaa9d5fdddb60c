"""Command-line driver.

Exit codes: 0 success / all checks pass; 1 check failure or round-trip
mismatch; 2 invalid input, which is also what ``construct`` and ``roundtrip``
print when they fail on input ``check`` flags (``_built``); 3 construction
failure on input ``check`` passes (missing or ambiguous witness).
Every ``CHECKERS`` row is one library call, which judges the document's
base V first (:func:`~encat.monoidal.check_v`).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import core, equiv, instances, monoidal, vcat, vmodule, vstruct
from .core import (CheckReport, EncatError, EngineBugError, LawFailureError, WitnessError,
                   canonical_diff)
from .interface import Document, DocumentError, ParseError, dumps, parse, serialize

_CHECKER_MODULES = (monoidal, vcat, vstruct, vmodule)
_LAWS = tuple(law for mod in _CHECKER_MODULES for law in mod.LAWS)
_NAMES = {law.name for law in _LAWS}.union(
    core.CHECKS, *(mod.CHECKS for mod in _CHECKER_MODULES))

# every name a checker reports under, the reversed side's under comodule names
KNOWN_LAWS = tuple(sorted(_NAMES | {vmodule.comodule_name(name) for name in _NAMES}))

# the documented core: the named diagrams of the theory
_CORE = {law.name for law in _LAWS if law.core} | {monoidal.CLOSED_BIJECTION}
LAW_REGISTRY = tuple(sorted(_CORE | {vmodule.comodule_name(name) for name in _CORE}))


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


# The table rows look functions up on their modules when they run, so that a
# function rebound there (perfbench's --trace wrappers) is the one called.

# kind -> the checker stack of its documents
CHECKERS = {
    "fincategory": lambda cat: core.validate_category(cat),
    "monoidal": lambda m: monoidal.check_v(m),
    "vcategory": lambda vc: vcat.check_vcategory(vc),
    "vstructure": lambda vs: vstruct.check_vstructure(vs),
    "cylinder": lambda data: vstruct.check_cylinder(*data),
    "path": lambda data: vstruct.check_path(*data),
    "vmodule": lambda mod: vmodule.check_vmodule(mod),
    "tensorclosed": lambda tc: vmodule.check_tensor_closed(tc),
    "closedmodule": lambda cm: vmodule.check_closed_module(cm),
    "bimodule": lambda bm: vmodule.check_closed_bimodule(bm),
}


def run_checks(doc: Document) -> list[CheckReport]:
    """The kind-appropriate checker stack for a parsed document."""
    return CHECKERS[doc.kind](doc.data)


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


def _same(data):
    return data


# a module document's tensor-closed module, read off any of the three kinds
_MODULE = {"tensorclosed": _same,
           "closedmodule": lambda data: data.tensorClosed,
           "bimodule": lambda data: data.closedModule.tensorClosed}
_CYLINDER = {"cylinder": _same}


def _through_tensored(data):
    # tensor assignments share the cylinder wire format: the coevaluation
    # elements are recomputed from the units, so both ops route through it
    vs, cyl = data
    td = equiv.cylinder_to_tensored(vs, cyl)
    return vs, equiv.tensored_to_cylinder(td.vcat, td)


# op -> (the view of the data for each input kind, construction, output kind)
OPS = {
    "underlying": ({"vcategory": _same}, lambda vc: vcat.underlying_category(vc)[1],
                   "vstructure"),
    "associated-vcat": ({"vstructure": _same}, lambda vs: vstruct.associated_vcategory(vs),
                        "vcategory"),
    "induced-vstructure": (_MODULE, lambda tc: vmodule.induced_vstructure(tc), "vstructure"),
    "module-to-cylinder": (_MODULE, lambda tc: equiv.module_to_cylinder(tc), "cylinder"),
    "cylinder-to-module": (_CYLINDER, lambda data: equiv.cylinder_to_module(*data),
                           "tensorclosed"),
    "tensored-to-cylinder": (_CYLINDER, _through_tensored, "cylinder"),
    "cylinder-to-tensored": (_CYLINDER, _through_tensored, "cylinder"),
    "bimodule-complete": ({"closedmodule": _same}, lambda cm: equiv.bimodule_completion(cm),
                          "bimodule"),
}

# pair -> (the view of the data for each input kind, (there and back, original))
PAIRS = {
    "module-cylinder": (_MODULE, lambda tc: (
        equiv.cylinder_to_module(*equiv.module_to_cylinder(tc)), tc)),
    "cylinder-tensored": (_CYLINDER, lambda data: (_through_tensored(data)[1], data[1])),
}


def _view(name: str, views: dict, doc: Document):
    """The data of ``doc`` as the op or pair ``name`` reads it."""
    view = views.get(doc.kind)
    if view is None:
        *others, last = views
        kinds = f"{', '.join(others)} or {last}" if others else last
        raise DocumentError(f"{name} needs a {kinds} document, got {doc.kind!r}")
    return view(doc.data)


def _built(name: str, views: dict, build, doc: Document):
    """``build`` on ``doc`` as the op or pair ``name`` reads it.  A failure on
    input ``check`` flags raises ``check``'s first report or error instead."""
    data = _view(name, views, doc)
    try:
        return build(data)
    except EncatError:
        reports = run_checks(doc)
        if not reports:
            raise
        raise LawFailureError(f"the {doc.kind} document fails {reports[0].law} "
                              f"at ({', '.join(reports[0].site)})") from None


def _construct(doc: Document, op: str) -> Document:
    views, build, kind = OPS[op]
    return Document(kind, _built(op, views, build, doc))


def _load(path: str) -> Document:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return parse(handle.read())
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc.reason} "
                             f"at byte offset {exc.start}") from None


def _write(doc: Document, path: str, out) -> int:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize(doc))
    print(f"wrote {doc.kind} document to {path}", file=out)
    return 0


def _check(args, out) -> int:
    wanted = None
    if args.laws is not None:
        wanted = [w.strip() for w in args.laws.split(",") if w.strip()]
        unknown = [w for w in wanted if w not in KNOWN_LAWS]
        if unknown:
            print(f"unknown law name(s): {', '.join(unknown)}", file=out)
            print("known laws: " + ", ".join(KNOWN_LAWS), file=out)
            return 2
    reports = run_checks(_load(args.file))
    unselected = 0  # failing checks outside --laws, which may gate the laws in it
    if wanted is not None:
        selected = [r for r in reports if r.law in wanted]
        reports, unselected = selected, 0 if selected else len(reports)
    _print_reports(reports, args.format, out, unselected)
    return 1 if reports or unselected else 0


def _roundtrip(args, out) -> int:
    views, there_and_back = PAIRS[args.pair]
    back, want = _built(args.pair, views, there_and_back, _load(args.file))
    diff = canonical_diff(back, want)
    print("equal" if diff is None else f"unequal: {diff}", file=out)
    return 0 if diff is None else 1


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
    p_check.set_defaults(run=_check)

    p_con = sub.add_parser("construct", help="run a named construction")
    p_con.add_argument("file")
    p_con.add_argument("--op", required=True, choices=tuple(OPS))
    p_con.add_argument("-o", "--output", required=True)
    p_con.set_defaults(
        run=lambda args, out: _write(_construct(_load(args.file), args.op), args.output, out))

    p_rt = sub.add_parser("roundtrip", help="verify a correspondence round trip")
    p_rt.add_argument("file")
    p_rt.add_argument("--pair", required=True, choices=tuple(PAIRS))
    p_rt.set_defaults(run=_roundtrip)

    p_inst = sub.add_parser("instance", help="emit a builtin instance")
    p_inst.add_argument("name")
    p_inst.add_argument("-o", "--output", required=True)
    p_inst.set_defaults(run=lambda args, out: _write(
        Document(*instances.build_instance(instances.parse_instance_name(args.name))),
        args.output, out))
    return parser


_PARSER = _build_parser()


def cli(argv: list[str] | None = None, out=None) -> int:
    # help and usage text go to the caller's stream too; swapped by hand, as
    # contextlib's redirect_* made a freshly forked command 1-2% slower
    streams = sys.stdout, sys.stderr
    if out:
        sys.stdout = sys.stderr = out
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    finally:
        sys.stdout, sys.stderr = streams

    out = out or sys.stdout
    try:
        return args.run(args, out)
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


def main() -> None:
    raise SystemExit(cli())
