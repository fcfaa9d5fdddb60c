"""Byte oracle of the ``encat/1`` writer: every document it writes, and every
``check --format json`` report list, is exactly what
``json.dumps(..., indent=2, sort_keys=True)`` makes of the same tree.

The parse side is pinned by the codec corpora (``test_codec_corpus.py``);
here ``serialize(parse(t))`` must equal the stdlib's text of ``t`` on
canonical documents: the test fixtures' documents, every builtin instance,
every construction's output and documents whose ids need escaping or nest
pairs.
"""

import dataclasses
import io
import json
import sys
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import encat.interface
from encat.cli import OPS, _construct, cli
from encat.core import FinCategory, structural_equal
from encat.instances import build_cyc, build_instance, parse_instance_name
from encat.interface import Document, DocumentError, dumps, parse, serialize
from encat.vcat import VCategoryData
from tests.test_interface import _all_documents

BUILTINS = ("bool", "trop(2)", "trop(4)", "trop(10)", "cyc(1)", "cyc(16)", "poset-diamond",
            "self(bool)", "self(trop(4))", "self(cyc(3))")


def stdlib(text: str) -> str:
    return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def interface_dumps_calls(write, *args):
    """``write(*args)`` and the number of ``json.dumps`` calls made from
    inside ``encat.interface`` while it ran."""
    calls, real = [], json.dumps

    def spy(*a, **k):
        calls.append(sys._getframe(1).f_globals["__name__"] == "encat.interface")
        return real(*a, **k)

    with mock.patch.object(json, "dumps", spy):
        return write(*args), sum(calls)


def assert_canonical(doc: Document) -> str:
    """``doc``'s text is the stdlib's, and a fixed point of parse and
    serialize."""
    text = serialize(doc)
    assert text == stdlib(text), doc.kind
    assert serialize(parse(text)) == stdlib(text), doc.kind
    return text


def test_fixture_documents_are_stdlib_bytes(bool_m, trop3, cyc3, poset_cm, self_trop3):
    for doc in _all_documents(bool_m, trop3, cyc3, poset_cm, self_trop3):
        assert_canonical(doc)


def test_builtins_and_constructions_are_stdlib_bytes():
    made = []
    for name in BUILTINS:
        doc = Document(*build_instance(parse_instance_name(name)))
        assert_canonical(doc)
        todo = [doc]
        while todo:  # every construction that takes the document, and its outputs
            source = todo.pop()
            for op in OPS:
                try:
                    out = _construct(source, op)
                except DocumentError:  # an op that does not take this kind
                    continue
                assert_canonical(out)
                made.append(op)
                if op in ("module-to-cylinder", "induced-vstructure", "associated-vcat"):
                    todo.append(out)
    assert set(made) == set(OPS) and len(made) >= 30


# The first renaming appends characters that need escaping, "%" among them;
# the second nests a pair in every id, so that no pair id's first comma is
# its top-level one.
RENAMINGS = (lambda s: f'{s}"q\\%é∞', lambda s: f'(p,(q,{s}))')


def _rename_body(body, rename, key=""):
    if key == "identity":
        return {rename(k): rename(v) for k, v in body.items()}
    if isinstance(body, dict):
        return {k: _rename_body(v, rename, k) for k, v in body.items()}
    if isinstance(body, list):
        return [_rename_body(v, rename) for v in body]
    return rename(body) if isinstance(body, str) else body


def test_escaped_and_nested_ids_are_stdlib_bytes(bool_m, trop3, cyc3, poset_cm, self_trop3):
    for doc in _all_documents(bool_m, trop3, cyc3, poset_cm, self_trop3):
        payload = json.loads(serialize(doc))
        for rename in RENAMINGS:
            body = _rename_body(payload["body"], rename)
            # the rows are out of order under the new ids: parse, then write canonically
            renamed = parse(json.dumps({**payload, "body": body}))
            out = assert_canonical(renamed)
            assert structural_equal(parse(out).data, renamed.data)
            assert '\\"q\\\\%\\u00e9\\u221e' in out or "(p,(q," in out


def test_empty_tables_and_null_records_are_stdlib_bytes(bool_m, trop3, self_trop3):
    from encat.equiv import module_to_cylinder

    vs, cyl = module_to_cylinder(self_trop3.tensorClosed)
    dropped = next(iter(cyl.tensor_obj))
    gap = dataclasses.replace(cyl, phibar={k: v for k, v in cyl.phibar.items()
                                           if k[:2] != dropped})
    for doc in (Document("fincategory", FinCategory((), (), {}, {})),
                Document("monoidal", dataclasses.replace(trop3, symmetry=None, closed=None)),
                Document("vcategory", VCategoryData(bool_m, (), {}, {}, {})),
                Document("cylinder", (vs, gap))):
        text = assert_canonical(doc)
        assert "[]" in text or "null" in text


def test_check_json_reports_are_stdlib_bytes(tmp_path, trop4, cyc3):
    # trop(4) with one associator entry swapped, and with one evaluation
    # entry swapped (reports without composites); cyc(3) with its associator
    # swapped (composites that differ); cyc(8) with its tensor entry
    # ('4', '0') set to '3' (215 reports, sites of 1, 3 and 4 ids, no
    # witness counts)
    assoc, ev = dict(trop4.assoc), dict(trop4.closed.ev)
    assoc[next(k for k, v in sorted(assoc.items()) if v != "id:0")] = "id:0"
    ev[sorted(ev)[3]] = "m:1:0"
    cyc8 = build_cyc(8)
    found = []
    for mutant in (dataclasses.replace(trop4, assoc=assoc),
                   dataclasses.replace(trop4, closed=dataclasses.replace(trop4.closed, ev=ev)),
                   dataclasses.replace(cyc3, assoc={("*", "*", "*"): "1"}),
                   dataclasses.replace(cyc8, tensor_mor={**cyc8.tensor_mor, ("4", "0"): "3"})):
        doc = tmp_path / "bad.doc"
        doc.write_text(serialize(Document("monoidal", mutant)), encoding="utf-8")
        out = io.StringIO()
        code, calls = interface_dumps_calls(cli, ["check", str(doc), "--format", "json"], out)
        assert (code, calls) == (1, 0)
        text = out.getvalue()
        assert text == stdlib(text)
        reports = json.loads(text)["reports"]
        found += reports
    assert {type(r["lhs"]) for r in found} == {str, type(None)}
    assert {type(r["witness_count"]) for r in found} == {int, type(None)}
    assert (len(reports), {len(r["site"]) for r in reports},
            {r["witness_count"] for r in reports}) == (215, {1, 3, 4}, {None})


# strings drawn mostly from the characters that need care: escapes, "%"
# (the row templates' format character) and non-ASCII
TEXT = st.text(st.sampled_from('a%s"\\(),é\x00\u2028'), max_size=4) | st.text(max_size=4)
# a report as ``check --format json`` writes it
REPORT = st.fixed_dictionaries({
    "law": TEXT, "site": st.lists(TEXT, max_size=4), "lhs": st.none() | TEXT,
    "rhs": st.none() | TEXT, "witness_count": st.none() | st.integers(0, 9),
    "note": st.none() | TEXT})
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | TEXT,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.dictionaries(TEXT, inner, max_size=5)
                   | st.integers(1, 3).flatmap(lambda w: st.lists(
                       st.lists(inner, min_size=w, max_size=w), max_size=4))
                   | st.lists(TEXT, min_size=1, max_size=3, unique=True).flatmap(
                       lambda keys: st.lists(st.fixed_dictionaries({k: inner for k in keys}),
                                             max_size=4))
                   | st.lists(st.lists(TEXT, max_size=4), max_size=5)  # ragged lists of ids
                   | st.lists(REPORT, max_size=5)),
    max_leaves=40)


def leaves(tree) -> list:
    if isinstance(tree, (dict, list)):
        return [leaf for v in (tree.values() if isinstance(tree, dict) else tree)
                for leaf in leaves(v)]
    return [tree]


@settings(max_examples=200, deadline=None)
@given(JSON)
def test_writer_matches_stdlib(tree):
    # only bools and floats are written by json.dumps
    want = json.dumps(tree, indent=2, sort_keys=True)
    text, calls = interface_dumps_calls(dumps, tree)
    assert text == want
    assert calls == 0 or any(type(leaf) in (bool, float) for leaf in leaves(tree))


# an id table as the writer gets it: rows of one width, as lists or as tuples,
# of strings from printable ASCII and the characters the escaper must see
CELL = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7e)
               | st.sampled_from('"\\%\x00\x1f\x7fé\u2028'), max_size=4)
TABLE = st.tuples(st.integers(1, 4), st.sampled_from([list, tuple])).flatmap(
    lambda shape: st.lists(st.lists(CELL, min_size=shape[0], max_size=shape[0]).map(shape[1]),
                           max_size=6))


@settings(max_examples=300, deadline=None)
@given(TABLE, TABLE)
def test_tables_are_stdlib_bytes(table, other):
    for tree in (table, {"t": table, "u": [table, other]}):
        assert dumps(tree) == json.dumps(tree, indent=2, sort_keys=True)


def tables(tree) -> list:
    """The tables (non-empty lists of lists) inside a parsed document."""
    if isinstance(tree, dict):
        return [t for v in tree.values() for t in tables(v)]
    return [tree] if tree and isinstance(tree, list) and all(
        isinstance(row, list) for row in tree) else []


def test_table_cells_are_not_escaped_one_by_one():
    """Writing trop(10) escapes its keys, object list and morphism rows, but
    not its table cells one by one: the tables are written by row joins."""
    doc = Document(*build_instance(parse_instance_name("trop(10)")))
    calls, real = [], encat.interface._esc
    with mock.patch.object(encat.interface, "_esc", lambda s: calls.append(s) or real(s)):
        text = serialize(doc)
    assert text == stdlib(text)
    cells = sum(len(row) for table in tables(json.loads(text)) for row in table)
    assert cells > 10_000 and len(calls) < cells
