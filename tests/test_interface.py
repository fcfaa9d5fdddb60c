import io
import json
import os
import subprocess
import sys

import pytest

import encat
import encat.vmodule
from encat.core import EngineBugError, WitnessError, structural_equal
from encat.cli import CHECKERS, KNOWN_LAWS, LAW_REGISTRY, OPS, PAIRS, cli, run_checks
from encat.equiv import bimodule_completion, module_to_cylinder
from encat.instances import build_cyc, build_trop, module_self
from encat.interface import (
    KINDS,
    Document,
    DuplicateIdError,
    ParseError,
    UnresolvedReferenceError,
    VersionMismatchError,
    parse,
    serialize,
)
from encat.monoidal import check_v
from tests.enriched_reference import self_cylinder, self_enriched, self_path, self_vstructure


def _all_documents(bool_m, trop3, cyc3, poset_cm, self_trop3):
    vs, cyl = module_to_cylinder(self_trop3.tensorClosed)
    return [
        Document("fincategory", bool_m.base),
        Document("monoidal", bool_m),
        Document("monoidal", trop3),
        Document("monoidal", cyc3),
        Document("vcategory", self_enriched(trop3)),
        Document("vstructure", self_vstructure(cyc3)),
        Document("cylinder", (vs, cyl)),
        Document("path", (self_vstructure(bool_m), self_path(bool_m))),
        Document("vmodule", poset_cm.tensorClosed.module),
        Document("tensorclosed", poset_cm.tensorClosed),
        Document("closedmodule", poset_cm),
        Document("bimodule", bimodule_completion(poset_cm)),
    ]


def test_serialize_parse_roundtrip(bool_m, trop3, cyc3, poset_cm, self_trop3):
    for doc in _all_documents(bool_m, trop3, cyc3, poset_cm, self_trop3):
        text = serialize(doc)
        again = parse(text)
        assert again.kind == doc.kind
        assert structural_equal(again.data, doc.data)
        assert serialize(again) == text  # canonical bytes are a fixed point


def test_documents_pass_their_checkers(bool_m, trop3, cyc3, poset_cm, self_trop3):
    for doc in _all_documents(bool_m, trop3, cyc3, poset_cm, self_trop3):
        assert run_checks(parse(serialize(doc))) == []


def test_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse("{\n  broken\n}")
    assert err.value.line == 2


def test_version_mismatch(bool_m):
    text = serialize(Document("fincategory", bool_m.base))
    text = text.replace("encat/1", "encat/9")
    with pytest.raises(VersionMismatchError):
        parse(text)


def test_unresolved_reference_points_at_token(bool_m):
    text = serialize(Document("fincategory", bool_m.base))
    bad = text.replace('"src": "0"', '"src": "ghost"', 1)
    with pytest.raises(UnresolvedReferenceError) as err:
        parse(bad)
    assert err.value.token == "ghost"
    assert err.value.line > 1


def test_duplicate_morphism_id(bool_m):
    payload = json.loads(serialize(Document("fincategory", bool_m.base)))
    payload["body"]["morphisms"].append(
        dict(payload["body"]["morphisms"][0]))
    with pytest.raises(DuplicateIdError) as err:
        parse(json.dumps(payload))
    assert err.value.token == payload["body"]["morphisms"][0]["id"]


@pytest.mark.parametrize("bad", ["x,y", "(p,q),r", "x(", "x)"])
def test_an_id_that_a_pair_id_cannot_carry_is_a_parse_error(tmp_path, bad):
    """A functor's rows are keyed by pair ids ``(a,b)``, read back at the
    first comma outside parentheses, so an id with a comma there, or with
    unbalanced parentheses, would lose or misplace rows (with object 1 of
    self(trop(4)) named "x,y", the hom functor row at ("x,y", "2") reads
    back as ("x", "y,2")).  Parse rejects such an id, naming it, and
    ``check`` exits 2; nested pair ids stay valid."""
    text = serialize(Document("vstructure", self_vstructure(build_trop(4))))
    renamed = text.replace('"1"', json.dumps(bad))
    with pytest.raises(ParseError, match="a pair id cannot carry") as err:
        parse(renamed)
    assert err.value.token == bad
    doc = tmp_path / "bad.json"
    doc.write_text(renamed, encoding="utf-8")
    out = io.StringIO()
    assert cli(["check", str(doc)], out=out) == 2 and repr(bad) in out.getvalue()
    nested = parse(text.replace('"1"', json.dumps("(p,(q,1))")))
    assert run_checks(nested) == [] and structural_equal(parse(serialize(nested)).data, nested.data)


def test_rows_that_are_not_lists_are_parse_errors(bool_m):
    payload = json.loads(serialize(Document("fincategory", bool_m.base)))
    for row in (7, None, "ghost", {"a": "b"}):
        payload["body"]["comp"].append(row)
        with pytest.raises(ParseError, match="rows must be 2 ids and a str"):
            parse(json.dumps(payload))
        payload["body"]["comp"].pop()


def test_unknown_kind(bool_m):
    payload = json.loads(serialize(Document("fincategory", bool_m.base)))
    payload["kind"] = "mystery"
    with pytest.raises(ParseError):
        parse(json.dumps(payload))


def test_registry_is_part_of_known_laws():
    assert set(LAW_REGISTRY) <= set(KNOWN_LAWS)


# The --laws names: derived laws (``core.assert_derived``) and the tagged
# functor and transformation laws must not add to them.
PINNED_KNOWN_LAWS = (
    "assoc.iso", "assoc.natural", "assoc.shape", "bimodule.cp2-8-1", "bimodule.cp2-8-2",
    "bimodule.cp2-8-3", "bimodule.opposite-vstructure", "category.assoc", "category.composable",
    "category.identity-shape", "category.reserved-id", "category.shape", "category.total",
    "category.unit", "closed.bijection", "closed.shape", "comodule.assoc",
    "comodule.assoc-iso", "comodule.assoc-natural", "comodule.functor.composition",
    "comodule.functor.identity", "comodule.functor.shape", "comodule.functor.total",
    "comodule.lunit-iso", "comodule.lunit-natural", "comodule.shape", "comodule.unit",
    "cylinder.cp1-1", "cylinder.phibar-iso", "cylinder.shape", "lunit.iso", "lunit.natural",
    "lunit.shape", "module.assoc", "module.assoc-iso", "module.assoc-natural",
    "module.functor.composition", "module.functor.identity", "module.functor.shape",
    "module.functor.total", "module.lunit-iso", "module.lunit-natural", "module.shape",
    "module.unit", "moduleclosed.cotensor.composition", "moduleclosed.cotensor.identity",
    "moduleclosed.cotensor.shape", "moduleclosed.cotensor.total",
    "moduleclosed.functor.composition", "moduleclosed.functor.identity",
    "moduleclosed.functor.shape", "moduleclosed.functor.total", "moduleclosed.naturality",
    "path.cp2-1-25", "path.psibar-iso", "path.shape", "pentagon", "runit.iso", "runit.natural",
    "runit.shape", "symmetry.hexagon", "symmetry.invol", "symmetry.natural", "symmetry.shape",
    "symmetry.unit", "tensor.identity", "tensor.interchange", "tensor.shape", "triangle",
    "vcat.assoc", "vcat.shape", "vcat.unit", "vstructure.assoc",
    "vstructure.functor.composition", "vstructure.functor.identity", "vstructure.functor.shape",
    "vstructure.functor.total", "vstructure.left-action", "vstructure.phi-bijection",
    "vstructure.phi-natural", "vstructure.right-action", "vstructure.shape")
PINNED_LAW_REGISTRY = (
    "bimodule.cp2-8-1", "bimodule.cp2-8-2", "bimodule.cp2-8-3", "closed.bijection",
    "comodule.assoc", "comodule.unit", "cylinder.cp1-1", "module.assoc", "module.unit",
    "moduleclosed.naturality", "path.cp2-1-25", "pentagon", "symmetry.hexagon",
    "symmetry.invol", "symmetry.unit", "triangle", "vcat.assoc", "vcat.unit", "vstructure.assoc",
    "vstructure.left-action", "vstructure.right-action")


def test_law_names_are_pinned():
    assert KNOWN_LAWS == PINNED_KNOWN_LAWS
    assert LAW_REGISTRY == PINNED_LAW_REGISTRY


def _lawful_documents():
    """A lawful document of every kind ``encat check`` judges laws on."""
    from encat.instances import build_instance, parse_instance_name
    from encat.vstruct import associated_vcategory

    for name in ("bool", "trop(3)", "cyc(3)"):
        _, m = build_instance(parse_instance_name(name))
        yield Document("monoidal", m)
        yield Document("path", (self_vstructure(m), self_path(m)))
    for name in ("poset-diamond", "self(trop(3))", "self(cyc(3))"):
        _, cm = build_instance(parse_instance_name(name))
        tc = cm.tensorClosed
        vs, cyl = module_to_cylinder(tc)
        yield from (Document("closedmodule", cm), Document("tensorclosed", tc),
                    Document("vmodule", tc.module), Document("cylinder", (vs, cyl)),
                    Document("vstructure", vs),
                    Document("vcategory", associated_vcategory(vs)),
                    Document("bimodule", bimodule_completion(cm)))


def test_every_declared_law_is_reached(monkeypatch, tmp_path):
    """Each law a checker module declares, and so each ``--laws`` name it
    gives, is judged by ``encat check`` on some lawful document."""
    from encat import monoidal, vcat, vmodule, vstruct
    from harness import spy

    seen = spy(monkeypatch)
    for doc in _lawful_documents():
        # parsed afresh, so that no verdict is on record before the check
        assert run_checks(parse(serialize(doc))) == [], doc.kind
    judged = {law for law, _, _ in seen}
    declared = [law for mod in (monoidal, vcat, vstruct, vmodule) for law in mod.LAWS]
    assert sorted({law.name for law in declared if law not in judged}) == []

    doc = tmp_path / "cyc3.doc"
    doc.write_text(serialize(Document("monoidal", build_cyc(3))), encoding="utf-8")
    out = io.StringIO()
    assert cli(["check", str(doc), "--laws", "vfunctor.comp"], out=out) == 2
    assert out.getvalue().startswith("unknown law name(s): vfunctor.comp\n")


def _row_mutations(body):
    """Copies of a document body with one row of one table deleted, or its
    value replaced by the first other value in the same table."""
    if isinstance(body, dict):
        for key, value in body.items():
            for mutated in _row_mutations(value):
                yield {**body, key: mutated}
    elif body and all(isinstance(row, list) and isinstance(row[-1], str) for row in body):
        yield body[1:]
        other = next((row[-1] for row in body if row[-1] != body[0][-1]), None)
        if other is not None:
            yield [body[0][:-1] + [other]] + body[1:]


def test_every_reported_law_is_known(bool_m, trop3, cyc3, poset_cm, self_trop3):
    from encat.core import EncatError
    from tests.test_acceptance import _mutation_table

    reported = set()
    for _, run in _mutation_table():
        reported |= {r.law for r in run()}
    for doc in _all_documents(bool_m, trop3, cyc3, poset_cm, self_trop3):
        payload = json.loads(serialize(doc))
        for body in _row_mutations(payload["body"]):
            try:
                reports = run_checks(parse(json.dumps({**payload, "body": body})))
            except EncatError:
                continue
            reported |= {r.law for r in reports}
    assert reported <= set(KNOWN_LAWS), sorted(reported - set(KNOWN_LAWS))
    assert len(reported) >= 60  # the sweep reaches well past the core laws


def test_cli_check_flow(tmp_path):
    out = io.StringIO()
    doc = tmp_path / "bool.doc"
    assert cli(["instance", "bool", "-o", str(doc)], out=out) == 0
    assert cli(["check", str(doc)], out=out) == 0

    # a single mutated associator entry makes the coherence law fail
    cyc = build_cyc(3)
    import dataclasses

    bad = dataclasses.replace(cyc, assoc={("*", "*", "*"): "1"})
    bad_doc = tmp_path / "bad.doc"
    bad_doc.write_text(serialize(Document("monoidal", bad)), encoding="utf-8")
    out = io.StringIO()
    assert cli(["check", str(bad_doc), "--format", "json"], out=out) == 1
    records = json.loads(out.getvalue())["reports"]
    assert all(set(r) == {"law", "site", "lhs", "rhs", "witness_count", "note"}
               for r in records)
    assert "pentagon" in {r["law"] for r in records}

    out = io.StringIO()
    assert cli(["check", str(bad_doc), "--laws", "pentagon"], out=out) == 1
    assert "pentagon" in out.getvalue()
    out = io.StringIO()
    assert cli(["check", str(bad_doc), "--laws", "nonsense"], out=out) == 2
    assert "known laws" in out.getvalue()


def _bad_cyc3_doc(tmp_path):
    import dataclasses

    bad = dataclasses.replace(build_cyc(3), assoc={("*", "*", "*"): "1"})
    doc = tmp_path / "bad.doc"
    doc.write_text(serialize(Document("monoidal", bad)), encoding="utf-8")
    return doc


def test_cli_text_and_json_agree(tmp_path):
    doc = _bad_cyc3_doc(tmp_path)
    text_out, json_out = io.StringIO(), io.StringIO()
    cli(["check", str(doc)], out=text_out)
    cli(["check", str(doc), "--format", "json"], out=json_out)
    records = json.loads(json_out.getvalue())["reports"]
    lines = [l for l in text_out.getvalue().splitlines() if l.startswith("FAIL")]
    assert len(lines) == len(records)
    for record in records:
        assert any(record["law"] in line for line in lines)


def test_cli_construct_and_roundtrip(tmp_path):
    out = io.StringIO()
    pm = tmp_path / "pm.doc"
    assert cli(["instance", "poset-diamond", "-o", str(pm)], out=out) == 0
    assert cli(["roundtrip", str(pm), "--pair", "module-cylinder"], out=out) == 0

    cylp = tmp_path / "cyl.doc"
    assert cli(["construct", str(pm), "--op", "module-to-cylinder",
                "-o", str(cylp)], out=out) == 0
    assert cli(["check", str(cylp)], out=out) == 0
    assert cli(["roundtrip", str(cylp), "--pair", "cylinder-tensored"], out=out) == 0

    back = tmp_path / "back.doc"
    assert cli(["construct", str(cylp), "--op", "cylinder-to-module",
                "-o", str(back)], out=out) == 0
    assert cli(["check", str(back)], out=out) == 0

    again = tmp_path / "cyl2.doc"
    assert cli(["construct", str(cylp), "--op", "cylinder-to-tensored",
                "-o", str(again)], out=out) == 0
    assert (tmp_path / "cyl.doc").read_text() == again.read_text()

    bim = tmp_path / "bm.doc"
    assert cli(["construct", str(pm), "--op", "bimodule-complete",
                "-o", str(bim)], out=out) == 0
    assert cli(["check", str(bim)], out=out) == 0

    ivs = tmp_path / "ivs.doc"
    assert cli(["construct", str(pm), "--op", "induced-vstructure",
                "-o", str(ivs)], out=out) == 0
    vcat = tmp_path / "vc.doc"
    assert cli(["construct", str(ivs), "--op", "associated-vcat",
                "-o", str(vcat)], out=out) == 0
    under = tmp_path / "under.doc"
    assert cli(["construct", str(vcat), "--op", "underlying",
                "-o", str(under)], out=out) == 0
    assert cli(["check", str(under)], out=out) == 0


def test_cli_check_partial_composition_table(tmp_path):
    # a composable pair missing from the module's base composition table is
    # an input error (exit 1 or 2), never a KeyError traceback
    out = io.StringIO()
    doc = tmp_path / "pm.doc"
    assert cli(["instance", "poset-diamond", "-o", str(doc)], out=out) == 0
    data = json.loads(doc.read_text(encoding="utf-8"))
    rows = data["body"]["tensor_closed"]["module"]["base_s"]["comp"]
    rows.remove(["m:bot:x", "m:x:top", "m:bot:top"])
    bad = tmp_path / "bad.doc"
    bad.write_text(json.dumps(data), encoding="utf-8")
    out = io.StringIO()
    assert cli(["check", str(bad)], out=out) in (1, 2)


def test_cli_error_exit_codes(tmp_path):
    out = io.StringIO()
    assert cli(["check", str(tmp_path / "missing.doc")], out=out) == 2
    assert cli(["instance", "octahedron", "-o", str(tmp_path / "x.doc")],
               out=out) == 2
    garbled = tmp_path / "garbled.doc"
    garbled.write_text("{not json", encoding="utf-8")
    assert cli(["check", str(garbled)], out=out) == 2
    # law names are checked before the document is read
    out = io.StringIO()
    assert cli(["check", str(tmp_path / "missing.doc"), "--laws", "nope"], out=out) == 2
    assert out.getvalue().startswith("unknown law name(s): nope\n")


def test_a_document_that_is_not_an_object_exits_2(tmp_path):
    listed = tmp_path / "list.json"
    listed.write_text("[]\n", encoding="utf-8")
    out = io.StringIO()
    assert cli(["check", str(listed)], out=out) == 2
    assert out.getvalue() == "error: document must be a JSON object\n"


# kind -> (the document it is made from and the op, the path to its V in the
# body, its V in the parsed data)
MADE = {"closedmodule": (None, ("tensor_closed", "module", "base_v"),
                         lambda cm: cm.tensorClosed.module.baseV),
        "vstructure": (("closedmodule", "induced-vstructure"), ("base_v",), lambda vs: vs.baseV),
        "vcategory": (("vstructure", "associated-vcat"), ("base_v",), lambda vc: vc.baseV),
        "cylinder": (("closedmodule", "module-to-cylinder"), ("vstructure", "base_v"),
                     lambda data: data[0].baseV),
        "tensorclosed": (("cylinder", "cylinder-to-module"), ("module", "base_v"),
                         lambda tc: tc.module.baseV),
        "bimodule": (("closedmodule", "bimodule-complete"),
                     ("closed_module", "tensor_closed", "module", "base_v"),
                     lambda bm: bm.closedModule.tensorClosed.module.baseV)}


def _made(tmp_path, kind: str) -> dict:
    """The self(trop(3)) document of ``kind``, made as the CLI makes it."""
    path = str(tmp_path / f"{kind}.json")
    source = MADE[kind][0]
    if source is None:
        assert cli(["instance", "self(trop(3))", "-o", path], out=io.StringIO()) == 0
    else:
        _made(tmp_path, source[0])
        assert cli(["construct", str(tmp_path / f"{source[0]}.json"), "--op", source[1],
                    "-o", path], out=io.StringIO()) == 0
    return json.loads(open(path, encoding="utf-8").read())


def _base_v(body: dict, kind: str) -> dict:
    for key in MADE[kind][1]:
        body = body[key]
    return body


def _undeclared_hom_object(body):
    assert body["hom_obj"][0] == ["0", "0", "0"]
    body["hom_obj"][0][-1] = "nope"


def _without_eval_00(body):
    v = _base_v(body, "closedmodule")["closed"]
    v["eval"] = [row for row in v["eval"] if row[:2] != ["0", "0"]]


@pytest.mark.parametrize("kind, mutate, commands, printed", [
    # its first hom_obj row sent to an object V does not declare
    ("vcategory", _undeclared_hom_object, (("construct", "--op", "underlying"),),
     "error: hom object ('0','0') -> undeclared 'nope'\n"),
    # V's evaluation row ('0', '0') deleted: V's closed tables are judged
    ("closedmodule", _without_eval_00,
     (("construct", "--op", "module-to-cylinder"), ("roundtrip", "--pair", "module-cylinder")),
     "error: evaluation table missing ('0', '0')\n"),
], ids=["vcategory-hom-object", "closedmodule-eval-row"])
def test_a_table_gap_is_named_by_check_and_by_the_construction(
        tmp_path, kind, mutate, commands, printed):
    """A self(trop(3)) document with one table fault: ``check`` exits 2 and
    names the row, and so does every construction or round trip given it."""
    data = _made(tmp_path, kind)
    mutate(data["body"])
    bad, out_path = str(tmp_path / "bad.json"), str(tmp_path / "out.json")
    with open(bad, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    for command in (("check",), *commands):
        out = io.StringIO()
        output = ["-o", out_path] if command[0] == "construct" else []
        assert cli([command[0], bad, *command[1:], *output], out=out) == 2, command
        assert out.getvalue() == printed
    assert not os.path.exists(out_path)


def test_a_gap_in_the_composition_of_v_is_named_on_a_vcategory(tmp_path):
    """The self(trop(3)) vcategory with V's composition row (id:0, id:0)
    deleted: ``check`` reports ``category.total`` there first, and the
    ``underlying`` construction names it."""
    data = _made(tmp_path, "vcategory")
    base = data["body"]["base_v"]["base"]
    base["comp"] = [row for row in base["comp"] if row[:2] != ["id:0", "id:0"]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    out = io.StringIO()
    assert cli(["check", str(bad), "--format", "json"], out=out) == 1
    first = json.loads(out.getvalue())["reports"][0]
    assert (first["law"], first["site"]) == ("category.total", ["id:0", "id:0"])
    out = io.StringIO()
    assert cli(["construct", str(bad), "--op", "underlying", "-o", str(tmp_path / "u.json")],
               out=out) == 2
    assert out.getvalue() == "error: the vcategory document fails category.total at (id:0, id:0)\n"


@pytest.mark.parametrize("kind", list(MADE))
def test_a_document_whose_v_fails_is_judged_by_v_alone(tmp_path, kind):
    """V's evaluation at ('1', '0') of the self(trop(3)) document of ``kind``
    set from m:1:0 to id:0: its checker returns exactly V's reports."""
    data = _made(tmp_path, kind)
    ev = _base_v(data["body"], kind)["closed"]["eval"]
    next(row for row in ev if row[:2] == ["1", "0"])[2] = "id:0"
    text = json.dumps(data)
    want = check_v(MADE[kind][2](parse(text).data))
    assert want and {r.law for r in want} <= set(KNOWN_LAWS)
    assert run_checks(parse(text)) == want


@pytest.mark.parametrize("error, printed", [
    (WitnessError("no witness here", count=0), "construction failed: no witness here\n"),
    (EngineBugError("derived law failed: x at ()"), "engine bug: derived law failed: x at ()\n"),
])
def test_a_failed_construction_exits_3_and_writes_nothing(tmp_path, monkeypatch, error, printed):
    doc, target = tmp_path / "pd.json", tmp_path / "vs.json"
    assert cli(["instance", "poset-diamond", "-o", str(doc)], out=io.StringIO()) == 0

    def fail(tc):
        raise error

    monkeypatch.setattr(encat.vmodule, "induced_vstructure", fail)
    out = io.StringIO()
    assert cli(["construct", str(doc), "--op", "induced-vstructure", "-o", str(target)],
               out=out) == 3
    assert out.getvalue() == printed and not target.exists()


def test_a_document_that_is_not_utf8_text_is_a_parse_error(tmp_path):
    """Bytes that do not decode as UTF-8 are the input's fault: every command
    that reads a document exits 2 naming the byte offset of the first bad
    byte, in process and at the process boundary, with no traceback.  The
    second file's bad byte lies past the decoder's first 8 KiB."""
    bad, late = tmp_path / "bad.bin", tmp_path / "late.json"
    bad.write_bytes(b"\xff\xfe\x00\x01{}")
    late.write_bytes(b"{" + b" " * 9000 + b"\xc3(}")
    for path, offset in ((bad, 0), (late, 9001)):
        for argv in (["check", str(path)],
                     ["construct", str(path), "--op", "bimodule-complete",
                      "-o", str(tmp_path / "out.json")],
                     ["roundtrip", str(path), "--pair", "module-cylinder"]):
            out = io.StringIO()
            assert cli(argv, out=out) == 2, argv
            assert out.getvalue() == (f"error: {path} is not UTF-8 text: "
                                      f"{'invalid start' if offset == 0 else 'invalid continuation'}"
                                      f" byte at byte offset {offset}\n")
    result = _run_cli("check", str(bad))
    assert result.returncode == 2, result.stdout + result.stderr
    assert "Traceback" not in result.stdout + result.stderr
    assert "byte offset 0" in result.stdout


def test_cli_tables_use_the_codec_kinds():
    assert set(CHECKERS) == set(KINDS)
    for views, *_ in (*OPS.values(), *PAIRS.values()):
        assert set(views) <= set(KINDS)
    assert {kind for _, _, kind in OPS.values()} <= set(KINDS)


def test_ops_and_pairs_reject_the_kinds_they_do_not_take(
        tmp_path, bool_m, trop3, cyc3, poset_cm, self_trop3):
    output = tmp_path / "out.doc"
    for i, doc in enumerate(_all_documents(bool_m, trop3, cyc3, poset_cm, self_trop3)):
        path = tmp_path / f"{i}.doc"
        path.write_text(serialize(doc), encoding="utf-8")
        path = str(path)
        calls = [(op, ["construct", path, "--op", op, "-o", str(output)])
                 for op, (views, *_) in OPS.items() if doc.kind not in views]
        calls += [(pair, ["roundtrip", path, "--pair", pair])
                  for pair, (views, _) in PAIRS.items() if doc.kind not in views]
        for name, argv in calls:
            out = io.StringIO()
            assert cli(argv, out=out) == 2, argv
            text = out.getvalue()
            assert text.startswith(f"error: {name} needs a ") and f"got '{doc.kind}'" in text, text
    assert not output.exists()


@pytest.mark.parametrize("kind", ["path", "bimodule"])
def test_cli_check_missing_braid_entry(tmp_path, kind):
    # a braiding table without the entry a law reads is named as V's missing
    # table (exit 2), as on a monoidal document, never a KeyError traceback
    cyc3 = build_cyc(3)
    if kind == "path":
        payload = json.loads(serialize(Document("path", (self_vstructure(cyc3), self_path(cyc3)))))
        payload["body"]["vstructure"]["base_v"]["symmetry"]["braid"] = []
    else:
        payload = json.loads(serialize(Document("bimodule", bimodule_completion(module_self(cyc3)))))
        base_v = payload["body"]["closed_module"]["tensor_closed"]["module"]["base_v"]
        base_v["symmetry"]["braid"] = []
    doc = tmp_path / "bad.doc"
    doc.write_text(json.dumps(payload), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(encat.__file__))
    result = subprocess.run(
        [sys.executable, "-c", "from encat.cli import main; main()", "check", str(doc)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stdout + result.stderr
    assert result.stdout == "error: braiding table missing ('*', '*')\n"


def _run_cli(*argv):
    src = os.path.dirname(os.path.dirname(encat.__file__))
    return subprocess.run(
        [sys.executable, "-c", "from encat.cli import main; main()", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)


def test_cli_non_string_ids_are_parse_errors(tmp_path, bool_m, trop3):
    # an id that is not a string is an input error (exit 2), never a
    # TypeError traceback from sorting or serializing mixed ids
    vcat = json.loads(serialize(Document("vcategory", self_enriched(trop3))))
    vcat["body"]["objects"][0] = 0
    cyl = json.loads(serialize(Document("cylinder", (self_vstructure(bool_m),
                                                     self_cylinder(bool_m)))))
    cyl["body"]["cylinder"][0][0] = 1
    for name, payload in (("vcat", vcat), ("cyl", cyl)):
        doc = tmp_path / f"{name}.doc"
        doc.write_text(json.dumps(payload), encoding="utf-8")
        for argv in (("check", str(doc)),
                     ("construct", str(doc), "--op", "cylinder-to-tensored",
                      "-o", str(tmp_path / "out.doc"))):
            result = _run_cli(*argv)
            assert result.returncode == 2, result.stdout + result.stderr
            assert "Traceback" not in result.stdout + result.stderr
            assert "ids must be strings" in result.stdout


def test_cli_laws_selection_never_passes_an_unevaluated_law(tmp_path):
    # the broken associator fails the monoidal laws, so symmetry is never
    # evaluated: selecting only a symmetry law must not print OK
    doc = _bad_cyc3_doc(tmp_path)
    result = _run_cli("check", str(doc), "--laws", "symmetry.hexagon")
    assert result.returncode == 1, result.stdout + result.stderr
    assert "OK: all checks passed" not in result.stdout
    assert "failing check(s) outside the selected laws" in result.stdout
    result = _run_cli("check", str(doc), "--laws", "symmetry.hexagon", "--format", "json")
    assert result.returncode == 1
    assert json.loads(result.stdout) == {"reports": [], "unselected": 2}


def test_an_unselected_failure_is_printed_as_not_checked(tmp_path, trop3):
    # the text form of a --laws run whose only failures lie outside the selection
    doc = json.loads(serialize(Document("monoidal", trop3)))
    next(row for row in doc["body"]["tensor_mor"] if row[:2] == ["id:0", "id:1"])[2] = "id:0"
    path = tmp_path / "trop3.doc"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = io.StringIO()
    assert cli(["check", str(path), "--laws", "symmetry.hexagon"], out=out) == 1
    assert out.getvalue() == ("NOT CHECKED: 23 failing check(s) outside the selected laws; "
                              "the selected laws may not have been evaluated\n")


def test_the_shared_parser_keeps_nothing_between_calls(tmp_path, monkeypatch, capsys):
    # cli parses with one parser built at import; usage errors and an earlier
    # call's options must not change what a later call answers
    from encat import cli as cli_module

    lawful, bad = tmp_path / "bool.doc", _bad_cyc3_doc(tmp_path)
    assert cli(["instance", "bool", "-o", str(lawful)], out=io.StringIO()) == 0
    calls = [("check", str(lawful), "--laws", "pentagon", "--format", "json"),
             ("check", str(lawful)),
             ("check", str(bad), "--laws", "pentagon"),
             ("check", str(bad))]
    fresh = [_run_cli(*argv) for argv in calls]

    def rebuild():
        raise AssertionError("the parser was rebuilt for a call")

    monkeypatch.setattr(cli_module, "_build_parser", rebuild)
    for argv in ([], ["frobnicate"], ["check"],
                 ["construct", str(lawful), "--op", "nope", "-o", str(tmp_path / "x.doc")],
                 ["check", str(lawful), "--format", "xml"]):
        out = io.StringIO()
        assert cli(argv, out=out) == 2, argv
        assert out.getvalue().startswith("usage: encat"), argv
    out = io.StringIO()
    assert cli(["--help"], out=out) == 0
    assert out.getvalue().startswith("usage: encat")
    assert capsys.readouterr() == ("", "")  # nothing went to sys.stdout or sys.stderr
    for argv, want in zip(calls, fresh):
        out = io.StringIO()
        assert (cli(list(argv), out=out), out.getvalue()) == (want.returncode, want.stdout), argv


class _Terminal(io.StringIO):
    def isatty(self):
        return True


class _Sink:
    """A stream with ``write`` and no ``isatty``."""

    def __init__(self):
        self.text = ""

    def write(self, text):
        self.text += text


def test_report_colour_follows_the_output_stream(tmp_path, monkeypatch):
    # colour is decided by the stream the report is written to, not by
    # sys.stdout; ENCAT_COLOR=0|1 overrides it either way
    doc = str(_bad_cyc3_doc(tmp_path))
    red = "\x1b[31mFAIL\x1b[0m"
    monkeypatch.delenv("ENCAT_COLOR", raising=False)
    monkeypatch.setattr(sys, "stdout", _Terminal())
    for out, painted in ((io.StringIO(), False), (_Terminal(), True)):
        assert cli(["check", doc], out=out) == 1
        assert (red in out.getvalue()) is painted
    sink = _Sink()
    assert cli(["check", doc], out=sink) == 1
    assert "FAIL" in sink.text and red not in sink.text
    for env, out, painted in (("0", _Terminal(), False), ("1", io.StringIO(), True)):
        monkeypatch.setenv("ENCAT_COLOR", env)
        assert cli(["check", doc], out=out) == 1
        assert (red in out.getvalue()) is painted
