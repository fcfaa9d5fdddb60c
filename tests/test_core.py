import dataclasses
import io
import json
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from encat.cli import cli
from encat.core import (
    AmbiguousInverseError,
    CheckReport,
    EncatError,
    FinCategory,
    FunctorData,
    Law,
    MalformedReferenceError,
    MissingTableError,
    NonComposablePathError,
    Preimages,
    WitnessError,
    _diff,
    canonical,
    canonical_diff,
    compose_path,
    entry,
    evaluate,
    explained,
    is_valid,
    morphism_inverse,
    morphism_inverse_checked,
    opposite_category,
    pair_id,
    preimage,
    product_category,
    rename_category,
    required,
    structural_equal,
    typed,
    validate_category,
)
from encat.equiv import cylinder_to_tensored
from encat.instances import (
    build_bool,
    build_cyc,
    build_instance,
    build_trop,
    parse_instance_name,
)
from tests.enriched_reference import self_cylinder, self_vstructure


def mutate_comp(cat: FinCategory, key, value) -> FinCategory:
    comp = dict(cat.comp)
    comp[key] = value
    return dataclasses.replace(cat, comp=comp)


def one_object_category() -> FinCategory:
    return FinCategory(
        objects=("p",),
        morphisms=(("id:p", "p", "p"),),
        identity={"p": "id:p"},
        comp={("id:p", "id:p"): "id:p"},
    )


def test_builtin_bases_validate(bool_m, trop3, trop4, cyc1, cyc2, cyc3, poset_cm):
    for m in (bool_m, trop3, trop4, cyc1, cyc2, cyc3):
        assert validate_category(m.base) == []
    assert validate_category(poset_cm.tensorClosed.module.baseS) == []


def test_one_object_category_is_valid():
    assert validate_category(one_object_category()) == []


def test_redirected_unit_entry_gives_exactly_one_unit_failure(bool_m):
    bad = mutate_comp(bool_m.base, ("m01", "id:1"), "id:0")
    reports = validate_category(bad)
    assert len(reports) == 1
    assert reports[0].law == "category.unit"
    assert reports[0].site == ("m01", "id:1")
    assert (reports[0].lhs, reports[0].rhs) == ("id:0", "m01")


def test_mutated_assoc_entry_is_reported(cyc3):
    bad = mutate_comp(cyc3.base, ("1", "1"), "0")
    laws = {r.law for r in validate_category(bad)}
    assert "category.assoc" in laws


def test_reserved_identity_prefix_is_enforced():
    cat = FinCategory(
        objects=("p",),
        morphisms=(("id:p", "p", "p"), ("loop", "p", "p")),
        identity={"p": "loop"},
        comp={("id:p", "id:p"): "id:p", ("id:p", "loop"): "id:p",
              ("loop", "id:p"): "id:p", ("loop", "loop"): "loop"},
    )
    laws = {r.law for r in validate_category(cat)}
    assert "category.reserved-id" in laws


@pytest.mark.parametrize("edit, want", [
    (lambda base: base["identity"].pop("2"),
     [("category.reserved-id", ["id:2"], ""),
      ("category.total", ["2"], "object without identity")]),
    (lambda base: base["identity"].update({"2": "m:2:1"}),
     [("category.identity-shape", ["2", "m:2:1"], ""),
      ("category.reserved-id", ["id:2"], "")]),
    (lambda base: base["comp"].append(["m:1:0", "m:2:1", "m:2:0"]),
     [("category.composable", ["m:1:0", "m:2:1"], "")]),
], ids=["no-identity", "misshapen-identity", "non-composable-row"])
def test_identity_and_composability_reports_through_the_cli(tmp_path, edit, want):
    doc = tmp_path / "trop3.json"
    assert cli(["instance", "trop(3)", "-o", str(doc)], out=io.StringIO()) == 0
    data = json.loads(doc.read_text(encoding="utf-8"))
    edit(data["body"]["base"])
    doc.write_text(json.dumps(data), encoding="utf-8")
    out = io.StringIO()
    assert cli(["check", str(doc), "--format", "json"], out=out) == 1
    assert [(r["law"], r["site"], r["note"])
            for r in json.loads(out.getvalue())["reports"]] == want


def test_undeclared_reference_raises(bool_m):
    bad = mutate_comp(bool_m.base, ("m01", "id:1"), "ghost")
    with pytest.raises(MalformedReferenceError):
        validate_category(bad)


def test_compose_path_examples(bool_m, cyc3, poset_cm):
    s = poset_cm.tensorClosed.module.baseS
    assert compose_path(s, ["id:bot"]) == "id:bot"
    assert compose_path(bool_m.base, ["m01", "id:1"]) == "m01"
    assert compose_path(cyc3.base, ["1", "2"]) == "0"


def test_compose_path_error_carries_index(bool_m):
    with pytest.raises(NonComposablePathError) as err:
        compose_path(bool_m.base, ["m01", "m01"])
    assert err.value.index == 1
    with pytest.raises(NonComposablePathError):
        compose_path(bool_m.base, [])


def test_compose_path_missing_entry_is_missing_table_error(bool_m):
    comp = dict(bool_m.base.comp)
    del comp[("m01", "id:1")]
    partial = dataclasses.replace(bool_m.base, comp=comp)
    with pytest.raises(MissingTableError):
        compose_path(partial, ["m01", "id:1"])
    with pytest.raises(MissingTableError):
        partial.then("m01", "id:1")


def _fold(cat: FinCategory, path) -> str:
    """A reference left fold of ``comp``: every step checked, then looked up."""
    if not path:
        raise NonComposablePathError("cannot compose an empty path", index=0)
    acc = path[0]
    if not cat.has_mor(acc):
        raise MalformedReferenceError(f"unknown morphism {acc!r}")
    for i, step in enumerate(path[1:], start=1):
        if not cat.has_mor(step):
            raise MalformedReferenceError(f"unknown morphism {step!r}")
        if cat.dst(acc) != cat.src(step):
            raise NonComposablePathError(
                f"path breaks between positions {i - 1} and {i}: "
                f"{acc!r} ends at {cat.dst(acc)!r} but {step!r} starts at {cat.src(step)!r}",
                index=i)
        if (acc, step) not in cat.comp:
            raise MissingTableError(f"composition table missing entry ({acc!r}, {step!r})")
        acc = cat.comp[(acc, step)]
    return acc


def _then(cat: FinCategory, f: str, g: str) -> str:
    if cat.dst(f) != cat.src(g):
        raise NonComposablePathError(
            f"{f!r} (-> {cat.dst(f)!r}) is not composable with {g!r} (<- {cat.src(g)!r})",
            index=0)
    if (f, g) not in cat.comp:
        raise MissingTableError(f"composition table missing entry ({f!r}, {g!r})")
    return cat.comp[(f, g)]


def _result(fn, *args):
    try:
        return fn(*args)
    except EncatError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "index", None)


def test_compose_agrees_with_a_reference_fold(bool_m, cyc3, poset_cm):
    b = bool_m.base
    partial = dataclasses.replace(
        b, comp={k: v for k, v in b.comp.items() if k != ("m01", "id:1")})
    # a key that is not composable, and a composite that is not declared
    loose = dataclasses.replace(
        b, comp={**b.comp, ("m01", "m01"): "m01", ("id:0", "id:0"): "ghost"})
    cats = (b, cyc3.base, poset_cm.tensorClosed.module.baseS, partial, loose)
    for cat in cats:
        ids = cat.mor_ids() + ("ghost",)
        for n in range(4):
            for path in product(ids, repeat=n):
                want = _result(_fold, cat, path)
                assert _result(compose_path, cat, list(path)) == want, path
                assert _result(cat.compose, *path) == want, path
                if n == 2:
                    assert _result(cat.then, *path) == _result(_then, cat, *path), path


def test_product_category_counts(bool_m):
    prod = product_category(bool_m.base, bool_m.base)
    assert len(prod.objects) == 4
    assert len(prod.morphisms) == 9
    assert validate_category(prod) == []


def test_opposite_reverses_and_is_involutive(bool_m, trop3):
    op = opposite_category(bool_m.base)
    assert op.src("m01") == "1" and op.dst("m01") == "0"
    assert validate_category(op) == []
    assert structural_equal(opposite_category(opposite_category(trop3.base)), trop3.base)


def test_each_category_has_one_opposite():
    base = build_trop(3).base
    op = opposite_category(base)
    assert opposite_category(base) is op and opposite_category(op) is base


def opposite_validity_cases():
    """Every base of the monoidal corpus and every single-entry mutant of its
    composition table, as ``(where, build)``: each build gives a fresh base."""
    from harness import entries
    from test_monoidal_corpus import BUILTINS

    for name in BUILTINS:
        base = build_instance(parse_instance_name(name))[1].base
        yield name, lambda base=base: dataclasses.replace(base)
        for i, (_, comp) in enumerate(entries(base.comp, base.mor_ids(), sorted)):
            yield (name, i), lambda base=base, comp=comp: dataclasses.replace(base, comp=comp)


def test_validity_is_self_dual_on_fresh_categories():
    """The category axioms are self-dual, which ``is_valid`` relies on when
    it reads an opposite's validity off its original."""
    def valid(cat):
        try:
            return validate_category(cat) == []
        except MalformedReferenceError:
            return False

    flags = []
    for where, build in opposite_validity_cases():
        flags.append(valid(build()))
        assert flags[-1] == valid(opposite_category(build())), where
        assert flags[-1] == is_valid(opposite_category(build())), where
    assert len(flags) == 111 and flags.count(True) == 5


@pytest.mark.parametrize("name", ["poset-diamond", "self(bool)", "self(cyc(3))"])
def test_a_bimodule_check_validates_each_category_once(monkeypatch, name):
    """V and S: the hom functor's source and the cotensor's share one
    S^op, whose validity is read off S's verdict (the axioms are
    self-dual), and the reversed hom functor's source is S^op^op = S.
    A self module's S has V's tables, and parse reads them as one category,
    validated once."""
    import encat.core as core
    from encat.cli import run_checks
    from encat.equiv import bimodule_completion
    from encat.interface import Document, parse, serialize

    _, cm = build_instance(parse_instance_name(name))
    doc = parse(serialize(Document("bimodule", bimodule_completion(cm))))
    swept = []
    real = core._category_reports
    monkeypatch.setattr(core, "_category_reports", lambda cat: swept.append(cat) or real(cat))
    assert run_checks(doc) == []
    bm = doc.data
    s = bm.closedModule.tensorClosed.module.baseS
    v = bm.closedModule.tensorClosed.module.baseV.base
    assert (v is s) == name.startswith("self(")
    assert len(swept) == len({id(v), id(s)}) and {id(c) for c in swept} == {id(v), id(s)}


@pytest.mark.parametrize("name", ["poset-diamond", "self(bool)", "self(cyc(3))"])
def test_a_bimodule_check_validates_each_functor_once(monkeypatch, name):
    """The action, the hom functor and the cotensor; the cotensor is also
    the reversed side's action, and is not validated a second time."""
    import encat.vmodule as vm
    from encat.equiv import bimodule_completion

    _, cm = build_instance(parse_instance_name(name))
    bm = bimodule_completion(cm)
    validated = []
    real = vm.validate_functor
    monkeypatch.setattr(vm, "validate_functor",
                        lambda fn, tag: validated.append((fn, tag)) or real(fn, tag=tag))
    assert vm.check_closed_bimodule(bm) == []
    tc = cm.tensorClosed
    assert validated == [(tc.module.action, "module.functor"),
                         (tc.homFunctor, "moduleclosed.functor"),
                         (cm.cotensor, "moduleclosed.cotensor")]


def _duplicate_morphism() -> FinCategory:
    cat = one_object_category()
    return dataclasses.replace(cat, morphisms=cat.morphisms * 2)


def _undeclared_tensor_morphism():
    m = build_trop(3)
    return dataclasses.replace(m, tensor_mor={**m.tensor_mor, next(iter(m.tensor_mor)): "ghost"})


@pytest.mark.parametrize("module,sweep,checker,data,error", [
    ("encat.core", "_category_reports", "validate_category", _duplicate_morphism,
     MalformedReferenceError),
    ("encat.monoidal", "_tensor_shapes", "check_monoidal", _undeclared_tensor_morphism,
     MalformedReferenceError),
])
def test_a_raised_verdict_is_kept(monkeypatch, module, sweep, checker, data, error):
    """A sweep that raises runs once per instance: its error is kept, and a
    later call raises it again without sweeping."""
    import importlib

    mod = importlib.import_module(module)
    real, calls = getattr(mod, sweep), []
    monkeypatch.setattr(mod, sweep, lambda x: calls.append(x) or real(x))
    x, raised = data(), []
    for _ in range(2):
        with pytest.raises(error) as err:
            getattr(mod, checker)(x)
        raised.append((type(err.value), str(err.value)))
    assert len(calls) == 1 and raised[0] == raised[1], (calls, raised)


def test_morphism_inverse(bool_m, cyc3):
    assert morphism_inverse(bool_m.base, "id:0") == "id:0"
    assert morphism_inverse(bool_m.base, "m01") is None
    # modular arithmetic oracle: the inverse of k is (-k) mod n
    for k in range(3):
        expected = str((-k) % 3)
        assert morphism_inverse(cyc3.base, str(k)) == expected


def test_morphism_inverse_symmetry(cyc3, trop4):
    for cat in (cyc3.base, trop4.base):
        for f in cat.mor_ids():
            g = morphism_inverse(cat, f)
            if g is not None:
                assert morphism_inverse(cat, g) == f


def test_morphism_inverse_checked(bool_m, cyc3):
    assert morphism_inverse_checked(cyc3.base, "1") == "2"
    with pytest.raises(WitnessError) as err:
        morphism_inverse_checked(bool_m.base, "m01")
    assert err.value.count == 0
    assert str(err.value) == "required isomorphism 'm01' has no inverse"


def test_typed_reports_the_law_then_the_iso(bool_m):
    """An entry that is not a declared morphism of its ends is reported under
    ``law``; a well-typed one without an inverse under ``iso``, if given."""
    base = bool_m.base
    entries = [(("ok",), "id:0", "0", "0"), (("undeclared",), "ghost", "0", "0"),
               (("ends",), "m01", "1", "0"), (("no-inverse",), "m01", "0", "1")]
    assert typed(base, entries, "t.shape", "t.iso") == [
        CheckReport("t.shape", ("undeclared",), witness_count=0),
        CheckReport("t.shape", ("ends",), witness_count=0),
        CheckReport("t.iso", ("no-inverse",), witness_count=0)]
    assert [r.law for r in typed(base, entries, "t.shape")] == ["t.shape", "t.shape"]


def _verdict(table, dom, cod):
    return Preimages(table).check("law", ("s",), dom, cod, "table")


def test_preimages_bijection_verdicts():
    dom, cod = ("a", "b", "c"), ("x", "y", "z")
    assert _verdict({"a": "y", "b": "z", "c": "x"}, dom, cod) == []
    # non-injective: two arguments share an image, so one element is missed
    [r] = _verdict({"a": "x", "b": "x", "c": "y"}, dom, cod)
    assert (r.law, r.site, r.witness_count) == ("law", ("s",), 2)
    assert r.note == "table not a bijection onto 3 elements"
    # non-surjective: injective but with an image outside the hom-set
    [r] = _verdict({"a": "x", "b": "y", "c": "w"}, dom, cod)
    assert r.witness_count == 3
    # undefined images are keyed None and are not counted as images
    [r] = _verdict({"a": "x", "b": "y", "c": None}, dom, cod)
    assert r.witness_count == 2
    # keys that differ from the hom-set: a missing and a stray argument
    for table in ({"a": "x", "b": "y"}, {"a": "x", "b": "y", "c": "z", "d": "w"}):
        [r] = _verdict(table, dom, cod)
        assert (r.witness_count, r.note) == (len(table), "table domain mismatch")


def test_preimages_unique_lookup():
    inv = Preimages({"a": "x", "b": "x", "c": "y"})
    assert inv.unique("y", lambda n: f"{n} preimages") == "c"
    for image, count in (("x", 2), ("z", 0)):
        for _ in range(2):
            with pytest.raises(WitnessError) as err:
                inv.unique(image, lambda n: f"{n} preimages")
            assert (err.value.count, str(err.value)) == (count, f"{count} preimages")


def test_entry_names_the_table_and_the_key_as_shown():
    table = {("a", "b"): "f", "x": "g", "a*c": "h"}
    assert [entry(table, key, "some table") for key in (("a", "b"), "x")] == ["f", "g"]
    assert entry(table, "a*c", "some table", ("a", "c")) == "h"
    for key, shown, text in ((("a", "c"), None, "some table missing ('a', 'c')"),
                             ("y", None, "some table missing 'y'"),
                             ("a*d", ("a", "d"), "some table missing ('a', 'd')")):
        with pytest.raises(MissingTableError) as err:
            entry(table, key, "some table", shown)
        assert str(err.value) == text


def test_preimage_names_the_table_and_counts_the_preimages():
    fibres = {("k", "x"): Preimages({"a": "t", "b": "t", "c": "u"})}
    assert preimage(fibres, ("k", "x"), "u", "some table") == "c"
    # two preimages and none; an absent table is a missing table
    for key, image, count in ((("k", "x"), "t", 2), (("k", "x"), "v", 0)):
        with pytest.raises(WitnessError) as err:
            preimage(fibres, key, image, "some table")
        assert err.value.count == count
        assert str(err.value) == f"some table at {key!r} has {count} preimages of {image!r}"
    with pytest.raises(MissingTableError, match=r"^some table missing \('k', 'y'\)$"):
        preimage(fibres, ("k", "y"), "t", "some table")


def test_functor_tables_name_a_missing_entry():
    cat = one_object_category()
    fn = FunctorData(cat, cat, {"p": "p"}, {"id:p": "id:p"})
    assert (fn.obj("p"), fn.mor("id:p")) == ("p", "id:p")
    with pytest.raises(MissingTableError, match=r"^functor object table missing 'q'$"):
        fn.obj("q")
    with pytest.raises(MissingTableError, match=r"^functor morphism table missing 'f'$"):
        fn.mor("f")


def test_a_tensored_structure_names_a_missing_component(trop3):
    td = cylinder_to_tensored(self_vstructure(trop3), self_cylinder(trop3))
    assert td.component("0", "1", "2") == td.phibar[("0", "1", "2")]
    td = dataclasses.replace(td, phibar={key: pb for key, pb in td.phibar.items()
                                         if key != ("0", "1", "2")})
    with pytest.raises(MissingTableError) as err:
        td.component("0", "1", "2")
    assert str(err.value) == "tensored structure component missing ('0', '1', '2')"


def test_ambiguous_inverse_detected():
    # two parallel loops both declared two-sided inverse of each other
    cat = FinCategory(
        objects=("p",),
        morphisms=(("id:p", "p", "p"), ("u", "p", "p"), ("v", "p", "p")),
        identity={"p": "id:p"},
        comp={("id:p", "id:p"): "id:p", ("id:p", "u"): "u", ("u", "id:p"): "u",
              ("id:p", "v"): "v", ("v", "id:p"): "v", ("u", "u"): "id:p",
              ("u", "v"): "id:p", ("v", "u"): "id:p", ("v", "v"): "id:p"},
    )
    with pytest.raises(AmbiguousInverseError):
        morphism_inverse(cat, "u")


def test_structural_equal_is_table_identity(bool_m):
    assert structural_equal(bool_m.base, build_bool().base)
    renamed = rename_category(bool_m.base, mor_map={"m01": "arrow"})
    assert validate_category(renamed) == []
    assert not structural_equal(bool_m.base, renamed)


def _as_lists(value):
    """A deep copy with every tuple a list: unequal under ``==``, but with
    the same canonical form."""
    if dataclasses.is_dataclass(value):
        return dataclasses.replace(value, **{
            f.name: _as_lists(getattr(value, f.name)) for f in dataclasses.fields(value)})
    if isinstance(value, dict):
        return {k: _as_lists(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return [_as_lists(v) for v in value]
    return value


def _one_entry_changed(value):
    """A copy in which the first entry of the first string-valued table
    names a different id."""
    changed = False

    def walk(v):
        nonlocal changed
        if changed:
            return v
        if dataclasses.is_dataclass(v):
            return dataclasses.replace(v, **{
                f.name: walk(getattr(v, f.name)) for f in dataclasses.fields(v)})
        if isinstance(v, dict):
            if v and all(isinstance(w, str) for w in v.values()):
                key = next(iter(v))
                changed = True
                return {**v, key: v[key] + "'"}
            return {k: walk(w) for k, w in v.items()}
        return v

    return walk(value)


@pytest.mark.parametrize(
    "name", ["bool", "trop(3)", "cyc(3)", "poset-diamond", "self(trop(3))"])
def test_structural_equal_agrees_with_canonical(name):
    _kind, value = build_instance(parse_instance_name(name))
    _kind, fresh = build_instance(parse_instance_name(name))
    listed, mutated = _as_lists(value), _one_entry_changed(value)
    assert value != listed
    for other in (value, fresh, listed, mutated):
        assert structural_equal(value, other) == (canonical(value) == canonical(other))
        assert canonical_diff(value, other) == _diff(canonical(value), canonical(other), "")
    assert structural_equal(value, listed)
    assert not structural_equal(value, mutated)


def _deep_mutations():
    """Pairs of structures of one type that differ in a single entry deep
    inside, or in one field's type or order, with what each pair is."""
    from encat.equiv import bimodule_completion
    from encat.instances import module_self

    m = build_cyc(3)
    vs = self_vstructure(m)
    bm = bimodule_completion(module_self(m))
    cm = bm.closedModule
    tc = cm.tensorClosed
    action = tc.module.action
    psi = {key: dict(table) for key, table in cm.psi.items()}
    psi[("*", "*", "*")]["0"] = "1"
    on_morphisms = dict(action.onMorphisms)
    on_morphisms[pair_id("1", "2")] = "1"
    deep_action = dataclasses.replace(bm, closedModule=dataclasses.replace(
        cm, tensorClosed=dataclasses.replace(tc, module=dataclasses.replace(
            tc.module, action=dataclasses.replace(action, onMorphisms=on_morphisms)))))
    hom_fn = dataclasses.replace(vs.homFunctor, onMorphisms={
        **vs.homFunctor.onMorphisms, pair_id("1", "1"): "0"})
    cat = build_bool().base
    return [
        ("category object order", cat, dataclasses.replace(cat, objects=cat.objects[::-1])),
        ("vstructure comp", vs, dataclasses.replace(vs, comp={**vs.comp, ("*", "*", "*"): "1"})),
        ("vstructure hom functor", vs, dataclasses.replace(vs, homFunctor=hom_fn)),
        ("vstructure base order", vs, dataclasses.replace(vs, baseS=dataclasses.replace(
            vs.baseS, morphisms=vs.baseS.morphisms[::-1]))),
        ("vstructure without symmetry", vs, dataclasses.replace(
            vs, baseV=dataclasses.replace(m, symmetry=None))),
        ("vstructure as lists", vs, _as_lists(vs)),
        ("bimodule psi", bm, dataclasses.replace(
            bm, closedModule=dataclasses.replace(cm, psi=psi))),
        ("bimodule action", bm, deep_action),
        ("bimodule comodule unitor", bm, dataclasses.replace(bm, comodLunit={"*": "1"})),
    ]


def test_field_by_field_comparison_agrees_with_canonical_forms():
    equal = []
    for what, a, b in _deep_mutations():
        assert structural_equal(a, b) == (canonical(a) == canonical(b)), what
        assert canonical_diff(a, b) == _diff(canonical(a), canonical(b), ""), what
        assert canonical_diff(b, a, "/x") == _diff(canonical(b), canonical(a), "/x"), what
        if structural_equal(a, b):
            equal.append(what)
    assert equal == ["vstructure as lists"]


_CATS = st.sampled_from(["bool", "trop3", "trop4", "cyc3"])


def _cat_of(name: str) -> FinCategory:
    return {"bool": build_bool(), "trop3": build_trop(3),
            "trop4": build_trop(4), "cyc3": build_cyc(3)}[name].base


@settings(max_examples=60, deadline=None)
@given(name=_CATS, data=st.data())
def test_compose_path_bracketing(name, data):
    cat = _cat_of(name)
    start = data.draw(st.sampled_from(sorted(cat.objects)))
    path = []
    here = start
    for _ in range(data.draw(st.integers(min_value=1, max_value=5))):
        options = [f for f in cat.mor_ids() if cat.src(f) == here]
        step = data.draw(st.sampled_from(options))
        path.append(step)
        here = cat.dst(step)
    total = compose_path(cat, path)
    for k in range(1, len(path)):
        left = compose_path(cat, path[:k])
        right = compose_path(cat, path[k:])
        assert cat.then(left, right) == total


@settings(max_examples=30, deadline=None)
@given(name=_CATS, suffix=st.text(alphabet="abz()", min_size=0, max_size=4))
def test_renaming_preserves_validity(name, suffix):
    cat = _cat_of(name)
    mor_map = {f: f"{f}~{suffix}" for f in cat.mor_ids()
               if not f.startswith("id:")}
    renamed = rename_category(cat, mor_map=mor_map)
    assert validate_category(renamed) == []
    assert not structural_equal(cat, renamed)


def test_pair_id_is_parseable_when_nested():
    # commas are fine inside balanced parens (nested pairs); ids themselves
    # must not contain top-level commas, which the document format requires
    from encat.interface import split_pair_id

    nested = pair_id(pair_id("a", "b"), pair_id("c:d", "e"))
    first, second = split_pair_id(nested)
    assert first == pair_id("a", "b") and second == pair_id("c:d", "e")
    assert split_pair_id(second) == ("c:d", "e")


def _missing(data, x):
    raise MissingTableError(f"no entry {x!r}")


def test_evaluate_judges_every_site():
    sites = lambda data: [("a",), ("b",)]
    same = Law("t.same", sites, lambda d, x: x, lambda d, x: x)
    differ = Law("t.differ", sites, lambda d, x: x, lambda d, x: "b")
    undefined = Law("t.undefined", lambda data: [("a",)], lambda d, x: x, _missing)
    assert evaluate([same, differ, undefined], None) == [
        CheckReport("t.differ", ("a",), lhs="a", rhs="b"),
        CheckReport("t.undefined", ("a",), witness_count=0, note="composite undefined"),
    ]


def test_evaluate_lets_other_errors_escape():
    def broken(data, x):
        raise KeyError(x)

    with pytest.raises(KeyError):
        evaluate([Law("t.broken", lambda data: [("a",)], broken, lambda d, x: x)], None)
    with pytest.raises(MissingTableError):  # the enumeration is not guarded
        evaluate([Law("t.sites", lambda data: _missing(data, "s"),
                      lambda d, x: x, lambda d, x: x)], None)


def test_evaluate_judges_only_the_cover_a_gate_gives():
    sites = lambda data: [("a",), ("b",), ("c",)]
    lhs = lambda d, x: x
    rhs = lambda d, x: "a"

    def judged(gate):
        seen = []
        law = Law("t.local", sites, lambda d, x: seen.append(x) or lhs(d, x), rhs, gate=gate)
        return evaluate([law], None), seen

    # the premises hold: only the cover is judged
    reports, seen = judged(lambda data: [("b",)])
    assert seen == ["b"]
    assert reports == [CheckReport("t.local", ("b",), lhs="b", rhs="a")]
    assert judged(lambda data: ()) == ([], [])
    # the premises fail: every site is judged
    full = [CheckReport("t.local", (x,), lhs=x, rhs="a") for x in "bc"]
    assert judged(lambda data: None) == (full, ["a", "b", "c"])


def test_evaluate_marked_sides():
    sites = lambda data: [("a",)]
    # a required side raises even where the other side is undefined
    with pytest.raises(MissingTableError):
        evaluate([Law("t.required", sites, lambda d, x: _missing(d, "lhs"),
                      required(lambda d, x: _missing(d, x)))], None)
    # an explained side reports its own message; the first undefined side wins
    law = Law("t.explained", sites, explained(lambda d, x: _missing(d, x)),
              lambda d, x: _missing(d, "rhs"))
    assert evaluate([law], None) == [
        CheckReport("t.explained", ("a",), witness_count=0, note="no entry 'a'")]


def test_a_product_is_valid_when_both_factors_are():
    """A product's validity, which the thin cover of a functor law out of it
    reads, is read off its factors: either one invalid makes it invalid."""
    good = build_trop(2).base
    bad = dataclasses.replace(good, comp={k: v for k, v in good.comp.items() if k != ("id:0", "id:0")})
    assert is_valid(good) and not is_valid(bad)
    assert is_valid(product_category(good, good))
    assert not is_valid(product_category(good, bad)) and not is_valid(product_category(bad, good))


def _records():
    from encat import core, instances, interface, monoidal, vcat, vmodule, vstruct
    return (core.CheckReport, core.Law, core.FinCategory, core.FunctorData, core.Bifunctor,
            instances.InstanceSpec, interface.Document, interface._Reader, monoidal.SymmetryData,
            monoidal.ClosedData, monoidal.MonoidalData, vcat.VCategoryData, vcat.TensoredData,
            vmodule.VModuleData, vmodule.TensorClosedModuleData, vmodule.ClosedVModuleData,
            vmodule.ClosedBimoduleData, vstruct.VStructureData, vstruct.CylinderAssignment,
            vstruct.PathAssignment)


def _twin(cls):
    """A stdlib ``dataclass(frozen=True)`` with the fields of ``cls``, under its name."""
    return dataclasses.make_dataclass(cls.__name__, [
        (f.name, f.type, dataclasses.field(default=f.default, default_factory=f.default_factory))
        for f in dataclasses.fields(cls)], frozen=True)


def _outcome(make):
    """What ``make()`` gives: the instance's repr and ``__dict__`` items in order, or
    the type and message of the error it raises."""
    try:
        made = make()
    except (TypeError, ValueError, dataclasses.FrozenInstanceError) as exc:
        return type(exc), str(exc)
    return repr(made), list(vars(made).items())


def test_the_records_are_every_record_class():
    from encat.core import Record
    assert len(_records()) == 20 and set(_records()) == set(Record.__subclasses__())


@pytest.mark.parametrize("cls", _records(), ids=lambda cls: cls.__name__)
def test_a_record_behaves_as_a_stdlib_frozen_dataclass(cls):
    twin = _twin(cls)
    names = [f.name for f in dataclasses.fields(cls)]
    required = [f.name for f in dataclasses.fields(cls)
                if f.default is f.default_factory is dataclasses.MISSING]
    values = [f"{cls.__name__}.{name}" for name in names]
    other = values[:-1] + ["another value"]
    kw = dict(zip(names, values))
    calls = [  # (args, kwargs): every split of positional and keyword, defaults, and bad calls
        *((values[:k], dict(reversed(list(kw.items())[k:]))) for k in range(len(names) + 1)),
        (values[:len(required)], {}), ((), dict(list(kw.items())[:len(required)])),
        (values[:len(required) - 1], {}), ((), {}), (values[1:], {}), (values + ["extra"], {}),
        (values, {"bogus": 1}), ((), {**dict(list(kw.items())[:-1]), "bogus": 1}),
        (values, {names[0]: 1}), (values[:1], {names[0]: 1, **dict(list(kw.items())[1:])}),
    ]
    for args, kwargs in calls:
        assert _outcome(lambda: cls(*args, **kwargs)) == _outcome(lambda: twin(*args, **kwargs)), (
            args, kwargs)

    rec, same, differs = cls(*values), cls(**kw), cls(*other)
    twin_rec, twin_same, twin_differs = twin(*values), twin(**kw), twin(*other)
    assert (rec == same, rec == differs, rec != same, rec != differs) == (
        twin_rec == twin_same, twin_rec == twin_differs, twin_rec != twin_same,
        twin_rec != twin_differs)
    assert rec.__eq__(twin_rec) is NotImplemented and rec != twin_rec and rec != object()
    assert all(rec.__eq__(o(*[None] * len(dataclasses.fields(o)))) is NotImplemented
               for o in _records() if o is not cls and o.__name__ != "CheckReport")
    assert hash(rec) == hash(twin_rec) == hash(same) and hash(differs) == hash(twin_differs)
    assert repr(rec) == repr(twin_rec) and repr(differs) == repr(twin_differs)
    unhashable = [{"a": 1}] * len(names)
    if cls.__name__ != "CheckReport":  # its lhs and rhs must differ
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(cls(*unhashable))
    for name in (names[0], names[-1], "not_a_field"):
        assert (_outcome(lambda: setattr(rec, name, 1))
                == _outcome(lambda: setattr(twin_rec, name, 1)))
        assert _outcome(lambda: delattr(rec, name)) == _outcome(lambda: delattr(twin_rec, name))
    assert _outcome(lambda: setattr(rec, "x", 1))[0] is dataclasses.FrozenInstanceError
    assert repr(rec) == repr(twin_rec)  # nothing was set or deleted
    replaced = dataclasses.replace(rec, **{names[-1]: "another value"})
    assert type(replaced) is cls and replaced == differs
    assert repr(replaced) == repr(dataclasses.replace(twin_rec, **{names[-1]: "another value"}))
    assert dataclasses.is_dataclass(rec) and dataclasses.is_dataclass(cls)
    assert [f.name for f in dataclasses.fields(rec)] == names == list(cls.__match_args__)
    assert cls.__match_args__ == twin.__match_args__


def test_a_reader_gets_a_fresh_list_of_categories():
    from encat.interface import _Reader
    a, b = _Reader("text"), _Reader(text="text")
    assert a.categories == b.categories == [] and a.categories is not b.categories
    assert a == b and repr(a) == "_Reader(text='text', categories=[])"


def test_records_keep_what_is_found_on_the_instance():
    from encat.core import kept, verdict
    cat = one_object_category()
    assert "_objs" not in vars(cat) and cat._objs == frozenset(cat.objects) and "_objs" in vars(cat)
    found = []

    @kept
    def probe(data, x):
        found.append(x)
        return len(found)

    assert probe(cat, "a") == probe(cat, "a") == 1 and vars(cat)["probe"] == {("a",): 1}
    assert verdict(cat, "probe", lambda data: []) == () and vars(cat)["verdicts"]["probe"] == ()
    assert cat == dataclasses.replace(cat) and hash(CheckReport("law", ("x",))) == hash(
        CheckReport("law", ("x",)))


def test_a_check_report_with_equal_sides_raises():
    with pytest.raises(ValueError, match="two composites that differ"):
        CheckReport("law", ("x",), lhs="f", rhs="f")
    with pytest.raises(ValueError, match="two composites that differ"):
        CheckReport(law="law", site=("x",), lhs="f", rhs="f")
