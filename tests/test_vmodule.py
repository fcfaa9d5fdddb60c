import dataclasses
from itertools import product

import pytest

from encat.core import (
    EngineBugError,
    FinCategory,
    FunctorData,
    MissingTableError,
    WitnessError,
    morphism_inverse_checked,
    pair_id,
    product_category,
    structural_equal,
    validate_category,
)
from encat.monoidal import internal_pi_bar, self_vstructure, transpose_pi_inv
from encat.vmodule import (
    VModuleData,
    _adjunct,
    _counit,
    check_closed_bimodule,
    check_closed_module,
    check_tensor_closed,
    check_vmodule,
    dual_tensorclosed,
    induced_vstructure,
    module_phibar,
)
from encat.vstruct import check_vstructure
from encat.equiv import bimodule_completion
from encat.instances import (
    build_cyc,
    build_instance,
    build_trop,
    module_self,
    module_self_tensorclosed,
    parse_instance_name,
)
from nonstrict import absorbing_monoid, regular_module
from tests.enriched_reference import enriched_action


def tower_module() -> VModuleData:
    """Three stacked objects with modular-label homs, acted on by the capped
    quantale through index shifts; the action forgets the acting morphism's
    label, which makes the associator mutable in a detectable way."""
    v = build_trop(3)
    objects = tuple(f"s{i}" for i in range(3))

    def mor(i: int, j: int, z: int) -> str:
        return f"g:{i}:{j}:{z}"

    morphisms = []
    for i in range(3):
        for j in range(3):
            if i >= j:
                morphisms.extend((mor(i, j, z), f"s{i}", f"s{j}") for z in range(3))
    identity = {f"s{i}": mor(i, i, 0) for i in range(3)}
    comp = {}
    for (f, fs, fd) in morphisms:
        for (g, gs, gd) in morphisms:
            if fd != gs:
                continue
            i, z1 = int(fs[1]), int(f.rsplit(":", 1)[1])
            k, z2 = int(gd[1]), int(g.rsplit(":", 1)[1])
            comp[(f, g)] = mor(i, k, (z1 + z2) % 3)
    s = FinCategory(objects, tuple(sorted(morphisms)), identity, comp)
    assert validate_category(s) == []

    def shift(k: str, i: str) -> str:
        return f"s{min(int(i[1]) + int(k), 2)}"

    on_objects = {pair_id(k, x): shift(k, x)
                  for k in v.base.objects for x in objects}
    on_morphisms = {}
    for u in v.base.mor_ids():
        for w in s.mor_ids():
            i, j = s.src(w), s.dst(w)
            z = int(w.rsplit(":", 1)[1])
            src = shift(v.base.src(u), i)
            dst = shift(v.base.dst(u), j)
            on_morphisms[pair_id(u, w)] = mor(int(src[1]), int(dst[1]), z)
    action = FunctorData(product_category(v.base, s), s, on_objects, on_morphisms)
    assoc = {(k, l, x): s.id_(shift(k, shift(l, x)))
             for k in v.base.objects for l in v.base.objects for x in objects}
    lunit = {x: s.id_(x) for x in objects}
    return VModuleData(baseV=v, baseS=s, action=action, assoc=assoc, lunit=lunit)


def test_module_checks_pass(poset_cm, self_trop3, self_cyc3):
    for cm in (poset_cm, self_trop3, self_cyc3):
        assert check_vmodule(cm.tensorClosed.module) == []
        assert check_tensor_closed(cm.tensorClosed) == []
        assert check_closed_module(cm) == []


def test_tower_module_is_valid_and_assoc_mutable():
    mod = tower_module()
    assert check_vmodule(mod) == []
    assoc = dict(mod.assoc)
    assoc[("1", "1", "s0")] = "g:2:2:1"
    bad = dataclasses.replace(mod, assoc=assoc)
    reports = check_vmodule(bad)
    failures = [r for r in reports if r.law == "module.assoc"]
    assert failures, "the pentagon-shaped axiom must fail with real composites"
    assert any(r.lhs is not None and r.rhs is not None and r.lhs != r.rhs
               for r in failures)
    assert ("1", "1", "1", "s0") in {r.site for r in failures}


def test_module_unit_mutation(self_cyc3):
    mod = self_cyc3.tensorClosed.module
    lunit = dict(mod.lunit)
    lunit["*"] = "1"
    bad = dataclasses.replace(mod, lunit=lunit)
    laws = {r.law for r in check_vmodule(bad)}
    assert "module.unit" in laws


def test_posetal_assoc_redirect(poset_cm):
    mod = poset_cm.tensorClosed.module
    assoc = dict(mod.assoc)
    assoc[("0", "1", "x")] = "id:top"
    bad = dataclasses.replace(mod, assoc=assoc)
    reports = check_vmodule(bad)
    laws = {r.law for r in reports}
    assert "module.assoc" in laws
    sites = {r.site for r in reports if r.law == "module.assoc"}
    assert any("x" in site for site in sites)


def test_adjunction_table_mutation(self_cyc3):
    cm = self_cyc3
    psi = {k: dict(t) for k, t in cm.psi.items()}
    psi[("*", "*", "*")]["1"] = "0"
    bad = dataclasses.replace(cm, psi=psi)
    reports = check_closed_module(bad)
    assert "moduleclosed.naturality" in {r.law for r in reports}


def module_eta_eps(tc, k, x, y):
    """Unit K -> hom(X, K (x) X) and counit hom(X, Y) (x) X -> Y of the
    action adjunction, read from the tables; the triangle identities are
    asserted."""
    mod = tc.module
    s = mod.baseS
    base = mod.baseV.base

    def unit_eta(k, x):
        kx = mod.act_obj(k, x)
        return tc.phi_of(k, x, kx, s.id_(kx))

    eta = unit_eta(k, x)
    eps = _counit(tc, x, y)
    kx = mod.act_obj(k, x)
    assert s.compose(mod.act_mor(eta, s.id_(x)), _counit(tc, x, kx)) == s.id_(kx)
    hxy = tc.hom_obj(x, y)
    assert base.compose(unit_eta(hxy, x), tc.hom_mor(s.id_(x), eps)) == base.id_(hxy)
    return eta, eps


def test_eta_eps(poset_cm, self_cyc3):
    eta, eps = module_eta_eps(self_cyc3.tensorClosed, "*", "*", "*")
    assert (eta, eps) == ("0", "0")
    # the counit of the posetal module always exists and lands correctly
    tc = poset_cm.tensorClosed
    s = tc.module.baseS
    for x in s.objects:
        for y in s.objects:
            _eta, eps = module_eta_eps(tc, "0", x, y)
            assert s.src(eps) == tc.module.act_obj(tc.hom_obj(x, y), x)
            assert s.dst(eps) == y


def test_induced_vstructure(poset_cm, trop3, self_trop3, self_cyc3):
    assert check_vstructure(induced_vstructure(poset_cm.tensorClosed)) == []
    assert structural_equal(induced_vstructure(self_trop3.tensorClosed),
                            self_vstructure(trop3))
    ivs = induced_vstructure(self_cyc3.tensorClosed)
    assert ivs.comp[("*", "*", "*")] == "0"


def test_enriched_action_examples(poset_cm, self_cyc3):
    ea = enriched_action(poset_cm.tensorClosed)
    assert ea.components[("0", "1", "x")] == "id:1"
    ea3 = enriched_action(self_cyc3.tensorClosed)
    assert set(ea3.components.values()) == {"0"}


def test_module_phibar_examples(poset_cm, self_trop3, self_cyc3):
    assert module_phibar(self_trop3.tensorClosed, "1", "1", "2") == "id:0"
    assert module_phibar(self_cyc3.tensorClosed, "*", "*", "*") == "0"
    assert module_phibar(poset_cm.tensorClosed, "0", "x", "y") == "id:1"


def assert_self_adjunct_is_the_double_transpose(m):
    """On the self module of ``m``, at every (K, X, Y): the internal adjunct
    is the internal double transpose, and transposing its inverse back gives
    the double evaluation (K, X, Y written k, x, y)
    (hom(k, hom(x, y)) (x) k) (x) x -> hom(x, y) (x) x -> y."""
    tc = module_self_tensorclosed(m)
    base = m.base
    for k, x, y in product(base.objects, repeat=3):
        phibar = module_phibar(tc, k, x, y)
        assert phibar == internal_pi_bar(m, k, x, y), (k, x, y)
        h0 = m.hom_obj(k, m.hom_obj(x, y))
        unravelled = transpose_pi_inv(m, morphism_inverse_checked(base, phibar), m.tobj(k, x), y)
        assert unravelled == base.compose(
            morphism_inverse_checked(base, m.a(h0, k, x)),
            m.tmor(m.ev(k, m.hom_obj(x, y)), base.id_(x)), m.ev(x, y)), (k, x, y)


def test_module_phibar_matches_internal_transpose_on_self(bool_m, trop3, cyc3):
    for m in (bool_m, trop3, cyc3):
        assert_self_adjunct_is_the_double_transpose(m)


@pytest.mark.slow
@pytest.mark.parametrize("name", ["trop(4)", "trop(5)", "cyc(4)", "cyc(5)", "cyc(6)",
                                  "cyc(7)", "cyc(8)"])
def test_module_phibar_matches_internal_transpose_on_the_ladder(name):
    _, m = build_instance(parse_instance_name(name))
    assert_self_adjunct_is_the_double_transpose(m)


def test_module_phibar_inverse_absent_is_witness_error(poset_cm):
    tc = poset_cm.tensorClosed
    table = dict(tc.homFunctor.onObjects)
    table[pair_id("x", "y")] = "1"  # x and y are incomparable: not closed
    broken = dataclasses.replace(
        tc, homFunctor=dataclasses.replace(tc.homFunctor, onObjects=table))
    with pytest.raises(WitnessError):
        _adjunct(broken, "1", "x", "y")


def test_module_phibar_keeps_the_inverse_and_checks_every_call(monkeypatch, cyc3):
    """On cyc(3), which is not thin: on a thin base the characterization is
    decided by the records it rests on and judges no site."""
    import encat.vmodule as vm

    tc = module_self_tensorclosed(cyc3)
    inverses, calls = [], []
    real_inverse, real_transpose = vm.morphism_inverse, vm.transpose_pi
    monkeypatch.setattr(vm, "morphism_inverse",
                        lambda *a: inverses.append(a) or real_inverse(*a))
    monkeypatch.setattr(vm, "transpose_pi", lambda *a: calls.append(a) or real_transpose(*a))
    first = module_phibar(tc, "*", "*", "*")
    assert len(inverses) == 1 and calls
    calls.clear()
    assert module_phibar(tc, "*", "*", "*") == first
    assert len(inverses) == 1  # the inverse is kept
    assert calls  # the characterization ran again

    # the kept inverse alone runs no check and is not computed again
    calls.clear()
    assert _adjunct(tc, "*", "*", "*") == first
    assert calls == [] and len(inverses) == 1
    # ... and a lying evaluator is still caught at every verifying call
    monkeypatch.setattr(vm, "transpose_pi", lambda *a: "bogus")
    for _ in range(2):
        with pytest.raises(EngineBugError):
            module_phibar(tc, "*", "*", "*")


def test_module_phibar_failures_raise_on_every_call(poset_cm):
    tc = poset_cm.tensorClosed
    phi = {key: dict(table) for key, table in tc.phi.items()}
    phi[("0", "bot", "bot")]["id:bot"] = "id:1"
    bad = dataclasses.replace(tc, phi=phi)
    errors = []
    for _ in range(2):
        with pytest.raises(WitnessError) as exc:
            module_phibar(bad, "0", "bot", "bot")
        errors.append((str(exc.value), exc.value.count))
    assert errors[0] == errors[1]

    _adjunct(bad, "0", "top", "bot")
    messages = []
    for _ in range(2):
        with pytest.raises(EngineBugError) as exc:
            module_phibar(bad, "0", "top", "bot")
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


def test_dualize_roundtrip_and_dual_module(poset_cm):
    bm = bimodule_completion(poset_cm)
    dual = dual_tensorclosed(poset_cm, bm.comodAssoc, bm.comodLunit)
    assert check_vmodule(dual.module) == []
    # cotensor facts: the false coordinate cotensors to the top
    assert poset_cm.cot_obj("0", "x") == "top"
    assert dual.hom_obj("x", "y") == poset_cm.tensorClosed.hom_obj("y", "x")
    # psi is the reversed side's action adjunction, read in place
    assert dual.phi is poset_cm.psi and dual.module.action is poset_cm.cotensor


def test_bimodule_check_builds_the_reversed_side_once(self_cyc3, monkeypatch):
    import encat.vmodule as vm

    built = []
    original = vm.dual_tensorclosed
    monkeypatch.setattr(vm, "dual_tensorclosed",
                        lambda *args: built.append(args) or original(*args))
    bm = bimodule_completion(self_cyc3)
    assert vm.check_closed_bimodule(bm) == []
    assert built == [(bm.closedModule, bm.comodAssoc, bm.comodLunit)]


def test_bimodule_checks(poset_cm, self_trop3, self_cyc3):
    for cm in (poset_cm, self_trop3, self_cyc3):
        bm = bimodule_completion(cm)
        assert check_closed_bimodule(bm) == []


def test_bimodule_mutations(self_cyc3, poset_cm):
    bm = bimodule_completion(self_cyc3)

    assoc = dict(bm.comodAssoc)
    assoc[("*", "*", "*")] = "1"
    bad = dataclasses.replace(bm, comodAssoc=assoc)
    reports = check_closed_bimodule(bad)
    laws = {r.law for r in reports}
    assert "bimodule.cp2-8-2" in laws
    two = [r for r in reports if r.law == "bimodule.cp2-8-2"]
    assert any(r.lhs is not None and r.rhs is not None for r in two)

    lunit = dict(bm.comodLunit)
    lunit["*"] = "1"
    bad = dataclasses.replace(bm, comodLunit=lunit)
    assert "bimodule.cp2-8-3" in {r.law for r in check_closed_bimodule(bad)}

    psi = {k: dict(t) for k, t in bm.closedModule.psi.items()}
    psi[("*", "*", "*")]["0"] = "1"
    bad = dataclasses.replace(
        bm, closedModule=dataclasses.replace(bm.closedModule, psi=psi))
    assert "bimodule.cp2-8-1" in {r.law for r in check_closed_bimodule(bad)}

    pbm = bimodule_completion(poset_cm)
    assoc = dict(pbm.comodAssoc)
    assoc[("0", "1", "x")] = "id:bot"
    bad = dataclasses.replace(pbm, comodAssoc=assoc)
    assert "comodule.assoc" in {r.law for r in check_closed_bimodule(bad)}

    lunit = dict(pbm.comodLunit)
    lunit["x"] = "id:top"
    bad = dataclasses.replace(pbm, comodLunit=lunit)
    assert "comodule.unit" in {r.law for r in check_closed_bimodule(bad)}


def test_bimodule_reports_each_cotensor_failure_once():
    bm = bimodule_completion(module_self(build_cyc(3)))
    psi = {k: dict(t) for k, t in bm.closedModule.psi.items()}
    psi[("*", "*", "*")]["0"] = "1"
    bad = dataclasses.replace(
        bm, closedModule=dataclasses.replace(bm.closedModule, psi=psi))
    reports = check_closed_bimodule(bad)
    keys = [(r.law, r.site, r.lhs, r.rhs) for r in reports]
    assert "moduleclosed.naturality" in {r.law for r in reports}
    assert len(keys) == len(set(keys))
    # the closed module's own reports are all of its cotensor failures
    closed = check_closed_module(bad.closedModule)
    assert [r for r in reports if r.law.startswith("moduleclosed.")] == closed

    # a cotensor functoriality defect is reported under the cotensor's name
    # only, not again as the reversed side's action
    cm = bm.closedModule
    cotensor = dict(cm.cotensor.onMorphisms)
    cotensor[pair_id("0", "1")] = "0"
    bad = dataclasses.replace(bm, closedModule=dataclasses.replace(
        cm, cotensor=dataclasses.replace(cm.cotensor, onMorphisms=cotensor)))
    reports = check_closed_bimodule(bad)
    laws = [r.law for r in reports]
    assert laws.count("moduleclosed.cotensor.composition") == 22
    assert not any(law.startswith("comodule.functor.") for law in laws)
    keys = [(r.law, r.site, r.lhs, r.rhs) for r in reports]
    assert len(keys) == len(set(keys))
    closed = check_closed_module(bad.closedModule)
    assert [r for r in reports if r.law.startswith("moduleclosed.")] == closed


def test_closed_module_runs_the_reversed_evaluation_square(monkeypatch, self_cyc3):
    # the derived square runs on the action side and, once the whole closed
    # module is clean, on the reversed side whose adjunction tables are psi
    import encat.vmodule as vm

    seen = []
    real = vm._evaluation_square
    monkeypatch.setattr(vm, "_evaluation_square",
                        lambda tc: seen.append(tc.phi) or real(tc))
    cm = self_cyc3
    assert check_closed_module(cm) == []
    assert seen == [cm.tensorClosed.phi, cm.psi]

    seen.clear()
    psi = {k: dict(t) for k, t in cm.psi.items()}
    psi[("*", "*", "*")]["0"] = "1"
    assert check_closed_module(dataclasses.replace(cm, psi=psi))
    assert seen == [cm.tensorClosed.phi]


def test_a_partial_action_object_table_is_reported_not_read(tmp_path):
    # validate_functor reports the gap; the module laws, the adjunction and
    # the bimodule's transport diagrams, which read the action's objects, are
    # not judged
    import io

    from encat.cli import cli
    from encat.interface import Document, serialize
    from encat.vmodule import ClosedBimoduleData

    deleted = 0
    for name in ("poset-diamond", "self(bool)", "self(cyc(3))", "self(trop(3))"):
        _, cm = build_instance(parse_instance_name(name))
        bm = bimodule_completion(cm)
        tc = cm.tensorClosed
        action = tc.module.action
        for key in sorted(action.onObjects):
            deleted += 1
            on_objects = {k: v for k, v in action.onObjects.items() if k != key}
            bad_tc = dataclasses.replace(tc, module=dataclasses.replace(
                tc.module, action=dataclasses.replace(action, onObjects=on_objects)))
            bad_cm = dataclasses.replace(cm, tensorClosed=bad_tc)
            bad_bm = ClosedBimoduleData(bad_cm, bm.comodAssoc, bm.comodLunit)
            total = ("module.functor.total", (key,))
            assert [(r.law, r.site) for r in check_tensor_closed(bad_tc)] == [total]
            assert [(r.law, r.site) for r in check_closed_module(bad_cm)] == [total]
            assert [(r.law, r.site) for r in check_closed_bimodule(bad_bm)] == [total]
            doc = tmp_path / "bm.doc"
            doc.write_text(serialize(Document("bimodule", bad_bm)), encoding="utf-8")
            out = io.StringIO()
            assert cli(["check", str(doc)], out=out) == 1, (name, key, out.getvalue())
            assert "module.functor.total" in out.getvalue()
    assert deleted == 22


def test_a_missing_comodule_entry_is_named_as_the_bimodule_names_it(self_cyc3):
    bm = bimodule_completion(self_cyc3)
    with pytest.raises(MissingTableError, match=r"^comodule associator missing \('\*', '\*', '\*'\)$"):
        check_closed_bimodule(dataclasses.replace(bm, comodAssoc={}))
    with pytest.raises(MissingTableError, match=r"^comodule unitor missing '\*'$"):
        check_closed_bimodule(dataclasses.replace(bm, comodLunit={}))


@pytest.mark.parametrize("name", ["poset-diamond", "self(bool)"])
def test_an_ill_typed_unitor_of_the_base_is_reported_not_blamed_on_the_engine(tmp_path, name):
    """V = bool with its left unitor at 0 set to id:1: the module's derived
    unit-absorption triangle rests on V's axioms, which the module checkers
    judge first, so ``encat check`` reports V's failures (exit 1), each once,
    instead of an engine bug (exit 3), on the closed module and on its
    bimodule completion."""
    import io
    import json

    from encat.cli import cli

    module, bimodule = tmp_path / "cm.json", tmp_path / "bm.json"
    assert cli(["instance", name, "-o", str(module)], out=io.StringIO()) == 0
    assert cli(["construct", str(module), "--op", "bimodule-complete", "-o", str(bimodule)],
               out=io.StringIO()) == 0
    for path in (module, bimodule):
        doc = json.loads(path.read_text(encoding="utf-8"))
        body = doc["body"].get("closed_module", doc["body"])
        lunit = body["tensor_closed"]["module"]["base_v"]["lunit"]
        next(row for row in lunit if row[0] == "0")[1] = "id:1"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = io.StringIO()
        assert cli(["check", str(path), "--format", "json"], out=out) == 1, out.getvalue()
        reports = json.loads(out.getvalue())["reports"]
        assert "lunit.shape" in {r["law"] for r in reports}, (path.name, reports)
        assert len({json.dumps(r) for r in reports}) == len(reports), (path.name, reports)


@pytest.mark.parametrize("field,key", [("assoc", ("*", "*", "*")), ("lunit", "*")])
def test_non_invertible_module_entry_is_an_iso_report(field, key):
    """The absorbing monoid's z, as the associator or unitor of the module
    of the monoid on itself, is well shaped, not invertible, and breaks the
    unit diagram."""
    mod = regular_module(absorbing_monoid())
    bad = dataclasses.replace(mod, **{field: {**getattr(mod, field), key: "z"}})
    assert {r.law for r in check_vmodule(bad)} == {f"module.{field}-iso", "module.unit"}
