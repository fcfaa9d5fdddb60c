import dataclasses
from collections import Counter

import encat.vcat as vcat
from encat.core import structural_equal
from encat.equiv import (
    bimodule_completion,
    cylinder_to_module,
    cylinder_to_tensored,
    module_to_cylinder,
    tensored_to_cylinder,
)
from encat.instances import build_bool, build_cyc, build_trop
from encat.monoidal import self_cylinder, self_vstructure, varpi
from encat.vcat import check_tensored, underlying_category
from encat.vmodule import check_closed_bimodule, check_tensor_closed
from encat.vstruct import (
    CylinderAssignment,
    associated_vcategory,
    check_cylinder,
    check_vstructure,
)
from tests.enriched_reference import (VFunctorData, VNatData, check_vnat, hom_vfunctor,
                                      self_enriched)


def test_cylinder_to_tensored(bool_m, trop3, cyc3):
    for m in (bool_m, trop3, cyc3):
        vs = self_vstructure(m)
        td = cylinder_to_tensored(vs, self_cylinder(m))
        assert check_tensored(td) == []
    td3 = cylinder_to_tensored(self_vstructure(trop3), self_cylinder(trop3))
    for (k, x), obj in td3.tensorObj.items():
        assert obj == str(min(int(k) + int(x), 2))


def test_tensored_roundtrip(bool_m, trop3, trop4, cyc1, cyc2, cyc3):
    for m in (bool_m, trop3, trop4, cyc1, cyc2, cyc3):
        vs = self_vstructure(m)
        cyl = self_cylinder(m)
        td = cylinder_to_tensored(vs, cyl)
        back = tensored_to_cylinder(associated_vcategory(vs), td)
        assert structural_equal(back, cyl)


def two_object_tensored(m):
    """The tensor assignment of a cylinder on the underlying structure of
    ``two_object_cyc_vcat(m)``: every adjunct the zero element."""
    from tests.test_vcat import two_object_cyc_vcat

    _cat, vs = underlying_category(two_object_cyc_vcat(m))
    s = vs.baseS
    cyl = CylinderAssignment(
        tensor_obj={("*", x): x for x in s.objects},
        alpha={("*", x): vs.phi_of(x, x, s.id_(x)) for x in s.objects},
        phibar={("*", x, y): "0" for x in s.objects for y in s.objects})
    assert check_cylinder(vs, cyl) == []
    return cylinder_to_tensored(vs, cyl)


def test_tensored_naturality_mutation(cyc3):
    # a two-object structure admits a non-central corruption of the family
    td = two_object_tensored(cyc3)
    assert check_tensored(td) == []

    bad = dataclasses.replace(td, phibar={**td.phibar, ("*", "P", "Q"): "1"})
    reports = check_tensored(bad)
    assert reports
    assert any("Q" in r.site for r in reports)


def tensored_corpus():
    """Every swap of one adjunct of a lawful tensor assignment to each other
    morphism of V, in a fixed order: the two-object assignments over
    cyc(2..4), then the self cylinders of bool, trop(3) and cyc(3)."""
    lawful = [two_object_tensored(build_cyc(n)) for n in (2, 3, 4)]
    lawful += [cylinder_to_tensored(self_vstructure(m), self_cylinder(m))
               for m in (build_bool(), build_trop(3), build_cyc(3))]
    for td in lawful:
        for key in sorted(td.phibar):
            for value in td.vcat.baseV.base.mor_ids():
                if value != td.phibar[key]:
                    yield dataclasses.replace(td, phibar={**td.phibar, key: value})


def enriched_naturality_holds(td) -> bool:
    """The reference route: at each (K, X), the family as an enriched
    transformation hom(K (x) X, -) => hom(K, hom(X, -)) into the base, the
    target the composite of two enriched hom functors, judged by
    ``check_vnat``."""
    vc = td.vcat
    m = vc.baseV
    vself = self_enriched(m)
    for (k, x), kx in sorted(td.tensorObj.items()):
        hom_x, hom_k = hom_vfunctor(vc, x), hom_vfunctor(vself, k)
        target = VFunctorData(
            src=vc, dst=vself,
            onObjects={y: hom_k.obj(hom_x.obj(y)) for y in vc.objects},
            onHom={(y, z): m.base.compose(hom_x.hom(y, z), hom_k.hom(hom_x.obj(y), hom_x.obj(z)))
                   for y in vc.objects for z in vc.objects})
        nt = VNatData(source=hom_vfunctor(vc, kx), target=target,
                      components={y: varpi(m, td.phibar[(k, x, y)]) for y in vc.objects})
        if check_vnat(nt):
            return False
    return True


def test_tensored_check_agrees_with_enriched_naturality():
    # check_tensored judges one composition square; the enriched-naturality
    # route decides the same family.  A shape failure stops check_tensored
    # before the square, and the reference does not see shapes.
    verdicts = []
    for td in tensored_corpus():
        reports = check_tensored(td)
        laws = {r.law for r in reports}
        natural = enriched_naturality_holds(td)
        assert ("tensored.vnatural" not in laws) == natural
        if "tensored.shape" not in laws:
            assert (reports == []) == natural
        assert all(law.startswith("tensored.") for law in laws), laws
        verdicts.append((natural, tuple(sorted(laws))))
    assert Counter(verdicts) == {
        (False, ("tensored.vnatural",)): 24,
        (True, ("tensored.shape",)): 151,
        (True, ()): 2,
    }


def test_tensored_check_reports_an_invalid_enriched_category(bool_m):
    # the square assumes a lawful enriched category; an invalid one is the
    # input's fault, reported as such
    from encat.vcat import check_vcategory

    vs = self_vstructure(bool_m)
    bad = dataclasses.replace(vs, comp={**vs.comp, ("1", "0", "0"): "m01"})
    td = cylinder_to_tensored(bad, self_cylinder(bool_m))
    vcat_reports = check_vcategory(td.vcat)
    assert vcat_reports
    assert check_tensored(td) == vcat_reports


def test_module_to_cylinder(poset_cm, self_trop3, self_cyc3, trop3):
    for cm in (poset_cm, self_trop3, self_cyc3):
        vs, cyl = module_to_cylinder(cm.tensorClosed)
        assert check_vstructure(vs) == []
        assert check_cylinder(vs, cyl) == []
    vs, cyl = module_to_cylinder(self_trop3.tensorClosed)
    assert structural_equal((vs, cyl),
                            (self_vstructure(trop3), self_cylinder(trop3)))
    _vs, cyl3 = module_to_cylinder(self_cyc3.tensorClosed)
    assert set(cyl3.alpha.values()) == {"0"}


def test_cylinder_to_module(bool_m, trop3, cyc3):
    for m in (bool_m, trop3, cyc3):
        vs = self_vstructure(m)
        tc = cylinder_to_module(vs, self_cylinder(m))
        assert check_tensor_closed(tc) == []
        # strict instances: extracted structure morphisms are identities
        assert all(m.base.is_identity(v) for v in tc.module.assoc.values())
        assert all(m.base.is_identity(v) for v in tc.module.lunit.values())


def test_yoneda_witness_counts(poset_cm):
    # independent enumeration: the family determines its representer uniquely
    tc = poset_cm.tensorClosed
    vs, cyl = module_to_cylinder(tc)
    back = cylinder_to_module(vs, cyl)
    s = vs.baseS
    m = vs.baseV
    for (k, l, x), a in back.module.assoc.items():
        klx = cyl.tensor_obj[(m.tobj(k, l), x)]
        k_lx = cyl.tensor_obj[(k, cyl.tensor_obj[(l, x)])]
        count = sum(
            1 for h in s.hom(klx, k_lx)
            if all(s.then(h, g) == s.then(a, g)
                   for y in s.objects for g in s.hom(k_lx, y)))
        assert count == 1


def test_roundtrips(poset_cm, self_trop3, self_cyc3):
    for cm in (poset_cm, self_trop3, self_cyc3):
        tc = cm.tensorClosed
        assert structural_equal(cylinder_to_module(*module_to_cylinder(tc)), tc)
        vs, cyl = module_to_cylinder(tc)
        assert structural_equal(module_to_cylinder(cylinder_to_module(vs, cyl)), (vs, cyl))


def test_roundtrip_from_self_structures(bool_m, trop3, cyc3):
    for m in (bool_m, trop3, cyc3):
        vs, cyl = self_vstructure(m), self_cylinder(m)
        assert structural_equal(module_to_cylinder(cylinder_to_module(vs, cyl)), (vs, cyl))


def test_bimodule_completion_values(poset_cm, self_trop3):
    bm = bimodule_completion(poset_cm)
    s = poset_cm.tensorClosed.module.baseS
    assert all(s.is_identity(v) for v in bm.comodAssoc.values())
    assert all(s.is_identity(v) for v in bm.comodLunit.values())

    bm3 = bimodule_completion(self_trop3)
    base = self_trop3.tensorClosed.module.baseV.base
    assert all(base.is_identity(v) for v in bm3.comodAssoc.values())
    # oracle: both bracketings of iterated truncated subtraction agree
    for k in range(3):
        for l in range(3):
            for x in range(3):
                assert max(max(x - l, 0) - k, 0) == max(x - min(k + l, 2), 0)


def test_bimodule_completion_is_idempotent(poset_cm, self_trop3, self_cyc3):
    for cm in (poset_cm, self_trop3, self_cyc3):
        bm = bimodule_completion(cm)
        assert check_closed_bimodule(bm) == []
        again = bimodule_completion(bm.closedModule)
        assert structural_equal(again, bm)


def test_cylinder_to_module_blames_an_invalid_cylinder(tmp_path, self_bool):
    # the hom structure of this cylinder is invalid, so the two adjunction
    # routes disagree (m01), or one of them meets a non-composable path
    # (id:1): the CLI says which law fails (exit 2), and reports neither an
    # engine bug (exit 3) nor the broken path
    import io

    from encat.cli import cli
    from encat.interface import Document, serialize

    vs, cyl = module_to_cylinder(self_bool.tensorClosed)
    for value in ("m01", "id:1"):
        bad = dataclasses.replace(vs, comp={**vs.comp, ("1", "0", "0"): value})
        first = check_vstructure(bad)[0]
        doc = tmp_path / "cyl.doc"
        doc.write_text(serialize(Document("cylinder", (bad, cyl))), encoding="utf-8")
        out = io.StringIO()
        assert cli(["construct", str(doc), "--op", "cylinder-to-module",
                    "-o", str(tmp_path / "module.doc")], out=out) == 2
        assert f"fails {first.law} at ({', '.join(first.site)})" in out.getvalue()
        assert "engine bug" not in out.getvalue()


def test_module_to_cylinder_blames_an_invalid_module(tmp_path, self_cyc3):
    # the action entry (0, 0) |-> 1 breaks the module laws, so the internal
    # adjunct fails its characterization: construct and roundtrip name the
    # first law check reports (exit 2), and report no engine bug (exit 3)
    import io

    from encat.cli import cli, run_checks
    from encat.interface import Document, serialize

    tc = self_cyc3.tensorClosed
    action = tc.module.action
    bad = dataclasses.replace(self_cyc3, tensorClosed=dataclasses.replace(
        tc, module=dataclasses.replace(tc.module, action=dataclasses.replace(
            action, onMorphisms={**action.onMorphisms, "(0,0)": "1"}))))
    first = run_checks(Document("closedmodule", bad))[0]
    doc = tmp_path / "cm.doc"
    doc.write_text(serialize(Document("closedmodule", bad)), encoding="utf-8")
    for argv in (["construct", str(doc), "--op", "module-to-cylinder",
                  "-o", str(tmp_path / "cyl.doc")],
                 ["roundtrip", str(doc), "--pair", "module-cylinder"]):
        out = io.StringIO()
        assert cli(argv, out=out) == 2, out.getvalue()
        assert (f"the closedmodule document fails {first.law} at ({', '.join(first.site)})"
                in out.getvalue())
        assert "engine bug" not in out.getvalue()


def test_cylinder_to_module_names_a_missing_cylinder_object(tmp_path, self_cyc3):
    # a cylinder without its (*, *) row: construct exits 2 with the message
    # check gives, not a KeyError traceback
    import io
    import json

    from encat.cli import cli
    from encat.interface import Document, serialize

    payload = json.loads(serialize(Document("cylinder", module_to_cylinder(self_cyc3.tensorClosed))))
    payload["body"]["cylinder"] = []
    doc = tmp_path / "cyl.doc"
    doc.write_text(json.dumps(payload), encoding="utf-8")
    for argv in (["check", str(doc)],
                 ["construct", str(doc), "--op", "cylinder-to-module",
                  "-o", str(tmp_path / "module.doc")]):
        out = io.StringIO()
        assert cli(argv, out=out) == 2, out.getvalue()
        assert "cylinder object missing/undeclared at ('*', '*')" in out.getvalue()


def test_bimodule_completion_blames_an_invalid_closed_module(tmp_path, self_cyc3):
    # the psi entry 0 |-> 1 breaks the cotensor adjunction, so a transport
    # has no unique preimage: construct says which law fails (exit 2), as
    # check does, and reports no construction failure (exit 3)
    import io

    from encat.cli import cli
    from encat.interface import Document, serialize
    from encat.vmodule import check_closed_module

    psi = {key: dict(table) for key, table in self_cyc3.psi.items()}
    psi[("*", "*", "*")]["0"] = "1"
    bad = dataclasses.replace(self_cyc3, psi=psi)
    first = check_closed_module(bad)[0]
    assert first.law == "moduleclosed.naturality"
    doc = tmp_path / "cm.doc"
    doc.write_text(serialize(Document("closedmodule", bad)), encoding="utf-8")
    out = io.StringIO()
    assert cli(["construct", str(doc), "--op", "bimodule-complete",
                "-o", str(tmp_path / "bm.doc")], out=out) == 2, out.getvalue()
    assert (f"the closedmodule document fails moduleclosed.naturality "
            f"at ({', '.join(first.site)})" in out.getvalue())
    assert "construction failed" not in out.getvalue()


def test_a_partial_cotensor_object_table_is_reported_not_read(tmp_path, self_cyc3):
    # the reversed side's action is the cotensor: with an object missing it
    # cannot be read, so the checks stop at moduleclosed.cotensor.total and
    # construct names that law (exit 2)
    import io

    from encat.cli import cli
    from encat.core import pair_id
    from encat.interface import Document, serialize
    from encat.vmodule import ClosedBimoduleData, check_closed_module

    bm = bimodule_completion(self_cyc3)
    cot = self_cyc3.cotensor
    bad = dataclasses.replace(self_cyc3, cotensor=dataclasses.replace(cot, onObjects={}))
    laws = [(r.law, r.site) for r in check_closed_module(bad)]
    assert laws == [("moduleclosed.cotensor.total", (pair_id("*", "*"),))]
    assert [(r.law, r.site) for r in check_closed_bimodule(
        ClosedBimoduleData(bad, bm.comodAssoc, bm.comodLunit))] == laws
    doc = tmp_path / "cm.doc"
    doc.write_text(serialize(Document("closedmodule", bad)), encoding="utf-8")
    out = io.StringIO()
    assert cli(["construct", str(doc), "--op", "bimodule-complete",
                "-o", str(tmp_path / "bm.doc")], out=out) == 2, out.getvalue()
    assert ("the closedmodule document fails moduleclosed.cotensor.total at ((*,*))"
            in out.getvalue())


def test_the_tensored_check_builds_no_self_enriched_base(trop4):
    """``check_tensored`` composes the hom-functor components it needs
    directly: the library has no self-enriched base to build, only the
    test reference does."""
    td = cylinder_to_tensored(self_vstructure(trop4), self_cylinder(trop4))
    assert not hasattr(vcat, "self_enriched")
    assert check_tensored(td) == []
