import dataclasses
import io
import json

import pytest

import encat.vstruct as vst
from encat.cli import cli
from encat.core import (
    MissingTableError,
    WitnessError,
    pair_id,
    structural_equal,
)
from encat.vcat import underlying_category
from encat.vmodule import dual_tensorclosed, induced_vstructure
from encat.vstruct import (
    CylinderAssignment,
    associated_vcategory,
    check_cylinder,
    check_path,
    check_vstructure,
    dualize_path,
    induced_tensor_bifunctor,
    opposite_vstructure,
)
from tests.enriched_reference import cylinder_unique_iso, self_cylinder, self_path, self_vstructure


def mutate_comp(vs, key, value):
    comp = dict(vs.comp)
    comp[key] = value
    return dataclasses.replace(vs, comp=comp)


def mutate_hom_mor(vs, key, value):
    table = dict(vs.homFunctor.onMorphisms)
    table[pair_id(*key)] = value
    return dataclasses.replace(
        vs, homFunctor=dataclasses.replace(vs.homFunctor, onMorphisms=table))


def two_object_vstructure(cyc3):
    """The hom structure carried by the two-object point-enriched category."""
    from tests.test_vcat import two_object_cyc_vcat

    _cat, vs = underlying_category(two_object_cyc_vcat(cyc3))
    return vs


def test_self_vstructures_pass(bool_m, trop3, cyc3, poset_cm):
    for m in (bool_m, trop3, cyc3):
        assert check_vstructure(self_vstructure(m)) == []
    assert check_vstructure(induced_vstructure(poset_cm.tensorClosed)) == []


def test_internal_composition_mutation_posetal_redirect(trop3):
    vs = self_vstructure(trop3)
    bad = mutate_comp(vs, ("0", "1", "2"), "id:0")
    laws = {r.law for r in check_vstructure(bad)}
    assert "vstructure.assoc" in laws


def test_internal_composition_mutation_parallel(cyc3):
    vs = two_object_vstructure(cyc3)
    assert check_vstructure(vs) == []
    bad = mutate_comp(vs, ("P", "Q", "P"), "1")
    reports = check_vstructure(bad)
    assoc = [r for r in reports if r.law == "vstructure.assoc"]
    assert assoc and any(r.lhs != r.rhs and r.lhs is not None for r in assoc)


def test_action_condition_mutations(cyc3):
    vs = self_vstructure(cyc3)
    bad_cov = mutate_hom_mor(vs, ("0", "1"), "2")
    assert "vstructure.left-action" in {r.law for r in check_vstructure(bad_cov)}
    bad_con = mutate_hom_mor(vs, ("1", "0"), "2")
    assert "vstructure.right-action" in {r.law for r in check_vstructure(bad_con)}


def test_associated_vcategory_units(cyc3):
    vs = self_vstructure(cyc3)
    vc = associated_vcategory(vs)
    assert vc.unit["*"] == "0"


def test_cylinder_checks_and_mutation(bool_m, trop3, cyc3):
    for m in (bool_m, trop3, cyc3):
        vs = self_vstructure(m)
        assert check_cylinder(vs, self_cylinder(m)) == []
    vs = self_vstructure(cyc3)
    cyl = self_cylinder(cyc3)
    alpha = dict(cyl.alpha)
    alpha[("*", "*")] = "1"
    bad = dataclasses.replace(cyl, alpha=alpha)
    reports = check_cylinder(vs, bad)
    assert [r.law for r in reports] == ["cylinder.cp1-1"]
    assert reports[0].site == ("*", "*", "*")


def test_path_checks_and_mutation(bool_m, cyc3):
    for m in (bool_m, cyc3):
        vs = self_vstructure(m)
        assert check_path(vs, self_path(m)) == []
    vs = self_vstructure(cyc3)
    pth = self_path(cyc3)
    beta = dict(pth.beta)
    beta[("*", "*")] = "1"
    bad = dataclasses.replace(pth, beta=beta)
    reports = check_path(vs, bad)
    assert "path.cp2-1-25" in {r.law for r in reports}


def test_path_agrees_with_reversed_cylinder(bool_m, trop3, cyc3):
    for m in (bool_m, trop3, cyc3):
        vs = self_vstructure(m)
        pth = self_path(m)
        dual = dualize_path(pth)
        assert check_cylinder(opposite_vstructure(vs), dual) == []


def test_opposite_vstructure_involution(bool_m, trop3, cyc3):
    for m in (bool_m, trop3, cyc3):
        vs = self_vstructure(m)
        ovs = opposite_vstructure(vs)
        assert check_vstructure(ovs) == []
        assert structural_equal(opposite_vstructure(ovs), vs)
    vs3 = self_vstructure(cyc3)
    assert structural_equal(opposite_vstructure(vs3), vs3)  # abelian


def test_opposite_vstructure_copies_verbatim(trop3, self_trop3):
    vs = self_vstructure(trop3)
    # a missing entry stays missing, at its swapped key
    hom = vs.homFunctor
    on_morphisms = {k: v for k, v in hom.onMorphisms.items() if k != pair_id("m:1:0", "id:2")}
    ovs = opposite_vstructure(dataclasses.replace(
        vs, homFunctor=dataclasses.replace(hom, onMorphisms=on_morphisms)))
    assert set(opposite_vstructure(vs).homFunctor.onMorphisms) - set(
        ovs.homFunctor.onMorphisms) == {pair_id("id:2", "m:1:0")}
    comp = {k: v for k, v in vs.comp.items() if k != ("0", "1", "2")}
    ovs = opposite_vstructure(dataclasses.replace(vs, comp=comp))
    assert set(vs.comp) - set(ovs.comp) == {("2", "1", "0")}
    # a composite that cannot be formed is left out, not raised
    ovs = opposite_vstructure(mutate_comp(vs, ("0", "1", "2"), "id:0"))
    assert ("2", "1", "0") not in ovs.comp
    # the closed module's reversed side shares the reversed hom functor
    tc = self_trop3.tensorClosed
    assert structural_equal(dual_tensorclosed(self_trop3).homFunctor,
                            opposite_vstructure(induced_vstructure(tc)).homFunctor)


def test_cylinder_check_on_an_unreadable_structure_raises_its_error(trop3):
    # the square never reads b(1, 0, 0), but check_cylinder judges the
    # structure first, and check_vstructure cannot read it
    vs = self_vstructure(trop3)
    comp = {k: v for k, v in vs.comp.items() if k != ("1", "0", "0")}
    broken = dataclasses.replace(vs, comp=comp)
    for check in (lambda: check_cylinder(broken, self_cylinder(trop3)),
                  lambda: check_vstructure(broken)):
        with pytest.raises(MissingTableError, match="internal composition missing"):
            check()


def test_cylinder_unique_iso_identity(bool_m, trop3, cyc3):
    for m in (bool_m, trop3, cyc3):
        vs = self_vstructure(m)
        cyl = self_cylinder(m)
        for k in m.base.objects:
            for x in m.base.objects:
                f = cylinder_unique_iso(vs, cyl, cyl, k, x)
                assert f == m.base.id_(cyl.tensor_obj[(k, x)])


def test_cylinder_unique_iso_conjugated_copy(cyc3):
    # transport the chosen cylinder along the automorphism with label 1
    vs = self_vstructure(cyc3)
    cyl = self_cylinder(cyc3)
    h = "1"
    alpha = {("*", "*"): cyc3.base.compose(
        cyl.alpha[("*", "*")], vs.hom_mor(cyc3.base.id_("*"), h))}
    phibar = {("*", "*", "*"): cyc3.base.compose(
        vs.hom_mor(h, cyc3.base.id_("*")), cyl.phibar[("*", "*", "*")])}
    other = CylinderAssignment(tensor_obj=dict(cyl.tensor_obj),
                               alpha=alpha, phibar=phibar)
    assert check_cylinder(vs, other) == []
    assert cylinder_unique_iso(vs, cyl, other, "*", "*") == h
    # exhaustive count is exactly one
    candidates = [g for g in cyc3.base.hom("*", "*")
                  if cyc3.base.compose(cyl.alpha[("*", "*")],
                                       vs.hom_mor("0", g)) == alpha[("*", "*")]]
    assert candidates == [h]


def test_induced_tensor_bifunctor_values(bool_m, trop3):
    vs = self_vstructure(bool_m)
    fn = induced_tensor_bifunctor(vs, self_cylinder(bool_m))
    assert fn.mor(pair_id("id:1", "id:1")) == "id:1"
    assert fn.mor(pair_id("m01", "id:1")) == "m01"

    vs3 = self_vstructure(trop3)
    fn3 = induced_tensor_bifunctor(vs3, self_cylinder(trop3))
    assert fn3.mor(pair_id("m:2:1", "id:1")) == "id:2"


def test_induced_tensor_witness_uniqueness(trop3):
    vs = self_vstructure(trop3)
    cyl = self_cylinder(trop3)
    s = vs.baseS
    base = trop3.base
    for u in base.mor_ids():
        for x in s.objects:
            k, l = base.src(u), base.dst(u)
            element = base.compose(u, cyl.alpha[(l, x)])
            witnesses = [h for h in s.hom(cyl.tensor_obj[(k, x)], cyl.tensor_obj[(l, x)])
                         if base.compose(cyl.alpha[(k, x)],
                                         vs.hom_mor(s.id_(x), h)) == element]
            assert len(witnesses) == 1


def test_invalid_cylinder_is_a_witness_error(cyc3):
    vs = self_vstructure(cyc3)
    cyl = self_cylinder(cyc3)
    alpha = dict(cyl.alpha)
    alpha[("*", "*")] = "1"
    broken = dataclasses.replace(cyl, alpha=alpha)
    with pytest.raises(WitnessError):
        # the adjunct transport and the defining square now disagree
        induced_tensor_bifunctor(vs, broken)


def test_a_cylinder_check_sweeps_its_hom_structure_once(monkeypatch, tmp_path):
    """``encat check`` on a cylinder document reports the structure's laws
    and then asks whether it passes before the derived law runs: both read
    one verdict, kept on the structure."""
    module, cylinder = str(tmp_path / "self.json"), str(tmp_path / "cyl.json")
    assert cli(["instance", "self(trop(3))", "-o", module], out=io.StringIO()) == 0
    assert cli(["construct", module, "--op", "module-to-cylinder", "-o", cylinder],
               out=io.StringIO()) == 0
    calls = []
    sweep = vst._vstructure_reports
    monkeypatch.setattr(vst, "_vstructure_reports", lambda vs: calls.append(vs) or sweep(vs))
    out = io.StringIO()
    assert cli(["check", cylinder], out=out) == 0
    assert out.getvalue() == "OK: all checks passed\n" and len(calls) == 1


@pytest.mark.parametrize("phibar_at_0", [None, "id:1"])
def test_a_partial_closed_hom_of_v_is_named_whatever_the_adjuncts(tmp_path, phibar_at_0):
    """V's internal hom is read for every adjunct entry, so a cylinder whose
    V lacks hom(0, 0) is a missing table (exit 2) whatever its entries are,
    also when every adjunct at K = 0 is the misshapen ``id:1``."""
    module, cylinder = str(tmp_path / "self.json"), tmp_path / "cyl.json"
    assert cli(["instance", "self(trop(3))", "-o", module], out=io.StringIO()) == 0
    assert cli(["construct", module, "--op", "module-to-cylinder", "-o", str(cylinder)],
               out=io.StringIO()) == 0
    doc = json.loads(cylinder.read_text(encoding="utf-8"))
    hom = doc["body"]["vstructure"]["base_v"]["closed"]["hom_obj"]
    hom.remove(next(row for row in hom if row[:2] == ["0", "0"]))
    for k, _, entry in doc["body"]["cylinder"]:
        if k == "0" and phibar_at_0:
            for row in entry["phibar"]:
                row[1] = phibar_at_0
    cylinder.write_text(json.dumps(doc), encoding="utf-8")
    out = io.StringIO()
    assert cli(["check", str(cylinder)], out=out) == 2
    assert out.getvalue() == "error: hom object table missing ('0', '0')\n"
