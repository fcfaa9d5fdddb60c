import dataclasses

import pytest

from encat.core import structural_equal, validate_category
from encat.equiv import cylinder_to_tensored
from encat.instances import build_cyc, build_poset_module, build_trop, module_self
from encat.monoidal import varpi
from encat.vcat import (
    VCategoryData,
    check_tensored,
    check_vcategory,
    element_id,
    underlying_category,
)
from encat.vmodule import induced_vstructure
from encat.vstruct import associated_vcategory, check_vstructure
from harness import agree, by_law, mutated, spied
from tests.enriched_reference import (VFunctorData, VNatData, check_vnat, hom_vfunctor,
                                      self_cylinder, self_enriched, self_vstructure)


def two_object_cyc_vcat(cyc3) -> VCategoryData:
    """Two objects, every hom object the single point, zero composition."""
    objs = ("P", "Q")
    return VCategoryData(
        baseV=cyc3,
        objects=objs,
        homObj={(a, b): "*" for a in objs for b in objs},
        comp={(a, b, c): "0" for a in objs for b in objs for c in objs},
        unit={a: "0" for a in objs})


def test_self_enriched_categories_are_valid(bool_m, trop3, cyc3):
    for m in (bool_m, trop3, cyc3):
        assert check_vcategory(self_enriched(m)) == []
        assert check_vcategory(associated_vcategory(self_vstructure(m))) == []


def test_unit_mutation(cyc3):
    vc = self_enriched(cyc3)
    bad = dataclasses.replace(vc, unit={"*": "1"})
    laws = {r.law for r in check_vcategory(bad)}
    assert "vcat.unit" in laws


def test_assoc_mutation_needs_two_objects(cyc3):
    vc = two_object_cyc_vcat(cyc3)
    assert check_vcategory(vc) == []
    comp = dict(vc.comp)
    comp[("P", "Q", "P")] = "1"
    bad = dataclasses.replace(vc, comp=comp)
    reports = check_vcategory(bad)
    assoc = [r for r in reports if r.law == "vcat.assoc"]
    assert assoc and all(r.lhs != r.rhs for r in assoc)
    assert "vcat.unit" not in {r.law for r in reports}


def test_underlying_of_posetal_self_recovers_order(bool_m):
    vc = self_enriched(bool_m)
    cat, vs = underlying_category(vc)
    assert validate_category(cat) == []
    assert check_vstructure(vs) == []
    # hom(a, b) is inhabited exactly when the implication object is the unit
    for a in bool_m.base.objects:
        for b in bool_m.base.objects:
            inhabited = len(cat.hom(a, b)) > 0
            assert inhabited == (bool_m.hom_obj(a, b) == "1")


def test_underlying_of_modular_self_is_the_group_again(cyc3):
    vc = self_enriched(cyc3)
    cat, _vs = underlying_category(vc)
    assert len(cat.hom("*", "*")) == 3
    # oracle: composing witnesses adds their labels modulo 3
    for i in range(3):
        for j in range(3):
            f = element_id("*", "*", str(i))
            g = element_id("*", "*", str(j))
            assert cat.then(f, g) == element_id("*", "*", str((i + j) % 3))


def test_one_object_unit_bookkeeping(bool_m):
    vc = VCategoryData(
        baseV=bool_m, objects=("p",),
        homObj={("p", "p"): "1"},
        comp={("p", "p", "p"): "id:1"},
        unit={"p": "id:1"})
    assert check_vcategory(vc) == []
    cat, _ = underlying_category(vc)
    assert len(cat.hom("p", "p")) == len(bool_m.base.hom("1", "1"))


def test_roundtrip_underlying_then_associated(bool_m, trop3, cyc3):
    for m in (bool_m, trop3, cyc3):
        vc = associated_vcategory(self_vstructure(m))
        _cat, vs2 = underlying_category(vc)
        assert structural_equal(associated_vcategory(vs2), vc)


def identity_vfunctor(vc: VCategoryData) -> VFunctorData:
    return VFunctorData(
        src=vc, dst=vc,
        onObjects={a: a for a in vc.objects},
        onHom={(a, b): vc.baseV.base.id_(vc.hom(a, b))
               for a in vc.objects for b in vc.objects})


def test_hom_vfunctor_values(bool_m, trop3, cyc3):
    assert hom_vfunctor(self_enriched(cyc3), "*").onHom[("*", "*")] == "0"
    # hom(0, -) sends b to the implication 0 => b, always the unit
    fn = hom_vfunctor(self_enriched(bool_m), "0")
    assert fn.onObjects == {"0": "1", "1": "1"}
    fn3 = hom_vfunctor(self_enriched(trop3), "1")
    assert fn3.onObjects == {b: str(max(int(b) - 1, 0)) for b in trop3.base.objects}


def test_vnat_unit_family_is_natural(bool_m, cyc3):
    for m in (bool_m, cyc3):
        vc = associated_vcategory(self_vstructure(m))
        ident = identity_vfunctor(vc)
        nt = VNatData(source=ident, target=ident,
                      components=dict(vc.unit))
        assert check_vnat(nt) == []


def test_vnat_mutation_on_two_object_instance(cyc3):
    vc = two_object_cyc_vcat(cyc3)
    ident = identity_vfunctor(vc)
    nt = VNatData(source=ident, target=ident,
                  components={"P": "0", "Q": "1"})
    reports = check_vnat(nt)
    assert {r.law for r in reports} == {"vnat.square"}


def test_vnat_into_base_oracle_equivalence(cyc3):
    vc = two_object_cyc_vcat(cyc3)
    s_fn = hom_vfunctor(vc, "P")
    good = VNatData(source=s_fn, target=s_fn,
                    components={a: varpi(cyc3, "0") for a in vc.objects})
    assert check_vnat(good) == []
    bad = VNatData(source=s_fn, target=s_fn,
                   components={"P": "1", "Q": "0"})
    assert {r.law for r in check_vnat(bad)} == {"vnat.square"}


def test_tensored_shape_and_iso_reports():
    """Moving 0 (x) 1 of trop(3)'s self tensor assignment to 0 leaves the
    component at (0, 1, 1), reset to the morphism between its new ends, well
    shaped but not invertible, and the one at (0, 1, 2) misshapen."""
    m = build_trop(3)
    td = cylinder_to_tensored(self_vstructure(m), self_cylinder(m))
    assert check_tensored(td) == []
    vc = td.vcat
    (pb,) = m.base.hom(vc.hom("0", "1"), m.hom_obj("0", vc.hom("1", "1")))
    bad = dataclasses.replace(td, tensorObj={**td.tensorObj, ("0", "1"): "0"},
                              phibar={**td.phibar, ("0", "1", "1"): pb})
    assert [(r.law, r.site) for r in check_tensored(bad)] == [
        ("tensored.iso", ("0", "1", "1")), ("tensored.shape", ("0", "1", "2"))]


# The vcategory documents of three closed modules, as ``encat construct --op
# induced-vstructure`` then ``--op associated-vcat`` build them.  self(cyc(3))
# is not thin, and there no thin cover applies.
VCATS = {"self(trop(3))": lambda: module_self(build_trop(3)),
         "poset-diamond": build_poset_module,
         "self(cyc(3))": lambda: module_self(build_cyc(3))}
# Tier-1 compares every VCAT_STRIDE-th mutant, a stride prime to each run of
# |mor| mutants of an entry (3 in bool, 6 in trop(3)); ``-m slow`` all of them.
VCAT_STRIDE = {"self(trop(3))": 7, "poset-diamond": 7, "self(cyc(3))": 1}


def vcategory(name: str) -> VCategoryData:
    return associated_vcategory(induced_vstructure(VCATS[name]().tensorClosed))


def vcat_mutants(vc: VCategoryData):
    """Every single-entry deletion and swap of ``comp``, then of ``unit``."""
    return mutated(vc, {"comp": ("comp",), "unit": ("unit",)}, vc.baseV.base.mor_ids())


def vcat_agree(name: str, stride: int) -> None:
    """``check_vcategory`` on every ``stride``-th single-entry deletion and
    swap of ``comp`` and ``unit`` gives the outcome of the gate-free
    reference; the lawful document judges no site of ``VCATEGORY_LAWS``
    exactly when V is thin."""
    got, seen = spied(check_vcategory, vcategory(name))
    assert got == []
    seen = by_law(seen)
    judged = sum(map(len, seen["vcat.assoc"] + seen["vcat.unit"]))
    assert (judged == 0) == (name != "self(cyc(3))")
    agree(lambda: vcat_mutants(vcategory(name)), check_vcategory, stride)


@pytest.mark.parametrize("name", list(VCATS))
def test_the_vcategory_cover_agrees_with_the_full_sweep(name):
    vcat_agree(name, VCAT_STRIDE[name])


@pytest.mark.slow
@pytest.mark.parametrize("name", list(VCATS))
def test_the_vcategory_cover_agrees_with_the_full_sweep_on_every_mutant(name):
    vcat_agree(name, 1)
