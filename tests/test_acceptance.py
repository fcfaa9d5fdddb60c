"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All criteria are exact (table equality or empty report lists); there are no
numerical tolerances anywhere.  Every criterion must finish at desk scale,
well under ten seconds.
"""

import dataclasses
import io
import time
from contextlib import contextmanager

from encat.cli import LAW_REGISTRY, cli
from encat.core import pair_id, rename_category, structural_equal, validate_category
from encat.equiv import (
    bimodule_completion,
    cylinder_to_module,
    cylinder_to_tensored,
    module_to_cylinder,
    tensored_to_cylinder,
)
from encat.instances import build_bool, build_cyc, build_trop, build_poset_module, module_self
from encat.interface import Document, parse, serialize
from encat.monoidal import (
    check_closed,
    check_monoidal,
    check_symmetry,
    hom_functor,
    internal_pi_bar,
    iota,
    self_cylinder,
    self_path,
    self_vstructure,
)
from encat.vcat import element_id, underlying_category
from encat.vmodule import (
    check_closed_bimodule,
    check_closed_module,
    check_tensor_closed,
    check_vmodule,
    enriched_action,
    module_phibar,
)
from encat.vstruct import (
    VStructureData,
    associated_vcategory,
    check_vstructure,
    cylinder_unique_iso,
)


@contextmanager
def criterion(number: int, name: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"criterion {number} exceeded the time budget"
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s)")


def _monoidal_instances():
    return [("bool", build_bool()), ("trop(3)", build_trop(3)),
            ("trop(4)", build_trop(4)), ("cyc(1)", build_cyc(1)),
            ("cyc(2)", build_cyc(2)), ("cyc(3)", build_cyc(3))]


def _module_instances():
    return [("poset-diamond", build_poset_module()),
            ("self(trop(3))", module_self(build_trop(3))),
            ("self(cyc(3))", module_self(build_cyc(3)))]


def test_criterion_1_coherence_suite():
    with criterion(1, "coherence suite"):
        for name, m in _monoidal_instances():
            assert validate_category(m.base) == [], name
            assert check_monoidal(m) == [], name
            assert check_symmetry(m) == [], name
            assert check_closed(m) == [], name


def test_criterion_2_derived_law_oracle():
    # every operation below runs its embedded derived checks, which raise a
    # dedicated engine-bug error rather than reporting an input failure
    with criterion(2, "derived-law oracle"):
        for name, m in _monoidal_instances():
            assert check_monoidal(m) == []
            assert check_closed(m) == []  # evaluation squares, unit coordinate
            hom_functor(m)
            for x in m.base.objects:
                iota(m, x)
                for y in m.base.objects:
                    for z in m.base.objects:
                        internal_pi_bar(m, x, y, z)
        for name, cm in _module_instances():
            tc = cm.tensorClosed
            assert check_vmodule(tc.module) == []       # unit absorption
            assert check_tensor_closed(tc) == []        # evaluation square
            enriched_action(tc)                          # action laws
            s = tc.module.baseS
            for k in tc.module.baseV.base.objects:
                for x in s.objects:
                    for y in s.objects:
                        module_phibar(tc, k, x, y)       # characterization;
                        # its self-module identity is a reference in test_vmodule


def _rename_vstructure(vs: VStructureData, mor_map) -> VStructureData:
    renamed_s = rename_category(vs.baseS, mor_map=mor_map)
    fn = vs.homFunctor
    on_morphisms = {}
    for f in vs.baseS.mor_ids():
        for g in vs.baseS.mor_ids():
            on_morphisms[pair_id(mor_map[f], mor_map[g])] = \
                fn.onMorphisms[pair_id(f, g)]
    from encat.core import FunctorData, opposite_category, product_category

    renamed_fn = FunctorData(
        product_category(opposite_category(renamed_s), renamed_s),
        vs.baseV.base, dict(fn.onObjects), on_morphisms)
    phi = {key: {mor_map[f]: w for f, w in table.items()}
           for key, table in vs.phi.items()}
    return VStructureData(baseS=renamed_s, baseV=vs.baseV,
                          homFunctor=renamed_fn, comp=dict(vs.comp), phi=phi)


def test_criterion_3_structure_roundtrip():
    with criterion(3, "hom-structure round trip"):
        for m in (build_bool(), build_trop(3), build_cyc(3)):
            vs = self_vstructure(m)
            vc = associated_vcategory(vs)
            cat2, vs2 = underlying_category(vc)
            # canonical renaming: each morphism goes to its element name
            mor_map = {f: element_id(vs.baseS.src(f), vs.baseS.dst(f),
                                     vs.phi_of(vs.baseS.src(f), vs.baseS.dst(f), f))
                       for f in vs.baseS.mor_ids()}
            assert structural_equal(rename_category(vs.baseS, mor_map=mor_map), cat2)
            assert structural_equal(_rename_vstructure(vs, mor_map), vs2)
            assert structural_equal(associated_vcategory(vs2), vc)


def test_criterion_4_tensored_roundtrip():
    with criterion(4, "tensor-assignment round trip"):
        for name, m in _monoidal_instances():
            vs = self_vstructure(m)
            cyl = self_cylinder(m)
            td = cylinder_to_tensored(vs, cyl)
            back = tensored_to_cylinder(associated_vcategory(vs), td)
            assert structural_equal(back, cyl), name


def test_criterion_5_module_bijection():
    with criterion(5, "module/cylinder bijection"):
        for name, cm in _module_instances():
            tc = cm.tensorClosed
            assert structural_equal(cylinder_to_module(*module_to_cylinder(tc)), tc), name
            vs, cyl = module_to_cylinder(tc)
            assert structural_equal(module_to_cylinder(cylinder_to_module(vs, cyl)),
                                    (vs, cyl)), name


def test_criterion_6_bimodule_completion():
    with criterion(6, "bimodule completion"):
        for name, cm in [("poset-diamond", build_poset_module()),
                         ("self(trop(3))", module_self(build_trop(3)))]:
            bm = bimodule_completion(cm)
            assert check_closed_bimodule(bm) == [], name

            # independent candidate enumeration at every extraction site
            from encat.vmodule import _assoc_transport, _unit_transport, dual_tensorclosed

            tc = cm.tensorClosed
            m = tc.module.baseV
            s = tc.module.baseS
            probe = dual_tensorclosed(cm)  # the reversed side, without comodule tables
            for k in m.base.objects:
                for l in m.base.objects:
                    for x in s.objects:
                        src = cm.cot_obj(k, cm.cot_obj(l, x))
                        dst = cm.cot_obj(m.tobj(k, l), x)
                        witnesses = [
                            h for h in s.hom(src, dst)
                            if all(s.then(g, h) ==
                                   _assoc_transport(cm, probe, m, s, k, l, x, y, g)
                                   for y in s.objects for g in s.hom(y, src))]
                        assert witnesses == [bm.comodAssoc[(k, l, x)]], name
            for x in s.objects:
                witnesses = [
                    h for h in s.hom(x, cm.cot_obj(m.unit, x))
                    if all(s.then(g, h) == _unit_transport(cm, probe, m, s, x, y, g)
                           for y in s.objects for g in s.hom(y, x))]
                assert witnesses == [bm.comodLunit[x]], name

            again = bimodule_completion(bm.closedModule)
            assert structural_equal(again, bm), name


def test_criterion_7_uniqueness_witness_counts():
    with criterion(7, "uniqueness witness counts"):
        for name, m in _monoidal_instances():
            vs = self_vstructure(m)
            cyl = self_cylinder(m)
            s = vs.baseS
            base = m.base
            for k in base.objects:
                for x in s.objects:
                    f = cylinder_unique_iso(vs, cyl, cyl, k, x)
                    assert s.is_identity(f), name
            # brute-force counts for both partial applications of the action
            for u in base.mor_ids():
                for x in s.objects:
                    kk, ll = base.src(u), base.dst(u)
                    element = base.compose(u, cyl.alpha[(ll, x)])
                    count = sum(
                        1 for h in s.hom(cyl.tensor_obj[(kk, x)],
                                         cyl.tensor_obj[(ll, x)])
                        if base.compose(cyl.alpha[(kk, x)],
                                        vs.hom_mor(s.id_(x), h)) == element)
                    assert count == 1, name
            for v in s.mor_ids():
                for k in base.objects:
                    x, y = s.src(v), s.dst(v)
                    ky = cyl.tensor_obj[(k, y)]
                    element = base.compose(cyl.alpha[(k, y)], vs.hom_mor(v, s.id_(ky)))
                    count = sum(
                        1 for h in s.hom(cyl.tensor_obj[(k, x)], ky)
                        if base.compose(cyl.alpha[(k, x)],
                                        vs.hom_mor(s.id_(x), h)) == element)
                    assert count == 1, name


def _mutation_table():
    from tests.test_vcat import two_object_cyc_vcat
    from tests.test_vmodule import tower_module

    bool_m = build_bool()
    cyc2 = build_cyc(2)
    cyc3 = build_cyc(3)
    poset = build_poset_module()
    self_cyc3 = module_self(cyc3)

    def replace_table(obj, field, key, value):
        table = dict(getattr(obj, field))
        table[key] = value
        return dataclasses.replace(obj, **{field: table})

    def braid(m, value):
        return dataclasses.replace(
            m, symmetry=dataclasses.replace(m.symmetry,
                                            braid={("*", "*"): value}))

    def hom_entry(vs, key, value):
        table = dict(vs.homFunctor.onMorphisms)
        table[pair_id(*key)] = value
        return dataclasses.replace(
            vs, homFunctor=dataclasses.replace(vs.homFunctor, onMorphisms=table))

    from encat.vcat import check_vcategory
    from encat.vstruct import check_cylinder as ccyl, check_path as cpath

    vcat2 = two_object_cyc_vcat(cyc3)
    _cat, vstruct2 = underlying_category(vcat2)
    self_vs3 = self_vstructure(cyc3)
    bm_cyc = bimodule_completion(self_cyc3)
    bm_poset = bimodule_completion(poset)

    def mutated_psi(bm, key, element, value):
        psi = {k: dict(t) for k, t in bm.closedModule.psi.items()}
        psi[key][element] = value
        return dataclasses.replace(
            bm, closedModule=dataclasses.replace(bm.closedModule, psi=psi))

    return [
        ("pentagon", lambda: check_monoidal(
            replace_table(cyc3, "assoc", ("*", "*", "*"), "1"))),
        ("triangle", lambda: check_monoidal(
            replace_table(cyc3, "lunit", "*", "1"))),
        ("symmetry.invol", lambda: check_symmetry(braid(cyc3, "1"))),
        ("symmetry.hexagon", lambda: check_symmetry(braid(cyc2, "1"))),
        ("symmetry.unit", lambda: check_symmetry(braid(cyc3, "1"))),
        ("closed.bijection", lambda: check_closed(dataclasses.replace(
            bool_m, closed=dataclasses.replace(
                bool_m.closed,
                hom_obj={**dict(bool_m.closed.hom_obj), ("1", "0"): "1"})))),
        ("vcat.assoc", lambda: check_vcategory(
            replace_table(vcat2, "comp", ("P", "Q", "P"), "1"))),
        ("vcat.unit", lambda: check_vcategory(replace_table(
            associated_vcategory(self_vs3), "unit", "*", "1"))),
        ("vstructure.assoc", lambda: check_vstructure(
            replace_table(vstruct2, "comp", ("P", "Q", "P"), "1"))),
        ("vstructure.left-action", lambda: check_vstructure(
            hom_entry(self_vs3, ("0", "1"), "2"))),
        ("vstructure.right-action", lambda: check_vstructure(
            hom_entry(self_vs3, ("1", "0"), "2"))),
        ("cylinder.cp1-1", lambda: ccyl(self_vs3, dataclasses.replace(
            self_cylinder(cyc3), alpha={("*", "*"): "1"}))),
        ("path.cp2-1-25", lambda: cpath(self_vs3, dataclasses.replace(
            self_path(cyc3), beta={("*", "*"): "1"}))),
        ("module.assoc", lambda: check_vmodule(replace_table(
            tower_module(), "assoc", ("1", "1", "s0"), "g:2:2:1"))),
        ("module.unit", lambda: check_vmodule(replace_table(
            self_cyc3.tensorClosed.module, "lunit", "*", "1"))),
        ("moduleclosed.naturality", lambda: check_closed_module(
            dataclasses.replace(
                self_cyc3,
                psi={("*", "*", "*"): {"0": "0", "1": "0", "2": "2"}}))),
        ("bimodule.cp2-8-1", lambda: check_closed_bimodule(
            mutated_psi(bm_cyc, ("*", "*", "*"), "0", "1"))),
        ("bimodule.cp2-8-2", lambda: check_closed_bimodule(
            replace_table(bm_cyc, "comodAssoc", ("*", "*", "*"), "1"))),
        ("bimodule.cp2-8-3", lambda: check_closed_bimodule(
            replace_table(bm_cyc, "comodLunit", "*", "1"))),
        ("comodule.assoc", lambda: check_closed_bimodule(
            replace_table(bm_poset, "comodAssoc", ("0", "1", "x"), "id:bot"))),
        ("comodule.unit", lambda: check_closed_bimodule(
            replace_table(bm_poset, "comodLunit", "x", "id:top"))),
    ]


def test_criterion_8_mutation_sensitivity():
    with criterion(8, "mutation sensitivity"):
        table = _mutation_table()
        assert {law for law, _ in table} == set(LAW_REGISTRY)
        for law, run in table:
            reports = run()
            hits = [r for r in reports if r.law == law]
            assert hits, f"mutation for {law} produced no {law} report"
            for r in hits:
                assert isinstance(r.site, tuple)
                well_formed = (r.lhs is not None and r.rhs is not None
                               and r.lhs != r.rhs) or r.witness_count is not None
                assert well_formed, f"ill-formed report for {law}: {r}"


def test_criterion_9_format_stability(tmp_path):
    with criterion(9, "format stability"):
        docs = [Document("monoidal", m) for _n, m in _monoidal_instances()]
        docs += [Document("closedmodule", cm) for _n, cm in _module_instances()]
        for _name, cm in _module_instances():
            vs, cyl = module_to_cylinder(cm.tensorClosed)
            docs.append(Document("cylinder", (vs, cyl)))
            docs.append(Document("vstructure", vs))
        docs.append(Document("bimodule", bimodule_completion(build_poset_module())))
        for doc in docs:
            text = serialize(doc)
            again = parse(text)
            assert structural_equal(again.data, doc.data)
            assert serialize(again) == text

        for idx, (_name, cm) in enumerate(_module_instances()):
            path = tmp_path / f"mod{idx}.doc"
            path.write_text(serialize(Document("closedmodule", cm)),
                            encoding="utf-8")
            out = io.StringIO()
            assert cli(["roundtrip", str(path), "--pair", "module-cylinder"],
                       out=out) == 0
            vs, cyl = module_to_cylinder(cm.tensorClosed)
            cpath_ = tmp_path / f"cyl{idx}.doc"
            cpath_.write_text(serialize(Document("cylinder", (vs, cyl))),
                              encoding="utf-8")
            assert cli(["roundtrip", str(cpath_), "--pair", "cylinder-tensored"],
                       out=out) == 0
