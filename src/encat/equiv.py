"""The constructive correspondences between cylinder structures, tensor
assignments on the associated enriched category, and tensor-closed modules,
plus the completion of a closed module to a closed bimodule.

Every construction assumes lawful input, raising its own error otherwise (to
judge the input is its checker's job); it is deterministic, and the inverse
direction reproduces the input as an exact table equality.  Yoneda-style
extractions (module associator and unitor, comodule structure) keep the one
candidate that represents the family, each judged by ``YONEDA_LAWS`` up to its
first failing probe; ``cylinder_to_module`` judges none on a thin cover.
"""

from __future__ import annotations

from itertools import product

from .core import (
    Mor,
    Obj,
    Preimages,
    WitnessError,
    assert_derived,
    derived_law,
    holds,
    morphism_inverse_checked,
    opposite_category,
    preimage,
)
from .monoidal import transpose_pi_inv, varpi_inv
from .vcat import TensoredData
from .vmodule import (
    ClosedBimoduleData,
    ClosedVModuleData,
    TensorClosedModuleData,
    VModuleData,
    _assoc_transport,
    _unit_transport,
    dual_tensorclosed,
    induced_vstructure,
    module_phibar,
)
from .vstruct import (
    CylinderAssignment,
    VStructureData,
    associated_vcategory,
    _hom_first,
    induced_tensor_bifunctor,
    recorded,
)


def cylinder_to_tensored(vs: VStructureData, cyl: CylinderAssignment) -> TensoredData:
    """Read a cylinder assignment as a tensor assignment on the associated
    enriched category; the adjunct family and the objects carry over."""
    return TensoredData(
        vcat=associated_vcategory(vs),
        tensorObj=dict(cyl.tensor_obj),
        phibar=dict(cyl.phibar))


def tensored_to_cylinder(vcat_data, td: TensoredData) -> CylinderAssignment:
    """Recover the coevaluation elements from the adjunct family and the
    enriched units."""
    m = vcat_data.baseV
    base = m.base
    alpha = {}
    for (k, x), kx in td.tensorObj.items():
        t = base.compose(vcat_data.j(kx), td.component(k, x, kx))
        alpha[(k, x)] = varpi_inv(m, t, k, vcat_data.hom(x, kx))
    return CylinderAssignment(tensor_obj=dict(td.tensorObj), alpha=alpha,
                              phibar=dict(td.phibar))


def module_to_cylinder(tc: TensorClosedModuleData
                       ) -> tuple[VStructureData, CylinderAssignment]:
    """From a tensor-closed module to its hom structure with cylinder: the
    action provides the objects, the adjunction units the coevaluations, and
    the internal adjuncts the isomorphism family."""
    mod = tc.module
    m = mod.baseV
    m.require_closed()
    s = mod.baseS
    vs = induced_vstructure(tc)
    tensor_obj = {}
    alpha = {}
    phibar = {}
    for k in m.base.objects:
        for x in s.objects:
            kx = mod.act_obj(k, x)
            tensor_obj[(k, x)] = kx
            alpha[(k, x)] = tc.phi_of(k, x, kx, s.id_(kx))
            for y in s.objects:
                phibar[(k, x, y)] = module_phibar(tc, k, x, y)
    return vs, CylinderAssignment(tensor_obj=tensor_obj, alpha=alpha, phibar=phibar)


def _module_phi_tables(vs: VStructureData, cyl: CylinderAssignment) -> dict:
    """The adjunction bijections of the module induced by a cylinder, computed
    along the element-composition route and cross-checked against the
    adjunct-transport route."""
    m = vs.baseV
    base = m.base
    phi = {(k, x, y): {f: base.compose(morphism_inverse_checked(base, m.l(k)),
                                       m.tmor(vs.phi_of(kx, y, f), cyl.alpha[(k, x)]),
                                       vs.b(x, kx, y)) for f in vs.baseS.hom(kx, y)}
           for (k, x), kx in cyl.tensor_obj.items() for y in vs.baseS.objects}
    assert_derived(ADJUNCTION_ROUTE_LAWS, vs, cyl, phi)
    return phi


# The element-composition route agrees with the adjunct-transport route.
ADJUNCTION_ROUTE_LAWS = (_hom_first(derived_law("adjunction routes",
                lambda vs, cyl, phi: ((*key, f) for key, table in phi.items() for f in table),
                lambda vs, cyl, phi, k, x, y, f: phi[(k, x, y)][f],
                lambda vs, cyl, phi, k, x, y, f: varpi_inv(vs.baseV, vs.baseV.base.compose(
                    vs.phi_of(cyl.tensor_obj[(k, x)], y, f), cyl.phibar[(k, x, y)]),
                    k, vs.hom_obj(x, y))), ("tensor", "structure", "closed")),)


# h : src -> dst represents the family at the probe (Y, g : dst -> Y) when g . h = family(Y, g),
# on (vs, cyl, S, family, h).  Given the records, phi at (K, X, Y) lands in Hom_V(K, hom(X, Y)),
# as large as Hom_S(K (x) X, Y): on a thin S the family is total and both sides are equal.
_PROBE = derived_law("yoneda probe",
    lambda vs, cyl, s, family, h: ((y, g) for y in s.objects for g in s.hom(s.dst(h), y)),
    lambda vs, cyl, s, family, h, y, g: s.then(h, g),
    lambda vs, cyl, s, family, h, y, g: family(y, g))
YONEDA_LAWS = (_hom_first(_PROBE, ("tensor", "structure", "closed"), cat=lambda *data: data[2]),)


def _yoneda_unique_pre(laws, vs, cyl, s, src: Obj, dst: Obj, family, what: str) -> Mor:
    """The unique h : src -> dst with family(Y, g) = g . h for all probes g : dst -> Y,
    each candidate judged by ``laws`` up to its first failing probe (none on their cover)."""
    candidates = [h for h in s.hom(src, dst) if holds(laws, vs, cyl, s, family, h)]
    if len(candidates) != 1:
        raise WitnessError(f"{what}: {len(candidates)} witnesses representing the family",
                           count=len(candidates))
    return candidates[0]


def cylinder_to_module(vs: VStructureData,
                       cyl: CylinderAssignment) -> TensorClosedModuleData:
    """From a cylinder to a tensor-closed module: the induced action, the
    element-route adjunction tables, and structure isomorphisms extracted by
    representing the transported hom families.  The cylinder's derived laws
    read its "cylinder" record (:func:`~encat.vstruct.recorded`)."""
    m = vs.baseV
    m.require_closed()
    base = m.base
    s = vs.baseS
    cyl = recorded(vs, cyl)
    action = induced_tensor_bifunctor(vs, cyl)
    phi = _module_phi_tables(vs, cyl)
    fibres = {key: Preimages(table) for key, table in phi.items()}
    assoc = {}
    for k, l, x in product(base.objects, base.objects, s.objects):
        kl = m.tobj(k, l)
        lx = cyl.tensor_obj[(l, x)]
        klx = cyl.tensor_obj[(kl, x)]
        k_lx = cyl.tensor_obj[(k, lx)]

        def family(y: Obj, g: Mor, k=k, l=l, x=x, kl=kl, lx=lx) -> Mor:
            t = base.compose(phi[(k, lx, y)][g], cyl.phibar[(l, x, y)])
            t = transpose_pi_inv(m, t, l, vs.hom_obj(x, y))
            return preimage(fibres, (kl, x, y), t, "induced adjunction")

        assoc[(k, l, x)] = _yoneda_unique_pre(YONEDA_LAWS, vs, cyl, s, klx, k_lx, family,
                                              f"module associator at ({k!r}, {l!r}, {x!r})")

    lunit = {}
    for x in s.objects:
        def lfamily(y: Obj, g: Mor, x=x) -> Mor:
            return preimage(fibres, (m.unit, x, y), vs.phi_of(x, y, g), "induced adjunction")

        lunit[x] = _yoneda_unique_pre(YONEDA_LAWS, vs, cyl, s, cyl.tensor_obj[(m.unit, x)], x,
                                      lfamily, f"module unitor at {x!r}")

    module = VModuleData(baseV=m, baseS=s, action=action, assoc=assoc, lunit=lunit)
    return TensorClosedModuleData(module=module, homFunctor=vs.homFunctor, phi=phi)


def bimodule_completion(cm: ClosedVModuleData) -> ClosedBimoduleData:
    """Extend a closed module to the unique closed bimodule: the comodule
    structure morphisms are extracted by representing the adjoint-transport
    families (by post-composition, so pre-composition in the opposite
    category), with brute-force uniqueness at every site."""
    tc = cm.tensorClosed
    m = tc.module.baseV
    m.require_symmetry()
    m.require_closed()
    base = m.base
    s = tc.module.baseS
    s_op = opposite_category(s)
    dual = dual_tensorclosed(cm)
    comod_assoc, comod_lunit = {}, {}
    for k, l, x in product(base.objects, base.objects, s.objects):
        src = cm.cot_obj(k, cm.cot_obj(l, x))
        dst = cm.cot_obj(m.tobj(k, l), x)
        comod_assoc[(k, l, x)] = _yoneda_unique_pre(
            (_PROBE,), None, None, s_op, dst, src,
            lambda y, g, k=k, l=l, x=x: _assoc_transport(cm, dual, m, s, k, l, x, y, g),
            f"comodule associator at ({k!r}, {l!r}, {x!r})")
    for x in s.objects:
        comod_lunit[x] = _yoneda_unique_pre(
            (_PROBE,), None, None, s_op, cm.cot_obj(m.unit, x), x,
            lambda y, g, x=x: _unit_transport(cm, dual, m, s, x, y, g),
            f"comodule unitor at {x!r}")
    return ClosedBimoduleData(closedModule=cm, comodAssoc=comod_assoc,
                              comodLunit=comod_lunit)
