"""The constructive correspondences between cylinder structures, tensor
assignments on the associated enriched category, and tensor-closed modules,
plus the completion of a closed module to a closed bimodule.

Every construction is deterministic, and the inverse direction reproduces the
input as an exact table equality; the round-trip helpers check precisely
that.  Yoneda-style extractions (the module associator, the module unitor,
the comodule structure) evaluate a natural family at the identity and then
verify by brute force that the extracted morphism induces the whole family.
"""

from __future__ import annotations

from .core import (
    EncatError,
    LawFailureError,
    Mor,
    Obj,
    Preimages,
    WitnessError,
    assert_derived,
    derived_law,
    morphism_inverse_checked,
    opposite_category,
    structural_equal,
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
    check_tensor_closed,
    induced_vstructure,
    module_phibar,
)
from .vstruct import (
    CylinderAssignment,
    VStructureData,
    associated_vcategory,
    check_cylinder,
    check_vstructure,
    induced_tensor_bifunctor,
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
        t = base.compose(vcat_data.j(kx), td.phibar[(k, x, kx)])
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
    try:
        for k in m.base.objects:
            for x in s.objects:
                kx = mod.act_obj(k, x)
                tensor_obj[(k, x)] = kx
                alpha[(k, x)] = tc.phi_of(k, x, kx, s.id_(kx))
                for y in s.objects:
                    phibar[(k, x, y)] = module_phibar(tc, k, x, y)
    except EncatError:
        # the adjuncts exist and pass their derived laws on lawful modules,
        # so a checker report blames the input
        _blame("module", check_tensor_closed(tc))
        raise
    return vs, CylinderAssignment(tensor_obj=tensor_obj, alpha=alpha, phibar=phibar)


def _blame(what: str, reports: list) -> None:
    """Raise :class:`LawFailureError` naming the first of ``reports``, if any."""
    if reports:
        raise LawFailureError(
            f"the {what} fails {reports[0].law} at ({', '.join(reports[0].site)})") from None


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
ADJUNCTION_ROUTE_LAWS = (
    derived_law("adjunction routes",
                lambda vs, cyl, phi: ((*key, f) for key, table in phi.items() for f in table),
                lambda vs, cyl, phi, k, x, y, f: phi[(k, x, y)][f],
                lambda vs, cyl, phi, k, x, y, f: varpi_inv(vs.baseV, vs.baseV.base.compose(
                    vs.phi_of(cyl.tensor_obj[(k, x)], y, f), cyl.phibar[(k, x, y)]),
                    k, vs.hom_obj(x, y))),
)


def _yoneda_unique_pre(s, src: Obj, dst: Obj, family, what: str) -> Mor:
    """The unique h : src -> dst with family(Y, g) = g . h for all probes
    g : dst -> Y."""
    candidates = []
    for h in s.hom(src, dst):
        if all(s.then(h, g) == family(y, g)
               for y in s.objects for g in s.hom(dst, y)):
            candidates.append(h)
    if len(candidates) != 1:
        raise WitnessError(
            f"{what}: {len(candidates)} witnesses representing the family",
            count=len(candidates))
    return candidates[0]


def cylinder_to_module(vs: VStructureData,
                       cyl: CylinderAssignment) -> TensorClosedModuleData:
    """From a cylinder to a tensor-closed module: the induced action, the
    element-route adjunction tables, and structure isomorphisms extracted by
    representing the transported hom families."""
    m = vs.baseV
    m.require_closed()
    base = m.base
    s = vs.baseS
    action = induced_tensor_bifunctor(vs, cyl)
    try:
        phi = _module_phi_tables(vs, cyl)
    except EncatError:
        # the tables are defined and the routes agree on lawful cylinders, so
        # a checker report blames the input
        _blame("cylinder", check_vstructure(vs) or check_cylinder(vs, cyl))
        raise
    fibres = {key: Preimages(table) for key, table in phi.items()}

    def phi_inv(k: Obj, x: Obj, y: Obj, t: Mor) -> Mor:
        return fibres[(k, x, y)].unique(
            t, lambda n: f"induced adjunction at ({k!r}, {x!r}, {y!r}) has {n} "
                         f"preimages of {t!r}")

    assoc = {}
    for k in base.objects:
        for l in base.objects:
            for x in s.objects:
                kl = m.tobj(k, l)
                lx = cyl.tensor_obj[(l, x)]
                klx = cyl.tensor_obj[(kl, x)]
                k_lx = cyl.tensor_obj[(k, lx)]

                def family(y: Obj, g: Mor, k=k, l=l, x=x, kl=kl, lx=lx) -> Mor:
                    t = base.compose(phi[(k, lx, y)][g], cyl.phibar[(l, x, y)])
                    return phi_inv(kl, x, y,
                                   transpose_pi_inv(m, t, l, vs.hom_obj(x, y)))

                assoc[(k, l, x)] = _yoneda_unique_pre(
                    s, klx, k_lx, family,
                    f"module associator at ({k!r}, {l!r}, {x!r})")

    lunit = {}
    for x in s.objects:
        ix = cyl.tensor_obj[(m.unit, x)]

        def lfamily(y: Obj, g: Mor, x=x) -> Mor:
            return phi_inv(m.unit, x, y, vs.phi_of(x, y, g))

        lunit[x] = _yoneda_unique_pre(
            s, ix, x, lfamily, f"module unitor at {x!r}")

    module = VModuleData(baseV=m, baseS=s, action=action, assoc=assoc, lunit=lunit)
    return TensorClosedModuleData(module=module, homFunctor=vs.homFunctor, phi=phi)


def roundtrip_module_cylinder(tc: TensorClosedModuleData) -> bool:
    """module -> (structure, cylinder) -> module reproduces the tables."""
    vs, cyl = module_to_cylinder(tc)
    return structural_equal(cylinder_to_module(vs, cyl), tc)


def roundtrip_cylinder_module(vs: VStructureData, cyl: CylinderAssignment) -> bool:
    """(structure, cylinder) -> module -> (structure, cylinder) reproduces
    the tables."""
    back = module_to_cylinder(cylinder_to_module(vs, cyl))
    return structural_equal(back, (vs, cyl))


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

    placeholder = ClosedBimoduleData(closedModule=cm, comodAssoc={}, comodLunit={})
    comod_assoc = {}
    for k in base.objects:
        for l in base.objects:
            for x in s.objects:
                src = cm.cot_obj(k, cm.cot_obj(l, x))
                dst = cm.cot_obj(m.tobj(k, l), x)
                comod_assoc[(k, l, x)] = _yoneda_unique_pre(
                    s_op, dst, src,
                    lambda y, g, k=k, l=l, x=x:
                        _assoc_transport(placeholder, k, l, x, y, g),
                    f"comodule associator at ({k!r}, {l!r}, {x!r})")
    comod_lunit = {}
    for x in s.objects:
        comod_lunit[x] = _yoneda_unique_pre(
            s_op, cm.cot_obj(m.unit, x), x,
            lambda y, g, x=x: _unit_transport(placeholder, x, y, g),
            f"comodule unitor at {x!r}")
    return ClosedBimoduleData(closedModule=cm, comodAssoc=comod_assoc,
                              comodLunit=comod_lunit)
