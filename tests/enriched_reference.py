"""Enriched functors and transformations, a test reference for
``vcat.check_tensored``: the enriched naturality of a tensor assignment's
adjunct family, judged as a transformation into the base enriched over
itself (:func:`self_enriched`) on one route, the enriched naturality
rectangle ``vnat.square``; the comparison isomorphism between two chosen
cylinders, :func:`cylinder_unique_iso`; and the enriched action of a
tensor-closed module, :func:`enriched_action`, with its derived laws."""

from dataclasses import dataclass
from itertools import product
from typing import Mapping

from encat.core import (
    CheckReport,
    EngineBugError,
    Law,
    MissingTableError,
    Mor,
    Obj,
    WitnessError,
    assert_derived,
    derived_law,
    evaluate,
    morphism_inverse_checked,
    sort_reports,
)
from encat.monoidal import (
    MonoidalData,
    hom_on_morphisms,
    internal_composition_b,
    transpose_pi,
    varpi,
)
from encat.vcat import VCategoryData
from encat.vmodule import (
    TensorClosedModuleData,
    _action_component,
    _counit,
    induced_vstructure,
)
from encat.vstruct import CylinderAssignment, VStructureData, _transported


@dataclass(frozen=True)
class VFunctorData:
    """Object map plus hom-object components between enriched categories."""

    src: VCategoryData
    dst: VCategoryData
    onObjects: Mapping[Obj, Obj]
    onHom: Mapping[tuple[Obj, Obj], Mor]

    def obj(self, a: Obj) -> Obj:
        return self.onObjects[a]

    def hom(self, a: Obj, b: Obj) -> Mor:
        try:
            return self.onHom[(a, b)]
        except KeyError:
            raise MissingTableError(f"enriched functor missing hom component ({a!r}, {b!r})") from None


@dataclass(frozen=True)
class VNatData:
    """Components I -> hom(SA, TA) of an enriched natural transformation."""

    source: VFunctorData
    target: VFunctorData
    components: Mapping[Obj, Mor]


def self_enriched(m: MonoidalData) -> VCategoryData:
    """A closed monoidal category as a category enriched over itself."""
    m.require_closed()
    base = m.base
    return VCategoryData(
        baseV=m,
        objects=tuple(base.objects),
        homObj={(y, z): m.hom_obj(y, z) for y in base.objects for z in base.objects},
        comp={(x, y, z): internal_composition_b(m, x, y, z)
              for x in base.objects for y in base.objects for z in base.objects},
        unit={x: varpi(m, base.id_(x)) for x in base.objects})


def hom_vfunctor(vc: VCategoryData, a: Obj) -> VFunctorData:
    """The covariant enriched hom functor at ``a``, valued in the base
    enriched over itself."""
    m = vc.baseV
    return VFunctorData(
        src=vc, dst=self_enriched(m),
        onObjects={b: vc.hom(a, b) for b in vc.objects},
        onHom={(b, c): transpose_pi(m, vc.b(a, b, c), vc.hom(b, c), vc.hom(a, b))
               for b in vc.objects for c in vc.objects})


def _vnat_sites(nt: VNatData, m: MonoidalData):
    for a, bb in product(nt.source.src.objects, repeat=2):
        nt.source.src.hom(a, bb)  # read by both sides: a gap is not a failed square
        yield a, bb


VNAT_LAWS = (
    Law("vnat.square", _vnat_sites,
        lambda nt, m, a, bb: m.base.compose(
            morphism_inverse_checked(m.base, m.l(nt.source.src.hom(a, bb))),
            m.tmor(nt.components[bb], nt.source.hom(a, bb)),
            nt.source.dst.b(nt.source.obj(a), nt.source.obj(bb), nt.target.obj(bb))),
        lambda nt, m, a, bb: m.base.compose(
            morphism_inverse_checked(m.base, m.r(nt.source.src.hom(a, bb))),
            m.tmor(nt.target.hom(a, bb), nt.components[a]),
            nt.source.dst.b(nt.source.obj(a), nt.target.obj(a), nt.target.obj(bb)))),
)


def check_vnat(nt: VNatData) -> list[CheckReport]:
    """The enriched naturality rectangle for every pair of objects."""
    s, t = nt.source, nt.target
    m = s.src.baseV
    base = m.base
    reports: list[CheckReport] = []
    for a in s.src.objects:
        c = nt.components.get(a)
        if c is None:
            raise MissingTableError(f"enriched transformation missing component {a!r}")
        if not (base.has_mor(c) and base.src(c) == m.unit
                and base.dst(c) == s.dst.hom(s.obj(a), t.obj(a))):
            reports.append(CheckReport("vnat.shape", (a, c), witness_count=0))
    if reports:
        return sort_reports(reports)
    reports += evaluate(VNAT_LAWS, nt, m)
    return sort_reports(reports)


def cylinder_unique_iso(vs: VStructureData, cyl_a: CylinderAssignment,
                        cyl_b: CylinderAssignment, k: Obj, x: Obj) -> Mor:
    """The unique isomorphism between two chosen cylinders at (K, X).

    Computed by element transport through the first cylinder's adjunct family
    and verified unique by exhaustive search.
    """
    f, witnesses = _transported(vs, cyl_a, k, x, cyl_b.tensor_obj[(k, x)], cyl_b.alpha[(k, x)])
    if len(witnesses) != 1:
        raise WitnessError(
            f"cylinder comparison at ({k!r}, {x!r}) has {len(witnesses)} witnesses",
            count=len(witnesses))
    if witnesses[0] != f:
        raise EngineBugError("derived law failed: cylinder-iso transport disagrees "
                             "with the exhaustive search")
    morphism_inverse_checked(vs.baseS, f)
    return f


@dataclass(frozen=True)
class EnrichedActionData:
    """Hom-object components of the action in its tensor variable:
    components[(K, L, X)] : hom_V(K, L) -> hom(K (x) X, L (x) X)."""

    components: Mapping[tuple[Obj, Obj, Obj], Mor]


def enriched_action(tc: TensorClosedModuleData) -> EnrichedActionData:
    """All components of the enriched action, with the functor laws, the
    enriched naturality of the components and of the evaluations asserted."""
    mod = tc.module
    m = mod.baseV
    m.require_closed()
    ivs = induced_vstructure(tc)
    components = {(k, l, x): _action_component(tc, k, l, x)
                  for k in m.base.objects for l in m.base.objects for x in mod.baseS.objects}
    assert_derived(ENRICHED_ACTION_LAWS, tc, mod, m, ivs, components)
    return EnrichedActionData(components=components)


def _action_naturality(tc, mod, m, ivs, c, k, l, mm, x) -> Mor:
    kx, lx, mx = mod.act_obj(k, x), mod.act_obj(l, x), mod.act_obj(mm, x)
    return m.base.compose(
        c[(l, mm, x)],
        transpose_pi(m, ivs.b(kx, lx, mx), tc.hom_obj(lx, mx), tc.hom_obj(kx, lx)),
        hom_on_morphisms(m, c[(k, l, x)], m.base.id_(tc.hom_obj(kx, mx))))


def _evaluation_naturality(tc, mod, m, ivs, c, x, y, z) -> Mor:
    sxy = tc.hom_obj(x, y)
    return m.base.compose(
        transpose_pi(m, ivs.b(x, y, z), tc.hom_obj(y, z), sxy), c[(sxy, tc.hom_obj(x, z), x)],
        tc.hom_mor(mod.baseS.id_(mod.act_obj(sxy, x)), _counit(tc, x, z)))


def _action_sites(tc, mod, m, ivs, c):
    """Sites (K, L, M, X), X outermost."""
    return ((*klm, x) for x in mod.baseS.objects for klm in product(m.base.objects, repeat=3))


# The laws of the enriched action, consequences of the axioms, on (tc, its
# module, the base, the induced hom structure ivs, the components c).
ENRICHED_ACTION_LAWS = (
    derived_law("enriched action composition", _action_sites,
                lambda tc, mod, m, ivs, c, k, l, mm, x: m.base.compose(
                    internal_composition_b(m, k, l, mm), c[(k, mm, x)]),
                lambda tc, mod, m, ivs, c, k, l, mm, x: m.base.compose(
                    m.tmor(c[(l, mm, x)], c[(k, l, x)]),
                    ivs.b(mod.act_obj(k, x), mod.act_obj(l, x), mod.act_obj(mm, x)))),
    derived_law("enriched action unit",
                lambda tc, mod, m, ivs, c: ((k, x) for x in mod.baseS.objects
                                            for k in m.base.objects),
                lambda tc, mod, m, ivs, c, k, x: m.base.compose(
                    varpi(m, m.base.id_(k)), c[(k, k, x)]),
                lambda tc, mod, m, ivs, c, k, x: tc.phi_of(
                    m.unit, mod.act_obj(k, x), mod.act_obj(k, x), mod.l(mod.act_obj(k, x)))),
    derived_law("enriched action naturality", _action_sites,  # in the target variable
                lambda tc, mod, m, ivs, c, k, l, mm, x: m.base.compose(
                    transpose_pi(m, internal_composition_b(m, k, l, mm),
                                 m.hom_obj(l, mm), m.hom_obj(k, l)),
                    hom_on_morphisms(m, m.base.id_(m.hom_obj(k, l)), c[(k, mm, x)])),
                _action_naturality),
    derived_law("enriched action element transport",  # acting on an element
                lambda tc, mod, m, ivs, c: product(m.base.mor_ids(), mod.baseS.objects),
                lambda tc, mod, m, ivs, c, u, x: m.base.compose(
                    varpi(m, u), c[(m.base.src(u), m.base.dst(u), x)]),
                lambda tc, mod, m, ivs, c, u, x: tc.phi_of(
                    m.unit, mod.act_obj(m.base.src(u), x), mod.act_obj(m.base.dst(u), x),
                    mod.baseS.compose(mod.l(mod.act_obj(m.base.src(u), x)),
                                      mod.act_mor(u, mod.baseS.id_(x))))),
    derived_law("evaluation enriched naturality",
                lambda tc, mod, m, ivs, c: product(mod.baseS.objects, repeat=3),
                lambda tc, mod, m, ivs, c, x, y, z: tc.hom_mor(
                    _counit(tc, x, y), mod.baseS.id_(z)),
                _evaluation_naturality),
)
