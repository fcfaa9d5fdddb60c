"""Enriched functors and transformations, a test reference for
``vcat.check_tensored``: the enriched naturality of a tensor assignment's
adjunct family, judged as a transformation into the base on one route,
the enriched naturality rectangle ``vnat.square``; and the comparison
isomorphism between two chosen cylinders, :func:`cylinder_unique_iso`."""

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
    evaluate,
    morphism_inverse_checked,
    sort_reports,
)
from encat.monoidal import MonoidalData, transpose_pi
from encat.vcat import VCategoryData, self_enriched
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
