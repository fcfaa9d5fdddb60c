"""Enriched categories, functors and natural transformations over a finite
monoidal base, with the underlying-category construction.

Hom-sets of an underlying category are materialized as fresh morphisms named
``el:<src>:<dst>:<witness>`` where the witness is the global element of the
hom object that the morphism corresponds to.  Keeping the witness in the name
makes the round trip with the enriched-hom structure an exact table equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .core import (
    CapabilityError,
    CheckReport,
    EngineBugError,
    FinCategory,
    FunctorData,
    MissingTableError,
    Mor,
    Obj,
    morphism_inverse,
    morphism_inverse_checked,
    opposite_category,
    pair_id,
    product_category,
    sort_reports,
)
from .monoidal import (
    MonoidalData,
    SymmetryData,
    _guarded,
    _law,
    hom_on_morphisms,
    internal_composition_b,
    transpose_pi,
    transpose_pi_inv,
    varpi,
    varpi_inv,
)


@dataclass(frozen=True)
class VCategoryData:
    """Objects with hom objects in V, internal composition and units."""

    baseV: MonoidalData
    objects: tuple[Obj, ...]
    homObj: Mapping[tuple[Obj, Obj], Obj]
    comp: Mapping[tuple[Obj, Obj, Obj], Mor]
    unit: Mapping[Obj, Mor]

    def hom(self, a: Obj, b: Obj) -> Obj:
        try:
            return self.homObj[(a, b)]
        except KeyError:
            raise MissingTableError(f"hom object table missing ({a!r}, {b!r})") from None

    def b(self, a: Obj, bb: Obj, c: Obj) -> Mor:
        try:
            return self.comp[(a, bb, c)]
        except KeyError:
            raise MissingTableError(f"internal composition missing ({a!r}, {bb!r}, {c!r})") from None

    def j(self, a: Obj) -> Mor:
        try:
            return self.unit[a]
        except KeyError:
            raise MissingTableError(f"unit table missing {a!r}") from None


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


@dataclass(frozen=True)
class TensoredData:
    """A tensor assignment on an enriched category: objects K (x) X together
    with the hom-adjunct isomorphism family, enriched-naturally in the target."""

    vcat: VCategoryData
    tensorObj: Mapping[tuple[Obj, Obj], Obj]
    phibar: Mapping[tuple[Obj, Obj, Obj], Mor]


def check_vcategory(vc: VCategoryData) -> list[CheckReport]:
    """Shape, associativity and unit laws of the enriched structure."""
    m = vc.baseV
    base = m.base
    reports: list[CheckReport] = []
    objs = vc.objects

    for a in objs:
        for bb in objs:
            h = vc.hom(a, bb)
            if not base.has_obj(h):
                raise MissingTableError(f"hom object ({a!r},{bb!r}) -> undeclared {h!r}")
    for a in objs:
        jv = vc.j(a)
        if not (base.has_mor(jv) and base.src(jv) == m.unit
                and base.dst(jv) == vc.hom(a, a)):
            reports.append(CheckReport("vcat.shape", (a, jv), witness_count=0))
    for a in objs:
        for bb in objs:
            for c in objs:
                bv = vc.b(a, bb, c)
                if not (base.has_mor(bv)
                        and base.src(bv) == m.tobj(vc.hom(bb, c), vc.hom(a, bb))
                        and base.dst(bv) == vc.hom(a, c)):
                    reports.append(CheckReport("vcat.shape", (a, bb, c, bv), witness_count=0))

    for a in objs:
        for bb in objs:
            for c in objs:
                for d in objs:
                    _law(reports, "vcat.assoc", (a, bb, c, d),
                         _guarded(lambda: base.compose(
                             m.tmor(vc.b(bb, c, d), base.id_(vc.hom(a, bb))),
                             vc.b(a, bb, d))),
                         _guarded(lambda: base.compose(
                             m.a(vc.hom(c, d), vc.hom(bb, c), vc.hom(a, bb)),
                             m.tmor(base.id_(vc.hom(c, d)), vc.b(a, bb, c)),
                             vc.b(a, c, d))))
    for a in objs:
        for bb in objs:
            hab = vc.hom(a, bb)
            _law(reports, "vcat.unit", (a, bb, "left"),
                 _guarded(lambda: base.compose(
                     m.tmor(vc.j(bb), base.id_(hab)), vc.b(a, bb, bb))),
                 _guarded(lambda: m.l(hab)))
            _law(reports, "vcat.unit", (a, bb, "right"),
                 _guarded(lambda: base.compose(
                     m.tmor(base.id_(hab), vc.j(a)), vc.b(a, a, bb))),
                 _guarded(lambda: m.r(hab)))
    return sort_reports(reports)


def element_id(a: Obj, b: Obj, witness: Mor) -> str:
    """Name of the underlying morphism a -> b carried by a hom-object element."""
    return f"el:{a}:{b}:{witness}"


def underlying_category(vc: VCategoryData):
    """The ordinary category of global elements of the hom objects, together
    with the enriched-hom structure it carries.

    Morphisms a -> b are the elements of Hom_V(I, hom(a, b)); composition
    tensors two witnesses and feeds them to the internal composition, and the
    identity of ``a`` is the unit element.  The accompanying structure has the
    identity element correspondence.
    """
    from .vstruct import VStructureData

    m = vc.baseV
    base = m.base
    objs = vc.objects

    witnesses = {(a, b): base.hom(m.unit, vc.hom(a, b)) for a in objs for b in objs}
    morphisms = []
    witness_of: dict[str, tuple[Obj, Obj, Mor]] = {}
    for (a, b), ws in sorted(witnesses.items()):
        for w in ws:
            eid = element_id(a, b, w)
            morphisms.append((eid, a, b))
            witness_of[eid] = (a, b, w)
    identity = {a: element_id(a, a, vc.j(a)) for a in objs}

    l_inv = morphism_inverse_checked(base, m.l(m.unit))
    comp = {}
    for a in objs:
        for b in objs:
            for c in objs:
                for w1 in witnesses[(a, b)]:
                    for w2 in witnesses[(b, c)]:
                        w3 = base.compose(l_inv, m.tmor(w2, w1), vc.b(a, b, c))
                        comp[(element_id(a, b, w1), element_id(b, c, w2))] = \
                            element_id(a, c, w3)
    cat = FinCategory(tuple(objs), tuple(sorted(morphisms)), identity, comp)

    def contra_action(f_witness: Mor, x_new: Obj, x_old: Obj, y: Obj) -> Mor:
        # hom(f, Y) for f : x_new -> x_old, as tensoring the witness on the right
        h = vc.hom(x_old, y)
        return base.compose(morphism_inverse_checked(base, m.r(h)),
                            m.tmor(base.id_(h), f_witness),
                            vc.b(x_new, x_old, y))

    def cova_action(g_witness: Mor, x: Obj, y_old: Obj, y_new: Obj) -> Mor:
        # hom(X, g) for g : y_old -> y_new, as tensoring the witness on the left
        h = vc.hom(x, y_old)
        return base.compose(morphism_inverse_checked(base, m.l(h)),
                            m.tmor(g_witness, base.id_(h)),
                            vc.b(x, y_old, y_new))

    src_prod = product_category(opposite_category(cat), cat)
    on_objects = {pair_id(a, b): vc.hom(a, b) for a in objs for b in objs}
    on_morphisms = {}
    for (fid, fs, fd) in morphisms:        # f : fs -> fd, used contravariantly
        wf = witness_of[fid][2]
        for (gid, gs, gd) in morphisms:    # g : gs -> gd, used covariantly
            wg = witness_of[gid][2]
            on_morphisms[pair_id(fid, gid)] = base.compose(
                cova_action(wg, fd, gs, gd), contra_action(wf, fs, fd, gd))
    hom_fn = FunctorData(src_prod, base, on_objects, on_morphisms)

    phi = {(a, b): {element_id(a, b, w): w for w in witnesses[(a, b)]}
           for a in objs for b in objs}
    vs = VStructureData(baseS=cat, baseV=m, homFunctor=hom_fn,
                        comp=dict(vc.comp), phi=phi)
    return cat, vs


def check_vfunctor(t: VFunctorData) -> list[CheckReport]:
    """Shape plus the composition and unit squares of an enriched functor."""
    m = t.src.baseV
    base = m.base
    reports: list[CheckReport] = []
    if t.dst.baseV is not m and t.dst.baseV != t.src.baseV:
        raise CapabilityError("enriched functor between categories over different bases")
    for a in t.src.objects:
        if t.onObjects.get(a) not in t.dst.objects:
            reports.append(CheckReport("vfunctor.shape", (a,), witness_count=0))
    if reports:
        return sort_reports(reports)
    for a in t.src.objects:
        for bb in t.src.objects:
            comp = t.hom(a, bb)
            if not (base.has_mor(comp) and base.src(comp) == t.src.hom(a, bb)
                    and base.dst(comp) == t.dst.hom(t.obj(a), t.obj(bb))):
                reports.append(CheckReport("vfunctor.shape", (a, bb, comp), witness_count=0))
    for a in t.src.objects:
        for bb in t.src.objects:
            for c in t.src.objects:
                _law(reports, "vfunctor.comp", (a, bb, c),
                     _guarded(lambda: base.compose(
                         m.tmor(t.hom(bb, c), t.hom(a, bb)),
                         t.dst.b(t.obj(a), t.obj(bb), t.obj(c)))),
                     _guarded(lambda: base.compose(t.src.b(a, bb, c), t.hom(a, c))))
    for a in t.src.objects:
        _law(reports, "vfunctor.unit", (a,),
             _guarded(lambda: base.compose(t.src.j(a), t.hom(a, a))),
             _guarded(lambda: t.dst.j(t.obj(a))))
    return sort_reports(reports)


def identity_vfunctor(vc: VCategoryData) -> VFunctorData:
    return VFunctorData(
        src=vc, dst=vc,
        onObjects={a: a for a in vc.objects},
        onHom={(a, b): vc.baseV.base.id_(vc.hom(a, b))
               for a in vc.objects for b in vc.objects})


def compose_vfunctors(t1: VFunctorData, t2: VFunctorData) -> VFunctorData:
    """t2 after t1."""
    return VFunctorData(
        src=t1.src, dst=t2.dst,
        onObjects={a: t2.obj(t1.obj(a)) for a in t1.src.objects},
        onHom={(a, b): t1.src.baseV.base.compose(
            t1.hom(a, b), t2.hom(t1.obj(a), t1.obj(b)))
            for a in t1.src.objects for b in t1.src.objects})


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
    for a in s.src.objects:
        for bb in s.src.objects:
            hab = s.src.hom(a, bb)
            _law(reports, "vnat.square", (a, bb),
                 _guarded(lambda: base.compose(
                     morphism_inverse_checked(base, m.l(hab)),
                     m.tmor(nt.components[bb], s.hom(a, bb)),
                     s.dst.b(s.obj(a), s.obj(bb), t.obj(bb)))),
                 _guarded(lambda: base.compose(
                     morphism_inverse_checked(base, m.r(hab)),
                     m.tmor(t.hom(a, bb), nt.components[a]),
                     s.dst.b(s.obj(a), t.obj(a), t.obj(bb)))))
    return sort_reports(reports)


def check_vnat_into_V(nt: VNatData) -> list[CheckReport]:
    """Naturality of a transformation into the base, checked both directly and
    through the hom-square characterization; the two must agree."""
    m = nt.source.src.baseV
    m.require_closed()
    base = m.base
    direct = check_vnat(nt)
    s, t = nt.source, nt.target
    reports: list[CheckReport] = []
    for a in s.src.objects:
        for bb in s.src.objects:
            alpha_a = varpi_inv(m, nt.components[a], s.obj(a), t.obj(a))
            alpha_b = varpi_inv(m, nt.components[bb], s.obj(bb), t.obj(bb))
            _law(reports, "vnat.hom-square", (a, bb),
                 _guarded(lambda: base.compose(
                     s.hom(a, bb),
                     hom_on_morphisms(m, base.id_(s.obj(a)), alpha_b))),
                 _guarded(lambda: base.compose(
                     t.hom(a, bb),
                     hom_on_morphisms(m, alpha_a, base.id_(t.obj(bb))))))
    if bool(direct) != bool(reports):
        raise EngineBugError(
            "oracle disagreement: direct enriched naturality and the hom-square "
            "characterization disagree")
    return sort_reports(direct + reports)


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
    """The covariant enriched hom functor at ``a``, valued in the base."""
    m = vc.baseV
    m.require_closed()
    return VFunctorData(
        src=vc, dst=self_enriched(m),
        onObjects={b: vc.hom(a, b) for b in vc.objects},
        onHom={(b, c): transpose_pi(m, vc.b(a, b, c), vc.hom(b, c), vc.hom(a, b))
               for b in vc.objects for c in vc.objects})


def opposite_vcategory(vc: VCategoryData, s: SymmetryData | None = None) -> VCategoryData:
    """Reverse an enriched category; the braiding reorders the compositions."""
    m = vc.baseV
    s = s or m.require_symmetry()
    base = m.base
    comp = {}
    for a in vc.objects:
        for bb in vc.objects:
            for c in vc.objects:
                comp[(a, bb, c)] = base.compose(
                    s.braid[(vc.hom(bb, a), vc.hom(c, bb))], vc.b(c, bb, a))
    return VCategoryData(
        baseV=m, objects=vc.objects,
        homObj={(a, b): vc.hom(b, a) for a in vc.objects for b in vc.objects},
        comp=comp, unit=dict(vc.unit))


def check_tensored(td: TensoredData) -> list[CheckReport]:
    """Enriched naturality of the hom-adjunct family in its target variable.

    Checked along two independent routes: the composition-compatibility square
    in the base, and the direct enriched-naturality laws of the element family.
    The two must agree on whether the family is natural; disagreement is an
    engine bug.
    """
    vc = td.vcat
    m = vc.baseV
    m.require_closed()
    base = m.base
    reports: list[CheckReport] = []
    vself = self_enriched(m)

    for (k, x), kx in sorted(td.tensorObj.items()):
        for y in vc.objects:
            pb = td.phibar.get((k, x, y))
            if pb is None:
                raise MissingTableError(f"tensored structure missing component ({k!r},{x!r},{y!r})")
            ok = (base.has_mor(pb)
                  and base.src(pb) == vc.hom(kx, y)
                  and base.dst(pb) == m.hom_obj(k, vc.hom(x, y)))
            if not ok:
                reports.append(CheckReport("tensored.shape", (k, x, y), witness_count=0))
            elif morphism_inverse(base, pb) is None:
                reports.append(CheckReport("tensored.iso", (k, x, y), witness_count=0))
    if any(r.law == "tensored.shape" for r in reports):
        return sort_reports(reports)

    route_a_failed = False
    for (k, x), kx in sorted(td.tensorObj.items()):
        hom_x = hom_vfunctor(vc, x)
        hom_k = hom_vfunctor(vself, k)
        for y in vc.objects:
            for z in vc.objects:
                t_yz = base.compose(hom_x.hom(y, z),
                                    hom_k.hom(vc.hom(x, y), vc.hom(x, z)))
                delta = transpose_pi_inv(
                    m, t_yz, m.hom_obj(k, vc.hom(x, y)), m.hom_obj(k, vc.hom(x, z)))
                lhs = _guarded(lambda: base.compose(
                    vc.b(kx, y, z), td.phibar[(k, x, z)]))
                rhs = _guarded(lambda: base.compose(
                    m.tmor(base.id_(vc.hom(y, z)), td.phibar[(k, x, y)]), delta))
                before = len(reports)
                _law(reports, "tensored.vnatural", (k, x, y, z), lhs, rhs)
                route_a_failed = route_a_failed or len(reports) > before

    route_b_failed = False
    for (k, x), kx in sorted(td.tensorObj.items()):
        s_fn = hom_vfunctor(vc, kx)
        t_fn = compose_vfunctors(hom_vfunctor(vc, x), hom_vfunctor(vself, k))
        nt = VNatData(source=s_fn, target=t_fn,
                      components={y: varpi(m, td.phibar[(k, x, y)]) for y in vc.objects})
        sub = check_vnat_into_V(nt)
        for r in sub:
            reports.append(CheckReport(r.law, (k, x) + r.site, r.lhs, r.rhs,
                                       r.witness_count, r.note))
        route_b_failed = route_b_failed or bool(sub)

    if route_a_failed != route_b_failed:
        raise EngineBugError(
            "oracle disagreement: the composition-compatibility route and the "
            "enriched-naturality route disagree about the tensor structure")
    return sort_reports(reports)
