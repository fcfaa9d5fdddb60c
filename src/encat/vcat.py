"""Enriched categories, functors and natural transformations over a finite
monoidal base, with the underlying-category construction.

Hom-sets of an underlying category are materialized as fresh morphisms named
``el:<src>:<dst>:<witness>`` where the witness is the global element of the
hom object that the morphism corresponds to.  Keeping the witness in the name
makes the round trip with the enriched-hom structure an exact table equality.

:func:`check_tensored` decides a tensor assignment along one route, the
composition square ``tensored.vnatural``, and reports each failure once.
The enriched naturality of the same family as transformations into the base
(:func:`check_vnat_into_V`) is its reference in the tests, not a second run.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Mapping

from .core import (
    CapabilityError,
    CheckReport,
    EngineBugError,
    FinCategory,
    FunctorData,
    Law,
    MissingTableError,
    Mor,
    Obj,
    evaluate,
    morphism_inverse,
    morphism_inverse_checked,
    opposite_category,
    pair_id,
    product_category,
    sort_reports,
)
from .monoidal import (
    MonoidalData,
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


VCATEGORY_LAWS = (
    Law("vcat.assoc", lambda vc, m: product(vc.objects, repeat=4),
        lambda vc, m, a, bb, c, d: m.base.compose(
            m.tmor(vc.b(bb, c, d), m.base.id_(vc.hom(a, bb))), vc.b(a, bb, d)),
        lambda vc, m, a, bb, c, d: m.base.compose(
            m.a(vc.hom(c, d), vc.hom(bb, c), vc.hom(a, bb)),
            m.tmor(m.base.id_(vc.hom(c, d)), vc.b(a, bb, c)), vc.b(a, c, d)), core=True),
    Law("vcat.unit", lambda vc, m: ((a, bb, "left") for a, bb in product(vc.objects, repeat=2)),
        lambda vc, m, a, bb, _: m.base.compose(
            m.tmor(vc.j(bb), m.base.id_(vc.hom(a, bb))), vc.b(a, bb, bb)),
        lambda vc, m, a, bb, _: m.l(vc.hom(a, bb)), core=True),
    Law("vcat.unit", lambda vc, m: ((a, bb, "right") for a, bb in product(vc.objects, repeat=2)),
        lambda vc, m, a, bb, _: m.base.compose(
            m.tmor(m.base.id_(vc.hom(a, bb)), vc.j(a)), vc.b(a, a, bb)),
        lambda vc, m, a, bb, _: m.r(vc.hom(a, bb)), core=True),
)


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

    reports += evaluate(VCATEGORY_LAWS, vc, m)
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


VFUNCTOR_LAWS = (
    Law("vfunctor.comp", lambda t, m: product(t.src.objects, repeat=3),
        lambda t, m, a, bb, c: m.base.compose(
            m.tmor(t.hom(bb, c), t.hom(a, bb)), t.dst.b(t.obj(a), t.obj(bb), t.obj(c))),
        lambda t, m, a, bb, c: m.base.compose(t.src.b(a, bb, c), t.hom(a, c))),
    Law("vfunctor.unit", lambda t, m: product(t.src.objects),
        lambda t, m, a: m.base.compose(t.src.j(a), t.hom(a, a)),
        lambda t, m, a: t.dst.j(t.obj(a))),
)


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
    reports += evaluate(VFUNCTOR_LAWS, t, m)
    return sort_reports(reports)


def identity_vfunctor(vc: VCategoryData) -> VFunctorData:
    return VFunctorData(
        src=vc, dst=vc,
        onObjects={a: a for a in vc.objects},
        onHom={(a, b): vc.baseV.base.id_(vc.hom(a, b))
               for a in vc.objects for b in vc.objects})


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


# evaluated on (S, T, alpha, base), alpha[A] the underlying morphism SA -> TA
# of the component at A
HOM_SQUARE_LAWS = (
    Law("vnat.hom-square", lambda s, t, alpha, m: product(s.src.objects, repeat=2),
        lambda s, t, alpha, m, a, bb: m.base.compose(
            s.hom(a, bb), hom_on_morphisms(m, m.base.id_(s.obj(a)), alpha[bb])),
        lambda s, t, alpha, m, a, bb: m.base.compose(
            t.hom(a, bb), hom_on_morphisms(m, alpha[a], m.base.id_(t.obj(bb))))),
)


def check_vnat_into_V(nt: VNatData) -> list[CheckReport]:
    """Naturality of a transformation into the base, checked both directly and
    through the hom-square characterization; the two must agree."""
    m = nt.source.src.baseV
    m.require_closed()
    direct = check_vnat(nt)
    s, t = nt.source, nt.target
    alpha = {a: varpi_inv(m, nt.components[a], s.obj(a), t.obj(a)) for a in s.src.objects}
    reports = evaluate(HOM_SQUARE_LAWS, s, t, alpha, m)
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


# evaluated on (td, delta, base), delta[(K, X, Y, Z)] the composition
# hom(K, hom(X, Y)) (x) hom(Y, Z) -> hom(K, hom(X, Z)) through the enriched
# hom functors; the sites are delta's keys
TENSORED_LAWS = (
    Law("tensored.vnatural", lambda td, delta, m: delta,
        lambda td, delta, m, k, x, y, z: m.base.compose(
            td.vcat.b(td.tensorObj[(k, x)], y, z), td.phibar[(k, x, z)]),
        lambda td, delta, m, k, x, y, z: m.base.compose(
            m.tmor(m.base.id_(td.vcat.hom(y, z)), td.phibar[(k, x, y)]),
            delta[(k, x, y, z)])),
)


def check_tensored(td: TensoredData) -> list[CheckReport]:
    """Enriched naturality of the hom-adjunct family in its target variable,
    judged as one composition-compatibility square in the base per
    (K, X, Y, Z).  The square assumes a lawful enriched category, so the
    enriched category's own reports, if any, are returned before it runs."""
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
    vcat_reports = check_vcategory(vc)
    if vcat_reports:
        return sort_reports(reports + vcat_reports)

    hom_x = {x: hom_vfunctor(vc, x) for _, x in td.tensorObj}
    hom_k = {k: hom_vfunctor(vself, k) for k, _ in td.tensorObj}
    delta = {}
    for k, x in sorted(td.tensorObj):
        for y in vc.objects:
            for z in vc.objects:
                t_yz = base.compose(hom_x[x].hom(y, z),
                                    hom_k[k].hom(vc.hom(x, y), vc.hom(x, z)))
                delta[(k, x, y, z)] = transpose_pi_inv(
                    m, t_yz, m.hom_obj(k, vc.hom(x, y)), m.hom_obj(k, vc.hom(x, z)))
    reports += evaluate(TENSORED_LAWS, td, delta, m)
    return sort_reports(reports)


#: The laws declared here, and the names the checkers report under outside them.
LAWS = VCATEGORY_LAWS + VFUNCTOR_LAWS + VNAT_LAWS + HOM_SQUARE_LAWS + TENSORED_LAWS
CHECKS = ("vcat.shape", "vfunctor.shape", "vnat.shape", "tensored.shape", "tensored.iso")
