"""Enriched categories and tensor assignments over a finite monoidal base,
with the underlying-category construction.

Hom-sets of an underlying category are materialized as fresh morphisms named
``el:<src>:<dst>:<witness>`` where the witness is the global element of the
hom object that the morphism corresponds to.  Keeping the witness in the name
makes the round trip with the enriched-hom structure an exact table equality.

:func:`check_tensored` decides a tensor assignment along one route, the
composition square ``tensored.vnatural``, and reports each failure once.  On
a thin V, where every diagram commutes (CWM §VII.2), ``VCATEGORY_LAWS`` judge
no site once V's shape loops and the ``vcat.shape`` record are clean.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Mapping

from .core import (
    CheckReport,
    FinCategory,
    FunctorData,
    Law,
    MissingTableError,
    Mor,
    Obj,
    clean,
    entry,
    evaluate,
    morphism_inverse_checked,
    opposite_category,
    pair_id,
    product_category,
    sort_reports,
    thin_first,
    typed,
    verdict,
)
from .monoidal import (
    MonoidalData,
    check_v,
    internal_composition_b,
    shapes_clean,
    transpose_pi,
    transpose_pi_inv,
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
        return entry(self.homObj, (a, b), "hom object table")

    def b(self, a: Obj, bb: Obj, c: Obj) -> Mor:
        return entry(self.comp, (a, bb, c), "internal composition")

    def j(self, a: Obj) -> Mor:
        return entry(self.unit, a, "unit table")


@dataclass(frozen=True)
class TensoredData:
    """A tensor assignment on an enriched category: objects K (x) X together
    with the hom-adjunct isomorphism family, enriched-naturally in the target."""

    vcat: VCategoryData
    tensorObj: Mapping[tuple[Obj, Obj], Obj]
    phibar: Mapping[tuple[Obj, Obj, Obj], Mor]

    def component(self, k: Obj, x: Obj, y: Obj) -> Mor:
        return entry(self.phibar, (k, x, y), "tensored structure component")


# On (vc, V).  Once V's tensor and structure loops and the "shape" record are clean, each side
# is (hom(C, D) (x) hom(B, C)) (x) hom(A, B) -> hom(A, D) or I (x) hom(A, B) -> hom(A, B) in V.
VCATEGORY_LAWS = tuple(thin_first(law, lambda vc, m: m.base, lambda vc, m: (
    shapes_clean(m, "tensor", "structure") and clean(vc, "shape"))) for law in (
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
))


def check_vcategory(vc: VCategoryData) -> list[CheckReport]:
    """V's reports (:func:`check_v`), then shape, associativity and unit laws."""
    return check_v(vc.baseV) or sort_reports(
        [*verdict(vc, "shape", _vcat_shapes), *evaluate(VCATEGORY_LAWS, vc, vc.baseV)])


def _vcat_shapes(vc: VCategoryData) -> list[CheckReport]:
    """The "shape" record: ``vcat.shape`` of the units and the composition."""
    m, objs = vc.baseV, vc.objects
    for a, bb in product(objs, repeat=2):
        if not m.base.has_obj(h := vc.hom(a, bb)):
            raise MissingTableError(f"hom object ({a!r},{bb!r}) -> undeclared {h!r}")
    return typed(m.base, [*(((a, j), j, m.unit, vc.hom(a, a)) for a in objs for j in (vc.j(a),)),
                          *(((a, bb, c, bv), bv, m.tobj(vc.hom(bb, c), vc.hom(a, bb)), vc.hom(a, c))
                            for a, bb, c in product(objs, repeat=3) for bv in (vc.b(a, bb, c),))],
                 "vcat.shape")


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


# evaluated on (td, delta, base), delta[(K, X, Y, Z)] the composition
# hom(K, hom(X, Y)) (x) hom(Y, Z) -> hom(K, hom(X, Z)): the hom-functor
# components of hom(X, -) at (Y, Z) and of hom(K, -) at (hom(X, Y), hom(X, Z))
# composed and un-transposed; the sites are delta's keys
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
    if reports := check_v(m):
        return reports
    base = m.base
    reports = typed(base, (((k, x, y), td.component(k, x, y), vc.hom(kx, y),
                            m.hom_obj(k, vc.hom(x, y)))
                           for (k, x), kx in sorted(td.tensorObj.items()) for y in vc.objects),
                    "tensored.shape", "tensored.iso")
    if any(r.law == "tensored.shape" for r in reports):
        return sort_reports(reports)
    vcat_reports = check_vcategory(vc)
    if vcat_reports:
        return sort_reports(reports + vcat_reports)

    delta = {}
    for (k, x), y, z in product(sorted(td.tensorObj), vc.objects, vc.objects):
        hxy, hxz = vc.hom(x, y), vc.hom(x, z)
        t_yz = base.compose(
            transpose_pi(m, vc.b(x, y, z), vc.hom(y, z), hxy),
            transpose_pi(m, internal_composition_b(m, k, hxy, hxz),
                         m.hom_obj(hxy, hxz), m.hom_obj(k, hxy)))
        delta[(k, x, y, z)] = transpose_pi_inv(m, t_yz, m.hom_obj(k, hxy), m.hom_obj(k, hxz))
    reports += evaluate(TENSORED_LAWS, td, delta, m)
    return sort_reports(reports)


#: The laws a document kind reaches, and the names its checker reports under
#: outside them; ``check_tensored``'s ``tensored.*`` have no document kind yet.
LAWS = VCATEGORY_LAWS
CHECKS = ("vcat.shape",)
