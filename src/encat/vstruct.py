"""Categories carrying hom objects in a monoidal base, together with cylinder
and path assignments and the bifunctor they induce.

A cylinder assignment fixes one cylinder per (K, X) even though the data is
only determined up to unique isomorphism; every downstream construction uses
the fixed choice so that round trips are exact table equalities.  The
uniqueness operation documents the remaining freedom.

``vstructure.phi-natural`` is decided on generators (:func:`~encat.core.natural`),
each of its two squares in its one variable, once S and V are valid and the
"hom structure" record is clean; otherwise, or when a generator square fails,
every site is judged.  ``PHIBAR_NATURALITY_LAWS`` keep their sweep: they judge
a construction's input, which is not checked first.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cache, cached_property, partial
from itertools import product
from typing import Callable, Mapping

from .core import (
    EMPTY,
    CheckReport,
    EncatError,
    FinCategory,
    FunctorData,
    Law,
    MissingTableError,
    Mor,
    Obj,
    Preimages,
    Record,
    WitnessError,
    assert_derived,
    clean,
    derived_law,
    entry,
    evaluate,
    functor_law_names,
    is_valid,
    morphism_inverse_checked,
    natural,
    opposite_category,
    pair_id,
    preimage,
    product_category,
    reading,
    shape_keys,
    sort_reports,
    thin_first,
    typed,
    validate_functor,
    verdict,
)
from .monoidal import MonoidalData, check_v, hom_on_morphisms, shapes_clean, varpi


class HomTables:
    """A hom functor ``homFunctor`` : S^op x S -> V and bijections ``phi``
    onto hom-sets of V, the shape a V-structure (Hom(X, Y) = Hom_V(I, hom(X, Y)))
    and a tensor-closed module (Hom(K (x) X, Y) = Hom_V(K, hom(X, Y))) share."""

    homFunctor: FunctorData
    phi: Mapping[tuple[Obj, ...], Mapping[Mor, Mor]]

    def hom_obj(self, x: Obj, y: Obj) -> Obj:
        return entry(self.homFunctor.onObjects, pair_id(x, y), "hom object table", (x, y))

    def hom_mor(self, f: Mor, g: Mor) -> Mor:
        """The hom functor on a pair (f used contravariantly, g covariantly)."""
        return entry(self.homFunctor.onMorphisms, pair_id(f, g), "hom functor table", (f, g))

    @cached_property
    def _phi_fibres(self) -> dict[tuple[Obj, ...], Preimages]:
        """The fibres of each ``phi`` table, read once per instance; the
        bijection check (through :func:`~encat.core.entry`) and every
        ``phi_inv`` lookup (a :func:`~encat.core.preimage`) share them."""
        return {key: Preimages(table) for key, table in self.phi.items()}


class VStructureData(HomTables, Record):
    """An ordinary category with hom objects, internal composition and the
    element correspondence between its hom-sets and global elements."""

    baseS: FinCategory
    baseV: MonoidalData
    homFunctor: FunctorData
    comp: Mapping[tuple[Obj, Obj, Obj], Mor]
    phi: Mapping[tuple[Obj, Obj], Mapping[Mor, Mor]]

    def b(self, x: Obj, y: Obj, z: Obj) -> Mor:
        return entry(self.comp, (x, y, z), "internal composition")

    def phi_of(self, x: Obj, y: Obj, f: Mor) -> Mor:
        return entry(self.phi.get((x, y), EMPTY), f, "element table", (x, y, f))

    def phi_inv(self, x: Obj, y: Obj, t: Mor) -> Mor:
        return preimage(self._phi_fibres, (x, y), t, "element correspondence")


class CylinderAssignment(Record):
    """Per (K, X): the object K (x) X, the coevaluation-like element alpha and
    the hom-adjunct isomorphism family phibar."""

    tensor_obj: Mapping[tuple[Obj, Obj], Obj]
    alpha: Mapping[tuple[Obj, Obj], Mor]
    phibar: Mapping[tuple[Obj, Obj, Obj], Mor]


class PathAssignment(Record):
    """The dual assignment: cotensor objects, beta and psibar."""

    path_obj: Mapping[tuple[Obj, Obj], Obj]
    beta: Mapping[tuple[Obj, Obj], Mor]
    psibar: Mapping[tuple[Obj, Obj, Obj], Mor]


def _hom_structure(vs: VStructureData) -> list[CheckReport]:
    """The "hom structure" record: the hom functor's reports, the shapes of
    the internal composition and the bijection reports of the elements."""
    m = vs.baseV
    s = vs.baseS
    reports = validate_functor(vs.homFunctor, tag=_HOM_FUNCTOR)
    reports += typed(m.base, (((x, y, z), vs.b(x, y, z), m.tobj(vs.hom_obj(y, z), vs.hom_obj(x, y)),
                               vs.hom_obj(x, z)) for x, y, z in product(s.objects, repeat=3)),
                     "vstructure.shape")
    for x, y in product(s.objects, repeat=2):
        reports += entry(vs._phi_fibres, (x, y), "element table").check(
            "vstructure.phi-bijection", (x, y), s.hom(x, y),
            m.base.hom(m.unit, vs.hom_obj(x, y)), "element table")
    return reports


def _hom_first(law: Law, shapes: tuple[str, ...], reads: Callable | None = None,
               cat: Callable = lambda vs, *_: vs.baseV.base) -> Law:
    """``law``, an equation in V on data (vs, ...), gated first on the
    :func:`~encat.core.read_cover` of V's base (of ``cat(*data)`` for one in S),
    premised on a valid S, clean V ``shapes`` and "hom structure" records and, for
    an assignment ``data[1]``, its "cylinder" record: then its sides are parallel,
    so equal on a thin category (CWM VII.2).  Misshapen internal composition entries
    alone send it to the sites whose ``reads(*data, *site)`` names one, else to every site."""
    def misshapen(vs: VStructureData, cyl, *_) -> list | None:
        bad = (shape_keys(verdict(vs, "hom structure", _hom_structure, raising=False),
                          "vstructure.shape")
               if is_valid(vs.baseS) and shapes_clean(vs.baseV, *shapes) and (
                   not isinstance(cyl, CylinderAssignment) or clean(cyl, "cylinder")) else None)
        return bad if reads or not bad else None
    return thin_first(law, cat, misshapen, lambda *data: reading(
        lambda bad: law.sites(*data), lambda *site: reads(*data, *site)))


# The squares of vstructure.phi-natural at (f, h): f's element post-composed
# with h, natural in h, and h's element pre-composed with f, natural in f.
_PHI_SQUARES = {post: natural(Law("vstructure.phi-natural",
    lambda vs, m, s: ((f, h) for f, h in product(s.mor_ids(), repeat=2) if s.dst(f) == s.src(h)),
    lambda vs, m, s, f, h: vs.phi_of(s.src(f), s.dst(h), s.then(f, h)), rhs), lambda vs, m, s: (s,),
    lambda vs, m, s: is_valid(s) and is_valid(m.base) and clean(vs, "hom structure"), around)
    for post, rhs, around in (
        (True, lambda vs, m, s, f, h: m.base.compose(
            vs.phi_of(s.src(f), s.dst(f), f), vs.hom_mor(s.id_(s.src(f)), h)),
         lambda vs, m, s, u: ((f, u) for x in s.objects for f in s.hom(x, s.src(u)))),
        (False, lambda vs, m, s, f, h: m.base.compose(
            vs.phi_of(s.src(h), s.dst(h), h), vs.hom_mor(f, s.id_(s.dst(h)))),
         lambda vs, m, s, u: ((u, h) for x in s.objects for h in s.hom(s.dst(u), x))))}


VSTRUCTURE_LAWS = tuple(_hom_first(law, ("tensor", "structure"), reads) for law, reads in (
    # A sweep over the morphisms meets the square of the lesser id first, so
    # two failures at one pair are listed that way.
    *((replace(_PHI_SQUARES[True], gate=lambda *data: (
        () if all(square.gate(*data) == () for square in _PHI_SQUARES.values()) else None),
        rhs=lambda *data, first=first: _PHI_SQUARES[(data[3] <= data[4]) == first].rhs(*data)),
       lambda *_: ()) for first in (True, False)),
    (Law("vstructure.assoc", lambda vs, m, s: product(s.objects, repeat=4),
         lambda vs, m, s, x, y, z, w: m.base.compose(
             m.tmor(vs.b(y, z, w), m.base.id_(vs.hom_obj(x, y))), vs.b(x, y, w)),
         lambda vs, m, s, x, y, z, w: m.base.compose(
             m.a(vs.hom_obj(z, w), vs.hom_obj(y, z), vs.hom_obj(x, y)),
             m.tmor(m.base.id_(vs.hom_obj(z, w)), vs.b(x, y, z)), vs.b(x, z, w)), core=True),
     lambda vs, m, s, x, y, z, w: ((y, z, w), (x, y, w), (x, y, z), (x, z, w))),
    # the hom functor acts by composition with elements: hom(f, Z) tensors
    # the element of f : X -> Y on the right, hom(X, g) that of g on the left
    (Law("vstructure.right-action", lambda vs, m, s: product(s.mor_ids(), s.objects),
         lambda vs, m, s, f, z: vs.hom_mor(f, s.id_(z)),
         lambda vs, m, s, f, z: m.base.compose(
             morphism_inverse_checked(m.base, m.r(vs.hom_obj(s.dst(f), z))),
             m.tmor(m.base.id_(vs.hom_obj(s.dst(f), z)), vs.phi_of(s.src(f), s.dst(f), f)),
             vs.b(s.src(f), s.dst(f), z)), core=True),
     lambda vs, m, s, f, z: ((s.src(f), s.dst(f), z),)),
    (Law("vstructure.left-action",
         lambda vs, m, s: ((x, g) for g in s.mor_ids() for x in s.objects),
         lambda vs, m, s, x, g: vs.hom_mor(s.id_(x), g),
         lambda vs, m, s, x, g: m.base.compose(
             morphism_inverse_checked(m.base, m.l(vs.hom_obj(x, s.src(g)))),
             m.tmor(vs.phi_of(s.src(g), s.dst(g), g), m.base.id_(vs.hom_obj(x, s.src(g)))),
             vs.b(x, s.src(g), s.dst(g))), core=True),
     lambda vs, m, s, x, g: ((x, s.src(g), s.dst(g)),)),
))


_HOM_FUNCTOR = "vstructure.functor"


def check_vstructure(vs: VStructureData) -> list[CheckReport]:
    """Functoriality of the hom tables, bijectivity and naturality of the
    element correspondence, internal associativity, and the two laws tying
    the hom functor's morphism action to the internal composition, after
    :func:`check_v`.  Runs once per instance: a later call gives the same answer."""
    return list(verdict(vs, "vstructure", _vstructure_reports))


def _vstructure_reports(vs: VStructureData) -> list[CheckReport]:
    return check_v(vs.baseV) or sort_reports([*verdict(vs, "hom structure", _hom_structure),
                                              *evaluate(VSTRUCTURE_LAWS, vs, vs.baseV, vs.baseS)])


def associated_vcategory(vs: VStructureData):
    """Reread the structure as an enriched category; units are the elements of
    the identities."""
    from .vcat import VCategoryData

    return VCategoryData(
        baseV=vs.baseV,
        objects=tuple(vs.baseS.objects),
        homObj={(a, b): vs.hom_obj(a, b)
                for a in vs.baseS.objects for b in vs.baseS.objects},
        comp=dict(vs.comp),
        unit={a: vs.phi_of(a, a, vs.baseS.id_(a)) for a in vs.baseS.objects})


CYLINDER_LAWS = (
    _hom_first(Law("cylinder.cp1-1",
        lambda vs, cyl, m: ((k, x, y) for k, x in sorted(cyl.tensor_obj) for y in vs.baseS.objects),
        lambda vs, cyl, m, k, x, y: m.base.compose(
            m.tmor(m.base.id_(vs.hom_obj(cyl.tensor_obj[(k, x)], y)), cyl.alpha[(k, x)]),
            vs.b(x, cyl.tensor_obj[(k, x)], y)),
        lambda vs, cyl, m, k, x, y: m.base.compose(
            m.tmor(cyl.phibar[(k, x, y)], m.base.id_(k)), m.ev(k, vs.hom_obj(x, y))),
        core=True), ("tensor", "closed"),
        lambda vs, cyl, m, k, x, y: ((x, cyl.tensor_obj[(k, x)], y),)),
)


def _require_assignment(vs: VStructureData, kind: str, names: tuple[str, str],
                        objs: Mapping, elements: Mapping, isos: Mapping) -> None:
    """Raise :class:`MissingTableError` at the first (K, X) or (K, X, Y)
    where a cylinder or path assignment has no entry, or names an undeclared
    object; ``names`` name the element and iso tables."""
    element, iso = names
    for k in vs.baseV.base.objects:
        for x in vs.baseS.objects:
            kx = objs.get((k, x))
            if kx is None or not vs.baseS.has_obj(kx):
                raise MissingTableError(f"{kind} object missing/undeclared at ({k!r}, {x!r})")
            if elements.get((k, x)) is None:
                raise MissingTableError(f"{kind} {element} missing at ({k!r}, {x!r})")
            for y in vs.baseS.objects:
                if isos.get((k, x, y)) is None:
                    raise MissingTableError(f"{kind} {iso} missing at ({k!r}, {x!r}, {y!r})")


def recorded(vs: VStructureData, cyl: CylinderAssignment, kind: str = "cylinder",
             names: tuple[str, str] = ("alpha", "phibar")) -> CylinderAssignment:
    """A copy of ``cyl`` carrying its "cylinder" record over ``vs``: shapes and
    isomorphy of its family at every (K, X, Y), named by ``kind`` and ``names``,
    or a missing entry's error.  It is kept on the copy alone, which only ``vs``
    reads, so an assignment shared by several structures never reads another's."""
    def shapes(cyl: CylinderAssignment) -> list[CheckReport]:
        _require_assignment(vs, kind, names, cyl.tensor_obj, cyl.alpha, cyl.phibar)
        m, s = vs.baseV, vs.baseS
        shape, iso = f"{kind}.shape", f"{kind}.{names[1]}-iso"
        reports = typed(m.base, (((k, x, al), al, k, vs.hom_obj(x, cyl.tensor_obj[(k, x)]))
                                 for k, x in product(m.base.objects, s.objects)
                                 for al in (cyl.alpha[(k, x)],)), shape)
        for k, x, y in product(m.base.objects, s.objects, s.objects):
            pb = cyl.phibar[(k, x, y)]
            ends = vs.hom_obj(cyl.tensor_obj[(k, x)], y), m.hom_obj(k, vs.hom_obj(x, y))
            reports += (typed(m.base, [((k, x, y, pb), pb, *ends)], shape)
                        or typed(m.base, [((k, x, y), pb, *ends)], shape, iso))
        return reports
    cyl = replace(cyl)
    verdict(cyl, "cylinder", shapes, raising=False)
    return cyl


def _assignment_reports(vs: VStructureData, kind: str, names: tuple[str, str],
                        cyl: CylinderAssignment, laws: tuple[Law, ...]) -> list[CheckReport]:
    """The "cylinder" record of an assignment (:func:`recorded`), its error
    raised, then ``laws``.  The derived laws run when nothing is reported and
    ``vs`` passes :func:`check_vstructure`; a structure it cannot read does
    not pass."""
    cyl, m = recorded(vs, cyl, kind, names), vs.baseV
    reports = sort_reports([*verdict(cyl, "cylinder", None), *evaluate(laws, vs, cyl, m)])
    if not reports and verdict(vs, "vstructure", _vstructure_reports, raising=False) == ():
        assert_derived(DERIVED_CYLINDER_LAWS, vs, cyl, m)
    return reports


def check_cylinder(vs: VStructureData, cyl: CylinderAssignment) -> list[CheckReport]:
    """:func:`check_vstructure`, then isomorphy of the adjunct family and
    its compatibility square with the coevaluation elements at every (K, X, Y)."""
    vs.baseV.require_closed()
    return check_v(vs.baseV) or check_vstructure(vs) + _assignment_reports(
        vs, "cylinder", ("alpha", "phibar"), cyl, CYLINDER_LAWS)


# Adjunct transport of elements agrees with the coevaluation route: a
# consequence of the cylinder and hom-structure axioms, judged once they hold.
DERIVED_CYLINDER_LAWS = tuple(_hom_first(law, ("tensor", "structure", "closed")) for law in (
    derived_law("element transport",
                lambda vs, cyl, m: ((k, x, y, f) for (k, x), kx in cyl.tensor_obj.items()
                                    for y in vs.baseS.objects for f in vs.baseS.hom(kx, y)),
                lambda vs, cyl, m, k, x, y, f: m.base.compose(
                    vs.phi_of(cyl.tensor_obj[(k, x)], y, f), cyl.phibar[(k, x, y)]),
                lambda vs, cyl, m, k, x, y, f: varpi(m, m.base.compose(
                    cyl.alpha[(k, x)], vs.hom_mor(vs.baseS.id_(x), f)))),
))


def dualize_path(pth: PathAssignment) -> CylinderAssignment:
    """A path assignment is exactly a cylinder assignment for the reversed
    structure; this is the evident re-indexing."""
    return CylinderAssignment(tensor_obj=dict(pth.path_obj),
                              alpha=dict(pth.beta),
                              phibar=dict(pth.psibar))


# The path square is the cylinder square of the reversed structure, whose
# internal composition reads b after the braiding.
PATH_LAWS = (replace(CYLINDER_LAWS[0], name="path.cp2-1-25"),)


def check_path(vs: VStructureData, pth: PathAssignment) -> list[CheckReport]:
    """:func:`check_vstructure`, then the cylinder check of the path read as a
    cylinder assignment (:func:`dualize_path`) on the reversed structure
    (:func:`opposite_vstructure`), reported under the path's names."""
    m = vs.baseV
    m.require_symmetry()
    m.require_closed()
    return check_v(m) or check_vstructure(vs) + _assignment_reports(
        opposite_vstructure(vs), "path", ("beta", "psibar"), dualize_path(pth), PATH_LAWS)


def reversed_hom(hom: FunctorData, s: FinCategory) -> FunctorData:
    """The hom functor ``hom`` of a structure on ``s`` read on the reversed
    category, hom(X, Y) there being hom(Y, X); copied verbatim, so a missing
    entry stays missing."""
    on_objects = {pair_id(x, y): h for x in s.objects for y in s.objects
                  if (h := hom.onObjects.get(pair_id(y, x))) is not None}
    on_morphisms = {pair_id(u, v): h for u in s.mor_ids() for v in s.mor_ids()
                    if (h := hom.onMorphisms.get(pair_id(v, u))) is not None}
    return FunctorData(product_category(s, opposite_category(s)), hom.dstCat,
                       on_objects, on_morphisms)


def opposite_vstructure(vs: VStructureData) -> VStructureData:
    """The same hom data read over the reversed category: the hom functor
    (:func:`reversed_hom`) and the element tables with their arguments
    swapped, copied verbatim, and the internal composition read after the
    braiding at the hom objects, which must all be there.  A missing entry
    stays missing, and so does a composite that cannot be formed: the
    checkers report it at the sites that read it."""
    m = vs.baseV
    m.require_symmetry()
    s = vs.baseS
    comp = {}
    for x, y, z in product(s.objects, repeat=3):
        hzy, hyx = vs.hom_obj(z, y), vs.hom_obj(y, x)
        try:
            comp[(x, y, z)] = m.base.compose(m.braid(hzy, hyx), vs.b(z, y, x))
        except EncatError:  # undefined, as at a law's site: left out
            pass
    phi = {(x, y): vs.phi[(y, x)] for x, y in product(s.objects, repeat=2) if (y, x) in vs.phi}
    return VStructureData(baseS=opposite_category(s), baseV=m,
                          homFunctor=reversed_hom(vs.homFunctor, s), comp=comp, phi=phi)


def _transported(vs: VStructureData, cyl: CylinderAssignment, k: Obj, x: Obj,
                 target: Obj, element: Mor) -> tuple[Mor, list[Mor]]:
    """The morphism K (x) X -> target whose coevaluation composite is the
    given element K -> hom(X, target), recovered through the adjunct family,
    and every such morphism: each h at which ``WITNESS_LAWS`` hold."""
    base = vs.baseV.base
    kx = cyl.tensor_obj[(k, x)]
    t = base.compose(varpi(vs.baseV, element),
                     morphism_inverse_checked(base, cyl.phibar[(k, x, target)]))
    f = vs.phi_inv(kx, target, t)
    failed = {r.site for r in evaluate(WITNESS_LAWS, vs, cyl, k, x, target, element)}
    return f, [h for h in vs.baseS.hom(kx, target) if (h,) not in failed]


# h : K (x) X -> T witnesses e : K -> hom(X, T) when alpha . hom(1, h) = e, on (vs, cyl, K,
# X, T, e).  Given the records both sides lie in Hom_V(K, hom(X, T)): on a thin V every h does.
WITNESS_LAWS = (_hom_first(derived_law("action witness",
    lambda vs, cyl, k, x, t, e: product(vs.baseS.hom(cyl.tensor_obj[(k, x)], t)),
    lambda vs, cyl, k, x, t, e, h: vs.baseV.base.compose(
        cyl.alpha[(k, x)], vs.hom_mor(vs.baseS.id_(x), h)),
    lambda vs, cyl, k, x, t, e, h: e), ("tensor", "closed")),)


def _first_route(base, s, u_tensor, k_tensor, u: Mor, v: Mor) -> Mor:
    """K (x) v, then u (x) Y, for u : K -> L and v : X -> Y."""
    return s.compose(k_tensor(base.src(u), v), u_tensor(u, s.dst(v)))


def induced_tensor_bifunctor(vs: VStructureData, cyl: CylinderAssignment) -> FunctorData:
    """The action bifunctor forced by a cylinder assignment.

    Each partial application is computed by element transport and verified to
    be the unique morphism making the defining square commute (``WITNESS_LAWS``,
    by typing alone on a thin V), once per argument and element in one call, so each
    sends identities to identities.  The action is F(u, v) = (K (x) v) then
    (u (x) Y); its composition law at ((u, 1_X), (1_L, v)) is the agreement of
    the two partial routes of (u, v), judged with the rest of F's functor laws.
    A missing cylinder entry raises :class:`MissingTableError`, as :func:`check_cylinder` does.
    """
    _require_assignment(vs, "cylinder", ("alpha", "phibar"), cyl.tensor_obj, cyl.alpha, cyl.phibar)
    m = vs.baseV
    base = m.base
    s = vs.baseS

    transported = cache(partial(_transported, vs, cyl))  # a (K, X, T, e) recurs: one search

    def acted(k: Obj, x: Obj, target: Obj, element: Mor, what: str) -> Mor:
        f, witnesses = transported(k, x, target, element)
        if witnesses != [f]:
            raise WitnessError(f"action of {what} has {len(witnesses)} witnesses",
                               count=len(witnesses))
        return f

    @cache
    def u_tensor(u: Mor, x: Obj) -> Mor:
        l = base.dst(u)
        return acted(base.src(u), x, cyl.tensor_obj[(l, x)],
                     base.compose(u, cyl.alpha[(l, x)]), f"{u!r} on {x!r}")

    @cache
    def k_tensor(k: Obj, v: Mor) -> Mor:
        ky = cyl.tensor_obj[(k, s.dst(v))]
        return acted(k, s.src(v), ky, base.compose(cyl.alpha[(k, s.dst(v))],
                                                    vs.hom_mor(v, s.id_(ky))), f"{k!r} on {v!r}")

    on_objects = {pair_id(k, x): kx for (k, x), kx in cyl.tensor_obj.items()}
    on_morphisms = {pair_id(u, v): _first_route(base, s, u_tensor, k_tensor, u, v)
                    for u in base.mor_ids() for v in s.mor_ids()}
    fn = FunctorData(product_category(base, s), s, on_objects, on_morphisms)
    bad = validate_functor(fn, tag="action")
    if bad:
        raise WitnessError(f"induced action is not a functor: {bad[0]}", count=0)
    assert_derived(PHIBAR_NATURALITY_LAWS, vs, cyl, m, fn, fail=lambda which, site: WitnessError(
        f"adjunct family not natural in {which} at {site!r}", count=0))
    return fn


# The adjunct family is natural in all three arguments once the action
# exists, on (vs, cyl, base, action); failure signals an invalid cylinder.
PHIBAR_NATURALITY_LAWS = tuple(_hom_first(law, ("tensor", "closed")) for law in (
    derived_law("the tensor variable",
                lambda vs, cyl, m, act: product(m.base.mor_ids(), vs.baseS.objects, vs.baseS.objects),
                lambda vs, cyl, m, act, u, x, y: m.base.compose(
                    vs.hom_mor(act.mor(pair_id(u, vs.baseS.id_(x))), vs.baseS.id_(y)),
                    cyl.phibar[(m.base.src(u), x, y)]),
                lambda vs, cyl, m, act, u, x, y: m.base.compose(
                    cyl.phibar[(m.base.dst(u), x, y)],
                    hom_on_morphisms(m, u, m.base.id_(vs.hom_obj(x, y))))),
    derived_law("the source variable",
                lambda vs, cyl, m, act: product(vs.baseS.mor_ids(), m.base.objects, vs.baseS.objects),
                lambda vs, cyl, m, act, v, k, y: m.base.compose(
                    vs.hom_mor(act.mor(pair_id(m.base.id_(k), v)), vs.baseS.id_(y)),
                    cyl.phibar[(k, vs.baseS.src(v), y)]),
                lambda vs, cyl, m, act, v, k, y: m.base.compose(
                    cyl.phibar[(k, vs.baseS.dst(v), y)],
                    hom_on_morphisms(m, m.base.id_(k), vs.hom_mor(v, vs.baseS.id_(y))))),
    derived_law("the target variable",
                lambda vs, cyl, m, act: ((w, k, x) for w in vs.baseS.mor_ids()
                                         for k, x in cyl.tensor_obj),
                lambda vs, cyl, m, act, w, k, x: m.base.compose(
                    vs.hom_mor(vs.baseS.id_(cyl.tensor_obj[(k, x)]), w),
                    cyl.phibar[(k, x, vs.baseS.dst(w))]),
                lambda vs, cyl, m, act, w, k, x: m.base.compose(
                    cyl.phibar[(k, x, vs.baseS.src(w))],
                    hom_on_morphisms(m, m.base.id_(k), vs.hom_mor(vs.baseS.id_(x), w)))),
))


#: The laws declared here, and the names the checkers report under outside them.
LAWS = VSTRUCTURE_LAWS + CYLINDER_LAWS + PATH_LAWS
CHECKS = functor_law_names(_HOM_FUNCTOR) + (
    "vstructure.shape", "vstructure.phi-bijection", "cylinder.shape",
    "cylinder.phibar-iso", "path.shape", "path.psibar-iso")
