"""Categories carrying hom objects in a monoidal base, together with cylinder
and path assignments and the bifunctor they induce.

A cylinder assignment fixes one cylinder per (K, X) even though the data is
only determined up to unique isomorphism; every downstream construction uses
the fixed choice so that round trips are exact table equalities.  The
uniqueness operation documents the remaining freedom.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product
from typing import Mapping

from .core import (
    NO_PREIMAGES,
    CheckReport,
    EncatError,
    EngineBugError,
    FinCategory,
    FunctorData,
    Law,
    MissingTableError,
    Mor,
    Obj,
    Preimages,
    WitnessError,
    assert_derived,
    derived_law,
    evaluate,
    functor_law_names,
    morphism_inverse,
    morphism_inverse_checked,
    opposite_category,
    pair_id,
    product_category,
    sort_reports,
    validate_functor,
)
from .monoidal import MonoidalData, hom_on_morphisms, varpi


@dataclass(frozen=True)
class VStructureData:
    """An ordinary category with hom objects, internal composition and the
    element correspondence between its hom-sets and global elements."""

    baseS: FinCategory
    baseV: MonoidalData
    homFunctor: FunctorData
    comp: Mapping[tuple[Obj, Obj, Obj], Mor]
    phi: Mapping[tuple[Obj, Obj], Mapping[Mor, Mor]]

    def hom_obj(self, x: Obj, y: Obj) -> Obj:
        try:
            return self.homFunctor.onObjects[pair_id(x, y)]
        except KeyError:
            raise MissingTableError(f"hom object table missing ({x!r}, {y!r})") from None

    def hom_mor(self, f: Mor, g: Mor) -> Mor:
        """The hom functor on a pair (f used contravariantly, g covariantly)."""
        try:
            return self.homFunctor.onMorphisms[pair_id(f, g)]
        except KeyError:
            raise MissingTableError(f"hom functor table missing ({f!r}, {g!r})") from None

    def b(self, x: Obj, y: Obj, z: Obj) -> Mor:
        try:
            return self.comp[(x, y, z)]
        except KeyError:
            raise MissingTableError(f"internal composition missing ({x!r}, {y!r}, {z!r})") from None

    def phi_of(self, x: Obj, y: Obj, f: Mor) -> Mor:
        try:
            return self.phi[(x, y)][f]
        except KeyError:
            raise MissingTableError(f"element table missing ({x!r}, {y!r}, {f!r})") from None

    @cached_property
    def _phi_fibres(self) -> dict[tuple[Obj, Obj], Preimages]:
        """The fibres of each element table, read once per instance; the
        bijection check and every :meth:`phi_inv` lookup share them."""
        return {key: Preimages(table) for key, table in self.phi.items()}

    def phi_inv(self, x: Obj, y: Obj, t: Mor) -> Mor:
        return self._phi_fibres.get((x, y), NO_PREIMAGES).unique(
            t, lambda n: f"element correspondence at ({x!r}, {y!r}) has {n} "
                         f"preimages of {t!r}")


@dataclass(frozen=True)
class CylinderAssignment:
    """Per (K, X): the object K (x) X, the coevaluation-like element alpha and
    the hom-adjunct isomorphism family phibar."""

    tensor_obj: Mapping[tuple[Obj, Obj], Obj]
    alpha: Mapping[tuple[Obj, Obj], Mor]
    phibar: Mapping[tuple[Obj, Obj, Obj], Mor]


@dataclass(frozen=True)
class PathAssignment:
    """The dual assignment: cotensor objects, beta and psibar."""

    path_obj: Mapping[tuple[Obj, Obj], Obj]
    beta: Mapping[tuple[Obj, Obj], Mor]
    psibar: Mapping[tuple[Obj, Obj, Obj], Mor]


def _phi_acted(vs: VStructureData, m: MonoidalData, s: FinCategory, f: Mor, h: Mor,
               post: bool) -> Mor:
    """For a composable pair (f, h): the element of f post-composed with h,
    or the element of h pre-composed with f."""
    if post:
        return m.base.compose(vs.phi_of(s.src(f), s.dst(f), f), vs.hom_mor(s.id_(s.src(f)), h))
    return m.base.compose(vs.phi_of(s.src(h), s.dst(h), h), vs.hom_mor(f, s.id_(s.dst(h))))


VSTRUCTURE_LAWS = (
    # Naturality of the element correspondence: each composable pair (f, h)
    # has two squares, f's element post-composed with h and h's element
    # pre-composed with f.  A sweep over the morphisms meets the square of
    # the lesser id first, so two failures at one pair are listed that way.
    *(Law("vstructure.phi-natural",
          lambda vs, m, s: ((f, h) for f, h in product(s.mor_ids(), repeat=2)
                            if s.dst(f) == s.src(h)),
          lambda vs, m, s, f, h: vs.phi_of(s.src(f), s.dst(h), s.then(f, h)),
          lambda vs, m, s, f, h, first=first: _phi_acted(vs, m, s, f, h, (f <= h) == first))
      for first in (True, False)),
    Law("vstructure.assoc", lambda vs, m, s: product(s.objects, repeat=4),
        lambda vs, m, s, x, y, z, w: m.base.compose(
            m.tmor(vs.b(y, z, w), m.base.id_(vs.hom_obj(x, y))), vs.b(x, y, w)),
        lambda vs, m, s, x, y, z, w: m.base.compose(
            m.a(vs.hom_obj(z, w), vs.hom_obj(y, z), vs.hom_obj(x, y)),
            m.tmor(m.base.id_(vs.hom_obj(z, w)), vs.b(x, y, z)), vs.b(x, z, w)), core=True),
    # the hom functor acts by composition with elements: hom(f, Z) tensors
    # the element of f : X -> Y on the right, hom(X, g) that of g on the left
    Law("vstructure.right-action", lambda vs, m, s: product(s.mor_ids(), s.objects),
        lambda vs, m, s, f, z: vs.hom_mor(f, s.id_(z)),
        lambda vs, m, s, f, z: m.base.compose(
            morphism_inverse_checked(m.base, m.r(vs.hom_obj(s.dst(f), z))),
            m.tmor(m.base.id_(vs.hom_obj(s.dst(f), z)), vs.phi_of(s.src(f), s.dst(f), f)),
            vs.b(s.src(f), s.dst(f), z)), core=True),
    Law("vstructure.left-action",
        lambda vs, m, s: ((x, g) for g in s.mor_ids() for x in s.objects),
        lambda vs, m, s, x, g: vs.hom_mor(s.id_(x), g),
        lambda vs, m, s, x, g: m.base.compose(
            morphism_inverse_checked(m.base, m.l(vs.hom_obj(x, s.src(g)))),
            m.tmor(vs.phi_of(s.src(g), s.dst(g), g), m.base.id_(vs.hom_obj(x, s.src(g)))),
            vs.b(x, s.src(g), s.dst(g))), core=True),
)


_HOM_FUNCTOR = "vstructure.functor"


def check_vstructure(vs: VStructureData) -> list[CheckReport]:
    """Functoriality of the hom tables, bijectivity and naturality of the
    element correspondence, internal associativity, and the two laws tying
    the hom functor's morphism action to the internal composition."""
    m = vs.baseV
    base = m.base
    s = vs.baseS
    reports: list[CheckReport] = []

    reports.extend(validate_functor(vs.homFunctor, tag=_HOM_FUNCTOR))

    for x in s.objects:
        for y in s.objects:
            for z in s.objects:
                bv = vs.b(x, y, z)
                if not (base.has_mor(bv)
                        and base.src(bv) == m.tobj(vs.hom_obj(y, z), vs.hom_obj(x, y))
                        and base.dst(bv) == vs.hom_obj(x, z)):
                    reports.append(CheckReport("vstructure.shape", (x, y, z), witness_count=0))

    for x in s.objects:
        for y in s.objects:
            fibres = vs._phi_fibres.get((x, y))
            if fibres is None:
                raise MissingTableError(f"element table missing ({x!r}, {y!r})")
            reports += fibres.check(
                "vstructure.phi-bijection", (x, y), s.hom(x, y),
                base.hom(m.unit, vs.hom_obj(x, y)), "element table")

    reports += evaluate(VSTRUCTURE_LAWS, vs, m, s)
    return sort_reports(reports)


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
    Law("cylinder.cp1-1",
        lambda vs, cyl, m: ((k, x, y) for k, x in sorted(cyl.tensor_obj) for y in vs.baseS.objects),
        lambda vs, cyl, m, k, x, y: m.base.compose(
            m.tmor(m.base.id_(vs.hom_obj(cyl.tensor_obj[(k, x)], y)), cyl.alpha[(k, x)]),
            vs.b(x, cyl.tensor_obj[(k, x)], y)),
        lambda vs, cyl, m, k, x, y: m.base.compose(
            m.tmor(cyl.phibar[(k, x, y)], m.base.id_(k)), m.ev(k, vs.hom_obj(x, y))),
        core=True),
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


def _assignment_reports(vs: VStructureData, kind: str, names: tuple[str, str],
                        objs: Mapping, elements: Mapping, isos: Mapping,
                        hom) -> list[CheckReport]:
    """Shapes of a cylinder (``hom`` is the hom object) or path (``hom`` with
    its arguments swapped) assignment and isomorphy of its family, at every
    (K, X, Y); a missing entry raises.  ``names`` name the two tables."""
    _require_assignment(vs, kind, names, objs, elements, isos)
    m = vs.baseV
    base = m.base
    s = vs.baseS
    iso = names[1]
    reports: list[CheckReport] = []
    for k in base.objects:
        for x in s.objects:
            kx = objs[(k, x)]
            al = elements[(k, x)]
            if not (base.has_mor(al) and base.src(al) == k and base.dst(al) == hom(x, kx)):
                reports.append(CheckReport(f"{kind}.shape", (k, x, al), witness_count=0))
            for y in s.objects:
                pb = isos[(k, x, y)]
                ok = (base.has_mor(pb) and base.src(pb) == hom(kx, y)
                      and base.dst(pb) == m.hom_obj(k, hom(x, y)))
                if not ok:
                    reports.append(CheckReport(f"{kind}.shape", (k, x, y, pb), witness_count=0))
                elif morphism_inverse(base, pb) is None:
                    reports.append(CheckReport(f"{kind}.{iso}-iso", (k, x, y), witness_count=0))
    return reports


def check_cylinder(vs: VStructureData, cyl: CylinderAssignment) -> list[CheckReport]:
    """Isomorphy of the adjunct family and its compatibility square with the
    coevaluation elements, at every (K, X, Y)."""
    m = vs.baseV
    m.require_closed()
    reports = _assignment_reports(vs, "cylinder", ("alpha", "phibar"), cyl.tensor_obj,
                                  cyl.alpha, cyl.phibar, vs.hom_obj)
    reports += evaluate(CYLINDER_LAWS, vs, cyl, m)
    reports = sort_reports(reports)
    if not reports and not check_vstructure(vs):
        assert_derived(DERIVED_CYLINDER_LAWS, vs, cyl, m)
    return reports


# Adjunct transport of elements agrees with the coevaluation route: a
# consequence of the cylinder and hom-structure axioms, judged once they hold.
DERIVED_CYLINDER_LAWS = (
    derived_law("element transport",
                lambda vs, cyl, m: ((k, x, y, f) for (k, x), kx in cyl.tensor_obj.items()
                                    for y in vs.baseS.objects for f in vs.baseS.hom(kx, y)),
                lambda vs, cyl, m, k, x, y, f: m.base.compose(
                    vs.phi_of(cyl.tensor_obj[(k, x)], y, f), cyl.phibar[(k, x, y)]),
                lambda vs, cyl, m, k, x, y, f: varpi(m, m.base.compose(
                    cyl.alpha[(k, x)], vs.hom_mor(vs.baseS.id_(x), f)))),
)


def dualize_path(pth: PathAssignment) -> CylinderAssignment:
    """A path assignment is exactly a cylinder assignment for the reversed
    structure; this is the evident re-indexing."""
    return CylinderAssignment(tensor_obj=dict(pth.path_obj),
                              alpha=dict(pth.beta),
                              phibar=dict(pth.psibar))


PATH_LAWS = (
    Law("path.cp2-1-25",
        lambda vs, pth, m: ((k, x, y) for k, x in sorted(pth.path_obj) for y in vs.baseS.objects),
        lambda vs, pth, m, k, x, y: m.base.compose(
            m.tmor(m.base.id_(vs.hom_obj(y, pth.path_obj[(k, x)])), pth.beta[(k, x)]),
            m.braid(vs.hom_obj(y, pth.path_obj[(k, x)]), vs.hom_obj(pth.path_obj[(k, x)], x)),
            vs.b(y, pth.path_obj[(k, x)], x)),
        lambda vs, pth, m, k, x, y: m.base.compose(
            m.tmor(pth.psibar[(k, x, y)], m.base.id_(k)), m.ev(k, vs.hom_obj(y, x))),
        core=True),
)


def check_path(vs: VStructureData, pth: PathAssignment) -> list[CheckReport]:
    """The dual compatibility square, cross-checked against the cylinder
    checker on the reversed structure; the two must agree.  The oracle is
    skipped when the reversed structure cannot be built or checked."""
    m = vs.baseV
    m.require_symmetry()
    m.require_closed()
    reports = _assignment_reports(vs, "path", ("beta", "psibar"), pth.path_obj, pth.beta,
                                  pth.psibar, lambda x, y: vs.hom_obj(y, x))
    reports += evaluate(PATH_LAWS, vs, pth, m)
    reports = sort_reports(reports)

    try:
        dual = check_cylinder(opposite_vstructure(vs), dualize_path(pth))
    except EncatError:
        return reports
    if bool(dual) != bool(reports):
        raise EngineBugError(
            "oracle disagreement: the path checker and the cylinder checker on "
            "the reversed structure disagree")
    return reports


def opposite_vstructure(vs: VStructureData) -> VStructureData:
    """The same hom data read over the reversed category; the braiding reorders
    the internal composition and the element tables swap their indices."""
    m = vs.baseV
    m.require_symmetry()
    base = m.base
    s = vs.baseS
    s_op = opposite_category(s)

    src_prod = product_category(opposite_category(s_op), s_op)
    on_objects = {pair_id(x, y): vs.hom_obj(y, x) for x in s.objects for y in s.objects}
    on_morphisms = {pair_id(u, v): vs.hom_mor(v, u)
                    for u in s.mor_ids() for v in s.mor_ids()}
    comp = {}
    for x in s.objects:
        for y in s.objects:
            for z in s.objects:
                comp[(x, y, z)] = base.compose(
                    m.braid(vs.hom_obj(z, y), vs.hom_obj(y, x)),
                    vs.b(z, y, x))
    phi = {(x, y): dict(vs.phi[(y, x)]) for x in s.objects for y in s.objects}
    return VStructureData(baseS=s_op, baseV=m,
                          homFunctor=FunctorData(src_prod, base, on_objects, on_morphisms),
                          comp=comp, phi=phi)


def _alpha_transport(vs: VStructureData, cyl: CylinderAssignment,
                     k: Obj, x: Obj, target: Obj, element: Mor) -> Mor:
    """Recover the morphism K (x) X -> target whose coevaluation composite is
    the given element K -> hom(X, target), through the adjunct family."""
    m = vs.baseV
    kx = cyl.tensor_obj[(k, x)]
    t = varpi(m, element)
    t2 = m.base.compose(t, morphism_inverse_checked(m.base, cyl.phibar[(k, x, target)]))
    return vs.phi_inv(kx, target, t2)


def cylinder_unique_iso(vs: VStructureData, cyl_a: CylinderAssignment,
                        cyl_b: CylinderAssignment, k: Obj, x: Obj) -> Mor:
    """The unique isomorphism between two chosen cylinders at (K, X).

    Computed by element transport through the first cylinder's adjunct family
    and verified unique by exhaustive search.
    """
    m = vs.baseV
    base = m.base
    s = vs.baseS
    kx_a = cyl_a.tensor_obj[(k, x)]
    kx_b = cyl_b.tensor_obj[(k, x)]
    alpha_b = cyl_b.alpha[(k, x)]

    f = _alpha_transport(vs, cyl_a, k, x, kx_b, alpha_b)

    witnesses = [h for h in s.hom(kx_a, kx_b)
                 if base.compose(cyl_a.alpha[(k, x)], vs.hom_mor(s.id_(x), h)) == alpha_b]
    if len(witnesses) != 1:
        raise WitnessError(
            f"cylinder comparison at ({k!r}, {x!r}) has {len(witnesses)} witnesses",
            count=len(witnesses))
    if witnesses[0] != f:
        raise EngineBugError("derived law failed: cylinder-iso transport disagrees "
                             "with the exhaustive search")
    morphism_inverse_checked(s, f)
    return f


def _first_route(base, s, u_tensor, k_tensor, u: Mor, v: Mor) -> Mor:
    """K (x) v, then u (x) Y, for u : K -> L and v : X -> Y."""
    return s.compose(k_tensor(base.src(u), v), u_tensor(u, s.dst(v)))


# The two partial routes of a pair agree, on (base, S, the partial actions).
INTERCHANGE_LAWS = (
    derived_law("action interchange",
                lambda base, s, u_tensor, k_tensor: product(base.mor_ids(), s.mor_ids()),
                _first_route, lambda base, s, u_tensor, k_tensor, u, v: s.compose(
                    u_tensor(u, s.src(v)), k_tensor(base.dst(u), v))),
)


def induced_tensor_bifunctor(vs: VStructureData, cyl: CylinderAssignment) -> FunctorData:
    """The action bifunctor forced by a cylinder assignment.

    Each partial application is computed by element transport and verified to
    be the unique morphism making the defining square commute, once per
    argument within one call; the two partial routes of a general pair must
    agree.  A missing cylinder entry raises :class:`MissingTableError`, as
    :func:`check_cylinder` does.
    """
    _require_assignment(vs, "cylinder", ("alpha", "phibar"), cyl.tensor_obj, cyl.alpha, cyl.phibar)
    m = vs.baseV
    base = m.base
    s = vs.baseS

    @cache
    def u_tensor(u: Mor, x: Obj) -> Mor:
        k, l = base.src(u), base.dst(u)
        element = base.compose(u, cyl.alpha[(l, x)])
        f = _alpha_transport(vs, cyl, k, x, cyl.tensor_obj[(l, x)], element)
        witnesses = [h for h in s.hom(cyl.tensor_obj[(k, x)], cyl.tensor_obj[(l, x)])
                     if base.compose(cyl.alpha[(k, x)], vs.hom_mor(s.id_(x), h)) == element]
        if witnesses != [f]:
            raise WitnessError(
                f"action of {u!r} on {x!r} has {len(witnesses)} witnesses",
                count=len(witnesses))
        return f

    @cache
    def k_tensor(k: Obj, v: Mor) -> Mor:
        x, y = s.src(v), s.dst(v)
        ky = cyl.tensor_obj[(k, y)]
        element = base.compose(cyl.alpha[(k, y)], vs.hom_mor(v, s.id_(ky)))
        f = _alpha_transport(vs, cyl, k, x, ky, element)
        witnesses = [h for h in s.hom(cyl.tensor_obj[(k, x)], ky)
                     if base.compose(cyl.alpha[(k, x)], vs.hom_mor(s.id_(x), h)) == element]
        if witnesses != [f]:
            raise WitnessError(
                f"action of {k!r} on {v!r} has {len(witnesses)} witnesses",
                count=len(witnesses))
        return f

    assert_derived(INTERCHANGE_LAWS, base, s, u_tensor, k_tensor,
                   fail=lambda law, site: WitnessError(f"{law} failed at {site!r}", count=2))
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
PHIBAR_NATURALITY_LAWS = (
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
)


#: The laws declared here, and the names the checkers report under outside them.
LAWS = VSTRUCTURE_LAWS + CYLINDER_LAWS + PATH_LAWS
CHECKS = functor_law_names(_HOM_FUNCTOR) + (
    "vstructure.shape", "vstructure.phi-bijection", "cylinder.shape",
    "cylinder.phibar-iso", "path.shape", "path.psibar-iso")
