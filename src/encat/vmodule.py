"""Left module actions of a monoidal base on a category, tensor-closed and
closed variants, comodules and closed bimodules.

The adjunction bijections (phi for the tensor side, psi for the cotensor
side) are stored as explicit tables; units and counits are derived from them.
In a closed module the cotensor adjunction psi is the action adjunction phi
of the reversed side (the cotensor acting on the opposite category), built
by :func:`dual_tensorclosed` once per check or completion, with a bimodule's
comodule isomorphisms when there are any.  psi is read only through it: its
action-side adjunction checks judge psi, and the comodule transports look
psi up and invert it there.  The cotensor is validated once, as itself; the
reversed side's module checks judge its action's other laws, so a closed
bimodule reports each cotensor failure once.  An action (or cotensor) whose
object table misses an entry is reported as that functor's ``.total`` and
not read further: the laws that would read it are not judged.

The internal adjunct phibar (:func:`module_phibar`) is judged by its
universal characterization alone, on every module; on the self module it is
the internal double transpose, which the tests check, not the checker.

``module.assoc-natural``, the naturality of a : (u (x) v) (x) w =>
u (x) (v (x) w) in all three variables, is judged on
:func:`~encat.core.trinatural_cover`, the cover ``assoc.natural`` uses, with
V's tensor T as the inner map and the action (the cotensor on the reversed
side) as the other three.  Its premises: both T and the action are rebuilt
from their axes (:func:`~encat.core.rebuild_bifunctor`; the action's rebuild
is the one :func:`~encat.core.validate_functor` found, kept on the functor),
and the associator is natural for the rebuilds in each variable alone,
decided as a predicate at identities and at generators of V and S (Mac Lane,
CWM II.3, Prop. 2, iterated; squares paste).  Under them only the sites
reading a defect of T or of the action are judged; when one fails, or V's
tables are partial (``check_vmodule`` does not validate V), every site is.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
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
    canonical_diff,
    derived_law,
    evaluate,
    explained,
    functor_law_names,
    morphism_inverse,
    morphism_inverse_checked,
    opposite_category,
    pair_id,
    sort_reports,
    trinatural_cover,
    validate_functor,
)
from .monoidal import (
    MonoidalData,
    hom_on_morphisms,
    internal_composition_b,
    internal_swap,
    transpose_pi,
    varpi,
)
from .vstruct import VStructureData, opposite_vstructure, reversed_hom


@dataclass(frozen=True)
class VModuleData:
    """An action of the base on a category with associativity and unit
    isomorphisms."""

    baseV: MonoidalData
    baseS: FinCategory
    action: FunctorData
    assoc: Mapping[tuple[Obj, Obj, Obj], Mor]
    lunit: Mapping[Obj, Mor]

    def act_obj(self, k: Obj, x: Obj) -> Obj:
        try:
            return self.action.onObjects[pair_id(k, x)]
        except KeyError:
            raise MissingTableError(f"action object table missing ({k!r}, {x!r})") from None

    def act_mor(self, u: Mor, v: Mor) -> Mor:
        try:
            return self.action.onMorphisms[pair_id(u, v)]
        except KeyError:
            raise MissingTableError(f"action morphism table missing ({u!r}, {v!r})") from None

    def a(self, k: Obj, l: Obj, x: Obj) -> Mor:
        try:
            return self.assoc[(k, l, x)]
        except KeyError:
            raise MissingTableError(f"module associator missing ({k!r}, {l!r}, {x!r})") from None

    def l(self, x: Obj) -> Mor:
        try:
            return self.lunit[x]
        except KeyError:
            raise MissingTableError(f"module unitor missing {x!r}") from None


@dataclass(frozen=True)
class TensorClosedModuleData:
    """A module whose action has an adjoint hom, witnessed by explicit
    bijection tables phi[(K, X, Y)] : Hom(K (x) X, Y) -> Hom(K, hom(X, Y))."""

    module: VModuleData
    homFunctor: FunctorData
    phi: Mapping[tuple[Obj, Obj, Obj], Mapping[Mor, Mor]]

    def hom_obj(self, x: Obj, y: Obj) -> Obj:
        try:
            return self.homFunctor.onObjects[pair_id(x, y)]
        except KeyError:
            raise MissingTableError(f"hom object table missing ({x!r}, {y!r})") from None

    def hom_mor(self, f: Mor, g: Mor) -> Mor:
        try:
            return self.homFunctor.onMorphisms[pair_id(f, g)]
        except KeyError:
            raise MissingTableError(f"hom functor table missing ({f!r}, {g!r})") from None

    def phi_of(self, k: Obj, x: Obj, y: Obj, f: Mor) -> Mor:
        try:
            return self.phi[(k, x, y)][f]
        except KeyError:
            raise MissingTableError(f"adjunction table missing ({k!r}, {x!r}, {y!r}, {f!r})") from None

    @cached_property
    def _phi_fibres(self) -> dict[tuple[Obj, Obj, Obj], Preimages]:
        """The fibres of each adjunction table, read once per instance; the
        bijection check and every :meth:`phi_inv` lookup share them."""
        return {key: Preimages(table) for key, table in self.phi.items()}

    @cached_property
    def _adjuncts(self) -> dict[tuple[Obj, Obj, Obj], Mor]:
        """Per (K, X, Y), the inverse computed by :func:`module_phibar`; a
        failure is not stored."""
        return {}

    def phi_inv(self, k: Obj, x: Obj, y: Obj, t: Mor) -> Mor:
        return self._phi_fibres.get((k, x, y), NO_PREIMAGES).unique(
            t, lambda n: f"adjunction table at ({k!r}, {x!r}, {y!r}) has {n} "
                         f"preimages of {t!r}")


@dataclass(frozen=True)
class ClosedVModuleData:
    """A tensor-closed module with a cotensor and its adjunction tables
    psi[(K, X, Y)] : Hom(Y, K cotensor X) -> Hom(K, hom(Y, X)), read through
    the reversed side (:func:`dual_tensorclosed`) as its action adjunction."""

    tensorClosed: TensorClosedModuleData
    cotensor: FunctorData
    psi: Mapping[tuple[Obj, Obj, Obj], Mapping[Mor, Mor]]

    def cot_obj(self, k: Obj, x: Obj) -> Obj:
        try:
            return self.cotensor.onObjects[pair_id(k, x)]
        except KeyError:
            raise MissingTableError(f"cotensor object table missing ({k!r}, {x!r})") from None


@dataclass(frozen=True)
class ClosedBimoduleData:
    """A closed module together with the comodule associativity and unit
    isomorphisms that make the reversed side a tensor-closed module carrying
    the reversed hom structure."""

    closedModule: ClosedVModuleData
    comodAssoc: Mapping[tuple[Obj, Obj, Obj], Mor]
    comodLunit: Mapping[Obj, Mor]


@dataclass(frozen=True)
class EnrichedActionData:
    """Hom-object components of the action in its tensor variable:
    components[(K, L, X)] : hom_V(K, L) -> hom(K (x) X, L (x) X)."""

    components: Mapping[tuple[Obj, Obj, Obj], Mor]


_ACTION, _HOM_FUNCTOR, _COTENSOR = "module.functor", "moduleclosed.functor", "moduleclosed.cotensor"
_COTENSOR_LAWS = functor_law_names(_COTENSOR)

MODULE_LAWS = (
    Law("module.assoc-natural",
        lambda mod, m, s: product(m.base.mor_ids(), m.base.mor_ids(), s.mor_ids()),
        lambda mod, m, s, u, v, w: s.compose(
            mod.act_mor(m.tmor(u, v), w), mod.a(m.base.dst(u), m.base.dst(v), s.dst(w))),
        lambda mod, m, s, u, v, w: s.compose(
            mod.a(m.base.src(u), m.base.src(v), s.src(w)), mod.act_mor(u, mod.act_mor(v, w))),
        gate=lambda mod, m, s: trinatural_cover(
            m.base, m.base, s, s, mod.assoc, m._tensor, *(mod.action._bifunctor,) * 3)),
    Law("module.lunit-natural", lambda mod, m, s: product(s.mor_ids()),
        lambda mod, m, s, w: s.compose(mod.act_mor(m.base.id_(m.unit), w), mod.l(s.dst(w))),
        lambda mod, m, s, w: s.compose(mod.l(s.src(w)), w)),
    Law("module.assoc",
        lambda mod, m, s: product(m.base.objects, m.base.objects, m.base.objects, s.objects),
        lambda mod, m, s, k, l, mm, x: s.compose(
            mod.a(m.tobj(k, l), mm, x), mod.a(k, l, mod.act_obj(mm, x))),
        lambda mod, m, s, k, l, mm, x: s.compose(
            mod.act_mor(m.a(k, l, mm), s.id_(x)), mod.a(k, m.tobj(l, mm), x),
            mod.act_mor(m.base.id_(k), mod.a(l, mm, x))), core=True),
    Law("module.unit", lambda mod, m, s: product(m.base.objects, s.objects),
        lambda mod, m, s, k, x: s.compose(
            mod.a(k, m.unit, x), mod.act_mor(m.base.id_(k), mod.l(x))),
        lambda mod, m, s, k, x: mod.act_mor(m.r(k), s.id_(x)), core=True),
)


def check_vmodule(mod: VModuleData) -> list[CheckReport]:
    """Functoriality of the action, naturality/isomorphy of its structure
    morphisms, and the two module coherence diagrams."""
    reports = validate_functor(mod.action, tag=_ACTION)
    if _objects_partial(mod.action):
        return reports
    return sort_reports(reports + _module_checks(mod, not reports))


def _objects_partial(fn: FunctorData) -> bool:
    """Whether ``fn``'s object table misses an entry: a module whose action
    it is cannot be read past :func:`~encat.core.validate_functor`, which
    reports the gap, so its other laws are not judged."""
    return any(x not in fn.onObjects for x in fn.srcCat.objects)


def _module_checks(mod: VModuleData, action_lawful: bool) -> list[CheckReport]:
    """:func:`check_vmodule` past the action's functoriality, which the
    caller judged; the derived laws run when ``action_lawful`` and no
    report is found."""
    m = mod.baseV
    vbase = m.base
    s = mod.baseS
    reports: list[CheckReport] = []
    for k in vbase.objects:
        for l in vbase.objects:
            for x in s.objects:
                av = mod.a(k, l, x)
                ok = (s.has_mor(av)
                      and s.src(av) == mod.act_obj(m.tobj(k, l), x)
                      and s.dst(av) == mod.act_obj(k, mod.act_obj(l, x)))
                if not ok:
                    reports.append(CheckReport("module.shape", (k, l, x), witness_count=0))
                elif morphism_inverse(s, av) is None:
                    reports.append(CheckReport("module.assoc-iso", (k, l, x), witness_count=0))
    for x in s.objects:
        lv = mod.l(x)
        ok = (s.has_mor(lv) and s.src(lv) == mod.act_obj(m.unit, x) and s.dst(lv) == x)
        if not ok:
            reports.append(CheckReport("module.shape", (x,), witness_count=0))
        elif morphism_inverse(s, lv) is None:
            reports.append(CheckReport("module.lunit-iso", (x,), witness_count=0))

    reports += evaluate(MODULE_LAWS, mod, m, s)
    if action_lawful and not reports:
        assert_derived(DERIVED_MODULE_LAWS, mod, m, s)
    return reports


# A consequence of the module axioms, judged once they hold.
DERIVED_MODULE_LAWS = (
    derived_law("unit-absorption triangle", lambda mod, m, s: product(m.base.objects, s.objects),
                lambda mod, m, s, k, x: s.compose(mod.a(m.unit, k, x), mod.l(mod.act_obj(k, x))),
                lambda mod, m, s, k, x: mod.act_mor(m.l(k), s.id_(x))),
)


def _counit(tc: TensorClosedModuleData, x: Obj, y: Obj) -> Mor:
    """The evaluation hom(X, Y) (x) X -> Y, extracted from the tables."""
    return tc.phi_inv(tc.hom_obj(x, y), x, y,
                      tc.module.baseV.base.id_(tc.hom_obj(x, y)))


def _unit_eta(tc: TensorClosedModuleData, k: Obj, x: Obj) -> Mor:
    """The coevaluation K -> hom(X, K (x) X)."""
    kx = tc.module.act_obj(k, x)
    return tc.phi_of(k, x, kx, tc.module.baseS.id_(kx))


def module_eta_eps(tc: TensorClosedModuleData, k: Obj, x: Obj, y: Obj) -> tuple[Mor, Mor]:
    """Unit and counit of the action adjunction; the triangle identities are
    asserted."""
    mod = tc.module
    s = mod.baseS
    base = mod.baseV.base
    eta = _unit_eta(tc, k, x)
    eps = _counit(tc, x, y)
    kx = mod.act_obj(k, x)
    tri1 = s.compose(mod.act_mor(eta, s.id_(x)), _counit(tc, x, kx))
    if tri1 != s.id_(kx):
        raise EngineBugError(f"adjunction triangle failed at ({k!r}, {x!r})")
    hxy = tc.hom_obj(x, y)
    tri2 = base.compose(_unit_eta(tc, hxy, x), tc.hom_mor(s.id_(x), eps))
    if tri2 != base.id_(hxy):
        raise EngineBugError(f"adjunction cotriangle failed at ({x!r}, {y!r})")
    return eta, eps


# Naturality of the adjunction tables at f : K (x) X -> Y in the tensor
# variable (u : K' -> K), the source (v : X' -> X) and the target (w : Y -> Y').
ADJUNCTION_LAWS = (
    Law("moduleclosed.naturality",
        lambda tc, mod, vbase, s: (
            (u, x, y, f) for u in vbase.mor_ids() for x in s.objects for y in s.objects
            for f in s.hom(mod.act_obj(vbase.dst(u), x), y)),
        lambda tc, mod, vbase, s, u, x, y, f: tc.phi_of(
            vbase.src(u), x, y, s.compose(mod.act_mor(u, s.id_(x)), f)),
        lambda tc, mod, vbase, s, u, x, y, f: vbase.compose(
            u, tc.phi_of(vbase.dst(u), x, y, f)), core=True),
    Law("moduleclosed.naturality",
        lambda tc, mod, vbase, s: (
            (k, v, y, f) for v in s.mor_ids() for k in vbase.objects for y in s.objects
            for f in s.hom(mod.act_obj(k, s.dst(v)), y)),
        lambda tc, mod, vbase, s, k, v, y, f: tc.phi_of(
            k, s.src(v), y, s.compose(mod.act_mor(vbase.id_(k), v), f)),
        lambda tc, mod, vbase, s, k, v, y, f: vbase.compose(
            tc.phi_of(k, s.dst(v), y, f), tc.hom_mor(v, s.id_(y))), core=True),
    Law("moduleclosed.naturality",
        lambda tc, mod, vbase, s: (
            (k, x, w, f) for w in s.mor_ids() for k in vbase.objects for x in s.objects
            for f in s.hom(mod.act_obj(k, x), s.src(w))),
        lambda tc, mod, vbase, s, k, x, w, f: tc.phi_of(k, x, s.dst(w), s.then(f, w)),
        lambda tc, mod, vbase, s, k, x, w, f: vbase.compose(
            tc.phi_of(k, x, s.src(w), f), tc.hom_mor(s.id_(x), w)), core=True),
)


def _adjunction_checks(tc: TensorClosedModuleData, what: str) -> list[CheckReport]:
    """Bijectivity of the adjunction tables and their naturality in all three
    variables; ``what`` names the tables in notes and errors."""
    mod = tc.module
    vbase = mod.baseV.base
    s = mod.baseS
    reports: list[CheckReport] = []

    for k in vbase.objects:
        for x in s.objects:
            for y in s.objects:
                fibres = tc._phi_fibres.get((k, x, y))
                if fibres is None:
                    raise MissingTableError(f"{what} missing ({k!r}, {x!r}, {y!r})")
                reports += fibres.check(
                    "moduleclosed.naturality", (k, x, y), s.hom(mod.act_obj(k, x), y),
                    vbase.hom(k, tc.hom_obj(x, y)), what)

    return reports + evaluate(ADJUNCTION_LAWS, tc, mod, vbase, s)


# The evaluation square of the action adjunction, a consequence of the
# axioms, on the data of ADJUNCTION_LAWS: judged once they hold.
EVALUATION_SQUARE = (
    derived_law("module evaluation square",
                lambda tc, mod, vbase, s: product(s.mor_ids(), s.objects),
                lambda tc, mod, vbase, s, f, z: s.compose(
                    mod.act_mor(vbase.id_(tc.hom_obj(s.dst(f), z)), f), _counit(tc, s.dst(f), z)),
                lambda tc, mod, vbase, s, f, z: s.compose(
                    mod.act_mor(tc.hom_mor(f, s.id_(z)), s.id_(s.src(f))),
                    _counit(tc, s.src(f), z))),
)


def _evaluation_square(tc: TensorClosedModuleData) -> None:
    assert_derived(EVALUATION_SQUARE, tc, tc.module, tc.module.baseV.base, tc.module.baseS)


def check_tensor_closed(tc: TensorClosedModuleData) -> list[CheckReport]:
    """Module axioms, hom functoriality, bijectivity of the adjunction tables
    and their naturality in all three variables."""
    reports = check_vmodule(tc.module)
    reports += validate_functor(tc.homFunctor, tag=_HOM_FUNCTOR)
    if not _objects_partial(tc.module.action):
        reports += _adjunction_checks(tc, "adjunction table")
    reports = sort_reports(reports)
    if not reports:
        _evaluation_square(tc)
    return reports


def check_closed_module(cm: ClosedVModuleData) -> list[CheckReport]:
    """Tensor-closed checks, cotensor functoriality, and the action-side
    adjunction checks run on the reversed side, whose adjunction tables are
    psi.  Its hom functor is the hom functor with swapped arguments, already
    validated, so it is not validated again."""
    return _closed_checks(cm, dual_tensorclosed(cm))


def _closed_checks(cm: ClosedVModuleData,
                   reversed_side: TensorClosedModuleData) -> list[CheckReport]:
    """:func:`check_closed_module` on a reversed side the caller built."""
    reports = check_tensor_closed(cm.tensorClosed)
    reports += validate_functor(cm.cotensor, tag=_COTENSOR)
    if _objects_partial(cm.cotensor):
        return sort_reports(reports)
    reports += _adjunction_checks(reversed_side, "cotensor adjunction")
    reports = sort_reports(reports)
    if not reports:
        _evaluation_square(reversed_side)
    return reports


def induced_vstructure(tc: TensorClosedModuleData) -> VStructureData:
    """The hom structure a tensor-closed module carries: internal composition
    from the double evaluation, elements from the unit coordinate."""
    mod = tc.module
    m = mod.baseV
    vbase = m.base
    s = mod.baseS
    comp = {}
    for x in s.objects:
        for y in s.objects:
            for z in s.objects:
                hyz, hxy = tc.hom_obj(y, z), tc.hom_obj(x, y)
                composite = s.compose(
                    mod.a(hyz, hxy, x),
                    mod.act_mor(vbase.id_(hyz), _counit(tc, x, y)),
                    _counit(tc, y, z))
                comp[(x, y, z)] = tc.phi_of(m.tobj(hyz, hxy), x, z, composite)
    phi = {}
    for x in s.objects:
        for y in s.objects:
            phi[(x, y)] = {f: tc.phi_of(m.unit, x, y, s.compose(mod.l(x), f))
                           for f in s.hom(x, y)}
    return VStructureData(baseS=s, baseV=m, homFunctor=tc.homFunctor,
                          comp=comp, phi=phi)


def _action_component(tc: TensorClosedModuleData, k: Obj, l: Obj, x: Obj) -> Mor:
    """hom_V(K, L) -> hom(K (x) X, L (x) X): evaluate, then act."""
    mod = tc.module
    m = mod.baseV
    vbase = m.base
    s = mod.baseS
    hkl = m.hom_obj(k, l)
    composite = s.compose(
        morphism_inverse_checked(s, mod.a(hkl, k, x)),
        mod.act_mor(m.ev(k, l), s.id_(x)))
    return tc.phi_of(hkl, mod.act_obj(k, x), mod.act_obj(l, x), composite)


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


def module_phibar(tc: TensorClosedModuleData, k: Obj, x: Obj, y: Obj,
                  *, verify: bool = True) -> Mor:
    """The internal adjunct hom(K (x) X, Y) -> hom_V(K, hom(X, Y)).

    Computed as the inverse of evaluate-then-act and, when ``verify`` is set,
    checked against its universal characterization over every tensor factor;
    a mismatch there is an engine bug.  On the self module it is the internal
    double transpose :func:`~encat.monoidal.internal_pi_bar`; that identity,
    and its unravelled double-evaluation form, are test references.

    The inverse is computed once per distinct (K, X, Y) of ``tc`` and kept
    in a per-instance table; the checks run on every call with ``verify``
    set.  A failure is never kept, so it raises again on every call.
    """
    mod = tc.module
    m = mod.baseV
    m.require_closed()
    vbase = m.base
    s = mod.baseS
    hxy = tc.hom_obj(x, y)
    kx = mod.act_obj(k, x)
    phibar = tc._adjuncts.get((k, x, y))
    if phibar is None:
        forward = vbase.compose(_action_component(tc, k, hxy, x),
                                tc.hom_mor(s.id_(kx), _counit(tc, x, y)))
        phibar = morphism_inverse(vbase, forward)
        if phibar is None:
            raise WitnessError(
                f"internal adjunct at ({k!r}, {x!r}, {y!r}) is not invertible; "
                "the module is not tensor-closed", count=0)
        tc._adjuncts[(k, x, y)] = phibar
    if not verify:
        return phibar

    assert_derived(PHIBAR_LAWS, mod, tc, phibar, (k, x, y))
    return phibar


# The characterization of the internal adjunct ``phibar`` at (K, X, Y): for
# every L and g : L (x) (K (x) X) -> Y, transposing the adjunct of g . a
# gives the adjunct of g followed by ``phibar``.
PHIBAR_LAWS = (
    derived_law("internal adjunct characterization",
                lambda mod, tc, phibar, key: ((*key, l, g) for l in mod.baseV.base.objects
                                              for g in mod.baseS.hom(mod.act_obj(
                                                  l, mod.act_obj(*key[:2])), key[2])),
                lambda mod, tc, phibar, key, k, x, y, l, g: transpose_pi(mod.baseV, tc.phi_of(
                    mod.baseV.tobj(l, k), x, y, mod.baseS.compose(mod.a(l, k, x), g)), l, k),
                lambda mod, tc, phibar, key, k, x, y, l, g: mod.baseV.base.compose(
                    tc.phi_of(l, mod.act_obj(k, x), y, g), phibar)),
)


def dual_tensorclosed(cm: ClosedVModuleData, assoc: Mapping = {},
                      lunit: Mapping = {}) -> TensorClosedModuleData:
    """The reversed side of a closed module: the cotensor, a functor
    V x S^op -> S^op, acting on the reversed category with the comodule
    isomorphisms ``assoc`` and ``lunit`` (a bimodule's, else none), the
    reversed hom functor (:func:`~encat.vstruct.reversed_hom`), psi its adjunction."""
    tc = cm.tensorClosed
    return TensorClosedModuleData(
        module=VModuleData(baseV=tc.module.baseV, baseS=opposite_category(tc.module.baseS),
                           action=cm.cotensor, assoc=assoc, lunit=lunit),
        homFunctor=reversed_hom(tc.homFunctor, tc.module.baseS),
        phi=cm.psi)


def comodule_name(law: str) -> str:
    """The name a reversed-side module report carries: ``module.*`` laws
    become ``comodule.*``, every other name is kept."""
    return "co" + law if law.startswith("module.") else law


def check_closed_bimodule(bm: ClosedBimoduleData) -> list[CheckReport]:
    """The closed-module checks (which already cover the reversed side's
    adjunction and its action, the cotensor), the reversed side's module
    checks, the requirement that the reversed side carry the reversed hom
    structure, and the three transport diagrams that pin the comodule
    isomorphisms.  A comodule associator or unitor entry the bimodule lacks
    raises under its comodule name before any of these reads the tables."""
    cm = bm.closedModule
    tc = cm.tensorClosed
    tc.module.baseV.require_symmetry()
    reversed_side = dual_tensorclosed(cm, bm.comodAssoc, bm.comodLunit)
    reports = _closed_checks(cm, reversed_side)
    if _objects_partial(cm.cotensor):
        return reports
    m, s = tc.module.baseV, tc.module.baseS
    for k, l, x in product(m.base.objects, m.base.objects, s.objects):
        if (k, l, x) not in bm.comodAssoc:
            raise MissingTableError(f"comodule associator missing ({k!r}, {l!r}, {x!r})")
    for x in s.objects:
        if x not in bm.comodLunit:
            raise MissingTableError(f"comodule unitor missing {x!r}")
    # the reversed side's action is the cotensor, judged above
    cotensor_lawful = not any(r.law in _COTENSOR_LAWS for r in reports)
    reports += [replace(r, law=comodule_name(r.law))
                for r in _module_checks(reversed_side.module, cotensor_lawful)]

    # the reversed side's hom structure must be the reversed hom structure
    try:
        got = induced_vstructure(reversed_side)
        want = opposite_vstructure(induced_vstructure(tc))
        diff = canonical_diff(got, want)
        if diff is not None:
            reports.append(CheckReport("bimodule.opposite-vstructure", (),
                                       witness_count=0, note=diff))
    except EncatError as exc:
        reports.append(CheckReport("bimodule.opposite-vstructure", (),
                                   witness_count=0, note=str(exc)))

    reports.extend(evaluate(BIMODULE_LAWS, cm, reversed_side, m, s))
    return sort_reports(reports)


@explained
def _hexagon_direct(cm: ClosedVModuleData, dual: TensorClosedModuleData, m: MonoidalData,
                    s: FinCategory, k: Obj, l: Obj, x: Obj, y: Obj) -> Mor:
    """The internal adjunct at (K, X, L cot Y), then the reversed side's at
    (L, Y, X) inside hom(K, -)."""
    return m.base.compose(
        module_phibar(cm.tensorClosed, k, x, cm.cot_obj(l, y), verify=False),
        hom_on_morphisms(m, m.base.id_(k), module_phibar(dual, l, y, x, verify=False)))


@explained
def _hexagon_braided(cm: ClosedVModuleData, dual: TensorClosedModuleData, m: MonoidalData,
                     s: FinCategory, k: Obj, l: Obj, x: Obj, y: Obj) -> Mor:
    """The reversed side's internal adjunct, then the action's inside
    hom(L, -), then the double transpose across the braiding of K and L."""
    tc = cm.tensorClosed
    sxy = tc.hom_obj(x, y)
    return m.base.compose(
        module_phibar(dual, l, y, tc.module.act_obj(k, x), verify=False),
        hom_on_morphisms(m, m.base.id_(l), module_phibar(tc, k, x, y, verify=False)),
        *internal_swap(m, k, l, sxy))


def _assoc_transport(cm: ClosedVModuleData, dual: TensorClosedModuleData, m: MonoidalData,
                     s: FinCategory, k: Obj, l: Obj, x: Obj, y: Obj, g: Mor) -> Mor:
    """Send Y -> K cot (L cot X) through the adjunctions (psi read as the
    reversed side ``dual``'s), the module associator and the braiding to
    Y -> (K (x) L) cot X."""
    tc = cm.tensorClosed
    mod = tc.module
    g1 = tc.phi_inv(k, y, cm.cot_obj(l, x),
                    dual.phi_of(k, cm.cot_obj(l, x), y, g))
    g2 = tc.phi_inv(l, mod.act_obj(k, y), x,
                    dual.phi_of(l, x, mod.act_obj(k, y), g1))
    g3 = s.compose(mod.a(l, k, y), g2)
    g4 = s.compose(mod.act_mor(m.braid(k, l), s.id_(y)), g3)
    return dual.phi_inv(m.tobj(k, l), x, y,
                        tc.phi_of(m.tobj(k, l), y, x, g4))


def _unit_transport(cm: ClosedVModuleData, dual: TensorClosedModuleData, m: MonoidalData,
                    s: FinCategory, x: Obj, y: Obj, g: Mor) -> Mor:
    """Send Y -> X through the unit adjunction to Y -> I cot X."""
    tc = cm.tensorClosed
    return dual.phi_inv(m.unit, x, y,
                        tc.phi_of(m.unit, y, x, s.compose(tc.module.l(y), g)))


# The three diagrams that force the comodule structure, evaluated on
# (closed module, reversed side, base, S) whatever the other checks found;
# the comodule isomorphisms are the reversed side's.  A site whose transport
# cannot be computed is an existence failure of the same law; the hexagon
# and the comodule morphism's composite carry the error's message.
BIMODULE_LAWS = (
    Law("bimodule.cp2-8-1",
        lambda cm, dual, m, s: product(m.base.objects, m.base.objects, s.objects, s.objects),
        _hexagon_direct, _hexagon_braided, core=True),
    Law("bimodule.cp2-8-2",
        lambda cm, dual, m, s: (
            (k, l, x, y, g) for k, l, x, y in product(m.base.objects, m.base.objects,
                                                      s.objects, s.objects)
            for g in s.hom(y, cm.cot_obj(k, cm.cot_obj(l, x)))),
        explained(lambda cm, dual, m, s, k, l, x, y, g: s.then(g, dual.module.assoc[(k, l, x)])),
        _assoc_transport, core=True),
    Law("bimodule.cp2-8-3",
        lambda cm, dual, m, s: ((x, y, g) for x in s.objects for y in s.objects
                                for g in s.hom(y, x)),
        explained(lambda cm, dual, m, s, x, y, g: s.then(g, dual.module.lunit[x])),
        _unit_transport, core=True),
)


#: The laws declared here, and the names the checkers report under outside them.
LAWS = MODULE_LAWS + ADJUNCTION_LAWS + BIMODULE_LAWS
CHECKS = functor_law_names(_ACTION) + functor_law_names(_HOM_FUNCTOR) + _COTENSOR_LAWS + (
        "module.shape", "module.assoc-iso", "module.lunit-iso",
        "bimodule.opposite-vstructure")
