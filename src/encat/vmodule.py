"""Left module actions of a monoidal base on a category, tensor-closed and
closed variants, comodules and closed bimodules.

The adjunction bijections (phi for the tensor side, psi for the cotensor
side) are stored as explicit tables; units and counits are derived from them.
In a closed module the cotensor adjunction psi is the action adjunction phi
of the reversed side (the cotensor acting on the opposite category), so psi
is checked by running the action-side adjunction checks on that reversed
tensor-closed module; a closed bimodule, whose reversed side is that same
module, reports each cotensor failure once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .core import (
    CheckReport,
    EncatError,
    EngineBugError,
    FinCategory,
    FunctorData,
    MissingTableError,
    Mor,
    Obj,
    Preimages,
    WitnessError,
    canonical_diff,
    morphism_inverse,
    morphism_inverse_checked,
    opposite_category,
    pair_id,
    product_category,
    sort_reports,
    structural_equal,
    validate_functor,
)
from .monoidal import (
    MonoidalData,
    SymmetryData,
    _guarded,
    _law,
    hom_on_morphisms,
    internal_pi_bar,
    transpose_pi,
    transpose_pi_inv,
    varpi,
)
from .vstruct import VStructureData, opposite_vstructure


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
    def _is_self_module(self) -> bool:
        """Whether these are exactly the tables of the base acting on itself;
        decided once per instance."""
        from .instances import module_self_tensorclosed

        m = self.module.baseV
        if m.closed is None:
            return False
        if tuple(self.module.baseS.objects) != tuple(m.base.objects):
            return False
        try:
            return structural_equal(self, module_self_tensorclosed(m))
        except EncatError:
            return False

    def phi_inv(self, k: Obj, x: Obj, y: Obj, t: Mor) -> Mor:
        return Preimages(self.phi.get((k, x, y), {})).unique(
            t, lambda n: f"adjunction table at ({k!r}, {x!r}, {y!r}) has {n} "
                         f"preimages of {t!r}")


@dataclass(frozen=True)
class ClosedVModuleData:
    """A tensor-closed module with a cotensor and its adjunction tables
    psi[(K, X, Y)] : Hom(Y, K cotensor X) -> Hom(K, hom(Y, X))."""

    tensorClosed: TensorClosedModuleData
    cotensor: FunctorData
    psi: Mapping[tuple[Obj, Obj, Obj], Mapping[Mor, Mor]]

    def cot_obj(self, k: Obj, x: Obj) -> Obj:
        try:
            return self.cotensor.onObjects[pair_id(k, x)]
        except KeyError:
            raise MissingTableError(f"cotensor object table missing ({k!r}, {x!r})") from None

    def cot_mor(self, u: Mor, v: Mor) -> Mor:
        try:
            return self.cotensor.onMorphisms[pair_id(u, v)]
        except KeyError:
            raise MissingTableError(f"cotensor morphism table missing ({u!r}, {v!r})") from None

    def psi_of(self, k: Obj, x: Obj, y: Obj, g: Mor) -> Mor:
        try:
            return self.psi[(k, x, y)][g]
        except KeyError:
            raise MissingTableError(f"cotensor adjunction missing ({k!r}, {x!r}, {y!r}, {g!r})") from None

    def psi_inv(self, k: Obj, x: Obj, y: Obj, t: Mor) -> Mor:
        return Preimages(self.psi.get((k, x, y), {})).unique(
            t, lambda n: f"cotensor adjunction at ({k!r}, {x!r}, {y!r}) has {n} "
                         f"preimages of {t!r}")


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


def check_vmodule(mod: VModuleData) -> list[CheckReport]:
    """Functoriality of the action, naturality/isomorphy of its structure
    morphisms, and the two module coherence diagrams."""
    m = mod.baseV
    vbase = m.base
    s = mod.baseS
    reports: list[CheckReport] = []

    reports.extend(validate_functor(mod.action, tag="module.functor"))

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

    for u in vbase.mor_ids():
        for v in vbase.mor_ids():
            for w in s.mor_ids():
                _law(reports, "module.assoc-natural", (u, v, w),
                     _guarded(lambda: s.compose(
                         mod.act_mor(m.tmor(u, v), w),
                         mod.a(vbase.dst(u), vbase.dst(v), s.dst(w)))),
                     _guarded(lambda: s.compose(
                         mod.a(vbase.src(u), vbase.src(v), s.src(w)),
                         mod.act_mor(u, mod.act_mor(v, w)))))
    for w in s.mor_ids():
        _law(reports, "module.lunit-natural", (w,),
             _guarded(lambda: s.compose(
                 mod.act_mor(vbase.id_(m.unit), w), mod.l(s.dst(w)))),
             _guarded(lambda: s.compose(mod.l(s.src(w)), w)))

    for k in vbase.objects:
        for l in vbase.objects:
            for mm in vbase.objects:
                for x in s.objects:
                    _law(reports, "module.assoc", (k, l, mm, x),
                         _guarded(lambda: s.compose(
                             mod.a(m.tobj(k, l), mm, x),
                             mod.a(k, l, mod.act_obj(mm, x)))),
                         _guarded(lambda: s.compose(
                             mod.act_mor(m.a(k, l, mm), s.id_(x)),
                             mod.a(k, m.tobj(l, mm), x),
                             mod.act_mor(vbase.id_(k), mod.a(l, mm, x)))))
    for k in vbase.objects:
        for x in s.objects:
            _law(reports, "module.unit", (k, x),
                 _guarded(lambda: s.compose(
                     mod.a(k, m.unit, x), mod.act_mor(vbase.id_(k), mod.l(x)))),
                 _guarded(lambda: mod.act_mor(m.r(k), s.id_(x))))

    reports = sort_reports(reports)
    if not reports:
        for k in vbase.objects:
            for x in s.objects:
                lhs = s.compose(mod.a(m.unit, k, x), mod.l(mod.act_obj(k, x)))
                rhs = mod.act_mor(m.l(k), s.id_(x))
                if lhs != rhs:
                    raise EngineBugError(
                        f"derived law failed: unit-absorption triangle at ({k!r}, {x!r})")
    return reports


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
                table = tc.phi.get((k, x, y))
                if table is None:
                    raise MissingTableError(f"{what} missing ({k!r}, {x!r}, {y!r})")
                reports += Preimages(table).check(
                    "moduleclosed.naturality", (k, x, y), s.hom(mod.act_obj(k, x), y),
                    vbase.hom(k, tc.hom_obj(x, y)), what)

    for u in vbase.mor_ids():  # naturality in the tensor variable
        kp, k = vbase.src(u), vbase.dst(u)
        for x in s.objects:
            for y in s.objects:
                for f in s.hom(mod.act_obj(k, x), y):
                    _law(reports, "moduleclosed.naturality", (u, x, y, f),
                         _guarded(lambda: tc.phi_of(
                             kp, x, y, s.compose(mod.act_mor(u, s.id_(x)), f))),
                         _guarded(lambda: vbase.compose(u, tc.phi_of(k, x, y, f))))
    for v in s.mor_ids():  # naturality in the source variable
        xp, x = s.src(v), s.dst(v)
        for k in vbase.objects:
            for y in s.objects:
                for f in s.hom(mod.act_obj(k, x), y):
                    _law(reports, "moduleclosed.naturality", (k, v, y, f),
                         _guarded(lambda: tc.phi_of(
                             k, xp, y, s.compose(mod.act_mor(vbase.id_(k), v), f))),
                         _guarded(lambda: vbase.compose(
                             tc.phi_of(k, x, y, f), tc.hom_mor(v, s.id_(y)))))
    for w in s.mor_ids():  # naturality in the target variable
        y, yp = s.src(w), s.dst(w)
        for k in vbase.objects:
            for x in s.objects:
                for f in s.hom(mod.act_obj(k, x), y):
                    _law(reports, "moduleclosed.naturality", (k, x, w, f),
                         _guarded(lambda: tc.phi_of(k, x, yp, s.then(f, w))),
                         _guarded(lambda: vbase.compose(
                             tc.phi_of(k, x, y, f), tc.hom_mor(s.id_(x), w))))
    return reports


def _evaluation_square(tc: TensorClosedModuleData) -> None:
    """The evaluation square of the action adjunction, a consequence of the
    axioms: run only after they pass, so a failure is an engine bug."""
    mod = tc.module
    vbase = mod.baseV.base
    s = mod.baseS
    for f in s.mor_ids():
        x, y = s.src(f), s.dst(f)
        for z in s.objects:
            lhs = s.compose(mod.act_mor(vbase.id_(tc.hom_obj(y, z)), f),
                            _counit(tc, y, z))
            rhs = s.compose(mod.act_mor(tc.hom_mor(f, s.id_(z)), s.id_(x)),
                            _counit(tc, x, z))
            if lhs != rhs:
                raise EngineBugError(
                    f"derived law failed: module evaluation square at ({f!r}, {z!r})")


def check_tensor_closed(tc: TensorClosedModuleData) -> list[CheckReport]:
    """Module axioms, hom functoriality, bijectivity of the adjunction tables
    and their naturality in all three variables."""
    reports = check_vmodule(tc.module)
    reports += validate_functor(tc.homFunctor, tag="moduleclosed.functor")
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
    reports = check_tensor_closed(cm.tensorClosed)
    reports += validate_functor(cm.cotensor, tag="moduleclosed.cotensor")
    reversed_side = dual_tensorclosed(
        ClosedBimoduleData(closedModule=cm, comodAssoc={}, comodLunit={}))
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
    vbase = m.base
    s = mod.baseS
    from .monoidal import internal_composition_b

    ivs = induced_vstructure(tc)
    components = {(k, l, x): _action_component(tc, k, l, x)
                  for k in vbase.objects for l in vbase.objects for x in s.objects}

    def fail(what: str, site: tuple) -> None:
        raise EngineBugError(f"derived law failed: {what} at {site!r}")

    for x in s.objects:
        # composition law of the enriched action
        for k in vbase.objects:
            for l in vbase.objects:
                for mm in vbase.objects:
                    kx, lx, mx = (mod.act_obj(k, x), mod.act_obj(l, x),
                                  mod.act_obj(mm, x))
                    lhs = vbase.compose(internal_composition_b(m, k, l, mm),
                                        components[(k, mm, x)])
                    rhs = vbase.compose(
                        m.tmor(components[(l, mm, x)], components[(k, l, x)]),
                        ivs.b(kx, lx, mx))
                    if lhs != rhs:
                        fail("enriched action composition", (k, l, mm, x))
        # unit law of the enriched action
        for k in vbase.objects:
            kx = mod.act_obj(k, x)
            lhs = vbase.compose(varpi(m, vbase.id_(k)), components[(k, k, x)])
            rhs = tc.phi_of(m.unit, kx, kx, mod.l(kx))
            if lhs != rhs:
                fail("enriched action unit", (k, x))
        # enriched naturality of the components in the target variable
        for k in vbase.objects:
            for l in vbase.objects:
                for mm in vbase.objects:
                    kx, lx, mx = (mod.act_obj(k, x), mod.act_obj(l, x),
                                  mod.act_obj(mm, x))
                    lhs = vbase.compose(
                        transpose_pi(m, internal_composition_b(m, k, l, mm),
                                     m.hom_obj(l, mm), m.hom_obj(k, l)),
                        hom_on_morphisms(m, vbase.id_(m.hom_obj(k, l)),
                                         components[(k, mm, x)]))
                    rhs = vbase.compose(
                        components[(l, mm, x)],
                        transpose_pi(m, ivs.b(kx, lx, mx),
                                     tc.hom_obj(lx, mx), tc.hom_obj(kx, lx)),
                        hom_on_morphisms(m, components[(k, l, x)],
                                         vbase.id_(tc.hom_obj(kx, mx))))
                    if lhs != rhs:
                        fail("enriched action naturality", (k, l, mm, x))
        # element transport: acting on an element is the element of the action
        for u in vbase.mor_ids():
            k, l = vbase.src(u), vbase.dst(u)
            kx, lx = mod.act_obj(k, x), mod.act_obj(l, x)
            lhs = vbase.compose(varpi(m, u), components[(k, l, x)])
            rhs = tc.phi_of(m.unit, kx, lx,
                            s.compose(mod.l(kx), mod.act_mor(u, s.id_(x))))
            if lhs != rhs:
                fail("enriched action element transport", (u, x))
        # enriched naturality of the evaluations
        for y in s.objects:
            for z in s.objects:
                sxy = tc.hom_obj(x, y)
                sxy_x = mod.act_obj(sxy, x)
                lhs = tc.hom_mor(_counit(tc, x, y), s.id_(z))
                rhs = vbase.compose(
                    transpose_pi(m, ivs.b(x, y, z), tc.hom_obj(y, z), sxy),
                    components[(sxy, tc.hom_obj(x, z), x)],
                    tc.hom_mor(s.id_(sxy_x), _counit(tc, x, z)))
                if lhs != rhs:
                    fail("evaluation enriched naturality", (x, y, z))
    return EnrichedActionData(components=components)


def module_phibar(tc: TensorClosedModuleData, k: Obj, x: Obj, y: Obj,
                  *, verify: bool = True) -> Mor:
    """The internal adjunct hom(K (x) X, Y) -> hom_V(K, hom(X, Y)).

    Computed as the inverse of evaluate-then-act and, when ``verify`` is set,
    checked against its universal characterization over every tensor factor;
    a mismatch there is an engine bug.  On the self module (decided once per
    ``tc``, see :attr:`TensorClosedModuleData._is_self_module`) it must also
    agree at every site with the internal double transpose, including the
    unravelled evaluation form.
    """
    mod = tc.module
    m = mod.baseV
    m.require_closed()
    vbase = m.base
    s = mod.baseS
    hxy = tc.hom_obj(x, y)
    kx = mod.act_obj(k, x)
    forward = vbase.compose(_action_component(tc, k, hxy, x),
                            tc.hom_mor(s.id_(kx), _counit(tc, x, y)))
    phibar = morphism_inverse(vbase, forward)
    if phibar is None:
        raise WitnessError(
            f"internal adjunct at ({k!r}, {x!r}, {y!r}) is not invertible; "
            "the module is not tensor-closed", count=0)
    if not verify:
        return phibar

    for l in vbase.objects:
        for g in s.hom(mod.act_obj(l, kx), y):
            lhs = transpose_pi(
                m,
                tc.phi_of(m.tobj(l, k), x, y, s.compose(mod.a(l, k, x), g)),
                l, k)
            rhs = vbase.compose(tc.phi_of(l, kx, y, g), phibar)
            if lhs != rhs:
                raise EngineBugError(
                    f"derived law failed: internal adjunct characterization at "
                    f"({k!r}, {x!r}, {y!r}, L={l!r}, {g!r})")

    if tc._is_self_module:
        if phibar != internal_pi_bar(m, k, x, y):
            raise EngineBugError(
                "derived law failed: self-module internal adjunct differs from "
                "the internal double transpose")
        h0 = m.hom_obj(k, m.hom_obj(x, y))
        lhs = transpose_pi_inv(m, morphism_inverse_checked(vbase, phibar),
                               m.tobj(k, x), y)
        rhs = vbase.compose(
            morphism_inverse_checked(vbase, m.a(h0, k, x)),
            m.tmor(m.ev(k, m.hom_obj(x, y)), vbase.id_(x)),
            m.ev(x, y))
        if lhs != rhs:
            raise EngineBugError(
                "derived law failed: unravelled self-module adjunct "
                "differs from the double evaluation")
    return phibar


def dualize_to_comodule(mod: VModuleData) -> VModuleData:
    """Reread module-style tables over the reversed base category.

    Every table entry is kept verbatim: a morphism of S is a morphism of the
    reversed category in the other direction, so the associativity and unit
    entries flip orientation exactly as the comodule diagrams require.  The
    operation is its own inverse, and it validates whenever the input tables
    were comodule-style data tabulated over the unreversed category.
    """
    s_new = opposite_category(mod.baseS)
    action = FunctorData(
        srcCat=product_category(mod.baseV.base, s_new),
        dstCat=s_new,
        onObjects=dict(mod.action.onObjects),
        onMorphisms=dict(mod.action.onMorphisms))
    return VModuleData(
        baseV=mod.baseV, baseS=s_new, action=action,
        assoc=dict(mod.assoc), lunit=dict(mod.lunit))


def dual_module(bm: ClosedBimoduleData) -> VModuleData:
    """The reversed-side module of a bimodule: the cotensor, a functor
    V x S^op -> S^op, acting on the reversed category, with the stored
    comodule isomorphisms."""
    cm = bm.closedModule
    mod = cm.tensorClosed.module
    return VModuleData(
        baseV=mod.baseV,
        baseS=opposite_category(mod.baseS),
        action=cm.cotensor,
        assoc=dict(bm.comodAssoc),
        lunit=dict(bm.comodLunit))


def dual_tensorclosed(bm: ClosedBimoduleData) -> TensorClosedModuleData:
    """The reversed side as a tensor-closed module: hom tables swap their
    arguments and the cotensor adjunction becomes the action adjunction."""
    cm = bm.closedModule
    tc = cm.tensorClosed
    s = tc.module.baseS
    mod = dual_module(bm)
    src_prod = product_category(opposite_category(mod.baseS), mod.baseS)
    hom = tc.homFunctor  # swapped verbatim: a missing entry stays missing
    on_objects = {pair_id(x, y): h for x in s.objects for y in s.objects
                  if (h := hom.onObjects.get(pair_id(y, x))) is not None}
    on_morphisms = {pair_id(u, v): h for u in s.mor_ids() for v in s.mor_ids()
                    if (h := hom.onMorphisms.get(pair_id(v, u))) is not None}
    return TensorClosedModuleData(
        module=mod,
        homFunctor=FunctorData(src_prod, tc.module.baseV.base, on_objects, on_morphisms),
        phi={key: dict(table) for key, table in cm.psi.items()})


def _relabel(reports: list[CheckReport]) -> list[CheckReport]:
    """Reversed-side module reports under their comodule names."""
    return [CheckReport("co" + r.law if r.law.startswith("module.") else r.law,
                        r.site, r.lhs, r.rhs, r.witness_count, r.note)
            for r in reports]


def check_closed_bimodule(bm: ClosedBimoduleData,
                          sym: SymmetryData | None = None) -> list[CheckReport]:
    """The closed-module checks (which already cover the reversed side's
    adjunction), the reversed side's module checks, the requirement that the
    reversed side carry the reversed hom structure, and the three transport
    diagrams that pin the comodule isomorphisms."""
    cm = bm.closedModule
    tc = cm.tensorClosed
    m = tc.module.baseV
    sym = sym or m.require_symmetry()
    reports = list(check_closed_module(cm))

    reports.extend(_relabel(check_vmodule(dual_module(bm))))
    dtc = dual_tensorclosed(bm)

    # the reversed side's hom structure must be the reversed hom structure
    try:
        got = induced_vstructure(dtc)
        want = opposite_vstructure(induced_vstructure(tc), sym)
        if not structural_equal(got, want):
            reports.append(CheckReport(
                "bimodule.opposite-vstructure", (),
                witness_count=0, note=canonical_diff(got, want) or "tables differ"))
    except EncatError as exc:
        reports.append(CheckReport("bimodule.opposite-vstructure", (),
                                   witness_count=0, note=str(exc)))

    reports.extend(_bimodule_transport_checks(bm, sym))
    return sort_reports(reports)


def _bimodule_transport_checks(bm: ClosedBimoduleData,
                           sym: SymmetryData) -> list[CheckReport]:
    """The three diagrams that force the comodule structure.

    Evaluated unconditionally; sites whose ingredients cannot be computed
    (because some constituent table is broken) are recorded as existence
    failures of the same law.
    """
    cm = bm.closedModule
    tc = cm.tensorClosed
    m = tc.module.baseV
    vbase = m.base
    s = tc.module.baseS
    mod = tc.module
    reports: list[CheckReport] = []

    dtc = dual_tensorclosed(bm)

    # internal hexagon relating the two adjuncts through the double transpose
    for k in vbase.objects:
        for l in vbase.objects:
            for x in s.objects:
                for y in s.objects:
                    def hexagon():
                        ly = cm.cot_obj(l, y)
                        sxy = tc.hom_obj(x, y)
                        path1 = vbase.compose(
                            module_phibar(tc, k, x, ly, verify=False),
                            hom_on_morphisms(
                                m, vbase.id_(k),
                                module_phibar(dtc, l, y, x, verify=False)))
                        path2 = vbase.compose(
                            module_phibar(dtc, l, y, mod.act_obj(k, x), verify=False),
                            hom_on_morphisms(
                                m, vbase.id_(l),
                                module_phibar(tc, k, x, y, verify=False)),
                            morphism_inverse_checked(
                                vbase, internal_pi_bar(m, l, k, sxy)),
                            hom_on_morphisms(m, sym.braid[(k, l)], vbase.id_(sxy)),
                            internal_pi_bar(m, k, l, sxy))
                        return path1, path2

                    try:
                        lhs, rhs = hexagon()
                        _law(reports, "bimodule.cp2-8-1", (k, l, x, y), lhs, rhs)
                    except EncatError as exc:
                        reports.append(CheckReport(
                            "bimodule.cp2-8-1", (k, l, x, y),
                            witness_count=0, note=str(exc)))

    # the comodule associator is forced by adjoint transport
    for k in vbase.objects:
        for l in vbase.objects:
            for x in s.objects:
                try:
                    aop = bm.comodAssoc[(k, l, x)]
                except KeyError:
                    raise MissingTableError(f"comodule associator missing ({k!r}, {l!r}, {x!r})")
                for y in s.objects:
                    for g in s.hom(y, cm.cot_obj(k, cm.cot_obj(l, x))):
                        try:
                            lhs = s.then(g, aop)
                        except EncatError as exc:
                            reports.append(CheckReport(
                                "bimodule.cp2-8-2", (k, l, x, y, g),
                                witness_count=0, note=str(exc)))
                            continue
                        rhs = _guarded(lambda: _assoc_transport(bm, sym, k, l, x, y, g))
                        _law(reports, "bimodule.cp2-8-2", (k, l, x, y, g), lhs, rhs)

    # the comodule unitor is forced by element transport
    for x in s.objects:
        try:
            lop = bm.comodLunit[x]
        except KeyError:
            raise MissingTableError(f"comodule unitor missing {x!r}")
        for y in s.objects:
            for g in s.hom(y, x):
                try:
                    lhs = s.then(g, lop)
                except EncatError as exc:
                    reports.append(CheckReport(
                        "bimodule.cp2-8-3", (x, y, g), witness_count=0, note=str(exc)))
                    continue
                rhs = _guarded(lambda: _unit_transport(bm, x, y, g))
                _law(reports, "bimodule.cp2-8-3", (x, y, g), lhs, rhs)
    return reports


def _assoc_transport(bm: ClosedBimoduleData, sym: SymmetryData,
                     k: Obj, l: Obj, x: Obj, y: Obj, g: Mor) -> Mor:
    """Send Y -> K cot (L cot X) through the adjunctions, the module
    associator and the braiding to Y -> (K (x) L) cot X."""
    cm = bm.closedModule
    tc = cm.tensorClosed
    mod = tc.module
    m = mod.baseV
    s = mod.baseS
    g1 = tc.phi_inv(k, y, cm.cot_obj(l, x),
                    cm.psi_of(k, cm.cot_obj(l, x), y, g))
    g2 = tc.phi_inv(l, mod.act_obj(k, y), x,
                    cm.psi_of(l, x, mod.act_obj(k, y), g1))
    g3 = s.compose(mod.a(l, k, y), g2)
    g4 = s.compose(mod.act_mor(sym.braid[(k, l)], s.id_(y)), g3)
    return cm.psi_inv(m.tobj(k, l), x, y,
                      tc.phi_of(m.tobj(k, l), y, x, g4))


def _unit_transport(bm: ClosedBimoduleData, x: Obj, y: Obj, g: Mor) -> Mor:
    """Send Y -> X through the unit adjunction to Y -> I cot X."""
    cm = bm.closedModule
    tc = cm.tensorClosed
    mod = tc.module
    m = mod.baseV
    s = mod.baseS
    return cm.psi_inv(m.unit, x, y,
                      tc.phi_of(m.unit, y, x, s.compose(mod.l(y), g)))
