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
reading a defect of T or of the action are judged; when one fails, every
site is.  ``module.lunit-natural`` and ``moduleclosed.naturality`` are decided
at generators (:func:`~encat.core.natural`) once V, S and the records their
sides read ("action" and "module", or "action", "hom" and "phi") are clean;
else, or when a generator square fails, every site is judged.

On a thin category every diagram commutes (CWM §VII.2), so ``MODULE_LAWS``
and the transports of ``BIMODULE_LAWS`` (judged in S, S^op on the reversed
side), ``ADJUNCTION_LAWS`` and the hexagon (in V) hold once the tables they
read are well shaped: :func:`~encat.core.read_cover`, tried before any other
gate, judges no site once its premises, :func:`~encat.core.verdict` records,
are clean: V's shape loops, "action" (the cotensor's on the reversed side),
"hom", the "module" shape loop, "phi" (psi's) and, for ``BIMODULE_LAWS``,
"bimodule", every earlier report.  When the only faults are misshapen
entries, of the action (:func:`_misread`) or, but for ``ADJUNCTION_LAWS``,
of the associators and unitors (for ``BIMODULE_LAWS`` explaining every
earlier report), it judges a law only at the sites that read one, by the
readers declared beside it: comodule entry (0, 1, 0) of the self(trop(4))
bimodule set to m:2:1 is judged at 19 of the 1,000 ``module.assoc-natural``
sites of the reversed side.  The derived laws take the empty thin cover.
Every checker here judges V first (:func:`~encat.monoidal.check_v`), so a
derived law that fails is an engine bug.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import chain, product
from typing import Iterator, Mapping

from .core import (
    EMPTY,
    CheckReport,
    EncatError,
    FinCategory,
    FunctorData,
    Law,
    Mor,
    Obj,
    Preimages,
    Record,
    WitnessError,
    assert_derived,
    canonical_diff,
    clean,
    derived_law,
    entry,
    evaluate,
    explained,
    functor_law_names,
    is_valid,
    kept,
    morphism_inverse,
    morphism_inverse_checked,
    natural,
    opposite_category,
    pair_id,
    preimage,
    reading,
    shape_keys,
    sort_reports,
    squares,
    thin_first,
    trinatural_cover,
    typed,
    validate_functor,
    verdict,
)
from .monoidal import (
    SHAPE_LOOPS,
    MonoidalData,
    check_v,
    hom_on_morphisms,
    internal_swap,
    shapes_clean,
    transpose_pi,
)
from .vstruct import HomTables, VStructureData, opposite_vstructure, reversed_hom


class VModuleData(Record):
    """An action of the base on a category with associativity and unit
    isomorphisms."""

    baseV: MonoidalData
    baseS: FinCategory
    action: FunctorData
    assoc: Mapping[tuple[Obj, Obj, Obj], Mor]
    lunit: Mapping[Obj, Mor]

    def act_obj(self, k: Obj, x: Obj) -> Obj:
        return entry(self.action.onObjects, pair_id(k, x), "action object table", (k, x))

    def act_mor(self, u: Mor, v: Mor) -> Mor:
        return entry(self.action.onMorphisms, pair_id(u, v), "action morphism table", (u, v))

    def a(self, k: Obj, l: Obj, x: Obj) -> Mor:
        return entry(self.assoc, (k, l, x), "module associator")

    def l(self, x: Obj) -> Mor:
        return entry(self.lunit, x, "module unitor")


class TensorClosedModuleData(HomTables, Record):
    """A module whose action has an adjoint hom, witnessed by explicit
    bijection tables phi[(K, X, Y)] : Hom(K (x) X, Y) -> Hom(K, hom(X, Y))."""

    module: VModuleData
    homFunctor: FunctorData
    phi: Mapping[tuple[Obj, Obj, Obj], Mapping[Mor, Mor]]

    def phi_of(self, k: Obj, x: Obj, y: Obj, f: Mor) -> Mor:
        return entry(self.phi.get((k, x, y), EMPTY), f, "adjunction table", (k, x, y, f))

    def phi_inv(self, k: Obj, x: Obj, y: Obj, t: Mor) -> Mor:
        return preimage(self._phi_fibres, (k, x, y), t, "adjunction table")


class ClosedVModuleData(Record):
    """A tensor-closed module with a cotensor and its adjunction tables
    psi[(K, X, Y)] : Hom(Y, K cotensor X) -> Hom(K, hom(Y, X)), read through
    the reversed side (:func:`dual_tensorclosed`) as its action adjunction."""

    tensorClosed: TensorClosedModuleData
    cotensor: FunctorData
    psi: Mapping[tuple[Obj, Obj, Obj], Mapping[Mor, Mor]]

    def cot_obj(self, k: Obj, x: Obj) -> Obj:
        return entry(self.cotensor.onObjects, pair_id(k, x), "cotensor object table", (k, x))


class ClosedBimoduleData(Record):
    """A closed module together with the comodule associativity and unit
    isomorphisms that make the reversed side a tensor-closed module carrying
    the reversed hom structure."""

    closedModule: ClosedVModuleData
    comodAssoc: Mapping[tuple[Obj, Obj, Obj], Mor]
    comodLunit: Mapping[Obj, Mor]


_ACTION, _HOM_FUNCTOR, _COTENSOR = "module.functor", "moduleclosed.functor", "moduleclosed.cotensor"


def _misread(mod: VModuleData) -> list[tuple[Mor, Mor]] | None:
    """The (u, v) of the misshapen entries of the action (the cotensor on
    the reversed side), when its "action" record holds only shape reports."""
    record = mod.__dict__.get("verdicts", {}).get("action")
    sites = shape_keys(record, f"{_ACTION}.shape") or shape_keys(record, f"{_COTENSOR}.shape")
    parts = getattr(mod.action.srcCat.comp, "parts", {})  # a product's: pair id -> (u, v)
    return None if sites is None or not all(f in parts for f, _ in sites) else [
        parts[f] for f, _ in sites]


def _misshapen(mod: VModuleData) -> list[tuple[Obj, ...]] | None:
    """The keys of the misshapen associator (K, L, X), unitor (X,) and action
    (u, v) entries, when the other tables the module laws read are clean."""
    keys = (shape_keys(verdict(mod, "module", _module_shapes, raising=False), "module.shape")
            if shapes_clean(mod.baseV, "tensor", "structure") else None)
    return None if keys is None or (action := _misread(mod)) is None else keys + action


# The module laws, on (module, V, S); each is judged in S.  On a thin S whose
# only faults are misshapen associator, unitor and action entries, at the
# sites that read one: beside each law, the entries its sides read.
MODULE_LAWS = tuple(thin_first(law, lambda mod, m, s: s, lambda mod, m, s: _misshapen(mod), reads)
                    for law, reads in (
    (Law("module.assoc-natural",
         lambda mod, m, s: product(m.base.mor_ids(), m.base.mor_ids(), s.mor_ids()),
         lambda mod, m, s, u, v, w: s.compose(
             mod.act_mor(m.tmor(u, v), w), mod.a(m.base.dst(u), m.base.dst(v), s.dst(w))),
         lambda mod, m, s, u, v, w: s.compose(
             mod.a(m.base.src(u), m.base.src(v), s.src(w)), mod.act_mor(u, mod.act_mor(v, w))),
         gate=lambda mod, m, s: trinatural_cover(
             m.base, m.base, s, s, mod.assoc, m._tensor, *(mod.action._bifunctor,) * 3)),
     # the action at (u (x) v, w), (v, w) and (u, v (x) w)
     lambda mod, m, s: lambda bad: chain(squares(m.base, m.base, s)(bad), (
         site for p, q in (key for key in bad if len(key) == 2) for site in chain(
             ((u, v, q) for u, v in product(m.base.mor_ids(), repeat=2) if m.tmor(u, v) == p),
             product(m.base.mor_ids(), (p,), (q,)),
             ((p, v, w) for v, w in product(m.base.mor_ids(), s.mor_ids())
              if mod.act_mor(v, w) == q))))),
    (natural(Law("module.lunit-natural", None,
         lambda mod, m, s, w: s.compose(mod.act_mor(m.base.id_(m.unit), w), mod.l(s.dst(w))),
         lambda mod, m, s, w: s.compose(mod.l(s.src(w)), w)),
         lambda mod, m, s: (s,), lambda mod, m, s: is_valid(s) and clean(mod, "action", "module")),
     lambda mod, m, s: lambda bad: chain(squares(s)(bad), (  # the action at (1_I, w)
         key[1:] for key in bad if len(key) == 2 and key[0] == m.base.id_(m.unit)))),
    (Law("module.assoc",
         lambda mod, m, s: product(m.base.objects, m.base.objects, m.base.objects, s.objects),
         lambda mod, m, s, k, l, mm, x: s.compose(
             mod.a(m.tobj(k, l), mm, x), mod.a(k, l, mod.act_obj(mm, x))),
         lambda mod, m, s, k, l, mm, x: s.compose(
             mod.act_mor(m.a(k, l, mm), s.id_(x)), mod.a(k, m.tobj(l, mm), x),
             mod.act_mor(m.base.id_(k), mod.a(l, mm, x))), core=True),
     lambda mod, m, s: lambda bad: _assoc_readers(mod, m, s, bad)),
    (Law("module.unit", lambda mod, m, s: product(m.base.objects, s.objects),
         lambda mod, m, s, k, x: s.compose(
             mod.a(k, m.unit, x), mod.act_mor(m.base.id_(k), mod.l(x))),
         lambda mod, m, s, k, x: mod.act_mor(m.r(k), s.id_(x)), core=True),
     # the associator at (K, I, X), the unitor at X, the action at (1_K, l(X)), (r(K), 1_X)
     lambda mod, m, s: lambda bad: (site for key in bad for site in (
         ([(key[0], key[2])] if key[1] == m.unit else []) if len(key) == 3 else
         [(k, key[0]) for k in m.base.objects] if len(key) == 1 else
         [(k, s.src(key[1])) for k in m.base.objects
          if s.is_identity(key[1]) and m.r(k) == key[0]]
         + [(m.base.src(key[0]), x) for x in s.objects
            if m.base.is_identity(key[0]) and mod.l(x) == key[1]]))),
))


def _assoc_readers(mod: VModuleData, m: MonoidalData, s: FinCategory, bad) -> list:
    """The sites (K, L, M, X) of ``module.assoc`` reading a key of ``bad``,
    through the fibres of the tables its sides read: the module associator at
    (K (x) L, M, X), (K, L (x) M, X), (K, L, M (x) X) and (L, M, X), the
    action at (a(K, L, M), 1_X) and (1_K, a(L, M, X))."""
    objs, t, va = m.base.objects, Preimages(m.tensor_obj).fibres, Preimages(m.assoc).fibres
    act = Preimages({kx: mod.act_obj(*kx) for kx in product(objs, s.objects)}).fibres
    ma = Preimages({key: mod.a(*key) for key in product(objs, objs, s.objects)}).fibres
    keys, action = [key for key in bad if len(key) == 3], [key for key in bad if len(key) == 2]
    return ([(*kl, l, x) for k, l, x in keys for kl in t.get(k, ())]
            + [(k, *lm, x) for k, l, x in keys for lm in t.get(l, ())]
            + [(k, l, *mx) for k, l, x in keys for mx in act.get(x, ())]
            + [(j, *key) for key in keys for j in objs]
            + [(*klm, s.src(w)) for u, w in action if s.is_identity(w) for klm in va.get(u, ())]
            + [(m.base.src(u), *lmx) for u, w in action if m.base.is_identity(u)
               for lmx in ma.get(w, ())])


def check_vmodule(mod: VModuleData) -> list[CheckReport]:
    """Functoriality of the action, naturality/isomorphy of its structure
    morphisms, and the two module coherence diagrams, after :func:`check_v`."""
    if reports := check_v(mod.baseV):
        return reports
    reports = list(verdict(mod, "action", lambda mod: validate_functor(mod.action, tag=_ACTION)))
    if _objects_partial(mod.action):
        return reports
    return sort_reports(reports + _module_checks(mod))


def _objects_partial(fn: FunctorData) -> bool:
    """Whether ``fn``'s object table misses an entry: a module whose action
    it is cannot be read past :func:`~encat.core.validate_functor`, which
    reports the gap, so its other laws are not judged."""
    return any(x not in fn.onObjects for x in fn.srcCat.objects)


def _module_checks(mod: VModuleData) -> list[CheckReport]:
    """:func:`check_vmodule` past V and the "action" verdict; the derived
    laws run when it and every report here are clean."""
    m, s = mod.baseV, mod.baseS
    reports = list(verdict(mod, "module", _module_shapes))
    reports += evaluate(MODULE_LAWS, mod, m, s)
    if clean(mod, "action") and not reports:
        assert_derived(DERIVED_MODULE_LAWS, mod, m, s)
    return reports


def _module_shapes(mod: VModuleData) -> list[CheckReport]:
    """The shape and isomorphism reports of the module associator and unitor."""
    s, v = mod.baseS, mod.baseV.base.objects
    return [*typed(s, ((key, mod.a(*key), *_shape(mod, key)) for key in product(v, v, s.objects)),
                   "module.shape", "module.assoc-iso"),
            *typed(s, ((key, mod.l(*key), *_shape(mod, key)) for key in product(s.objects)),
                   "module.shape", "module.lunit-iso")]


def _shape(mod: VModuleData, key: tuple[Obj, ...]) -> tuple[Obj, Obj]:
    """The source and target of the associator entry at (K, L, X), or of the
    unitor entry at (X,)."""
    if len(key) == 1:
        return mod.act_obj(mod.baseV.unit, key[0]), key[0]
    k, l, x = key
    return mod.act_obj(mod.baseV.tobj(k, l), x), mod.act_obj(k, mod.act_obj(l, x))


# A consequence of the module axioms, judged once they hold.  With no misshapen
# entry (:func:`_misshapen`) both sides are (I (x) K) (x) X -> K (x) X in S.
DERIVED_MODULE_LAWS = (thin_first(
    derived_law("unit-absorption triangle", lambda mod, m, s: product(m.base.objects, s.objects),
                lambda mod, m, s, k, x: s.compose(mod.a(m.unit, k, x), mod.l(mod.act_obj(k, x))),
                lambda mod, m, s, k, x: mod.act_mor(m.l(k), s.id_(x))),
    lambda mod, m, s: s, lambda mod, m, s: _misshapen(mod) == []),)


def _counit(tc: TensorClosedModuleData, x: Obj, y: Obj) -> Mor:
    """The evaluation hom(X, Y) (x) X -> Y, extracted from the tables."""
    return tc.phi_inv(tc.hom_obj(x, y), x, y,
                      tc.module.baseV.base.id_(tc.hom_obj(x, y)))


def _adjoint(tc: TensorClosedModuleData, mod: VModuleData, vbase: FinCategory,
             s: FinCategory) -> list[tuple[Mor, Mor]] | None:
    """The misshapen action entries once S, the hom functor and phi are clean."""
    return _misread(mod) if is_valid(s) and clean(tc, "hom", "phi") else None


# Naturality of the adjunction tables at f : K (x) X -> Y in the tensor
# variable (u : K' -> K), the source (v : X' -> X) and the target (w : Y -> Y'),
# on (tables, module, V's base, S), judged in V.  Under :func:`_adjoint`, which reads no
# associator (a closed module's reversed side has none), each side is a morphism K' ->
# hom(X, Y), K -> hom(X', Y) or K -> hom(X, Y') where the action entry beside it is well shaped.
ADJUNCTION_LAWS = tuple(thin_first(natural(law, cats, lambda tc, mod, vbase, s: (
    is_valid(vbase) and is_valid(s) and clean(mod, "action") and clean(tc, "hom", "phi")), around),
    lambda tc, mod, vbase, s: vbase, _adjoint, reads) for law, cats, around, reads in (
    (Law("moduleclosed.naturality", None,
        lambda tc, mod, vbase, s, u, x, y, f: tc.phi_of(
            vbase.src(u), x, y, s.compose(mod.act_mor(u, s.id_(x)), f)),
        lambda tc, mod, vbase, s, u, x, y, f: vbase.compose(
            u, tc.phi_of(vbase.dst(u), x, y, f)), core=True),
     lambda *data: data[2:3], lambda tc, mod, vbase, s, u: ((u, x, y, f) for x in s.objects
         for y in s.objects for f in s.hom(mod.act_obj(vbase.dst(u), x), y)),
     lambda tc, mod, vbase, s: lambda bad: (  # the action at (u, 1_X)
         (p, s.src(q), y, f) for p, q in bad if s.is_identity(q) for y in s.objects
         for f in s.hom(mod.act_obj(vbase.dst(p), s.src(q)), y))),
    (Law("moduleclosed.naturality", None,
        lambda tc, mod, vbase, s, k, v, y, f: tc.phi_of(
            k, s.src(v), y, s.compose(mod.act_mor(vbase.id_(k), v), f)),
        lambda tc, mod, vbase, s, k, v, y, f: vbase.compose(
            tc.phi_of(k, s.dst(v), y, f), tc.hom_mor(v, s.id_(y))), core=True),
     lambda *data: data[3:], lambda tc, mod, vbase, s, v: ((k, v, y, f) for k in vbase.objects
         for y in s.objects for f in s.hom(mod.act_obj(k, s.dst(v)), y)),
     lambda tc, mod, vbase, s: lambda bad: (  # the action at (1_K, v)
         (vbase.src(p), q, y, f) for p, q in bad if vbase.is_identity(p) for y in s.objects
         for f in s.hom(mod.act_obj(vbase.src(p), s.dst(q)), y))),
    (Law("moduleclosed.naturality", None,
        lambda tc, mod, vbase, s, k, x, w, f: tc.phi_of(k, x, s.dst(w), s.then(f, w)),
        lambda tc, mod, vbase, s, k, x, w, f: vbase.compose(
            tc.phi_of(k, x, s.src(w), f), tc.hom_mor(s.id_(x), w)), core=True),
     lambda *data: data[3:], lambda tc, mod, vbase, s, w: ((k, x, w, f) for k in vbase.objects
         for x in s.objects for f in s.hom(mod.act_obj(k, x), s.src(w))),
     lambda *data: lambda bad: ()),  # no action entry
))


def _phi_verdict(tc: TensorClosedModuleData, what: str = "adjunction table",
                 raising: bool = True) -> tuple[CheckReport, ...] | EncatError:
    """The "phi" record: the bijection reports of the adjunction tables,
    named ``what`` in notes and errors."""
    mod, vbase, s = tc.module, tc.module.baseV.base, tc.module.baseS

    def bijection(tc: TensorClosedModuleData) -> Iterator[CheckReport]:
        for k, x, y in product(vbase.objects, s.objects, s.objects):
            yield from entry(tc._phi_fibres, (k, x, y), what).check(
                "moduleclosed.naturality", (k, x, y), s.hom(mod.act_obj(k, x), y),
                vbase.hom(k, tc.hom_obj(x, y)), what)
    return verdict(tc, "phi", bijection, raising)


def _adjunction_checks(tc: TensorClosedModuleData, what: str) -> list[CheckReport]:
    """Bijectivity of the adjunction tables and their naturality in all three
    variables; ``what`` names the tables in notes and errors."""
    mod = tc.module
    return [*_phi_verdict(tc, what),
            *evaluate(ADJUNCTION_LAWS, tc, mod, mod.baseV.base, mod.baseS)]


# The evaluation square of the action adjunction, a consequence of the
# axioms, on the data of ADJUNCTION_LAWS: judged once they hold.  With no misshapen
# entry (:func:`_adjoint`) both sides are defined, hom(Y, Z) (x) X -> Z in S.
EVALUATION_SQUARE = (thin_first(
    derived_law("module evaluation square",
                lambda tc, mod, vbase, s: product(s.mor_ids(), s.objects),
                lambda tc, mod, vbase, s, f, z: s.compose(
                    mod.act_mor(vbase.id_(tc.hom_obj(s.dst(f), z)), f), _counit(tc, s.dst(f), z)),
                lambda tc, mod, vbase, s, f, z: s.compose(
                    mod.act_mor(tc.hom_mor(f, s.id_(z)), s.id_(s.src(f))),
                    _counit(tc, s.src(f), z))),
    lambda tc, mod, vbase, s: s, lambda *data: _adjoint(*data) == []),)


def _evaluation_square(tc: TensorClosedModuleData) -> list[CheckReport]:
    assert_derived(EVALUATION_SQUARE, tc, tc.module, tc.module.baseV.base, tc.module.baseS)
    return []


def _hom_verdict(tc: TensorClosedModuleData, raising: bool = True) -> tuple[CheckReport, ...]:
    return verdict(tc, "hom", lambda tc: validate_functor(tc.homFunctor, tag=_HOM_FUNCTOR), raising)


def check_tensor_closed(tc: TensorClosedModuleData) -> list[CheckReport]:
    """Module axioms, hom functoriality, bijectivity of the adjunction tables
    and their naturality in all three variables, after :func:`check_v`."""
    if reports := check_v(tc.module.baseV):
        return reports
    reports = check_vmodule(tc.module) + list(_hom_verdict(tc))
    if not _objects_partial(tc.module.action):
        reports += _adjunction_checks(tc, "adjunction table")
    return sort_reports(reports) or _evaluation_square(tc)


def check_closed_module(cm: ClosedVModuleData) -> list[CheckReport]:
    """Tensor-closed checks, cotensor functoriality, and the action-side
    adjunction checks run on the reversed side, whose adjunction tables are
    psi.  Its hom functor is the hom functor with swapped arguments, already
    validated, so it is not validated again.  V's reports come first."""
    return check_v(cm.tensorClosed.module.baseV) or _closed_checks(cm, dual_tensorclosed(cm))


def _closed_checks(cm: ClosedVModuleData,
                   reversed_side: TensorClosedModuleData) -> list[CheckReport]:
    """:func:`check_closed_module` on a reversed side the caller built."""
    reports = check_tensor_closed(cm.tensorClosed)
    # the reversed side's action is the cotensor, its hom functor the hom functor's reversal
    reports += verdict(reversed_side.module, "action",
                       lambda mod: validate_functor(mod.action, tag=_COTENSOR))
    verdict(reversed_side, "hom", lambda _: _hom_verdict(cm.tensorClosed))
    if _objects_partial(cm.cotensor):
        return sort_reports(reports)
    reports += _adjunction_checks(reversed_side, "cotensor adjunction")
    return sort_reports(reports) or _evaluation_square(reversed_side)


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


@kept
def _adjunct(tc: TensorClosedModuleData, k: Obj, x: Obj, y: Obj) -> Mor:
    """The inverse of evaluate-then-act at (K, X, Y), unverified; found once
    per (K, X, Y) of ``tc`` (:func:`~encat.core.kept`)."""
    mod = tc.module
    m = mod.baseV
    m.require_closed()
    hxy = tc.hom_obj(x, y)
    kx = mod.act_obj(k, x)
    forward = m.base.compose(_action_component(tc, k, hxy, x),
                             tc.hom_mor(mod.baseS.id_(kx), _counit(tc, x, y)))
    phibar = morphism_inverse(m.base, forward)
    if phibar is None:
        raise WitnessError(
            f"internal adjunct at ({k!r}, {x!r}, {y!r}) is not invertible; "
            "the module is not tensor-closed", count=0)
    return phibar


def module_phibar(tc: TensorClosedModuleData, k: Obj, x: Obj, y: Obj) -> Mor:
    """The internal adjunct hom(K (x) X, Y) -> hom_V(K, hom(X, Y)).

    The kept inverse of evaluate-then-act (:func:`_adjunct`), checked on
    every call against its universal characterization over every tensor
    factor; a mismatch there is an engine bug.  On the self module it is the
    internal double transpose :func:`~encat.monoidal.internal_pi_bar`; that
    identity, and its unravelled double-evaluation form, are test references.
    """
    phibar = _adjunct(tc, k, x, y)
    assert_derived(PHIBAR_LAWS, tc.module, tc, phibar, (k, x, y))
    return phibar


@kept
def _adjunct_records(tc: TensorClosedModuleData) -> bool:
    """Whether V's "tensor" and "closed" records, S and the "module", "hom"
    and "phi" records of a module's own adjunction are clean; found once."""
    mod = tc.module
    return (shapes_clean(mod.baseV, "tensor", "closed") and is_valid(mod.baseS)
            and verdict(mod, "module", _module_shapes, raising=False) == ()
            and _hom_verdict(tc, raising=False) == () == _phi_verdict(tc, raising=False))


# The characterization of the internal adjunct ``phibar`` at (K, X, Y): for
# every L and g : L (x) (K (x) X) -> Y, transposing the adjunct of g . a
# gives the adjunct of g followed by ``phibar``.  Given :func:`_adjunct_records`,
# both sides are morphisms L -> hom_V(K, hom(X, Y)), equal on a thin V.
PHIBAR_LAWS = (thin_first(derived_law("internal adjunct characterization",
                lambda mod, tc, phibar, key: ((*key, l, g) for l in mod.baseV.base.objects
                                              for g in mod.baseS.hom(mod.act_obj(
                                                  l, mod.act_obj(*key[:2])), key[2])),
                lambda mod, tc, phibar, key, k, x, y, l, g: transpose_pi(mod.baseV, tc.phi_of(
                    mod.baseV.tobj(l, k), x, y, mod.baseS.compose(mod.a(l, k, x), g)), l, k),
                lambda mod, tc, phibar, key, k, x, y, l, g: mod.baseV.base.compose(
                    tc.phi_of(l, mod.act_obj(k, x), y, g), phibar)),
    lambda mod, *_: mod.baseV.base, lambda mod, tc, *_: _adjunct_records(tc)),)


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
    isomorphisms.  An action or cotensor object table with a missing entry
    stops it after the closed-module checks, which report the gap.  A
    comodule associator or unitor entry the bimodule lacks raises under its
    comodule name before any of these reads the tables."""
    cm = bm.closedModule
    tc = cm.tensorClosed
    tc.module.baseV.require_symmetry()
    if reports := check_v(tc.module.baseV):
        return reports
    reversed_side = dual_tensorclosed(cm, bm.comodAssoc, bm.comodLunit)
    reports = _closed_checks(cm, reversed_side)
    if _objects_partial(cm.cotensor) or _objects_partial(tc.module.action):
        return reports
    m, s = tc.module.baseV, tc.module.baseS
    for klx in product(m.base.objects, m.base.objects, s.objects):
        entry(bm.comodAssoc, klx, "comodule associator")
    for x in s.objects:
        entry(bm.comodLunit, x, "comodule unitor")
    # the reversed side's action is the cotensor, judged above
    reports += [replace(r, law=comodule_name(r.law)) for r in _module_checks(reversed_side.module)]

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

    verdict(reversed_side, "bimodule", lambda _: reports)
    reports.extend(evaluate(BIMODULE_LAWS, cm, reversed_side, m, s))
    return sort_reports(reports)


@explained
def _hexagon_direct(cm: ClosedVModuleData, dual: TensorClosedModuleData, m: MonoidalData,
                    s: FinCategory, k: Obj, l: Obj, x: Obj, y: Obj) -> Mor:
    """The internal adjunct at (K, X, L cot Y), then the reversed side's at
    (L, Y, X) inside hom(K, -)."""
    return m.base.compose(
        _adjunct(cm.tensorClosed, k, x, cm.cot_obj(l, y)),
        hom_on_morphisms(m, m.base.id_(k), _adjunct(dual, l, y, x)))


@explained
def _hexagon_braided(cm: ClosedVModuleData, dual: TensorClosedModuleData, m: MonoidalData,
                     s: FinCategory, k: Obj, l: Obj, x: Obj, y: Obj) -> Mor:
    """The reversed side's internal adjunct, then the action's inside
    hom(L, -), then the double transpose across the braiding of K and L."""
    tc = cm.tensorClosed
    sxy = tc.hom_obj(x, y)
    return m.base.compose(
        _adjunct(dual, l, y, tc.module.act_obj(k, x)),
        hom_on_morphisms(m, m.base.id_(l), _adjunct(tc, k, x, y)),
        *internal_swap(m, k, l, sxy))


def _assoc_transport(cm: ClosedVModuleData, dual: TensorClosedModuleData, m: MonoidalData,
                     s: FinCategory, k: Obj, l: Obj, x: Obj, y: Obj, g: Mor) -> Mor:
    """Send Y -> K cot (L cot X) through the adjunctions (psi read as the
    reversed side ``dual``'s), the module associator and the braiding to
    Y -> (K (x) L) cot X."""
    tc = cm.tensorClosed
    mod = tc.module
    lx = cm.cot_obj(l, x)  # each table entry is read once, in the order the steps need it
    g1 = tc.phi_inv(k, y, lx, dual.phi_of(k, lx, y, g))
    ky = mod.act_obj(k, y)
    g2 = tc.phi_inv(l, ky, x, dual.phi_of(l, x, ky, g1))
    g3 = s.compose(mod.a(l, k, y), g2)
    g4 = s.compose(mod.act_mor(m.braid(k, l), s.id_(y)), g3)
    kl = m.tobj(k, l)
    return dual.phi_inv(kl, x, y, tc.phi_of(kl, y, x, g4))


def _unit_transport(cm: ClosedVModuleData, dual: TensorClosedModuleData, m: MonoidalData,
                    s: FinCategory, x: Obj, y: Obj, g: Mor) -> Mor:
    """Send Y -> X through the unit adjunction to Y -> I cot X."""
    tc = cm.tensorClosed
    return dual.phi_inv(m.unit, x, y,
                        tc.phi_of(m.unit, y, x, s.compose(tc.module.l(y), g)))


# The reports a misshapen module or comodule entry can explain before BIMODULE_LAWS.
_EXPLAINED = {"bimodule.opposite-vstructure"} | {
    name for law in ("module.shape", *(law.name for law in MODULE_LAWS))
    for name in (law, comodule_name(law))}


def _explained(cm: ClosedVModuleData, dual: TensorClosedModuleData,
               m: MonoidalData, s: FinCategory) -> list[tuple[Obj, ...]] | None:
    """The misshapen associator and unitor entries of both sides, keyed
    ("module", *key) or ("comodule", *key), when S is valid, V's shape
    records are clean and they explain every earlier report (a misshapen
    action entry's never is): none without them; with them, on a thin V and
    S, each has an isomorphism of its shape (a morphism each way) to stand
    in for it, and then no report is found before BIMODULE_LAWS, which hold,
    so a site that reads none of them holds here too.  Else ``None``."""
    sides = {"module": cm.tensorClosed.module, "comodule": dual.module}
    found = {side: _misshapen(mod) for side, mod in sides.items()}
    earlier = dual.__dict__.get("verdicts", {}).get("bimodule")
    if (None in found.values() or not isinstance(earlier, tuple)
            or not (is_valid(s) and shapes_clean(m, *SHAPE_LOOPS))):
        return None
    bad = [(side, *key) for side, keys in found.items() for key in keys]
    if not bad:
        return None if earlier else []
    ends = (_shape(sides[side], key) for side, *key in bad)
    return bad if (m.base._thin and s._thin and {r.law for r in earlier} <= _EXPLAINED
                   and all(s.hom(a, b) and s.hom(b, a) for a, b in ends)) else None


# The three diagrams that force the comodule structure, evaluated on
# (closed module, reversed side, base, S) whatever the other checks found;
# the comodule isomorphisms are the reversed side's.  A site whose transport
# cannot be computed is an existence failure of the same law; the hexagon
# and the comodule morphism's composite carry the error's message.  The
# hexagon is judged in V, the transports in S.  Beside each, its readers: the
# module and comodule entries, as :func:`_explained` keys them, it reads.
BIMODULE_LAWS = tuple(thin_first(law, cat, _explained, reads) for law, cat, reads in (
    (Law("bimodule.cp2-8-1",
         lambda cm, dual, m, s: product(m.base.objects, m.base.objects, s.objects, s.objects),
         _hexagon_direct, _hexagon_braided, core=True), lambda cm, dual, m, s: m.base,
     # module_phibar's, at (hom_V(K, hom(X, Z)), K, X): of the module at (K, X, L cot Y)
     # and (K, X, Y), of the reversed side at (L, Y, X) and (L, Y, K (x) X); so only
     # the sites with a bad module entry's (K, X) or a bad comodule entry's (L, Y)
     lambda cm, dual, m, s: reading(
         lambda bad: ((p, u, q, z) if side == "module" else (u, p, z, q)
                      for side, _, p, q in (key for key in bad if len(key) == 4)
                      for u, z in product(m.base.objects, s.objects)),
         lambda k, l, x, y: (*(("module", m.hom_obj(k, cm.tensorClosed.hom_obj(x, z)), k, x)
                               for z in (cm.cot_obj(l, y), y)),
                             *(("comodule", m.hom_obj(l, dual.hom_obj(y, z)), l, y)
                               for z in (x, cm.tensorClosed.module.act_obj(k, x)))))),
    (Law("bimodule.cp2-8-2",
         lambda cm, dual, m, s: (
             (k, l, x, y, g) for k, l, x, y in product(m.base.objects, m.base.objects,
                                                       s.objects, s.objects)
             for g in s.hom(y, cm.cot_obj(k, cm.cot_obj(l, x)))),
         explained(lambda cm, dual, m, s, k, l, x, y, g: s.then(g, dual.module.assoc[(k, l, x)])),
         _assoc_transport, core=True), lambda cm, dual, m, s: s,
     # the comodule associator at (K, L, X) and the module's at (L, K, Y)
     lambda cm, dual, m, s: lambda bad: (
         (k, l, x, y, g) for side, *key in bad if len(key) == 3
         for k, l, x, y in (((*key, y) for y in s.objects) if side == "comodule" else
                            ((key[1], key[0], x, key[2]) for x in s.objects))
         for g in s.hom(y, cm.cot_obj(k, cm.cot_obj(l, x))))),
    (Law("bimodule.cp2-8-3",
         lambda cm, dual, m, s: ((x, y, g) for x in s.objects for y in s.objects
                                 for g in s.hom(y, x)),
         explained(lambda cm, dual, m, s, x, y, g: s.then(g, dual.module.lunit[x])),
         _unit_transport, core=True), lambda cm, dual, m, s: s,
     # the comodule unitor at X and the module's at Y
     lambda cm, dual, m, s: lambda bad: (
         (x, y, g) for side, *key in bad if len(key) == 1
         for x, y in (product(key, s.objects) if side == "comodule" else product(s.objects, key))
         for g in s.hom(y, x))),
))


#: The laws declared here, and the names the checkers report under outside them.
LAWS = MODULE_LAWS + ADJUNCTION_LAWS + BIMODULE_LAWS
CHECKS = sum(map(functor_law_names, (_ACTION, _HOM_FUNCTOR, _COTENSOR)), ()) + (
        "module.shape", "module.assoc-iso", "module.lunit-iso",
        "bimodule.opposite-vstructure")
