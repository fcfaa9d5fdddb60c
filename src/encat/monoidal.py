"""Monoidal, symmetric and closed structure on a finite category.

Each axiom that equates two composites is a :class:`~encat.core.Law` in
``MONOIDAL_LAWS`` or ``SYMMETRY_LAWS``, judged by
:func:`~encat.core.evaluate`; the checkers keep the shape, isomorphism,
totality and bijection checks and the order between them.

Two monoidal laws are judged only where they can fail (Mac Lane,
*Categories for the Working Mathematician*, §II.3).  The tensor is rebuilt
from its axes A, the entries T(f, 1_y) and T(1_x, g), by
:func:`~encat.core.rebuild_bifunctor`, the rebuild that also decides every
functor out of a product in :func:`~encat.core.validate_functor`.  Its
premises are pure predicates on A: the base is a valid category, every entry
of A is well shaped, A(1_x, 1_y) = 1_{x (x) y}, each axis is a functor and
the axes commute.  When A breaks one, one of the entries that premise reads
is replaced by another morphism of its shape under which all hold, if there
is one, so a single faulty axis entry is repaired.  Under the premises
R(f, g) = A(f, 1) A(1, g) is a bifunctor (Prop. 1) that equals A on the
axes; B is the set of entries where T and R differ.  A ``tensor.interchange``
site that reads no entry of B has the sides of R, so it holds: only the sites
reading B through T(f.g, f2.g2), T(f, f2) or T(g, g2), its
:func:`~encat.core.bifunctor_cover`, are judged.  ``assoc.natural`` is the
naturality of a : T(T(f, g), h) => T(f, T(g, h)), a transformation between
two composites of bifunctors, and is judged on
:func:`~encat.core.trinatural_cover`, the one cover it shares with both sides
of ``module.assoc-natural``: once the associator is natural for R in each
variable alone, decided on R at identities and at generators of the base
(Prop. 2, iterated; squares paste), only the sites where (f, g),
(T(f, g), h), (g, h) or (f, T(g, h)) is in B are judged.  ``symmetry.natural``
is decided at generators (:func:`~encat.core.natural`) once the base is valid
and the "monoidal" and "symmetry" records are clean.  When no rebuild is
found, a premise fails or a generator square does not commute, every site is
judged, so the reports never depend on the localization.  A lawful table
judges no site of the three.  ``lunit.natural`` and ``runit.natural`` keep
their sweeps: T's functoriality, their premise, is judged in the same pass.

On a thin base (trop, bool) every diagram commutes (CWM §VII.2), so every
axiom law here holds once the shape loops of the tables it reads are clean.
Each loop's :func:`~encat.core.verdict`, under its name in ``SHAPE_LOOPS``,
is read by these checks and the module side's, and
:func:`~encat.core.read_cover` is tried before any other gate: with every
loop clean it judges no site, and a misshapen associator alone sends
``assoc.natural`` only to the squares that read it.  Misshapen tensor
entries alone send the laws that read T only beside identities (all but
``tensor.interchange`` and ``assoc.natural``) to the sites that read one.
The derived monoidal and closed laws are gated on the empty cover too: on a
thin base they judge no site, and ``check_closed`` never asks for the
internal transpose.

The closed structure is given by the hom-object table and the evaluation
family only; the transpose is recovered by inverting evaluation over each
hom-set, with a uniqueness check at every lookup, so the inversion doubles
as validation of the adjunction.  Its naturality in X and in Z is not a
law of its own (CWM II.3): with e(g) = ev . (g (x) 1_Y), e(g . h) =
e(g) . (h (x) 1) since T is a bifunctor, and with t the transpose of
k . ev the bijection gives e(t) = k . ev, so e(t . g) = e(t) . (g (x) 1) =
k . e(g).  That inversion, the hom bifunctor on morphisms, the internal
transpose (verified as it is computed) and the internal swap are each found
once per argument and instance (:func:`~encat.core.kept`).

Derived laws (the unit-coincidence law, the unitor/associator compatibility
triangle, the evaluation squares, the double-transpose square and the
characterizations) are consequences of the axioms, declared outside ``LAWS``
and judged by :func:`~encat.core.assert_derived` only after the axioms pass;
it raises :class:`EngineBugError` on failure: disagreement there means the
evaluator is wrong, not the input.  ``check_closed`` judges its derived laws
only once the :func:`check_monoidal` reports are clean, and returns them
otherwise.  :func:`check_v` is V's one checker stack; every checker above
this module returns its reports, or raises its error, before its own laws.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Callable, Mapping

from .core import (
    CapabilityError,
    Bifunctor,
    CheckReport,
    EncatError,
    EngineBugError,
    FinCategory,
    FunctorData,
    Law,
    MalformedReferenceError,
    MissingTableError,
    Mor,
    Obj,
    Preimages,
    assert_derived,
    bifunctor_cover,
    clean,
    derived_law,
    entry,
    evaluate,
    is_valid,
    kept,
    morphism_inverse_checked,
    natural,
    opposite_category,
    pair_id,
    product_category,
    rebuild_bifunctor,
    required,
    shape_keys,
    sort_reports,
    squares,
    thin_first,
    trinatural_cover,
    typed,
    validate_category,
    validate_functor,
    verdict,
)


@dataclass(frozen=True)
class SymmetryData:
    """The braiding components c[(X, Y)] : X (x) Y -> Y (x) X."""

    braid: Mapping[tuple[Obj, Obj], Mor]


@dataclass(frozen=True)
class ClosedData:
    """Internal homs: hom_obj[(Y, Z)] and the evaluations ev[(Y, Z)]."""

    hom_obj: Mapping[tuple[Obj, Obj], Obj]
    ev: Mapping[tuple[Obj, Obj], Mor]


@dataclass(frozen=True)
class MonoidalData:
    """Tensor tables, unit and structure isomorphisms on a finite category.

    ``symmetry`` and ``closed`` are optional capabilities; operations that
    need them raise :class:`CapabilityError` when they are absent.
    """

    base: FinCategory
    tensor_obj: Mapping[tuple[Obj, Obj], Obj]
    tensor_mor: Mapping[tuple[Mor, Mor], Mor]
    unit: Obj
    assoc: Mapping[tuple[Obj, Obj, Obj], Mor]
    lunit: Mapping[Obj, Mor]
    runit: Mapping[Obj, Mor]
    symmetry: SymmetryData | None = None
    closed: ClosedData | None = None

    @cached_property
    def _tensor(self) -> Bifunctor | None:
        """The tensor with its rebuild from the axes, found once per
        instance; ``None`` when the tables are partial or no rebuild is
        found."""
        base = self.base
        return rebuild_bifunctor(base, base, base, self.tensor_obj, self.tensor_mor)

    def tobj(self, x: Obj, y: Obj) -> Obj:
        return entry(self.tensor_obj, (x, y), "tensor object table")

    def tmor(self, f: Mor, g: Mor) -> Mor:
        return entry(self.tensor_mor, (f, g), "tensor morphism table")

    def a(self, x: Obj, y: Obj, z: Obj) -> Mor:
        return entry(self.assoc, (x, y, z), "associator table")

    def l(self, x: Obj) -> Mor:
        return entry(self.lunit, x, "left unitor table")

    def r(self, x: Obj) -> Mor:
        return entry(self.runit, x, "right unitor table")

    def require_closed(self) -> ClosedData:
        if self.closed is None:
            raise CapabilityError("operation requires a closed monoidal category")
        return self.closed

    def require_symmetry(self) -> SymmetryData:
        if self.symmetry is None:
            raise CapabilityError("operation requires a symmetric monoidal category")
        return self.symmetry

    def hom_obj(self, y: Obj, z: Obj) -> Obj:
        return entry(self.require_closed().hom_obj, (y, z), "hom object table")

    def ev(self, y: Obj, z: Obj) -> Mor:
        return entry(self.require_closed().ev, (y, z), "evaluation table")

    def braid(self, x: Obj, y: Obj) -> Mor:
        return entry(self.require_symmetry().braid, (x, y), "braiding table")


@kept
def shapes_clean(m: MonoidalData, *names: str) -> bool:
    """Whether ``m`` has a declared unit on a valid base and clean verdicts of
    the shape loops ``names``: the premise of a thin cover that reads them."""
    return (m.base.has_obj(m.unit) and is_valid(m.base)
            and all(verdict(m, name, SHAPE_LOOPS[name], raising=False) == () for name in names))


def _thin_first(law: Law, *shapes: str) -> Law:
    """``law``, on data (m, ...), gated first on the empty
    :func:`~encat.core.read_cover` of the base, premised on clean "tensor",
    "structure" and ``shapes`` records."""
    return thin_first(law, lambda m, *_: m.base,
                      lambda m, *_: shapes_clean(m, "tensor", "structure", *shapes))


def _misshapen_assoc(m: MonoidalData) -> list[tuple[Obj, ...]] | None:
    """The misshapen associator components, when they are the only shape
    reports of the tensor and structure loops: on a thin base,
    ``assoc.natural`` is judged at the squares that read one of them."""
    return (shape_keys(verdict(m, "structure", _structure_shapes, raising=False), "assoc.shape")
            if verdict(m, "tensor", _tensor_shapes, raising=False) == () else None)


def _misshapen_tensor(m: MonoidalData) -> list[tuple[Mor, Mor]] | None:
    """The misshapen tensor entries (f, g), when they are the only shape
    reports of the tensor and structure loops and the unit is declared."""
    return (shape_keys(verdict(m, "tensor", _tensor_shapes, raising=False), "tensor.shape")
            if shapes_clean(m, "structure") else None)


def _tensor_read(law: Law, readers: Callable) -> Law:
    """``law`` gated first on the :func:`~encat.core.read_cover` of the base
    by ``readers(m, ids)`` of the :func:`_misshapen_tensor` entries, ``ids``
    the inverted identity map 1_x -> x: on a thin base, a law that reads T
    only at fixed entries is judged at the sites that read a misshapen one."""
    return thin_first(law, lambda m, base: base, lambda m, base: _misshapen_tensor(m),
                      lambda m, base: readers(m, {base.id_(x): x for x in base.objects}))


def _beside_identity(ids: dict, first: Mapping, second: Mapping) -> Callable:
    """The readers of a law whose site (*k, v) reads T(first[k], 1_v) and
    whose site (v, *k) reads T(1_v, second[k]), through the tables' fibres."""
    fst, snd = Preimages(first).fibres, Preimages(second).fibres
    return lambda bad: (site for f, g in bad for site in (
        [(*k, ids[g]) for k in fst.get(f, ())] if g in ids else []) + (
        [(ids[f], *k) for k in snd.get(g, ())] if f in ids else []))


MONOIDAL_LAWS = (
    _tensor_read(Law("tensor.identity", lambda m, base: product(base.objects, repeat=2),
        lambda m, base, x, y: m.tmor(base.id_(x), base.id_(y)),
        required(lambda m, base, x, y: base.id_(m.tobj(x, y)))),
        lambda m, ids: lambda bad: ((ids[f], ids[g]) for f, g in bad if f in ids and g in ids)),
    _thin_first(Law("tensor.interchange",
        lambda m, base: ((f, f2, g, g2) for f, g in base.comp for f2, g2 in base.comp),
        lambda m, base, f, f2, g, g2: m.tmor(base.comp[(f, g)], base.comp[(f2, g2)]),
        lambda m, base, f, f2, g, g2: base.compose(m.tmor(f, f2), m.tmor(g, g2)),
        gate=lambda m, base: bifunctor_cover(m._tensor))),
    thin_first(Law("assoc.natural", lambda m, base: product(base.mor_ids(), repeat=3),
                   lambda m, base, f, g, h: base.compose(
                       m.tmor(m.tmor(f, g), h), m.a(base.dst(f), base.dst(g), base.dst(h))),
                   lambda m, base, f, g, h: base.compose(
                       m.a(base.src(f), base.src(g), base.src(h)), m.tmor(f, m.tmor(g, h))),
                   gate=lambda m, base: trinatural_cover(
                       base, base, base, base, m.assoc, *(m._tensor,) * 4)),
               lambda m, base: base, lambda m, base: _misshapen_assoc(m),
               lambda m, base: squares(base, base, base)),
    _tensor_read(Law("lunit.natural", lambda m, base: product(base.mor_ids()),
        lambda m, base, f: base.compose(m.tmor(base.id_(m.unit), f), m.l(base.dst(f))),
        lambda m, base, f: base.compose(m.l(base.src(f)), f)),
        lambda m, ids: lambda bad: ((g,) for f, g in bad if ids.get(f) == m.unit)),
    _tensor_read(Law("runit.natural", lambda m, base: product(base.mor_ids()),
        lambda m, base, f: base.compose(m.tmor(f, base.id_(m.unit)), m.r(base.dst(f))),
        lambda m, base, f: base.compose(m.r(base.src(f)), f)),
        lambda m, ids: lambda bad: ((f,) for f, g in bad if ids.get(g) == m.unit)),
    _tensor_read(Law("pentagon", lambda m, base: product(base.objects, repeat=4),
        lambda m, base, w, x, y, z: base.compose(
            m.a(m.tobj(w, x), y, z), m.a(w, x, m.tobj(y, z))),
        lambda m, base, w, x, y, z: base.compose(
            m.tmor(m.a(w, x, y), base.id_(z)), m.a(w, m.tobj(x, y), z),
            m.tmor(base.id_(w), m.a(x, y, z))), core=True),
        lambda m, ids: _beside_identity(ids, m.assoc, m.assoc)),
    _tensor_read(Law("triangle", lambda m, base: product(base.objects, repeat=2),
        lambda m, base, x, y: base.compose(m.a(x, m.unit, y), m.tmor(base.id_(x), m.l(y))),
        lambda m, base, x, y: m.tmor(m.r(x), base.id_(y)), core=True),
        lambda m, ids: _beside_identity(ids, {(x,): f for x, f in m.runit.items()},
                                        {(y,): f for y, f in m.lunit.items()})),
)


def check_monoidal(m: MonoidalData) -> list[CheckReport]:
    """Bifunctoriality, naturality, isomorphism and coherence of (tensor, a, l, r).

    Raises :class:`MissingTableError` when a structure table is partial, and
    :class:`EngineBugError` if a derived law fails on an input whose axioms
    all hold.  Runs once per instance: the "monoidal" verdict keeps the answer.
    """
    return list(verdict(m, "monoidal", _monoidal_reports))


def _monoidal_reports(m: MonoidalData) -> list[CheckReport]:
    base = m.base
    reports = list(verdict(m, "tensor", _tensor_shapes))
    reports += evaluate(MONOIDAL_LAWS, m, base)  # an error of the structure loop comes after
    reports = sort_reports([*reports, *verdict(m, "structure", _structure_shapes)])
    if not reports:
        assert_derived(DERIVED_MONOIDAL_LAWS, m, base)
    return reports


def _tensor_shapes(m: MonoidalData) -> list[CheckReport]:
    """The shape reports of the tensor, once the object-level tables (the
    associator's and unitors' too) are found total.  ``table.get(key) or
    accessor(key)`` calls the accessor only on a miss: its errors, in order."""
    base, tobj, tmor, assoc = m.base, m.tensor_obj, m.tensor_mor, m.assoc
    objs, mors = base.objects, [(f, base._mors[f]) for f in base.mor_ids()]
    for x in objs:
        for y in objs:
            (x, y) in tobj or m.tobj(x, y)
        x in m.lunit or m.l(x), x in m.runit or m.r(x)
        for y, z in product(objs, repeat=2):
            (x, y, z) in assoc or m.a(x, y, z)
    reports: list[CheckReport] = []
    for f, (s, d) in mors:
        for g, (s2, d2) in mors:
            fg = tmor.get((f, g)) or m.tmor(f, g)
            if (e := base._mors.get(fg)) is None:
                raise MalformedReferenceError(
                    f"tensor maps ({f!r}, {g!r}) to undeclared morphism {fg!r}")
            if (e[0] != (tobj.get((s, s2)) or m.tobj(s, s2))
                    or e[1] != (tobj.get((d, d2)) or m.tobj(d, d2))):
                reports.append(CheckReport("tensor.shape", (f, g), witness_count=0))
    return reports


def _structure_shapes(m: MonoidalData) -> list[CheckReport]:
    """The shape and isomorphism reports of the associator and unitors."""
    base, objs, t = m.base, m.base.objects, m.tobj
    return [*typed(base, (((x, y, z), m.a(x, y, z), t(t(x, y), z), t(x, t(y, z)))
                          for x, y, z in product(objs, repeat=3)), "assoc.shape", "assoc.iso"),
            *typed(base, (((x,), m.l(x), t(m.unit, x), x) for x in objs),
                   "lunit.shape", "lunit.iso"),
            *typed(base, (((x,), m.r(x), t(x, m.unit), x) for x in objs),
                   "runit.shape", "runit.iso")]


# Consequences of the monoidal axioms, judged once they hold.  Like the
# derived closed laws below, they are gated on the empty thin cover: with
# clean shape verdicts (the closed ones too, for those) every side is a
# defined composite of typed entries and unique transposes, both sides are
# parallel, and on a valid thin base parallel morphisms are equal.
DERIVED_MONOIDAL_LAWS = tuple(map(_thin_first, (
    derived_law("unitors at the unit", lambda m, base: [()],
                lambda m, base: m.l(m.unit), lambda m, base: m.r(m.unit)),
    derived_law("left-unitor triangle", lambda m, base: product(base.objects, repeat=2),
                lambda m, base, x, y: base.compose(m.a(m.unit, x, y), m.l(m.tobj(x, y))),
                lambda m, base, x, y: m.tmor(m.l(x), base.id_(y))),
)))


SYMMETRY_LAWS = tuple(_thin_first(law, "symmetry") for law in (
    natural(Law("symmetry.natural", None,
        lambda m, base, f, g: base.compose(m.tmor(f, g), m.braid(base.dst(f), base.dst(g))),
        lambda m, base, f, g: base.compose(m.braid(base.src(f), base.src(g)), m.tmor(g, f))),
        lambda m, base: (base, base),
        lambda m, base: is_valid(base) and clean(m, "monoidal", "symmetry")),
    Law("symmetry.invol", lambda m, base: product(base.objects, repeat=2),
        lambda m, base, x, y: base.compose(m.braid(x, y), m.braid(y, x)),
        required(lambda m, base, x, y: base.id_(m.tobj(x, y))), core=True),
    Law("symmetry.hexagon", lambda m, base: product(base.objects, repeat=3),
        lambda m, base, x, y, z: base.compose(
            m.a(x, y, z), m.braid(x, m.tobj(y, z)), m.a(y, z, x)),
        lambda m, base, x, y, z: base.compose(
            m.tmor(m.braid(x, y), base.id_(z)), m.a(y, x, z),
            m.tmor(base.id_(y), m.braid(x, z))), core=True),
    Law("symmetry.unit", lambda m, base: product(base.objects),
        lambda m, base, x: base.compose(m.braid(m.unit, x), m.r(x)),
        required(lambda m, base, x: m.l(x)), core=True),
))


def check_symmetry(m: MonoidalData) -> list[CheckReport]:
    """Naturality plus the three braiding axioms."""
    m.require_symmetry()
    return sort_reports([*verdict(m, "symmetry", _braid_shapes),
                         *evaluate(SYMMETRY_LAWS, m, m.base)])


def _braid_shapes(m: MonoidalData) -> list[CheckReport]:
    """The shape reports of the braiding."""
    return typed(m.base, (((x, y), m.braid(x, y), m.tobj(x, y), m.tobj(y, x))
                          for x, y in product(m.base.objects, repeat=2)), "symmetry.shape")


def _transpose_forward(m: MonoidalData, g: Mor, y: Obj, z: Obj) -> Mor:
    """The map g |-> ev . (g (x) 1_y), inverse of the transpose."""
    return m.base.compose(m.tmor(g, m.base.id_(y)), m.ev(y, z))


def transpose_pi_inv(m: MonoidalData, g: Mor, y: Obj, z: Obj) -> Mor:
    """Un-transpose g : X -> hom(Y, Z) into X (x) Y -> Z."""
    m.require_closed()
    return _transpose_forward(m, g, y, z)


@kept
def _transpose_table(m: MonoidalData, x: Obj, y: Obj, z: Obj) -> Preimages:
    """The inverse of the forward map over hom(X, hom(Y, Z)), built by one
    exhaustive pass per (X, Y, Z) of ``m``; an undefined image is keyed
    ``None``.  Both :func:`transpose_pi` and ``closed.bijection`` read it."""
    images: dict[Mor, Mor | None] = {}
    for g in m.base.hom(x, m.hom_obj(y, z)):
        try:
            images[g] = _transpose_forward(m, g, y, z)
        except EncatError:
            images[g] = None
    return Preimages(images)


def transpose_pi(m: MonoidalData, f: Mor, x: Obj, y: Obj) -> Mor:
    """Transpose f : X (x) Y -> Z into the unique g : X -> hom(Y, Z).

    Looked up in :func:`_transpose_table`.  Zero or several witnesses raise
    :class:`WitnessError` on every call (the closed data is then invalid).
    """
    m.require_closed()
    z = m.base.dst(f)
    return _transpose_table(m, x, y, z).unique(
        f, lambda n: f"transpose of {f!r} at ({x!r}, {y!r}, {z!r}) has {n} witnesses")


CLOSED_BIJECTION = "closed.bijection"


def _closed_shapes(m: MonoidalData) -> list[CheckReport]:
    """The shape reports of the evaluations and, at every (X, Y, Z), the
    bijection reports of the transpose, read from :func:`_transpose_table`;
    on a valid thin base with a clean "tensor" record and ev(Y, Z) well shaped
    (a typed forward map between hom-sets of at most one element), from
    whether Hom(X, hom(Y, Z)) alone is empty."""
    base = m.base
    objs = base.objects
    thin = base._thin and is_valid(base) and clean(m, "tensor")
    reports: list[CheckReport] = []
    ev_ok: dict[tuple[Obj, Obj], bool] = {}
    for y, z in product(objs, repeat=2):
        h = m.hom_obj(y, z)
        if not base.has_obj(h):
            raise MissingTableError(f"hom object ({y!r},{z!r}) -> undeclared {h!r}")
        e = m.ev(y, z)
        ok = base.has_mor(e) and base.src(e) == m.tobj(h, y) and base.dst(e) == z
        ev_ok[(y, z)] = ok
        if not ok:
            reports.append(CheckReport("closed.shape", (y, z), witness_count=0))
    for x, y, z in product(objs, repeat=3):
        dom = base.hom(x, m.hom_obj(y, z))
        cod = base.hom(m.tobj(x, y), z)
        if ev_ok[(y, z)]:
            if not (thin and dom):  # on a thin base, the empty table's reports
                reports += (Preimages({}) if thin else _transpose_table(m, x, y, z)).check(
                    CLOSED_BIJECTION, (x, y, z), dom, cod, "transpose")
        elif len(dom) != len(cod):
            reports.append(CheckReport(
                CLOSED_BIJECTION, (x, y, z), witness_count=len(dom),
                note=f"{len(dom)} transposes for {len(cod)} morphisms"))
    return reports


#: The shape loops, by the name :func:`~encat.core.verdict` keeps their reports under.
SHAPE_LOOPS = {"tensor": _tensor_shapes, "structure": _structure_shapes,
               "symmetry": _braid_shapes, "closed": _closed_shapes}


def check_closed(m: MonoidalData) -> list[CheckReport]:
    """Bijectivity of the transpose at every (X, Y, Z), the "closed" verdict;
    once it is clean, the :func:`check_monoidal` reports, on which the derived
    laws rest; once both are clean, the derived laws and :func:`iota`."""
    m.require_closed()
    if reports := verdict(m, "closed", _closed_shapes):
        return sort_reports(reports)
    if reports := check_monoidal(m):
        return reports
    assert_derived(DERIVED_CLOSED_LAWS, m, m.base)
    for x in m.base.objects:
        iota(m, x)
    return []


def check_v(m: MonoidalData) -> list[CheckReport]:
    """The base category, then the monoidal axioms, then the symmetry and
    closed structure where declared, each once those before it are clean."""
    return list(verdict(m, "V", _v_reports))


def _v_reports(m: MonoidalData) -> list[CheckReport]:
    return (validate_category(m.base) or check_monoidal(m)
            or (check_symmetry(m) if m.symmetry is not None else [])
            or (check_closed(m) if m.closed is not None else []))


# Consequences of the closed axioms, judged once they hold; with them
# check_closed runs iota, whose unit-coordinate squares are its own; both
# are gated on the empty thin cover with the "closed" verdict (its shape and
# every bijection) clean as well.
DERIVED_CLOSED_LAWS = tuple(_thin_first(law, "closed") for law in (
    derived_law("transpose round trip",  # transpose and un-transpose are mutually inverse
        lambda m, base: ((x, y, z, g) for x, y, z in product(base.objects, repeat=3)
                         for g in base.hom(x, m.hom_obj(y, z))),
        lambda m, base, x, y, z, g: transpose_pi(m, _transpose_forward(m, g, y, z), x, y),
        lambda m, base, x, y, z, g: g),
    derived_law("evaluation square",  # ev . (1 (x) f) = ev . (hom(f, Z) (x) 1)
        lambda m, base: product(base.mor_ids(), base.objects),
        lambda m, base, f, z: base.compose(
            m.tmor(base.id_(m.hom_obj(base.dst(f), z)), f), m.ev(base.dst(f), z)),
        lambda m, base, f, z: base.compose(
            m.tmor(hom_on_morphisms(m, f, base.id_(z)), base.id_(base.src(f))),
            m.ev(base.src(f), z))),
    derived_law("double-transpose square",  # it commutes with the global elements
        lambda m, base: ((x, y, z, h) for x, y, z in product(base.objects, repeat=3)
                         for h in base.hom(m.tobj(x, y), z)),
        lambda m, base, x, y, z, h: base.compose(
            varpi(m, h), internal_pi_bar(m, x, y, z)),
        lambda m, base, x, y, z, h: varpi(m, transpose_pi(m, h, x, y))),
))


@kept
def hom_on_morphisms(m: MonoidalData, f: Mor, h: Mor) -> Mor:
    """The hom bifunctor on morphisms: hom(f, h) for f : X' -> X, h : Z -> Z'."""
    m.require_closed()
    base = m.base
    xp, x = base.src(f), base.dst(f)
    z, zp = base.src(h), base.dst(h)
    composite = base.compose(
        m.tmor(base.id_(m.hom_obj(x, z)), f), m.ev(x, z), h)
    return transpose_pi(m, composite, m.hom_obj(x, z), xp)


def hom_functor(m: MonoidalData) -> FunctorData:
    """The hom bifunctor as explicit tables on opposite(base) x base."""
    m.require_closed()
    base = m.base
    src = product_category(opposite_category(base), base)
    on_objects = {pair_id(y, z): m.hom_obj(y, z)
                  for y in base.objects for z in base.objects}
    on_morphisms = {pair_id(f, h): hom_on_morphisms(m, f, h)
                    for f in base.mor_ids() for h in base.mor_ids()}
    fn = FunctorData(src, base, on_objects, on_morphisms)
    bad = validate_functor(fn, tag="functor")
    if bad:
        raise EngineBugError(f"derived law failed: hom bifunctor invalid: {bad[0]}")
    return fn


def internal_composition_b(m: MonoidalData, x: Obj, y: Obj, z: Obj) -> Mor:
    """Internal composition hom(Y,Z) (x) hom(X,Y) -> hom(X,Z)."""
    m.require_closed()
    base = m.base
    hyz, hxy = m.hom_obj(y, z), m.hom_obj(x, y)
    composite = base.compose(
        m.a(hyz, hxy, x),
        m.tmor(base.id_(hyz), m.ev(x, y)),
        m.ev(y, z))
    return transpose_pi(m, composite, m.tobj(hyz, hxy), x)


def varpi(m: MonoidalData, f: Mor) -> Mor:
    """The global-element correspondence: Hom(X, Y) -> Hom(I, hom(X, Y))."""
    m.require_closed()
    x = m.base.src(f)
    return transpose_pi(m, m.base.compose(m.l(x), f), m.unit, x)


def varpi_inv(m: MonoidalData, t: Mor, x: Obj, y: Obj) -> Mor:
    """Inverse of :func:`varpi`: recover f : X -> Y from I -> hom(X, Y)."""
    m.require_closed()
    base = m.base
    return base.compose(morphism_inverse_checked(base, m.l(x)),
                        transpose_pi_inv(m, t, x, y))


@kept
def internal_pi_bar(m: MonoidalData, x: Obj, y: Obj, z: Obj) -> Mor:
    """Internal transpose hom(X (x) Y, Z) -> hom(X, hom(Y, Z)).

    Computed as the double transpose of evaluation around the associator and
    then verified against its universal characterization, at every W and f,
    or at the generic element once the "monoidal" and "closed" verdicts of
    ``m`` are on record and clean; a mismatch is an engine bug.  Both run
    once per (X, Y, Z) of ``m`` (:func:`~encat.core.kept`).
    """
    m.require_closed()
    base = m.base
    xy = m.tobj(x, y)
    h0 = m.hom_obj(xy, z)
    composite = base.compose(m.a(h0, x, y), m.ev(xy, z))
    inner = transpose_pi(m, composite, m.tobj(h0, x), y)
    outer = transpose_pi(m, inner, h0, x)
    assert_derived(PI_BAR_LAWS, m, outer, (x, y, z))
    return outer


# The characterization of the internal transpose ``outer`` at (X, Y, Z): for
# every W and f : W (x) (X (x) Y) -> Z the double transpose of f . a equals
# pi(f) post-composed with ``outer``.  Given clean verdicts (assoc.natural,
# T's functoriality, the bijection and so the transpose's naturality) both
# sides are natural in W, so by Yoneda (CWM III.2) the generic element
# W = hom(X (x) Y, Z), f = ev covers.
def _generic_element(m: MonoidalData, outer: Mor, key: tuple[Obj, Obj, Obj]):
    if clean(m, "monoidal", "closed"):
        xy = m.tobj(*key[:2])
        return [(*key, m.hom_obj(xy, key[2]), m.ev(xy, key[2]))]


PI_BAR_LAWS = (
    derived_law("internal transpose characterization",
                lambda m, outer, key: ((*key, w, f) for w in m.base.objects for f in m.base.hom(
                    m.tobj(w, m.tobj(*key[:2])), key[2])),
                lambda m, outer, key, x, y, z, w, f: transpose_pi(m, transpose_pi(
                    m, m.base.compose(m.a(w, x, y), f), m.tobj(w, x), y), w, x),
                lambda m, outer, key, x, y, z, w, f: m.base.compose(
                    transpose_pi(m, f, w, m.tobj(x, y)), outer), gate=_generic_element),
)


@kept
def internal_swap(m: MonoidalData, k: Obj, l: Obj, z: Obj) -> tuple[Mor, Mor, Mor]:
    """The steps hom(L, hom(K, Z)) -> hom(L (x) K, Z) -> hom(K (x) L, Z) ->
    hom(K, hom(L, Z)): the inverse internal transpose, the hom of the
    braiding, the internal transpose.  Callers compose them in their own
    paths; the steps are computed once per (K, L, Z) of ``m``."""
    base = m.base
    return (morphism_inverse_checked(base, internal_pi_bar(m, l, k, z)),
            hom_on_morphisms(m, m.braid(k, l), base.id_(z)),
            internal_pi_bar(m, k, l, z))


def iota(m: MonoidalData, x: Obj) -> Mor:
    """The unit-coordinate isomorphism X -> hom(I, X)."""
    m.require_closed()
    out = transpose_pi(m, m.r(x), x, m.unit)
    assert_derived(IOTA_LAWS, m, x, out)
    return out


# The unit-coordinate square of ``out`` = iota(X) at each f into X.
IOTA_LAWS = (_thin_first(
    derived_law("unit-coordinate square",
                lambda m, x, out: ((f,) for f in m.base.mor_ids() if m.base.dst(f) == x),
                lambda m, x, out, f: transpose_pi(
                    m, m.base.compose(m.r(m.base.src(f)), f), m.base.src(f), m.unit),
                lambda m, x, out, f: m.base.compose(f, out)), "closed"),)


def self_vstructure(m: MonoidalData):
    """Package the internal structure of a closed monoidal category as an
    enriched-hom structure of the category over itself."""
    from .vstruct import VStructureData

    m.require_closed()
    base = m.base
    comp = {(x, y, z): internal_composition_b(m, x, y, z)
            for x in base.objects for y in base.objects for z in base.objects}
    phi = {(x, y): {f: varpi(m, f) for f in base.hom(x, y)}
           for x in base.objects for y in base.objects}
    return VStructureData(baseS=base, baseV=m, homFunctor=hom_functor(m),
                          comp=comp, phi=phi)


def self_cylinder(m: MonoidalData):
    """The tautological cylinder of a closed monoidal category over itself."""
    from .vstruct import CylinderAssignment

    m.require_closed()
    base = m.base
    tensor_obj = {}
    alpha = {}
    phibar = {}
    for k in base.objects:
        for x in base.objects:
            kx = m.tobj(k, x)
            tensor_obj[(k, x)] = kx
            alpha[(k, x)] = transpose_pi(m, base.id_(kx), k, x)
            for y in base.objects:
                phibar[(k, x, y)] = internal_pi_bar(m, k, x, y)
    return CylinderAssignment(tensor_obj=tensor_obj, alpha=alpha, phibar=phibar)


def self_path(m: MonoidalData):
    """The tautological path structure; needs symmetry as well as closedness."""
    from .vstruct import PathAssignment

    m.require_symmetry()
    m.require_closed()
    base = m.base
    path_obj = {}
    beta = {}
    psibar = {}
    for k in base.objects:
        for x in base.objects:
            kx = m.hom_obj(k, x)
            path_obj[(k, x)] = kx
            beta[(k, x)] = transpose_pi(
                m, base.compose(m.braid(k, kx), m.ev(k, x)), k, kx)
            for y in base.objects:
                psibar[(k, x, y)] = base.compose(*internal_swap(m, k, y, x))
    return PathAssignment(path_obj=path_obj, beta=beta, psibar=psibar)


#: The laws declared here, and the names the checkers report under outside them.
LAWS = MONOIDAL_LAWS + SYMMETRY_LAWS
CHECKS = ("tensor.shape", "assoc.shape", "assoc.iso", "lunit.shape", "lunit.iso",
          "runit.shape", "runit.iso", "symmetry.shape", "closed.shape", CLOSED_BIJECTION)
