"""Monoidal, symmetric and closed structure on a finite category.

Each axiom that equates two composites is a :class:`~encat.core.Law` in
``MONOIDAL_LAWS``, ``SYMMETRY_LAWS`` or ``CLOSED_LAWS``, judged by
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
(T(f, g), h), (g, h) or (f, T(g, h)) is in B are judged.  When no rebuild is
found, or the associator is not natural for R in one variable, every site is
judged, so the reports never depend on the localization.  On a lawful table
B is empty and so are both covers.

The closed structure is given by the hom-object table and the evaluation
family only; the transpose is recovered by inverting evaluation over each
hom-set, once per instance, with a uniqueness check at every lookup, so the
inversion doubles as validation of the adjunction.  The internal transpose
is likewise computed and verified once per argument and instance.

Derived laws (the unit-coincidence law, the unitor/associator compatibility
triangle, the evaluation squares, the double-transpose square and the
characterizations) are consequences of the axioms, declared outside ``LAWS``
and judged by :func:`~encat.core.assert_derived` only after the axioms pass;
it raises :class:`EngineBugError` on failure: disagreement there means the
evaluator is wrong, not the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Mapping

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
    derived_law,
    evaluate,
    morphism_inverse,
    morphism_inverse_checked,
    opposite_category,
    pair_id,
    product_category,
    rebuild_bifunctor,
    required,
    sort_reports,
    trinatural_cover,
    validate_functor,
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

    @cached_property
    def _transposes(self) -> dict[tuple[Obj, Obj, Obj], Preimages]:
        """Per (X, Y, Z), the preimages under g |-> ev . (g (x) 1_Y) on
        hom(X, hom(Y, Z)); filled by :func:`_transpose_table` on first need.
        An entry is a pure function of the tables, so concurrent callers at
        worst build it twice."""
        return {}

    @cached_property
    def _pi_bars(self) -> dict[tuple[Obj, Obj, Obj], Mor]:
        """Per (X, Y, Z), the internal transpose :func:`internal_pi_bar`
        computed and verified; a failure is not stored."""
        return {}

    @cached_property
    def _swaps(self) -> dict[tuple[Obj, Obj, Obj], tuple[Mor, Mor, Mor]]:
        """Per (K, L, Z), the steps of :func:`internal_swap`; a failure is
        not stored."""
        return {}

    def tobj(self, x: Obj, y: Obj) -> Obj:
        try:
            return self.tensor_obj[(x, y)]
        except KeyError:
            raise MissingTableError(f"tensor object table missing ({x!r}, {y!r})") from None

    def tmor(self, f: Mor, g: Mor) -> Mor:
        try:
            return self.tensor_mor[(f, g)]
        except KeyError:
            raise MissingTableError(f"tensor morphism table missing ({f!r}, {g!r})") from None

    def a(self, x: Obj, y: Obj, z: Obj) -> Mor:
        try:
            return self.assoc[(x, y, z)]
        except KeyError:
            raise MissingTableError(f"associator table missing ({x!r}, {y!r}, {z!r})") from None

    def l(self, x: Obj) -> Mor:
        try:
            return self.lunit[x]
        except KeyError:
            raise MissingTableError(f"left unitor table missing {x!r}") from None

    def r(self, x: Obj) -> Mor:
        try:
            return self.runit[x]
        except KeyError:
            raise MissingTableError(f"right unitor table missing {x!r}") from None

    def require_closed(self) -> ClosedData:
        if self.closed is None:
            raise CapabilityError("operation requires a closed monoidal category")
        return self.closed

    def require_symmetry(self) -> SymmetryData:
        if self.symmetry is None:
            raise CapabilityError("operation requires a symmetric monoidal category")
        return self.symmetry

    def hom_obj(self, y: Obj, z: Obj) -> Obj:
        try:
            return self.require_closed().hom_obj[(y, z)]
        except KeyError:
            raise MissingTableError(f"hom object table missing ({y!r}, {z!r})") from None

    def ev(self, y: Obj, z: Obj) -> Mor:
        try:
            return self.require_closed().ev[(y, z)]
        except KeyError:
            raise MissingTableError(f"evaluation table missing ({y!r}, {z!r})") from None

    def braid(self, x: Obj, y: Obj) -> Mor:
        try:
            return self.require_symmetry().braid[(x, y)]
        except KeyError:
            raise MissingTableError(f"braiding table missing ({x!r}, {y!r})") from None


MONOIDAL_LAWS = (
    Law("tensor.identity", lambda m, base: product(base.objects, repeat=2),
        lambda m, base, x, y: m.tmor(base.id_(x), base.id_(y)),
        required(lambda m, base, x, y: base.id_(m.tobj(x, y)))),
    Law("tensor.interchange",
        lambda m, base: ((f, f2, g, g2) for f, g in base.comp for f2, g2 in base.comp),
        lambda m, base, f, f2, g, g2: m.tmor(base.comp[(f, g)], base.comp[(f2, g2)]),
        lambda m, base, f, f2, g, g2: base.compose(m.tmor(f, f2), m.tmor(g, g2)),
        gate=lambda m, base: bifunctor_cover(m._tensor)),
    Law("assoc.natural", lambda m, base: product(base.mor_ids(), repeat=3),
        lambda m, base, f, g, h: base.compose(
            m.tmor(m.tmor(f, g), h), m.a(base.dst(f), base.dst(g), base.dst(h))),
        lambda m, base, f, g, h: base.compose(
            m.a(base.src(f), base.src(g), base.src(h)), m.tmor(f, m.tmor(g, h))),
        gate=lambda m, base: trinatural_cover(
            base, base, base, base, m.assoc, m._tensor, m._tensor, m._tensor, m._tensor)),
    Law("lunit.natural", lambda m, base: product(base.mor_ids()),
        lambda m, base, f: base.compose(m.tmor(base.id_(m.unit), f), m.l(base.dst(f))),
        lambda m, base, f: base.compose(m.l(base.src(f)), f)),
    Law("runit.natural", lambda m, base: product(base.mor_ids()),
        lambda m, base, f: base.compose(m.tmor(f, base.id_(m.unit)), m.r(base.dst(f))),
        lambda m, base, f: base.compose(m.r(base.src(f)), f)),
    Law("pentagon", lambda m, base: product(base.objects, repeat=4),
        lambda m, base, w, x, y, z: base.compose(
            m.a(m.tobj(w, x), y, z), m.a(w, x, m.tobj(y, z))),
        lambda m, base, w, x, y, z: base.compose(
            m.tmor(m.a(w, x, y), base.id_(z)), m.a(w, m.tobj(x, y), z),
            m.tmor(base.id_(w), m.a(x, y, z))), core=True),
    Law("triangle", lambda m, base: product(base.objects, repeat=2),
        lambda m, base, x, y: base.compose(m.a(x, m.unit, y), m.tmor(base.id_(x), m.l(y))),
        lambda m, base, x, y: m.tmor(m.r(x), base.id_(y)), core=True),
)


def check_monoidal(m: MonoidalData) -> list[CheckReport]:
    """Bifunctoriality, naturality, isomorphism and coherence of (tensor, a, l, r).

    Raises :class:`MissingTableError` when a structure table is partial, and
    :class:`EngineBugError` if a derived law fails on an input whose axioms
    all hold.
    """
    base = m.base
    reports: list[CheckReport] = []
    objs = base.objects
    mors = base.mor_ids()

    for x in objs:
        for y in objs:
            m.tobj(x, y)
        m.l(x), m.r(x)
        for y in objs:
            for z in objs:
                m.a(x, y, z)
    for f in mors:
        for g in mors:
            m.tmor(f, g)

    for f in mors:
        for g in mors:
            fg = m.tmor(f, g)
            if not base.has_mor(fg):
                raise MalformedReferenceError(
                    f"tensor maps ({f!r}, {g!r}) to undeclared morphism {fg!r}")
            if (base.src(fg) != m.tobj(base.src(f), base.src(g))
                    or base.dst(fg) != m.tobj(base.dst(f), base.dst(g))):
                reports.append(CheckReport("tensor.shape", (f, g), witness_count=0))
    reports += evaluate(MONOIDAL_LAWS, m, base)

    for x in objs:
        for y in objs:
            for z in objs:
                av = m.a(x, y, z)
                want_s = m.tobj(m.tobj(x, y), z)
                want_d = m.tobj(x, m.tobj(y, z))
                if base.src(av) != want_s or base.dst(av) != want_d:
                    reports.append(CheckReport("assoc.shape", (x, y, z), witness_count=0))
                elif morphism_inverse(base, av) is None:
                    reports.append(CheckReport("assoc.iso", (x, y, z), witness_count=0))
    for x in objs:
        lv, rv = m.l(x), m.r(x)
        if base.src(lv) != m.tobj(m.unit, x) or base.dst(lv) != x:
            reports.append(CheckReport("lunit.shape", (x,), witness_count=0))
        elif morphism_inverse(base, lv) is None:
            reports.append(CheckReport("lunit.iso", (x,), witness_count=0))
        if base.src(rv) != m.tobj(x, m.unit) or base.dst(rv) != x:
            reports.append(CheckReport("runit.shape", (x,), witness_count=0))
        elif morphism_inverse(base, rv) is None:
            reports.append(CheckReport("runit.iso", (x,), witness_count=0))

    reports = sort_reports(reports)
    if not reports:
        assert_derived(DERIVED_MONOIDAL_LAWS, m, base)
    return reports


# Consequences of the monoidal axioms, judged once they hold.
DERIVED_MONOIDAL_LAWS = (
    derived_law("unitors at the unit", lambda m, base: [()],
                lambda m, base: m.l(m.unit), lambda m, base: m.r(m.unit)),
    derived_law("left-unitor triangle", lambda m, base: product(base.objects, repeat=2),
                lambda m, base, x, y: base.compose(m.a(m.unit, x, y), m.l(m.tobj(x, y))),
                lambda m, base, x, y: m.tmor(m.l(x), base.id_(y))),
)


SYMMETRY_LAWS = (
    Law("symmetry.natural", lambda m, base: product(base.mor_ids(), repeat=2),
        lambda m, base, f, g: base.compose(m.tmor(f, g), m.braid(base.dst(f), base.dst(g))),
        lambda m, base, f, g: base.compose(m.braid(base.src(f), base.src(g)), m.tmor(g, f))),
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
)


def check_symmetry(m: MonoidalData) -> list[CheckReport]:
    """Naturality plus the three braiding axioms."""
    m.require_symmetry()
    base = m.base
    reports: list[CheckReport] = []
    for x in base.objects:
        for y in base.objects:
            c = m.braid(x, y)
            if base.src(c) != m.tobj(x, y) or base.dst(c) != m.tobj(y, x):
                reports.append(CheckReport("symmetry.shape", (x, y), witness_count=0))
    reports += evaluate(SYMMETRY_LAWS, m, base)
    return sort_reports(reports)


def _transpose_forward(m: MonoidalData, g: Mor, y: Obj, z: Obj) -> Mor:
    """The map g |-> ev . (g (x) 1_y), inverse of the transpose."""
    return m.base.compose(m.tmor(g, m.base.id_(y)), m.ev(y, z))


def transpose_pi_inv(m: MonoidalData, g: Mor, y: Obj, z: Obj) -> Mor:
    """Un-transpose g : X -> hom(Y, Z) into X (x) Y -> Z."""
    m.require_closed()
    return _transpose_forward(m, g, y, z)


def _transpose_table(m: MonoidalData, x: Obj, y: Obj, z: Obj) -> Preimages:
    """The inverse of the forward map over hom(X, hom(Y, Z)), built by one
    exhaustive pass per (X, Y, Z) of ``m``; an undefined image is keyed
    ``None``.  Both :func:`transpose_pi` and ``closed.bijection`` read it."""
    table = m._transposes.get((x, y, z))
    if table is None:
        images: dict[Mor, Mor | None] = {}
        for g in m.base.hom(x, m.hom_obj(y, z)):
            try:
                images[g] = _transpose_forward(m, g, y, z)
            except EncatError:
                images[g] = None
        table = m._transposes[(x, y, z)] = Preimages(images)
    return table


def transpose_pi(m: MonoidalData, f: Mor, x: Obj, y: Obj) -> Mor:
    """Transpose f : X (x) Y -> Z into the unique g : X -> hom(Y, Z).

    Looked up in :func:`_transpose_table`.  Zero or several witnesses raise
    :class:`WitnessError` on every call (the closed data is then invalid).
    """
    m.require_closed()
    z = m.base.dst(f)
    return _transpose_table(m, x, y, z).unique(
        f, lambda n: f"transpose of {f!r} at ({x!r}, {y!r}, {z!r}) has {n} witnesses")


# Naturality of the transpose in X and in Z: redundant given bijectivity,
# kept as an explicit check of the adjunction contract.  It runs once the
# bijection holds, so both composites must exist; an error is the input's.
CLOSED_LAWS = (
    Law("closed.pi-natural",  # h : X' -> X before g : X -> hom(Y, Z)
        lambda m, base: ((y, z, h, g) for y, z in product(base.objects, repeat=2)
                         for h in base.mor_ids() for g in base.hom(base.dst(h), m.hom_obj(y, z))),
        required(lambda m, base, y, z, h, g: _transpose_forward(m, base.compose(h, g), y, z)),
        required(lambda m, base, y, z, h, g: base.compose(
            m.tmor(h, base.id_(y)), _transpose_forward(m, g, y, z)))),
    Law("closed.pi-natural",  # k : Z -> Z' after the transpose of g : X -> hom(Y, Z)
        lambda m, base: ((y, z, k, g) for y, z in product(base.objects, repeat=2)
                         for k in base.mor_ids() if base.src(k) == z
                         for x in base.objects for g in base.hom(x, m.hom_obj(y, z))),
        required(lambda m, base, y, z, k, g: _transpose_forward(m, base.compose(
            g, transpose_pi(m, base.compose(m.ev(y, z), k), m.hom_obj(y, z), y)),
            y, base.dst(k))),
        required(lambda m, base, y, z, k, g: base.compose(_transpose_forward(m, g, y, z), k))),
)

CLOSED_BIJECTION = "closed.bijection"


def check_closed(m: MonoidalData) -> list[CheckReport]:
    """Bijectivity of the transpose at every (X, Y, Z), plus its naturality.

    A law that raises, or a failed derived law, is passed on only when the
    monoidal axioms hold; otherwise the :func:`check_monoidal` reports are
    returned."""
    m.require_closed()
    base = m.base
    reports: list[CheckReport] = []
    objs = base.objects

    ev_ok: dict[tuple[Obj, Obj], bool] = {}
    for y in objs:
        for z in objs:
            h = m.hom_obj(y, z)
            if not base.has_obj(h):
                raise MissingTableError(f"hom object ({y!r},{z!r}) -> undeclared {h!r}")
            e = m.ev(y, z)
            ok = base.has_mor(e) and base.src(e) == m.tobj(h, y) and base.dst(e) == z
            ev_ok[(y, z)] = ok
            if not ok:
                reports.append(CheckReport("closed.shape", (y, z), witness_count=0))

    for x in objs:
        for y in objs:
            for z in objs:
                dom = base.hom(x, m.hom_obj(y, z))
                cod = base.hom(m.tobj(x, y), z)
                if not ev_ok[(y, z)]:
                    if len(dom) != len(cod):
                        reports.append(CheckReport(
                            CLOSED_BIJECTION, (x, y, z), witness_count=len(dom),
                            note=f"{len(dom)} transposes for {len(cod)} morphisms"))
                    continue
                reports += _transpose_table(m, x, y, z).check(
                    CLOSED_BIJECTION, (x, y, z), dom, cod, "transpose")

    if reports:
        return sort_reports(reports)
    try:
        reports = sort_reports(evaluate(CLOSED_LAWS, m, base))
        if not reports:
            assert_derived(DERIVED_CLOSED_LAWS, m, base)
            for x in objs:
                iota(m, x)
    except EncatError:
        # these laws also rest on the monoidal axioms, which are not checked
        # here: a failure is the input's exactly when those fail
        monoidal_reports = check_monoidal(m)
        if monoidal_reports:
            return monoidal_reports
        raise
    return reports


# Consequences of the closed axioms, judged once they hold; with them
# check_closed runs iota, whose unit-coordinate squares are its own.
DERIVED_CLOSED_LAWS = (
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
            varpi(m, h, m.tobj(x, y), z), internal_pi_bar(m, x, y, z)),
        lambda m, base, x, y, z, h: varpi(m, transpose_pi(m, h, x, y), x, m.hom_obj(y, z))),
)


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


def varpi(m: MonoidalData, f: Mor, x: Obj | None = None, y: Obj | None = None) -> Mor:
    """The global-element correspondence: Hom(X, Y) -> Hom(I, hom(X, Y))."""
    m.require_closed()
    base = m.base
    x = base.src(f) if x is None else x
    y = base.dst(f) if y is None else y
    return transpose_pi(m, base.compose(m.l(x), f), m.unit, x)


def varpi_inv(m: MonoidalData, t: Mor, x: Obj, y: Obj) -> Mor:
    """Inverse of :func:`varpi`: recover f : X -> Y from I -> hom(X, Y)."""
    m.require_closed()
    base = m.base
    return base.compose(morphism_inverse_checked(base, m.l(x)),
                        transpose_pi_inv(m, t, x, y))


def internal_pi_bar(m: MonoidalData, x: Obj, y: Obj, z: Obj) -> Mor:
    """Internal transpose hom(X (x) Y, Z) -> hom(X, hom(Y, Z)).

    Computed as the double transpose of evaluation around the associator and
    then verified against its universal characterization over every object;
    a mismatch is an engine bug.  Both run once per distinct (X, Y, Z) of
    ``m``: the verified map is kept in a per-instance table, and a failure,
    which is never kept, raises again on every call.
    """
    m.require_closed()
    outer = m._pi_bars.get((x, y, z))
    if outer is not None:
        return outer
    base = m.base
    xy = m.tobj(x, y)
    h0 = m.hom_obj(xy, z)
    composite = base.compose(m.a(h0, x, y), m.ev(xy, z))
    inner = transpose_pi(m, composite, m.tobj(h0, x), y)
    outer = transpose_pi(m, inner, h0, x)
    assert_derived(PI_BAR_LAWS, m, outer, (x, y, z))
    m._pi_bars[(x, y, z)] = outer
    return outer


# The characterization of the internal transpose ``outer`` at (X, Y, Z): for
# every W and f : W (x) (X (x) Y) -> Z the double transpose of f . a equals
# pi(f) post-composed with ``outer``.
PI_BAR_LAWS = (
    derived_law("internal transpose characterization",
                lambda m, outer, key: ((*key, w, f) for w in m.base.objects for f in m.base.hom(
                    m.tobj(w, m.tobj(*key[:2])), key[2])),
                lambda m, outer, key, x, y, z, w, f: transpose_pi(m, transpose_pi(
                    m, m.base.compose(m.a(w, x, y), f), m.tobj(w, x), y), w, x),
                lambda m, outer, key, x, y, z, w, f: m.base.compose(
                    transpose_pi(m, f, w, m.tobj(x, y)), outer)),
)


def internal_swap(m: MonoidalData, k: Obj, l: Obj, z: Obj) -> tuple[Mor, Mor, Mor]:
    """The steps hom(L, hom(K, Z)) -> hom(L (x) K, Z) -> hom(K (x) L, Z) ->
    hom(K, hom(L, Z)): the inverse internal transpose, the hom of the
    braiding, the internal transpose.  Callers compose them in their own
    paths; the steps are computed once per (K, L, Z) of ``m``."""
    steps = m._swaps.get((k, l, z))
    if steps is None:
        base = m.base
        steps = m._swaps[(k, l, z)] = (
            morphism_inverse_checked(base, internal_pi_bar(m, l, k, z)),
            hom_on_morphisms(m, m.braid(k, l), base.id_(z)),
            internal_pi_bar(m, k, l, z))
    return steps


def iota(m: MonoidalData, x: Obj) -> Mor:
    """The unit-coordinate isomorphism X -> hom(I, X)."""
    m.require_closed()
    out = transpose_pi(m, m.r(x), x, m.unit)
    assert_derived(IOTA_LAWS, m, x, out)
    return out


# The unit-coordinate square of ``out`` = iota(X) at each f into X.
IOTA_LAWS = (
    derived_law("unit-coordinate square",
                lambda m, x, out: ((f,) for f in m.base.mor_ids() if m.base.dst(f) == x),
                lambda m, x, out, f: transpose_pi(
                    m, m.base.compose(m.r(m.base.src(f)), f), m.base.src(f), m.unit),
                lambda m, x, out, f: m.base.compose(f, out)),
)


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
LAWS = MONOIDAL_LAWS + SYMMETRY_LAWS + CLOSED_LAWS
CHECKS = ("tensor.shape", "assoc.shape", "assoc.iso", "lunit.shape", "lunit.iso",
          "runit.shape", "runit.iso", "symmetry.shape", "closed.shape", CLOSED_BIJECTION)
