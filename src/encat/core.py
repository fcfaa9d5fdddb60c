"""Finite categories as explicit tables, plus the generic machinery built on them.

Everything in this package is a finite table: a category is a list of objects,
a list of morphisms and a total composition table over composable pairs.  All
values are immutable after construction and every operation is pure, so the
whole library is safe to use from concurrent callers.

Composition convention, used everywhere: ``comp[(f, g)]`` is "g after f".
A composite written ``g . f`` in the usual right-to-left notation is looked up
as ``comp[(f, g)]``; :meth:`FinCategory.compose` takes its steps in diagram
order (first argument is applied first).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Iterable, Mapping

Obj = str
Mor = str

IDENTITY_PREFIX = "id:"


class EncatError(Exception):
    """Base class for every error raised by this package."""


class MalformedReferenceError(EncatError):
    """A table mentions an id that was never declared."""


class MissingTableError(EncatError):
    """A structure table is partial where totality is required."""


class NonComposablePathError(EncatError):
    """A path contains a non-composable adjacency."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class AmbiguousInverseError(EncatError):
    """Two distinct two-sided inverses were found; the tables are corrupt."""


class WitnessError(EncatError):
    """An exhaustive search found zero or several witnesses where exactly one
    is required (failed transpose, failed Yoneda extraction, ...)."""

    def __init__(self, message: str, count: int):
        super().__init__(message)
        self.count = count


class CapabilityError(EncatError):
    """An operation needs structure (closedness, symmetry) the input lacks."""


class ParameterError(EncatError):
    """An instance builder was given parameters outside its domain."""


class LawFailureError(EncatError):
    """A construction was given input that fails a law its checkers decide."""


class EngineBugError(EncatError):
    """A derived law failed on an input that passed the axiom checks.

    The derived laws are consequences of the axioms, so this never indicates a
    problem with the input: it means the evaluator itself is wrong.
    """


@dataclass(frozen=True)
class CheckReport:
    """One law violation found by a checker.

    ``site`` names the objects/morphisms instantiating the failed diagram.
    ``lhs``/``rhs`` are the two composites that differ; both are ``None`` for
    existence or uniqueness failures, in which case ``witness_count`` records
    how many witnesses were found.
    """

    law: str
    site: tuple[str, ...]
    lhs: Mor | None = None
    rhs: Mor | None = None
    witness_count: int | None = None
    note: str = ""

    def __post_init__(self):
        if self.lhs is not None and self.rhs is not None and self.lhs == self.rhs:
            raise ValueError("a CheckReport must record two composites that differ")


def sort_reports(reports: Iterable[CheckReport]) -> list[CheckReport]:
    return sorted(reports, key=lambda r: (r.law, r.site))


@dataclass(frozen=True)
class Law:
    """One commuting diagram, declared once beside the checker that runs it.

    At every site ``sites(*data)`` yields, the composites ``lhs(*data, *site)``
    and ``rhs(*data, *site)`` must be defined and equal.  The enumeration is
    not guarded: what it reads must exist, and its errors escape
    :func:`evaluate`.  ``core`` marks the named diagrams of the theory.

    ``gate``, when set, enumerates a smaller family of the law's own sites
    that decides the whole law once some prerequisites hold (for a
    multi-variable law, the sites where all but one variable is an
    identity).  Only a checker that has established those prerequisites
    passes the law with its gate; elsewhere it is replaced with ``gate=None``.
    """

    name: str
    sites: Callable[..., Iterable[tuple[str, ...]]]
    lhs: Callable[..., Mor]
    rhs: Callable[..., Mor]
    core: bool = False
    gate: Callable[..., Iterable[tuple[str, ...]]] | None = None


def required(side: Callable[..., Mor]) -> Callable[..., Mor]:
    """Mark (in place) a side defined wherever its law is evaluated: an error
    there is an error of the input, and escapes :func:`evaluate`."""
    side.on_error = "raise"
    return side


def explained(side: Callable[..., Mor]) -> Callable[..., Mor]:
    """Mark (in place) a side whose undefined composite is reported with the
    error's message instead of ``composite undefined``."""
    side.on_error = "explain"
    return side


def _undefined(side: Callable[..., Mor], exc: EncatError) -> str:
    on_error = getattr(side, "on_error", None)
    if on_error == "raise":
        raise exc
    return str(exc) if on_error == "explain" else "composite undefined"


def evaluate(laws: Iterable[Law], *data: Any) -> list[CheckReport]:
    """Judge every site of ``laws`` on ``data``, law by law in order.

    A side that raises :class:`EncatError` leaves its site undefined: one
    report with ``witness_count=0`` and the note of the first undefined side.
    Both sides are always evaluated, so a :func:`required` side raises even
    where the other is undefined.  Unequal sides give a report carrying both.

    A law with a gate holds when its gate sites give no report and raise no
    :class:`EncatError`; otherwise every site is judged, so the reports are
    those of the full sweep.
    """
    reports: list[CheckReport] = []
    for law in laws:
        if law.gate is not None:
            try:
                if not _judge(law, law.gate(*data), data):
                    continue
            except EncatError:
                pass
        reports += _judge(law, law.sites(*data), data)
    return reports


def _judge(law: Law, sites: Iterable[tuple[str, ...]], data: tuple) -> list[CheckReport]:
    reports: list[CheckReport] = []
    for site in sites:
        note = None
        try:
            lhs = law.lhs(*data, *site)
        except EncatError as exc:
            lhs, note = None, _undefined(law.lhs, exc)
        try:
            rhs = law.rhs(*data, *site)
        except EncatError as exc:
            rhs, rhs_note = None, _undefined(law.rhs, exc)
            note = note or rhs_note
        if note is not None:
            reports.append(CheckReport(law.name, site, witness_count=0, note=note))
        elif lhs != rhs:
            reports.append(CheckReport(law.name, site, lhs=lhs, rhs=rhs))
    return reports


@dataclass(frozen=True)
class FinCategory:
    """A finite category: objects, morphisms and a total composition table."""

    objects: tuple[Obj, ...]
    morphisms: tuple[tuple[Mor, Obj, Obj], ...]
    identity: Mapping[Obj, Mor]
    comp: Mapping[tuple[Mor, Mor], Mor]

    @cached_property
    def _mors(self) -> dict[Mor, tuple[Obj, Obj]]:
        return {m: (s, d) for m, s, d in self.morphisms}

    @cached_property
    def _objs(self) -> frozenset[Obj]:
        return frozenset(self.objects)

    @cached_property
    def _homs(self) -> dict[tuple[Obj, Obj], tuple[Mor, ...]]:
        table: dict[tuple[Obj, Obj], list[Mor]] = {}
        for m, s, d in self.morphisms:
            table.setdefault((s, d), []).append(m)
        return {k: tuple(sorted(v)) for k, v in table.items()}

    @cached_property
    def _verdict(self) -> tuple[CheckReport, ...]:
        """The reports of :func:`validate_category`, found once per instance;
        a raised error is not kept."""
        return tuple(_category_reports(self))

    def has_obj(self, x: Obj) -> bool:
        return x in self._objs

    def has_mor(self, f: Mor) -> bool:
        return f in self._mors

    def src(self, f: Mor) -> Obj:
        try:
            return self._mors[f][0]
        except KeyError:
            raise MalformedReferenceError(f"unknown morphism {f!r}") from None

    def dst(self, f: Mor) -> Obj:
        try:
            return self._mors[f][1]
        except KeyError:
            raise MalformedReferenceError(f"unknown morphism {f!r}") from None

    def hom(self, a: Obj, b: Obj) -> tuple[Mor, ...]:
        """Hom-set in lexicographic order; the order fixes every brute-force
        search in the package, so 'first witness' is deterministic."""
        return self._homs.get((a, b), ())

    def mor_ids(self) -> tuple[Mor, ...]:
        return tuple(sorted(self._mors))

    def id_(self, x: Obj) -> Mor:
        try:
            return self.identity[x]
        except KeyError:
            raise MalformedReferenceError(f"no identity assigned to {x!r}") from None

    def is_identity(self, f: Mor) -> bool:
        return self.identity.get(self.src(f)) == f and self.src(f) == self.dst(f)

    def then(self, f: Mor, g: Mor) -> Mor:
        """The composite 'g after f'."""
        if self.dst(f) != self.src(g):
            raise NonComposablePathError(
                f"{f!r} (-> {self.dst(f)!r}) is not composable with {g!r} (<- {self.src(g)!r})",
                index=0,
            )
        try:
            return self.comp[(f, g)]
        except KeyError:
            raise MissingTableError(f"composition table missing entry ({f!r}, {g!r})") from None

    def compose(self, *path: Mor) -> Mor:
        """Compose a nonempty sequence of morphisms given in diagram order."""
        return compose_path(self, list(path))


def compose_path(cat: FinCategory, path: list[Mor]) -> Mor:
    """Left fold of the composition table over a nonempty path.

    Raises :class:`NonComposablePathError` carrying the index of the first bad
    adjacency.
    """
    if not path:
        raise NonComposablePathError("cannot compose an empty path", index=0)
    acc = path[0]
    if not cat.has_mor(acc):
        raise MalformedReferenceError(f"unknown morphism {acc!r}")
    for i, step in enumerate(path[1:], start=1):
        if not cat.has_mor(step):
            raise MalformedReferenceError(f"unknown morphism {step!r}")
        if cat.dst(acc) != cat.src(step):
            raise NonComposablePathError(
                f"path breaks between positions {i - 1} and {i}: "
                f"{acc!r} ends at {cat.dst(acc)!r} but {step!r} starts at {cat.src(step)!r}",
                index=i,
            )
        try:
            acc = cat.comp[(acc, step)]
        except KeyError:
            raise MissingTableError(
                f"composition table missing entry ({acc!r}, {step!r})") from None
    return acc


def _check_category_references(cat: FinCategory) -> None:
    objs = list(cat.objects)
    if len(set(objs)) != len(objs):
        raise MalformedReferenceError("duplicate object id")
    ids = [m for m, _, _ in cat.morphisms]
    if len(set(ids)) != len(ids):
        dup = sorted(m for m in set(ids) if ids.count(m) > 1)[0]
        raise MalformedReferenceError(f"duplicate morphism id {dup!r}")
    objset = set(objs)
    for m, s, d in cat.morphisms:
        if s not in objset or d not in objset:
            raise MalformedReferenceError(f"morphism {m!r} references undeclared object")
    morset = set(ids)
    for x, m in cat.identity.items():
        if x not in objset:
            raise MalformedReferenceError(f"identity table references undeclared object {x!r}")
        if m not in morset:
            raise MalformedReferenceError(f"identity table references undeclared morphism {m!r}")
    for (f, g), h in cat.comp.items():
        for m in (f, g, h):
            if m not in morset:
                raise MalformedReferenceError(f"composition table references undeclared morphism {m!r}")


#: The names :func:`validate_category` reports under.
CHECKS = ("category.total", "category.identity-shape", "category.reserved-id",
          "category.composable", "category.unit", "category.shape", "category.assoc")


def validate_category(cat: FinCategory) -> list[CheckReport]:
    """Exhaustively check the category axioms; empty list iff they all hold.

    The sweep runs once per instance: a later call returns the same reports.
    """
    return list(cat._verdict)


def _category_reports(cat: FinCategory) -> list[CheckReport]:
    _check_category_references(cat)
    reports: list[CheckReport] = []

    for x in cat.objects:
        if x not in cat.identity:
            reports.append(CheckReport("category.total", (x,), witness_count=0,
                                       note="object without identity"))
            continue
        i = cat.identity[x]
        if cat.src(i) != x or cat.dst(i) != x:
            reports.append(CheckReport("category.identity-shape", (x, i), witness_count=0))

    # The prefix "id:" is reserved: a morphism named id:<obj> must be the
    # identity assigned to that object (identities themselves may use any id).
    for m, s, d in cat.morphisms:
        if m.startswith(IDENTITY_PREFIX):
            x = m[len(IDENTITY_PREFIX):]
            if x in set(cat.objects) and cat.identity.get(x) != m:
                reports.append(CheckReport("category.reserved-id", (m,), witness_count=0))

    for (f, g) in cat.comp:
        if cat.dst(f) != cat.src(g):
            reports.append(CheckReport("category.composable", (f, g), witness_count=0))

    mor_ids = cat.mor_ids()
    for f in mor_ids:
        for g in mor_ids:
            if cat.dst(f) != cat.src(g):
                continue
            if (f, g) not in cat.comp:
                reports.append(CheckReport("category.total", (f, g), witness_count=0))
                continue
            h = cat.comp[(f, g)]
            if cat.is_identity(g):
                if h != f:
                    reports.append(CheckReport("category.unit", (f, g), lhs=h, rhs=f))
                continue
            if cat.is_identity(f):
                if h != g:
                    reports.append(CheckReport("category.unit", (f, g), lhs=h, rhs=g))
                continue
            if cat.src(h) != cat.src(f) or cat.dst(h) != cat.dst(g):
                reports.append(CheckReport("category.shape", (f, g, h), witness_count=0))

    for f in mor_ids:
        for g in mor_ids:
            if cat.dst(f) != cat.src(g):
                continue
            fg = cat.comp.get((f, g))
            for h in mor_ids:
                if cat.dst(g) != cat.src(h):
                    continue
                gh = cat.comp.get((g, h))
                if fg is None or gh is None:
                    continue
                lhs = cat.comp.get((fg, h)) if cat.dst(fg) == cat.src(h) else None
                rhs = cat.comp.get((f, gh)) if cat.dst(f) == cat.src(gh) else None
                if lhs is None or rhs is None:
                    continue  # already reported as unit/shape failure
                if lhs != rhs:
                    reports.append(CheckReport("category.assoc", (f, g, h), lhs=lhs, rhs=rhs))

    return sort_reports(reports)


def pair_id(a: str, b: str) -> str:
    return f"({a},{b})"


def product_category(a: FinCategory, b: FinCategory) -> FinCategory:
    """The product category; ids of objects and morphisms are encoded pairs."""
    objects = tuple(sorted(pair_id(x, y) for x in a.objects for y in b.objects))
    morphisms = tuple(sorted(
        (pair_id(f, g), pair_id(a.src(f), b.src(g)), pair_id(a.dst(f), b.dst(g)))
        for f in a.mor_ids() for g in b.mor_ids()
    ))
    identity = {pair_id(x, y): pair_id(a.id_(x), b.id_(y))
                for x in a.objects for y in b.objects}
    comp = {}
    for (f1, g1), h1 in a.comp.items():
        for (f2, g2), h2 in b.comp.items():
            comp[(pair_id(f1, f2), pair_id(g1, g2))] = pair_id(h1, h2)
    return FinCategory(objects, morphisms, identity, comp)


def opposite_category(a: FinCategory) -> FinCategory:
    """Reverse all morphisms; ids are preserved, so this is an involution."""
    morphisms = tuple(sorted((m, d, s) for m, s, d in a.morphisms))
    comp = {(g, f): h for (f, g), h in a.comp.items()}
    return FinCategory(a.objects, morphisms, dict(a.identity), comp)


def morphism_inverse(cat: FinCategory, f: Mor) -> Mor | None:
    """The unique two-sided inverse of ``f``, or ``None`` if there is none."""
    s, d = cat.src(f), cat.dst(f)
    found = []
    for g in cat.hom(d, s):
        if cat.comp.get((f, g)) == cat.id_(s) and cat.comp.get((g, f)) == cat.id_(d):
            found.append(g)
    if len(found) > 1:
        raise AmbiguousInverseError(
            f"{f!r} has {len(found)} two-sided inverses; the tables are corrupt")
    return found[0] if found else None


def morphism_inverse_checked(cat: FinCategory, f: Mor) -> Mor:
    """The inverse of a morphism that must be an isomorphism."""
    g = morphism_inverse(cat, f)
    if g is None:
        raise WitnessError(f"required isomorphism {f!r} has no inverse", count=0)
    return g


class Preimages:
    """The fibres of a finite map ``table`` (argument -> image), read off in
    one pass; an image that could not be computed is keyed ``None``.

    The one inversion serves both uses of an adjunction-style table: deciding
    that it is a bijection from one hom-set onto another (:meth:`check`) and
    the unique-preimage lookups such a bijection licenses (:meth:`unique`),
    so a checker and the lookups it vouches for read the same fibres.
    """

    __slots__ = ("table", "fibres")

    def __init__(self, table: Mapping[Mor, Mor | None]):
        self.table = table
        self.fibres: dict[Mor | None, list[Mor]] = {}
        for arg, image in table.items():
            self.fibres.setdefault(image, []).append(arg)

    def check(self, law: str, site: tuple[str, ...], dom: Iterable[Mor],
              cod: tuple[Mor, ...], what: str) -> list[CheckReport]:
        """No report iff the table is a bijection from ``dom`` onto ``cod``.
        A failure counts the distinct defined images as its witnesses;
        ``what`` names the table in the note."""
        if sorted(self.table) != sorted(dom):
            return [CheckReport(law, site, witness_count=len(self.table),
                                note=f"{what} domain mismatch")]
        if (len(self.fibres) != len(cod)
                or any(len(self.fibres.get(c, ())) != 1 for c in cod)):
            images = len(self.fibres) - (None in self.fibres)
            return [CheckReport(law, site, witness_count=images,
                                note=f"{what} not a bijection onto {len(cod)} elements")]
        return []

    def unique(self, image: Mor, describe: Callable[[int], str]) -> Mor:
        """The only argument sent to ``image``; otherwise a
        :class:`WitnessError` whose message is ``describe(count)``."""
        found = self.fibres.get(image, ())
        if len(found) != 1:
            raise WitnessError(describe(len(found)), count=len(found))
        return found[0]


#: The fibres of an absent table: every lookup is a :class:`WitnessError`
#: with ``count=0``.
NO_PREIMAGES = Preimages({})


@dataclass(frozen=True)
class FunctorData:
    """A functor between finite categories, as explicit object/morphism maps."""

    srcCat: FinCategory
    dstCat: FinCategory
    onObjects: Mapping[Obj, Obj]
    onMorphisms: Mapping[Mor, Mor]

    def obj(self, x: Obj) -> Obj:
        try:
            return self.onObjects[x]
        except KeyError:
            raise MissingTableError(f"functor object table missing {x!r}") from None

    def mor(self, f: Mor) -> Mor:
        try:
            return self.onMorphisms[f]
        except KeyError:
            raise MissingTableError(f"functor morphism table missing {f!r}") from None


def functor_law_names(tag: str) -> tuple[str, ...]:
    """The names :func:`validate_functor` reports under for ``tag``."""
    return tuple(f"{tag}.{check}" for check in ("total", "shape", "identity", "composition"))


def validate_functor(fn: FunctorData, tag: str = "functor") -> list[CheckReport]:
    """Check totality, src/dst preservation, identities and composition."""
    reports: list[CheckReport] = []
    src, dst = fn.srcCat, fn.dstCat
    for x in src.objects:
        if x not in fn.onObjects:
            reports.append(CheckReport(f"{tag}.total", (x,), witness_count=0))
        elif not dst.has_obj(fn.onObjects[x]):
            raise MalformedReferenceError(f"{tag} maps {x!r} to undeclared object")
    for f in src.mor_ids():
        if f not in fn.onMorphisms:
            reports.append(CheckReport(f"{tag}.total", (f,), witness_count=0))
            continue
        ff = fn.onMorphisms[f]
        if not dst.has_mor(ff):
            raise MalformedReferenceError(f"{tag} maps {f!r} to undeclared morphism")
        want_s = fn.onObjects.get(src.src(f))
        want_d = fn.onObjects.get(src.dst(f))
        if want_s is not None and want_d is not None:
            if dst.src(ff) != want_s or dst.dst(ff) != want_d:
                reports.append(CheckReport(f"{tag}.shape", (f, ff), witness_count=0))
    if reports:
        return sort_reports(reports)
    for x in src.objects:
        if fn.mor(src.id_(x)) != dst.id_(fn.obj(x)):
            reports.append(CheckReport(f"{tag}.identity", (x,),
                                       lhs=fn.mor(src.id_(x)), rhs=dst.id_(fn.obj(x))))
    for (f, g), h in src.comp.items():
        lhs = dst.comp.get((fn.mor(f), fn.mor(g)))
        rhs = fn.mor(h)
        if lhs != rhs:
            reports.append(CheckReport(f"{tag}.composition", (f, g), lhs=lhs, rhs=rhs))
    return sort_reports(reports)


@dataclass(frozen=True)
class NatTransData:
    """An ordinary natural transformation between parallel functors."""

    source: FunctorData
    target: FunctorData
    components: Mapping[Obj, Mor]


def validate_nattrans(nt: NatTransData, tag: str = "nattrans") -> list[CheckReport]:
    reports: list[CheckReport] = []
    src = nt.source.srcCat
    dst = nt.source.dstCat
    for x in src.objects:
        c = nt.components.get(x)
        if c is None:
            reports.append(CheckReport(f"{tag}.total", (x,), witness_count=0))
            continue
        if dst.src(c) != nt.source.obj(x) or dst.dst(c) != nt.target.obj(x):
            reports.append(CheckReport(f"{tag}.shape", (x, c), witness_count=0))
    if reports:
        return sort_reports(reports)
    for f in src.mor_ids():
        x, y = src.src(f), src.dst(f)
        lhs = dst.compose(nt.source.mor(f), nt.components[y])
        rhs = dst.compose(nt.components[x], nt.target.mor(f))
        if lhs != rhs:
            reports.append(CheckReport(f"{tag}.square", (f,), lhs=lhs, rhs=rhs))
    return sort_reports(reports)


def canonical(value: Any) -> Any:
    """Canonical, order-normalized form of any structure in this package.

    Dataclasses become ``(classname, (field, canonical(value)), ...)`` tuples,
    finite maps become key-sorted tuples, sequences become tuples.  Two
    structures are equal exactly when their canonical forms are.
    """
    # the common exact types first: the dataclass and Mapping tests are slow
    if isinstance(value, str):
        return value
    if type(value) is tuple:
        return tuple(canonical(v) for v in value)
    if (type(value) is not dict and dataclasses.is_dataclass(value)
            and not isinstance(value, type)):
        return (type(value).__name__,) + tuple(
            (f.name, canonical(getattr(value, f.name))) for f in dataclasses.fields(value)
        )
    if type(value) is dict or isinstance(value, Mapping):
        return ("map",) + tuple(sorted(
            ((canonical(k), canonical(v)) for k, v in value.items()),
            key=lambda kv: kv[0],
        ))
    if isinstance(value, (list, tuple)):
        return tuple(canonical(v) for v in value)
    if isinstance(value, (int, bool, float)) or value is None:
        return value
    raise TypeError(f"no canonical form for {type(value).__name__}")


def _same_dataclass(a: Any, b: Any) -> bool:
    return (type(a) is type(b) and dataclasses.is_dataclass(a)
            and not isinstance(a, type))


def structural_equal(a: Any, b: Any) -> bool:
    """Exact table equality after canonical id-sorted normalization.

    Values that are ``==`` have equal canonical forms, so plain equality
    answers first.  Two dataclasses of one type are equal exactly when each
    pair of fields is, so they are compared field by field, and canonical
    forms are built only for the fields that are not ``==``.
    """
    return _equal(a, b)


def _equal(a: Any, b: Any) -> bool:
    if a == b:
        return True
    if _same_dataclass(a, b):
        return all(_equal(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    return canonical(a) == canonical(b)


def canonical_diff(a: Any, b: Any, path: str = "") -> str | None:
    """Human-readable path to the first difference between canonical forms.

    The text is ``_diff(canonical(a), canonical(b), path)``.  Two dataclasses
    of one type are walked field by field, as in :func:`structural_equal`, so
    only the fields that are not ``==`` are canonicalised; the step into a
    nested dataclass is its class name, the head of its canonical form.
    """
    if not _same_dataclass(a, b):
        return _diff(canonical(a), canonical(b), path)
    for f in dataclasses.fields(a):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if va == vb:
            continue
        if _same_dataclass(va, vb):
            d = canonical_diff(va, vb, f"{path}/{f.name}/{type(va).__name__}")
        else:
            d = _diff((f.name, canonical(va)), (f.name, canonical(vb)), f"{path}/{f.name}")
        if d is not None:
            return d
    return None


def _diff(ca: Any, cb: Any, path: str) -> str | None:
    if ca == cb:
        return None
    if isinstance(ca, tuple) and isinstance(cb, tuple):
        if len(ca) != len(cb):
            return f"{path or '<root>'}: sizes differ ({len(ca)} vs {len(cb)})"
        for i, (x, y) in enumerate(zip(ca, cb)):
            label = x[0] if isinstance(x, tuple) and x and isinstance(x[0], str) else str(i)
            d = _diff(x, y, f"{path}/{label}")
            if d is not None:
                return d
        return f"{path or '<root>'}: differ"
    return f"{path or '<root>'}: {ca!r} != {cb!r}"


def rename_category(cat: FinCategory,
                    obj_map: Mapping[Obj, Obj] | None = None,
                    mor_map: Mapping[Mor, Mor] | None = None) -> FinCategory:
    """Rename objects/morphisms by total injective maps (used by round trips)."""
    om = dict(obj_map or {})
    mm = dict(mor_map or {})
    ro = lambda x: om.get(x, x)
    rm = lambda f: mm.get(f, f)
    return FinCategory(
        objects=tuple(sorted(ro(x) for x in cat.objects)),
        morphisms=tuple(sorted((rm(m), ro(s), ro(d)) for m, s, d in cat.morphisms)),
        identity={ro(x): rm(m) for x, m in cat.identity.items()},
        comp={(rm(f), rm(g)): rm(h) for (f, g), h in cat.comp.items()},
    )
