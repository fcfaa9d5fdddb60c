"""Finite categories as explicit tables, plus the generic machinery built on them.

Everything in this package is a finite table: a category is a list of objects,
a list of morphisms and a total composition table over composable pairs.  All
values are immutable after construction and every operation is pure, so the
whole library is safe to use from concurrent callers.

Composition convention, used everywhere: ``comp[(f, g)]`` is "g after f".
A composite written ``g . f`` in the usual right-to-left notation is looked up
as ``comp[(f, g)]``; :meth:`FinCategory.compose` takes its steps in diagram
order (first argument is applied first).

Every equation outside category validation is a :class:`Law`, judged by one
site loop, in :func:`evaluate` (reports) or :func:`assert_derived` (laws the
axioms imply).  Out of a product, a functor's composition law is judged on
its :func:`bifunctor_cover`, as the tensor's interchange law is; the
naturality of a transformation between two composites of bifunctors, the
monoidal and the module associators', on its :func:`trinatural_cover`.
"""

from __future__ import annotations

import dataclasses
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Any, Callable, Iterable, Iterator, Sequence

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

    ``gate``, when set, localizes the law: ``gate(*data)`` is ``None`` when
    the premises it rests on fail, and otherwise the cover, sites of the law
    outside which every site holds, so only the cover is judged.
    ``replace(law, gate=None)`` judges every site.
    """

    name: str
    sites: Callable[..., Iterable[tuple[str, ...]]]
    lhs: Callable[..., Mor]
    rhs: Callable[..., Mor]
    core: bool = False
    gate: Callable[..., Iterable[tuple[str, ...]] | None] | None = None


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


def derived_law(name: str, sites: Callable[..., Iterable[tuple[str, ...]]],
                lhs: Callable[..., Mor], rhs: Callable[..., Mor]) -> Law:
    """A law the axioms imply, for :func:`assert_derived`: both sides are
    :func:`required`, since each is defined wherever the axioms hold."""
    return Law(name, sites, required(lhs), required(rhs))


def evaluate(laws: Iterable[Law], *data: Any) -> list[CheckReport]:
    """Judge every site of ``laws`` on ``data``, law by law in order.

    A side that raises :class:`EncatError` leaves its site undefined: one
    report with ``witness_count=0`` and the note of the first undefined side.
    Both sides are always evaluated, so a :func:`required` side raises even
    where the other is undefined.  Unequal sides give a report carrying both.

    A law whose gate gives a cover judges only the cover's sites; the
    reports are those of the full sweep.
    """
    return list(_reports(laws, data))


def assert_derived(laws: Iterable[Law], *data: Any,
                   fail: Callable[[str, tuple[str, ...]], EncatError] | None = None) -> None:
    """Judge :func:`derived_law` laws on ``data``, as :func:`evaluate` does,
    up to the first unequal site, which raises ``fail(law name, site)``, by
    default :class:`EngineBugError` ("derived law failed: <law> at <site>")."""
    for report in _reports(laws, data):
        if fail is not None:
            raise fail(report.law, report.site)
        raise EngineBugError(f"derived law failed: {report.law} at {report.site!r}")


def _reports(laws: Iterable[Law], data: tuple) -> Iterator[CheckReport]:
    """The reports of ``laws`` on ``data``, found as they are asked for."""
    for law in laws:
        cover = law.gate(*data) if law.gate is not None else None
        yield from _judge(law, law.sites(*data) if cover is None else cover, data)


def _judge(law: Law, sites: Iterable[tuple[str, ...]], data: tuple) -> Iterator[CheckReport]:
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
            yield CheckReport(law.name, site, witness_count=0, note=note)
        elif lhs != rhs:
            yield CheckReport(law.name, site, lhs=lhs, rhs=rhs)


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

    @cached_property
    def _generators(self) -> tuple[Mor, ...]:
        """Non-identity morphisms of which every non-identity morphism is a
        composite, chosen greedily: the indecomposable ones (no composite of
        two non-identities), which any such set holds, then, in id order,
        each morphism not yet reached.  Read off a valid category."""
        composites = self._composites
        mors = [f for f in self.mor_ids() if not self.is_identity(f)]
        split = {h for (f, g), h in composites.items()
                 if not self.is_identity(f) and not self.is_identity(g)}
        chosen: list[Mor] = []
        reached: set[Mor] = set()
        for f in sorted(mors, key=lambda f: (f in split, f)):
            if f in reached:
                continue
            chosen.append(f)
            todo = [f]
            while todo:
                x = todo.pop()
                if x in reached:
                    continue
                reached.add(x)
                for y in list(reached):
                    todo += [h for h in (composites.get((x, y)), composites.get((y, x)))
                             if h is not None and h not in reached]
        return tuple(chosen)

    @cached_property
    def _opposite(self) -> FinCategory:
        """The opposite category, built once; its own opposite is ``self``."""
        op = FinCategory(self.objects, tuple(sorted((m, d, s) for m, s, d in self.morphisms)),
                         dict(self.identity), {(g, f): h for (f, g), h in self.comp.items()})
        op.__dict__["_opposite"] = self
        return op

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

    @cached_property
    def _composites(self) -> dict[tuple[Mor, Mor], Mor]:
        """The entries of ``comp`` whose keys are declared and composable:
        the only pairs :meth:`then` and :func:`compose_path` answer."""
        mors = self._mors
        return {(f, g): h for (f, g), h in self.comp.items()
                if f in mors and g in mors and mors[f][1] == mors[g][0]}

    def then(self, f: Mor, g: Mor) -> Mor:
        """The composite 'g after f'."""
        h = self._composites.get((f, g))
        if h is None:
            if self.dst(f) != self.src(g):
                raise NonComposablePathError(
                    f"{f!r} (-> {self.dst(f)!r}) is not composable with {g!r} (<- {self.src(g)!r})",
                    index=0,
                )
            raise MissingTableError(f"composition table missing entry ({f!r}, {g!r})")
        return h

    def compose(self, *path: Mor) -> Mor:
        """Compose a nonempty sequence of morphisms given in diagram order."""
        return compose_path(self, path)


def compose_path(cat: FinCategory, path: Sequence[Mor]) -> Mor:
    """Left fold of the composition table over a nonempty path.

    Each step is one lookup of the declared, composable entries; only a miss
    is diagnosed.  Raises :class:`NonComposablePathError` carrying the index
    of the first bad adjacency.
    """
    if not path:
        raise NonComposablePathError("cannot compose an empty path", index=0)
    acc = path[0]
    if acc not in cat._mors:
        raise MalformedReferenceError(f"unknown morphism {acc!r}")
    composites = cat._composites
    for i in range(1, len(path)):
        step = path[i]
        h = composites.get((acc, step))
        if h is None:
            _composite_miss(cat, acc, step, i)
        acc = h
    return acc


def _composite_miss(cat: FinCategory, acc: Mor, step: Mor, i: int) -> None:
    """Raise the error of the step ``acc`` then ``step`` at path index ``i``."""
    if not cat.has_mor(step):
        raise MalformedReferenceError(f"unknown morphism {step!r}")
    if cat.dst(acc) != cat.src(step):
        raise NonComposablePathError(
            f"path breaks between positions {i - 1} and {i}: "
            f"{acc!r} ends at {cat.dst(acc)!r} but {step!r} starts at {cat.src(step)!r}",
            index=i,
        )
    raise MissingTableError(f"composition table missing entry ({acc!r}, {step!r})")


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

    ends, comp = cat._mors, cat.comp
    post: dict[Obj, list[Mor]] = {}  # the morphisms out of each object, in id order
    for f in mor_ids:
        post.setdefault(ends[f][0], []).append(f)
    for f in mor_ids:
        for g in post.get(ends[f][1], ()):
            fg = comp.get((f, g))
            if fg is None:
                continue
            for h in post.get(ends[g][1], ()):
                gh = comp.get((g, h))
                if gh is None:
                    continue
                lhs = comp.get((fg, h)) if ends[fg][1] == ends[h][0] else None
                rhs = comp.get((f, gh)) if ends[f][1] == ends[gh][0] else None
                if lhs is None or rhs is None:
                    continue  # already reported as unit/shape failure
                if lhs != rhs:
                    reports.append(CheckReport("category.assoc", (f, g, h), lhs=lhs, rhs=rhs))

    return sort_reports(reports)


def pair_id(a: str, b: str) -> str:
    return f"({a},{b})"


class ProductComp(Mapping):
    """The composition table of ``a`` x ``b``, read off the factors' tables.

    The entry at (pair_id(f1, f2), pair_id(g1, g2)) is pair_id(h1, h2) for
    the entries (f1, g1) -> h1 of ``a.comp`` and (f2, g2) -> h2 of
    ``b.comp``; it is computed when asked for.  Iteration order, ``len``,
    lookups and ``KeyError`` are those of the table written out in full,
    ``a``'s entries outermost.  ``parts`` maps the pair id of each morphism
    (f, g) to (f, g).  Two such tables with equal factor tables are equal
    without writing either out.
    """

    __slots__ = ("a", "b", "parts")

    def __init__(self, a: FinCategory, b: FinCategory, parts: dict[Mor, tuple[Mor, Mor]]):
        self.a, self.b, self.parts = a, b, parts

    def __getitem__(self, key: tuple[Mor, Mor]) -> Mor:
        if isinstance(key, tuple) and len(key) == 2:
            f, g = self.parts.get(key[0]), self.parts.get(key[1])
            if f is not None and g is not None:
                try:
                    return pair_id(self.a.comp[(f[0], g[0])], self.b.comp[(f[1], g[1])])
                except KeyError:
                    pass
        raise KeyError(key)

    def __iter__(self):
        return (key for key, _ in self.items())

    def __len__(self) -> int:
        return len(self.a.comp) * len(self.b.comp)

    def items(self):
        return _ProductItems(self)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ProductComp):
            if self.a.comp == other.a.comp and self.b.comp == other.b.comp:
                return True
            if len(self) != len(other):
                return False
        return Mapping.__eq__(self, other)


class _ProductItems(ItemsView):
    """The entries of a :class:`ProductComp`, each computed once."""

    def __iter__(self):
        b_items = tuple(self._mapping.b.comp.items())
        for (f1, g1), h1 in self._mapping.a.comp.items():
            for (f2, g2), h2 in b_items:
                yield (pair_id(f1, f2), pair_id(g1, g2)), pair_id(h1, h2)


def product_category(a: FinCategory, b: FinCategory) -> FinCategory:
    """The product category; ids of objects and morphisms are encoded pairs.

    Its ``comp`` is a :class:`ProductComp`, computed entry by entry from the
    factors', when every id in the factors' composition tables is a declared
    morphism and distinct pairs of morphisms get distinct pair ids.  Failing
    either, ``comp`` is the table written out, as a ``dict``.
    """
    objects = tuple(sorted(pair_id(x, y) for x in a.objects for y in b.objects))
    pairs = [(pair_id(f, g), f, g) for f in a.mor_ids() for g in b.mor_ids()]
    morphisms = tuple(sorted(
        (p, pair_id(a.src(f), b.src(g)), pair_id(a.dst(f), b.dst(g))) for p, f, g in pairs
    ))
    parts = {p: (f, g) for p, f, g in pairs}
    identity = {pair_id(x, y): pair_id(a.id_(x), b.id_(y))
                for x in a.objects for y in b.objects}
    comp: Mapping[tuple[Mor, Mor], Mor] = ProductComp(a, b, parts)
    if (len(parts) != len(a._mors) * len(b._mors)
            or not all(f in a._mors and g in a._mors for f, g in a.comp)
            or not all(f in b._mors and g in b._mors for f, g in b.comp)):
        comp = dict(comp.items())
    return FinCategory(objects, morphisms, identity, comp)


def opposite_category(a: FinCategory) -> FinCategory:
    """Reverse all morphisms; ids are preserved.  Each ``a`` has one
    opposite, built once, whose opposite is ``a`` itself, so the verdict of
    :func:`validate_category` on either is found once."""
    return a._opposite


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

    @cached_property
    def _bifunctor(self) -> Bifunctor | None:
        """Out of a product A x B (a source whose ``comp`` is a
        :class:`ProductComp`), this functor as a :class:`Bifunctor`, found
        once per instance; ``None`` otherwise, or when no rebuild is found.
        The composition gate of :func:`validate_functor` and every
        :func:`trinatural_cover` this functor takes part in share it."""
        comp = self.srcCat.comp
        if not isinstance(comp, ProductComp):
            return None
        a, b = comp.a, comp.b
        obj = {(x, y): self.onObjects.get(pair_id(x, y)) for x in a.objects for y in b.objects}
        mor = {fg: self.onMorphisms.get(p) for p, fg in comp.parts.items()}
        return rebuild_bifunctor(a, b, self.dstCat, obj, mor)


def functor_law_names(tag: str) -> tuple[str, ...]:
    """The names :func:`validate_functor` reports under for ``tag``."""
    return tuple(f"{tag}.{check}" for check in ("total", "shape", "identity", "composition"))


def validate_functor(fn: FunctorData, tag: str = "functor") -> list[CheckReport]:
    """Check totality, src/dst preservation, then the ``FUNCTOR_LAWS`` under
    ``tag``.  Out of a product A x B (a source whose ``comp`` is a
    :class:`ProductComp`) composition is judged on its :func:`bifunctor_cover`
    when :func:`rebuild_bifunctor` rebuilds ``fn`` from its axes (Mac Lane,
    CWM II.3, Prop. 1), otherwise on every site: the reports are the same."""
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
    if not reports:
        reports = evaluate(_tagged(FUNCTOR_LAWS, tag), fn)
    return sort_reports(reports)


def _tagged(laws: Iterable[Law], tag: str) -> list[Law]:
    """``laws`` named ``<tag>.<name>``."""
    return [dataclasses.replace(law, name=f"{tag}.{law.name}") for law in laws]


def _composition_gate(fn: FunctorData) -> list[tuple[Mor, Mor]] | None:
    """The cover of ``fn``'s composition law, in pair ids, or ``None``."""
    cover = bifunctor_cover(fn._bifunctor)
    if cover is None:
        return None
    return [(pair_id(f, f2), pair_id(g, g2)) for f, f2, g, g2 in cover]


# A functor's own laws, on (fn,): it preserves identities and composites.
FUNCTOR_LAWS = (
    Law("identity", lambda fn: product(fn.srcCat.objects),
        required(lambda fn, x: fn.mor(fn.srcCat.id_(x))),
        required(lambda fn, x: fn.dstCat.id_(fn.obj(x)))),
    Law("composition", lambda fn: fn.srcCat.comp,
        required(lambda fn, f, g: fn.dstCat.comp.get((fn.mor(f), fn.mor(g)))),
        required(lambda fn, f, g: fn.mor(fn.srcCat.comp[(f, g)])), gate=_composition_gate),
)


def bifunctor_cover(fn: Bifunctor | None) -> tuple[tuple[Mor, Mor, Mor, Mor], ...] | None:
    """The composable pairs (f, f2), (g, g2) of A x B, as (f, f2, g, g2), at
    which F : A x B -> C reads one of its defects through F(f, f2), F(g, g2)
    or F(f.g, f2.g2), each once: off its defects F is the bifunctor it was
    rebuilt to, so F's composition law holds off the cover.  ``None`` when
    ``fn`` is (no rebuild was found)."""
    if fn is None:
        return None
    a, b = fn.a, fn.b

    def index(cat: FinCategory):
        post: dict[Obj, list[Mor]] = {}
        pre: dict[Obj, list[Mor]] = {}
        for f, s, d in cat.morphisms:
            post.setdefault(s, []).append(f)
            pre.setdefault(d, []).append(f)
        return post, pre, Preimages(cat.comp).fibres

    (post_a, pre_a, fibres_a), (post_b, pre_b, fibres_b) = index(a), index(b)
    cover: dict[tuple[Mor, ...], None] = {}
    for d, d2 in sorted(fn.defects):  # at F(f, f2), at F(g, g2), at F(f.g, f2.g2)
        cover.update(dict.fromkeys(
            (d, d2, g, g2) for g in post_a[a.dst(d)] for g2 in post_b[b.dst(d2)]))
        cover.update(dict.fromkeys(
            (f, f2, d, d2) for f in pre_a[a.src(d)] for f2 in pre_b[b.src(d2)]))
        cover.update(dict.fromkeys(
            (f, f2, g, g2) for f, g in fibres_a.get(d, ()) for f2, g2 in fibres_b.get(d2, ())))
    return tuple(cover)


@dataclass(frozen=True)
class Bifunctor:
    """A map F : A x B -> C on morphisms, ``table`` keyed (f, g), with the
    bifunctor R that :func:`rebuild_bifunctor` rebuilds from its axes,
    ``rebuilt``, and the entries where they differ, ``defects``."""

    a: FinCategory
    b: FinCategory
    c: FinCategory
    table: Mapping[tuple[Mor, Mor], Mor]
    rebuilt: Mapping[tuple[Mor, Mor], Mor]
    defects: frozenset[tuple[Mor, Mor]]

    @cached_property
    def fibres(self) -> dict[Mor, list[tuple[Mor, Mor]]]:
        """The pairs (f, g) of A x B at each value F(f, g)."""
        fibres: dict[Mor, list[tuple[Mor, Mor]]] = {}
        for fg in product(self.a._mors, self.b._mors):
            fibres.setdefault(self.table[fg], []).append(fg)
        return fibres


def rebuild_bifunctor(a: FinCategory, b: FinCategory, c: FinCategory,
                      obj: Mapping[tuple[Obj, Obj], Obj | None],
                      mor: Mapping[tuple[Mor, Mor], Mor | None]) -> Bifunctor | None:
    """The map F given by ``obj`` and ``mor`` with a bifunctor R : A x B -> C
    rebuilt from its axes, and the set B = {(f, g) : F(f, g) != R(f, g)};
    ``None`` when no rebuild is found, or when ``obj`` or ``mor`` is partial
    or names a value not declared in C.

    The axes are F's entries F(f, 1_y) and F(1_x, g).  The premises, checked
    by :func:`_broken_premise`: A, B and C are valid categories, every axis
    entry is well shaped, F(1_x, 1_y) = 1_{F(x, y)}, each axis is a functor
    and the axes commute.  When the axes break one, one of the entries that
    the first broken premise reads is replaced, as :func:`_repaired` finds;
    a single faulty axis entry of a bifunctor is always among them, and its
    lawful value passes.  Under the premises
    R(f, g) = F(f, 1_{src g}) F(1_{dst f}, g) is a bifunctor (Mac Lane,
    CWM II.3, Prop. 1) equal to the axes, so a replaced entry is in B.
    """
    try:
        if validate_category(a) or validate_category(b) or validate_category(c):
            return None
    except MalformedReferenceError:
        return None
    if (any(obj.get(xy) not in c._objs for xy in product(a.objects, b.objects))
            or any(mor.get(fg) not in c._mors for fg in product(a._mors, b._mors))):
        return None
    ids_a, ids_b = a.identity, b.identity
    axes = {}
    for f in a._mors:
        for j in ids_b.values():
            axes[(f, j)] = mor[(f, j)]
    for g in b._mors:
        for i in ids_a.values():
            axes[(i, g)] = mor[(i, g)]
    broken = _broken_premise(a, b, c, obj, axes)
    if broken:
        axes = _repaired(a, b, c, obj, axes, broken)
        if axes is None:
            return None
    comp = c.comp
    rebuilt, defects = {}, set()
    for f, (s, d) in a._mors.items():
        for g, (s2, d2) in b._mors.items():
            r = rebuilt[(f, g)] = comp[(axes[(f, ids_b[s2])], axes[(ids_a[d], g)])]
            if mor[(f, g)] != r:
                defects.add((f, g))
    return Bifunctor(a, b, c, mor, rebuilt, frozenset(defects))


def _broken_premise(a: FinCategory, b: FinCategory, c: FinCategory,
                    obj: Mapping[tuple[Obj, Obj], Obj],
                    axes: Mapping[tuple[Mor, Mor], Mor]) -> tuple:
    """The axis entries read by the first premise of the rebuild that
    ``axes`` breaks, or ``()`` when all hold; A, B and C are valid.

    ``axes`` maps every (f, 1_y) and (1_x, g) to a morphism of C.  The
    premises: each entry is well shaped, A(1_x, 1_y) = 1_{F(x, y)}, each
    axis is a functor, and the axes commute, A(f, 1)A(1, g) = A(1, g)A(f, 1).
    """
    ends_a, ends_b, ids_a, ids_b = a._mors, b._mors, a.identity, b.identity
    comp = c.comp
    for (f, g), t in axes.items():
        (s, d), (s2, d2) = ends_a[f], ends_b[g]
        if c._mors.get(t) != (obj[(s, s2)], obj[(d, d2)]):
            return ((f, g),)
    for x, i in ids_a.items():
        for y, j in ids_b.items():
            if axes[(i, j)] != c.identity.get(obj[(x, y)]):
                return ((i, j),)
    for (f, g), h in a.comp.items():
        for j in ids_b.values():
            if axes[(h, j)] != comp[(axes[(f, j)], axes[(g, j)])]:
                return (h, j), (f, j), (g, j)
    for (f, g), h in b.comp.items():
        for i in ids_a.values():
            if axes[(i, h)] != comp[(axes[(i, f)], axes[(i, g)])]:
                return (i, h), (i, f), (i, g)
    for f, (s, d) in ends_a.items():
        for g, (s2, d2) in ends_b.items():
            keys = (f, ids_b[s2]), (ids_a[d], g), (ids_a[s], g), (f, ids_b[d2])
            if comp[(axes[keys[0]], axes[keys[1]])] != comp[(axes[keys[2]], axes[keys[3]])]:
                return keys
    return ()


def _repaired(a: FinCategory, b: FinCategory, c: FinCategory,
              obj: Mapping[tuple[Obj, Obj], Obj], axes: dict[tuple[Mor, Mor], Mor],
              keys) -> dict | None:
    """``axes`` with one of ``keys`` set to another morphism of its shape,
    the first (in key order, then sorted) under which every premise holds;
    ``None`` when there is none."""
    for f, g in dict.fromkeys(keys):
        (s, d), (s2, d2) = a._mors[f], b._mors[g]
        for v in c.hom(obj[(s, s2)], obj[(d, d2)]):
            if v != axes[(f, g)]:
                trial = {**axes, (f, g): v}
                if not _broken_premise(a, b, c, obj, trial):
                    return trial
    return None


def generators(cat: FinCategory) -> tuple[Mor, ...]:
    """A generating set of valid ``cat``: non-identity morphisms of which
    every non-identity morphism is a composite, found greedily, once per
    instance.  trop(n) gets its n - 1 steps, cyc(n) the one rotation."""
    return cat._generators


def separate_variable_sites(a: FinCategory, b: FinCategory,
                            c: FinCategory) -> Iterator[tuple[Mor, Mor, Mor]]:
    """The sites (u, 1, 1), (1, v, 1) and (1, 1, w) of A x B x C at which
    :func:`trinatural_cover` decides naturality in each variable alone:
    identities everywhere, and u, v, w in the :func:`generators` of their
    category, since squares paste."""
    ids_a, ids_b, ids_c = (tuple(cat.identity[x] for x in cat.objects) for cat in (a, b, c))
    yield from product(ids_a, ids_b, ids_c)
    yield from product(generators(a), ids_b, ids_c)
    for v in generators(b):
        yield from ((i, v, k) for i in ids_a for k in ids_c)
    for w in generators(c):
        yield from ((i, j, w) for i in ids_a for j in ids_b)


def trinatural_cover(a: FinCategory, b: FinCategory, c: FinCategory, e: FinCategory,
                     alpha: Mapping[tuple[Obj, Obj, Obj], Mor], g: Bifunctor | None,
                     f: Bifunctor | None, h: Bifunctor | None,
                     k: Bifunctor | None) -> tuple[tuple[Mor, Mor, Mor], ...] | None:
    """The cover of the naturality law of ``alpha`` in (u, v, w) of A x B x C,
    whose components alpha(x, y, z) : F(G(x, y), z) -> H(x, K(y, z)) are
    morphisms of E, for G : A x B -> D, F : D x C -> E, K : B x C -> D' and
    H : A x D' -> E: the sites at which (u, v) is a defect of G,
    (G(u, v), w) of F, (v, w) of K or (u, K(v, w)) of H.  Off the cover each
    side of the law is the side of the rebuilds, so the law holds there once
    ``alpha`` is natural for the rebuilds.  That is decided first, as a
    predicate on the rebuilds at the :func:`separate_variable_sites`: by
    Mac Lane, CWM II.3, Prop. 2, iterated, naturality in each variable alone
    gives naturality in all three.

    ``None``, so that every site is judged, when a map has no rebuild, the
    categories do not fit together, or ``alpha`` is not natural for the
    rebuilds in one variable; it reads ``alpha`` as partial and never raises.
    """
    if (g is None or f is None or h is None or k is None
            or not (g.a == a == h.a and g.b == b == k.a and f.b == c == k.b
                    and f.c == e == h.c and g.c == f.a and k.c == h.b)):
        return None
    rg, rf, rh, rk = g.rebuilt, f.rebuilt, h.rebuilt, k.rebuilt
    ends_a, ends_b, ends_c, comp = a._mors, b._mors, c._mors, e.comp
    for u, v, w in separate_variable_sites(a, b, c):
        (s, d), (s2, d2), (s3, d3) = ends_a[u], ends_b[v], ends_c[w]
        lhs = comp.get((rf[(rg[(u, v)], w)], alpha.get((d, d2, d3))))
        if lhs is None or lhs != comp.get((alpha.get((s, s2, s3)), rh[(u, rk[(v, w)])])):
            return None
    cover: dict[tuple[Mor, Mor, Mor], None] = {}
    for u, v in sorted(g.defects):
        cover.update(dict.fromkeys((u, v, w) for w in c._mors))
    for v, w in sorted(k.defects):
        cover.update(dict.fromkeys((u, v, w) for u in a._mors))
    for d, w in sorted(f.defects):
        cover.update(dict.fromkeys((u, v, w) for u, v in g.fibres.get(d, ())))
    for u, d in sorted(h.defects):
        cover.update(dict.fromkeys((u, v, w) for v, w in k.fibres.get(d, ())))
    return tuple(cover)


@dataclass(frozen=True)
class NatTransData:
    """An ordinary natural transformation between parallel functors."""

    source: FunctorData
    target: FunctorData
    components: Mapping[Obj, Mor]


# The naturality square of a transformation, on (nt,), at each morphism.
NATTRANS_LAWS = (
    Law("square", lambda nt: product(nt.source.srcCat.mor_ids()),
        required(lambda nt, f: nt.source.dstCat.compose(
            nt.source.mor(f), nt.components[nt.source.srcCat.dst(f)])),
        required(lambda nt, f: nt.source.dstCat.compose(
            nt.components[nt.source.srcCat.src(f)], nt.target.mor(f)))),
)


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
    if not reports:
        reports = evaluate(_tagged(NATTRANS_LAWS, tag), nt)
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
