"""The full sweep of the category axioms, a test reference for
``core.validate_category``: totality, units and shapes at every pair of
morphisms, associativity at every composable triple."""

from encat.core import (IDENTITY_PREFIX, CheckReport, FinCategory, _check_category_references,
                        sort_reports)


def full_category_reports(cat: FinCategory) -> list[CheckReport]:
    """Every report of the category axioms on ``cat``, sorted; raises the
    reference errors ``validate_category`` raises."""
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

    for m, s, d in cat.morphisms:
        if m.startswith(IDENTITY_PREFIX):
            x = m[len(IDENTITY_PREFIX):]
            if x in cat._objs and cat.identity.get(x) != m:
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

    comp = cat.comp
    for f, g, h in composable_triples(cat):
        fg, gh = comp.get((f, g)), comp.get((g, h))
        if fg is None or gh is None:
            continue
        lhs = comp.get((fg, h)) if cat.dst(fg) == cat.src(h) else None
        rhs = comp.get((f, gh)) if cat.dst(f) == cat.src(gh) else None
        if lhs is not None and rhs is not None and lhs != rhs:
            reports.append(CheckReport("category.assoc", (f, g, h), lhs=lhs, rhs=rhs))

    return sort_reports(reports)


def composable_triples(cat: FinCategory) -> list[tuple[str, str, str]]:
    """Every (f, g, h) with dst f = src g and dst g = src h, in id order."""
    mor_ids = cat.mor_ids()
    return [(f, g, h) for f in mor_ids for g in mor_ids if cat.dst(f) == cat.src(g)
            for h in mor_ids if cat.dst(g) == cat.src(h)]


def reads(cat: FinCategory, f: str, g: str, h: str) -> set[tuple[str, str]]:
    """The composition-table keys the associativity site (f, g, h) reads."""
    comp = cat.comp
    read = {(f, g), (g, h)}
    fg, gh = comp.get((f, g)), comp.get((g, h))
    if fg is not None and gh is not None:
        if cat.dst(fg) == cat.src(h):
            read.add((fg, h))
        if cat.dst(f) == cat.src(gh):
            read.add((f, gh))
    return read
