"""Category validation judged where it can fail, against the full sweep.

``core.validate_category`` walks only the composable pairs and judges
``category.assoc`` where it can fail: on a thin category whose identity and
composability passes are clean, at the triples that read an entry the pair
pass flagged; on another whose passes are all clean, at the triples whose
last step is a generator, and at the others only when one of those fails
(Light's test); anywhere else at every triple.  ``tests/category_reference.py``
keeps the full sweep.  On every single-entry deletion and value swap of
``comp`` of the bases below, and on a fixed stride of the two-entry swaps,
both must give the same reports, or raise the same error with the same
message.  Tier-1 compares every ``TIER1_STRIDE``-th mutant; ``-m slow``
compares them all.  The site counts are pinned with a spy on the one triple
judge, ``core._associativity``.

``monoidal._tensor_shapes`` reads its tables directly and calls an accessor
only on a miss: on every deletion of one or two rows of the tables it reads,
and an undeclared ``tensor_mor`` value, ``check_monoidal`` must raise what
the accessor loop it replaced raises, in the same order.
"""

import dataclasses
from itertools import combinations, islice, product

import pytest

import encat.core as core
import encat.monoidal as mon
from category_reference import composable_triples, full_category_reports, reads
from encat.core import CheckReport, FinCategory, MalformedReferenceError
from encat.instances import build_bool, build_cyc, build_poset_module, build_trop
from encat.monoidal import MonoidalData, check_monoidal
from harness import agree, entries, outcome
from nonstrict import doubled_cyc

BASES = {
    "bool": lambda: build_bool().base, "trop(3)": lambda: build_trop(3).base,
    "trop(4)": lambda: build_trop(4).base, "cyc(3)": lambda: build_cyc(3).base,
    "cyc(4)": lambda: build_cyc(4).base,
    "poset-diamond": lambda: build_poset_module().tensorClosed.module.baseS,
    "doubled-cyc(2)": lambda: doubled_cyc(2).base,
}
DOUBLE_STRIDE = 17  # every 17th two-entry swap of each base, in enumeration order
TIER1_STRIDE = 5


def fresh(cat: FinCategory, comp) -> FinCategory:
    """``cat`` with composition table ``comp``, on which no verdict is kept."""
    return FinCategory(cat.objects, cat.morphisms, dict(cat.identity), comp)


def mutants(cat: FinCategory):
    """Every single-entry deletion and swap of ``comp``, then every
    ``DOUBLE_STRIDE``-th swap of two entries."""
    comp, mors = dict(cat.comp), cat.mor_ids()
    yield from entries(comp, mors)
    doubles = ((((k1, v1), (k2, v2)), {**comp, k1: v1, k2: v2})
               for k1, k2 in combinations(comp, 2)
               for v1, v2 in product(mors, repeat=2) if v1 != comp[k1] and v2 != comp[k2])
    yield from islice(doubles, 0, None, DOUBLE_STRIDE)


def category_agree(stride: int) -> int:
    count = 0
    for name, build in BASES.items():
        cat = build()
        count += agree(lambda: (((name, where), comp) for where, comp in mutants(cat)),
                       lambda comp: core.validate_category(fresh(cat, comp)), stride,
                       lambda comp: outcome(full_category_reports, fresh(cat, comp)))
    return count


def test_the_covers_agree_with_the_full_sweep():
    assert category_agree(TIER1_STRIDE) > 700


@pytest.mark.slow
def test_the_covers_agree_with_the_full_sweep_on_every_mutant():
    assert category_agree(1) > 3600


def test_the_builtins_validate_as_the_full_sweep_does():
    for build in BASES.values():
        cat = build()
        assert core.validate_category(fresh(cat, dict(cat.comp))) == full_category_reports(cat) == []


def judged(mp) -> list[tuple[str, str, str]]:
    """Record the triples ``core._associativity`` is given."""
    seen = []
    judge = core._associativity

    def recording(cat, sites):
        sites = [(f, g, list(hs)) for f, g, hs in sites]
        seen.extend((f, g, h) for f, g, hs in sites for h in hs)
        return judge(cat, sites)

    mp.setattr(core, "_associativity", recording)
    return seen


def test_a_lawful_thin_category_judges_no_triple(monkeypatch):
    cat = build_trop(8).base
    seen = judged(monkeypatch)
    assert core.validate_category(fresh(cat, dict(cat.comp))) == []
    assert seen == [] and len(composable_triples(cat)) == 330


def test_a_lawful_category_is_judged_on_its_generators(monkeypatch):
    """cyc(12) has one generator, the rotation 1: 12 x 12 triples end in it."""
    cat = build_cyc(12).base
    seen = judged(monkeypatch)
    assert core.validate_category(fresh(cat, dict(cat.comp))) == []
    assert len(seen) == len(set(seen)) == 144 and {h for _, _, h in seen} == {"1"}
    assert len(composable_triples(cat)) == 1728


def test_a_failing_generator_triple_sends_the_rest_to_the_sweep(monkeypatch):
    """cyc(12) with 2 . 5 set to 1: each triple is judged once."""
    cat = build_cyc(12).base
    mutant = fresh(cat, {**cat.comp, ("2", "5"): "1"})
    seen = judged(monkeypatch)
    got = core.validate_category(mutant)
    assert got == full_category_reports(mutant) and got
    assert len(seen) == len(set(seen)) == 1728


# The composition entries of the trop(8) monoidal document that perfbench's
# seed-1 coherence run swaps, each with its new value.
SEED_1_COMP = {("m:6:0", "id:0"): "m:7:0", ("m:5:4", "m:4:2"): "m:3:0",
               ("m:6:4", "m:4:3"): "m:6:5", ("m:5:3", "m:3:2"): "m:6:0",
               ("m:7:6", "m:6:0"): "m:5:2", ("m:7:5", "id:5"): "m:5:0",
               ("m:5:3", "m:3:1"): "m:4:2", ("m:4:0", "id:0"): "m:6:2",
               ("m:7:6", "m:6:4"): "m:5:2", ("m:5:2", "id:2"): "id:2"}


@pytest.mark.parametrize("key", list(SEED_1_COMP))
def test_a_swapped_thin_entry_is_judged_where_it_is_read(monkeypatch, key):
    """Each judges 8 of the 330 triples: exactly those that read the entry."""
    cat = build_trop(8).base
    mutant = fresh(cat, {**cat.comp, key: SEED_1_COMP[key]})
    seen = judged(monkeypatch)
    got = core.validate_category(mutant)
    monkeypatch.undo()
    assert got == full_category_reports(mutant)
    assert any(r.law == "category.assoc" for r in got)
    want = {t for t in composable_triples(mutant) if key in reads(mutant, *t)}
    assert len(seen) == len(set(seen)) == 8 and set(seen) == want


class Gets(dict):
    """A composition table that records the keys ``get`` is called with."""

    def __init__(self, entries):
        super().__init__(entries)
        self.seen = []

    def get(self, key, default=None):
        self.seen.append(key)
        return super().get(key, default)


def test_the_pair_pass_walks_the_composable_pairs():
    """trop(8): 120 composable pairs of 36 x 36."""
    cat = build_trop(8).base
    comp = Gets(cat.comp)
    assert core.validate_category(fresh(cat, comp)) == []
    assert len(comp.seen) == len(set(comp.seen)) == 120 == len(cat.comp)


def accessor_shapes(m: MonoidalData) -> list[CheckReport]:
    """The tensor shape loop as it read its tables, through the accessors."""
    base = m.base
    objs = base.objects
    for x in objs:
        for y in objs:
            m.tobj(x, y)
        m.l(x), m.r(x)
        for y in objs:
            for z in objs:
                m.a(x, y, z)
    reports: list[CheckReport] = []
    for f, g in product(base.mor_ids(), repeat=2):
        fg = m.tmor(f, g)
        if not base.has_mor(fg):
            raise MalformedReferenceError(
                f"tensor maps ({f!r}, {g!r}) to undeclared morphism {fg!r}")
        if (base.src(fg) != m.tobj(base.src(f), base.src(g))
                or base.dst(fg) != m.tobj(base.dst(f), base.dst(g))):
            reports.append(CheckReport("tensor.shape", (f, g), witness_count=0))
    return reports


SHAPE_TABLES = ("tensor_obj", "lunit", "runit", "assoc", "tensor_mor")


def edits(m: MonoidalData) -> list[tuple[str, object, object]]:
    """One row of a table the loop reads deleted (value ``None``), or a
    ``tensor_mor`` value replaced by an undeclared id."""
    return [(field, key, None) for field in SHAPE_TABLES for key in getattr(m, field)] + [
        ("tensor_mor", key, "undeclared") for key in m.tensor_mor]


def edited(m: MonoidalData, *changes) -> MonoidalData:
    tables = {field: dict(getattr(m, field)) for field in SHAPE_TABLES}
    for field, key, value in changes:
        if value is None:
            del tables[field][key]
        else:
            tables[field][key] = value
    return dataclasses.replace(m, **tables)


def shape_outcomes_agree(name: str, m: MonoidalData, pair_stride: int) -> None:
    rows = edits(m)
    cases = [(e,) for e in rows] + [
        pair for pair in islice(combinations(rows, 2), 0, None, pair_stride)
        if pair[0][:2] != pair[1][:2]]
    for case in cases:
        got = outcome(check_monoidal, edited(m, *case))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mon, "_tensor_shapes", accessor_shapes)
            mp.setitem(mon.SHAPE_LOOPS, "tensor", accessor_shapes)
            want = outcome(check_monoidal, edited(m, *case))
        assert got == want, (name, case)
        if len(case) == 1 and case[0][2] is None:
            assert got[0] == "MissingTableError", (name, case)


@pytest.mark.parametrize("name,build", [("trop(3)", lambda: build_trop(3)),
                                        ("cyc(3)", lambda: build_cyc(3))])
def test_the_tensor_shape_loop_keeps_its_errors(name, build):
    shape_outcomes_agree(name, build(), 7)


@pytest.mark.slow
@pytest.mark.parametrize("name,build", [("trop(3)", lambda: build_trop(3)),
                                        ("cyc(3)", lambda: build_cyc(3))])
def test_the_tensor_shape_loop_keeps_its_errors_on_every_pair(name, build):
    shape_outcomes_agree(name, build(), 1)
