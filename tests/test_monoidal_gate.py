"""The localized monoidal sweeps of ``check_monoidal`` against the full sweep.

``check_monoidal`` rebuilds the tensor from its axes, repairing one axis
entry if it must, and judges ``tensor.interchange`` and ``assoc.natural``
only on the sites that read an entry where the table and the rebuild differ
(once the associator is natural in each variable alone for the rebuild);
with ``gate=None`` it judges every site.  On every single-entry swap (the
value replaced by each other morphism of the base) and deletion of
``tensor_mor``, ``assoc``, ``lunit`` and ``runit``, both must give the same
reports, or raise the same error with the same message.  Tier-1 compares a
fixed stride of the mutants of the larger bases (see ``STRIDE``), also among
the ``tensor_mor`` swaps, every one of which it rebuilds; ``-m slow``
compares every mutant.
"""

import dataclasses
from itertools import product

import pytest

import encat.core as core
import encat.monoidal as mon
from encat.core import EncatError, FinCategory
from encat.instances import build_bool, build_cyc, build_trop
from encat.monoidal import MonoidalData, check_monoidal
from nonstrict import doubled_cyc

TABLES = ("tensor_mor", "assoc", "lunit", "runit")


def mutants(m: MonoidalData):
    """Every single-entry swap and deletion of the structure tables."""
    mors = m.base.mor_ids()
    for field in TABLES:
        table = getattr(m, field)
        for key, value in table.items():
            rest = {k: v for k, v in table.items() if k != key}
            yield (field, key, None), dataclasses.replace(m, **{field: rest})
            for other in mors:
                if other != value:
                    yield ((field, key, other),
                           dataclasses.replace(m, **{field: {**table, key: other}}))


def outcome(m: MonoidalData):
    try:
        return check_monoidal(m)
    except EncatError as exc:
        return type(exc).__name__, str(exc)


def spy(mp) -> dict[str, list[list[tuple[str, ...]]]]:
    """Record, per law name, the site families ``core.evaluate`` judges."""
    seen: dict[str, list[list[tuple[str, ...]]]] = {}
    judge = core._judge

    def recording(law, sites, data):
        sites = list(sites)
        seen.setdefault(law.name, []).append(sites)
        return judge(law, sites, data)

    mp.setattr(core, "_judge", recording)
    return seen


def full_outcome(m: MonoidalData):
    """The reference: ``check_monoidal`` with gate-free laws, asserted to
    have judged every site of every law once."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mon, "MONOIDAL_LAWS", tuple(
            dataclasses.replace(law, gate=None) for law in mon.MONOIDAL_LAWS))
        seen = spy(mp)
        got = outcome(m)
    if isinstance(got, list):
        for law in mon.MONOIDAL_LAWS:
            assert seen[law.name] == [list(law.sites(m, m.base))], law.name
    return got


def test_doubled_cyc_is_a_non_strict_monoidal_category():
    m = doubled_cyc(2)
    assert check_monoidal(m) == []
    base = m.base
    assert all(base.src(a) != base.dst(a) for a in m.assoc.values())
    assert base.src(m.l("a")) != "a" and base.src(m.r("a")) != "a"


BASES = {
    "bool": build_bool, "trop(3)": lambda: build_trop(3), "trop(4)": lambda: build_trop(4),
    "cyc(2)": lambda: build_cyc(2), "cyc(3)": lambda: build_cyc(3),
    "cyc(4)": lambda: build_cyc(4), "doubled-cyc(2)": lambda: doubled_cyc(2),
}

# Every mutant costs two sweeps, and a full sweep of trop(4) or of the doubled
# copy takes milliseconds, so by default only every STRIDE-th mutant of the
# larger bases (in enumeration order) is compared; ``-m slow`` compares all of
# them.  Each entry gives |mor| mutants in a row, one deletion and |mor| - 1
# swaps; a stride prime to |mor| (6, 10 and 8 here) visits every position.
STRIDE = {"trop(3)": 5, "trop(4)": 31, "doubled-cyc(2)": 7}


def agree(name: str, stride: int) -> None:
    for where, mutant in list(mutants(BASES[name]()))[::stride]:
        assert outcome(mutant) == full_outcome(mutant), where


@pytest.mark.parametrize("name", list(BASES))
def test_gates_agree_with_the_full_sweep(name):
    agree(name, STRIDE.get(name, 1))


@pytest.mark.slow
@pytest.mark.parametrize("name", list(STRIDE))
def test_gates_agree_with_the_full_sweep_on_every_mutant(name):
    agree(name, 1)


def localized_sweeps_agree(stride) -> None:
    """Every ``tensor_mor`` swap of every base is rebuilt, on an axis entry
    by repairing one, and on the swaps at every ``stride(name)``-th mutant
    the covers of the defects must find exactly the full sweep's reports.
    In a group the repair need not restore the swapped entry: in cyc(2),
    T(0, 1) = 0 makes 0 (x) - constant, and the projection R(f, g) = f
    rebuilds the table with B = {(1, 1)}."""
    swaps = axis = 0
    for name, build in BASES.items():
        step = stride(name)
        for i, ((field, key, other), mutant) in enumerate(mutants(build())):
            if field != "tensor_mor" or other is None:
                continue
            swaps += 1
            axis += any(map(mutant.base.is_identity, key))
            assert mutant._tensor is not None, (name, key, other)
            if i % step == 0:
                assert outcome(mutant) == full_outcome(mutant), (name, key, other)
    assert (swaps, axis) == (1616, 957)
    m = build_cyc(2)
    mutant = dataclasses.replace(m, tensor_mor={**m.tensor_mor, ("0", "1"): "0"})
    assert mutant._tensor.defects == {("1", "1")}


def test_localized_sweeps_agree_on_every_tensor_swap():
    localized_sweeps_agree(lambda name: STRIDE.get(name, 1))


@pytest.mark.slow
def test_localized_sweeps_agree_on_every_tensor_swap_exhaustively():
    localized_sweeps_agree(lambda name: 1)


def test_a_tensor_whose_axes_do_not_commute_is_judged_on_every_site():
    """The left-zero monoid {e, a, b} (x then y is x unless x is e),
    tensored by its own product: both axes are identity functors, but
    a (x) e then e (x) b is a while e (x) b then a (x) e is b, and no
    change of a (x) e or of e (x) b makes them commute, so no bifunctor
    rebuilds it."""
    mors = ("a", "b", "e")
    comp = {(f, g): g if f == "e" else f for f in mors for g in mors}
    base = FinCategory(("*",), tuple((f, "*", "*") for f in mors), {"*": "e"}, comp)
    m = MonoidalData(base=base, tensor_obj={("*", "*"): "*"}, tensor_mor=comp, unit="*",
                     assoc={("*", "*", "*"): "e"}, lunit={"*": "e"}, runit={"*": "e"})
    assert m._tensor is None
    got = check_monoidal(m)
    assert any(r.law == "tensor.interchange" for r in got) and got == full_outcome(m)


def covers(monkeypatch, mutant: MonoidalData, count: int):
    """Run ``check_monoidal`` on ``mutant``, expecting ``count`` reports equal
    to the full sweep's; return the one site family judged per localized law,
    each asserted free of repeats."""
    seen = spy(monkeypatch)
    got = check_monoidal(mutant)
    monkeypatch.undo()
    assert got == full_outcome(mutant) and len(got) == count
    judged = {}
    for law in ("tensor.interchange", "assoc.natural"):
        [judged[law]] = seen[law]
        assert len(judged[law]) == len(set(judged[law])), law
    return judged


def reads(mutant: MonoidalData, key):
    """The sites of the two localized laws that read T at ``key``."""
    base, t = mutant.base, mutant.tensor_mor
    interchange = {(f, f2, g, g2) for (f, g), h in base.comp.items()
                   for (f2, g2), h2 in base.comp.items()
                   if key in ((h, h2), (f, f2), (g, g2))}
    assoc = {(f, g, h) for f, g, h in product(base.mor_ids(), repeat=3)
             if key in ((f, g), (t[(f, g)], h), (g, h), (f, t[(g, h)]))}
    return interchange, assoc


def test_an_off_axis_mutant_is_judged_on_its_cover_only(monkeypatch):
    m = build_trop(8)
    key = ("m:5:4", "m:5:2")
    mutant = dataclasses.replace(m, tensor_mor={**m.tensor_mor, key: "m:4:2"})
    assert mutant._tensor.defects == {key}
    judged = covers(monkeypatch, mutant, 110)
    interchange, assoc = reads(mutant, key)
    assert len(judged["tensor.interchange"]) == 30
    assert set(judged["tensor.interchange"]) == interchange
    assert len(judged["assoc.natural"]) == 91 and set(judged["assoc.natural"]) == assoc


def test_an_axis_mutant_is_repaired_and_judged_on_its_cover_only(monkeypatch):
    """T(m:5:4, 1_2) is swapped for a morphism of another shape: the axis
    breaks the shape premise, and the lawful entry, the only morphism of its
    shape in the poset, repairs it."""
    m = build_trop(8)
    key = ("m:5:4", "id:2")
    mutant = dataclasses.replace(m, tensor_mor={**m.tensor_mor, key: "m:4:2"})
    rebuilt, defects = mutant._tensor.rebuilt, mutant._tensor.defects
    assert defects == {key} and rebuilt[key] == m.tensor_mor[key]
    assert rebuilt == m.tensor_mor
    judged = covers(monkeypatch, mutant, 104)
    interchange, assoc = reads(mutant, key)
    assert set(judged["tensor.interchange"]) == interchange
    assert set(judged["assoc.natural"]) == assoc
