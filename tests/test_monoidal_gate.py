"""The separate-variable gates of ``check_monoidal`` against the full sweep.

``check_monoidal`` may decide ``tensor.interchange`` and ``assoc.natural``
from their gates; with ``gate=None`` it judges every site.  On every
single-entry swap (the value replaced by each other morphism of the base) and
deletion of ``tensor_mor``, ``assoc``, ``lunit`` and ``runit``, both must give
the same reports, or raise the same error with the same message.  Tier-1
compares a fixed stride of the mutants of the larger bases (see ``STRIDE``),
``-m slow`` every mutant.
"""

import dataclasses
from itertools import product

import pytest

import encat.monoidal as mon
from encat.core import EncatError, FinCategory
from encat.instances import build_bool, build_cyc, build_trop
from encat.monoidal import MonoidalData, check_monoidal

TABLES = ("tensor_mor", "assoc", "lunit", "runit")


def doubled_cyc(n: int) -> MonoidalData:
    """cyc(n) transported to a category with two isomorphic copies, a and b,
    of its object: hom(p, q) holds one morphism ``pqi`` per i mod n, and
    composites add.  The tensor of p and q is the other copy of p, so each
    associator a(x, y, z) goes from x to the other copy of x, as do the
    unitors at a."""
    objs = ("a", "b")
    other = {"a": "b", "b": "a"}

    def mor(p, q, i):
        return f"{p}{q}{i % n}"

    def label(f):
        return int(f[2:])

    morphisms = tuple(sorted((mor(p, q, i), p, q)
                             for p, q in product(objs, repeat=2) for i in range(n)))
    comp = {(mor(p, q, i), mor(q, r, j)): mor(p, r, i + j)
            for p, q, r in product(objs, repeat=3) for i in range(n) for j in range(n)}
    base = FinCategory(objs, morphisms, {p: mor(p, p, 0) for p in objs}, comp)
    tobj = {(p, q): other[p] for p, q in product(objs, repeat=2)}
    tmor = {(f, g): mor(tobj[(s, s2)], tobj[(d, d2)], label(f) + label(g))
            for (f, s, d), (g, s2, d2) in product(morphisms, repeat=2)}
    return MonoidalData(
        base=base, tensor_obj=tobj, tensor_mor=tmor, unit="a",
        assoc={(x, y, z): mor(tobj[(tobj[(x, y)], z)], tobj[(x, tobj[(y, z)])], 0)
               for x, y, z in product(objs, repeat=3)},
        lunit={x: mor(tobj[("a", x)], x, 0) for x in objs},
        runit={x: mor(tobj[(x, "a")], x, 0) for x in objs})


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


def agree(name: str, stride: int, monkeypatch) -> None:
    cases = list(mutants(BASES[name]()))[::stride]
    gated = [outcome(mutant) for _, mutant in cases]
    monkeypatch.setattr(mon, "MONOIDAL_LAWS", tuple(
        dataclasses.replace(law, gate=None) for law in mon.MONOIDAL_LAWS))
    for (where, mutant), got in zip(cases, gated):
        assert got == outcome(mutant), where


@pytest.mark.parametrize("name", list(BASES))
def test_gates_agree_with_the_full_sweep(name, monkeypatch):
    agree(name, STRIDE.get(name, 1), monkeypatch)


@pytest.mark.slow
@pytest.mark.parametrize("name", list(STRIDE))
def test_gates_agree_with_the_full_sweep_on_every_mutant(name, monkeypatch):
    agree(name, 1, monkeypatch)
