"""The localized monoidal sweeps of ``check_monoidal`` against the full sweep.

``check_monoidal`` rebuilds the tensor from its axes, repairing one axis
entry if it must, and judges ``tensor.interchange`` and ``assoc.natural``
only on the sites that read an entry where the table and the rebuild differ
(once the associator is natural in each variable alone for the rebuild);
gate-free (``harness.gate_free``) it judges every site.  On every
single-entry swap (the value replaced by each other morphism of the base)
and deletion of ``tensor_mor``, ``assoc``, ``lunit`` and ``runit``, both
must give the same reports, or raise the same error with the same message.  Tier-1 compares a
fixed stride of the mutants of the larger bases (see ``STRIDE``), also among
the ``tensor_mor`` swaps, every one of which it rebuilds; ``-m slow``
compares every mutant.

On the non-thin cyc(2), cyc(3) and cyc(4), ``check_v`` decides
``symmetry.natural`` on generators once the "monoidal" and "symmetry"
records are clean; it must give the outcomes of a run with every gate of
``MONOIDAL_LAWS`` and ``SYMMETRY_LAWS`` stripped, on every swap of
``tensor_mor``, ``assoc`` and the unitors and every deletion and swap of the
braiding, and on every deletion and swap of the braiding of a braided
doubled_cyc(2) (a stride in tier-1, all under ``-m slow``).

On a thin base the axiom laws of ``check_monoidal``, ``check_symmetry`` and
``check_closed`` are decided by their shape verdicts (the thin cover).  The
three checkers, run in ``encat check`` order, must give the same outcomes as
with every gate stripped, on every swap and deletion of the braiding, the
evaluations and the premise tables ``tensor_mor`` and ``assoc`` of bool,
trop(3) and trop(4) (a stride of the larger two in tier-1, all under
``-m slow``).  Misshapen tensor or associator entries alone send the laws
that read them to the sites that read one, checked against a scan of every
site.
"""

import dataclasses
from itertools import product

import pytest

import encat.monoidal as mon
from encat.core import FinCategory
from encat.instances import build_bool, build_cyc, build_trop
from encat.monoidal import MonoidalData, SymmetryData, check_monoidal, check_v
from harness import agree, by_law, gate_free, mutated, outcome, reference, spied
from nonstrict import doubled_cyc

PATHS = {"tensor_mor": ("tensor_mor",), "assoc": ("assoc",), "lunit": ("lunit",),
         "runit": ("runit",), "braid": ("symmetry", "braid"), "ev": ("closed", "ev")}


def mutants(m: MonoidalData, fields=("tensor_mor", "assoc", "lunit", "runit")):
    """Every single-entry swap and deletion of the tables ``fields``, by
    default the structure tables."""
    return mutated(m, {field: PATHS[field] for field in fields}, m.base.mor_ids())


def full_outcome(m: MonoidalData):
    """The reference: ``check_monoidal`` gate-free, asserted to have judged
    every site of every law once.  It judges a copy of ``m``, on which no
    verdict is on record."""
    m = dataclasses.replace(m)
    with gate_free():
        got, seen = spied(outcome, check_monoidal, m)
    if isinstance(got, list):
        for law in mon.MONOIDAL_LAWS:
            assert by_law(seen)[law.name] == [list(law.sites(m, m.base))], law.name
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


@pytest.mark.parametrize("name", list(BASES))
def test_gates_agree_with_the_full_sweep(name):
    agree(lambda: mutants(BASES[name]()), check_monoidal, STRIDE.get(name, 1), full_outcome)


@pytest.mark.slow
@pytest.mark.parametrize("name", list(STRIDE))
def test_gates_agree_with_the_full_sweep_on_every_mutant(name):
    agree(lambda: mutants(BASES[name]()), check_monoidal, 1, full_outcome)


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
                assert outcome(check_monoidal, mutant) == full_outcome(mutant), (name, key, other)
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


def covers(mutant: MonoidalData, count: int):
    """Run ``check_monoidal`` on ``mutant``, expecting ``count`` reports equal
    to the full sweep's; return the one site family judged per localized law,
    each asserted free of repeats."""
    got, seen = spied(check_monoidal, mutant)
    assert got == full_outcome(mutant) and len(got) == count
    judged, seen = {}, by_law(seen)
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


def test_an_off_axis_mutant_is_judged_on_its_cover_only():
    m = build_trop(8)
    key = ("m:5:4", "m:5:2")
    mutant = dataclasses.replace(m, tensor_mor={**m.tensor_mor, key: "m:4:2"})
    assert mutant._tensor.defects == {key}
    judged = covers(mutant, 110)
    interchange, assoc = reads(mutant, key)
    assert len(judged["tensor.interchange"]) == 30
    assert set(judged["tensor.interchange"]) == interchange
    assert len(judged["assoc.natural"]) == 91 and set(judged["assoc.natural"]) == assoc


def test_an_axis_mutant_is_repaired_and_judged_on_its_cover_only():
    """T(m:5:4, 1_2) is swapped for a morphism of another shape: the axis
    breaks the shape premise, and the lawful entry, the only morphism of its
    shape in the poset, repairs it."""
    m = build_trop(8)
    key = ("m:5:4", "id:2")
    mutant = dataclasses.replace(m, tensor_mor={**m.tensor_mor, key: "m:4:2"})
    rebuilt, defects = mutant._tensor.rebuilt, mutant._tensor.defects
    assert defects == {key} and rebuilt[key] == m.tensor_mor[key]
    assert rebuilt == m.tensor_mor
    judged = covers(mutant, 104)
    interchange, assoc = reads(mutant, key)
    assert set(judged["tensor.interchange"]) == interchange
    assert set(judged["assoc.natural"]) == assoc


# The thin cover decides the axiom laws of the monoidal and symmetry checkers
# on a thin base once the shape loops they read are clean; the reference
# strips every gate.
THIN_GATED = ("MONOIDAL_LAWS", "SYMMETRY_LAWS")
# the tables the monoidal premise reads, the braiding and the evaluations
THIN_TABLES = ("tensor_mor", "assoc", "braid", "ev")


def checks_outcome(m: MonoidalData):
    """``check_monoidal``, ``check_symmetry`` and ``check_closed`` on ``m``,
    in the order ``encat check`` runs them, each whatever the one before
    it gives."""
    return [outcome(check, m) for check in (check_monoidal, mon.check_symmetry, mon.check_closed)]


def full_checks_outcome(m: MonoidalData):
    """The reference: ``checks_outcome`` on a fresh copy of ``m`` gate-free,
    asserted to have judged every site of each law of both checkers it
    reached (a law that raises stops its checker)."""
    m = dataclasses.replace(m)
    laws = [law for name in THIN_GATED for law in getattr(mon, name)]
    with gate_free():
        got, seen = spied(checks_outcome, m)
    seen = by_law(seen)
    for name in {law.name for law in laws}:
        full = [list(law.sites(m, m.base)) for law in laws if law.name == name]
        assert seen.get(name, []) == full[:len(seen.get(name, []))], name
    return got


THIN_BASES = {"bool": build_bool, "trop(3)": lambda: build_trop(3),
              "trop(4)": lambda: build_trop(4)}
THIN_STRIDE = {"trop(3)": 11, "trop(4)": 61}


def thin_agree(name: str, stride: int) -> None:
    agree(lambda: mutants(THIN_BASES[name](), THIN_TABLES), checks_outcome, stride,
          full_checks_outcome)


@pytest.mark.parametrize("name", list(THIN_BASES))
def test_thin_covers_agree_with_the_full_sweep(name):
    thin_agree(name, THIN_STRIDE.get(name, 1))


@pytest.mark.slow
@pytest.mark.parametrize("name", list(THIN_STRIDE))
def test_thin_covers_agree_with_the_full_sweep_on_every_mutant(name):
    thin_agree(name, 1)


def tensor_reads(m: MonoidalData) -> dict:
    """The tensor entries read at a site, by the name of each law that reads
    T only at identities and structure maps, written out from its sides."""
    i, a = m.base.id_, m.assoc
    return {"tensor.identity": lambda x, y: [(i(x), i(y))],
            "lunit.natural": lambda f: [(i(m.unit), f)],
            "runit.natural": lambda f: [(f, i(m.unit))],
            "pentagon": lambda w, x, y, z: [(a[(w, x, y)], i(z)), (i(w), a[(x, y, z)])],
            "triangle": lambda x, y: [(i(x), m.lunit[y]), (m.runit[x], i(y))]}


def test_a_thin_base_judges_no_lawful_site_and_a_bad_tensor_entry_where_read():
    """On the lawful trop(4) the thin cover leaves no ``pentagon`` or
    ``symmetry.*`` site to judge, and no tensor rebuild is built.  A tensor entry of the wrong shape leaves
    ``tensor.shape`` the only shape report, and the laws of ``tensor_reads``
    are judged only at the sites a scan of every site finds reading it:
    ``pentagon`` reads T(m:2:1, 1_0) nowhere, and T(1_1, 1_0) at the three
    sites where a(w, x, y) = 1_1 and z = 0, one of which also has w = 1 and
    a(x, y, z) = 1_0."""
    m = build_trop(4)
    got, seen = spied(checks_outcome, m)
    assert got == [[], [], []]
    seen = by_law(seen)
    assert seen["pentagon"] == [[]]
    assert all(seen[law.name] == [[]] for law in mon.SYMMETRY_LAWS)
    assert "_tensor" not in m.__dict__
    laws = {law.name: law for law in mon.MONOIDAL_LAWS}
    for key, pentagon in ((("m:2:1", "id:0"), 0), (("id:1", "id:0"), 3)):
        assert m.base.src(m.tensor_mor[key]) != m.base.src("m:3:0")
        mutant = dataclasses.replace(m, tensor_mor={**m.tensor_mor, key: "m:3:0"})
        got, seen = spied(checks_outcome, mutant)
        seen = by_law(seen)
        assert got == full_checks_outcome(mutant) and got[0]
        assert {r.law for r in got[0] if r.law.endswith(".shape")} == {"tensor.shape"}
        for name, reads in tensor_reads(mutant).items():
            [judged] = seen[name]
            scan = {site for site in laws[name].sites(mutant, m.base) if key in reads(*site)}
            assert len(judged) == len(set(judged)) and set(judged) == scan, (key, name)
        assert len(seen["pentagon"][0]) == pentagon


def test_an_undeclared_unit_is_judged_on_every_site():
    """A unit that is not an object of the base, with tensor entries that
    make every unitor well shaped, leaves the shape loops clean; the unit
    laws still read its identity, so the thin cover does not apply."""
    m = build_bool()
    objs = m.base.objects
    mutant = dataclasses.replace(m, unit="u", tensor_obj={
        **m.tensor_obj, **{(x, "u"): x for x in objs}, **{("u", x): x for x in objs}})
    got = checks_outcome(mutant)
    assert got == full_checks_outcome(mutant)
    assert {r.law for r in got[0]} >= {"lunit.natural", "runit.natural"}


def test_a_misshapen_associator_entry_is_judged_at_its_squares_only():
    """One associator entry of trop(4) swapped for a morphism of another
    shape leaves ``assoc.shape`` the only shape report.  ``assoc.natural``
    is then judged only at the sites whose square reads that component, at
    (src f, src g, src h) or (dst f, dst g, dst h): out of 1, 2 and 0 run
    2 * 3 * 1 morphisms, into them 3 * 2 * 4, and the identities do both,
    so 29 of the 1,000 sites.  ``pentagon`` and ``triangle`` keep every site."""
    m = build_trop(4)
    base, key = m.base, ("1", "2", "0")
    mutant = dataclasses.replace(m, assoc={**m.assoc, key: "m:3:2"})
    got, seen = spied(check_monoidal, mutant)
    seen = by_law(seen)
    assert got == full_outcome(mutant)
    assert {r.law for r in got if r.law.endswith(".shape")} == {"assoc.shape"}
    [judged] = seen["assoc.natural"]
    ends = lambda end, site: tuple(map(end, site))
    assert len(judged) == len(set(judged)) == 29
    assert set(judged) == {site for site in product(base.mor_ids(), repeat=3)
                           if key in (ends(base.src, site), ends(base.dst, site))}
    assert seen["pentagon"] == [list(product(base.objects, repeat=4))]
    assert seen["triangle"] == [list(product(base.objects, repeat=2))]


def braided_doubled_cyc() -> MonoidalData:
    """doubled_cyc(2), braided by its label-0 morphisms: symmetric."""
    m = doubled_cyc(2)
    return dataclasses.replace(m, symmetry=SymmetryData({
        (p, q): f"{m.tobj(p, q)}{m.tobj(q, p)}0" for p, q in product(m.base.objects, repeat=2)}))


def v_mutants():
    """Every swap of the monoidal tables and every deletion and swap of the
    braiding of cyc(2), cyc(3) and cyc(4), then every deletion and swap of
    the braiding of the braided doubled_cyc(2).  In an abelian cyc every
    constant braiding is natural, so only the four same-shape braiding swaps
    of the doubled copy keep the premise of ``symmetry.natural`` and break
    the law."""
    for name in ("cyc(2)", "cyc(3)", "cyc(4)"):
        m = BASES[name]()
        yield from (((name, where), mutant) for where, mutant in mutants(m) if where[2] is not None)
        yield from (((name, where), mutant) for where, mutant in mutants(m, ("braid",)))
    yield from ((("doubled-cyc(2)", where), mutant)
                for where, mutant in mutants(braided_doubled_cyc(), ("braid",)))


def v_agree(stride: int) -> None:
    assert len(list(v_mutants())) == 97 + 32
    agree(v_mutants, check_v, stride)


def test_check_v_agrees_with_the_gate_free_laws_on_non_thin_bases():
    v_agree(4)


@pytest.mark.slow
def test_check_v_agrees_with_the_gate_free_laws_on_every_non_thin_mutant():
    v_agree(1)


def test_symmetry_natural_is_decided_on_generators():
    """The lawful cyc(12) judges none of its 144 ``symmetry.natural`` sites,
    and neither does a braiding of cyc(4) swapped for another rotation: in
    an abelian group every constant braiding is natural.  The premise is
    read off verdicts on record only: ``check_symmetry`` alone, with no
    "monoidal" verdict, judges all 16 sites of that swap.  The braided
    doubled_cyc(2) with its braiding at (a, b) set to the other morphism of
    that shape leaves the "monoidal" and "symmetry" records clean, so
    naturality is decided on generators, found to fail, and every site is
    judged, as without a gate."""
    swap = dataclasses.replace(build_cyc(4), symmetry=SymmetryData({("*", "*"): "1"}))
    for m in (build_cyc(12), swap):
        _, seen = spied(outcome, check_v, m)
        assert by_law(seen)["symmetry.natural"] == [[]] and mon.clean(m, "monoidal", "symmetry")
    _, seen = spied(mon.check_symmetry, dataclasses.replace(swap))
    assert list(map(len, by_law(seen)["symmetry.natural"])) == [16]
    m = braided_doubled_cyc()
    mutant = dataclasses.replace(m, symmetry=SymmetryData({**m.symmetry.braid, ("a", "b"): "ba1"}))
    for m, judged in ((m, 0), (mutant, 64)):
        got, seen = spied(outcome, check_v, m)
        assert got == reference(check_v, dataclasses.replace(m))
        assert mon.clean(m, "monoidal", "symmetry")
        assert list(map(len, by_law(seen)["symmetry.natural"])) == [judged]
    assert "symmetry.natural" in {r.law for r in got}
