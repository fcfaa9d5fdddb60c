"""The module-side gates against the full sweep.

``check_vmodule`` judges ``module.assoc-natural`` on the cover of
``core.trinatural_cover``: the sites that read a defect of V's tensor or of
the action, once the associator is natural for their rebuilds in each
variable alone, decided on generators.  Ahead of that, on a thin category,
where every diagram commutes, the thin cover decides ``MODULE_LAWS``,
``ADJUNCTION_LAWS``, ``BIMODULE_LAWS`` and the functor laws of
``core.FUNCTOR_LAWS``, and the derived ``EVALUATION_SQUARE`` and
``DERIVED_MODULE_LAWS``, once the tables they read are well shaped (the
verdicts kept once found: V's shape loops, the action, hom functor and
cotensor verdicts, the ``module.shape`` loop, the phi and psi bijection
reports, and before ``BIMODULE_LAWS`` every earlier report); when the only
faults are misshapen module or comodule associator and unitor entries, or
misshapen action or cotensor entries, ``core.read_cover`` judges the sites
that read one instead.  The reference, ``harness.gate_free``, judges every
site of every law.

On every single-entry swap (the value replaced by each other morphism of
its category, or for a functor's object table each other object) and
deletion of every table a premise reads,
``check_closed_bimodule`` (``check_vmodule`` on the regular module of
``doubled_cyc(2)``, ``check_vstructure`` on the self structure of trop(3))
must give the same reports both ways, or raise the same error with the same
message.  self(cyc(3)) and the doubled copy are not thin, and there no thin
cover applies.  Tier-1 compares a fixed stride of the mutants (see
``STRIDE``); ``-m slow`` compares every mutant.  The sites at which
``module.assoc`` and ``module.unit`` read a misshapen key, which their
readers find through table fibres, are compared with a scan of every
site's read set.
"""

import dataclasses
from itertools import product

import pytest

import encat.core as core
import encat.vmodule as vmod
from encat.core import FinCategory, generators, opposite_category, pair_id, product_category
from encat.equiv import bimodule_completion
from encat.instances import build_bool, build_cyc, build_poset_module, build_trop, module_self
from encat.interface import Document, parse, serialize
from encat.monoidal import check_v
from encat.vmodule import (check_closed_bimodule, check_closed_module, check_tensor_closed,
                           check_vmodule)
from encat.vstruct import check_vstructure
from harness import agree, by_law, entries, gate_free, outcome, read, replaced, spied, spy
from nonstrict import doubled_cyc, regular_module
from tests.enriched_reference import self_vstructure

LAW = "module.assoc-natural"

# Each instance as (document kind, structure); CHECKS gives its checker.
INSTANCES = {
    "poset-diamond": lambda: ("bimodule", bimodule_completion(build_poset_module())),
    "self(bool)": lambda: ("bimodule", bimodule_completion(module_self(build_bool()))),
    "self(cyc(3))": lambda: ("bimodule", bimodule_completion(module_self(build_cyc(3)))),
    "self(trop(3))": lambda: ("bimodule", bimodule_completion(module_self(build_trop(3)))),
    "regular(doubled-cyc(2))": lambda: ("vmodule", regular_module(doubled_cyc(2))),
    "self-vstructure(trop(3))": lambda: ("vstructure", self_vstructure(build_trop(3))),
}
NOT_THIN = ("self(cyc(3))", "regular(doubled-cyc(2))")
CHECKS = {"bimodule": check_closed_bimodule, "vmodule": check_vmodule,
          "vstructure": check_vstructure}

# The tables mutated, as attribute paths from the checked structure, each
# with the path of the category its values range over.
V, S = ("baseV",), ("baseS",)
VMODULE_TABLES = (
    (V + ("tensor_mor",), V + ("base",)),
    (V + ("assoc",), V + ("base",)),
    (V + ("lunit",), V + ("base",)),
    (V + ("runit",), V + ("base",)),
    (V + ("base", "comp"), V + ("base",)),
    (S + ("comp",), S),
    (("action", "onMorphisms"), ("action", "dstCat")),
    (("action", "onObjects"), ("action", "dstCat")),
    (("assoc",), S),
)
MODULE = ("closedModule", "tensorClosed", "module")
TC, CM = ("closedModule", "tensorClosed"), ("closedModule",)
BIMODULE_TABLES = tuple((MODULE + path, MODULE + values) for path, values in VMODULE_TABLES) + (
    (MODULE + V + ("symmetry", "braid"), MODULE + V + ("base",)),
    (MODULE + V + ("closed", "ev"), MODULE + V + ("base",)),
    (TC + ("homFunctor", "onMorphisms"), TC + ("homFunctor", "dstCat")),
    (TC + ("phi",), MODULE + V + ("base",)),
    (CM + ("psi",), MODULE + V + ("base",)),
    (CM + ("cotensor", "onMorphisms"), CM + ("cotensor", "dstCat")),
    (CM + ("cotensor", "onObjects"), CM + ("cotensor", "dstCat")),
    (("comodAssoc",), MODULE + S),
    (("comodLunit",), MODULE + S),
)
VSTRUCTURE_TABLES = (
    (("homFunctor", "onMorphisms"), ("homFunctor", "dstCat")),
    (S + ("comp",), S),
)
TABLES = {"bimodule": BIMODULE_TABLES, "vmodule": VMODULE_TABLES, "vstructure": VSTRUCTURE_TABLES}


def mutants(kind, data, tables=None):
    """(where, a function building it) for every mutant of the document
    ``data`` of ``kind`` in ``tables`` (by default all of ``TABLES``).  A
    mutated composition table is read back through the codec, as ``encat
    check`` reads a document, so that every functor out of the category (the
    action's, hom functor's and cotensor's sources) sees it.  A functor's
    object table takes the objects of its target, every other table the
    morphisms."""
    for path, values in tables or TABLES[kind]:
        cat = read(data, values)
        choices = cat.objects if path[-1] == "onObjects" else cat.mor_ids()
        for where, table in entries(read(data, path), choices):
            yield (path[-1], *where), lambda path=path, table=table: reread(
                kind, replaced(data, path, table), path[-1] == "comp")


def reread(kind, data, codec: bool):
    return parse(serialize(Document(kind, data))).data if codec else data


def sweeps(check, data) -> int:
    """The ``module.assoc-natural`` sweeps ``check`` makes on ``data``: none
    where V fails ``check_v``, since then V's reports are all the checker
    returns, else one per module side read past an object table that misses
    no entry (the action's, then for a bimodule's reversed side the
    cotensor's too)."""
    if check is check_vstructure:
        return 0
    prefix = {check_vmodule: (), check_tensor_closed: ("module",),
              check_closed_module: ("tensorClosed", "module")}.get(check, MODULE)
    if check_v(read(data, prefix + V)) or vmod._objects_partial(read(data, prefix + ("action",))):
        return 0
    return 1 + (check is check_closed_bimodule
                and not vmod._objects_partial(read(data, CM + ("cotensor",))))


def full_outcome(check, data):
    """The reference: ``check`` gate-free, asserted to have judged every
    site of each module's ``module.assoc-natural`` once where it is judged
    (``sweeps``)."""
    with gate_free():
        got, seen = spied(outcome, check, data)
    if isinstance(got, list):
        seen = [(on, sites) for law, on, sites in seen if law.name == LAW]
        assert len(seen) == sweeps(check, data)
        law = vmod.MODULE_LAWS[0]
        for judged_on, sites in seen:
            assert sites == list(law.sites(*judged_on))
    return got


def thin_covers(mp) -> list:
    """Record every cover ``core.read_cover`` gives."""
    seen = []
    read_cover = core.read_cover

    def recording(cat, misshapen, readers):
        seen.append(read_cover(cat, misshapen, readers))
        return seen[-1]

    mp.setattr(core, "read_cover", recording)
    return seen


# Every mutant costs two checks, so by default only every STRIDE-th mutant
# (in enumeration order) is compared; ``-m slow`` compares all of them.  Each
# entry gives |mor| mutants in a row, one deletion and a swap per other
# morphism of its category (3 or 9 in the diamond, 3 in bool and cyc(3), 6 in
# trop(3), 8 in the doubled copy), or |obj| for an object table (2, 3 or 4;
# 1 in cyc(3)); a stride prime to those visits every position.
STRIDE = {"poset-diamond": 23, "self(bool)": 7, "self(cyc(3))": 7, "self(trop(3))": 41,
          "regular(doubled-cyc(2))": 23, "self-vstructure(trop(3))": 7}


def module_agree(name: str, stride: int, tables=None) -> None:
    kind, data = INSTANCES[name]()
    check = CHECKS[kind]
    with pytest.MonkeyPatch.context() as mp:
        covers = thin_covers(mp)
        assert check(data) == []
        agree(lambda: mutants(*INSTANCES[name](), tables), lambda mutant: check(mutant()),
              stride, lambda mutant: full_outcome(check, mutant()))
    assert (() in covers) == (name not in NOT_THIN)


@pytest.mark.parametrize("name", list(INSTANCES))
def test_the_module_cover_agrees_with_the_full_sweep(name):
    module_agree(name, STRIDE[name])


@pytest.mark.slow
@pytest.mark.parametrize("name", list(STRIDE))
def test_the_module_cover_agrees_with_the_full_sweep_on_every_mutant(name):
    module_agree(name, 1)


# The module's and the comodule's associator and unitor tables, whose
# misshapen entries the read covers localize; tier-1 compares every
# STRUCTURE_STRIDE-th of their mutants, a stride prime to each run of |mor|.
STRUCTURE_TABLES = tuple((path, MODULE + S) for path in (
    MODULE + ("assoc",), MODULE + ("lunit",), ("comodAssoc",), ("comodLunit",)))
STRUCTURE_STRIDE = {"self(trop(3))": 11, "poset-diamond": 13}


@pytest.mark.parametrize("name", list(STRUCTURE_STRIDE))
def test_the_structure_covers_agree_with_the_full_sweep(name):
    module_agree(name, STRUCTURE_STRIDE[name], STRUCTURE_TABLES)


@pytest.mark.slow
@pytest.mark.parametrize("name", list(STRUCTURE_STRIDE))
def test_the_structure_covers_agree_with_the_full_sweep_on_every_mutant(name):
    module_agree(name, 1, STRUCTURE_TABLES)


def test_a_lawful_module_is_judged_on_generators_only(monkeypatch):
    """self(cyc(12)), which is not thin, so no thin cover decides it: each
    side decides ``module.assoc-natural`` on the rebuilds at its identity site
    and a generator site in each of the three variables, of its 12^3 sites,
    and judges none; V's own ``assoc.natural``, judged first, decides the same
    sites.  ``symmetry.natural`` (in two variables), ``module.lunit-natural``
    and the three ``moduleclosed.naturality`` sweeps of each side are decided
    at the generator, the rotation, of each variable, and judge none;
    ``lunit.natural`` and ``runit.natural`` keep their sweeps."""
    bm = bimodule_completion(module_self(build_cyc(12)))
    gate_sites = []
    separate = core.separate_variable_sites

    def counting(*cats):
        sites = list(separate(*cats))
        gate_sites.append(len(sites))
        return sites

    monkeypatch.setattr(core, "separate_variable_sites", counting)
    seen = spy(monkeypatch)
    assert check_closed_bimodule(bm) == []
    # assoc.natural, symmetry.natural, then per side module.assoc-natural,
    # module.lunit-natural and the three moduleclosed.naturality sweeps
    assert gate_sites == [3, 2, 3, 1, 1, 1, 1, 1, 1, 1, 3, 1]
    assoc = [(data, sites) for law, data, sites in seen if law.name == LAW]
    assert [sites for _, sites in assoc] == [[], []]
    assert [len(list(vmod.MODULE_LAWS[0].sites(*data))) for data, _ in assoc] == [12 ** 3] * 2
    counts = {name: list(map(len, sites)) for name, sites in by_law(seen).items()
              if "natural" in name}
    assert counts == {"assoc.natural": [0], "lunit.natural": [12], "runit.natural": [12],
                      "symmetry.natural": [0], "module.assoc-natural": [0, 0],
                      "module.lunit-natural": [0, 0], "moduleclosed.naturality": [0] * 6}


def unnatural_cases():
    """(checker, law, a function building the mutant, how many sites each of
    its sweeps judges): the module unitor of regular(doubled-cyc(2)) at a set
    to the other morphism of its shape, and two values of the phi and of the
    psi row of self(cyc(3)) exchanged.  Each leaves every record the law's
    generator gate reads clean, and the law unnatural on its side alone."""
    def unitor():
        mod = regular_module(doubled_cyc(2))
        return replaced(mod, ("lunit",), {**mod.lunit, "a": "ba1"})

    def exchanged(path):
        cm = module_self(build_cyc(3))
        key, row = next(iter(read(cm, path).items()))
        return replaced(cm, path, {key: {**row, "1": row["2"], "2": row["1"]}})
    yield check_vmodule, "module.lunit-natural", unitor, [8]
    yield check_closed_module, "moduleclosed.naturality", lambda: exchanged(
        ("tensorClosed", "phi")), [9, 9, 9, 0, 0, 0]
    yield check_closed_module, "moduleclosed.naturality", lambda: exchanged(("psi",)), [0, 0, 0, 9, 9, 9]


@pytest.mark.parametrize("case", range(3))
def test_an_unnatural_table_with_clean_records_is_judged_on_every_site(case):
    """Its generator gate finds the law unnatural, so each sweep on the
    mutated side judges every site, with the reports of the gate-free laws;
    the other side is decided on generators and judges none."""
    check, name, build, counts = list(unnatural_cases())[case]
    got, seen = spied(check, build())
    assert got == full_outcome(check, build()) and name in {r.law for r in got}
    sweeps = [(law, data, sites) for law, data, sites in seen if law.name == name]
    assert [len(sites) for _, _, sites in sweeps] == counts
    assert all(sites in ([], list(law.sites(*data))) for law, data, sites in sweeps)


FUNCTOR_TAGS = ("module.functor", "moduleclosed.functor", "moduleclosed.cotensor")


def test_a_lawful_thin_bimodule_judges_no_gated_site():
    """self(trop(4)): no site of a gated law is judged, on either side, and
    no action is rebuilt; nor is any site of the derived module evaluation
    square and unit-absorption triangle, which used to sweep all of theirs
    (80 and 32 here; ``tests/test_derived.py`` holds them gate-free)."""
    bm = bimodule_completion(module_self(build_trop(4)))
    got, seen = spied(check_closed_bimodule, bm)
    assert got == []
    seen = by_law(seen)
    gated = {law.name for law in vmod.MODULE_LAWS + vmod.ADJUNCTION_LAWS + vmod.BIMODULE_LAWS}
    gated |= {f"{tag}.{law.name}" for tag in FUNCTOR_TAGS for law in core.FUNCTOR_LAWS}
    assert gated <= set(seen)
    assert all(sites == [] for name in gated for sites in seen[name])
    assert "_bifunctor" not in bm.closedModule.tensorClosed.module.action.__dict__
    assert seen["module evaluation square"] == [[], []]
    assert seen["unit-absorption triangle"] == [[], []]


class Reads(dict):
    """A table that records in ``seen`` the keys its entries are looked up by."""

    def __init__(self, entries):
        super().__init__(entries)
        self.seen = set()

    def __getitem__(self, key):
        self.seen.add(key)
        return super().__getitem__(key)


def reading(law, data, table: Reads, key) -> set:
    """The sites of ``law`` on ``data`` whose sides, judged afresh, look
    ``key`` up in ``table``; the internal adjuncts kept per (K, X, Y) are
    dropped first, since a kept one reads no entry."""
    found = set()
    for site in law.sites(*data):
        for part in data:
            getattr(part, "__dict__", {}).pop("_adjunct", None)
        table.seen = set()
        list(core._judge(law, [site], data))
        if key in table.seen:
            found.add(site)
    return found


# The laws an associator entry is read by: on each side, and on the bimodule.
ASSOC_READERS = ("module.assoc-natural", "module.assoc", "module.unit",
                 "bimodule.cp2-8-1", "bimodule.cp2-8-2")


def judged_at_its_readers(path, key, value, side):
    """Swap the associator entry at ``key`` of the self(trop(4)) bimodule
    table at ``path`` for ``value``, of another shape, and check it: the
    reports are the full sweep's, and each law that reads the table judges
    exactly the sites whose sides read that entry, on the side ``side`` of
    the module laws, which the other side judges nowhere.  Returns the number
    of sites judged per law."""
    def mutant(table):  # a fresh structure each time, so no verdict is shared
        bm = bimodule_completion(module_self(build_trop(4)))
        return replaced(bm, path, table({**read(bm, path), key: value}))
    checked = mutant(Reads)
    table = read(checked, path)
    got, seen = spied(check_closed_bimodule, checked)
    assert got == full_outcome(check_closed_bimodule, mutant(dict))
    assert f"{side}.shape" in {r.law for r in got}
    counts = {}
    for law, data, sites in seen:
        if law.name not in ASSOC_READERS:
            continue
        reads_table = law.name.startswith("bimodule.") or data[0].assoc is table
        want = reading(law, data, table, key) if reads_table else set()
        assert len(sites) == len(set(sites)) and set(sites) == want, law.name
        counts[law.name] = counts.get(law.name, 0) + len(sites)
    assert set(counts) == set(ASSOC_READERS)
    return counts


def test_a_misshapen_module_associator_entry_is_judged_where_it_is_read():
    """Module associator entry (1, 2, 0) of self(trop(4)) set to m:3:2: the
    module laws judge only the sites that read it (on 4^4 sites
    ``module.assoc`` used to sweep), and so do the hexagon and the comodule
    transport, whose earlier reports it explains."""
    counts = judged_at_its_readers(MODULE + ("assoc",), ("1", "2", "0"), "m:3:2", "module")
    assert counts["module.assoc"] < 4 ** 4


def test_a_misshapen_comodule_associator_entry_is_judged_where_it_is_read():
    """Comodule associator entry (0, 1, 0) of self(trop(4)) set to m:2:1, the
    site perfbench's seed-1 modules run mutates: the reversed side's module
    laws, the hexagon and the comodule transport judge only the sites that
    read it, where each used to sweep all of its sites."""
    counts = judged_at_its_readers(("comodAssoc",), ("0", "1", "0"), "m:2:1", "comodule")
    assert counts == {"module.assoc-natural": 19, "module.assoc": 14, "module.unit": 0,
                      "bimodule.cp2-8-1": 16, "bimodule.cp2-8-2": 4}


# The laws that read the action (the cotensor on the reversed side) through ``act_mor``.
ACTION_READERS = ("module.assoc-natural", "module.lunit-natural", "module.assoc", "module.unit",
                  "moduleclosed.naturality")


def judged_where_the_action_is_read(check, build, path, uv, value):
    """Swap the morphism entry at ``uv`` of the functor at ``path`` of the
    structure ``build()`` for ``value``, of another shape, and ``check`` it:
    the reports are the full sweep's, and each law that reads the functor
    judges exactly the sites whose sides read that entry; a law reading the
    other side's functor judges none.  Returns the number of sites judged
    per law."""
    def mutant(table):  # a fresh structure each time, so no verdict is shared
        data = build()
        functor = read(data, path)
        return replaced(data, path, dataclasses.replace(functor, onMorphisms=table(
            {**functor.onMorphisms, pair_id(*uv): value})))
    got = mutant(Reads)
    table = read(got, path).onMorphisms
    reports, seen = spied(check, got)
    assert reports == full_outcome(check, mutant(dict))
    assert any(r.law.endswith(".shape") for r in reports)
    counts = {}
    for law, data, sites in seen:
        if law.name not in ACTION_READERS:
            continue
        mod = data[1] if law.name.startswith("moduleclosed.") else data[0]
        want = reading(law, data, table, pair_id(*uv)) if mod.action.onMorphisms is table else set()
        assert len(sites) == len(set(sites)) and set(sites) == want, law.name
        counts[law.name] = counts.get(law.name, 0) + len(sites)
    assert set(counts) == set(ACTION_READERS)
    return counts


# The action entries of the self(trop(4)) tensorclosed document and the
# cotensor entries of its closedmodule that perfbench's seed-1 modules run
# swaps, each with its new value and the sites judged: ``module.assoc`` (of
# 4^4) and the three ``moduleclosed.naturality`` sweeps (of 375 together).
SEED_1_ACTION = {(("id:1", "m:2:0"), "id:3"): (0, 2), (("m:3:1", "m:2:1"), "m:3:0"): (0, 0),
                 (("m:1:0", "m:3:1"), "m:3:2"): (0, 0), (("id:2", "m:3:0"), "m:1:0"): (0, 3)}
SEED_1_COTENSOR = {(("id:0", "m:2:1"), "m:1:0"): 2, (("m:2:1", "m:2:1"), "id:2"): 0}


@pytest.mark.parametrize("entry", list(SEED_1_ACTION))
def test_a_misshapen_action_entry_is_judged_where_it_is_read(entry):
    """Where ``module.assoc`` and ``moduleclosed.naturality`` used to sweep
    all of their sites, each judges only those that read the entry."""
    (uv, value), (assoc, naturality) = entry, SEED_1_ACTION[entry]
    counts = judged_where_the_action_is_read(
        check_tensor_closed, lambda: module_self(build_trop(4)).tensorClosed,
        ("module", "action"), uv, value)
    assert (counts["module.assoc"], counts["moduleclosed.naturality"]) == (assoc, naturality)


@pytest.mark.parametrize("entry", list(SEED_1_COTENSOR))
def test_a_misshapen_cotensor_entry_is_judged_where_it_is_read(entry):
    """The reversed side reads the cotensor as its action; the tensor side's
    laws read no cotensor entry, and a closed module has no reversed-side
    module laws."""
    (uv, value), naturality = entry, SEED_1_COTENSOR[entry]
    counts = judged_where_the_action_is_read(
        check_closed_module, lambda: module_self(build_trop(4)), ("cotensor",), uv, value)
    assert counts["moduleclosed.naturality"] == naturality


def scanned_readers(mod, m, s, bad):
    """The sites of ``module.assoc`` and ``module.unit`` that read a key of
    ``bad``, found by testing the read set of every site."""
    v = m.base
    assoc = core.reading(
        lambda bad: product(v.objects, v.objects, v.objects, s.objects),
        lambda k, l, mm, x: ((m.tobj(k, l), mm, x), (k, l, mod.act_obj(mm, x)),
                             (k, m.tobj(l, mm), x), (l, mm, x), (m.a(k, l, mm), s.id_(x)),
                             (v.id_(k), mod.a(l, mm, x))))
    unit = core.reading(lambda bad: product(v.objects, s.objects),
                        lambda k, x: ((k, m.unit, x), (x,), (v.id_(k), mod.l(x)),
                                      (m.r(k), s.id_(x))))
    return set(assoc(bad)), set(unit(bad))


def coherence_reader_cases():
    """The self(trop(4)) module with each seed-1 action swap, with each
    action entry beside an identity set to the first morphism of another
    shape, and with each module associator entry set to every other
    morphism (of another shape: S is thin), each with its misshapen key."""
    mod = module_self(build_trop(4)).tensorClosed.module
    action, v, s = mod.action, mod.baseV.base, mod.baseS
    swaps = dict(SEED_1_ACTION)
    for u, w in product(v.mor_ids(), s.mor_ids()):
        if v.is_identity(u) or s.is_identity(w):
            value = action.onMorphisms[pair_id(u, w)]
            swaps[((u, w), next(f for f in s.mor_ids() if s._mors[f] != s._mors[value]))] = None
    for uv, value in swaps:
        table = {**action.onMorphisms, pair_id(*uv): value}
        yield replaced(mod, ("action",), dataclasses.replace(action, onMorphisms=table)), [uv]
    for key, value in mod.assoc.items():
        for other in s.mor_ids():
            if other != value:
                yield dataclasses.replace(mod, assoc={**mod.assoc, key: other}), [key]


def test_the_module_coherence_readers_are_found_through_fibres():
    """In each case ``module.assoc`` and ``module.unit`` judge the sites a
    scan of every site's read set finds; the readers find them through the
    fibres of the tables read."""
    count = 0
    for mod, bad in coherence_reader_cases():
        _, seen = spied(check_vmodule, mod)
        got = {law.name: set(sites) for law, _, sites in seen
               if law.name in ("module.assoc", "module.unit")}
        want = scanned_readers(mod, mod.baseV, mod.baseS, dict.fromkeys(bad).keys())
        assert (got["module.assoc"], got["module.unit"]) == want, bad
        count += 1
    assert count == len(SEED_1_ACTION) + 64 + 64 * 9


def test_the_module_coherence_readers_match_a_scan_on_every_key(monkeypatch):
    """The self(trop(4)) module with V's associator and right unitor and the
    module's associator and unitor set off the identities, so that no two
    read positions agree: given any one key, the cover ``module.assoc`` and
    ``module.unit`` take is the sites a scan of every read set finds."""
    mod = module_self(build_trop(4)).tensorClosed.module
    v, s = mod.baseV.base, mod.baseS

    def moved(table, mors):
        return {key: mors[(7 * i + 3) % len(mors)] for i, key in enumerate(table)}

    m = dataclasses.replace(mod.baseV, assoc=moved(mod.baseV.assoc, v.mor_ids()),
                            runit=moved(mod.baseV.runit, v.mor_ids()))
    mod = dataclasses.replace(mod, baseV=m, assoc=moved(mod.assoc, s.mor_ids()),
                              lunit=moved(mod.lunit, s.mor_ids()))
    laws = {law.name: law for law in vmod.MODULE_LAWS if law.name in ("module.assoc", "module.unit")}
    keys = [*product(v.mor_ids(), s.mor_ids()), *product(s.objects), *mod.assoc]
    for key in keys:
        monkeypatch.setattr(vmod, "_misshapen", lambda mod: [key])
        got = set(laws["module.assoc"].gate(mod, m, s)), set(laws["module.unit"].gate(mod, m, s))
        assert got == scanned_readers(mod, m, s, {key: None}.keys()), key


def closure(cat: FinCategory, gens) -> set:
    """The morphisms that are identities or composites of ``gens``."""
    reached = set(cat.identity.values()) | set(gens)
    while True:
        more = {h for (f, g), h in cat.comp.items() if f in reached and g in reached} - reached
        if not more:
            return reached
        reached |= more


def categories():
    diamond = build_poset_module().tensorClosed.module.baseS
    cats = {f"trop({n})": build_trop(n).base for n in range(2, 7)}
    cats |= {f"cyc({n})": build_cyc(n).base for n in range(1, 7)}
    cats |= {"bool": build_bool().base, "diamond": diamond,
             "doubled-cyc(2)": doubled_cyc(2).base, "doubled-cyc(3)": doubled_cyc(3).base}
    cats |= {f"{name}-op": opposite_category(cat) for name, cat in list(cats.items())}
    cats["trop(2) x cyc(3)"] = product_category(build_trop(2).base, build_cyc(3).base)
    return cats


@pytest.mark.parametrize("name,cat", list(categories().items()))
def test_the_greedy_generators_generate(name, cat):
    gens = generators(cat)
    assert len(set(gens)) == len(gens)
    assert not any(cat.is_identity(f) for f in gens)
    assert closure(cat, gens) == set(cat.mor_ids())


@pytest.mark.parametrize("n", range(2, 9))
def test_trop_has_its_steps_and_cyc_one_rotation(n):
    assert len(generators(build_trop(n).base)) == n - 1
    assert generators(build_cyc(n).base) == ("1",)
    assert generators(build_cyc(1).base) == ()
