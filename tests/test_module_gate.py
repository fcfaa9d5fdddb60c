"""The localized ``module.assoc-natural`` sweep against the full sweep.

``check_vmodule`` judges ``module.assoc-natural`` on the cover of
``core.trinatural_cover``: the sites that read a defect of V's tensor or of
the action, once the associator is natural for their rebuilds in each
variable alone, decided on generators; with ``gate=None`` it judges every
site.  On every single-entry swap (the value replaced by each other
morphism of its category) and deletion of the action, the module
associator and V's tensor, and on the bimodules of the reversed side's
cotensor and comodule associator too, ``check_closed_bimodule`` (or
``check_vmodule`` on the regular module of ``doubled_cyc(2)``) must give the
same reports both ways, or raise the same error with the same message.
Tier-1 compares a fixed stride of the mutants of the larger instances (see
``STRIDE``); ``-m slow`` compares every mutant.
"""

import dataclasses

import pytest

import encat.core as core
import encat.vmodule as vmod
from encat.core import EncatError, FinCategory, generators, opposite_category, product_category
from encat.equiv import bimodule_completion
from encat.instances import build_bool, build_cyc, build_poset_module, build_trop, module_self
from encat.vmodule import check_closed_bimodule, check_vmodule
from nonstrict import doubled_cyc, regular_module

LAW = "module.assoc-natural"


def bimodule(cm):
    return bimodule_completion(cm), check_closed_bimodule


INSTANCES = {
    "poset-diamond": lambda: bimodule(build_poset_module()),
    "self(bool)": lambda: bimodule(module_self(build_bool())),
    "self(cyc(3))": lambda: bimodule(module_self(build_cyc(3))),
    "self(trop(3))": lambda: bimodule(module_self(build_trop(3))),
    "regular(doubled-cyc(2))": lambda: (regular_module(doubled_cyc(2)), check_vmodule),
}

# The tables mutated, as attribute paths from the checked structure, each
# with the path of the category its values range over.
MODULE = ("closedModule", "tensorClosed", "module")
BIMODULE_TABLES = (
    (MODULE + ("action", "onMorphisms"), MODULE + ("action", "dstCat")),
    (MODULE + ("assoc",), MODULE + ("baseS",)),
    (MODULE + ("baseV", "tensor_mor"), MODULE + ("baseV", "base")),
    (("closedModule", "cotensor", "onMorphisms"), ("closedModule", "cotensor", "dstCat")),
    (("comodAssoc",), MODULE + ("baseS",)),
)
VMODULE_TABLES = (
    (("action", "onMorphisms"), ("action", "dstCat")),
    (("assoc",), ("baseS",)),
    (("baseV", "tensor_mor"), ("baseV", "base")),
)


def read(data, path):
    for name in path:
        data = getattr(data, name)
    return data


def replaced(data, path, value):
    """``data`` with the attribute at ``path`` set to ``value``."""
    if not path:
        return value
    return dataclasses.replace(data, **{path[0]: replaced(getattr(data, path[0]), path[1:], value)})


def mutants(data):
    """Every single-entry swap and deletion of the mutated tables."""
    tables = VMODULE_TABLES if isinstance(data, vmod.VModuleData) else BIMODULE_TABLES
    for path, values in tables:
        table = read(data, path)
        for key, value in table.items():
            rest = {k: v for k, v in table.items() if k != key}
            yield (path[-1], key, None), replaced(data, path, rest)
            for other in read(data, values).mor_ids():
                if other != value:
                    yield (path[-1], key, other), replaced(data, path, {**table, key: other})


def outcome(check, data):
    try:
        return check(data)
    except EncatError as exc:
        return type(exc).__name__, str(exc)


def spy(mp) -> list[tuple[tuple, list[tuple[str, ...]]]]:
    """Record the data and the sites of each ``module.assoc-natural`` sweep."""
    seen = []
    judge = core._judge

    def recording(law, sites, data):
        sites = list(sites)
        if law.name == LAW:
            seen.append((data, sites))
        return judge(law, sites, data)

    mp.setattr(core, "_judge", recording)
    return seen


def full_outcome(check, data):
    """The reference: ``check`` with gate-free module laws, asserted to have
    judged every site of each module's ``module.assoc-natural`` once."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vmod, "MODULE_LAWS", tuple(
            dataclasses.replace(law, gate=None) for law in vmod.MODULE_LAWS))
        seen = spy(mp)
        got = outcome(check, data)
    if isinstance(got, list):
        assert len(seen) == (1 if check is check_vmodule else 2)
        law = vmod.MODULE_LAWS[0]
        for judged_on, sites in seen:
            assert sites == list(law.sites(*judged_on))
    return got


# Every mutant costs two checks, so by default only every STRIDE-th mutant of
# the larger instances (in enumeration order) is compared; ``-m slow``
# compares all of them.  Each entry gives one deletion and a swap per other
# morphism of its category in a row (9 or 3 in the diamond, 6 in trop(3), 8
# in the doubled copy); a stride prime to those visits every position.
STRIDE = {"poset-diamond": 31, "self(trop(3))": 31, "regular(doubled-cyc(2))": 13}


def agree(name: str, stride: int) -> None:
    data, check = INSTANCES[name]()
    assert check(data) == []
    for where, mutant in list(mutants(data))[::stride]:
        assert outcome(check, mutant) == full_outcome(check, mutant), where


@pytest.mark.parametrize("name", list(INSTANCES))
def test_the_module_cover_agrees_with_the_full_sweep(name):
    agree(name, STRIDE.get(name, 1))


@pytest.mark.slow
@pytest.mark.parametrize("name", list(STRIDE))
def test_the_module_cover_agrees_with_the_full_sweep_on_every_mutant(name):
    agree(name, 1)


def test_a_lawful_module_is_judged_on_generators_only(monkeypatch):
    """self(trop(4)): each side decides 4^3 identity sites and 3 * 3 * 4^2
    generator sites on the rebuilds, of its 10^3 sites, and judges none."""
    bm = bimodule_completion(module_self(build_trop(4)))
    gate_sites = []
    separate = core.separate_variable_sites

    def counting(a, b, c):
        sites = list(separate(a, b, c))
        gate_sites.append(len(sites))
        return sites

    monkeypatch.setattr(core, "separate_variable_sites", counting)
    seen = spy(monkeypatch)
    assert check_closed_bimodule(bm) == []
    assert gate_sites == [4 ** 3 + 3 * 3 * 4 ** 2] * 2
    assert [sites for _, sites in seen] == [[], []]
    assert [len(list(vmod.MODULE_LAWS[0].sites(*data))) for data, _ in seen] == [10 ** 3] * 2


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
