"""Products read off their factors, and functors out of a product decided
one variable at a time.

``product_category`` computes its composition table entry by entry from the
factors' tables; it must read exactly as the table written out.
``validate_functor`` judges the composition law of a functor out of a
product only on its cover, the sites that read an entry where the functor
and the bifunctor ``rebuild_bifunctor`` rebuilds from its axes differ (Mac
Lane, CWM II.3, Prop. 1); gate-free (``harness.gate_free``) it judges every
site.  On every single-entry swap (the value replaced by each other
morphism of the target) and deletion of the action, hom functor and cotensor
morphism tables of the module builtins, ``check_closed_module`` must give
the same reports both ways, or raise the same error with the same message,
each way on its own copy of the mutant, and the gate-free way must judge
the composition law of every functor the gated one reaches.  Tier-1
compares a fixed stride of the mutants of the larger modules (see
``STRIDE``); ``-m slow`` compares every mutant.
"""

import dataclasses
from itertools import product

import pytest

import encat.core as core
from encat.core import (
    FinCategory,
    FunctorData,
    ProductComp,
    canonical_diff,
    opposite_category,
    pair_id,
    product_category,
    rebuild_bifunctor,
    structural_equal,
    validate_functor,
)
from encat.instances import build_bool, build_cyc, build_poset_module, build_trop, module_self
from encat.monoidal import MonoidalData, check_monoidal
from encat.vmodule import check_closed_module
from harness import agree, entries, gate_free, outcome, read, replaced, spied
from test_monoidal_gate import full_outcome as full_monoidal_outcome

BASES = {
    "bool": lambda: build_bool().base, "trop(3)": lambda: build_trop(3).base,
    "cyc(1)": lambda: build_cyc(1).base, "cyc(3)": lambda: build_cyc(3).base,
    "diamond": lambda: build_poset_module().tensorClosed.module.baseS,
    "diamond-op": lambda: opposite_category(build_poset_module().tensorClosed.module.baseS),
}


def written_out(a: FinCategory, b: FinCategory) -> dict:
    """The composition table of a x b as a dict, factor a's entries outermost."""
    return {(pair_id(f1, f2), pair_id(g1, g2)): pair_id(h1, h2)
            for (f1, g1), h1 in a.comp.items() for (f2, g2), h2 in b.comp.items()}


def eager(fn: FunctorData) -> FunctorData:
    """``fn`` with its source's composition table written out."""
    src = fn.srcCat
    return dataclasses.replace(fn, srcCat=dataclasses.replace(src, comp=dict(src.comp.items())))


@pytest.mark.parametrize("left,right", list(product(BASES, repeat=2)))
def test_a_product_table_reads_as_the_table_written_out(left, right):
    a, b = BASES[left](), BASES[right]()
    comp = product_category(a, b).comp
    want = written_out(a, b)
    assert isinstance(comp, ProductComp)
    assert list(dict(comp.items()).items()) == list(want.items())
    assert list(comp) == list(want) and len(comp) == len(want)
    assert comp == want and want == comp and not comp != want
    assert all(comp[key] == value and key in comp for key, value in want.items())
    f, g = next(iter(want))
    absent = [(g, f), (f, g, f), f, (f, "(nowhere,nowhere)"), ("(x,y)", g)]
    for key in absent:
        if key in want:
            continue
        assert key not in comp and comp.get(key) is None
        with pytest.raises(KeyError):
            comp[key]


def test_colliding_pair_ids_get_the_table_written_out():
    """pair_id('x,y', 'z') and pair_id('x', 'y,z') are both '(x,y,z)': no
    entry can be found from its id, so the product keeps the dict, which
    holds one of the two colliding entries, as it always did."""

    def idempotent(unit, e):
        comp = {(f, g): e if e in (f, g) else unit for f in (unit, e) for g in (unit, e)}
        return FinCategory(("p",), ((unit, "p", "p"), (e, "p", "p")), {"p": unit}, comp)

    a, b = idempotent("x", "x,y"), idempotent("z", "y,z")
    comp = product_category(a, b).comp
    assert type(comp) is dict and list(comp.items()) == list(written_out(a, b).items())
    assert len(comp) < len(a.comp) * len(b.comp)


def test_equal_factor_tables_make_equal_products_without_writing_them_out(monkeypatch):
    s = build_cyc(3).base
    reordered = dataclasses.replace(s, comp=dict(reversed(list(s.comp.items()))))
    monkeypatch.setattr(core._ProductItems, "__iter__", lambda self: pytest.fail("written out"))
    assert product_category(s, s).comp == product_category(reordered, s).comp
    assert product_category(s, s) == product_category(reordered, s)


def one_field_different_pairs():
    """Functors that differ from the poset module's action in one field,
    each paired with the action; the last pair is equal."""
    cm = build_poset_module()
    fn = cm.tensorClosed.module.action
    v, s = fn.srcCat.comp.a, fn.srcCat.comp.b
    key = next(iter(fn.onMorphisms))
    other = next(f for f in s.mor_ids() if f != fn.onMorphisms[key])
    changed_v = dataclasses.replace(v, comp={**v.comp, ("id:0", "m01"): "id:1"})
    reordered_v = dataclasses.replace(v, comp=dict(reversed(list(v.comp.items()))))
    return [
        (fn, dataclasses.replace(fn, onMorphisms={**fn.onMorphisms, key: other})),
        (fn, dataclasses.replace(fn, onObjects={**fn.onObjects, next(iter(fn.onObjects)): "top"})),
        (fn, dataclasses.replace(fn, dstCat=opposite_category(s))),
        (fn, dataclasses.replace(fn, srcCat=product_category(changed_v, s))),
        (fn, dataclasses.replace(fn, srcCat=product_category(v, opposite_category(s)))),
        (fn, dataclasses.replace(fn, srcCat=product_category(reordered_v, s))),
    ]


def test_comparisons_agree_with_the_products_written_out():
    pairs = one_field_different_pairs()
    for x, y in pairs:
        ex, ey = eager(x), eager(y)
        assert (x == y) == (ex == ey) == (x == ey) == (ex == y)
        assert structural_equal(x, y) == structural_equal(ex, ey) == structural_equal(x, ey)
        assert canonical_diff(x, y) == canonical_diff(ex, ey) == canonical_diff(ex, y)
    assert [structural_equal(x, y) for x, y in pairs] == [False] * 5 + [True]


def one_object(name: str, comp: dict) -> FinCategory:
    """The one-object category with composition ``comp`` and identity ``name``."""
    mors = sorted({f for f, _ in comp})
    return FinCategory(("*",), tuple((f, "*", "*") for f in mors), {"*": name}, comp)


# The monoid {1, e} with e e = e: its one non-identity morphism is idempotent.
IDEMPOTENT = one_object("1", {(f, g): "e" if "e" in (f, g) else "1" for f in "1e" for g in "1e"})


def test_the_rebuild_sends_identities_to_identities():
    """F(f, g) = e on {1, e} x {1, e} fails only F(1, 1) = 1.  Its axes are
    functors that commute, so without the identity premise R(f, g) = e e
    would rebuild F with no defect; with it, the axis entry F(1, 1) is
    repaired and R is the multiplication, a bifunctor."""
    m = IDEMPOTENT
    constant = {fg: "e" for fg in product("1e", repeat=2)}
    rebuild = rebuild_bifunctor(m, m, m, {("*", "*"): "*"}, constant)
    assert rebuild.rebuilt == m.comp and rebuild.defects == {("1", "1")}
    fn = FunctorData(product_category(m, m), m, {"(*,*)": "*"},
                     {pair_id(f, g): h for (f, g), h in rebuild.rebuilt.items()})
    assert validate_functor(fn) == []


def test_a_tensor_without_its_identity_is_rebuilt_to_the_multiplication():
    m = IDEMPOTENT
    lawful = MonoidalData(base=m, tensor_obj={("*", "*"): "*"}, tensor_mor=dict(m.comp),
                          unit="*", assoc={("*", "*", "*"): "1"}, lunit={"*": "1"},
                          runit={"*": "1"})
    assert check_monoidal(lawful) == []
    mutant = dataclasses.replace(lawful, tensor_mor={**m.comp, ("1", "1"): "e"})
    assert (mutant._tensor.rebuilt, mutant._tensor.defects) == (m.comp, {("1", "1")})
    got = check_monoidal(mutant)
    assert "tensor.identity" in {r.law for r in got} and got == full_monoidal_outcome(mutant)


COMPOSITION = core.FUNCTOR_LAWS[1].sites


def swept(check, *data):
    """``check``'s outcome on ``data`` and the composition sweeps of
    ``validate_functor`` it makes: the law's name, which tags the functor,
    the functor and the sites judged."""
    got, seen = spied(outcome, check, *data)
    return got, [(law.name, d[0], sites) for law, d, sites in seen if law.sites is COMPOSITION]


def full_sweep(check, *data):
    """The reference: ``check`` gate-free, asserted to have judged every
    composition site of every functor it reached."""
    with gate_free():
        got, sweeps = swept(check, *data)
    for _, fn, sites in sweeps:
        assert sites == list(fn.srcCat.comp)
    return got, sweeps


def reached(result) -> tuple:
    """An outcome with the names of the functors whose composition law was judged."""
    got, sweeps = result
    return got, sorted({name for name, _, _ in sweeps})


def out_of_product(a: FinCategory, b: FinCategory, c: FinCategory, table) -> FunctorData:
    """The map ``table`` on pairs of morphisms, into the one object of ``c``."""
    return FunctorData(product_category(a, b), c,
                       {pair_id(x, y): "*" for x in a.objects for y in b.objects},
                       {pair_id(f, g): table(f, g) for f in a.mor_ids() for g in b.mor_ids()})


def left_zero() -> FunctorData:
    """The multiplication of the left-zero monoid {e, a, b} (x then y is x
    unless x is e) out of its square: both axes are identity functors and
    the rebuild is the map itself, but the axes do not commute."""
    m = one_object("e", {(f, g): g if f == "e" else f for f in "abe" for g in "abe"})
    return out_of_product(m, m, m, lambda f, g: m.comp[(f, g)])


def halving(left: bool) -> FunctorData:
    """cyc(3) x 1 -> cyc(3) (or 1 x cyc(3)), 0, 1, 2 |-> 0, 1, 1: preserves
    the identity, but its one axis is not a functor."""
    three, one = build_cyc(3).base, build_cyc(1).base
    halve = {"0": "0", "1": "1", "2": "1"}
    if left:
        return out_of_product(three, one, three, lambda f, g: halve[f])
    return out_of_product(one, three, three, lambda f, g: halve[g])


def into_a_magma() -> FunctorData:
    """cyc(2) x cyc(2) -> C, where C has the table of the Klein group
    {i, p, q, r} except r r = r, so it is not associative.  The axes
    1 |-> p and 1 |-> q are functors that commute, and the map is
    (f, g) |-> f then g, yet (1, 1) then (1, 1) goes to r, not to i."""
    klein = {frozenset(): "i", frozenset("p"): "p", frozenset("q"): "q", frozenset("pq"): "r"}
    bits = {v: k for k, v in klein.items()}
    comp = {(f, g): klein[bits[f] ^ bits[g]] for f in "ipqr" for g in "ipqr"}
    c = one_object("i", {**comp, ("r", "r"): "r"})
    two = build_cyc(2).base
    return out_of_product(two, two, c, lambda f, g: c.comp[(
        {"0": "i", "1": "p"}[f], {"0": "i", "1": "q"}[g])])


NON_BIFUNCTORS = {"left-zero": left_zero, "halving-left": lambda: halving(True),
                  "halving-right": lambda: halving(False), "into-a-magma": into_a_magma}


@pytest.mark.parametrize("name", list(NON_BIFUNCTORS))
def test_a_map_that_breaks_a_premise_is_judged_on_every_site(name):
    fn = NON_BIFUNCTORS[name]()
    got = validate_functor(fn)
    assert [r.law for r in got if r.law != "functor.composition"] == []
    assert got and got == full_sweep(validate_functor, fn)[0]


def test_a_lawful_action_judges_no_composition_site():
    cm = module_self(build_cyc(8))
    got, seen = swept(lambda: [validate_functor(cm.tensorClosed.module.action),
                               check_closed_module(cm)])
    assert got == [[], []]
    assert len(seen) == 4 and all(sites == [] for _, _, sites in seen)
    assert len(cm.tensorClosed.module.action.srcCat.comp) == 64 * 64


def test_an_axis_mutant_is_judged_on_its_cover_only():
    """The self(cyc(8)) action with (0, 5) |-> 1: the rebuild repairs the
    axis entry, B = {(0, 5)}, and only the sites reading it are judged."""
    cm = module_self(build_cyc(8))
    action = cm.tensorClosed.module.action
    mutant = dataclasses.replace(action, onMorphisms={**action.onMorphisms, "(0,5)": "1"})
    reference = full_sweep(validate_functor, mutant)[0]
    got, [(_, fn, sites)] = swept(validate_functor, mutant)
    assert got == reference and len(got) == 186
    cover = {key for key, h in action.srcCat.comp.items() if "(0,5)" in (*key, h)}
    assert fn is mutant and len(sites) == len(set(sites)) == 189 and set(sites) == cover


MODULES = {"poset-diamond": build_poset_module, "self(bool)": lambda: module_self(build_bool()),
           "self(cyc(3))": lambda: module_self(build_cyc(3)),
           "self(trop(3))": lambda: module_self(build_trop(3))}

# Every mutant costs two closed-module checks, so by default only every
# STRIDE-th mutant of the larger modules (in enumeration order) is compared;
# ``-m slow`` compares all of them.  Each entry gives one deletion and a swap
# per other morphism of the target in a row (9 or 3 in the diamond, 6 in
# trop(3)); a stride prime to those visits every position.
STRIDE = {"poset-diamond": 7, "self(trop(3))": 7}


FUNCTORS = {"action": ("tensorClosed", "module", "action"),
            "homFunctor": ("tensorClosed", "homFunctor"), "cotensor": ("cotensor",)}


def mutants(cm):
    """Every single-entry swap and deletion of the three functors' morphism tables."""
    for table, path in FUNCTORS.items():
        fn = read(cm, path)
        for where, mutated in entries(fn.onMorphisms, fn.dstCat.mor_ids()):
            yield (table, *where), replaced(cm, path + ("onMorphisms",), mutated)


def bifunctor_agree(name: str, stride: int) -> None:
    """Each mutant's outcome equals the reference's, and the reference judges
    the composition law of every functor a fresh run reaches, and no other."""
    agree(lambda: mutants(MODULES[name]()), lambda cm: reached(swept(check_closed_module, cm)),
          stride, lambda cm: reached(full_sweep(check_closed_module, cm)))


@pytest.mark.parametrize("name", list(MODULES))
def test_the_bifunctor_shortcut_agrees_with_the_full_sweep(name):
    bifunctor_agree(name, STRIDE.get(name, 1))


@pytest.mark.slow
@pytest.mark.parametrize("name", list(STRIDE))
def test_the_bifunctor_shortcut_agrees_with_the_full_sweep_on_every_mutant(name):
    bifunctor_agree(name, 1)
