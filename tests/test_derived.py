"""Derived laws: consequences of the axioms, judged by ``core.assert_derived``.

The runner judges law by law and site by site, stops at the first unequal
site and raises there; an error a side raises escapes with its own type.
Every derived-law tuple of the package is live: on a lawful input, each of
its laws is reached from the checker or construction that runs it, and a
lying side makes that entry point raise, naming the law.  On a thin base the
derived monoidal, closed, hom-structure and module laws judge no site, so
their lies are caught on cyc(3), and reference sweeps hold them gate-free on
the thin ladder.
"""

import ast
from itertools import product

import pytest

import encat.equiv as equiv
import encat.monoidal as mon
import encat.vmodule as vmod
import encat.vstruct as vst
from encat.core import (
    EngineBugError,
    Law,
    MissingTableError,
    WitnessError,
    assert_derived,
    clean,
    derived_law,
    evaluate,
    pair_id,
)
from encat.instances import build_bool, build_cyc, build_poset_module, build_trop, module_self
from harness import by_law, gate_free, lying, spied, spy
from test_hom_gate import search_data
from tests import enriched_reference as enriched


def recording_law(name, sites, bad, seen):
    """A derived law over ``sites`` whose sides differ only at ``bad``;
    each judged site is appended to ``seen``."""
    return derived_law(name, lambda: sites,
                       lambda *site: seen.append(site) or "x",
                       lambda *site: "y" if site == bad else "x")


def test_the_runner_stops_at_the_first_unequal_site():
    seen = []
    laws = (recording_law("first", [("a",), ("b",), ("c",)], ("b",), seen),
            recording_law("second", [("d",)], ("d",), seen))
    with pytest.raises(EngineBugError, match=r"^derived law failed: first at \('b',\)$"):
        assert_derived(laws)
    assert seen == [("a",), ("b",)]


def test_the_runner_judges_laws_in_order_and_passes_when_all_hold():
    seen = []
    laws = (recording_law("first", [("a",)], None, seen),
            recording_law("second", [("b", "c")], ("b", "c"), seen))
    with pytest.raises(EngineBugError, match=r"second at \('b', 'c'\)$"):
        assert_derived(laws)
    assert seen == [("a",), ("b", "c")]
    assert assert_derived(laws[:1]) is None


def missing(*site):
    raise MissingTableError("no such entry")


def test_a_side_error_escapes_with_its_own_type():
    law = derived_law("law", lambda: [("a",)], lambda *site: missing(), lambda *site: "x")
    with pytest.raises(MissingTableError, match="no such entry"):
        assert_derived((law,))
    with pytest.raises(MissingTableError):  # the same side in a report sweep
        evaluate((law,))
    # an unmarked side of a checked law leaves its site undefined instead
    [report] = evaluate((Law("law", lambda: [("a",)], lambda *site: missing(),
                             lambda *site: "x"),))
    assert report.witness_count == 0 and report.note == "composite undefined"


def test_the_failure_can_be_named_by_the_caller():
    law = recording_law("the source variable", [("v", "k", "y")], ("v", "k", "y"), [])
    with pytest.raises(WitnessError) as err:
        assert_derived((law,), fail=lambda which, site: WitnessError(
            f"adjunct family not natural in {which} at {site!r}", count=0))
    assert str(err.value) == "adjunct family not natural in the source variable at ('v', 'k', 'y')"
    assert err.value.count == 0


def _cylinder(m):
    return enriched.self_vstructure(m), enriched.self_cylinder(m)


def _tensor_closed():
    return build_poset_module().tensorClosed


# Each derived-law tuple, the entry point that judges it on a lawful input,
# and the error its failure raises: (class, message prefix, count).
ENGINE_BUG = (EngineBugError, "derived law failed: {} at (", None)
FAMILIES = {
    "DERIVED_MONOIDAL_LAWS": (mon, lambda: mon.check_monoidal(build_cyc(3)), ENGINE_BUG),
    "DERIVED_CLOSED_LAWS": (mon, lambda: mon.check_closed(build_cyc(3)), ENGINE_BUG),
    "IOTA_LAWS": (mon, lambda: mon.check_closed(build_cyc(3)), ENGINE_BUG),
    "PI_BAR_LAWS": (mon, lambda: mon.internal_pi_bar(build_trop(3), "1", "1", "2"), ENGINE_BUG),
    "DERIVED_MODULE_LAWS": (vmod, lambda: vmod.check_vmodule(
        module_self(build_cyc(3)).tensorClosed.module), ENGINE_BUG),
    "EVALUATION_SQUARE": (vmod, lambda: vmod.check_tensor_closed(
        module_self(build_cyc(3)).tensorClosed), ENGINE_BUG),
    "ENRICHED_ACTION_LAWS": (enriched, lambda: enriched.enriched_action(_tensor_closed()),
                             ENGINE_BUG),
    "PHIBAR_LAWS": (vmod, lambda: vmod.module_phibar(
        module_self(build_cyc(3)).tensorClosed, "*", "*", "*"), ENGINE_BUG),
    "DERIVED_CYLINDER_LAWS": (vst, lambda: vst.check_cylinder(*_cylinder(build_cyc(3))),
                              ENGINE_BUG),
    "PHIBAR_NATURALITY_LAWS": (vst, lambda: vst.induced_tensor_bifunctor(
        *_cylinder(build_cyc(3))), (WitnessError, "adjunct family not natural in {} at (", 0)),
    "ADJUNCTION_ROUTE_LAWS": (equiv, lambda: equiv.cylinder_to_module(*_cylinder(build_cyc(3))),
                              ENGINE_BUG),
    # the searches: a lying probe or witness test leaves no candidate
    "YONEDA_LAWS": (equiv, lambda: equiv.cylinder_to_module(*_cylinder(build_cyc(3))),
                    (WitnessError, "module associator at ('*', '*', '*'): 0 witnesses", 0)),
    "WITNESS_LAWS": (vst, lambda: vst.induced_tensor_bifunctor(*_cylinder(build_cyc(3))),
                     (WitnessError, "action of '*' on '0' has 0 witnesses", 0)),
}
CASES = [(family, i) for family, (module, _, _) in FAMILIES.items()
         for i in range(len(getattr(module, family)))]


def test_every_derived_law_tuple_is_listed():
    """Every tuple of laws a module declares outside its ``LAWS``; the
    enriched reference's ``VNAT_LAWS`` are the laws its checker judges."""
    declared = {name for module in (mon, vmod, vst, equiv, enriched)
                for name, value in vars(module).items()
                if isinstance(value, tuple) and value and isinstance(value[0], Law)
                and not set(value) <= set(getattr(module, "LAWS", ()))}
    assert declared - {"VNAT_LAWS"} == set(FAMILIES)


@pytest.mark.parametrize("family,index", CASES)
def test_each_derived_law_is_judged_and_a_lie_is_caught(monkeypatch, family, index):
    module, run, (error, prefix, count) = FAMILIES[family]
    run()  # lawful: every derived law holds
    lie = lying(monkeypatch, module, family, index)
    with pytest.raises(error) as err:
        run()
    assert str(err.value).startswith(prefix.format(lie.name)), str(err.value)
    if count is not None:
        assert err.value.count == count


def test_an_action_whose_partial_routes_disagree_is_not_a_functor(monkeypatch):
    """The induced action is F(u, v) = (K (x) v) then (u (x) Y); its
    composition law at ((u, 1_X), (1_L, v)) says that this route agrees with
    (u (x) X) then (L (x) v).  With the first route of (1, 1) on the
    self(cyc(3)) cylinder moved to the next element, the functor check of the
    action names that law."""
    first_route = vst._first_route

    def moved(base, s, u_tensor, k_tensor, u, v):
        r = first_route(base, s, u_tensor, k_tensor, u, v)
        return str((int(r) + 1) % 3) if (u, v) == ("1", "1") else r

    vs, cyl = _cylinder(build_cyc(3))
    assert vst.induced_tensor_bifunctor(vs, cyl).mor(pair_id("1", "1")) == "2"
    monkeypatch.setattr(vst, "_first_route", moved)
    with pytest.raises(WitnessError) as err:
        vst.induced_tensor_bifunctor(vs, cyl)
    assert str(err.value).startswith("induced action is not a functor: ")
    assert "action.composition" in str(err.value) and err.value.count == 0


def shifted(real, calls=None):
    """``real`` with its answer moved to the next element of cyc(3), on
    every call or only on the first ``calls``."""
    count = []

    def lie(*args):
        count.append(args)
        value = real(*args)
        return str((int(value) + 1) % 3) if calls is None or len(count) <= calls else value
    return lie


def test_a_lying_operation_is_caught_by_each_module_family(monkeypatch):
    """Lies in operations, not in the laws, on one-object instances, where
    every composite is defined: each raises from the family reading it.  The
    counit is read on both sides of its square, so it lies once."""
    cases = [
        (mon, "hom_on_morphisms", None, lambda: mon.check_closed(build_cyc(3)),
         "evaluation square"),
        (vmod, "_counit", 1, lambda: vmod.check_tensor_closed(
            module_self(build_cyc(3)).tensorClosed), "module evaluation square"),
        (vst, "varpi", None, lambda: vst.check_cylinder(*_cylinder(build_cyc(3))),
         "element transport"),
        (equiv, "varpi_inv", None, lambda: equiv.cylinder_to_module(*_cylinder(build_cyc(3))),
         "adjunction routes"),
    ]
    for module, name, calls, run, law in cases:
        with monkeypatch.context() as mp:
            mp.setattr(module, name, shifted(getattr(module, name), calls))
            with pytest.raises(EngineBugError, match=f"^derived law failed: {law} at "):
                run()


def test_a_lying_characterization_is_caught_at_the_generic_element(monkeypatch):
    """Once the monoidal and closed verdicts are on record and clean, the
    characterization of the internal transpose is judged at the generic
    element alone, W = hom(X (x) Y, Z) and f = ev; a lie there still raises,
    naming that site.  (On a fresh instance every W and f is judged: see
    ``test_each_derived_law_is_judged_and_a_lie_is_caught``.)  The base is
    cyc(3), which is not thin: on a thin base ``check_closed`` judges no
    derived law and never asks for the internal transpose."""
    m = build_cyc(3)
    assert mon.check_monoidal(m) == []
    lie = lying(monkeypatch, mon, "PI_BAR_LAWS", 0)
    with pytest.raises(EngineBugError) as err:
        mon.check_closed(m)
    assert clean(m, "monoidal", "closed")
    prefix = f"derived law failed: {lie.name} at "
    assert str(err.value).startswith(prefix)
    x, y, z, w, f = ast.literal_eval(str(err.value)[len(prefix):])
    xy = m.tobj(x, y)
    assert (w, f) == (m.hom_obj(xy, z), m.ev(xy, z))


def characterization_sites(m) -> int:
    """The reference for the run-time characterization of the internal
    transpose: after ``check_monoidal`` and ``check_closed``, which judge it
    at the generic element only, it holds at every (X, Y, Z, W, f), f :
    W (x) (X (x) Y) -> Z.  Returns the number of sites."""
    assert mon.check_monoidal(m) == [] and mon.check_closed(m) == []
    base, sites = m.base, 0
    for x, y, z, w in product(base.objects, repeat=4):
        outer = mon.internal_pi_bar(m, x, y, z)
        for f in base.hom(m.tobj(w, m.tobj(x, y)), z):
            inner = mon.transpose_pi(m, base.compose(m.a(w, x, y), f), m.tobj(w, x), y)
            assert mon.transpose_pi(m, inner, w, x) == base.compose(
                mon.transpose_pi(m, f, w, m.tobj(x, y)), outer), (x, y, z, w, f)
            sites += 1
    return sites


LADDER = {"bool": build_bool, **{f"trop({n})": lambda n=n: build_trop(n) for n in (3, 4, 5)},
          **{f"cyc({n})": lambda n=n: build_cyc(n) for n in range(2, 7)}}
SLOW_LADDER = {**{f"trop({n})": lambda n=n: build_trop(n) for n in (6, 7, 8)},
               **{f"cyc({n})": lambda n=n: build_cyc(n) for n in range(8, 13)}}


@pytest.mark.parametrize("name", list(LADDER))
def test_the_internal_transpose_characterization_holds_at_every_site(name):
    assert characterization_sites(LADDER[name]()) > 0


@pytest.mark.slow
@pytest.mark.parametrize("name", list(SLOW_LADDER))
def test_the_internal_transpose_characterization_holds_at_every_site_on_the_ladder(name):
    assert characterization_sites(SLOW_LADDER[name]()) > 0


THIN_DERIVED = ("DERIVED_MONOIDAL_LAWS", "DERIVED_CLOSED_LAWS", "IOTA_LAWS")


def thin_derived_sites(m) -> int:
    """The reference for the derived monoidal and closed laws on a thin
    base: ``check_monoidal`` and ``check_closed`` find no report and judge
    none of their sites, and judged gate-free each holds at every site.
    Returns the number of sites."""
    got, seen = spied(lambda: [mon.check_monoidal(m), mon.check_closed(m)])
    assert got == [[], []]
    seen = by_law(seen)
    names = {law.name for family in THIN_DERIVED for law in getattr(mon, family)}
    assert names <= set(seen) and all(seen[name] == [[]] * len(seen[name]) for name in names)
    assert mon.PI_BAR_LAWS[0].name not in seen  # no internal transpose was asked for
    base, sites = m.base, 0
    data = {"DERIVED_MONOIDAL_LAWS": [(m, base)], "DERIVED_CLOSED_LAWS": [(m, base)],
            "IOTA_LAWS": [(m, x, mon.transpose_pi(m, m.r(x), x, m.unit)) for x in base.objects]}
    for family in THIN_DERIVED:
        laws = getattr(mon, family)
        for args in data[family]:
            with gate_free():
                assert_derived(laws, *args)
            sites += sum(len(list(law.sites(*args))) for law in laws)
    return sites


THIN_LADDER = {"bool": build_bool, **{f"trop({n})": lambda n=n: build_trop(n) for n in (3, 4, 5)}}
SLOW_THIN_LADDER = {f"trop({n})": lambda n=n: build_trop(n) for n in (6, 7, 8)}


@pytest.mark.parametrize("name", list(THIN_LADDER))
def test_thin_derived_laws_hold_at_every_site(name):
    assert thin_derived_sites(THIN_LADDER[name]()) > 0


@pytest.mark.slow
@pytest.mark.parametrize("name", list(SLOW_THIN_LADDER))
def test_thin_derived_laws_hold_at_every_site_on_the_ladder(name):
    assert thin_derived_sites(SLOW_THIN_LADDER[name]()) > 0


HOM_DERIVED = {"DERIVED_CYLINDER_LAWS": vst, "PHIBAR_NATURALITY_LAWS": vst,
               "ADJUNCTION_ROUTE_LAWS": equiv, "PHIBAR_LAWS": vmod,
               "YONEDA_LAWS": equiv, "WITNESS_LAWS": vst}


def hom_derived_sites(monkeypatch, tc) -> int:
    """The reference for the derived laws and searches of the hom-structure
    side on a thin V: ``module_to_cylinder``, ``check_cylinder`` and
    ``cylinder_to_module`` find no report and judge none of their sites, and
    judged gate-free each holds at every site: every candidate represents
    its family and every morphism witnesses its element.  Returns the number
    of sites."""
    seen = spy(monkeypatch)
    vs, cyl = equiv.module_to_cylinder(tc)
    assert vst.check_vstructure(vs) == [] and vst.check_cylinder(vs, cyl) == []
    probes, witnesses = search_data(monkeypatch)
    equiv.cylinder_to_module(vs, cyl)
    monkeypatch.undo()
    seen = by_law(seen)
    names = {law.name for family, module in HOM_DERIVED.items() for law in getattr(module, family)}
    assert names <= set(seen) and not any(map(any, (seen[name] for name in names)))
    mod, m = tc.module, vs.baseV
    keys = product(m.base.objects, mod.baseS.objects, mod.baseS.objects)
    data = {"DERIVED_CYLINDER_LAWS": [(vs, cyl, m)],
            "PHIBAR_NATURALITY_LAWS": [(vs, cyl, m, vst.induced_tensor_bifunctor(vs, cyl))],
            "ADJUNCTION_ROUTE_LAWS": [(vs, cyl, equiv._module_phi_tables(vs, cyl))],
            "PHIBAR_LAWS": [(mod, tc, vmod._adjunct(tc, *key), key) for key in keys],
            "YONEDA_LAWS": probes, "WITNESS_LAWS": witnesses}
    assert probes and witnesses
    sites = 0
    for family, module in HOM_DERIVED.items():
        laws = getattr(module, family)
        for args in data[family]:
            with gate_free():
                assert_derived(laws, *args)
            sites += sum(len(list(law.sites(*args))) for law in laws)
    return sites


HOM_LADDER = {**{name: lambda build=build: module_self(build()).tensorClosed
                 for name, build in THIN_LADDER.items()},
              "poset-diamond": _tensor_closed}
SLOW_HOM_LADDER = {name: lambda build=build: module_self(build()).tensorClosed
                   for name, build in SLOW_THIN_LADDER.items()}


@pytest.mark.parametrize("name", list(HOM_LADDER))
def test_thin_hom_derived_laws_hold_at_every_site(monkeypatch, name):
    assert hom_derived_sites(monkeypatch, HOM_LADDER[name]()) > 0


@pytest.mark.slow
@pytest.mark.parametrize("name", list(SLOW_HOM_LADDER))
def test_thin_hom_derived_laws_hold_at_every_site_on_the_ladder(monkeypatch, name):
    assert hom_derived_sites(monkeypatch, SLOW_HOM_LADDER[name]()) > 0


MODULE_DERIVED = ("DERIVED_MODULE_LAWS", "EVALUATION_SQUARE")


def module_derived_sites(cm) -> int:
    """The reference for the derived laws of the module checks on a thin S:
    ``check_closed_bimodule`` on the completion of the closed module ``cm``
    finds no report and judges none of their sites, on either side, and
    judged gate-free each holds at every site.  Returns the number of sites."""
    bm = equiv.bimodule_completion(cm)
    got, seen = spied(vmod.check_closed_bimodule, bm)
    assert got == []
    seen = by_law(seen)
    names = {law.name for family in MODULE_DERIVED for law in getattr(vmod, family)}
    assert all(seen[name] == [[], []] for name in names)
    tc = bm.closedModule.tensorClosed
    m, s = tc.module.baseV, tc.module.baseS
    sides = (tc, vmod.dual_tensorclosed(bm.closedModule, bm.comodAssoc, bm.comodLunit))
    data = {"DERIVED_MODULE_LAWS": [(side.module, m, side.module.baseS) for side in sides],
            "EVALUATION_SQUARE": [(side, side.module, m.base, side.module.baseS)
                                  for side in sides]}
    assert s._thin and sides[1].module.baseS._thin
    sites = 0
    for family in MODULE_DERIVED:
        laws = getattr(vmod, family)
        for args in data[family]:
            with gate_free():
                assert_derived(laws, *args)
            sites += sum(len(list(law.sites(*args))) for law in laws)
    return sites


MODULE_LADDER = {"self(bool)": lambda: module_self(build_bool()),
                 "self(trop(3))": lambda: module_self(build_trop(3)),
                 "poset-diamond": build_poset_module}
SLOW_MODULE_LADDER = {f"self(trop({n}))": lambda n=n: module_self(build_trop(n)) for n in (4, 5)}


@pytest.mark.parametrize("name", list(MODULE_LADDER))
def test_thin_module_derived_laws_hold_at_every_site(name):
    assert module_derived_sites(MODULE_LADDER[name]()) > 0


@pytest.mark.slow
@pytest.mark.parametrize("name", list(SLOW_MODULE_LADDER))
def test_thin_module_derived_laws_hold_at_every_site_on_the_ladder(name):
    assert module_derived_sites(SLOW_MODULE_LADDER[name]()) > 0
