import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from encat.core import EngineBugError, MalformedReferenceError, WitnessError
from encat.instances import build_bool, build_cyc, build_trop
from encat.monoidal import (
    check_closed,
    check_monoidal,
    check_symmetry,
    hom_on_morphisms,
    internal_composition_b,
    internal_pi_bar,
    internal_swap,
    iota,
    transpose_pi,
    transpose_pi_inv,
    varpi,
    varpi_inv,
)
from nonstrict import absorbing_monoid
from tests.enriched_reference import self_cylinder, self_path, self_vstructure


def mutate(m, field, key, value):
    table = dict(getattr(m, field))
    table[key] = value
    return dataclasses.replace(m, **{field: table})


def mutate_closed(m, field, key, value):
    table = dict(getattr(m.closed, field))
    table[key] = value
    return dataclasses.replace(m, closed=dataclasses.replace(m.closed, **{field: table}))


def mutate_braid(m, key, value):
    braid = dict(m.symmetry.braid)
    braid[key] = value
    return dataclasses.replace(m, symmetry=dataclasses.replace(m.symmetry, braid=braid))


def test_coherence_on_all_instances(bool_m, trop3, trop4, cyc1, cyc2, cyc3):
    for m in (bool_m, trop3, trop4, cyc1, cyc2, cyc3):
        assert check_monoidal(m) == []
        assert check_symmetry(m) == []
        assert check_closed(m) == []


def test_pentagon_mutation(cyc3):
    bad = mutate(cyc3, "assoc", ("*", "*", "*"), "1")
    reports = check_monoidal(bad)
    laws = {r.law for r in reports}
    assert "pentagon" in laws
    pent = [r for r in reports if r.law == "pentagon"][0]
    assert pent.site == ("*", "*", "*", "*")
    assert pent.lhs != pent.rhs


def test_triangle_mutation(cyc3):
    bad = mutate(cyc3, "lunit", "*", "1")
    laws = {r.law for r in check_monoidal(bad)}
    assert "triangle" in laws


def test_symmetry_mutations(cyc2, cyc3):
    bad3 = mutate_braid(cyc3, ("*", "*"), "1")
    reports = check_symmetry(bad3)
    invol = [r for r in reports if r.law == "symmetry.invol"][0]
    # braiding twice adds 1 + 1 = 2 modulo 3, where the identity is 0
    assert (invol.lhs, invol.rhs) == ("2", "0")
    assert "symmetry.unit" in {r.law for r in reports}

    bad2 = mutate_braid(cyc2, ("*", "*"), "1")
    reports2 = check_symmetry(bad2)
    laws2 = {r.law for r in reports2}
    assert "symmetry.hexagon" in laws2
    assert "symmetry.invol" not in laws2  # 1 + 1 = 0 modulo 2


def test_closed_bijection_mutation(bool_m):
    bad = mutate_closed(bool_m, "hom_obj", ("1", "0"), "1")
    reports = check_closed(bad)
    bij = [r for r in reports if r.law == "closed.bijection"]
    assert ("1", "1", "0") in {r.site for r in bij}
    assert all(r.witness_count is not None for r in bij)


def test_transpose_is_identity_on_modular_instance(cyc3):
    # oracle: with every structure morphism the group unit, the transpose
    # search solves 0 + g + 0 = f, so it is the identity permutation
    for f in ["0", "1", "2"]:
        assert transpose_pi(cyc3, f, "*", "*") == f
        assert transpose_pi_inv(cyc3, f, "*", "*") == f


def test_transpose_posetal_example(trop3):
    # Hom(1 (+) 1, 2) = Hom(2, 2) is a singleton; its transpose is the unique
    # element of Hom(1, hom(1, 2)) = Hom(1, 1)
    f = trop3.base.hom("2", "2")[0]
    assert transpose_pi(trop3, f, "1", "1") == "id:1"


def test_transpose_unit(cyc3):
    eta = transpose_pi(cyc3, cyc3.base.id_("*"), "*", "*")
    assert eta == "0"


def test_transpose_failure_is_witness_error(bool_m):
    bad = mutate_closed(bool_m, "hom_obj", ("1", "0"), "1")
    with pytest.raises(WitnessError):
        transpose_pi(bad, "id:0", "1", "1")


def test_transpose_errors_repeat_on_every_call(trop3):
    # the transpose table is built once per (X, Y, Z); a failed lookup must
    # still raise, with the same witness count, on the second call
    bad = mutate_closed(trop3, "ev", ("1", "1"), "m:2:1")
    counts = []
    for _ in range(2):
        with pytest.raises(WitnessError) as err:
            transpose_pi(bad, "m:2:1", "1", "1")
        counts.append((err.value.count, str(err.value)))
    assert counts[0] == counts[1]
    assert counts[0][0] == 0
    for _ in range(2):
        with pytest.raises(MalformedReferenceError):
            transpose_pi(trop3, "undeclared", "1", "1")


def _same_error_twice(m, f, x, y):
    seen = []
    for _ in range(2):
        with pytest.raises(WitnessError) as err:
            transpose_pi(m, f, x, y)
        seen.append((err.value.count, str(err.value)))
    assert seen[0] == seen[1]
    return seen[0]


def test_closed_bijection_reads_the_transpose_table(trop3, cyc3):
    # a larger internal hom with a well-shaped evaluation: the transpose of
    # id:1 at (0, 1, 1) would need a morphism 0 -> 1, and there is none
    bad = mutate_closed(mutate_closed(trop3, "hom_obj", ("1", "1"), "1"),
                        "ev", ("1", "1"), "m:2:1")
    reports = check_closed(bad)
    assert [(r.law, r.site, r.witness_count) for r in reports] == [
        ("closed.bijection", ("0", "1", "1"), 0)]
    assert _same_error_twice(bad, "id:1", "0", "1") == (
        0, "transpose of 'id:1' at ('0', '1', '1') has 0 witnesses")

    # 1 (x) 0 sent to 0: g |-> ev . (g (x) 1) identifies 0 and 1
    bad = mutate(cyc3, "tensor_mor", ("1", "0"), "0")
    reports = check_closed(bad)
    assert [(r.law, r.site, r.witness_count) for r in reports] == [
        ("closed.bijection", ("*", "*", "*"), 2)]
    assert _same_error_twice(bad, "0", "*", "*")[0] == 2
    assert _same_error_twice(bad, "1", "*", "*")[0] == 0


def test_closed_bijection_reports_an_undefined_transpose_image(bool_m):
    # id:0 (x) id:1 redirected to id:1 cannot be followed by ev(1, 0) : 0 -> 0,
    # so the forward image of id:0 at (0, 1, 0) is undefined: a report, not
    # an exception
    bad = mutate(bool_m, "tensor_mor", ("id:0", "id:1"), "id:1")
    reports = check_closed(bad)
    bij = {r.site: r.witness_count for r in reports if r.law == "closed.bijection"}
    assert bij[("0", "1", "0")] == 0
    assert _same_error_twice(bad, "id:0", "0", "1")[0] == 0


def test_undeclared_tensor_morphism_is_malformed_reference(trop3):
    bad = mutate(trop3, "tensor_mor", ("id:0", "id:0"), "undeclared")
    with pytest.raises(MalformedReferenceError):
        check_monoidal(bad)


@pytest.mark.parametrize("case", ["assoc", "lunit", "braid"])
def test_undeclared_structure_entry_is_a_shape_report(trop3, cyc3, case):
    """An associator, unitor or braiding entry that names no morphism is
    misshapen, as an undeclared module or assignment entry is."""
    bad, check, law = {
        "assoc": (mutate(trop3, "assoc", ("0", "1", "2"), "undeclared"), check_monoidal,
                  "assoc.shape"),
        "lunit": (mutate(trop3, "lunit", "1", "undeclared"), check_monoidal, "lunit.shape"),
        "braid": (mutate_braid(cyc3, ("*", "*"), "undeclared"), check_symmetry,
                  "symmetry.shape"),
    }[case]
    assert law in {r.law for r in check(bad)}


@pytest.mark.parametrize("field,key", [("assoc", ("*", "*", "*")), ("lunit", "*"),
                                       ("runit", "*")])
def test_non_invertible_structure_entry_is_an_iso_report(field, key):
    """z has the shape of every structure map of the absorbing monoid but no
    inverse; as an associator or unitor it also breaks the triangle."""
    bad = mutate(absorbing_monoid(), field, key, "z")
    assert {r.law for r in check_monoidal(bad)} == {f"{field}.iso", "triangle"}


def test_hom_on_morphisms(bool_m, cyc3):
    assert hom_on_morphisms(bool_m, "id:0", "id:0") == "id:1"
    assert hom_on_morphisms(bool_m, "m01", "id:0") == "m01"
    # oracle: in the modular instance the hom action adds the two labels
    for f in range(3):
        for h in range(3):
            assert hom_on_morphisms(cyc3, str(f), str(h)) == str((f + h) % 3)


def test_internal_composition(bool_m, trop3, cyc3):
    assert internal_composition_b(cyc3, "*", "*", "*") == "0"
    assert internal_composition_b(bool_m, "0", "1", "0") == "m01"
    assert internal_composition_b(trop3, "0", "1", "2") == "id:2"


def test_varpi(bool_m, cyc3):
    assert varpi(cyc3, "2") == "2"
    assert varpi(bool_m, "m01") == "id:1"
    i_like = varpi(cyc3, cyc3.base.id_("*"))
    assert i_like == "0"


def test_varpi_inverse_roundtrip(bool_m, trop4, cyc3):
    for m in (bool_m, trop4, cyc3):
        for f in m.base.mor_ids():
            t = varpi(m, f)
            assert varpi_inv(m, t, m.base.src(f), m.base.dst(f)) == f


def test_internal_pi_bar(bool_m, trop3, cyc3):
    assert internal_pi_bar(cyc3, "*", "*", "*") == "0"
    assert internal_pi_bar(trop3, "1", "1", "2") == "id:0"
    assert internal_pi_bar(bool_m, "1", "1", "1") == "id:1"


def test_iota(bool_m, trop3, cyc3):
    assert iota(cyc3, "*") == "0"
    assert iota(bool_m, "0") == "id:0"
    assert iota(trop3, "2") == "id:2"


def test_self_structures_validate(bool_m, trop3, cyc3):
    from encat.vstruct import check_cylinder, check_path, check_vstructure

    for m in (bool_m, trop3, cyc3):
        vs = self_vstructure(m)
        assert check_vstructure(vs) == []
        assert check_cylinder(vs, self_cylinder(m)) == []
        assert check_path(vs, self_path(m)) == []


def test_self_cylinder_values(trop3, cyc3):
    cyl3 = self_cylinder(trop3)
    # alpha at (2, 2): the unique morphism 2 -> hom(2, 2 (+) 2) = 2 - 2 = 0
    assert cyl3.alpha[("2", "2")] == "m:2:0"
    assert all(v == "0" for v in self_cylinder(cyc3).alpha.values())


def test_self_path_objects(bool_m):
    pth = self_path(bool_m)
    assert pth.path_obj[("0", "1")] == "1"


def test_posetal_phi_tables_are_small_bijections(trop3):
    vs = self_vstructure(trop3)
    for (x, y), table in vs.phi.items():
        assert len(table) <= 1
        assert len(table) == len(trop3.base.hom(x, y))


def test_capability_gates(bool_m):
    from encat.core import CapabilityError

    no_closed = dataclasses.replace(bool_m, closed=None)
    with pytest.raises(CapabilityError):
        transpose_pi(no_closed, "m01", "0", "1")
    with pytest.raises(CapabilityError):
        self_vstructure(no_closed)
    no_sym = dataclasses.replace(bool_m, symmetry=None)
    with pytest.raises(CapabilityError):
        self_path(no_sym)
    with pytest.raises(CapabilityError):
        check_symmetry(no_sym)


def test_engine_bug_channel_fires_on_corrupt_evaluator(monkeypatch, cyc3):
    # the derived phase cross-checks the evaluator against itself: making one
    # internal operation lie must be blamed on the engine, not the input
    import encat.monoidal as mon

    monkeypatch.setattr(mon, "internal_pi_bar", lambda *a, **k: "1")
    with pytest.raises(EngineBugError):
        mon.check_closed(cyc3)


@pytest.mark.parametrize("n", [2, 3])
def test_check_closed_reports_a_broken_associator(n):
    # the derived closed laws rest on the monoidal axioms, which check_closed
    # does not check: their failure is the input's, not the engine's
    bad = mutate(build_cyc(n), "assoc", ("*", "*", "*"), "1")
    monoidal_reports = check_monoidal(bad)
    assert len(monoidal_reports) == 2
    assert check_closed(bad) == monoidal_reports
    # on bool the same kind of fault makes a closed-law side, or a derived
    # law, meet a non-composable path
    for field, key, value in (("tensor_mor", ("id:0", "id:0"), "m01"),
                              ("assoc", ("0", "0", "0"), "id:1")):
        bad = mutate(build_bool(), field, key, value)
        monoidal_reports = check_monoidal(bad)
        assert monoidal_reports
        assert check_closed(bad) == monoidal_reports


def test_internal_pi_bar_is_computed_once_per_argument(monkeypatch):
    import encat.monoidal as mon

    m = build_trop(3)
    first = internal_pi_bar(m, "1", "1", "2")
    calls = []
    real = mon.transpose_pi
    monkeypatch.setattr(mon, "transpose_pi", lambda *a: calls.append(a) or real(*a))
    assert internal_pi_bar(m, "1", "1", "2") == first
    assert calls == []
    internal_pi_bar(m, "0", "1", "2")  # another argument is computed and verified
    assert calls


def test_internal_pi_bar_failures_raise_on_every_call(monkeypatch):
    import encat.monoidal as mon

    # a corrupted evaluation: the transpose has no witness
    bad = mutate_closed(build_trop(3), "ev", ("0", "1"), "m:1:0")
    errors = []
    for _ in range(2):
        with pytest.raises(WitnessError) as exc:
            internal_pi_bar(bad, "0", "0", "1")
        errors.append((str(exc.value), exc.value.count))
    assert errors[0] == errors[1]

    # a transpose that lies only where the characterization asks, at
    # (W, X) = ("0", "1"): the check fails on every call, and nothing is kept
    m = build_bool()
    real = mon.transpose_pi
    monkeypatch.setattr(mon, "transpose_pi",
                        lambda m_, f, x, y: "bogus" if (x, y) == ("0", "1") else real(m_, f, x, y))
    messages = []
    for _ in range(2):
        with pytest.raises(EngineBugError) as exc:
            internal_pi_bar(m, "1", "0", "0")
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    monkeypatch.undo()
    assert internal_pi_bar(m, "1", "0", "0") == internal_pi_bar(build_bool(), "1", "0", "0")


def test_internal_swap_is_kept_per_argument_and_failures_are_not():
    m = build_trop(3)
    assert internal_swap(m, "1", "2", "0") is internal_swap(m, "1", "2", "0")
    # a corrupted evaluation: the internal transpose at (0, 0, 1) has no witness
    bad = mutate_closed(build_trop(3), "ev", ("0", "1"), "m:1:0")
    errors = []
    for _ in range(2):
        with pytest.raises(WitnessError) as exc:
            internal_swap(bad, "0", "0", "1")
        errors.append(str(exc.value))
    assert errors[0] == errors[1]
    assert not bad.__dict__.get("internal_swap")


_NAMES = st.sampled_from(["bool", "trop3", "cyc2", "cyc3"])


def _instance(name):
    return {"bool": build_bool(), "trop3": build_trop(3),
            "cyc2": build_cyc(2), "cyc3": build_cyc(3)}[name]


@settings(max_examples=40, deadline=None)
@given(name=_NAMES, data=st.data())
def test_transpose_bijectivity_property(name, data):
    m = _instance(name)
    base = m.base
    x = data.draw(st.sampled_from(sorted(base.objects)))
    y = data.draw(st.sampled_from(sorted(base.objects)))
    z = data.draw(st.sampled_from(sorted(base.objects)))
    for f in base.hom(m.tobj(x, y), z):
        g = transpose_pi(m, f, x, y)
        assert transpose_pi_inv(m, g, y, z) == f
    for g in base.hom(x, m.hom_obj(y, z)):
        assert transpose_pi(m, transpose_pi_inv(m, g, y, z), x, y) == g
