import dataclasses

import pytest

import encat.instances
from encat.core import FinCategory, ParameterError, structural_equal, validate_category
from encat.instances import (
    DIAMOND_RELATION,
    InstanceSpec,
    _posetal_arrow,
    build_bool,
    build_cyc,
    build_instance,
    build_poset_module,
    build_trop,
    parse_instance_name,
)
from encat.monoidal import (
    ClosedData,
    MonoidalData,
    SymmetryData,
    check_closed,
    check_monoidal,
    check_symmetry,
    transpose_pi,
)
from encat.vmodule import check_closed_module
from encat.equiv import bimodule_completion


def test_bool_tables(bool_m):
    assert bool_m.hom_obj("1", "0") == "0"
    assert bool_m.hom_obj("0", "0") == "1"
    assert bool_m.hom_obj("0", "1") == "1"
    assert check_closed(bool_m) == []


def test_trop_tables(trop3):
    # brute-force oracle for the hom object: least x with x + a capped >= b
    for a in range(3):
        for b in range(3):
            witness = min(x for x in range(3) if min(x + a, 2) >= b)
            assert trop3.hom_obj(str(a), str(b)) == str(witness)
    assert trop3.tobj("2", "2") == "2"
    for a in trop3.base.objects:
        assert trop3.tobj("0", a) == a


def test_cyc_tables(cyc1, cyc3):
    for f in cyc3.base.mor_ids():
        assert transpose_pi(cyc3, f, "*", "*") == f
    assert check_monoidal(cyc1) == []
    assert check_symmetry(cyc1) == []
    assert check_closed(cyc1) == []
    assert len(cyc1.base.morphisms) == 1


def test_parameter_errors():
    with pytest.raises(ParameterError):
        build_trop(1)
    with pytest.raises(ParameterError):
        build_cyc(0)
    with pytest.raises(ParameterError):
        build_poset_module((("a", "b"), ("b", "a")))
    with pytest.raises(ParameterError):
        build_poset_module((("a", "b"), ("a", "c")))  # no top


def test_poset_module_tables(poset_cm):
    tc = poset_cm.tensorClosed
    mod = tc.module
    s = mod.baseS
    # the false coordinate tensors to the bottom; adjunction hom-sets match
    assert mod.act_obj("0", "x") == "bot"
    assert len(s.hom(mod.act_obj("0", "x"), "y")) == 1
    assert len(mod.baseV.base.hom("0", tc.hom_obj("x", "y"))) == 1
    assert mod.act_obj(mod.baseV.tobj("0", "1"), "x") == \
        mod.act_obj("0", mod.act_obj("1", "x"))
    assert all(s.is_identity(v) for v in mod.lunit.values())
    assert check_closed_module(poset_cm) == []


def test_module_self(bool_m, trop3, self_trop3, self_cyc3, self_bool):
    for x in trop3.base.objects:
        assert self_trop3.cot_obj("0", x) == x
    for table in self_cyc3.psi.values():
        assert all(k == v for k, v in table.items())
    bm = bimodule_completion(self_bool)
    from encat.vmodule import check_closed_bimodule

    assert check_closed_bimodule(bm) == []


def test_builtins_are_strict(bool_m, trop3, trop4, cyc1, cyc2, cyc3):
    # every structure component is an identity (the group unit in the
    # one-object family); this is what keeps expected values hand-computable
    for m in (bool_m, trop3, trop4, cyc1, cyc2, cyc3):
        for v in list(m.assoc.values()) + list(m.lunit.values()) \
                + list(m.runit.values()) + list(m.symmetry.braid.values()):
            assert m.base.is_identity(v)


def test_parse_instance_name():
    assert parse_instance_name("bool").kind == "bool"
    assert parse_instance_name("trop(4)") == InstanceSpec(name="trop(4)",
                                                          kind="trop", n=4)
    assert parse_instance_name("TROP3").n == 3
    assert parse_instance_name("cyc(2)").n == 2
    assert parse_instance_name("poset-diamond").kind == "poset"
    spec = parse_instance_name("self(trop(3))")
    assert spec.kind == "self" and spec.base.n == 3
    with pytest.raises(ParameterError):
        parse_instance_name("octahedron")


def test_build_instance_kinds():
    kind, data = build_instance(parse_instance_name("bool"))
    assert kind == "monoidal" and validate_category(data.base) == []
    kind, data = build_instance(parse_instance_name("self(cyc(3))"))
    assert kind == "closedmodule"
    assert check_closed_module(data) == []


def test_builders_are_deterministic():
    assert structural_equal(build_bool(), build_bool())
    assert structural_equal(build_poset_module(DIAMOND_RELATION),
                            build_poset_module())


# The posetal builders as first written, entry by entry: every pair of
# morphisms tested for a composite, every arrow looked up on its own.
def per_entry_posetal_category(objects, leq) -> FinCategory:
    def arrow(a, b):
        return f"id:{a}" if a == b else f"m:{a}:{b}"

    morphisms = []
    for a in objects:
        for b in objects:
            if a == b or leq(a, b):
                morphisms.append((arrow(a, b), a, b))
    identity = {a: f"id:{a}" for a in objects}
    comp = {}
    for f, a, b in morphisms:
        for g, b2, c in morphisms:
            if b == b2:
                comp[(f, g)] = arrow(a, c)
    return FinCategory(tuple(sorted(objects)), tuple(sorted(morphisms)), identity, comp)


def per_entry_strict_monoidal(cat, tensor, unit, hom_obj) -> MonoidalData:
    objs = cat.objects
    ends = [(f, cat.src(f), cat.dst(f)) for f in cat.mor_ids()]
    tensor_mor = {(f, g): _posetal_arrow(cat, tensor[(a, c)], tensor[(b, d)])
                  for f, a, b in ends for g, c, d in ends}
    assoc = {(x, y, z): cat.id_(tensor[(tensor[(x, y)], z)])
             for x in objs for y in objs for z in objs}
    lunit = {x: cat.id_(x) for x in objs}
    runit = {x: cat.id_(x) for x in objs}
    braid = {(x, y): cat.id_(tensor[(x, y)]) for x in objs for y in objs}
    ev = {(y, z): _posetal_arrow(cat, tensor[(hom_obj[(y, z)], y)], z)
          for y in objs for z in objs}
    return MonoidalData(
        base=cat, tensor_obj=tensor, tensor_mor=tensor_mor, unit=unit,
        assoc=assoc, lunit=lunit, runit=runit,
        symmetry=SymmetryData(braid=braid),
        closed=ClosedData(hom_obj=hom_obj, ev=ev))


def entries(value):
    """``value`` with every mapping as its list of entries, in insertion order."""
    if dataclasses.is_dataclass(value):
        return [(f.name, entries(getattr(value, f.name))) for f in dataclasses.fields(value)]
    if isinstance(value, dict):
        return [(k, entries(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [entries(v) for v in value]
    return value


POSETAL_BUILDS = [("bool", build_bool), ("poset-diamond", build_poset_module),
                  *((f"trop({n})", lambda n=n: build_trop(n)) for n in range(2, 11))]


@pytest.mark.parametrize("name, build", POSETAL_BUILDS, ids=[n for n, _ in POSETAL_BUILDS])
def test_posetal_builders_fill_the_per_entry_tables(monkeypatch, name, build):
    """The lookups fill every table of the posetal builtins with the entries
    of the per-entry builders, in the same insertion order."""
    got = build()
    monkeypatch.setattr(encat.instances, "_posetal_category", per_entry_posetal_category)
    monkeypatch.setattr(encat.instances, "_strict_monoidal", per_entry_strict_monoidal)
    assert entries(got) == entries(build())


def test_a_missing_or_ambiguous_arrow_is_a_parameter_error():
    cat = encat.instances._posetal_category(["0", "1"], lambda a, b: a == "0" and b == "1")
    with pytest.raises(ParameterError, match="unique morphism '1' -> '0'"):
        encat.instances._strict_monoidal(cat, {(a, b): a for a in "01" for b in "01"}, "0",
                                         {(a, b): "1" for a in "01" for b in "01"})
    two = dataclasses.replace(cat, morphisms=(*cat.morphisms, ("m2", "0", "1")))
    with pytest.raises(ParameterError, match="unique morphism '0' -> '1'"):
        encat.instances._strict_monoidal(two, {(a, b): b for a in "01" for b in "01"}, "0",
                                         {(a, b): b for a in "01" for b in "01"})
