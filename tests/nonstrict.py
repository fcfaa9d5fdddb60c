"""Non-strict test instances, shared by the gate tests: a monoidal
category whose associators and unitors are isomorphisms between distinct
objects, and the module of a monoidal category acting on itself."""

from itertools import product

from encat.core import FinCategory, FunctorData, pair_id, product_category
from encat.monoidal import MonoidalData
from encat.vmodule import VModuleData


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


def regular_module(m: MonoidalData) -> VModuleData:
    """``m`` acting on its own base by its tensor, with its associator and
    left unitor as the module structure."""
    base = m.base
    action = FunctorData(
        product_category(base, base), base,
        {pair_id(x, y): m.tensor_obj[(x, y)] for x, y in product(base.objects, repeat=2)},
        {pair_id(f, g): m.tensor_mor[(f, g)] for f, g in product(base.mor_ids(), repeat=2)})
    return VModuleData(baseV=m, baseS=base, action=action, assoc=dict(m.assoc),
                       lunit=dict(m.lunit))
