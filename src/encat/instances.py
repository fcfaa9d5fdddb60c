"""Built-in decidable instances used as the universal test bed.

Three monoidal families cover the interesting hom-set shapes:

* ``bool`` -- the two-element lattice under meet; posetal, closed, symmetric.
* ``trop(n)`` -- {0..n-1} under capped addition, morphisms go downward;
  posetal quantale with truncated subtraction as hom.
* ``cyc(n)`` -- one object with n parallel morphisms adding modulo n; the
  non-posetal family, where the transpose is a permutation of a real hom-set.

Module coverage comes from a finite poset acted on by ``bool`` (tensor picks
the element or bottom, cotensor the element or top) and from any closed
symmetric base acting on itself.

All builders are strict: every structure morphism is an identity (or the
group unit).  The checkers never assume this; strictness is just what keeps
hand-computed expected values tractable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    FinCategory,
    FunctorData,
    Mor,
    Obj,
    ParameterError,
    opposite_category,
    pair_id,
    product_category,
    rename_category,
)
from .monoidal import (
    ClosedData,
    MonoidalData,
    SymmetryData,
    hom_functor,
    transpose_pi,
    transpose_pi_inv,
)
from .vmodule import ClosedVModuleData, TensorClosedModuleData, VModuleData

DIAMOND_RELATION = (("bot", "x"), ("bot", "y"), ("x", "top"), ("y", "top"))


def _posetal_category(objects: list[Obj], leq) -> FinCategory:
    """The category of a finite preorder: at most one morphism per pair."""

    def arrow(a: Obj, b: Obj) -> Mor:
        return f"id:{a}" if a == b else f"m:{a}:{b}"

    morphisms = [(arrow(a, b), a, b) for a in objects for b in objects if a == b or leq(a, b)]
    identity = {a: f"id:{a}" for a in objects}
    out: dict[Obj, list] = {}  # the morphisms out of each object, in order
    for g, b, c in morphisms:
        out.setdefault(b, []).append((g, c))
    comp = {(f, g): arrow(a, c) for f, a, b in morphisms for g, c in out[b]}
    return FinCategory(tuple(sorted(objects)), tuple(sorted(morphisms)), identity, comp)


def _posetal_arrow(cat: FinCategory, a: Obj, b: Obj) -> Mor:
    hom = cat.hom(a, b)
    if len(hom) != 1:
        raise ParameterError(f"expected a unique morphism {a!r} -> {b!r}")
    return hom[0]


def _strict_monoidal(cat: FinCategory, tensor: dict, unit: Obj,
                     hom_obj: dict) -> MonoidalData:
    """Posetal monoidal structure: every component is the unique arrow."""
    objs, ends, ident = cat.objects, sorted(cat.morphisms), cat.identity
    # (src, dst) -> its arrow; a missing or ambiguous one is _posetal_arrow's error
    unique = {hom: h[0] for hom, h in cat._homs.items() if len(h) == 1}
    tensor_mor = {(f, g): unique.get(k := (tensor[(a, c)], tensor[(b, d)]))
                  or _posetal_arrow(cat, *k) for f, a, b in ends for g, c, d in ends}
    assoc = {(x, y, z): ident[tensor[(tensor[(x, y)], z)]]
             for x in objs for y in objs for z in objs}
    lunit = {x: ident[x] for x in objs}
    runit = dict(lunit)
    braid = {(x, y): ident[tensor[(x, y)]] for x in objs for y in objs}
    ev = {(y, z): unique.get(k := (tensor[(hom_obj[(y, z)], y)], z)) or _posetal_arrow(cat, *k)
          for y in objs for z in objs}
    return MonoidalData(
        base=cat, tensor_obj=tensor, tensor_mor=tensor_mor, unit=unit,
        assoc=assoc, lunit=lunit, runit=runit,
        symmetry=SymmetryData(braid=braid),
        closed=ClosedData(hom_obj=hom_obj, ev=ev))


def build_bool() -> MonoidalData:
    """The two-element meet lattice with implication as hom."""
    cat = _posetal_category(["0", "1"], lambda a, b: a == "0" and b == "1")
    # the single non-identity morphism keeps its traditional short name
    cat = rename_category(cat, mor_map={"m:0:1": "m01"})
    objs = cat.objects
    tensor = {(a, b): "1" if a == "1" and b == "1" else "0" for a in objs for b in objs}
    hom_obj = {(a, b): "0" if a == "1" and b == "0" else "1" for a in objs for b in objs}
    return _strict_monoidal(cat, tensor, "1", hom_obj)


def build_trop(n: int) -> MonoidalData:
    """{0..n-1} under capped addition; a morphism a -> b exists iff a >= b."""
    if n < 2:
        raise ParameterError("capped-addition instance needs n >= 2")
    objects = [str(i) for i in range(n)]
    cat = _posetal_category(objects, lambda a, b: int(a) >= int(b))
    tensor = {(a, b): str(min(int(a) + int(b), n - 1))
              for a in objects for b in objects}
    hom_obj = {(a, b): str(max(int(b) - int(a), 0))
               for a in objects for b in objects}
    return _strict_monoidal(cat, tensor, "0", hom_obj)


def build_cyc(n: int) -> MonoidalData:
    """One object whose endomorphisms add modulo n; hom-sets of size n."""
    if n < 1:
        raise ParameterError("modular-addition instance needs n >= 1")
    star = "*"
    morphisms = tuple((str(i), star, star) for i in range(n))
    comp = {(str(i), str(j)): str((i + j) % n) for i in range(n) for j in range(n)}
    cat = FinCategory((star,), morphisms, {star: "0"}, comp)
    tensor_mor = {(str(i), str(j)): str((i + j) % n) for i in range(n) for j in range(n)}
    return MonoidalData(
        base=cat,
        tensor_obj={(star, star): star},
        tensor_mor=tensor_mor,
        unit=star,
        assoc={(star, star, star): "0"},
        lunit={star: "0"},
        runit={star: "0"},
        symmetry=SymmetryData(braid={(star, star): "0"}),
        closed=ClosedData(hom_obj={(star, star): star}, ev={(star, star): "0"}))


def _poset_order(relation) -> tuple[tuple[Obj, ...], dict]:
    pairs = set(tuple(p) for p in relation)
    elements = sorted({a for p in pairs for a in p})
    leq = {(a, a) for a in elements} | pairs
    changed = True
    while changed:
        changed = False
        for a, b in list(leq):
            for c, d in list(leq):
                if b == c and (a, d) not in leq:
                    leq.add((a, d))
                    changed = True
    for a, b in leq:
        if a != b and (b, a) in leq:
            raise ParameterError(f"relation is not antisymmetric at ({a!r}, {b!r})")
    bottoms = [a for a in elements if all((a, b) in leq for b in elements)]
    tops = [a for a in elements if all((b, a) in leq for b in elements)]
    if len(bottoms) != 1 or len(tops) != 1:
        raise ParameterError("relation needs a unique bottom and a unique top")
    return tuple(elements), {"leq": leq, "bot": bottoms[0], "top": tops[0]}


def build_poset_module(relation=DIAMOND_RELATION) -> ClosedVModuleData:
    """A finite bounded poset as a closed module over the two-element lattice.

    The true coordinate acts as the identity; the false coordinate tensors to
    the bottom and cotensors to the top.
    """
    elements, order = _poset_order(relation)
    leq, bot, top = order["leq"], order["bot"], order["top"]
    v = build_bool()
    vbase = v.base
    s = _posetal_category(list(elements), lambda a, b: (a, b) in leq)

    def act(k: Obj, x: Obj) -> Obj:
        return x if k == "1" else bot

    def cot(k: Obj, x: Obj) -> Obj:
        return x if k == "1" else top

    action = FunctorData(
        srcCat=product_category(vbase, s), dstCat=s,
        onObjects={pair_id(k, x): act(k, x) for k in vbase.objects for x in elements},
        onMorphisms={pair_id(u, w): _posetal_arrow(
            s, act(vbase.src(u), s.src(w)), act(vbase.dst(u), s.dst(w)))
            for u in vbase.mor_ids() for w in s.mor_ids()})
    module = VModuleData(
        baseV=v, baseS=s, action=action,
        assoc={(k, l, x): s.id_(act(v.tobj(k, l), x))
               for k in vbase.objects for l in vbase.objects for x in elements},
        lunit={x: s.id_(x) for x in elements})

    def hom(x: Obj, y: Obj) -> Obj:
        return "1" if (x, y) in leq else "0"

    s_op = opposite_category(s)
    hom_fn = FunctorData(
        srcCat=product_category(s_op, s), dstCat=vbase,
        onObjects={pair_id(x, y): hom(x, y) for x in elements for y in elements},
        onMorphisms={pair_id(f, g): _posetal_arrow(
            vbase, hom(s.dst(f), s.src(g)), hom(s.src(f), s.dst(g)))
            for f in s.mor_ids() for g in s.mor_ids()})
    phi = {}
    for k in vbase.objects:
        for x in elements:
            for y in elements:
                phi[(k, x, y)] = {f: _posetal_arrow(vbase, k, hom(x, y))
                                  for f in s.hom(act(k, x), y)}

    cotensor = FunctorData(
        srcCat=product_category(vbase, s_op), dstCat=s_op,
        onObjects={pair_id(k, x): cot(k, x) for k in vbase.objects for x in elements},
        onMorphisms={pair_id(u, w): _posetal_arrow(
            s, cot(vbase.dst(u), s.src(w)), cot(vbase.src(u), s.dst(w)))
            for u in vbase.mor_ids() for w in s.mor_ids()})
    psi = {}
    for k in vbase.objects:
        for x in elements:
            for y in elements:
                psi[(k, x, y)] = {g: _posetal_arrow(vbase, k, hom(y, x))
                                  for g in s.hom(y, cot(k, x))}

    tc = TensorClosedModuleData(module=module, homFunctor=hom_fn, phi=phi)
    return ClosedVModuleData(tensorClosed=tc, cotensor=cotensor, psi=psi)


def module_self_tensorclosed(m: MonoidalData) -> TensorClosedModuleData:
    """A closed monoidal category acting on itself, tensor side only."""
    m.require_closed()
    base = m.base
    action = FunctorData(
        srcCat=product_category(base, base), dstCat=base,
        onObjects={pair_id(k, x): m.tobj(k, x)
                   for k in base.objects for x in base.objects},
        onMorphisms={pair_id(u, v): m.tmor(u, v)
                     for u in base.mor_ids() for v in base.mor_ids()})
    module = VModuleData(baseV=m, baseS=base, action=action,
                         assoc=dict(m.assoc), lunit=dict(m.lunit))
    phi = {}
    for k in base.objects:
        for x in base.objects:
            for y in base.objects:
                phi[(k, x, y)] = {f: transpose_pi(m, f, k, x)
                                  for f in base.hom(m.tobj(k, x), y)}
    return TensorClosedModuleData(module=module, homFunctor=hom_functor(m), phi=phi)


def module_self(m: MonoidalData) -> ClosedVModuleData:
    """A closed symmetric monoidal category as a closed module over itself:
    the cotensors are the internal homs, read off the hom functor's tables."""
    m.require_symmetry()
    m.require_closed()
    base = m.base
    tc = module_self_tensorclosed(m)
    base_op = opposite_category(base)
    cotensor = FunctorData(
        srcCat=product_category(base, base_op), dstCat=base_op,
        onObjects=tc.homFunctor.onObjects, onMorphisms=tc.homFunctor.onMorphisms)
    psi = {}
    for k in base.objects:
        for x in base.objects:
            for y in base.objects:
                table = {}
                for g in base.hom(y, m.hom_obj(k, x)):
                    flat = transpose_pi_inv(m, g, k, x)
                    table[g] = transpose_pi(
                        m, base.compose(m.braid(k, y), flat), k, y)
                psi[(k, x, y)] = table
    return ClosedVModuleData(tensorClosed=tc, cotensor=cotensor, psi=psi)


@dataclass(frozen=True)
class InstanceSpec:
    """A parsed builtin-instance name."""

    name: str
    kind: str
    n: int | None = None
    base: "InstanceSpec | None" = None


def parse_instance_name(text: str) -> InstanceSpec:
    t = text.strip().lower()
    if t == "bool":
        return InstanceSpec(name="bool", kind="bool")
    if t == "poset-diamond":
        return InstanceSpec(name="poset-diamond", kind="poset")
    for prefix in ("trop", "cyc"):
        if t.startswith(prefix):
            rest = t[len(prefix):]
            if rest.startswith("(") and rest.endswith(")"):
                rest = rest[1:-1]
            if rest.isdigit():
                return InstanceSpec(name=f"{prefix}({int(rest)})", kind=prefix,
                                    n=int(rest))
    if t.startswith("self(") and t.endswith(")"):
        inner = parse_instance_name(t[5:-1])
        if inner.kind in ("bool", "trop", "cyc"):
            return InstanceSpec(name=f"self({inner.name})", kind="self", base=inner)
    raise ParameterError(
        f"unknown instance {text!r}; known: bool, trop(N), cyc(N), "
        "poset-diamond, self(BASE)")


def build_instance(spec: InstanceSpec):
    """Build a named instance; returns (document kind, structure)."""
    if spec.kind == "bool":
        return "monoidal", build_bool()
    if spec.kind == "trop":
        return "monoidal", build_trop(spec.n)
    if spec.kind == "cyc":
        return "monoidal", build_cyc(spec.n)
    if spec.kind == "poset":
        return "closedmodule", build_poset_module()
    if spec.kind == "self":
        _, base = build_instance(spec.base)
        return "closedmodule", module_self(base)
    raise ParameterError(f"unknown instance kind {spec.kind!r}")
