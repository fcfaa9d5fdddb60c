"""Textual document format for every structure kind.

A document is a JSON object ``{"format": "encat/1", "kind": ..., "body": ...}``.
:data:`SCHEMA` declares each kind once, as the type it denotes and its fields
(document key, attribute, column spec); ``parse`` and ``serialize`` both walk
it, and every table is written in sorted order, so the bytes are canonical.
"""

from __future__ import annotations

import json
from dataclasses import field, fields
from itertools import chain
from json.encoder import encode_basestring_ascii as _esc
from operator import itemgetter
from typing import Any

from .core import (EncatError, FinCategory, FunctorData, MalformedReferenceError,
                   Record as _Record, opposite_category, pair_id, product_category)
from .monoidal import ClosedData, MonoidalData, SymmetryData
from .vcat import VCategoryData
from .vmodule import (ClosedBimoduleData, ClosedVModuleData, TensorClosedModuleData,
                      VModuleData)
from .vstruct import CylinderAssignment, PathAssignment, VStructureData

FORMAT = "encat/1"
_STR, _LIST, _DICT, _SEQ, _SCALAR = {str}, {list}, {dict}, {list, tuple}, {str, int, type(None)}


class DocumentError(EncatError):
    """Base class for document-layer failures, carrying a source position."""

    def __init__(self, message: str, line: int = 0, col: int = 0, token: str = ""):
        place = f" at line {line}, column {col}" if line else ""
        what = f" (token {token!r})" if token else ""
        super().__init__(f"{message}{place}{what}")
        self.line = line
        self.col = col
        self.token = token


class ParseError(DocumentError):
    pass


class UnresolvedReferenceError(DocumentError):
    pass


class DuplicateIdError(DocumentError):
    pass


class VersionMismatchError(DocumentError):
    pass


class Document(_Record):
    """A parsed document: its kind and the structure it denotes."""

    kind: str
    data: Any


def _position_of(text: str, token: str) -> tuple[int, int]:
    """Line/column of the first occurrence of a token in the source."""
    idx = text.find(json.dumps(token))
    if idx < 0:
        idx = text.find(token)
    if idx < 0:
        return 1, 1
    line = text.count("\n", 0, idx) + 1
    col = idx - (text.rfind("\n", 0, idx) + 1) + 1
    return line, col


def split_pair_id(pid: str) -> tuple[str, str]:
    """Inverse of :func:`encat.core.pair_id`, aware of nested pairs."""
    inner = pid[1:-1]
    i = inner.find(",")
    while i >= 0 and inner.count("(", 0, i) != inner.count(")", 0, i):  # inside a nested pair
        i = inner.find(",", i + 1)
    if i < 0 or not (pid.startswith("(") and pid.endswith(")")):
        raise ParseError(f"not a pair id: {pid!r}")
    return inner[:i], inner[i + 1:]


def dumps(value: Any) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for a tree of dicts with string keys,
    lists, strings, numbers and ``None``, without the stdlib's pure-Python indenting encoder."""
    return "".join(_pieces(value, "\n"))


def _pieces(value: Any, nl: str):
    """``value``'s text from a line indented as ``nl``, in pieces joined once: a dict
    entry by entry (a level of its own would copy the text below it), else by ``_texts``."""
    if type(value) is dict and value:
        for i, (k, v) in enumerate(sorted(value.items())):
            yield ("," if i else "{") + nl + "  " + _esc(k) + ": "
            yield from _pieces(v, nl + "  ")
        yield nl + "}"
    else:
        yield _texts([value], nl)[0]


def _texts(values: list, nl: str) -> list:
    """The texts of ``values``, each indented as ``nl``.  Strings (through the C
    escaper), ``None`` and plain ints are written by one map, tables of strings by
    ``_joined``.  Other lists, or dicts with one key order, fill their templates (one
    per list length; rows of one width share one) by one ``%`` over their cells' texts:
    the rows' or the dicts' found by columns, the cells of ragged lists found together."""
    kinds, inner = set(map(type, values)), nl + "  "
    if kinds <= _STR:
        return list(map(_esc, values))
    if kinds <= _SCALAR:  # not bool or float: json.dumps writes those
        return [_esc(v) if type(v) is str else "null" if v is None else repr(v) for v in values]
    if kinds <= _SEQ:
        rows, at = list(chain.from_iterable(values)), inner + "  "
        table = set(map(type, rows)) <= _SEQ and len(set(map(len, rows))) == 1 and rows[0]
        if table:
            try:  # the distinct cells, joined
                cells = "".join(set(chain.from_iterable(rows)))
            except TypeError:  # rows holding lists or dicts fill the templates below
                pass
            else:
                return _joined(values, nl, cells)
        row = "[" + at + ("," + at).join(["%s"] * len(rows[0])) + inner + "]" if table else "%s"
        shapes = {n: "[" + inner + ("," + inner).join([row] * n) + nl + "]" if n else "[]"
                  for n in set(map(len, values))}
        texts = map(shapes.__getitem__, map(len, values))
        if not table:  # ragged lists: their cells' texts found together
            return ("\0".join(texts) % tuple(_texts(rows, inner))).split("\0")
    elif kinds == _DICT and len(set(map(tuple, values))) == 1:
        keys, at = sorted(values[0]), inner
        rows = list(zip(*[map(itemgetter(k), values) for k in keys]))
        texts = ["{" + ",".join(f"{inner}{_esc(k).replace('%', '%%')}: %s" for k in keys)
                 + nl + "}" if keys else "{}"] * len(values)
    else:  # values of several kinds or key orders, bools and floats
        return [json.dumps(v) if type(v) not in _SCALAR and isinstance(v, (int, float))
                else "".join(_pieces(v, nl)) for v in values]
    try:
        cells = tuple(map(_esc, chain.from_iterable(rows)))
    except TypeError:
        cells = tuple(chain.from_iterable(zip(*[_texts(list(col), at) for col in zip(*rows)])))
    return ("\0".join(texts) % cells).split("\0")  # no escaped text holds a NUL


def _joined(tables: list, nl: str, cells: str) -> list:
    """The texts of tables of equal-width rows of strings, ``cells`` their distinct cells
    joined: a row is one join, a table one more; cells are escaped only if one needs it."""
    inner, at, q = nl + "  ", nl + "    ", '"'
    if not (cells.isascii() and cells.isprintable()) or '"' in cells or "\\" in cells:
        tables, q = [[[*map(_esc, row)] for row in t] for t in tables], ""
    cell, row = q + "," + at + q, q + inner + "]," + inner + "[" + at + q
    ends = "[" + inner + "[" + at + q, q + inner + "]" + nl + "]"  # around the rows, one copy
    return [row.join(map(cell.join, t)).join(ends) if t else "[]" for t in tables]


class _Reader(_Record):
    """Schema-checking view over parsed JSON, with positioned diagnostics."""

    text: str
    categories: list = field(default_factory=list)  # equal tables are read as one category

    def fail(self, exc_type, message: str, token: str = "") -> None:
        line, col = _position_of(self.text, token) if token else (0, 0)
        raise exc_type(message, line=line, col=col, token=token)

    def expect(self, obj: Any, key: str, kind: type, where: str) -> Any:
        if not isinstance(obj, dict) or key not in obj:
            self.fail(ParseError, f"{where}: missing field {key!r}", key)
        value = obj[key]
        if not isinstance(value, kind):
            self.fail(ParseError, f"{where}: field {key!r} must be {kind.__name__}", key)
        return value

    def ids(self, cells, where: str, token: str) -> None:
        """The one id rule: every id is a string."""
        if not set(map(type, cells)) <= _STR:
            self.fail(ParseError, f"{where}: ids must be strings", token)

    def rows(self, rows: list, arity: int, where: str, tail: type = str,
             token: str = "") -> dict:
        """Rows of ``arity`` string ids then one ``tail`` cell, checked by columns
        and keyed by the ids (a lone id for arity 1); a key's repeat is an error."""
        token = token or where.rpartition(".")[2]
        shaped = set(map(type, rows)) <= _LIST and set(map(len, rows)) <= {arity + 1}
        cols = list(zip(*rows)) if shaped and rows else [()] * (arity + 1)
        if not (shaped and set(map(type, cols[arity])) <= {tail}):
            self.fail(ParseError, f"{where}: rows must be {arity} ids and a "
                                  f"{tail.__name__}", token)
        self.ids(chain.from_iterable(cols[:arity]), where, token)
        keys = cols[0] if arity == 1 else list(zip(*cols[:arity]))
        out = dict(zip(keys, cols[arity]))
        if len(out) < len(rows):
            seen: set = set()
            bad = next(k for k in keys if k in seen or seen.add(k))
            self.fail(DuplicateIdError, f"{where}: duplicate entry", bad if arity == 1 else bad[0])
        return out


class _Column:
    """How one field is held in JSON: the type of its cell, ``read`` from
    that cell and ``write`` back to it."""

    json: type = str

    def field(self, r: _Reader, obj: dict, key: str, where: str, ctx: dict) -> Any:
        return self.read(r, r.expect(obj, key, self.json, where), f"{where}.{key}", ctx)


class Id(_Column):
    """A string id: an object or a morphism of the scope category, which is
    the ``base`` field of the innermost enclosing record, or unresolved."""

    def __init__(self, kind: str = "", known=None):
        self.kind, self.known = kind, known

    def read(self, r, value, where, ctx):
        self.check(r, (value,), where, ctx)
        return value

    def check(self, r: _Reader, ids, where: str, ctx: dict) -> None:
        if self.known is not None:
            known = self.known(ctx["base"])
            if set(ids).difference(known):  # a collection: read again to name the first
                bad = next(v for v in ids if v not in known)
                r.fail(UnresolvedReferenceError,
                       f"{where}: {bad!r} is not a declared {self.kind}", bad)

    def write(self, value):
        return value


OBJ = Id("object", lambda cat: cat._objs)
MOR = Id("morphism", lambda cat: cat._mors)
ANY = Id()


class IdList(_Column):
    """A list of string ids, held sorted."""

    json = list

    def read(self, r, ids, where, ctx):
        r.ids(ids, where, where.rpartition(".")[2])
        return tuple(sorted(ids))

    def write(self, ids):
        return sorted(ids)


class Table(_Column):
    """An id table: ``arity`` key columns and a value column, each an
    :class:`Id`; a ``Table`` value makes every row a bijection, held as its
    table of pairs."""

    json = list

    def __init__(self, arity: int, keys: Id = ANY, value: _Column = ANY):
        self.arity, self.keys, self.value = arity, keys, value

    def read(self, r, rows, where, ctx):
        out = r.rows(rows, self.arity, where, self.value.json)
        self.keys.check(r, out if self.arity == 1 else list(chain.from_iterable(out)), where, ctx)
        if isinstance(self.value, Table):
            return dict(zip(out, self.value.read_all(r, out.values(), where, ctx)))
        self.value.check(r, out.values(), where, ctx)
        return out

    def read_all(self, r, tables, where, ctx) -> list:
        """``read`` of many tables of unchecked ids, in bulk if all are well formed."""
        rows = list(chain.from_iterable(tables))
        if (self.arity == 1 and self.keys is ANY and self.value is ANY
                and set(map(type, rows)) <= _LIST and set(map(len, rows)) <= {2}
                and set(map(type, chain.from_iterable(rows))) <= _STR):
            out = list(map(dict, tables))
            if sum(map(len, out)) == len(rows):
                return out
        return [self.read(r, t, where, ctx) for t in tables]

    def write(self, table):
        # an id cell (a JSON string) is written as it is; a bijection writes its pair tables
        values = table.values() if self.value.json is str else map(self.value.write, table.values())
        return sorted(zip(*(zip(*table) if self.arity > 1 else (table,)), values))


class Record(_Column):
    """A JSON object read field by field into ``type`` (a tuple when the
    attributes are indices); a ``null`` record may be absent.  Each field
    sees the fields read before it, here and in the enclosing records."""

    json = dict

    def __init__(self, type: Any, *fields: tuple[str, Any, _Column], null: bool = False):
        self.type, self.fields, self.null = type, fields, null

    def field(self, r, obj, key, where, ctx):
        if self.null:
            value = obj.get(key)
            return None if value is None else self.read(r, value, f"{where}.{key}", ctx)
        return super().field(r, obj, key, where, ctx)

    def read(self, r, obj, where, ctx):
        values = dict(ctx)
        for key, attr, spec in self.fields:
            values[attr] = spec.field(r, obj, key, where, values)
        args = {attr: values[attr] for _, attr, _ in self.fields}
        return tuple(args.values()) if self.type is tuple else self.type(**args)

    def write(self, data):
        if data is None:
            return None
        get = data.__getitem__ if self.type is tuple else data.__getattribute__
        return {key: spec.write(get(attr)) for key, attr, spec in self.fields}


class Functor(_Column):
    """A functor's object and morphism tables, keyed by pair ids, between the
    categories that ``categories`` derives from the fields read before it."""

    json = dict
    TABLES = (("on_objects", "onObjects", Table(2, value=OBJ)),
              ("on_morphisms", "onMorphisms", Table(2, value=MOR)))

    def __init__(self, categories):
        self.categories = categories

    def read(self, r, obj, where, ctx):
        try:
            src, dst = self.categories(ctx)
        except MalformedReferenceError as exc:  # a category without an identity
            r.fail(ParseError, f"{where}: {exc}", where.rpartition(".")[2])
        tables = {attr: {pair_id(*k): v for k, v in
                         spec.field(r, obj, key, where, {"base": dst}).items()}
                  for key, attr, spec in self.TABLES}
        return FunctorData(srcCat=src, dstCat=dst, **tables)

    def write(self, fn):
        return {key: spec.write(dict(zip(map(split_pair_id, table), table.values())))
                for key, attr, spec in self.TABLES for table in (getattr(fn, attr),)}


class Assignment(_Column):
    """Cylinder or path rows ``[K, X, {obj, elem, family}]``: an object and
    an element per (K, X), and a family member per (K, X, Y)."""

    json = list
    FAMILY = Table(1)

    def __init__(self, type: type, elem: str, family: str):
        self.type, self.elem, self.family = type, elem, family

    def read(self, r, rows, where, ctx):
        objs, elems, members = {}, {}, {}
        for kx, cell in r.rows(rows, 2, where, dict, token="obj").items():
            objs[kx] = r.expect(cell, "obj", str, where)
            elems[kx] = r.expect(cell, self.elem, str, where)
            members.update({(*kx, y): v for y, v in
                            self.FAMILY.field(r, cell, self.family, where, ctx).items()})
        return self.type(objs, elems, members)

    def write(self, data):
        objs, elems, members = (getattr(data, f.name) for f in fields(data))
        families: dict = {}
        for (k, x, y), v in members.items():
            families.setdefault((k, x), {})[y] = v
        return sorted(([k, x, {"obj": obj, self.elem: elems[(k, x)],
                               self.family: self.FAMILY.write(families.get((k, x), {}))}]
                       for (k, x), obj in objs.items()), key=lambda row: row[:2])


class _FinCategory(_Column):
    """Objects, ``{id, src, dst}`` morphism rows, identities and composites;
    every id resolves in the category itself."""

    json = dict
    COMP = Table(2, MOR, MOR)

    def read(self, r, obj, where, ctx):
        objects = IdList().field(r, obj, "objects", where, ctx)
        dups = sorted(o for o in set(objects) if objects.count(o) > 1)
        if dups:
            r.fail(DuplicateIdError, f"{where}: duplicate object id", dups[0])
        morphisms = {}
        for row in r.expect(obj, "morphisms", list, where):
            if not isinstance(row, dict) or set(row) != {"id", "src", "dst"}:
                r.fail(ParseError, f"{where}: morphism rows need id/src/dst", "morphisms")
            r.ids(list(row.values()), where, "morphisms")
            if row["id"] in morphisms:
                r.fail(DuplicateIdError, f"{where}: duplicate morphism id", row["id"])
            morphisms[row["id"]] = (row["id"], row["src"], row["dst"])
        if any(map("".join(ids := [*objects, *morphisms]).__contains__, ",()")):
            for i in ids:  # a pair id "(a,b)" is split at its first comma outside parentheses
                if i.count("(") != i.count(")") or split_pair_id(f"({i},)") != (i, ""):
                    r.fail(ParseError, f"{where}: a pair id cannot carry {i!r}: a comma "
                                       "outside parentheses or unbalanced parentheses", i)
        morphisms = tuple(sorted(morphisms.values()))
        scope = {"base": FinCategory(objects, morphisms, {}, {})}
        OBJ.check(r, [o for _, s, d in morphisms for o in (s, d)], where, scope)
        identity = r.expect(obj, "identity", dict, where)
        r.ids(list(identity.values()), where, "identity")
        OBJ.check(r, identity, where, scope)
        MOR.check(r, identity.values(), where, scope)
        r.categories.append(FinCategory(objects, morphisms, identity,
                                        self.COMP.field(r, obj, "comp", where, scope)))
        return r.categories[r.categories.index(r.categories[-1])]

    def write(self, cat):
        return {"objects": sorted(cat.objects),
                "morphisms": [{"id": m, "src": s, "dst": d} for m, s, d in sorted(cat.morphisms)],
                "identity": dict(sorted(cat.identity.items())),
                "comp": self.COMP.write(cat.comp)}


def _hom(v: FinCategory, s: FinCategory):
    """S^op x S -> V, the categories of a hom functor."""
    return product_category(opposite_category(s), s), v


def _cotensor(mod: VModuleData):
    """V x S^op -> S^op, the categories of a module's cotensor."""
    s_op = opposite_category(mod.baseS)
    return product_category(mod.baseV.base, s_op), s_op


_FINCATEGORY = _FinCategory()
_MONOIDAL = Record(MonoidalData,
                   ("base", "base", _FINCATEGORY),
                   ("unit", "unit", OBJ),
                   ("tensor_obj", "tensor_obj", Table(2, OBJ, OBJ)),
                   ("tensor_mor", "tensor_mor", Table(2, MOR, MOR)),
                   ("assoc", "assoc", Table(3, OBJ, MOR)),
                   ("lunit", "lunit", Table(1, OBJ, MOR)),
                   ("runit", "runit", Table(1, OBJ, MOR)),
                   ("symmetry", "symmetry", Record(
                       SymmetryData, ("braid", "braid", Table(2, value=MOR)), null=True)),
                   ("closed", "closed", Record(
                       ClosedData, ("hom_obj", "hom_obj", Table(2, value=OBJ)),
                       ("eval", "ev", Table(2, value=MOR)), null=True)))
_VSTRUCTURE = Record(VStructureData,
                     ("base_v", "baseV", _MONOIDAL),
                     ("base_s", "baseS", _FINCATEGORY),
                     ("hom_functor", "homFunctor",
                      Functor(lambda c: _hom(c["baseV"].base, c["baseS"]))),
                     ("comp", "comp", Table(3)),
                     ("phi", "phi", Table(2, value=Table(1))))
_VMODULE = Record(VModuleData,
                  ("base_v", "baseV", _MONOIDAL),
                  ("base_s", "baseS", _FINCATEGORY),
                  ("action", "action", Functor(lambda c: (
                      product_category(c["baseV"].base, c["baseS"]), c["baseS"]))),
                  ("assoc", "assoc", Table(3)),
                  ("lunit", "lunit", Table(1)))
_TENSORCLOSED = Record(TensorClosedModuleData,
                       ("module", "module", _VMODULE),
                       ("hom_functor", "homFunctor", Functor(
                           lambda c: _hom(c["module"].baseV.base, c["module"].baseS))),
                       ("phi", "phi", Table(3, value=Table(1))))
_CLOSEDMODULE = Record(ClosedVModuleData,
                       ("tensor_closed", "tensorClosed", _TENSORCLOSED),
                       ("cotensor", "cotensor",
                        Functor(lambda c: _cotensor(c["tensorClosed"].module))),
                       ("psi", "psi", Table(3, value=Table(1))))

SCHEMA: dict[str, _Column] = {
    "fincategory": _FINCATEGORY,
    "monoidal": _MONOIDAL,
    "vcategory": Record(VCategoryData,
                        ("base_v", "baseV", _MONOIDAL),
                        ("objects", "objects", IdList()),
                        ("hom_obj", "homObj", Table(2)),
                        ("comp", "comp", Table(3)),
                        ("unit", "unit", Table(1))),
    "vstructure": _VSTRUCTURE,
    "cylinder": Record(tuple,
                       ("vstructure", 0, _VSTRUCTURE),
                       ("cylinder", 1, Assignment(CylinderAssignment, "alpha", "phibar"))),
    "path": Record(tuple,
                   ("vstructure", 0, _VSTRUCTURE),
                   ("path", 1, Assignment(PathAssignment, "beta", "psibar"))),
    "vmodule": _VMODULE,
    "tensorclosed": _TENSORCLOSED,
    "closedmodule": _CLOSEDMODULE,
    "bimodule": Record(ClosedBimoduleData,
                       ("closed_module", "closedModule", _CLOSEDMODULE),
                       ("comodule_assoc", "comodAssoc", Table(3)),
                       ("comodule_lunit", "comodLunit", Table(1))),
}
KINDS = tuple(SCHEMA)


def serialize(doc: Document) -> str:
    """Canonical text form: sorted tables, sorted keys, stable bytes."""
    if doc.kind not in KINDS:
        raise ParseError(f"unknown document kind {doc.kind!r}")
    payload = {"format": FORMAT, "kind": doc.kind, "body": SCHEMA[doc.kind].write(doc.data)}
    return "".join(chain(_pieces(payload, "\n"), "\n"))  # dumps(payload) and its last line end


def parse(text: str) -> Document:
    """Parse a document; diagnostics carry line/column and the offending
    token."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, col=exc.colno) from None
    r = _Reader(text)
    if not isinstance(payload, dict):
        r.fail(ParseError, "document must be a JSON object")
    fmt = payload.get("format")
    if fmt != FORMAT:
        raise VersionMismatchError(
            f"unsupported format {fmt!r}, expected {FORMAT!r}",
            *_position_of(text, str(fmt)), token=str(fmt))
    kind = payload.get("kind")
    if kind not in KINDS:
        r.fail(ParseError, f"unknown kind {kind!r}; known kinds: {', '.join(KINDS)}", str(kind))
    body = r.expect(payload, "body", dict, "document")
    return Document(kind=kind, data=SCHEMA[kind].read(r, body, kind, {}))
