"""Golden test of ``encat`` command outcomes over every single-entry value
swap of the cylinder and closedmodule documents of four module bases.

The documents are the closedmodule documents of self(bool), self(trop(3)),
self(cyc(3)) and poset-diamond, and the cylinder documents
``construct --op module-to-cylinder`` makes from them.  They are mutated by
one fixed rule, chosen without looking at the outcomes: the value of every
row of every row table (the row's last cell; inside a row whose last cell
is a table or an object, the values of that table and the object's string
fields, recursively) is replaced by each other id of its sort, one at a
time.  A value's sort is the first of V's morphisms, S's morphisms, V's
objects and S's objects that declares it.

Each mutant is given to ``check`` and to the construction that reads its
kind: ``construct --op cylinder-to-module`` on the cylinder side,
``--op module-to-cylinder`` on the module side.  An outcome is the exit
code, the first line printed and the sha256 of the document written, if
any.  The sha256 of every ``STRIDE``-th outcome is pinned in tier-1, and
that of all of them under ``-m slow``;
``PYTHONPATH=src python tests/test_value_swap_corpus.py`` prints both.
The full corpus also pins the checker contract: no construction fails
(exit 2 or 3) on a mutant ``check`` passes.
"""

import json
import os
import tempfile

import pytest

from harness import cli_corpus, command, digest

BASES = ("self(bool)", "self(trop(3))", "self(cyc(3))", "poset-diamond")
# kind -> (where its module's V and S are declared, the construction it is given to)
KINDS = {"closedmodule": (("tensor_closed", "module"), "module-to-cylinder"),
         "cylinder": (("vstructure",), "cylinder-to-module")}
STRIDE = 37  # prime to the two commands of a mutant and to every sort's size

# (outcomes in the corpus, sha256 of every STRIDE-th outcome, sha256 of all)
GOLDEN = (10010, "d0334b82e097afe02f78c9d8ff2206aafbebd4d409fa504fec86c835f6a21a0c",
          "094728720157260c3e1bbeb24ecbb17b1597152ffefe093d25652acede889fdc")


def documents(tmp: str) -> list[dict]:
    """The lawful documents of the corpus, in a fixed order."""
    docs = []
    for name in BASES:
        module, cylinder = (os.path.join(tmp, f"{name}.{kind}.json") for kind in KINDS)
        assert command(tmp, "instance", name, "-o", module)[0] == 0
        assert command(tmp, "construct", module, "--op", "module-to-cylinder",
                       "-o", cylinder)[0] == 0
        for path in (module, cylinder):
            with open(path, encoding="utf-8") as handle:
                docs.append(json.load(handle))
    return docs


def _is_table(value) -> bool:
    return isinstance(value, list) and bool(value) and all(isinstance(row, list) for row in value)


def values(node, path=()):
    """The (path, value) of every row value under ``node``, in sorted key
    and row order."""
    if isinstance(node, dict):
        for key in sorted(node):
            if isinstance(node[key], str) and path and isinstance(path[-1], int):
                yield path + (key,), node[key]
            else:
                yield from values(node[key], path + (key,))
    elif _is_table(node):
        for i, row in enumerate(node):
            at = path + (i, len(row) - 1)
            yield from [(at, row[-1])] if isinstance(row[-1], str) else values(row[-1], at)


def sorts(doc: dict) -> list[list[str]]:
    """V's morphisms, S's morphisms, V's objects and S's objects."""
    where = doc["body"]
    for key in KINDS[doc["kind"]][0]:
        where = where[key]
    cats = where["base_v"]["base"], where["base_s"]
    return ([sorted(m["id"] for m in cat["morphisms"]) for cat in cats]
            + [sorted(cat["objects"]) for cat in cats])


def _swapped(doc: dict, path: tuple, value: str) -> dict:
    doc = json.loads(json.dumps(doc))
    node = doc["body"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def mutants(docs: list[dict]):
    """Every document of ``docs`` with one value swapped, in a fixed order."""
    for doc in docs:
        ids = sorts(doc)
        for path, value in values(doc["body"]):
            sort = next(sort for sort in ids if value in sort)
            for other in sort:
                if other != value:
                    yield _swapped(doc, path, other)


def _outcome(tmp: str, argv: tuple) -> list:
    code, text, sha = command(tmp, *argv)
    return [code, text.split("\n", 1)[0], sha]


def commands(tmp: str, kind: str) -> tuple[tuple, tuple]:
    doc, written = os.path.join(tmp, "doc.json"), os.path.join(tmp, "out.json")
    return ("check", doc), ("construct", doc, "--op", KINDS[kind][1], "-o", written)


def corpus(tmp: str, stride: int = 1) -> tuple[int, list]:
    """The number of outcomes in the corpus and every ``stride``-th of them."""
    return cli_corpus(tmp, mutants(documents(tmp)), lambda doc: commands(tmp, doc["kind"]),
                      _outcome, stride)


def test_strided_corpus_matches_golden(tmp_path):
    count, outcomes = corpus(str(tmp_path), STRIDE)
    assert (count, digest(outcomes)) == GOLDEN[:2]


@pytest.mark.slow
def test_corpus_matches_golden(tmp_path):
    count, outcomes = corpus(str(tmp_path))
    assert (count, digest(outcomes)) == (GOLDEN[0], GOLDEN[2])
    # each mutant's outcomes are check's, then its construction's: a
    # construction never fails (exit 2 or 3) on a document check passes
    assert [(checked, built) for checked, built in zip(outcomes[::2], outcomes[1::2])
            if checked[0] == 0 and built[0] in (2, 3)] == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        count, every = corpus(tmp)
    print((count, digest(every[::STRIDE]), digest(every)))
