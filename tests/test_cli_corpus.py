"""Golden test of ``encat`` command outcomes over a fixed-rule corpus of
documents with one table row deleted.

The documents are those of ``trop(3)`` and ``cyc(3)`` and, for each of
self(trop(3)), self(cyc(3)) and poset-diamond, its closedmodule document and
the cylinder, bimodule, vstructure, vcategory and tensorclosed documents the
``construct`` ops make from it.  They are mutated by one fixed rule, chosen
without looking at the outcomes: in every row table (a list of lists reached
through the document's objects alone), its first, middle and last row are
deleted, one at a time.  Every mutant is given to ``check --format json``,
to ``construct`` with each op and to ``roundtrip`` with each pair.

An outcome is the exit code, the printed text with the scratch directory
written as ``<tmp>``, and the sha256 of the document written, if any.  The
sha256 of every ``STRIDE``-th outcome is pinned in tier-1, and that of all
of them under ``-m slow``; ``PYTHONPATH=src python tests/test_cli_corpus.py``
prints both.
"""

import hashlib
import io
import json
import os
import tempfile

import pytest

from encat.cli import cli

INSTANCES = ("trop(3)", "cyc(3)")
MODULES = ("self(trop(3))", "self(cyc(3))", "poset-diamond")
# (output, input, op): each module's documents, made from its closedmodule one
MADE = (("cylinder", "closedmodule", "module-to-cylinder"),
        ("bimodule", "closedmodule", "bimodule-complete"),
        ("vstructure", "closedmodule", "induced-vstructure"),
        ("vcategory", "vstructure", "associated-vcat"),
        ("tensorclosed", "cylinder", "cylinder-to-module"))
OPS = ("underlying", "associated-vcat", "induced-vstructure", "module-to-cylinder",
       "cylinder-to-module", "tensored-to-cylinder", "cylinder-to-tensored", "bimodule-complete")
PAIRS = ("module-cylinder", "cylinder-tensored")
COMMANDS = (("check", "--format", "json"),
            *(("construct", "--op", op, "-o") for op in OPS),
            *(("roundtrip", "--pair", pair) for pair in PAIRS))
STRIDE = 8

# (outcomes in the corpus, sha256 of every STRIDE-th outcome, sha256 of all)
GOLDEN = (8602, "76a8d05b43290a86c1a8da8df6910b7a869acf9bf2badc2937ea2262392507f8",
          "f4474ffc6de2ba925c55944e660bfdb25ac6c7357c5fd162639e65285cf5dc89")


def _run(tmp: str, *argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = cli(list(argv), out=out)
    return code, out.getvalue().replace(tmp, "<tmp>")


def documents(tmp: str) -> list[dict]:
    """The lawful documents of the corpus, in a fixed order."""
    def at(stem: str) -> str:
        return os.path.join(tmp, f"{stem}.json")

    stems = list(INSTANCES)
    for name in INSTANCES:
        assert _run(tmp, "instance", name, "-o", at(name))[0] == 0
    for name in MODULES:
        stems.append(f"{name}.closedmodule")
        assert _run(tmp, "instance", name, "-o", at(stems[-1]))[0] == 0
        for kind, source, op in MADE:
            stems.append(f"{name}.{kind}")
            assert _run(tmp, "construct", at(f"{name}.{source}"), "--op", op,
                        "-o", at(stems[-1]))[0] == 0
    docs = []
    for stem in stems:
        with open(at(stem), encoding="utf-8") as handle:
            docs.append(json.load(handle))
    return docs


def _tables(value, path=()):
    """The paths of the row tables of a document, in sorted key order."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _tables(value[key], path + (key,))
    elif isinstance(value, list) and value and all(isinstance(row, list) for row in value):
        yield path


def _deleted(doc: dict, path: tuple, index: int) -> dict:
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path:
        node = node[key]
    del node[index]
    return doc


def mutants(docs: list[dict]):
    """Every document of ``docs`` with one row deleted, in a fixed order."""
    for doc in docs:
        for path in _tables(doc):
            node = doc
            for key in path:
                node = node[key]
            for index in sorted({0, len(node) // 2, len(node) - 1}):
                yield _deleted(doc, path, index)


def _outcome(tmp: str, command: tuple) -> list:
    written = os.path.join(tmp, "out.json")
    output = (written,) if command[0] == "construct" else ()
    code, text = _run(tmp, command[0], os.path.join(tmp, "doc.json"), *command[1:], *output)
    digest = None
    if os.path.exists(written):
        with open(written, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        os.remove(written)
    return [code, text, digest]


def corpus(tmp: str, stride: int = 1) -> tuple[int, list]:
    """The number of outcomes in the corpus and every ``stride``-th of them."""
    count, outcomes = 0, []
    for doc in mutants(documents(tmp)):
        picked = [command for i, command in enumerate(COMMANDS, count) if i % stride == 0]
        count += len(COMMANDS)
        if picked:
            with open(os.path.join(tmp, "doc.json"), "w", encoding="utf-8") as handle:
                json.dump(doc, handle, indent=2, sort_keys=True)
            outcomes += [_outcome(tmp, command) for command in picked]
    return count, outcomes


def digest(outcomes: list) -> str:
    return hashlib.sha256(json.dumps(outcomes).encode("utf-8")).hexdigest()


def test_strided_corpus_matches_golden(tmp_path):
    count, outcomes = corpus(str(tmp_path), STRIDE)
    assert (count, digest(outcomes)) == GOLDEN[:2]


@pytest.mark.slow
def test_corpus_matches_golden(tmp_path):
    count, outcomes = corpus(str(tmp_path))
    assert (count, digest(outcomes)) == (GOLDEN[0], GOLDEN[2])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        count, every = corpus(tmp)
    print((count, digest(every[::STRIDE]), digest(every)))
