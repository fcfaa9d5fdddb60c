"""Golden test of ``encat`` command outcomes over a fixed-rule corpus of
documents with one table row deleted.

The documents are those of ``trop(3)`` and ``cyc(3)`` and, for each of
self(trop(3)), self(cyc(3)) and poset-diamond, its closedmodule document and
the cylinder, bimodule, vstructure, vcategory and tensorclosed documents the
``construct`` ops make from it.  They are mutated by two fixed rules, chosen
without looking at the outcomes: in every row table (a list of lists reached
through the document's objects alone), or, by the second rule, in every
nonempty row table nested in a row of one (a cylinder row's phibar family,
the inner table of an adjunction row), its first, middle and last row are
deleted, one at a time.  Every mutant is given to ``check --format json``,
to ``construct`` with each op and to ``roundtrip`` with each pair.

An outcome is the exit code, the printed text with the scratch directory
written as ``<tmp>``, and the sha256 of the document written, if any.  For
each rule, the sha256 of every ``STRIDE``-th (``NESTED_STRIDE``-th) outcome
is pinned in tier-1, and that of all of them under ``-m slow``;
``PYTHONPATH=src python tests/test_cli_corpus.py`` prints them.

The same mutants pin the blame contract: a ``construct`` or ``roundtrip``
that fails (exit 2 or 3) on a document ``check`` flags prints ``check``'s
verdict, its first report as ``the <kind> document fails <law> at (<site>)``
or its error text, and none fails on a document ``check`` passes, unless the
command does not read the document's kind.
"""

import itertools
import json
import os
import tempfile

import pytest

from harness import cli_corpus, command, digest

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
# prime to len(COMMANDS), so every command is sampled; the nested rule's
# mutants are mostly module documents, whose commands cost more
STRIDE, NESTED_STRIDE = 8, 16

# (outcomes in the corpus, sha256 of every STRIDE-th outcome, sha256 of all),
# and the same for the nested rule with NESTED_STRIDE
GOLDEN = (8602, "ae0f90c870aa520d94b0e3a5e4f2d393635289995abac3bbcef26cded1c73d43",
          "c3df28d7f14aace5d01b5570044b8e821a8204a2ba660d76871fbf26e958d47e")
GOLDEN_NESTED = (3773, "a2946016da3aff36b811bfcb6a1c4c9fa540009e8255dd11accb44cf74f8feab",
                 "df072c24e895dc211c8c0511b12a7ef908478c23efa192d2bbd95cc1b1cd9aab")


def documents(tmp: str) -> list[dict]:
    """The lawful documents of the corpus, in a fixed order."""
    def at(stem: str) -> str:
        return os.path.join(tmp, f"{stem}.json")

    stems = list(INSTANCES)
    for name in INSTANCES:
        assert command(tmp, "instance", name, "-o", at(name))[0] == 0
    for name in MODULES:
        stems.append(f"{name}.closedmodule")
        assert command(tmp, "instance", name, "-o", at(stems[-1]))[0] == 0
        for kind, source, op in MADE:
            stems.append(f"{name}.{kind}")
            assert command(tmp, "construct", at(f"{name}.{source}"), "--op", op,
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


def _at(doc, path: tuple):
    for key in path:
        doc = doc[key]
    return doc


def _nested_tables(doc: dict):
    """The paths of the nonempty row tables nested in a row of a row table."""
    for path in _tables(doc):
        for i, row in enumerate(_at(doc, path)):
            for j, cell in enumerate(row):
                yield from _tables(cell, path + (i, j))


def _deleted(doc: dict, path: tuple, index: int) -> dict:
    doc = json.loads(json.dumps(doc))
    del _at(doc, path)[index]
    return doc


def mutants(docs: list[dict], tables=_tables):
    """Every document of ``docs`` with one row of a table at a path of
    ``tables(doc)`` deleted, in a fixed order."""
    for doc in docs:
        for path in tables(doc):
            node = _at(doc, path)
            for index in sorted({0, len(node) // 2, len(node) - 1}):
                yield _deleted(doc, path, index)


def _outcome(tmp: str, argv: tuple) -> list:
    output = (os.path.join(tmp, "out.json"),) if argv[0] == "construct" else ()
    return command(tmp, argv[0], os.path.join(tmp, "doc.json"), *argv[1:], *output)


def corpus(tmp: str, stride: int = 1, tables=_tables) -> tuple[int, list]:
    """The number of outcomes in the corpus of the rule ``tables`` and every
    ``stride``-th of them."""
    return cli_corpus(tmp, mutants(documents(tmp), tables), lambda doc: COMMANDS, _outcome, stride)


def disagreements(tmp: str, stride: int = 1, tables=_tables) -> list:
    """The failed ``construct`` and ``roundtrip`` outcomes of every
    ``stride``-th mutant of the rule ``tables`` that do not print what
    ``check`` makes of the mutant, with the text ``check`` implies (``None``
    where ``check`` passes, so that no failure is what it implies)."""
    found = []
    for doc in itertools.islice(mutants(documents(tmp), tables), 0, None, stride):
        (verdict, want, _), *rest = cli_corpus(tmp, [doc], lambda doc: COMMANDS, _outcome)[1]
        if verdict == 0:
            want = None
        elif verdict == 1:
            first = json.loads(want)["reports"][0]
            want = (f"error: the {doc['kind']} document fails {first['law']} "
                    f"at ({', '.join(first['site'])})\n")
        for argv, (code, text, _) in zip(COMMANDS[1:], rest):
            if (code in (2, 3) and text != want
                    and not text.startswith(f"error: {argv[2]} needs a ")):
                found.append([argv[2], text, want])
    return found


def test_strided_corpus_matches_golden(tmp_path):
    count, outcomes = corpus(str(tmp_path), STRIDE)
    assert (count, digest(outcomes)) == GOLDEN[:2]


@pytest.mark.slow
def test_corpus_matches_golden(tmp_path):
    count, outcomes = corpus(str(tmp_path))
    assert (count, digest(outcomes)) == (GOLDEN[0], GOLDEN[2])


def test_strided_nested_corpus_matches_golden(tmp_path):
    count, outcomes = corpus(str(tmp_path), NESTED_STRIDE, _nested_tables)
    assert (count, digest(outcomes)) == GOLDEN_NESTED[:2]


@pytest.mark.slow
def test_nested_corpus_matches_golden(tmp_path):
    count, outcomes = corpus(str(tmp_path), tables=_nested_tables)
    assert (count, digest(outcomes)) == (GOLDEN_NESTED[0], GOLDEN_NESTED[2])


def test_strided_failures_print_what_check_reports(tmp_path):
    assert disagreements(str(tmp_path), STRIDE) == []
    assert disagreements(str(tmp_path), NESTED_STRIDE, _nested_tables) == []


@pytest.mark.slow
def test_failures_print_what_check_reports(tmp_path):
    assert disagreements(str(tmp_path)) == []
    assert disagreements(str(tmp_path), tables=_nested_tables) == []


if __name__ == "__main__":
    for tables, stride in ((_tables, STRIDE), (_nested_tables, NESTED_STRIDE)):
        with tempfile.TemporaryDirectory() as tmp:
            count, every = corpus(tmp, tables=tables)
        print((count, digest(every[::stride]), digest(every)))
