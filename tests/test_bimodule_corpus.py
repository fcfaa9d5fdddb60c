"""Golden test of the closed-module layer over a fixed-rule corpus of
single-entry mutants of the four module builtins.

Each builtin's closed module and its completed bimodule are mutated by one
fixed rule, chosen without looking at the outcomes: every entry of the
cotensor's object and morphism tables, of the cotensor adjunction psi and of
the comodule associator and unitor is deleted, or its value replaced by each
other id of its sort (an object or morphism of the category the entry lands
in), one at a time.

A closed-module mutant's outcome is that of ``check_closed_module``,
``bimodule_completion`` and ``check_closed_bimodule`` (on the mutant with the
lawful comodule tables); a comodule mutant's is that of
``check_closed_bimodule``.  A checker's outcome is every field of every
report, a completion's the comodule tables it builds, and either's failure
the class and message of the :class:`EncatError` it raises (any other
exception fails the test).  The sha256 of each builtin's outcome list is
pinned for every ``STRIDE``-th mutant in tier-1 and for all of them under
``-m slow``; ``PYTHONPATH=src python tests/test_bimodule_corpus.py`` prints
both.
"""

import json

import pytest

from encat.equiv import bimodule_completion
from encat.instances import build_instance, parse_instance_name
from encat.vmodule import ClosedBimoduleData, check_closed_bimodule, check_closed_module
from harness import digest, entries, outcome, read, replaced, rows

BUILTINS = ("poset-diamond", "self(bool)", "self(cyc(3))", "self(trop(3))")
STRIDE = 9

# (mutants in the corpus, sha256 of every STRIDE-th outcome, sha256 of all)
GOLDEN = {
    "poset-diamond": (530, "df3b7c2de31d5e089419c7e5b40270cbe72ab1fe392acf5faa100ee853fc22e3",
                      "a54de7215f989ac0cd720901f0f80fb8670f1b119e74c24ca5d6dd1eab5e4a58"),
    "self(bool)": (86, "8f8ceccebb8afcc288965e9e9cdd8d660604063744ca5a32ec6a431a9f64ccea",
                   "45dfbe8fbf6ea91458818cc6a2a5f5c4f74d400d17dac89505d119cf3720d5db"),
    "self(cyc(3))": (43, "5b02caa0803489ffc18ddcff81511da27cbc3e486f590e5967d2e5a64484a7c4",
                     "a087fddb83450040fed797e5c9185846ba5377df7bb4cf28f654a13d8744f2dd"),
    "self(trop(3))": (561, "814c5a40ab7e74dad2b5cc9446a2d0c48c020105de17ef108b1f1b9b79221393",
                      "a77ef85238c39cb2d380684baec7642eef061e79454bb047393e544e3b31c55c"),
}


def mutants(cm, bm):
    """Every single-entry mutant, as a closed module or a bimodule, in a
    fixed order."""
    cot, mod = cm.cotensor, cm.tensorClosed.module
    for data, path, values in ((cm, ("cotensor", "onObjects"), cot.dstCat.objects),
                               (cm, ("cotensor", "onMorphisms"), cot.dstCat.mor_ids()),
                               (cm, ("psi",), mod.baseV.base.mor_ids()),
                               (bm, ("comodAssoc",), mod.baseS.mor_ids()),
                               (bm, ("comodLunit",), mod.baseS.mor_ids())):
        for _, table in entries(read(data, path), values, sorted):
            yield replaced(data, path, table)


def outcome_of(mutant, bm) -> list:
    """What the closed-module layer makes of one mutant."""
    if isinstance(mutant, ClosedBimoduleData):
        return [outcome(lambda: rows(check_closed_bimodule(mutant)))]

    def complete():
        done = bimodule_completion(mutant)
        return [sorted(done.comodAssoc.items()), sorted(done.comodLunit.items())]

    return [outcome(lambda: rows(check_closed_module(mutant))),
            outcome(complete),
            outcome(lambda: rows(check_closed_bimodule(
                ClosedBimoduleData(mutant, bm.comodAssoc, bm.comodLunit))))]


def corpus(name: str, stride: int = 1) -> tuple[int, list]:
    """The number of mutants of builtin ``name`` and the outcomes of every
    ``stride``-th of them."""
    _, cm = build_instance(parse_instance_name(name))
    bm = bimodule_completion(cm)
    found = list(mutants(cm, bm))
    return len(found), [outcome_of(mutant, bm) for mutant in found[::stride]]


@pytest.mark.parametrize("name", BUILTINS)
def test_strided_corpus_matches_golden(name):
    count, outcomes = corpus(name, STRIDE)
    assert (count, digest(outcomes)) == GOLDEN[name][:2]


@pytest.mark.slow
@pytest.mark.parametrize("name", BUILTINS)
def test_corpus_matches_golden(name):
    count, outcomes = corpus(name)
    assert (count, digest(outcomes)) == (GOLDEN[name][0], GOLDEN[name][2])


if __name__ == "__main__":
    for name in BUILTINS:
        count, every = corpus(name)
        print(json.dumps(name), (count, digest(every[::STRIDE]), digest(every)))
