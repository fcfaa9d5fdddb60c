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

import dataclasses
import hashlib
import json

import pytest

from encat.core import EncatError
from encat.equiv import bimodule_completion
from encat.instances import build_instance, parse_instance_name
from encat.vmodule import ClosedBimoduleData, check_closed_bimodule, check_closed_module

BUILTINS = ("poset-diamond", "self(bool)", "self(cyc(3))", "self(trop(3))")
STRIDE = 9

# (mutants in the corpus, sha256 of every STRIDE-th outcome, sha256 of all)
GOLDEN = {
    "poset-diamond": (530, "b0bb228000fcd6a9e66d319ec6d3bc6b24270d1968f65e235cafaf0749786626",
                      "e1ad6daef72e4fd3ba5c991bef163f34e8d578be134b78b20cee364f5b7d3d25"),
    "self(bool)": (86, "01420a11dba6e808785dbedd397d222a2e116c87a1588da9dc82cff0539465f0",
                   "967b2f55acbfb72eb00767587e2f2ac37452440b12184813657d062703ce78e4"),
    "self(cyc(3))": (43, "5013c2d583d0efd3c96e58be756e0bc1846e798590afa59a01e09302f7dc2c36",
                     "b94326e83cf8f961225701ea0f4dae5ffe6216a9a49799fce90342d7d9ba4904"),
    "self(trop(3))": (561, "4fbef5dd21a10a7570ad7789065a89c1c6a2b458d42829064581c1aaed67bc13",
                      "8ba1bb774d14dd3a32d0a8d79b62e4265340d773b93af6d2d15fdcb1c03357f9"),
}


def _entries(table, values):
    """Every single-entry copy of ``table``: each key deleted, then given
    each other value of ``values``."""
    for key in sorted(table):
        yield {k: v for k, v in table.items() if k != key}
        for value in values:
            if value != table[key]:
                yield {**table, key: value}


def mutants(cm, bm):
    """Every single-entry mutant, as a closed module or a bimodule, in a
    fixed order."""
    cot = cm.cotensor
    dst = cot.dstCat
    for on_objects in _entries(cot.onObjects, dst.objects):
        yield dataclasses.replace(cm, cotensor=dataclasses.replace(cot, onObjects=on_objects))
    for on_morphisms in _entries(cot.onMorphisms, dst.mor_ids()):
        yield dataclasses.replace(cm, cotensor=dataclasses.replace(cot, onMorphisms=on_morphisms))
    v_mors = cm.tensorClosed.module.baseV.base.mor_ids()
    for key in sorted(cm.psi):
        for table in _entries(cm.psi[key], v_mors):
            yield dataclasses.replace(cm, psi={**cm.psi, key: table})
    s_mors = cm.tensorClosed.module.baseS.mor_ids()
    for assoc in _entries(bm.comodAssoc, s_mors):
        yield dataclasses.replace(bm, comodAssoc=assoc)
    for lunit in _entries(bm.comodLunit, s_mors):
        yield dataclasses.replace(bm, comodLunit=lunit)


def _reports(reports) -> list:
    return [[r.law, list(r.site), r.lhs, r.rhs, r.witness_count, r.note] for r in reports]


def _outcome(run) -> list:
    try:
        return run()
    except EncatError as exc:
        return [type(exc).__name__, str(exc)]


def outcome(mutant, bm) -> list:
    """What the closed-module layer makes of one mutant."""
    if isinstance(mutant, ClosedBimoduleData):
        return [_outcome(lambda: _reports(check_closed_bimodule(mutant)))]

    def complete():
        done = bimodule_completion(mutant)
        return [sorted(done.comodAssoc.items()), sorted(done.comodLunit.items())]

    return [_outcome(lambda: _reports(check_closed_module(mutant))),
            _outcome(complete),
            _outcome(lambda: _reports(check_closed_bimodule(
                ClosedBimoduleData(mutant, bm.comodAssoc, bm.comodLunit))))]


def corpus(name: str, stride: int = 1) -> tuple[int, list]:
    """The number of mutants of builtin ``name`` and the outcomes of every
    ``stride``-th of them."""
    _, cm = build_instance(parse_instance_name(name))
    bm = bimodule_completion(cm)
    found = list(mutants(cm, bm))
    return len(found), [outcome(mutant, bm) for mutant in found[::stride]]


def digest(outcomes: list) -> str:
    return hashlib.sha256(json.dumps(outcomes).encode("utf-8")).hexdigest()


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
