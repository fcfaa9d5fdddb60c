"""Golden test of the monoidal, symmetry and closed checkers over a
fixed-rule corpus of single-entry mutants of four closed symmetric builtins.

Each builtin is mutated by one fixed rule, chosen without looking at the
outcomes: every entry of the tensor's morphism table, of the associator, of
both unitors, of the braiding and of the evaluations is deleted, or its
value replaced by each other morphism of the base, one at a time.

A mutant's outcome is that of ``check_monoidal``, ``check_symmetry`` and
``check_closed``, run in that order on one instance, as ``encat check`` runs
them on a monoidal document (each is run whatever the one before it gives):
every field of every report, or the class and message of the
:class:`EncatError` raised (any other exception fails the test).  The sha256
of each builtin's outcome list is pinned for every ``STRIDE``-th mutant in
tier-1 and for all of them under ``-m slow``;
``PYTHONPATH=src python tests/test_monoidal_corpus.py`` prints both.
"""

import dataclasses
import json

import pytest

from encat.core import verdict
from encat.instances import build_instance, parse_instance_name
from encat.monoidal import (
    SHAPE_LOOPS,
    MonoidalData,
    check_closed,
    check_monoidal,
    check_symmetry,
)
from harness import digest, mutated, outcome, rows

BUILTINS = ("bool", "trop(3)", "cyc(2)", "cyc(3)")
STRIDE = 5

# (mutants in the corpus, sha256 of every STRIDE-th outcome, sha256 of all)
GOLDEN = {
    "bool": (87, "eafb37d6a3a87db4bfb3cb8823f6f81c23a19698c31b8dd08d32e0824f3762b8",
             "943a2ea3a2c0e0ba7881dd360833c616cd86ec08f49fcba22babdc8e7eba97e2"),
    "trop(3)": (522, "d4a5ef4709d29c977d38d4c93cc9ee505a6182f454483f3c50aa68f1004cd2ab",
                "161e627d4752a3d1ea153e34570483167ab38b701b3efbdf4e4383f6eb2c1413"),
    "cyc(2)": (18, "84c2e4ebd7af83d0eb3512aacf861735352160abf2dcebd924ce609fcba4a9eb",
               "3a927247ea96d8536acd207e49a09ca1fb348f5bbacac690c4461874505520f4"),
    "cyc(3)": (42, "1c782401a4a7d5a1d4f7ad88301c7b3f883b4160ce507fbe7795ec47cea0124e",
               "3760577fce347b78ecc983a96456821901b716d7e317f8f21bc3605860b7e87c"),
}


def mutants(m: MonoidalData):
    """Every single-entry mutant of ``m``, in a fixed order."""
    paths = {"tensor_mor": ("tensor_mor",), "assoc": ("assoc",), "lunit": ("lunit",),
             "runit": ("runit",), "braid": ("symmetry", "braid"), "ev": ("closed", "ev")}
    return (mutant for _, mutant in mutated(m, paths, m.base.mor_ids(), sorted))


def _outcome(check, m: MonoidalData) -> list:
    return outcome(lambda: rows(check(m)))


def outcome_of(m: MonoidalData) -> list:
    """What the three checkers make of one mutant."""
    return [_outcome(check, m) for check in (check_monoidal, check_symmetry, check_closed)]


def corpus(name: str, stride: int = 1) -> tuple[int, list]:
    """The number of mutants of builtin ``name`` and the outcomes of every
    ``stride``-th of them."""
    found = list(mutants(build_instance(parse_instance_name(name))[1]))
    return len(found), [outcome_of(mutant) for mutant in found[::stride]]


def rests_on_the_axioms(name: str, stride: int = 1) -> int:
    """The checker contract of ``check_closed``, which judges no monoidal
    axiom itself: on every ``stride``-th mutant of builtin ``name`` whose
    ``check_monoidal`` reports or raises while its "closed" verdict (shape
    and bijection) is clean, a fresh ``check_closed`` returns the same
    reports or raises the same error, never ``[]``.  Returns the number of
    such mutants."""
    found = 0
    for mutant in list(mutants(build_instance(parse_instance_name(name))[1]))[::stride]:
        monoidal = _outcome(check_monoidal, dataclasses.replace(mutant))
        shapes = verdict(dataclasses.replace(mutant), "closed", SHAPE_LOOPS["closed"],
                         raising=False)
        if monoidal and shapes == ():
            found += 1
            assert _outcome(check_closed, dataclasses.replace(mutant)) == monoidal
    return found


@pytest.mark.parametrize("name", BUILTINS)
def test_strided_check_closed_rests_on_the_monoidal_axioms(name):
    assert rests_on_the_axioms(name, STRIDE) > 0


@pytest.mark.slow
@pytest.mark.parametrize("name", BUILTINS)
def test_check_closed_rests_on_the_monoidal_axioms(name):
    assert rests_on_the_axioms(name) > 0


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
