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
import hashlib
import json

import pytest

from encat.core import EncatError
from encat.instances import build_instance, parse_instance_name
from encat.monoidal import MonoidalData, check_closed, check_monoidal, check_symmetry

BUILTINS = ("bool", "trop(3)", "cyc(2)", "cyc(3)")
STRIDE = 5

# (mutants in the corpus, sha256 of every STRIDE-th outcome, sha256 of all)
GOLDEN = {
    "bool": (87, "b2f6bc3a84b62648b5529a8ac9c0f5ba3eb6c54711d5291109b6acf18e19b21c",
             "bbd13df656338fb5c7a668efdccd2c5fdeb5d9abd49b40e4e357ea9a0b67469e"),
    "trop(3)": (522, "8f58a2640155d33ff57b354dc400af33fca77eb24fe063f1dda821b65bb72b6d",
                "f33bdf6edb276da88f8bcbf3c80840a43b1c921973f48eec3a5aaa31b613e153"),
    "cyc(2)": (18, "84c2e4ebd7af83d0eb3512aacf861735352160abf2dcebd924ce609fcba4a9eb",
               "2b4caa3faf8b4f6ea3f496df23aa07193c2baeb6b99a58141b5d2ca05a30d542"),
    "cyc(3)": (42, "b20af53af7a896c4f406b368b1c934cb96104a725a894561c43feb575bbe18f9",
               "e7dd1561a3a42aceb2fed6094b236ea02eb62c4d51f435e12529a9c848782c8e"),
}


def _entries(table, values):
    """Every single-entry copy of ``table``: each key deleted, then given
    each other value of ``values``."""
    for key in sorted(table):
        yield {k: v for k, v in table.items() if k != key}
        for value in values:
            if value != table[key]:
                yield {**table, key: value}


def mutants(m: MonoidalData):
    """Every single-entry mutant of ``m``, in a fixed order."""
    mors = m.base.mor_ids()
    for field in ("tensor_mor", "assoc", "lunit", "runit"):
        for table in _entries(getattr(m, field), mors):
            yield dataclasses.replace(m, **{field: table})
    for braid in _entries(m.symmetry.braid, mors):
        yield dataclasses.replace(m, symmetry=dataclasses.replace(m.symmetry, braid=braid))
    for ev in _entries(m.closed.ev, mors):
        yield dataclasses.replace(m, closed=dataclasses.replace(m.closed, ev=ev))


def _outcome(check, m: MonoidalData) -> list:
    try:
        return [[r.law, list(r.site), r.lhs, r.rhs, r.witness_count, r.note] for r in check(m)]
    except EncatError as exc:
        return [type(exc).__name__, str(exc)]


def outcome(m: MonoidalData) -> list:
    """What the three checkers make of one mutant."""
    return [_outcome(check, m) for check in (check_monoidal, check_symmetry, check_closed)]


def corpus(name: str, stride: int = 1) -> tuple[int, list]:
    """The number of mutants of builtin ``name`` and the outcomes of every
    ``stride``-th of them."""
    found = list(mutants(build_instance(parse_instance_name(name))[1]))
    return len(found), [outcome(mutant) for mutant in found[::stride]]


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
