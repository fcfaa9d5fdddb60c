"""The localized closed sweep of ``check_closed`` against the full sweep.

The characterization of the internal transpose (``PI_BAR_LAWS``) is judged
at the generic element once the monoidal and closed verdicts are on record
and clean (on a thin base ``check_closed`` judges no derived law and does
not ask for the internal transpose at all).  The reference,
``harness.gate_free``, judges every site of every law.  On every
single-entry swap (the value replaced by each other morphism of the base)
and deletion of ``closed.ev``, ``tensor_mor`` and ``assoc``, both must give
the same reports, or raise the same error with the same message, with and
without a ``check_monoidal`` verdict on record.  The associator is read by the characterization away
from the generic element, so its mutants need the clean monoidal verdict
the gate waits for.  Tier-1 compares a fixed stride of the mutants of the
larger bases (see ``STRIDE``); ``-m slow`` compares every mutant.

The naturality of the transpose in X and in Z is not judged on its own:
with e(g) = ev . (g (x) 1_Y), naturality in X is the functoriality of the
tensor, e(g . h) = e(g) . (h (x) 1), and naturality in Z follows from the
bijection, since the transpose t of k . ev has e(t) = k . ev, so
e(t . g) = e(t) . (g (x) 1) = k . e(g) (Mac Lane, CWM II.3).  ``check_closed``
returns the ``check_monoidal`` reports before any derived law runs.
"""

import dataclasses
import os

import pytest

import encat.monoidal as mon
from encat.instances import build_bool, build_cyc, build_trop
from encat.monoidal import MonoidalData, check_closed, check_monoidal
from harness import agree, by_law, command, mutated, outcome, spied

PI_BAR = mon.PI_BAR_LAWS[0].name


def mutants(m: MonoidalData):
    """Every single-entry swap and deletion of the evaluations, the tensor's
    morphism table and the associator."""
    return mutated(m, {"closed.ev": ("closed", "ev"), "tensor_mor": ("tensor_mor",),
                       "assoc": ("assoc",)}, m.base.mor_ids())


def both_outcomes(m: MonoidalData):
    """``check_closed`` on a fresh copy of ``m``, then on another after
    ``check_monoidal``, so with its verdict on record."""
    first = outcome(check_closed, dataclasses.replace(m))
    m = dataclasses.replace(m)
    outcome(check_monoidal, m)
    return [first, outcome(check_closed, m)]


BASES = {
    "bool": build_bool, "trop(3)": lambda: build_trop(3), "trop(4)": lambda: build_trop(4),
    "cyc(2)": lambda: build_cyc(2), "cyc(3)": lambda: build_cyc(3),
    "cyc(4)": lambda: build_cyc(4),
}

# Every mutant costs four checks, so by default only every STRIDE-th mutant
# of the larger bases (in enumeration order) is compared; ``-m slow``
# compares all of them.  Each entry gives |mor| mutants in a row, one
# deletion and |mor| - 1 swaps; a stride prime to |mor| (6 and 10 here)
# visits every position.
STRIDE = {"trop(3)": 11, "trop(4)": 61}


@pytest.mark.parametrize("name", list(BASES))
def test_closed_gates_agree_with_the_full_sweep(name):
    agree(lambda: mutants(BASES[name]()), both_outcomes, STRIDE.get(name, 1))


@pytest.mark.slow
@pytest.mark.parametrize("name", list(STRIDE))
def test_closed_gates_agree_with_the_full_sweep_on_every_mutant(name):
    agree(lambda: mutants(BASES[name]()), both_outcomes, 1)


def checked(tmp: str, name: str):
    """The site families ``encat check`` judges on the lawful ``name``."""
    path = os.path.join(tmp, "doc.json")
    assert command(tmp, "instance", name, "-o", path)[0] == 0
    got, seen = spied(command, tmp, "check", path)
    assert got == [0, "OK: all checks passed\n", None]
    return by_law(seen)


def test_the_cli_judges_the_closed_sweeps_on_generic_elements(tmp_path):
    """On the lawful cyc(12), which is not thin, ``encat check`` judges every
    site of the derived closed laws and the characterization once, at
    W = hom(X (x) Y, Z) and f = ev.  On the lawful trop(8), which is thin, it
    judges no site of a derived closed law, and never asks for the internal
    transpose, so no characterization site either."""
    seen = checked(str(tmp_path), "cyc(12)")
    m = build_cyc(12)
    base = m.base
    for law in mon.DERIVED_CLOSED_LAWS:
        assert seen[law.name] == [list(law.sites(m, base))], law.name
    [iota] = mon.IOTA_LAWS
    assert seen[iota.name] == [[(f,) for f in base.mor_ids()]]
    xy = m.tobj("*", "*")
    assert seen[PI_BAR] == [[("*", "*", "*", m.hom_obj(xy, "*"), m.ev(xy, "*"))]]

    seen = checked(str(tmp_path), "trop(8)")
    for law in (*mon.DERIVED_CLOSED_LAWS, *mon.IOTA_LAWS):  # iota once per object
        assert seen[law.name] and all(sites == [] for sites in seen[law.name]), law.name
    assert PI_BAR not in seen
