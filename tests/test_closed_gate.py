"""The localized closed sweep of ``check_closed`` against the full sweep.

The characterization of the internal transpose (``PI_BAR_LAWS``) is judged
at the generic element once the monoidal and closed verdicts are on record
and clean (on a thin base ``check_closed`` judges no derived law and does
not ask for the internal transpose at all).  With ``gate=None`` on
``PI_BAR_LAWS`` every site is judged.  On every single-entry swap (the value
replaced by each other morphism of the base) and deletion of ``closed.ev``,
``tensor_mor`` and ``assoc``, both must give the same reports, or raise the
same error with the same message, with and without a ``check_monoidal``
verdict on record.  The associator is read by the characterization away
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
import io

import pytest

import encat.monoidal as mon
from encat.cli import cli
from encat.core import EncatError
from encat.instances import build_bool, build_cyc, build_trop
from encat.monoidal import MonoidalData, check_closed, check_monoidal
from test_monoidal_gate import spy

GATED = ("PI_BAR_LAWS",)
PI_BAR = mon.PI_BAR_LAWS[0].name


def mutants(m: MonoidalData):
    """Every single-entry swap and deletion of the evaluations, the tensor's
    morphism table and the associator."""
    mors = m.base.mor_ids()
    tables = {
        "closed.ev": (m.closed.ev,
                      lambda t: dataclasses.replace(m, closed=dataclasses.replace(m.closed, ev=t))),
        "tensor_mor": (m.tensor_mor, lambda t: dataclasses.replace(m, tensor_mor=t)),
        "assoc": (m.assoc, lambda t: dataclasses.replace(m, assoc=t)),
    }
    for field, (table, rebuilt) in tables.items():
        for key, value in table.items():
            yield (field, key, None), rebuilt({k: v for k, v in table.items() if k != key})
            for other in mors:
                if other != value:
                    yield (field, key, other), rebuilt({**table, key: other})


def outcome(m: MonoidalData, recorded: bool):
    """``check_closed`` on ``m``, after ``check_monoidal`` when ``recorded``."""
    try:
        if recorded:
            try:
                check_monoidal(m)
            except EncatError:
                pass
        return check_closed(m)
    except EncatError as exc:
        return type(exc).__name__, str(exc)


def full_outcome(m: MonoidalData, recorded: bool):
    """The reference: ``outcome`` on a fresh copy of ``m`` with a gate-free
    characterization."""
    m = dataclasses.replace(m)
    with pytest.MonkeyPatch.context() as mp:
        for name in GATED:
            mp.setattr(mon, name, tuple(
                dataclasses.replace(law, gate=None) for law in getattr(mon, name)))
        return outcome(m, recorded)


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


def agree(name: str, stride: int) -> None:
    for where, mutant in list(mutants(BASES[name]()))[::stride]:
        for recorded in (False, True):
            fresh = dataclasses.replace(mutant)
            assert outcome(fresh, recorded) == full_outcome(mutant, recorded), (where, recorded)


@pytest.mark.parametrize("name", list(BASES))
def test_closed_gates_agree_with_the_full_sweep(name):
    agree(name, STRIDE.get(name, 1))


@pytest.mark.slow
@pytest.mark.parametrize("name", list(STRIDE))
def test_closed_gates_agree_with_the_full_sweep_on_every_mutant(name):
    agree(name, 1)


def checked(monkeypatch, tmp_path, name: str):
    """The site families ``encat check`` judges on the lawful ``name``."""
    path = str(tmp_path / "doc.json")
    assert cli(["instance", name, "-o", path], out=io.StringIO()) == 0
    seen = spy(monkeypatch)
    out = io.StringIO()
    assert cli(["check", path], out=out) == 0
    monkeypatch.undo()
    assert out.getvalue() == "OK: all checks passed\n"
    return seen


def test_the_cli_judges_the_closed_sweeps_on_generic_elements(monkeypatch, tmp_path):
    """On the lawful cyc(12), which is not thin, ``encat check`` judges every
    site of the derived closed laws and the characterization once, at
    W = hom(X (x) Y, Z) and f = ev.  On the lawful trop(8), which is thin, it
    judges no site of a derived closed law, and never asks for the internal
    transpose, so no characterization site either."""
    seen = checked(monkeypatch, tmp_path, "cyc(12)")
    m = build_cyc(12)
    base = m.base
    for law in mon.DERIVED_CLOSED_LAWS:
        assert seen[law.name] == [list(law.sites(m, base))], law.name
    [iota] = mon.IOTA_LAWS
    assert seen[iota.name] == [[(f,) for f in base.mor_ids()]]
    xy = m.tobj("*", "*")
    assert seen[PI_BAR] == [[("*", "*", "*", m.hom_obj(xy, "*"), m.ev(xy, "*"))]]

    seen = checked(monkeypatch, tmp_path, "trop(8)")
    for law in (*mon.DERIVED_CLOSED_LAWS, *mon.IOTA_LAWS):  # iota once per object
        assert seen[law.name] and all(sites == [] for sites in seen[law.name]), law.name
    assert PI_BAR not in seen
