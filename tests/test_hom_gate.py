"""The hom-structure side's thin covers against the full sweep.

On a valid thin V every diagram commutes (CWM §VII.2), so the laws of
``check_vstructure`` and ``check_cylinder`` (``VSTRUCTURE_LAWS`` and
``CYLINDER_LAWS``; ``PATH_LAWS`` shares the cylinder square's gate) hold at
every site once the records their sides read are clean: V's shape records,
S, the "hom structure" record (hom functor, internal composition shapes,
element bijections) and the "cylinder" record (shapes and isomorphy of the
assignment).  Misshapen internal composition entries alone send each law
to the sites that read one.  The reference, ``harness.gate_free``, judges
every site of every law.

On every cylinder document of the value-swap golden
(``tests/test_value_swap_corpus.py``), what ``encat check`` runs on it must
give the same reports both ways, or raise the same error with the same
message, each on its own parse.  Tier-1 compares every ``STRIDE``-th
mutant; ``-m slow`` compares all of them.

The same records gate the two searches of ``cylinder_to_module``: the Yoneda
probes (``equiv.YONEDA_LAWS``, on the thin cover of S) and the witnesses of
the induced action (``vstruct.WITNESS_LAWS``).  On a thin rung neither is
judged at any site; on cyc(3) every probe and witness reaches the judge.
"""

import json
from itertools import product

import pytest

import encat.equiv as equiv
import encat.vstruct as vst
from encat.cli import run_checks
from encat.instances import build_cyc, build_poset_module, build_trop, module_self
from encat.interface import parse
from harness import agree, by_law, outcome, reference, spied, spy
from test_value_swap_corpus import BASES, documents, mutants

GATED = ("VSTRUCTURE_LAWS", "CYLINDER_LAWS")
# prime to the size of every sort, so that every position of a run is visited
STRIDE = 29


def checked(text: str):
    """What ``encat check`` runs on the document ``text``, on its own parse."""
    return run_checks(parse(text))


def hom_agree(tmp: str, stride: int) -> None:
    found = [json.dumps(doc) for doc in mutants(documents(tmp)) if doc["kind"] == "cylinder"]
    assert len(found) == 2010
    agree(lambda: ((text, text) for text in found), checked, stride)


def test_the_hom_covers_agree_with_the_full_sweep(tmp_path):
    hom_agree(str(tmp_path), STRIDE)


@pytest.mark.slow
def test_the_hom_covers_agree_with_the_full_sweep_on_every_mutant(tmp_path):
    hom_agree(str(tmp_path), 1)


def cylinder_document(tmp: str, name: str) -> dict:
    """The cylinder document of base ``name`` of the golden."""
    return dict(zip(BASES, documents(tmp)[1::2]))[name]


def test_a_lawful_thin_cylinder_judges_no_gated_site(tmp_path):
    doc = cylinder_document(str(tmp_path), "poset-diamond")
    got, seen = spied(checked, json.dumps(doc))
    assert got == []
    seen = by_law(seen)
    names = {law.name for name in GATED for law in getattr(vst, name)}
    assert names <= set(seen) and not any(map(any, (seen[name] for name in names)))


def test_a_misshapen_composition_entry_is_judged_where_it_is_read(tmp_path):
    """The internal composition of self(trop(3)) at (0, 1, 2) swapped for a
    morphism of another shape leaves ``vstructure.shape`` the only report of
    the "hom structure" record: each gated law is judged at the sites that
    read that entry, found by a scan of every site, and reports as the full
    sweep does."""
    doc = cylinder_document(str(tmp_path), "self(trop(3))")
    [row] = [row for row in doc["body"]["vstructure"]["comp"] if row[:3] == ["0", "1", "2"]]
    row[3] = "id:0"
    text = json.dumps(doc)
    got, seen = spied(outcome, checked, text)
    seen = by_law(seen)
    assert got == reference(checked, text)
    assert {r.law for r in got if r.law.endswith(".shape")} == {"vstructure.shape"}
    vs, cyl = parse(text).data
    s, key = vs.baseS, ("0", "1", "2")
    scans = {
        "vstructure.assoc": {(x, y, z, w) for x, y, z, w in product(s.objects, repeat=4)
                             if key in ((y, z, w), (x, y, w), (x, y, z), (x, z, w))},
        "vstructure.right-action": {(f, z) for f in s.mor_ids() for z in s.objects
                                    if (s.src(f), s.dst(f), z) == key},
        "vstructure.left-action": {(x, g) for g in s.mor_ids() for x in s.objects
                                   if (x, s.src(g), s.dst(g)) == key},
        "cylinder.cp1-1": {(k, x, y) for (k, x), kx in cyl.tensor_obj.items()
                           for y in s.objects if (x, kx, y) == key},
        "vstructure.phi-natural": set(),
    }
    for name, scan in scans.items():
        for judged in seen[name]:
            assert len(judged) == len(set(judged)) and set(judged) == scan, name
    assert scans["vstructure.assoc"] and scans["cylinder.cp1-1"]


def test_an_unnatural_element_table_is_judged_on_every_site(tmp_path):
    """The lawful self(cyc(3)) cylinder, which is not thin, decides both
    ``vstructure.phi-natural`` sweeps on generators and judges none of their
    sites.  Its element table with two values exchanged is still a bijection,
    so the "hom structure" record stays clean; the generator gate finds it
    unnatural, and both sweeps judge all 9 composable pairs, with the reports
    of the gate-free laws."""
    doc = cylinder_document(str(tmp_path), "self(cyc(3))")
    for judged in (0, 9):
        text = json.dumps(doc)
        got, seen = spied(outcome, checked, text)
        assert got == reference(checked, text)
        assert list(map(len, by_law(seen)["vstructure.phi-natural"])) == [judged] * 2
        [row] = doc["body"]["vstructure"]["phi"]
        row[2] = [[f, {"1": "2", "2": "1"}.get(t, t)] for f, t in row[2]]
    assert "vstructure.phi-natural" in {r.law for r in got}


def search_data(mp) -> tuple[list[tuple], list[tuple]]:
    """Record the data on which ``cylinder_to_module`` judges its searches:
    (vs, cyl, S, family, h) for each candidate h of each Yoneda extraction
    (``equiv.YONEDA_LAWS``), and (vs, cyl, K, X, T, e) for each partial
    action (``vstruct.WITNESS_LAWS``)."""
    probes, witnesses = [], []
    extract, transported = equiv._yoneda_unique_pre, vst._transported

    def extracting(laws, vs, cyl, s, src, dst, family, what):
        probes.extend((vs, cyl, s, family, h) for h in s.hom(src, dst))
        return extract(laws, vs, cyl, s, src, dst, family, what)

    def transporting(*data):
        witnesses.append(data)
        return transported(*data)

    mp.setattr(equiv, "_yoneda_unique_pre", extracting)
    mp.setattr(vst, "_transported", transporting)
    return probes, witnesses


SEARCH_BASES = {"self(trop(4))": lambda: module_self(build_trop(4)),
                "poset-diamond": build_poset_module, "self(cyc(3))": lambda: module_self(build_cyc(3))}


@pytest.mark.parametrize("name", list(SEARCH_BASES))
def test_the_searches_judge_no_site_on_a_thin_cover_and_every_site_off_it(monkeypatch, name):
    """On a lawful thin cylinder each candidate of a Yoneda extraction and
    each witness of a partial action is its hom-set's only element, so
    ``cylinder_to_module`` judges no probe and no witness; on self(cyc(3)),
    which is not thin, every probe of every candidate and every witness
    reaches the judge, as without a gate."""
    vs, cyl = equiv.module_to_cylinder(SEARCH_BASES[name]().tensorClosed)
    seen = spy(monkeypatch)
    probes, witnesses = search_data(monkeypatch)
    equiv.cylinder_to_module(vs, cyl)
    monkeypatch.undo()
    seen = by_law(seen)
    thin = name != "self(cyc(3))"
    for [law], data in ((equiv.YONEDA_LAWS, probes), (vst.WITNESS_LAWS, witnesses)):
        full = [list(law.sites(*args)) for args in data]
        assert data and all(full) and seen[law.name] == ([[]] * len(data) if thin else full)
