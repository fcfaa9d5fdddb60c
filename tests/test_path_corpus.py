"""Golden test of the path checker over a fixed-rule corpus of single-entry
mutants of the tautological hom structure and path of three closed symmetric
bases.

For each base V, the hom structure ``self_vstructure(V)`` and the path
``self_path(V)`` are mutated by one fixed rule, chosen without looking at the
outcomes: every entry of the path's object, beta and psibar tables, of the
structure's internal composition, element tables and hom functor (objects and
morphisms), and of V's braiding is deleted, or its value replaced by each
other id of its sort (an object or morphism of V), one at a time.

A mutant's outcome is that of ``check_path``, which is what ``encat check``
runs on a path document: V's reports alone when V fails ``check_v``, else
the ``check_vstructure`` reports followed by the path's own.  It is every
field of every report, or the class and message of the :class:`EncatError`
raised (any other exception fails the test).  The sha256
of each base's outcome list is pinned for every ``STRIDE``-th mutant in
tier-1 and for all of them under ``-m slow``;
``PYTHONPATH=src python tests/test_path_corpus.py`` prints both.

Wherever ``check_path`` returns on a V that passes ``check_v``, its path
part, the reports after those of ``check_vstructure``, must equal those of
:func:`reference`: the dual compatibility square written out directly, and
the shapes of the assignment read through the hom functor with its
arguments swapped.
"""

import json

import pytest

from encat.core import CheckReport, EncatError, Law, evaluate, morphism_inverse, sort_reports
from encat.instances import build_instance, parse_instance_name
from encat.monoidal import check_v
from encat.vstruct import check_path, check_vstructure
from harness import digest, entries, outcome, read, replaced, rows
from tests.enriched_reference import self_path, self_vstructure

BASES = ("bool", "cyc(3)", "trop(3)")
STRIDE = 7

# (mutants in the corpus, sha256 of every STRIDE-th outcome, sha256 of all)
GOLDEN = {
    "bool": (124, "b0da54a812bef52a818a6ed5ad4b4f2808da4136427270c54635b8b27f474e3f",
             "e2d7986bef15426e4c936c8168441302fc0b38d741cc263d025c921d8f6af852"),
    "cyc(3)": (50, "ecf3a0a1e58c1616a8348055b59017563d5ed06366303c8837621c2698f49403",
               "722ad629c0126617d84def09f672435835a3046a4a3a0637e490129fda3a6593"),
    "trop(3)": (738, "9798cba38c14cf19841821049edcaf89c6c5186f759d68c5cb57e35217f2f0ef",
                "cbd91317208e38b4ee4dbcb00473696b9c59d423e723b615b3095aabbd8726e6"),
}


# The square beta . hom(Y, -) . b = psibar . ev, with the internal
# composition read after the braiding, at every (K, X, Y).
PATH_SQUARE = Law(
    "path.cp2-1-25",
    lambda vs, pth, m: ((k, x, y) for k, x in sorted(pth.path_obj) for y in vs.baseS.objects),
    lambda vs, pth, m, k, x, y: m.base.compose(
        m.tmor(m.base.id_(vs.hom_obj(y, pth.path_obj[(k, x)])), pth.beta[(k, x)]),
        m.braid(vs.hom_obj(y, pth.path_obj[(k, x)]), vs.hom_obj(pth.path_obj[(k, x)], x)),
        vs.b(y, pth.path_obj[(k, x)], x)),
    lambda vs, pth, m, k, x, y: m.base.compose(
        m.tmor(pth.psibar[(k, x, y)], m.base.id_(k)), m.ev(k, vs.hom_obj(y, x))))


def reference(vs, pth) -> list:
    """The path checker's reports, computed directly on ``vs``."""
    m = vs.baseV
    base = m.base
    hom = lambda x, y: vs.hom_obj(y, x)  # noqa: E731
    reports = []
    for k in base.objects:
        for x in vs.baseS.objects:
            kx = pth.path_obj[(k, x)]
            be = pth.beta[(k, x)]
            if not (base.has_mor(be) and base.src(be) == k and base.dst(be) == hom(x, kx)):
                reports.append(CheckReport("path.shape", (k, x, be), witness_count=0))
            for y in vs.baseS.objects:
                pb = pth.psibar[(k, x, y)]
                if not (base.has_mor(pb) and base.src(pb) == hom(kx, y)
                        and base.dst(pb) == m.hom_obj(k, hom(x, y))):
                    reports.append(CheckReport("path.shape", (k, x, y, pb), witness_count=0))
                elif morphism_inverse(base, pb) is None:
                    reports.append(CheckReport("path.psibar-iso", (k, x, y), witness_count=0))
    return sort_reports(reports + evaluate((PATH_SQUARE,), vs, pth, m))


def mutants(m):
    """Every single-entry mutant (structure, path), in a fixed order."""
    vs, pth = self_vstructure(m), self_path(m)
    objs, mors = m.base.objects, m.base.mor_ids()
    for data, path, values in ((pth, ("path_obj",), objs), (pth, ("beta",), mors),
                               (pth, ("psibar",), mors), (vs, ("comp",), mors),
                               (vs, ("phi",), mors), (vs, ("homFunctor", "onObjects"), objs),
                               (vs, ("homFunctor", "onMorphisms"), mors),
                               (vs, ("baseV", "symmetry", "braid"), mors)):
        for _, table in entries(read(data, path), values, sorted):
            mutant = replaced(data, path, table)
            yield (vs, mutant) if data is pth else (mutant, pth)


def outcome_of(vs, pth) -> list:
    """What the path checker makes of one mutant."""
    return outcome(lambda: rows(check_path(vs, pth)))


def corpus(name: str, stride: int = 1) -> tuple[int, list]:
    """The number of mutants of base ``name`` and the outcomes of every
    ``stride``-th of them."""
    _, m = build_instance(parse_instance_name(name))
    found = list(mutants(m))
    return len(found), [outcome_of(vs, pth) for vs, pth in found[::stride]]


@pytest.mark.parametrize("name", BASES)
def test_strided_corpus_matches_golden(name):
    count, outcomes = corpus(name, STRIDE)
    assert (count, digest(outcomes)) == GOLDEN[name][:2]


@pytest.mark.slow
@pytest.mark.parametrize("name", BASES)
def test_corpus_matches_golden(name):
    count, outcomes = corpus(name)
    assert (count, digest(outcomes)) == (GOLDEN[name][0], GOLDEN[name][2])


def _agrees_with_reference(name: str, stride: int) -> None:
    _, m = build_instance(parse_instance_name(name))
    for vs, pth in list(mutants(m))[::stride]:
        try:
            got = check_path(vs, pth)
        except EncatError:
            continue
        if check_v(vs.baseV):
            assert got == check_v(vs.baseV)
            continue
        assert got[len(check_vstructure(vs)):] == reference(vs, pth)


@pytest.mark.parametrize("name", BASES)
def test_strided_path_check_is_the_direct_square_where_it_returns(name):
    _agrees_with_reference(name, STRIDE)


@pytest.mark.slow
@pytest.mark.parametrize("name", BASES)
def test_path_check_is_the_direct_square_where_it_returns(name):
    _agrees_with_reference(name, 1)


if __name__ == "__main__":
    for name in BASES:
        count, every = corpus(name)
        print(json.dumps(name), (count, digest(every[::STRIDE]), digest(every)))
