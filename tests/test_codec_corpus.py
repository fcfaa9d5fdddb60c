"""Golden test of the ``encat/1`` codec over a fixed-rule corpus of
single-fault documents.

Every document of ``test_interface._all_documents`` is mutated by one fixed
rule, chosen without looking at the outcomes:

- every dict key is deleted, or its value retyped;
- the first row of every list is deleted, duplicated, retyped or truncated,
  and each of its string cells is replaced by ``"ghost"``;
- the same rule recurses into every dict value and into the first row of
  every list.

Each input's outcome is the class, line, column and token of the
:class:`EncatError` it raises (any other exception fails the test), or the
sha256 of ``serialize(parse(text))``.  The per-kind digests of those lists
and the digest of every document's serialized bytes are compared with
``codec_golden.json``; ``python tests/test_codec_corpus.py`` rewrites it.

A second corpus applies the same rule at the *last* row of every list, where
a reader that checks a table in bulk must still name the first bad row as a
row-by-row scan does.  Its per-kind digests are pinned in ``GOLDEN_LAST``,
for every ``STRIDE``-th input in tier-1 and for all of them under ``-m slow``;
``python tests/test_codec_corpus.py --last`` prints them.
"""

import hashlib
import json
import os
import sys

import pytest

from encat.core import EncatError
from encat.interface import serialize, parse
from harness import digest

GOLDEN = os.path.join(os.path.dirname(__file__), "codec_golden.json")


def _retyped(value):
    return 0 if isinstance(value, str) else "ghost"


def _truncated(value):
    if isinstance(value, dict):
        return dict(list(value.items())[:-1])
    return value[:-1] if isinstance(value, (str, list)) else value


def _ghosted(row):
    """Copies of a row with one string cell replaced by ``"ghost"``."""
    if isinstance(row, str):
        yield "ghost"
    elif isinstance(row, list):
        for i, cell in enumerate(row):
            if isinstance(cell, str):
                yield row[:i] + ["ghost"] + row[i + 1:]
    elif isinstance(row, dict):
        for key, cell in row.items():
            if isinstance(cell, str):
                yield {**row, key: "ghost"}


def mutations(node, last: bool = False):
    """Every single-fault copy of a JSON tree, in a fixed order; the faults
    of a list fall on its first row, or on its last one if ``last``."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield {k: v for k, v in node.items() if k != key}
            yield {**node, key: _retyped(value)}
            for mutated in mutations(value, last):
                yield {**node, key: mutated}
    elif isinstance(node, list) and node and last:
        rest, end = node[:-1], node[-1]
        yield rest
        yield rest + [end, end]
        yield rest + [_retyped(end)]
        yield rest + [_truncated(end)]
        for row in _ghosted(end):
            yield rest + [row]
        for mutated in mutations(end, last):
            yield rest + [mutated]
    elif isinstance(node, list) and node:
        first, rest = node[0], node[1:]
        yield rest
        yield [first, first] + rest
        yield [_retyped(first)] + rest
        yield [_truncated(first)] + rest
        for row in _ghosted(first):
            yield [row] + rest
        for mutated in mutations(first):
            yield [mutated] + rest


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def outcome(text: str) -> list:
    try:
        return ["bytes", _sha(serialize(parse(text)))]
    except EncatError as exc:
        return [type(exc).__name__, getattr(exc, "line", None),
                getattr(exc, "col", None), getattr(exc, "token", None)]


def golden(documents) -> dict:
    digests, kinds = {}, {}
    for i, doc in enumerate(documents):
        text = serialize(doc)
        digests[f"{i:02d}.{doc.kind}"] = _sha(text)
        entry = kinds.setdefault(doc.kind, {"outcomes": [], "classes": {}})
        for mutated in mutations(json.loads(text)):
            result = outcome(json.dumps(mutated, sort_keys=True))
            entry["outcomes"].append(result)
            entry["classes"][result[0]] = entry["classes"].get(result[0], 0) + 1
    return {
        "documents": digests,
        "kinds": {kind: {"inputs": len(entry["outcomes"]),
                         "classes": dict(sorted(entry["classes"].items())),
                         "sha256": digest(entry["outcomes"])}
                  for kind, entry in kinds.items()},
    }


def last_row(documents, stride: int = 1) -> dict:
    """Per kind: (inputs of the last-row corpus, sha256 of the outcomes of
    every ``stride``-th of them)."""
    found: dict = {}
    for doc in documents:
        found.setdefault(doc.kind, []).extend(mutations(json.loads(serialize(doc)), last=True))
    return {kind: (len(inputs), digest(
                [outcome(json.dumps(m, sort_keys=True)) for m in inputs[::stride]]))
            for kind, inputs in found.items()}


def test_codec_corpus_matches_golden(bool_m, trop3, cyc3, poset_cm, self_trop3):
    from tests.test_interface import _all_documents

    with open(GOLDEN, encoding="utf-8") as handle:
        expected = json.load(handle)
    assert golden(_all_documents(bool_m, trop3, cyc3, poset_cm, self_trop3)) == expected


# Last-row corpus, per kind: (inputs, sha256 of every STRIDE-th outcome,
# sha256 of all of them).
STRIDE = 7
GOLDEN_LAST = {
    'fincategory': (48, '807323ad31637a731f799de6af0219541d87ec037e657e4e7413cd7ce9c2d2e1',
        'e928d5ba114a03fa9b3ecc4d0d6b58067da242f2970f425befb883a14e4fef73'),
    'monoidal': (501, 'b680999518a5130f73403e5fcc26cc2f9fd300aabadf8f3d974a56ad081eccdb',
        'f2f9efe5f841198232132164c6473c4e63ece370e2d6acd950b1162fac3d7d00'),
    'vcategory': (220, 'd0e43d405d12937335cbf46a59ff9fd8364d63522deef4604fdc271df05fc098',
        '515873f9545e0ca4df9f499793bd21ed4607d3081ef400a9034502d8491d2df3'),
    'vstructure': (277, '978d8bf4580d54a17f708cb5bc7ba6c84a19bae33b816dc0c1ca5f15246a4b81',
        'c04f0c7ca83834dbcf95731f79bd1558a5863d07708ccbb7ebc33ac767fda7e8'),
    'cylinder': (318, 'bd36b6611056b9a9eca94e8fa5165fbbc040e9a3715f72c488d346e327ead515',
        '410b124df44f1a4b5e78fad0731505fd8a5f3096a6284c9c63ba1a5c1231b4e8'),
    'path': (314, '76b65c7c3897d676ea84b4ec20c1ea21a4581d4abb13a7456af55fa9704b0197',
        '3391895890a7d6d184fd8a3e05904c7bf39c91e0d087eb86351f1422fa2038c1'),
    'vmodule': (275, '44ec7c2581f2f5cd0c1ba99c4e472ad8328df15ea62de3c7e5e380e5c463cdb7',
        '09eb42453e8c5877fd749ee5f7397319b1d0380fb3c92606fb6a30db7bdcdec9'),
    'tensorclosed': (331, 'fab07ca0cd01641bbde0f3a14f1cbbb25e4302940ffee71b86735bbc8872cbde',
        '7ffac78a0a734e08e12f63bf0a728a11746bbb2f3cbd513ee73fd9e4e0bcab77'),
    'closedmodule': (387, '1abee96ba0ba62cba47ba02d979ec32650c317aa5a0b6dc4eee10d40c4756e5e',
        'a8a234036fc8884d80e1e219276a786e99d498982a154234830ac52b8ff69890'),
    'bimodule': (417, '0ed2fbeff984a12608ffa6add0cb31625b3bf5d89d9decca15806ed5fe73e197',
        'ced5b49e460b2c92ed456333b030e74d5ec0d607af12961f61a2d426784037ac'),
}


def test_last_row_corpus_matches_golden(bool_m, trop3, cyc3, poset_cm, self_trop3):
    from tests.test_interface import _all_documents

    found = last_row(_all_documents(bool_m, trop3, cyc3, poset_cm, self_trop3), STRIDE)
    assert found == {kind: (n, strided) for kind, (n, strided, _) in GOLDEN_LAST.items()}


@pytest.mark.slow
def test_last_row_corpus_matches_golden_exhaustive(bool_m, trop3, cyc3, poset_cm, self_trop3):
    from tests.test_interface import _all_documents

    found = last_row(_all_documents(bool_m, trop3, cyc3, poset_cm, self_trop3))
    assert found == {kind: (n, every) for kind, (n, _, every) in GOLDEN_LAST.items()}


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from encat.instances import build_bool, build_cyc, build_poset_module, build_trop, module_self
    from tests.test_interface import _all_documents

    trop3 = build_trop(3)
    docs = _all_documents(build_bool(), trop3, build_cyc(3), build_poset_module(),
                          module_self(trop3))
    if "--last" in sys.argv:
        strided, every = last_row(docs, STRIDE), last_row(docs)
        for kind, (n, sha) in strided.items():
            print(f"    {kind!r}: ({n}, {sha!r},\n{' ' * 8}{every[kind][1]!r}),")
    else:
        with open(GOLDEN, "w", encoding="utf-8") as handle:
            json.dump(golden(docs), handle, indent=2, sort_keys=True)
            handle.write("\n")
