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
"""

import hashlib
import json
import os
import sys

from encat.core import EncatError
from encat.interface import serialize, parse

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


def mutations(node):
    """Every single-fault copy of a JSON tree, in a fixed order."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield {k: v for k, v in node.items() if k != key}
            yield {**node, key: _retyped(value)}
            for mutated in mutations(value):
                yield {**node, key: mutated}
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
                         "sha256": _sha(json.dumps(entry["outcomes"]))}
                  for kind, entry in kinds.items()},
    }


def test_codec_corpus_matches_golden(bool_m, trop3, cyc3, poset_cm, self_trop3):
    from tests.test_interface import _all_documents

    with open(GOLDEN, encoding="utf-8") as handle:
        expected = json.load(handle)
    assert golden(_all_documents(bool_m, trop3, cyc3, poset_cm, self_trop3)) == expected


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from encat.instances import build_bool, build_cyc, build_poset_module, build_trop, module_self
    from tests.test_interface import _all_documents

    trop3 = build_trop(3)
    docs = _all_documents(build_bool(), trop3, build_cyc(3), build_poset_module(),
                          module_self(trop3))
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden(docs), handle, indent=2, sort_keys=True)
        handle.write("\n")
