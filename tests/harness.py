"""What the corpus and gate tests share: single-entry mutants, outcomes and
their digest, a spy on the judge, and the one gate-free reference.

A gate (``Law.gate``) lets a checker judge a cover instead of every site of
a law.  The reference, :func:`gate_free`, switches every gate off at once by
judging ``law.sites(*data)`` wherever ``core`` judges a law, and
:func:`agree` compares a checker with it on mutants that each side builds
afresh, so that no verdict one side keeps is read by the other.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os

import pytest

import encat.core as core
from encat.cli import cli
from encat.core import EncatError, required


def entries(table, values, keys=list):
    """((key, value), copy) for every single-entry mutant of ``table``: each
    key, in the order ``keys(table)`` gives, deleted, with value ``None``,
    then given each other value of ``values``.  A key whose value is a table
    (a row of an adjunction) is mutated inside it instead, its where
    ``(key, inner key, value)``."""
    for key in keys(table):
        if isinstance(table[key], dict):
            for where, row in entries(table[key], values, keys):
                yield (key, *where), {**table, key: row}
            continue
        yield (key, None), {k: v for k, v in table.items() if k != key}
        for value in values:
            if value != table[key]:
                yield (key, value), {**table, key: value}


def read(data, path: tuple):
    """The attribute of ``data`` at ``path``, a tuple of attribute names."""
    for name in path:
        data = getattr(data, name)
    return data


def replaced(data, path: tuple, value):
    """``data`` with the attribute at ``path`` set to ``value``."""
    if not path:
        return value
    return dataclasses.replace(data, **{path[0]: replaced(getattr(data, path[0]), path[1:], value)})


def mutated(data, paths: dict, values, keys=list):
    """((name, *where), copy of ``data``) for every :func:`entries` mutant
    over ``values`` of each table ``paths`` names, at its path."""
    for name, path in paths.items():
        for where, table in entries(read(data, path), values, keys):
            yield (name, *where), replaced(data, path, table)


def outcome(run, *args):
    """``run(*args)``, or the class name and message of the
    :class:`EncatError` it raises (any other exception escapes)."""
    try:
        return run(*args)
    except EncatError as exc:
        return type(exc).__name__, str(exc)


def rows(reports) -> list:
    """The reports as the digests hash them: every field of each."""
    return [[r.law, list(r.site), r.lhs, r.rhs, r.witness_count, r.note] for r in reports]


def digest(outcomes) -> str:
    return hashlib.sha256(json.dumps(outcomes).encode("utf-8")).hexdigest()


def command(tmp: str, *argv: str) -> list:
    """[exit code, printed text with ``tmp`` written ``<tmp>``, sha256 of the
    document written to ``tmp/out.json`` or ``None``] of ``encat argv``; the
    written document is removed."""
    out, written, sha = io.StringIO(), os.path.join(tmp, "out.json"), None
    code = cli(list(argv), out=out)
    if os.path.exists(written):
        with open(written, "rb") as handle:
            sha = hashlib.sha256(handle.read()).hexdigest()
        os.remove(written)
    return [code, out.getvalue().replace(tmp, "<tmp>"), sha]


def cli_corpus(tmp: str, docs, argvs, run, stride: int = 1) -> tuple[int, list]:
    """The number of commands ``argvs(doc)`` over the documents ``docs``, and
    ``run(tmp, argv)`` for every ``stride``-th of them, its document written
    to ``tmp/doc.json`` as ``encat`` writes one."""
    count, outcomes = 0, []
    for doc in docs:
        picked = [argv for i, argv in enumerate(argvs(doc), count) if i % stride == 0]
        count += len(argvs(doc))
        if picked:
            with open(os.path.join(tmp, "doc.json"), "w", encoding="utf-8") as handle:
                json.dump(doc, handle, indent=2, sort_keys=True)
            outcomes += [run(tmp, argv) for argv in picked]
    return count, outcomes


def spy(mp) -> list[tuple[core.Law, tuple, list[tuple[str, ...]]]]:
    """Record the law, data and sites of every ``core._judge`` call."""
    seen = []
    judge = core._judge

    def recording(law, sites, data):
        sites = list(sites)
        seen.append((law, data, sites))
        return judge(law, sites, data)

    mp.setattr(core, "_judge", recording)
    return seen


def spied(run, *args):
    """``run(*args)`` and the :func:`spy` record of what it judged."""
    with pytest.MonkeyPatch.context() as mp:
        seen = spy(mp)
        return run(*args), seen


def by_law(seen) -> dict[str, list[list[tuple[str, ...]]]]:
    """Per law name, the site families of a :func:`spy` record, in order."""
    found: dict[str, list] = {}
    for law, _, sites in seen:
        found.setdefault(law.name, []).append(sites)
    return found


def _every_site(laws, data):
    for law in laws:
        yield from core._judge(law, law.sites(*data), data)


@contextlib.contextmanager
def gate_free():
    """Every law judged at every site of ``law.sites``: no gate is asked for
    a cover, whichever module declares the law."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_reports", _every_site)
        yield


def reference(run, *args):
    """The :func:`outcome` of ``run(*args)`` judged :func:`gate_free`."""
    with gate_free():
        return outcome(run, *args)


def agree(build, check, stride: int = 1, full=None) -> int:
    """Compare ``outcome(check, mutant)`` with ``full(mutant)`` (by default
    its :func:`reference`) on every ``stride``-th (where, mutant) of
    ``build()``.  Each side takes its mutants from its own ``build()`` call,
    so no verdict kept on one side is read by the other.  Returns the
    number of mutants compared."""
    full = full or (lambda mutant: reference(check, mutant))
    pairs = list(zip(list(build())[::stride], list(build())[::stride]))
    for (where, mutant), (_, copy) in pairs:
        assert outcome(check, mutant) == full(copy), where
    return len(pairs)


def lying(mp, module, family: str, index: int) -> core.Law:
    """Patch ``module.family`` so that the law at ``index`` has a side that
    is never the other's; return that law."""
    laws = getattr(module, family)
    lie = dataclasses.replace(laws[index], rhs=required(lambda *args: "a lie"))
    mp.setattr(module, family, laws[:index] + (lie,) + laws[index + 1:])
    return lie
