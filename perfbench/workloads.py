"""The four workloads: their input documents, command decks and known answers.

A workload is a set of input documents made during set-up plus a *deck*: a
fixed multiset of ``encat`` commands.  A run plays the deck again and again,
each time in a new order drawn from the seed.  The seed also fixes the
mutation sites.  Because every deck holds the same commands, the latency
distribution of a run does not depend on how many decks fit in its time.

Every expectation below is written by hand from the laws each mutation
breaks; none is read from the program under test.  Output documents are
compared with the digests in ``reference.json``.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass

DECK_ORDERS = 256  # deck permutations drawn per run; a run cycles past them

# Law-name families.  A mutated document must be rejected with exit code 1,
# every report must fall in ``allowed`` and at least one in ``required``.
MONOIDAL_LAWS = ("tensor.", "assoc.", "lunit.", "runit.", "pentagon", "triangle")


@dataclass(frozen=True)
class MutationKind:
    """A single-entry mutation: one table row's value swapped for another
    declared id of the same sort."""

    name: str
    table: tuple[str, ...]    # path in the document body to the rows
    domain: tuple[str, ...]   # path to the declared morphisms the value ranges over
    allowed: tuple[str, ...]  # law-name prefixes a report may carry
    required: tuple[str, ...]  # at least one report carries one of these


MUTATIONS = {m.name: m for m in (
    # monoidal documents
    MutationKind("comp", ("base", "comp"), ("base", "morphisms"),
                 ("category.",), ("category.",)),
    MutationKind("tensor", ("tensor_mor",), ("base", "morphisms"),
                 MONOIDAL_LAWS, ("tensor.",)),
    MutationKind("assoc", ("assoc",), ("base", "morphisms"),
                 MONOIDAL_LAWS, ("assoc.", "pentagon", "triangle")),
    MutationKind("braid", ("symmetry", "braid"), ("base", "morphisms"),
                 ("symmetry.",), ("symmetry.",)),
    MutationKind("eval", ("closed", "eval"), ("base", "morphisms"),
                 ("closed.",), ("closed.",)),
    # documents above the base
    MutationKind("action", ("module", "action", "on_morphisms"),
                 ("module", "base_s", "morphisms"),
                 ("module.", "moduleclosed."), ("module.functor.",)),
    MutationKind("cotensor", ("cotensor", "on_morphisms"),
                 ("tensor_closed", "module", "base_s", "morphisms"),
                 ("moduleclosed.",), ("moduleclosed.cotensor.",)),
    MutationKind("vcomp", ("vstructure", "comp"),
                 ("vstructure", "base_v", "base", "morphisms"),
                 ("vstructure.", "cylinder."), ("vstructure.",)),
    MutationKind("comodassoc", ("comodule_assoc",),
                 ("closed_module", "tensor_closed", "module", "base_s", "morphisms"),
                 ("comodule.", "bimodule."), ("comodule.",)),
)}


@dataclass(frozen=True)
class Expect:
    """The known answer of one command."""

    kind: str                  # "clean" | "reports" | "equal" | "digest"
    mutation: str = ""         # for "reports": the MUTATIONS key
    reference: str = ""        # for "digest": the reference.json key


@dataclass(frozen=True)
class Command:
    instance: str              # ladder rung, e.g. "trop(8)"
    label: str                 # what the command does, e.g. "check:tensor"
    argv: tuple[str, ...]
    expect: Expect
    output: str = ""           # file the command writes, if any


@dataclass(frozen=True)
class Mutation:
    source: str
    target: str
    kind: str
    row: float                 # which row, as a fraction of the table length
    value: float               # which replacement, as a fraction of the choices


@dataclass
class Plan:
    """Everything one run needs: set-up steps, mutations and the deck."""

    setup: list[tuple[str, tuple[str, ...], str]]  # (reference key, argv, file)
    mutations: list[Mutation]
    deck: list[Command]
    orders: list[list[int]]


def doc_file(instance: str, kind: str) -> str:
    stem = re.sub(r"[^A-Za-z0-9]+", "_", instance).strip("_")
    return f"{stem}.{kind}.json"


OUT = "out.json"


def _instance(inst: str, kind: str):
    path = doc_file(inst, kind)
    return (f"instance {inst}", ("instance", inst, "-o", path), path)


def _construct(inst: str, op: str, src_kind: str, dst_kind: str):
    path = doc_file(inst, dst_kind)
    return (f"{op} {inst}",
            ("construct", doc_file(inst, src_kind), "--op", op, "-o", path), path)


def _check(inst: str, path: str, label: str, expect: Expect) -> Command:
    return Command(inst, label, ("check", path, "--format", "json"), expect)


class _Builder:
    def __init__(self, name: str, seed: int):
        self.rng = random.Random(f"{name}:{seed}")
        self.plan = Plan([], [], [], [])

    def setup(self, *steps):
        self.plan.setup.extend(steps)

    def add(self, command: Command, times: int = 1):
        self.plan.deck.extend([command] * times)

    def mutate(self, inst: str, kind: str, mutation: str, sites: int = 1):
        """Add ``sites`` mutated copies of a document, each checked once a deck."""
        for i in range(sites):
            target = doc_file(inst, f"{kind}.{mutation}{i}")
            self.plan.mutations.append(Mutation(
                doc_file(inst, kind), target, mutation,
                self.rng.random(), self.rng.random()))
            self.add(_check(inst, target, f"check:{mutation}",
                            Expect("reports", mutation=mutation)))

    def finish(self) -> Plan:
        n = len(self.plan.deck)
        for _ in range(DECK_ORDERS):
            order = list(range(n))
            self.rng.shuffle(order)
            self.plan.orders.append(order)
        return self.plan


def _coherence(b: _Builder):
    # Copies per deck.  Of 39 commands, the 26 composition rejects hold the
    # median (among the trop(8) ones); p90 falls on the four copies of the
    # lawful cyc(12) sweep, with the lawful trop(6) and both trop(8) sweeps
    # beyond it.
    for inst, copies, comp_sites in (("trop(6)", 1, 5), ("trop(8)", 1, 10),
                                     ("cyc(8)", 1, 5), ("cyc(12)", 4, 6)):
        b.setup(_instance(inst, "monoidal"))
        b.add(_check(inst, doc_file(inst, "monoidal"), "check", Expect("clean")), copies)
        # the reject path: a broken composition stops at category validation
        b.mutate(inst, "monoidal", "comp", sites=comp_sites)
    # Sweeps that end in reports.  Every kind is on cyc(8), the cheapest
    # table, so a deck stays short and each slow command runs several times
    # a run.
    for kind in ("tensor", "assoc", "braid"):
        b.mutate("cyc(8)", "monoidal", kind)
    b.mutate("trop(8)", "monoidal", "tensor")
    b.mutate("trop(6)", "monoidal", "tensor")
    # in cyc(n) every evaluation map is lawful, so only trop gets this one
    b.mutate("trop(6)", "monoidal", "eval")


def _correspondence(b: _Builder):
    # Copies per deck.  The eight self-module round trips are the top 19% of
    # a deck's 42 commands; p90 falls on the three self(trop(3)) copies, with
    # self(cyc(8)) and self(trop(4)) beyond it.  The poset round trips and
    # the cylinder side, the cheap half, hold the median.
    weights = {"self(trop(3))": 3, "self(trop(4))": 1, "self(cyc(6))": 2,
               "self(cyc(8))": 2, "poset-diamond": 4}
    for inst, times in weights.items():
        b.setup(_instance(inst, "closedmodule"),
                _construct(inst, "module-to-cylinder", "closedmodule", "cylinder"))
        b.add(Command(inst, "roundtrip:module-cylinder",
                      ("roundtrip", doc_file(inst, "closedmodule"),
                       "--pair", "module-cylinder"), Expect("equal")), times)
        # the cylinder side: the cheap half of the correspondence
        b.add(Command(inst, "construct:cylinder-to-module",
                      ("construct", doc_file(inst, "cylinder"),
                       "--op", "cylinder-to-module", "-o", OUT),
                      Expect("digest", reference=f"cylinder-to-module {inst}"),
                      OUT), 3)
        b.add(Command(inst, "roundtrip:cylinder-tensored",
                      ("roundtrip", doc_file(inst, "cylinder"),
                       "--pair", "cylinder-tensored"), Expect("equal")), 3)


def _modules(b: _Builder):
    for inst in ("self(trop(4))", "self(cyc(8))", "poset-diamond"):
        b.setup(_instance(inst, "closedmodule"),
                _construct(inst, "module-to-cylinder", "closedmodule", "cylinder"),
                _construct(inst, "cylinder-to-module", "cylinder", "tensorclosed"),
                _construct(inst, "bimodule-complete", "closedmodule", "bimodule"),
                _construct(inst, "induced-vstructure", "closedmodule", "vstructure"),
                _construct(inst, "associated-vcat", "vstructure", "vcategory"))
        b.add(_check(inst, doc_file(inst, "vcategory"), "check:vcategory", Expect("clean")))
        # What a mutated check costs depends on the site, so each kind has
        # several.  The counts put the median among the tensorclosed and
        # action checks of the two self modules.
        for kind, mutation, sites in (("closedmodule", "cotensor", 2),
                                      ("tensorclosed", "action", 4),
                                      ("cylinder", "vcomp", 3),
                                      ("bimodule", "comodassoc", 3)):
            b.add(_check(inst, doc_file(inst, kind), f"check:{kind}", Expect("clean")))
            b.mutate(inst, kind, mutation, sites=sites)


def _documents(b: _Builder):
    weights = {"trop(8)": 1, "trop(10)": 2, "cyc(16)": 1, "self(trop(4))": 1,
               "self(cyc(8))": 2, "poset-diamond": 1}
    for inst, times in weights.items():
        b.add(Command(inst, "instance", ("instance", inst, "-o", OUT),
                      Expect("digest", reference=f"instance {inst}"), OUT), times)
    ops = (("induced-vstructure", "closedmodule"), ("bimodule-complete", "closedmodule"),
           ("associated-vcat", "vstructure"), ("underlying", "vcategory"))
    for inst in ("self(trop(4))", "self(cyc(8))", "poset-diamond"):
        b.setup(_instance(inst, "closedmodule"),
                _construct(inst, "induced-vstructure", "closedmodule", "vstructure"),
                _construct(inst, "associated-vcat", "vstructure", "vcategory"))
        for op, src in ops:
            b.add(Command(inst, f"construct:{op}",
                          ("construct", doc_file(inst, src), "--op", op, "-o", OUT),
                          Expect("digest", reference=f"{op} {inst}"), OUT))
    # self(trop(4)) is left out here: its cylinder alone takes seconds to build
    for inst in ("self(cyc(8))", "poset-diamond"):
        b.setup(_construct(inst, "module-to-cylinder", "closedmodule", "cylinder"))
        b.add(Command(inst, "construct:cylinder-to-tensored",
                      ("construct", doc_file(inst, "cylinder"),
                       "--op", "cylinder-to-tensored", "-o", OUT),
                      Expect("digest", reference=f"cylinder-to-tensored {inst}"), OUT))


WORKLOADS = {
    "coherence": (_coherence, "monoidal coherence sweeps and category validation: "
                  "encat check on trop/cyc tables, lawful and single-entry mutated"),
    "correspondence": (_correspondence, "module-cylinder round trips on self modules "
                       "plus the cheap cylinder-side constructions"),
    "modules": (_modules, "encat check on closedmodule, tensorclosed, cylinder, "
                "bimodule and vcategory documents, lawful and mutated; the base is "
                "not re-checked"),
    "documents": (_documents, "encat instance and cheap constructions that write "
                  "documents; codec parse/serialize dominate, no law sweep"),
}


def build_plan(workload: str, seed: int) -> Plan:
    b = _Builder(workload, seed)
    WORKLOADS[workload][0](b)
    return b.finish()


def _walk(body, path):
    for key in path:
        body = body[key]
    return body


def apply_mutation(m: Mutation) -> dict:
    """Write the mutated document; return the concrete site for the manifest."""
    with open(m.source, encoding="utf-8") as handle:
        doc = json.load(handle)
    kind = MUTATIONS[m.kind]
    rows = _walk(doc["body"], kind.table)
    row = rows[int(m.row * len(rows))]
    declared = _walk(doc["body"], kind.domain)
    choices = sorted(mor["id"] for mor in declared if mor["id"] != row[-1])
    old, row[-1] = row[-1], choices[int(m.value * len(choices))]
    with open(m.target, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return {"file": m.target, "kind": m.kind, "row": row[:-1], "old": old, "new": row[-1]}


def verdict(cmd: Command, rc: int, stdout: str, digest: str | None,
            reference: dict) -> str | None:
    """None if the command gave its known answer, else why not."""
    exp = cmd.expect
    if exp.kind == "equal":
        return None if rc == 0 and stdout == "equal\n" else f"rc={rc} {stdout[:80]!r}"
    if exp.kind == "digest":
        want = reference.get(exp.reference)
        if rc != 0 or digest != want:
            return f"rc={rc} digest {digest} != reference {want}"
        return None
    try:
        laws = [r["law"] for r in json.loads(stdout)["reports"]]
    except (ValueError, KeyError, TypeError):
        return f"rc={rc} unreadable report {stdout[:80]!r}"
    if exp.kind == "clean":
        return None if rc == 0 and not laws else f"rc={rc} laws={sorted(set(laws))}"
    kind = MUTATIONS[exp.mutation]
    stray = sorted({law for law in laws if not law.startswith(kind.allowed)})
    hit = any(law.startswith(kind.required) for law in laws)
    if rc != 1 or stray or not hit:
        return f"rc={rc} {exp.mutation}: stray={stray} required-hit={hit}"
    return None
