"""encat benchmark: one closed-loop client running real ``encat`` commands.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload coherence --seed 1 --seconds 15 --trace 0

Set-up forks a child that imports encat from ``src/`` and writes every input
document the workload needs, timing the import and each step; this is done
``SETUP_REPEATS`` times.  The parent then imports encat once and runs each
command as ``encat.cli.cli(argv)`` in a forked child, one child at a time,
timed around the ``cli`` call inside the child.  Nothing a command computes is
seen by the next one, as for a user who starts ``encat`` once per command.

Times are CPU seconds scaled to a quiet machine: each command and each set-up
step is bracketed by two runs of a fixed pure-Python job (``yardstick.py``),
and its CPU time is multiplied by the job's reference time over their mean.
The machine this was tuned on slows by up to 2x for minutes at a time under
other tenants' load; the scaled times move by a few percent.  A command's
latency is the median of its scaled repeats in the run.

Every command's exit code, report law names or output bytes are compared with
a known answer (``workloads.py``, ``reference.json``).  With ``--trace 1`` the
run plays its decks untraced, then the same decks with every layer function
wrapped (``spans.py``), and reports per-layer totals and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import marshal
import math
import os
import shutil
import signal
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

from spans import LAYERS, REPEAT, UNREACHED, Tracer
from yardstick import scale, yardstick
from workloads import WORKLOADS, apply_mutation, build_plan, verdict

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 3        # set-ups per run; setup_s adds up per-step medians
MIN_DECKS = 4            # every command runs at least this often in a timed run
RUN_CAP_S = 100.0        # stop starting decks after this, whatever --seconds says
COMMAND_TIMEOUT_S = 120  # a command child is killed by SIGALRM after this


# ------------------------------------------------------------------- set-up

def _scaled(step) -> float:
    """Scaled CPU seconds of ``step()``, bracketed by yardstick runs."""
    y_before = yardstick()
    start = time.process_time()
    step()
    cpu = time.process_time() - start
    return cpu * scale(y_before, yardstick())


def _setup_child(plan) -> list[float]:
    """Import encat and write every input document; return the scaled CPU
    seconds of the import, of each set-up command and of the mutations."""
    sys.path.insert(0, str(SRC))
    times = [_scaled(lambda: importlib.import_module("encat.cli"))]
    cli = sys.modules["encat.cli"].cli

    def run(key, argv):
        out = io.StringIO()
        if cli(list(argv), out=out) != 0:
            raise RuntimeError(f"set-up step {key!r} failed: {out.getvalue()}")

    def mutate():
        manifest = [apply_mutation(m) for m in plan.mutations]
        with open("mutations.json", "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)

    times += [_scaled(lambda: run(key, argv)) for key, argv, _path in plan.setup]
    times.append(_scaled(mutate))
    return times


def _in_child(job):
    """Run ``job()`` in a forked child; return its result and the child's rusage."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        signal.alarm(COMMAND_TIMEOUT_S)
        try:
            payload = job()
        except BaseException as exc:  # the child reports whatever the job raised
            traceback.print_exc()
            payload = {"error": f"{type(exc).__name__}: {exc}"}
        with os.fdopen(write_fd, "wb") as handle:
            handle.write(marshal.dumps(payload))
        os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as handle:
        data = handle.read()
    _, status, usage = os.wait4(pid, 0)
    try:
        return marshal.loads(data), usage
    except (EOFError, ValueError, TypeError):
        return {"error": f"child ended with status {status} and no result"}, usage


def timed_setup(plan) -> list[list[float]]:
    """Set up ``SETUP_REPEATS`` times in fresh forked children (encat is not
    imported here yet); return the step times of each set-up."""
    runs = []
    for _ in range(SETUP_REPEATS):
        times, _usage = _in_child(lambda: _setup_child(plan))
        if isinstance(times, dict):
            raise SystemExit(f"set-up failed: {times['error']}")
        runs.append(times)
    return runs


def _sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


# ----------------------------------------------------------------- commands

def _execute(cli, cmd, tracer) -> dict:
    out = io.StringIO()
    y_before = yardstick()
    start, cpu_start = time.perf_counter(), time.process_time()
    rc = cli.cli(list(cmd.argv), out=out)
    cpu = time.process_time() - cpu_start
    wall = time.perf_counter() - start
    y_after = yardstick()
    digest = None
    if cmd.output:
        digest = _sha256(cmd.output)
        os.remove(cmd.output)
    return {"rc": rc, "cpu": cpu, "wall": wall, "stdout": out.getvalue(), "digest": digest,
            "scale": scale(y_before, y_after), "yardstick": y_before + y_after,
            "layers": tracer.totals() if tracer else None}


def run_command(cli, cmd, tracer) -> dict:
    """Fork, run one command in the child, collect its result and rusage."""
    start, cpu_start = time.perf_counter(), time.process_time()
    result, usage = _in_child(lambda: _execute(cli, cmd, tracer))
    result["elapsed"] = time.perf_counter() - start
    result["busy"] = time.process_time() - cpu_start + usage.ru_utime + usage.ru_stime
    result["maxrss_kib"] = usage.ru_maxrss
    return result


class Run:
    """Results of the commands of one pass, per distinct command.  Times are
    scaled CPU seconds unless named raw."""

    def __init__(self):
        self.cpu: dict[tuple, list[float]] = defaultdict(list)   # of each cli call
        self.busy: dict[tuple, list[float]] = defaultdict(list)  # fork to reap
        self.raw_cpu: list[float] = []  # raw CPU seconds of every cli call
        self.wall: list[float] = []     # wall seconds of every cli call
        self.busy_total = 0.0           # parent and child, fork to reap
        self.elapsed = 0.0           # wall seconds, fork to reap
        self.maxrss_kib = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.layers = None
        self.decks = 0

    def add(self, cmd, result, reference) -> None:
        self.attempted += 1
        self.elapsed += result["elapsed"]
        self.maxrss_kib = max(self.maxrss_kib, result["maxrss_kib"])
        if "error" in result:
            why = result["error"]
        else:
            why = verdict(cmd, result["rc"], result["stdout"], result["digest"], reference)
            k = result["scale"]
            busy = (result["busy"] - result["yardstick"]) * k
            self.busy_total += busy
            self.cpu[cmd.argv].append(result["cpu"] * k)
            self.busy[cmd.argv].append(busy)
            self.raw_cpu.append(result["cpu"])
            self.wall.append(result["wall"])
            self._add_layers(result["layers"])
        if why is not None:
            self.failures.append(f"{' '.join(cmd.argv)}: {why}")

    def _add_layers(self, layers) -> None:
        if layers is None or self.layers is None:
            self.layers = layers
        else:
            self.layers = {key: [a + b for a, b in zip(self.layers[key], values)]
                           for key, values in layers.items()}



def play(plan, cli, reference, seconds: float, *, decks: int | None = None,
         min_decks: int = 1, tracer=None) -> Run:
    """Play whole decks: exactly ``decks`` of them, or at least ``min_decks``
    and then until the deck boundary nearest to ``seconds``."""
    run = Run()
    start = time.perf_counter()
    while True:
        order = plan.orders[run.decks % len(plan.orders)]
        for i in order:
            cmd = plan.deck[i]
            run.add(cmd, run_command(cli, cmd, tracer), reference)
        run.decks += 1
        elapsed = time.perf_counter() - start
        if decks is not None:
            if run.decks >= decks:
                return run
            continue
        per_deck = elapsed / run.decks
        if (elapsed + per_deck / 2 >= seconds and run.decks >= min_decks) \
                or elapsed >= RUN_CAP_S:
            return run


# ------------------------------------------------------------------ reports

def _family(instance: str):
    """('trop', 8) for trop(8), ('self(cyc)', 6) for self(cyc(6)), else None."""
    head, _, rest = instance.partition("(")
    if head == "self":
        inner = _family(rest[:-1])
        return (f"self({inner[0]})", inner[1]) if inner else None
    return (head, int(rest[:-1])) if rest[:-1].isdigit() else None


def per_command(plan, run: Run) -> list[tuple]:
    """Per distinct command of the deck: (command, copies in the deck, median
    of its cli call, median from fork to reap, runs)."""
    copies = Counter(cmd.argv for cmd in plan.deck)
    first = {cmd.argv: cmd for cmd in reversed(plan.deck)}
    return [(first[argv], n, statistics.median(run.cpu[argv]),
             statistics.median(run.busy[argv]), len(run.cpu[argv]))
            for argv, n in copies.items() if run.cpu[argv]]


def rung_rows(rows) -> list[str]:
    """Latency per (instance, command) and log-log slopes per family."""
    lines = []
    ladders = defaultdict(list)
    by_rung = defaultdict(list)
    for cmd, _copies, cpu, _busy, runs in rows:
        by_rung[(cmd.instance, cmd.label)].append((cpu, runs))
    for (instance, label), values in sorted(by_rung.items()):
        med = statistics.median(cpu for cpu, _ in values)
        lines.append(f"rung {instance:<15} {label:<32} median {med * 1000:10.3f} ms"
                     f"  commands={len(values)} runs={sum(n for _, n in values)}")
        fam = _family(instance)
        if fam:
            ladders[(fam[0], label)].append((fam[1], med))
    for (fam, label), points in sorted(ladders.items()):
        if len({n for n, _ in points}) < 2:
            continue
        xs = [math.log(n) for n, _ in points]
        ys = [math.log(m) for _, m in points]
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
                 / sum((x - mx) ** 2 for x in xs))
        sizes = "/".join(str(n) for n, _ in sorted(points))
        lines.append(f"slope {fam:<14} {label:<32} n={sizes:<8} "
                     f"log-log slope {slope:6.3f}")
    return lines


def setup_time(setups: list[list[float]]) -> float:
    """Import plus every set-up step, each at the median of its repeats."""
    return sum(statistics.median(step) for step in zip(*setups))


def end_to_end(run: Run, rows, setups) -> tuple[dict, str]:
    """The end-to-end metrics and a line on what lies beyond p90.  Each
    command counts with its median, once per copy in the deck."""
    lat = sorted(cpu for _cmd, copies, cpu, _busy, _runs in rows for _ in range(copies))
    p90 = statistics.quantiles(lat, n=10)[8]
    beyond = [(copies, runs) for _cmd, copies, cpu, _busy, runs in rows if cpu > p90]
    copies = sum(c for _cmd, c, _cpu, _busy, _runs in rows)
    busy = sum(c * b for _cmd, c, _cpu, b, _runs in rows)
    return {
        "ops_per_s": (copies / busy, "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "latency_p90_ms": (p90 * 1000, "ms"),
        "setup_s": (setup_time(setups), "s"),
        "peak_rss_mb": (run.maxrss_kib / 1024, "MiB"),
    }, (f"{sum(c for c, _ in beyond)} of {len(lat)} deck commands lie beyond p90, "
        f"timed {sum(n for _, n in beyond)} times")


def per_layer(traced: Run, untraced: Run) -> dict:
    t = traced.layers
    inside_cli = sum(traced.raw_cpu)
    ops = traced.attempted
    metrics = {}
    for i, name in enumerate(LAYERS):
        if name in UNREACHED:
            continue
        metrics[f"{name}.calls"] = (t["calls"][i] / ops, "count/op")
        metrics[f"{name}.self_share"] = (t["self_s"][i] / inside_cli, "ratio")
    for name in REPEAT:
        i = LAYERS.index(name)
        calls, distinct = t["calls"][i], t["distinct"][i]
        metrics[f"{name}.repeat_ratio"] = (calls / distinct if distinct else 0.0, "ratio")
    parse, serialize = LAYERS.index("interface.parse"), LAYERS.index("interface.serialize")
    metrics["interface.parse.bytes"] = (t["bytes"][parse] / ops, "B/op")
    metrics["interface.serialize.bytes"] = (t["bytes"][serialize] / ops, "B/op")
    metrics["trace.overhead"] = (traced.busy_total / untraced.busy_total - 1, "ratio")
    return metrics


def layer_table(traced: Run) -> list[str]:
    t = traced.layers
    inside_cli = sum(traced.raw_cpu)
    rows = sorted(range(len(LAYERS)), key=lambda i: -t["self_s"][i])
    lines = [f"layer {'name':<38} {'calls':>10} {'self_s':>10} {'share':>7} {'raised':>7}"]
    for i in rows:
        lines.append(f"layer {LAYERS[i]:<38} {t['calls'][i]:>10} "
                     f"{t['self_s'][i]:>10.4f} {t['self_s'][i] / inside_cli:>7.2%} "
                     f"{t['errors'][i]:>7}")
    return lines


# --------------------------------------------------------------------- main

def measure(args) -> int:
    plan = build_plan(args.workload, args.seed)
    with open(BENCH / "reference.json", encoding="utf-8") as handle:
        reference = json.load(handle)

    setups = timed_setup(plan)
    setup_failures = [f"set-up {key}: digest differs from reference"
                      for key, _argv, path in plan.setup
                      if _sha256(path) != reference.get(key)]
    with open("mutations.json", encoding="utf-8") as handle:
        mutations = json.load(handle)
    listing = json.dumps({"deck": [c.argv for c in plan.deck], "orders": plan.orders,
                          "mutations": mutations}, sort_keys=True)
    print(f"workload {args.workload} seed {args.seed}: {len(plan.deck)} commands a deck, "
          f"{len(mutations)} mutated documents, command-list sha256 "
          f"{hashlib.sha256(listing.encode()).hexdigest()[:16]}")
    print("set-up runs: " + ", ".join(f"{sum(t):.4f}" for t in setups)
          + " scaled CPU s")

    sys.path.insert(0, str(SRC))
    import encat.cli as cli
    gc.freeze()  # children then leave the inherited heap alone: no copy-on-write sweep

    if args.trace:
        untraced = play(plan, cli, reference, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        run = play(plan, cli, reference, 0, decks=untraced.decks, tracer=tracer)
        metrics = per_layer(run, untraced)
        runs = (untraced, run)
        print("\n".join(layer_table(run)))
    else:
        run = play(plan, cli, reference, args.seconds, min_decks=MIN_DECKS)
        rows = per_command(plan, run)
        metrics, beyond = end_to_end(run, rows, setups)
        runs = (run,)
        print(f"{run.attempted} commands in {run.decks} decks, {run.busy_total:.3f} scaled "
              f"CPU s in {run.elapsed:.3f} s wall; {beyond}")
        print(f"unscaled, all runs: p50 {statistics.median(run.raw_cpu) * 1000:.4g} ms CPU, "
              f"{statistics.median(run.wall) * 1000:.4g} ms wall; "
              f"{run.attempted / run.elapsed:.4g} commands per wall second")
        print("\n".join(rung_rows(rows)))

    attempted = sum(r.attempted for r in runs)
    failures = setup_failures + [f for r in runs for f in r.failures]
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"metric error_rate = {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} of {attempted})")
    for line in failures[:20]:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "encat" / "cli.py").is_file():
        print(f"encat sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ["ENCAT_COLOR"] = "0"
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        os.chdir(work)
        return measure(args)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
