"""Write ``reference.json``: the sha256 of every document a workload builds.

Run from the root of a checkout, only when the ``encat/1`` bytes are meant to
change:

    python3 perfbench/make_reference.py

Each reference document is also checked with ``encat check``; the script
fails, and writes nothing, unless every one of them checks clean.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

from workloads import WORKLOADS, build_plan

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from encat.cli import cli  # noqa: E402


def _run(argv) -> None:
    out = io.StringIO()
    if cli(list(argv), out=out) != 0:
        raise SystemExit(f"encat {' '.join(argv)} failed: {out.getvalue()}")


def main() -> int:
    work = ROOT / ".perfbench_work" / f"reference-{os.getpid()}"
    work.mkdir(parents=True)
    reference = {}
    try:
        os.chdir(work)
        for workload in WORKLOADS:
            plan = build_plan(workload, 1)
            made = list(plan.setup)
            made += [(c.expect.reference, c.argv, c.output) for c in plan.deck
                     if c.expect.kind == "digest"]
            for key, argv, path in made:
                _run(argv)
                _run(("check", path))
                with open(path, "rb") as handle:
                    digest = hashlib.sha256(handle.read()).hexdigest()
                if reference.setdefault(key, digest) != digest:
                    raise SystemExit(f"{key}: two different outputs")
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
    with open(BENCH / "reference.json", "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(reference)} digests, every document checks clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
