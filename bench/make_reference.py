"""Record the reference exit codes and output digests at the default seed.

    python3 bench/make_reference.py

Runs every workload once at ``workloads.DEFAULT_SEED`` with the oramlab
sources beside the benchmark and writes ``reference.json``.  Run it only on
code whose outputs are known good: the benchmark counts every later output
that differs as a failed item.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import worker
import workloads

import oramlab.cli  # importable once worker has put the sources on sys.path


def main() -> int:
    reference = {}
    for name in workloads.NAMES:
        with tempfile.TemporaryDirectory(dir=worker.HERE.parent) as tmp:
            items = workloads.build(name, workloads.DEFAULT_SEED, Path(tmp))
            runs = [worker.run_item(oramlab.cli.main, item.argv, None) for item in items]
            digests, problems = worker.check(items, runs, None)
        if problems:
            print(f"{name}: {problems}", file=sys.stderr)
            return 1
        reference[name] = [{"exit": 0, "digest": d} for d in digests]
        print(f"{name}: {len(digests)} items", file=sys.stderr)
    (worker.HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
