#!/usr/bin/env python3
"""Record the digest of every canonical output the benchmark can produce.

    PYTHONPATH=src python3 perfbench/record.py [WORKLOAD ...]

Runs every pool item of the named workloads (default: all) once, checks its
laws, and writes ``perfbench/reference.json``.  Runs of ``run.py`` compare
their outputs against it, so record only from a commit whose outputs are
known to be right, and only when the pools themselves change.
"""

import json
import sys
import time
from pathlib import Path

import workloads

PATH = Path(__file__).resolve().parent / "reference.json"


def record(name):
    rec = workloads.Recorder(None)
    bad = []
    for task in workloads.all_tasks(name):
        first = len(rec.ops)
        task.run(rec)
        if not all(op[3] for op in rec.ops[first:]):
            bad.append(task.id)
    return rec.recorded, bad


def main(names):
    data = json.loads(PATH.read_text(encoding="utf-8")) if PATH.is_file() else {}
    failed = False
    for name in names or workloads.SLOTS:
        start = time.perf_counter()
        digests, bad = record(name)
        print(f"{name}: {len(digests)} digests, {len(bad)} failed law checks,"
              f" {time.perf_counter() - start:.1f} s")
        if bad:
            print("  failed:", ", ".join(bad[:10]))
            failed = True
        data[name] = digests
    if failed:
        return 1
    PATH.write_text(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
