#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds S]

For every metric prints the median, the quartiles (``statistics.quantiles``
with n=4) and the interquartile distance as a share of the median, next to
the bound ``BENCHMARK.json`` gives it.  Each run's last output line is kept
in ``.bench_build/perfbench/spread-<workload>.jsonl``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    log = ROOT / ".bench_build" / "perfbench" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    with log.open("a", encoding="utf-8") as fh:
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            fh.write(last + "\n")
            result = json.loads(last)
            if proc.returncode != 0 or not result.get("correct"):
                print(f"seed {seed}: exit {proc.returncode}, result {last[:200]}")
                return 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"seed {seed}: " + "  ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()))
    for name, vs in values.items():
        q1, _, q3 = statistics.quantiles(vs, n=4)
        med = statistics.median(vs)
        print(f"{name:24s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}"
              f"  spread {(q3 - q1) / med:.3f}  bound {bounds[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
