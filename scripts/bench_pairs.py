#!/usr/bin/env python3
"""Compare the working tree with a parent commit on the benchmark, in pairs.

Usage (from the repository root):
    python3 scripts/bench_pairs.py PARENT [--seed-base 1]
        [--claim WORKLOAD:METRIC] [--what TEXT]

PARENT's committed files are extracted (``git archive``) into a temporary
directory under the repository's git-ignored ``.bench_build/``, which is
removed at the end; the change side runs in the working tree.  So both sides
run from the same kind of directory: the same files read about 0.35 MB lower
``peak_rss_mb`` from ``/tmp`` than from under the home directory.  For each
workload of ``BENCHMARK.json``, pair i (of PAIRS = 10) runs
``perfbench/run.py --workload W --seed SEED_BASE+i --seconds S`` once on each
side, the parent first on even i and the change first on odd i, with S the
``run_seconds`` of ``BENCHMARK.json``.  Before the workloads, it times one
family-cost row the same way: ``closure_cost()`` of each side's
``scripts/family_cost.py`` (closing Trs_{<=2}([1]) on that side's ``src``),
once per side in each of FAMILY_COST_PAIRS = 3 pairs, in a fresh process.

The result, ``BENCH_<n>.json`` with n one more than the highest existing
``BENCH_*.json``, holds per workload the seeds, failed and attempted ops per
side and, per end-to-end metric, the quartiles of each side's runs, every
run, the number of pairs the change won and the relative change of the
median.  Stops (exit 2) when a run cannot be made; a run whose checks fail is
recorded in ``failed_ops`` and the comparison goes on (exit 1 at the end).
Its ``family_cost`` entry holds each side's closure counts (objects,
morphisms, composites), CPU seconds per run and their median.  At the end it
prints, from the result just written, one line for the family-cost row and
one per workload and end-to-end metric: parent median, change median,
relative change and pairs won.
"""

import argparse
import io
import json
import os
import platform
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import quantile  # noqa: E402  (the quartiles the benchmark itself reports)

PAIRS = 10  # a claimed gain is judged on ten pairs
FAMILY_COST_PAIRS = 3  # one closure takes seconds: enough to see its spread, not to claim a gain
CLOSURE = ("import sys; sys.path.insert(0, 'scripts'); from family_cost import closure_cost;"
           " print(*closure_cost())")


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        print(f"bench_pairs: {' '.join(cmd)} in {tree} exited with {proc.returncode}", file=sys.stderr)
        sys.exit(2)
    return json.loads(lines[-1])


def run_closure(tree: Path) -> tuple:
    """(objects, morphisms, composites, CPU seconds) of one closure_cost() run
    of tree's scripts/family_cost.py, which imports tree's src."""
    proc = subprocess.run([sys.executable, "-c", CLOSURE], cwd=tree, stdout=subprocess.PIPE, text=True)
    fields = proc.stdout.split()
    if proc.returncode != 0 or len(fields) != 4:
        print(f"bench_pairs: closure_cost() in {tree} exited with {proc.returncode}", file=sys.stderr)
        sys.exit(2)
    return tuple(int(x) for x in fields[:3]) + (float(fields[3]),)


def family_cost(parent_tree: Path) -> dict:
    """The family_cost entry: closure_cost() per side in FAMILY_COST_PAIRS
    pairs, the parent first on even pair indices."""
    runs = {"parent": [], "change": []}
    for i in range(FAMILY_COST_PAIRS):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs[side].append(run_closure(parent_tree if side == "parent" else ROOT))
            print(f"family_cost pair {i + 1}/{FAMILY_COST_PAIRS} {side}: {runs[side][-1][3]:.3f} s", flush=True)
    out = {"row": "closure_cost(): Trs_{<=2}([1]) closed, CPU s of one untraced run", "pairs": FAMILY_COST_PAIRS}
    for side, rs in runs.items():
        seconds = [r[3] for r in rs]
        out[side] = {"objects_morphisms_composites": sorted({r[:3] for r in rs}),
                     "cpu_s": [round(x, 4) for x in seconds], "median": round(quantile(seconds, 0.5), 4)}
    pm, cm = out["parent"]["median"], out["change"]["median"]
    out["relative_change_of_median"] = round((cm - pm) / pm, 4) if pm else None
    return out


def summarize(better: str, parent: list, change: list) -> dict:
    def quartiles(xs):
        return {"q1": round(quantile(xs, 0.25), 4), "median": round(quantile(xs, 0.5), 4),
                "q3": round(quantile(xs, 0.75), 4)}

    won = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
    pm, cm = quantile(parent, 0.5), quantile(change, 0.5)
    return {
        "better": better,
        "parent": quartiles(parent),
        "change": quartiles(change),
        "parent_runs": [round(x, 4) for x in parent],
        "change_runs": [round(x, 4) for x in change],
        "change_better_pairs": won,
        "relative_change_of_median": round((cm - pm) / pm, 4) if pm else None,
    }


def compare(parent_tree: Path, workload: str, seeds: list, seconds: float, metrics: dict) -> tuple:
    runs = {"parent": [], "change": []}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            tree = parent_tree if side == "parent" else ROOT
            runs[side].append(run_bench(tree, workload, seed, seconds))
            m = runs[side][-1]["metrics"]
            print(f"{workload} pair {i + 1}/{len(seeds)} {side}: "
                  + "  ".join(f"{k} {m[k]['value']:.4g}" for k in metrics), flush=True)
    out = {
        "seeds": seeds,
        "failed_ops": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
        "attempted_ops": {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()},
        "metrics": {
            name: summarize(better, *([r["metrics"][name]["value"] for r in runs[side]]
                                      for side in ("parent", "change")))
            for name, better in metrics.items()
        },
    }
    return out, any(not r["correct"] for rs in runs.values() for r in rs)


def print_summary(result: dict):
    """One line for the family-cost row, and one per workload and end-to-end
    metric, of a written result."""
    fc = result.get("family_cost")
    if fc:
        rel = fc["relative_change_of_median"]
        print(f"family_cost closure CPU s: {fc['parent']['median']:.4g} -> {fc['change']['median']:.4g}"
              f" ({'n/a' if rel is None else f'{rel:+.1%}'}), {fc['pairs']} pairs")
    for workload, out in result["workloads"].items():
        for name, m in out["metrics"].items():
            rel = m["relative_change_of_median"]
            print(f"{workload} {name}: {m['parent']['median']:.4g} -> {m['change']['median']:.4g}"
                  f" ({'n/a' if rel is None else f'{rel:+.1%}'}),"
                  f" change better in {m['change_better_pairs']} of {len(out['seeds'])} pairs")


def next_bench_path() -> Path:
    taken = [int(m.group(1)) for p in ROOT.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return ROOT / f"BENCH_{max(taken, default=0) + 1}.json"


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="the commit to compare against")
    ap.add_argument("--seed-base", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--claim", default=None, help="WORKLOAD:METRIC the change claims a gain on")
    ap.add_argument("--what", default="", help="one line saying what the change does")
    args = ap.parse_args(argv)

    parent = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT, check=True,
                            stdout=subprocess.PIPE, text=True).stdout.strip()
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    seeds = [args.seed_base + i for i in range(PAIRS)]
    out_path = next_bench_path()
    claimed = None
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        if workload not in names or metric not in metrics:
            ap.error(f"--claim {args.claim!r} names no workload:metric of BENCHMARK.json")
        claimed = {"workload": workload, "metric": metric}
    result = {
        "what": args.what,
        "parent": parent,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g}",
        "pairs": f"{PAIRS} per workload, parent and change alternating which runs first"
                 " (parent first on even pair indices)",
        "machine": f"{os.cpu_count()}-CPU {platform.system()}, Python {platform.python_version()}",
        "claimed": claimed,
        "workloads": {},
    }
    failed = False
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="bench-parent-", dir=build) as tmp:
        archive = subprocess.run(["git", "archive", "--format=tar", parent], cwd=ROOT, check=True,
                                 stdout=subprocess.PIPE).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp)
        result["family_cost"] = family_cost(Path(tmp))
        for workload in names:
            result["workloads"][workload], bad = compare(Path(tmp), workload, seeds, seconds, metrics)
            failed = failed or bad
            out_path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out_path}")
    print_summary(json.loads(out_path.read_text(encoding="utf-8")))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
