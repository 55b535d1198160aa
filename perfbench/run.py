#!/usr/bin/env python3
"""The trusskit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see ``workloads.py`` and
``BENCHMARK.json``): ``large-towers``, ``desk-oracles``, ``strata-enum``.

A run starts WORKERS fresh interpreters (``worker.py``) one after another,
each with a ``PYTHONHASHSEED`` derived from the seed.  Each sets up its own
inputs (so ``setup_s`` is the median of WORKERS cold starts) and runs whole
rounds of the workload, about S / WORKERS seconds of op time at the seed
commit.  Times are normalized to machine speed (``speed.py``).  With
``--trace 1`` the first worker runs untraced and then again with every layer
call wrapped in a span (``tracing.py``), on exactly the same rounds, and the
per-layer metrics are printed instead of the end-to-end ones.

Every op is checked (its law, and the digest recorded for its input in
``reference.json``).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 when
every check passed, 1 when a check failed, 2 when the run could not be made.
Full results, the scaling curve and span files go to ``.bench_build/perfbench/``.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import CAL_REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("large-towers", "desk-oracles", "strata-enum")
WORKERS = 3
DEADLINE_S = 170
LAYERS = ("ordinal", "poset", "strata", "bundle", "tower", "mesh", "layout", "serialize")


class RunError(Exception):
    pass


def hash_seed(seed: int) -> int:
    """PYTHONHASHSEED for a benchmark seed.  Pinning it makes call counts
    (set iteration order decides some short-circuits) repeat exactly."""
    return int(hashlib.sha256(f"perfbench/{seed}".encode()).hexdigest(), 16) % 4294967295 + 1


def run_worker(cfg, env, deadline):
    cfg = dict(cfg, t0=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunError(f"worker {cfg['worker']} passed the {DEADLINE_S} s deadline")
    if proc.returncode != 0:
        raise RunError(f"worker {cfg['worker']} exited with code {proc.returncode}")
    res = json.loads(out.strip().splitlines()[-1])
    res["setup_raw_s"] = res["ready"] - cfg["t0"]
    res["setup_s"] = res["setup_raw_s"] * res["setup_factor"]
    return res


def quantile(values, q):
    """Linear-interpolated quantile of a nonempty list."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def scaling_exp(points):
    """Least-squares slope of log(op time) against log(size)."""
    pts = [(math.log(p["size"]), math.log(p["s"])) for p in points if p["size"] > 0 and p["s"] > 0]
    if len(pts) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def summarize(results):
    """Aggregate metrics over workers; op entries are [name, normalized s,
    ok, raw s]."""
    ops = [op for r in results for op in r["ops"]]
    times = [op[1] for op in ops]
    raw = [op[3] for op in ops]
    op_s = sum(times)
    caches = {}
    for r in results:
        for name, c in r["caches"].items():
            acc = caches.setdefault(name, {"hits": 0, "misses": 0})
            acc["hits"] += c["hits"]
            acc["misses"] += c["misses"]
    crossings = sum(r["audits"][0] for r in results)
    alternatives = sum(r["audits"][1] for r in results)
    return {
        "attempted": len(ops),
        "failed": sum(1 for op in ops if not op[2]),
        "items": sum(r["items"] for r in results),
        "op_s": op_s,
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "items_per_s": sum(r["items"] for r in results) / op_s if op_s else 0.0,
        "op_p50_ms": 1000 * quantile(times, 0.5) if times else 0.0,
        "op_p90_ms": 1000 * quantile(times, 0.9) if times else 0.0,
        "raw": {
            "setup_s": statistics.median(r["setup_raw_s"] for r in results),
            "items_per_s": sum(r["items"] for r in results) / sum(raw) if raw else 0.0,
            "op_p50_ms": 1000 * quantile(raw, 0.5) if raw else 0.0,
            "op_p90_ms": 1000 * quantile(raw, 0.9) if raw else 0.0,
            "op_s": sum(raw),
        },
        "calibration_ms": 1000 * statistics.median(c for r in results for c in r["calibrations"]),
        "peak_rss_mb": max(r["rss_kb"] for r in results) / 1024,
        "caches": caches,
        "alt_per_crossing": alternatives / crossings if crossings else 0.0,
        "scaling": [p for r in results for p in r["scaling"]],
        "mismatches": sum(r["n_mismatches"] for r in results),
        "errors": sum(r["n_errors"] for r in results),
    }


def per_layer(totals: dict) -> dict:
    """Per-layer metrics from summed tracer totals (see ``Tracer.totals``)."""
    calls, self_s = totals["calls"], totals["self_s"]
    counts, extra = totals["counts"], totals["extra"]
    out = {}
    for name in calls:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (
            sum(v for k, v in self_s.items() if k.split(".")[0] == layer), "s")
    for name, value in counts.items():
        out[name] = (value, "count")
    out["poset.FinPoset.elements"] = (extra["poset.FinPoset.elements"], "count")
    out["poset.FinPoset.relations"] = (extra["poset.FinPoset.relations"], "count")
    out["strata.hom_strata.yield"] = (
        _ratio(extra["strata.hom_strata.maps"], extra["strata.hom_strata.made"]), "ratio")
    out["tower.truss_label_category.yield"] = (
        _ratio(extra["tower.truss_label_category.new"],
               extra["tower.truss_label_category.composes"]), "ratio")
    for name in ("layout.scene_to_svg.bytes", "serialize.dumps.bytes", "serialize.parse.bytes"):
        out[name] = (extra[name], "bytes")
    return out


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def per_layer_metrics(traced, summary):
    """Per-layer metrics of the traced workers.  Span self times are raw;
    each worker's are scaled by its own normalized-over-raw op time, so they
    read in the same normalized seconds as the op times."""
    totals = {"calls": {}, "self_s": {}, "counts": {}, "extra": {}}
    for r in traced:
        raw = sum(op[3] for op in r["ops"])
        scale = sum(op[1] for op in r["ops"]) / raw if raw else 1.0
        for part in totals:
            for k, v in r["trace"][part].items():
                totals[part][k] = totals[part].get(k, 0) + (v * scale if part == "self_s" else v)
    metrics = per_layer(totals)
    caches = summarize(traced)["caches"]
    for name, key in (("bundle.total_space", "bundle.total_space.hit_ratio"),
                      ("strata.validate_stratum_map", "strata.validate_stratum_map.hit_ratio")):
        c = caches[name]
        calls = c["hits"] + c["misses"]
        metrics[key] = (c["hits"] / calls if calls else 0.0, "ratio")
    v = caches["strata.validate_stratum_map"]
    metrics["strata.validate_stratum_map.calls"] = (v["hits"] + v["misses"], "count")
    metrics["tower.compose_bordisms_audited.alt_per_crossing"] = (summary["alt_per_crossing"], "ratio")
    traced_s = sum(op[1] for r in traced for op in r["ops"])
    metrics["bench.op_s"] = (traced_s, "s")
    metrics["bench.trace_overhead"] = (traced_s / summary["op_s"] if summary["op_s"] else 0.0, "ratio")
    metrics["bench.scaling_exp"] = (scaling_exp(summary["scaling"]), "slope")
    return metrics


def print_summary(workload, seed, hseed, s, results):
    n, raw = s["attempted"], s["raw"]
    print(f"workload {workload}  seed {seed}  PYTHONHASHSEED {hseed}  workers {len(results)}"
          f"  rounds {sum(len(r['rounds']) for r in results)}")
    print(f"  times are normalized to machine speed (calibration median"
          f" {s['calibration_ms']:.3f} ms, reference {1000 * CAL_REF_S} ms); raw times in brackets")
    print(f"  setup_s      {s['setup_s']:.4f} s    [{raw['setup_s']:.4f}]"
          f"  (median of {len(results)} interpreter starts)")
    print(f"  items_per_s  {s['items_per_s']:.2f} 1/s  [{raw['items_per_s']:.2f}]"
          f"  ({s['items']} items in {s['op_s']:.2f} s of ops)")
    print(f"  op_p50_ms    {s['op_p50_ms']:.3f} ms   [{raw['op_p50_ms']:.3f}]  (n={n} ops)")
    print(f"  op_p90_ms    {s['op_p90_ms']:.3f} ms   [{raw['op_p90_ms']:.3f}]  (n={n} ops)")
    print(f"  peak_rss_mb  {s['peak_rss_mb']:.1f} MB   (largest worker, getrusage)")
    print(f"  fail_ratio   {s['failed'] / n if n else 1.0:.4f}      ({s['failed']} of {n} ops;"
          f" {s['mismatches']} digest mismatches, {s['errors']} errors)")
    for name, c in s["caches"].items():
        print(f"  cache {name}: {c['hits']} hits, {c['misses']} misses")
    print(f"  alt_per_crossing {s['alt_per_crossing']:.4f}  (from the audits of the benchmark's own compositions)")
    if s["scaling"]:
        print(f"  scaling_exp  {scaling_exp(s['scaling']):.3f}  ({len(s['scaling'])} points)")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "trusskit" / "__init__.py").is_file():
        print(f"perfbench: no trusskit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = HERE / "reference.json"
    if not reference.is_file():
        print("perfbench: reference.json is missing; run perfbench/record.py", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    hseed = hash_seed(args.seed)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(hseed))
    base = {
        "workload": args.workload, "seed": args.seed, "workers": WORKERS,
        "budget": args.seconds / WORKERS, "rounds": None, "trace": 0,
        "reference": str(reference), "spans": None,
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    # a traced run times one worker's rounds untraced, then replays them traced
    ids = [0] if args.trace else range(WORKERS)
    try:
        results = [run_worker(dict(base, worker=w), env, deadline) for w in ids]
        traced = []
        if args.trace:
            for r in results:
                cfg = dict(base, worker=r["worker"], rounds=r["rounds"], trace=1,
                           spans=str(OUT / f"{tag}-spans-w{r['worker']}.csv.gz"))
                traced.append(run_worker(cfg, env, deadline))
    except (RunError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    s = summarize(results)
    print_summary(args.workload, args.seed, hseed, s, results)
    if args.trace:
        layers = per_layer_metrics(traced, s)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {
            "setup_s": {"value": s["setup_s"], "unit": "s"},
            "items_per_s": {"value": s["items_per_s"], "unit": "1/s"},
            "op_p50_ms": {"value": s["op_p50_ms"], "unit": "ms"},
            "op_p90_ms": {"value": s["op_p90_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": s["peak_rss_mb"], "unit": "MB"},
        }
    failed = s["failed"] + sum(1 for r in traced for op in r["ops"] if not op[2])
    attempted = s["attempted"] + sum(len(r["ops"]) for r in traced)
    correct = failed == 0 and attempted > 0
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python_hash_seed": hseed, "python": sys.version.split()[0],
        "summary": {k: v for k, v in s.items() if k != "scaling"},
        "scaling": s["scaling"],
        "workers": [{k: v for k, v in r.items() if k != "ops"} for r in results],
        "traced_workers": [{k: v for k, v in r.items() if k != "ops"} for r in traced],
        "metrics": metrics,
    }
    path = OUT / f"{tag}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"  results: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
