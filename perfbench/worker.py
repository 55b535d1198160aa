"""One benchmark worker: a fresh interpreter that sets up, runs and checks.

Started by ``run.py`` with one JSON argument:

    workload, seed   which inputs to generate
    worker, workers  this worker takes rounds worker, worker + workers, ...
    budget           seconds of op time to aim for, in whole rounds
    rounds           explicit round numbers to replay (traced pass), or null
    trace            1 to record spans around every layer call
    spans            where a traced worker writes its spans
    reference        path of the recorded digests
    t0               run.py's time.monotonic() just before the start

It prints one JSON object on stdout.  Set-up time is measured from ``t0``
(CLOCK_MONOTONIC is shared by all processes), so it covers interpreter start,
imports and input generation.

Op times are normalized to machine speed (see ``speed.py``).  The number of
rounds a worker runs is fixed by the budget and the workload's nominal round
cost, so a seed always runs the same inputs, whatever the machine speed.
"""

import json
import resource
import statistics
import sys
import time
import traceback

from speed import CAL_REF_S, Speed, calibrate


def _scaling(points, ops):
    """Attach each task's normalized op times to its scaling point."""
    times = {}
    for task_id, name, _, _, norm in ops:
        times.setdefault(task_id, {})[name] = norm
    for p in points:
        p["ops"] = times.get(p["id"], {})
        p["s"] = sum(p["ops"].values())
    return points


def main(cfg):
    # set-up is normalized by the mean speed over the whole worker (a long
    # set-up spans several speed regimes), starting before trusskit and the
    # workloads are imported
    cal_start = calibrate()
    import workloads
    from tracing import Tracer

    wanted = cfg["rounds"]
    if wanted is None:
        n = max(1, round(cfg["budget"] / workloads.ROUND_S[cfg["workload"]]))
        wanted = range(cfg["worker"], cfg["workers"] * n, cfg["workers"])
    rounds = workloads.make_rounds(cfg["workload"], cfg["seed"], list(wanted))
    with open(cfg["reference"], encoding="utf-8") as fh:
        reference = json.load(fh)[cfg["workload"]]
    ready = time.monotonic()

    tracer = Tracer().install() if cfg["trace"] else None
    rec = workloads.Recorder(reference, tracer)
    speed = rec.speed = Speed(rec.ops)
    done, items, scaling, errors = [], 0, [], []
    try:
        for r, tasks in rounds:
            for task in tasks:
                first = len(rec.ops)
                try:
                    point = task.run(rec)
                except Exception:  # an op that raises is a failed op
                    if len(rec.ops) == first:
                        rec.ops.append([task.id, "setup", 0.0, False])
                    errors.append(f"{task.id}: {traceback.format_exc(limit=3)}")
                    continue
                if all(op[3] for op in rec.ops[first:]):
                    items += task.items
                if point is not None:
                    scaling.append(point)
            speed.close()
            done.append(r)
    finally:
        if tracer is not None:
            tracer.uninstall()

    out = {
        "worker": cfg["worker"],
        "ready": ready,
        "setup_factor": CAL_REF_S / statistics.fmean([cal_start] + speed.samples),
        "calibrations": speed.samples,
        "rounds": done,
        "ops": [[op[1], op[4], op[3], op[2]] for op in rec.ops],
        "items": items,
        "scaling": _scaling(scaling, rec.ops),
        "audits": [sum(a.crossings for a in rec.audits), sum(a.alternatives for a in rec.audits)],
        "caches": rec.caches,
        "mismatches": rec.mismatches[:20],
        "n_mismatches": len(rec.mismatches),
        "errors": errors[:5],
        "n_errors": len(errors),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        out["trace"] = tracer.totals()
        tracer.write_spans(cfg["spans"])
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
