"""One workload in a fresh interpreter; started by run.py.

Generates the seeded inputs with numpy, then imports ``spinjoint`` from the
checkout's ``src/`` and warms every public function the workload uses on
inputs outside the timed set (together: one ``setup_s`` sample).  With
``--setup-only`` it stops there.  Otherwise it collects garbage, runs
whole passes over the timed ops (closed loop, one client thread) and
checks every output.  With ``--trace 1`` the timed passes are followed by
the same number of passes with span wrappers installed.  Prints one JSON
object on stdout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import resource
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
REPEAT_PCT = 90


def _check(op, out, index, first):
    """Problems with one output, including a digest that differs from the
    same op's output in the first pass."""
    try:
        problems = list(op.check(out))
        digest = hashlib.sha256(op.encode(out)).hexdigest()
    except Exception as exc:  # an unreadable output is a failed op
        return [f"{op.kind}: check raised {exc!r}"]
    if first[index] is None:
        first[index] = digest
    elif first[index] != digest:
        problems.append(f"{op.kind}: output differs from the first pass")
    return problems


def run_passes(ops, seconds, min_passes, max_passes=None, tracer=None, corrupt=None):
    """Whole passes over ``ops`` until another pass would overrun
    ``seconds`` (at least ``min_passes``, at most ``max_passes``)."""
    check = tracer.wrap("bench.check", _check) if tracer else _check
    first = [None] * len(ops)
    latencies, pass_walls, problems = [], [], []
    failed = items = 0
    notes = Counter()
    start = perf_counter()
    while True:
        pass_wall = 0.0
        for index, op in enumerate(ops):
            if tracer:
                tracer.op = len(latencies)
            t0 = perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # a failing op is counted; the run goes on
                out = exc
            dt = perf_counter() - t0
            latencies.append(dt)
            pass_wall += dt
            items += op.items
            if isinstance(out, Exception):
                found = [f"{op.kind}: raised {out!r}"]
            else:
                if corrupt and index == 0:
                    out = corrupt(out)
                found = check(op, out, index, first)
                if tracer and op.counts:
                    tracer.counts.update(op.counts(out))
            if found:
                failed += 1
                if len(problems) < 5:
                    problems.extend(found)
        pass_walls.append(pass_wall)
        passes = len(pass_walls)
        elapsed = perf_counter() - start
        if max_passes is not None and passes >= max_passes:
            break
        if passes >= min_passes and elapsed * (passes + 1) / passes > seconds:
            break
    for op in ops:
        notes.update(op.notes)
    digest = hashlib.sha256("".join(d or "-" for d in first).encode()).hexdigest()
    return {
        "latencies": latencies, "pass_walls": pass_walls, "elapsed": elapsed,
        "attempted": len(latencies), "failed": failed, "items": items,
        "problems": problems, "notes": dict(notes), "digest": digest,
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--corrupt", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    workload = importlib.import_module(args.workload)
    import numpy as np

    timed_inputs, warm_inputs = workload.make_inputs(args.seed, args.smoke)

    t0 = perf_counter()
    import spinjoint as sj

    src = (ROOT / "src").resolve()
    if src not in Path(sj.__file__).resolve().parents:
        sys.exit(f"spinjoint was imported from {sj.__file__}, not from {src}")
    for op in workload.build(sj, warm_inputs):
        op.call()
    setup_s = perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    ops = workload.build(sj, timed_inputs)
    # the traced run reports no percentiles, so it needs no minimum op count
    min_passes = 2 if args.smoke or args.trace else workload.MIN_PASSES
    corrupt = workload.corrupt if args.corrupt else None
    seconds = args.seconds / 2 if args.trace else args.seconds
    gc.collect()
    base = run_passes(ops, seconds, min_passes, corrupt=corrupt)
    lat_ms = np.asarray(base["latencies"]) * 1e3
    # One latency per op: the 90th percentile over its repeats (one per
    # pass).  On a shared machine the same code runs up to ~1.8x slower in
    # phases that come and go; the slow phases are the steadier ones, and
    # this percentile varied less from run to run than the median or the
    # fastest repeat (see README.md).
    per_op = np.percentile(lat_ms.reshape(-1, len(ops)), REPEAT_PCT, axis=0)
    wall_s = float(per_op.sum()) / 1e3
    tail_ms = float(np.percentile(lat_ms, workload.TAIL_PCT))
    result = {
        "setup_s": setup_s,
        "numpy": np.__version__,
        "items_name": workload.ITEMS,
        "tail_pct": workload.TAIL_PCT,
        "passes": len(base["pass_walls"]),
        "attempted": base["attempted"],
        "failed": base["failed"],
        "problems": base["problems"],
        "notes": base["notes"],
        "digest": base["digest"],
        "end_to_end": {  # name -> [value, unit]
            "wall_s": [wall_s, "s"],
            "items_per_s": [sum(op.items for op in ops) / wall_s, "1/s"],
            "op_p50_ms": [float(np.median(per_op)), "ms"],
            "op_tail_ms": [tail_ms, "ms"],
            "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"],
        },
        "pass_walls": base["pass_walls"],
        "ops_beyond_tail": int(np.sum(lat_ms > tail_ms)),
        "op_p50_ms_by_kind": {
            kind: float(np.median(per_op[[op.kind == kind for op in ops]]))
            for kind in dict.fromkeys(op.kind for op in ops)
        },
    }
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        extra = [(name, sys.modules[args.workload], attr)
                 for name, attr in getattr(workload, "TRACED", ())]
        tracer.install(extra)
        gc.collect()
        try:
            traced = run_passes(ops, math.inf, 1, max_passes=result["passes"],
                                tracer=tracer, corrupt=corrupt)
        finally:
            tracer.uninstall()
        layers, coverage = tracer.rollup(traced["elapsed"], len(traced["pass_walls"]))
        layers["trace_overhead_ratio"] = traced["elapsed"] / base["elapsed"]
        layers["trace_coverage"] = coverage
        result["layers"] = layers
        result["traced_wall_s"] = traced["elapsed"]
        result["attempted"] += traced["attempted"]
        result["failed"] += traced["failed"]
        result["problems"] += traced["problems"][: 5 - len(result["problems"])]
        if traced["digest"] != base["digest"]:
            result["failed"] += 1
            result["problems"].append("traced outputs differ from untraced outputs")
        if args.spans is not None:
            tracer.write(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
