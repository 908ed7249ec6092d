"""spinjoint benchmark: one workload, one seed, timed or traced.

    python3 bench/run.py --workload mc_long --seed 1 --seconds 35 --trace 0

Runs from the root of a checkout and imports ``spinjoint`` from its
``src/``.  Each set-up and the workload itself run in fresh interpreters
(bench/worker.py) with BLAS/OpenMP threads pinned to 1.  Prints one line
per metric, then, as the last line, the JSON result
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
Metric names and units come from BENCHMARK.json.  A full report goes to
.bench_out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("mc_long", "scalar_sweep", "cli_short")
SETUP_PROBES = 8  # fresh-process set-ups, half before and half after the workload
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
TIME_LIMIT_S = 170  # the whole run, set-ups included


def _metadata(seed):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "seed": seed, "src_lines": src_lines, "git_commit": commit}


def _worker(args, extra, env, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    cmd += ["--smoke"] * args.smoke + ["--corrupt"] * args.corrupt + extra
    timeout = deadline - time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(timeout, 1))
    if proc.returncode != 0:
        sys.exit(f"bench: worker {extra} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and few passes, for the benchmark's own tests")
    parser.add_argument("--corrupt", action="store_true",
                        help="tamper with one output per pass; the checks must catch it")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "spinjoint" / "__init__.py").is_file():
        sys.exit(f"bench: no spinjoint sources under {ROOT / 'src'}")
    compileall.compile_dir(ROOT / "src", quiet=1)
    if hasattr(os, "sched_setaffinity"):
        # One CPU for this run and its workers: the two CPUs of a shared
        # virtual machine can run at very different speeds, and a worker
        # moved between them changes speed in mid-run.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})

    def probe():
        return _worker(args, ["--setup-only"], env, deadline)["setup_s"]

    probes = 1 if args.smoke else SETUP_PROBES // 2
    setups = [probe() for _ in range(probes)]
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_file = OUT / f"{args.workload}.spans.jsonl"
    res = _worker(args, ["--spans", str(spans_file)] if args.trace else [], env, deadline)
    # set-ups on both sides of the workload see more of the machine's phases
    setups += [res["setup_s"]] + [probe() for _ in range(probes)]

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # the fastest set-up: it varies least across runs (see README.md)
    values = {"setup_s": [min(setups), "s"], **res["end_to_end"]}
    samples = {"setup_s": len(setups), "wall_s": res["passes"], "items_per_s": res["passes"],
               "op_p50_ms": res["passes"], "op_tail_ms": res["attempted"], "peak_rss_mb": 1}
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = res["layers"] if args.trace else {k: v for k, (v, _) in values.items()}
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in listed}

    fail_ratio = res["failed"] / res["attempted"]
    report = {"workload": args.workload, "trace": args.trace, "smoke": args.smoke,
              "metadata": {**_metadata(args.seed), "numpy": res["numpy"]},
              "end_to_end": {k: {"value": v, "unit": u, "samples": samples[k]}
                             for k, (v, u) in values.items()},
              "items": res["items_name"], "op_tail_percentile": res["tail_pct"],
              "ops_beyond_tail": res["ops_beyond_tail"], "passes": res["passes"],
              "op_p50_ms_by_kind": res["op_p50_ms_by_kind"],
              "attempted": res["attempted"], "failed": res["failed"],
              "fail_ratio": fail_ratio, "problems": res["problems"], "notes": res["notes"],
              "output_sha256": res["digest"], "setup_samples_s": setups,
              "pass_walls_s": res["pass_walls"]}
    if args.trace:
        per_pass = res["traced_wall_s"] / res["passes"]
        shares = {}
        for name, value in res["layers"].items():
            if name.endswith(".self_s"):
                module = name.split(".")[0]
                shares[module] = shares.get(module, 0.0) + value / per_pass
        report["self_share_by_module"] = shares
        report["per_layer"] = res["layers"]
        report["traced_wall_s"] = res["traced_wall_s"]
        report["spans_file"] = str(spans_file.relative_to(ROOT))
    report_file = OUT / f"{tag}.json"
    report_file.write_text(json.dumps(report, indent=1) + "\n")

    print(f"bench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={res['passes']} ops={res['attempted']} items={res['items_name']}")
    for k, (v, u) in values.items():
        note = f"p{res['tail_pct']}, {res['ops_beyond_tail']} ops beyond" \
            if k == "op_tail_ms" else f"{samples[k]} samples"
        print(f"  {k:<14} {v:>14.6g} {u:<6} ({note})")
    print(f"  {'fail_ratio':<14} {fail_ratio:>14.6g}        "
          f"({res['failed']} failed of {res['attempted']} ops)")
    if args.trace:
        for k, m in metrics.items():
            print(f"  {k:<48} {m['value']:>14.6g} {m['unit']}")
        for module, share in shares.items():
            print(f"  self time share of traced wall: {module:<13} {share:.3f}")
    for problem in res["problems"]:
        print(f"  problem: {problem}")
    for note, count in res["notes"].items():
        print(f"  note: {note} ({count}x)")
    print(f"  output sha256 {res['digest']}")
    print(f"  report {report_file.relative_to(ROOT)}")
    correct = res["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
