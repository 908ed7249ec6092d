"""cli_short: many small in-process ``spinjoint.cli.main(argv)`` calls.

A pass is three rounds over the eight subcommands, each in csv and json,
plus one ``cloning`` with default flags (49 invocations, shuffled; an odd
count puts the median inside one invocation's block of repeats).  Sizes are small and fixed per round
(--n <= 10**4, --samples <= 30, --points <= 91); angles, sharpness
factors, Bloch vectors and a distinct --seed per invocation come from the
seed.  validate is run admissible (exit 0), inadmissible (exit 1) and with
conflicting flags (usage error, exit 2).  Per-call fixed costs dominate:
argparse, spec resolution, POVM build, the stream set-up in every
``uniforms`` call, and CSV/JSON emission.  stdout and stderr are captured
in memory.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from collections import Counter

import numpy as np

from common import Op, dumps

TAIL_PCT = 99  # 21 passes of 49 ops leave 10 ops above the 99th percentile
MIN_PASSES = 21
ITEMS = "invocations"
SUBCOMMANDS = ("validate", "scan-theta", "chsh", "sample", "signal", "uncertainty",
               "bb84", "cloning")
SIZES = {  # one size per round
    "scan-theta": ("--points", (31, 61, 91)),
    "chsh": ("--n", (None, 5000, 10000)),
    "sample": ("--n", (2000, 5000, 10000)),
    "signal": ("--n", (2000, 5000, 10000)),
    "uncertainty": ("--samples", (10, 20, 30)),
    "bb84": ("--n", (500, 1000, 2500)),
}
KEYS = {
    "validate": ["admissible", "bound_lhs", "product_form", "min_eig_pp", "min_eig_mm",
                 "min_eig_pm", "min_eig_mp", "completeness_defect", "error"],
    "scan-theta": ["theta_deg", "alpha_max", "boundary_slack", "cloning_gap"],
    "chsh": ["chsh", "e_ab", "e_apb", "e_abp", "e_apbp", "b", "b_prime", "sharp_reference"],
    "signal": ["p_same_b", "p_same_b_prime", "z_score", "n", "seed", "generator"],
    "uncertainty": ["relation_id", "lhs", "rhs", "slack"],
    "bb84": ["theta_deg", "alpha", "analytic_success", "empirical_success", "n_trials",
             "deviation_sigma", "seed"],
    "cloning": ["theta_deg", "eta", "alpha_clone", "alpha_optimal", "gap", "min_gap",
                "min_gap_theta_deg"],
}
TEXT_KEYS = {"admissible", "completeness_defect", "error", "b", "b_prime", "generator",
             "relation_id"}
RELATIONS = ["product_form", "robertson", "total_joint", "arthurs_goodman", "schroedinger",
             "cirelson_product"]


def _vec(v):
    return ",".join(repr(float(x)) for x in v)


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _spec_flags(rng):
    theta = rng.uniform(10.0, 170.0)
    flags = ["--theta-deg", repr(theta)]
    if rng.random() < 0.5:
        alpha = rng.uniform(0.2, 0.95)
        c2 = math.cos(math.radians(theta)) ** 2
        limit = math.sqrt((1 - alpha**2) / (1 - alpha**2 * c2))
        flags += ["--alpha", repr(alpha), "--alpha-prime", repr(rng.uniform(0.2, 0.95) * limit)]
    return flags


def _invocation(rng, command, rnd, fmt):
    argv = [command]
    expect = {"code": 0}
    if command == "validate":
        if rnd == 0:
            argv += _spec_flags(rng)
        elif rnd == 1:
            # alpha_max(theta) <= 0.74 for theta in [60, 120] degrees
            alpha = rng.uniform(0.9, 0.99)
            argv += ["--theta-deg", repr(rng.uniform(60.0, 120.0)),
                     "--alpha", repr(alpha), "--alpha-prime", repr(alpha)]
            expect["code"] = 1
        else:
            argv += ["--a-prime=" + _vec(_unit(rng)), "--theta-deg", "45"]
            expect["code"] = 2
    elif command == "cloning":
        argv += ["--theta-deg", repr(rng.uniform(0.0, 180.0)),
                 "--eta", repr(rng.uniform(0.3, 0.66))]
    else:
        if command in ("chsh", "sample", "signal", "uncertainty"):
            argv += _spec_flags(rng)
        if command == "sample":
            # "--flag=value": a value starting with "-0.2," would read as a flag
            argv += ["--bloch=" + _vec(rng.random() * _unit(rng))]
        if command == "bb84" and rnd > 0:
            argv += ["--theta-deg", repr(rng.uniform(30.0, 90.0))]
        flag, sizes = SIZES.get(command, (None, ()))
        if flag is not None and sizes[rnd] is not None:
            argv += [flag, str(sizes[rnd])]
            expect[flag[2:]] = sizes[rnd]
        if command != "scan-theta":
            seed = int(rng.integers(0, 2**31))
            argv += ["--seed", str(seed)]
            expect["seed"] = seed
    return {"command": command, "argv": argv + ["--format", fmt], "format": fmt, **expect}


def _pass(rng, rounds):
    out = [_invocation(rng, c, r, f) for r in rounds for c in SUBCOMMANDS for f in ("csv", "json")]
    out.append({"command": "cloning", "argv": ["cloning"], "format": "json", "code": 0})
    rng.shuffle(out)
    return out


def make_inputs(seed, smoke):
    timed = _pass(np.random.default_rng([seed, 1]), (0, 1, 2))
    warm = _pass(np.random.default_rng([seed, 2]), (0, 1, 2))
    return timed, warm


def _records(stdout, fmt, notes):
    if fmt == "json":
        doc = json.loads(stdout)
        return doc if isinstance(doc, list) else [doc]
    header, *rows = csv.reader(io.StringIO(stdout))
    records = []
    for row in rows:
        if len(row) == len(header) + 4 and header[5:7] == ["b", "b_prime"]:
            # chsh writes the analyzer 3-vectors unquoted, so each takes
            # three fields; reported as a note, parsed by that layout
            notes["chsh csv: b and b_prime written as unquoted 3-vectors"] += 1
            row = row[:5] + [",".join(row[5:8]), ",".join(row[8:11])] + row[11:]
        if len(row) != len(header):
            raise ValueError(f"csv row has {len(row)} fields under {len(header)} names")
        records.append(dict(zip(header, row)))
    return records


def _check_sample(p, stdout):
    if p["format"] == "json":
        doc = json.loads(stdout)
        meta, counts = doc["metadata"], doc["counts"]
    else:
        head, _, body = stdout.partition("\n")
        meta = json.loads(head.removeprefix("# "))
        counts = {r["label"]: int(r["count"]) for r in csv.DictReader(io.StringIO(body))}
    problems = []
    if (meta["n"], meta["seed"]) != (p["n"], p["seed"]):
        problems.append(f"sample: metadata {meta}")
    if set(counts) != {"++", "--", "+-", "-+"} or sum(counts.values()) != p["n"]:
        problems.append(f"sample: counts {counts}")
    return problems


def _check_records(p, records):
    command = p["command"]
    keys = KEYS[command] + (["chsh_empirical", "n", "seed"] if "n" in p and command == "chsh"
                            else [])
    problems = [f"{command}: keys {list(r)}" for r in records if list(r) != keys]
    if problems:
        return problems
    f = {k: [r[k] if k in TEXT_KEYS else float(r[k]) for r in records] for k in keys}
    rows = len(records)
    want_rows = {"scan-theta": p.get("points"), "uncertainty": 6 * p.get("samples", 0),
                 "bb84": 2 if "--theta-deg" not in p["argv"] else 1}.get(command, 1)
    if rows != want_rows:
        return [f"{command}: {rows} rows, expected {want_rows}"]
    ok = True
    if command == "validate":
        ok = str(f["admissible"][0]) == str(p["code"] == 0) and (
            (f["error"][0] == "") == (p["code"] == 0))
    elif command == "scan-theta":
        ok = max(map(abs, f["boundary_slack"])) <= 1e-9 and min(f["cloning_gap"]) > 0
    elif command == "chsh":
        ok = f["chsh"][0] <= 2 + 1e-10 and ("n" not in p or (
            f["n"][0], f["seed"][0]) == (p["n"], p["seed"]))
    elif command == "signal":
        ok = (f["n"][0], f["seed"][0], f["generator"][0]) == (p["n"], p["seed"], "Philox") \
            and abs(f["z_score"][0]) < 5
    elif command == "uncertainty":
        ok = f["relation_id"] == RELATIONS * p["samples"] and min(f["slack"]) >= -1e-10
    elif command == "bb84":
        ok = all(t == 4 * p["n"] for t in f["n_trials"]) and max(f["deviation_sigma"]) < 5 \
            and all(s == p["seed"] for s in f["seed"])
    elif command == "cloning":
        ok = f["gap"][0] > 0 and f["min_gap"][0] > 0
    return [] if ok else [f"{command}: unexpected values {records}"]


def _op(sj, p):
    notes = Counter()

    def call():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = sj.cli.main(p["argv"])
            except SystemExit as exc:
                code = exc.code
        return code, stdout.getvalue(), stderr.getvalue()

    def check(out):
        code, stdout, stderr = out
        if code != p["code"]:
            return [f"{p['argv']}: exit {code}, expected {p['code']}: {stderr[-200:]}"]
        if code == 2:
            ok = stdout == "" and "usage:" in stderr
            return [] if ok else [f"{p['argv']}: usage error output {stdout!r} {stderr!r}"]
        if p["command"] == "sample":
            return _check_sample(p, stdout)
        return _check_records(p, _records(stdout, p["format"], notes))

    return Op(p["command"], call, 1, check, lambda out: dumps(out[:2]),
              counts=lambda out: {"cli.stdout_bytes": len(out[1].encode())}, notes=notes)


def build(sj, inputs):
    import spinjoint.cli  # noqa: F401  (binds sj.cli)

    return [_op(sj, p) for p in inputs]


def corrupt(out):
    """Trailing garbage on the first invocation's stdout."""
    code, stdout, stderr = out
    return code, stdout + "garbage\n", stderr
