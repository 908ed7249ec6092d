"""Command-line harness.

Subcommands: validate, scan-theta, chsh, sample, signal, uncertainty,
bb84, cloning.  Angles are taken in degrees on the command line and
converted to radians internally; direction flags (--a, --a-prime) are
normalized.  All output is a pure function of the flags (plus --seed for
the stochastic subcommands): reruns are byte-identical.

Exit codes: 0 success, 1 domain violation, 2 usage error.  An exit 1 is
a library refusal of the spec (``SpinJointError``), a failed ``validate``
check or ``signal``'s |z| >= 5: ``cli.py`` compares nothing with a
tolerance.  argparse refuses ``--a-prime`` with ``--theta-deg`` (one
mutually exclusive group).  Each ``cmd_*`` is a function of the parsed
flags alone: a usage error it finds while it runs (an ``--alpha`` and
``--alpha-prime`` mix, a zero sharpness for ``uncertainty``, an
unwritable ``--out``) is raised as ``argparse.ArgumentTypeError`` or
``ZeroAlpha``, and ``main`` prints it under the subcommand's usage line,
as argparse prints its own errors, and exits 2; so does an argument left
over after the subcommand (one before it gets the top-level usage line).

Every output goes through one writer, ``_write``: a record or blocks of
named columns in, csv (``csv.writer``, floats as ``"%.17g"``) or the text
``json.dumps(indent=2)`` would give (floats as ``float.__repr__``) out, to
stdout or to the ``--out`` file it opens once.  ``uncertainty`` and
``scan-theta`` hand it ``_ROWS`` rows at a time, so their memory does not
grow with ``--samples`` or ``--points``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .correlations import (
    CorrelationSet,
    _read_correlations,
    chsh_value,
    joint_correlations,
    optimal_settings,
    sharp_chsh_reference,
)
from .errors import BoundViolated, SpinJointError, ZeroAlpha
from .joint import (
    JointSpec,
    _check_sharpness,
    _theta_grid,
    bound_lhs,
    general_effect_min_eigenvalues,
    general_joint_povm,
    max_symmetric_alpha,
    product_form_check,
)
from .povm import validate as validate_povm
from .qubit import _bloch_rows, normalize, state_from_bloch, vec3
from .sampling import (
    GENERATOR_NAME,
    SeededStream,
    _analyzer_counts,
    sample_povm,
    signalling_experiment,
)
from .scenarios import CLONER_ETA_MAX, bb84_eve, cloning_joint, min_cloning_gap
from .uncertainty import RELATION_IDS, _product_forms, _relations, _spec_relations, _squares


def _vector(text: str) -> np.ndarray:
    try:
        return vec3([float(part) for part in text.split(",")])
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"not a 3-vector: {text!r}") from exc


def _direction(text: str) -> np.ndarray:
    try:
        with np.errstate(over="ignore"):  # an overflowing length is a usage error
            return normalize(_vector(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError("direction must be nonzero and of finite length") from exc


def _alpha(text: str):
    if text == "optimal-symmetric":
        return text
    try:
        value = float(text)
        _check_sharpness("sharpness", value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected a number in [-1, 1] or 'optimal-symmetric', got {text!r}"
        ) from exc
    return value


def _degrees(text: str) -> float:
    try:
        value = float(text)
        if not 0.0 <= value <= 180.0:  # also rejects nan
            raise ValueError
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected degrees in [0, 180], got {text!r}") from exc
    return value


def _out_path(text: str) -> Path:
    # a missing directory is caught here, before the command runs; other
    # write errors (permissions, a directory as target) surface in _write
    path = Path(text)
    if not path.parent.is_dir():
        raise argparse.ArgumentTypeError(f"cannot write {text}: no directory {path.parent}")
    return path


def _int_at_least(low: int):
    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as "invalid integer value"
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return integer


def _add_spec_flags(sub: argparse.ArgumentParser) -> None:
    # vector defaults are strings: argparse runs them through type= on each
    # parse, so calls sharing the cached parser never share an array
    sub.add_argument("--a", type=_direction, default="0,0,1",
                     help="first direction, comma-separated floats (normalized)")
    direction = sub.add_mutually_exclusive_group()
    direction.add_argument("--a-prime", type=_direction, default=None,
                           help="second direction (alternative to --theta-deg)")
    direction.add_argument("--theta-deg", type=_degrees, default=None,
                           help="angle between directions; places a' in the plane "
                                "of a and the x axis (default 90)")
    sub.add_argument("--alpha", type=_alpha, default="optimal-symmetric",
                     help="sharpness of the first observable, or "
                          "'optimal-symmetric' (default)")
    sub.add_argument("--alpha-prime", type=_alpha, default=None,
                     help="sharpness of the second observable "
                          "(default: same as --alpha)")


def _add_output_flags(sub: argparse.ArgumentParser, default_format: str) -> None:
    sub.add_argument("--out", type=_out_path, default=None,
                     help="output path in an existing directory (default stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default=default_format)


def _resolve_spec(args) -> JointSpec:
    alpha = args.alpha
    alpha_prime = args.alpha_prime if args.alpha_prime is not None else alpha
    optimal = alpha == "optimal-symmetric"
    if optimal != (alpha_prime == "optimal-symmetric"):
        raise argparse.ArgumentTypeError(
            "--alpha and --alpha-prime: two numbers or 'optimal-symmetric' for both")
    if args.a_prime is not None:
        if optimal:
            return JointSpec.optimal_symmetric(args.a, args.a_prime)
        return JointSpec(args.a, args.a_prime, alpha, alpha_prime)
    theta = math.radians(90.0 if args.theta_deg is None else args.theta_deg)
    if optimal:
        alpha = alpha_prime = max_symmetric_alpha(theta)
    return JointSpec.from_angle(theta, alpha, alpha_prime, a=args.a)


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(value: float) -> str:
    """json's float text: ``float.__repr__``, json's own words for nan and inf."""
    text = float.__repr__(value)
    return _JSON_NONFINITE.get(text, text)


# each format's one float text; csv's 17 significant digits pin a float's bits
_FLOAT_TEXT = {"csv": "%.17g".__mod__, "json": _json_float}

# rows per block of uncertainty samples and scan-theta angles: the traced
# peak of a block of uncertainty samples (24 cells each) is about 3.3 KB a
# sample, so about 3 MB, and blocks of 2^10, 2^12 and 2^14 rows ran equally
# fast, so the per-block numpy calls and stream set-up cost nothing measurable
_ROWS = 1 << 10


def _row_ranges(rows: int):
    """(start, stop) of consecutive blocks of at most ``_ROWS`` rows."""
    return ((start, min(start + _ROWS, rows)) for start in range(0, rows, _ROWS))


def _cell(value, fmt: str, depth: int):
    """One cell as written: a float in its format's float text, a json value
    as ``json.dumps(indent=2)`` writes it at this depth, and any other csv
    cell as given, for csv.writer to write."""
    if isinstance(value, float):
        return _FLOAT_TEXT[fmt](value)
    if fmt == "csv":
        return value
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, dict):  # sample's metadata and counts
        return _json_object(value, depth) % tuple(_cell(v, fmt, depth + 1) for v in value.values())
    return json.dumps(value)  # an int, a bool or None


def _json_object(keys, depth: int) -> str:
    """``json.dumps(indent=2)``'s layout of a non-empty object at this depth, a %s per value."""
    pad = "\n" + "  " * depth
    names = (encode_basestring_ascii(key).replace("%", "%%") for key in keys)
    return "{" + ",".join(f"{pad}  {name}: %s" for name in names) + pad + "}"


def _cells(column, fmt: str, depth: int) -> list:
    """A column's cells: a float array in one pass of its format's float
    text, any other column cell by cell."""
    if isinstance(column, np.ndarray):
        return list(map(_FLOAT_TEXT[fmt], column.tolist()))
    return [_cell(value, fmt, depth) for value in column]


def _write(args, table, head: str = "") -> None:
    """The CLI's one writer: ``table`` to stdout, or to the --out file, opened
    once here, after the command's refusals and before the first row.

    ``table`` is one record, a dict of cells (a json object, one csv row),
    or an iterable of blocks, dicts of equal-length columns (a json array of
    one object per row).  Each block becomes text as it arrives, so memory
    follows one block, not the output."""
    if args.out is None:
        try:
            _write_table(sys.stdout, args.format, table, head)
        except BrokenPipeError:  # the reader stopped early, as `| head` does
            # end quietly: what stdout still buffers goes to devnull at exit
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return
    try:
        with args.out.open("w") as out:
            _write_table(out, args.format, table, head)
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"cannot write --out {args.out}: {exc.strerror}") from exc


def _write_table(out, fmt: str, table, head: str) -> None:
    """csv: ``head``, a header of the first block's keys, then the rows
    through csv.writer; json: each row through one template in
    ``json.dumps(indent=2)``'s layout, the same text it writes."""
    record = isinstance(table, dict)
    blocks = iter([{key: [value] for key, value in table.items()}] if record else table)
    first = next(blocks)
    depth = 0 if record else 1
    rows = (zip(*(_cells(column, fmt, depth + 1) for column in block.values()))
            for block in itertools.chain([first], blocks))
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        out.write(head)
        writer.writerow(first)
        for block in rows:
            writer.writerows(block)
        return
    template = _json_object(first, depth).__mod__
    opening, between, closing = ("", "", "\n") if record else ("[\n  ", ",\n  ", "\n]\n")
    out.write(opening)
    for i, block in enumerate(rows):
        out.write((between if i else "") + between.join(map(template, block)))
    out.write(closing)


def cmd_validate(args) -> int:
    spec = _resolve_spec(args)
    eigs = general_effect_min_eigenvalues(spec)
    record = {
        "admissible": True,
        "bound_lhs": bound_lhs(spec),
        "product_form": product_form_check(spec),
        "min_eig_pp": eigs[0],
        "min_eig_mm": eigs[1],
        "min_eig_pm": eigs[2],
        "min_eig_mp": eigs[3],
        "completeness_defect": None,
        "error": "",
    }
    try:
        report = validate_povm(general_joint_povm(spec))
    except BoundViolated as exc:
        record["admissible"] = False
        record["error"] = f"BoundViolated: effect eigenvalue {exc.min_eigenvalue} < 0"
    else:
        record["completeness_defect"] = report.completeness_defect
        record["error"] = "; ".join(report.failures)
    _write(args, record)
    return 1 if record["error"] else 0


def _scan_theta_block(points: int, start: int, stop: int) -> dict:
    """Rows [start, stop) of the theta grid of ``points`` angles."""
    theta = _theta_grid(points, start=start, stop=stop)
    alpha = max_symmetric_alpha(theta)
    x = _squares(alpha)
    # JointSpec.from_angle with its default a = z puts a' at (sin theta, 0, cos theta),
    # so a.a' is cos(theta) bit for bit: one kernel call, no spec per angle
    lhs, rhs = _product_forms(x, x, np.cos(theta))["product_form"]
    return {
        "theta_deg": _theta_grid(points, 180.0, start=start, stop=stop),
        "alpha_max": alpha,
        "boundary_slack": lhs - rhs,
        "cloning_gap": alpha - CLONER_ETA_MAX,
    }


def cmd_scan_theta(args) -> int:
    _write(args, (_scan_theta_block(args.points, *rows) for rows in _row_ranges(args.points)))
    return 0


def cmd_chsh(args) -> int:
    spec = _resolve_spec(args)
    settings = optimal_settings(spec)
    corr = joint_correlations(spec, settings)
    _, sharp_ref = sharp_chsh_reference()
    record = {
        "chsh": chsh_value(corr),
        "e_ab": corr.e_ab,
        "e_apb": corr.e_apb,
        "e_abp": corr.e_abp,
        "e_apbp": corr.e_apbp,
        "b": ",".join(map(_FLOAT_TEXT["csv"], settings.b.tolist())),
        "b_prime": ",".join(map(_FLOAT_TEXT["csv"], settings.b_prime.tolist())),
        "sharp_reference": sharp_ref,
    }
    if args.n is not None:
        counts = _analyzer_counts(spec, settings, args.n, SeededStream(args.seed))
        # integer sums first, one division: the empirical means exactly
        empirical = _read_correlations(*counts) / args.n
        record["chsh_empirical"] = chsh_value(CorrelationSet(*empirical))
        record["n"] = args.n
        record["seed"] = args.seed
    _write(args, record)
    return 0


def cmd_sample(args) -> int:
    spec = _resolve_spec(args)
    state = state_from_bloch(args.bloch)
    povm = general_joint_povm(spec)
    stream = SeededStream(args.seed)
    stats = sample_povm(povm, state, args.n, stream)
    meta = stream.metadata(args.n)
    if args.format == "json":
        _write(args, {"metadata": meta, "counts": stats.counts, "mean": stats.mean,
                      "variance": stats.variance, "stderr": stats.stderr})
    else:
        counts = stats.counts
        block = {"label": list(counts), "count": list(counts.values()),
                 "frequency": [c / stats.n for c in counts.values()]}
        _write(args, [block], head="# " + json.dumps(meta, sort_keys=True) + "\n")
    return 0


def cmd_signal(args) -> int:
    spec = _resolve_spec(args)
    settings = optimal_settings(spec)
    result = signalling_experiment(spec, settings, args.n, SeededStream(args.seed))
    record = {
        "p_same_b": result.stats_b.mean,
        "p_same_b_prime": result.stats_b_prime.mean,
        "z_score": result.z_score,
        "n": args.n,
        "seed": args.seed,
        "generator": GENERATOR_NAME,
    }
    _write(args, record)
    return 0 if abs(result.z_score) < 5.0 else 1


def _random_bloch(u: np.ndarray) -> np.ndarray:
    """Bloch vectors uniform in the unit ball, one row per three uniforms."""
    u1, u2, u3 = u.reshape(-1, 3).T
    r = np.float_power(u1, 1.0 / 3.0)  # libm pow per element, as Python's ** does it
    cos_t = 2.0 * u2 - 1.0
    sin_t = np.sqrt(np.maximum(0.0, 1.0 - cos_t * cos_t))
    phi = 2.0 * math.pi * u3
    return r[:, None] * np.column_stack([sin_t * np.cos(phi), sin_t * np.sin(phi), cos_t])


def _uncertainty_block(stream: SeededStream, data, start: int, stop: int) -> dict:
    """The relations on samples [start, stop), one row per relation of each:
    sample i reads words [3i, 3i + 3) of ``stream``, so the rows do not
    depend on the block."""
    u = stream.uniforms(3 * start, 3 * (stop - start))
    table = _relations(_bloch_rows(_random_bloch(u)), *data)
    lhs = np.column_stack([table[r][0] for r in RELATION_IDS]).ravel()
    rhs = np.column_stack([table[r][1] for r in RELATION_IDS]).ravel()
    return {"relation_id": RELATION_IDS * (stop - start), "lhs": lhs, "rhs": rhs,
            "slack": lhs - rhs}


def cmd_uncertainty(args) -> int:
    spec = _resolve_spec(args)
    data = _spec_relations(spec)  # every refusal of the spec, before any output or draw
    stream = SeededStream(args.seed)
    _write(args, (_uncertainty_block(stream, data, *rows) for rows in _row_ranges(args.samples)))
    return 0


def cmd_bb84(args) -> int:
    thetas = [math.pi / 2, math.pi / 4]
    if args.theta_deg is not None:
        thetas = [math.radians(args.theta_deg)]
    rows = []
    for k, theta in enumerate(thetas):
        report = bb84_eve(args.n, SeededStream(args.seed, stream_id=k), theta=theta)
        p = report.guess_success_prob_after_announcement
        stderr = math.sqrt(p * (1.0 - p) / report.n_trials) if 0.0 < p < 1.0 else 0.0
        deviation = (
            abs(report.empirical_success - p) / stderr if stderr > 0.0 else 0.0
        )
        rows.append((math.degrees(report.theta), report.alpha, p, report.empirical_success,
                     report.n_trials, deviation, args.seed))
    keys = ("theta_deg", "alpha", "analytic_success", "empirical_success", "n_trials",
            "deviation_sigma", "seed")
    _write(args, [dict(zip(keys, zip(*rows)))])
    return 0


def cmd_cloning(args) -> int:
    theta = math.radians(args.theta_deg if args.theta_deg is not None else 90.0)
    scenario = cloning_joint(theta, args.eta)
    worst = min_cloning_gap(args.eta)
    record = {
        "theta_deg": math.degrees(scenario.theta),
        "eta": scenario.eta,
        "alpha_clone": scenario.alpha_clone,
        "alpha_optimal": scenario.alpha_optimal,
        "gap": scenario.gap,
        "min_gap": worst.gap,
        "min_gap_theta_deg": math.degrees(worst.theta),
    }
    _write(args, record)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinjoint",
        description="Joint unsharp measurements of two spin-1/2 components: "
                    "validation, scans, correlations, sampling and scenario studies.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="check admissibility and the generated measurement")
    _add_spec_flags(p)
    _add_output_flags(p, "json")
    p.set_defaults(func=cmd_validate, usage=p)

    p = subs.add_parser("scan-theta", help="sweep the angle; optimal sharpness and gaps")
    p.add_argument("--points", type=_int_at_least(2), default=181)
    _add_output_flags(p, "csv")
    p.set_defaults(func=cmd_scan_theta, usage=p)

    p = subs.add_parser("chsh", help="CHSH-type combination at optimal settings")
    _add_spec_flags(p)
    p.add_argument("--n", type=_int_at_least(1), default=None, help="also sample empirically")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    _add_output_flags(p, "json")
    p.set_defaults(func=cmd_chsh, usage=p)

    p = subs.add_parser("sample", help="draw outcomes of the joint measurement")
    _add_spec_flags(p)
    p.add_argument("--bloch", type=_vector, default="0,0,0",
                   help="Bloch vector of the measured state (default mixed)")
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--seed", type=_int_at_least(0), required=True)
    _add_output_flags(p, "csv")
    p.set_defaults(func=cmd_sample, usage=p)

    p = subs.add_parser("signal", help="Monte Carlo no-signalling experiment")
    _add_spec_flags(p)
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--seed", type=_int_at_least(0), required=True)
    _add_output_flags(p, "json")
    p.set_defaults(func=cmd_signal, usage=p)

    p = subs.add_parser("uncertainty", help="evaluate all variance bounds on random states")
    _add_spec_flags(p)
    p.add_argument("--samples", type=_int_at_least(1), default=1000)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    _add_output_flags(p, "csv")
    p.set_defaults(func=cmd_uncertainty, usage=p)

    p = subs.add_parser("bb84", help="joint-measurement eavesdropper study")
    p.add_argument("--theta-deg", type=_degrees, default=None,
                   help="basis angle on the Bloch sphere (default: run 90 and 45)")
    p.add_argument("--n", type=_int_at_least(1), required=True, help="trials per basis/bit cell")
    p.add_argument("--seed", type=_int_at_least(0), required=True)
    _add_output_flags(p, "csv")
    p.set_defaults(func=cmd_bb84, usage=p)

    p = subs.add_parser("cloning", help="cloning sharpness versus the admissible optimum")
    p.add_argument("--theta-deg", type=_degrees, default=None)
    p.add_argument("--eta", type=float, default=CLONER_ETA_MAX)
    _add_output_flags(p, "json")
    p.set_defaults(func=cmd_cloning, usage=p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    words = list(sys.argv[1:] if argv is None else argv)
    # the top-level parser's leftovers come first, all from before the subcommand
    usage = parser if extra and extra[0] in words[:words.index(args.command)] else args.usage
    try:
        if extra:
            raise argparse.ArgumentTypeError(f"unrecognized arguments: {' '.join(extra)}")
        return args.func(args)
    except (argparse.ArgumentTypeError, ZeroAlpha) as exc:
        usage.error(str(exc))
    except SpinJointError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
