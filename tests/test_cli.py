import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden import CLI_MANIFEST, MANY_ROW_MANIFEST, check_entry
from helpers import csv_text, scan_theta_rows
from spinjoint import cli, sampling, validate
from spinjoint.cli import main
from spinjoint.joint import is_admissible, max_symmetric_alpha

SQ2 = math.sqrt(2.0)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _contained_run(argv):
    """(exit code, stdout, stderr) of main, with SystemExit the only exception
    let through and no warning allowed."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert [str(w.message) for w in caught] == []
    return code, out.getvalue(), err.getvalue()


def test_validate_boundary_case(capsys):
    code, out, _ = run(
        capsys,
        ["validate", "--theta-deg", "90", "--alpha", "0.70710678",
         "--alpha-prime", "0.70710678"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["admissible"] is True
    assert doc["bound_lhs"] == pytest.approx(2.0, abs=1e-7)
    assert doc["completeness_defect"] <= 1e-10


# one spec's flags through every command that decides admissibility; signal
# at n <= 12 cannot reach its |z| >= 5 exit, since |z| <= sqrt(2n)
VERDICT_COMMANDS = (["validate"], ["chsh"], ["uncertainty", "--samples", "1"],
                    ["signal", "--n", "10", "--seed", "1"], ["sample", "--n", "10", "--seed", "1"])


def _verdicts(spec):
    """Each verdict command's exit code on one spec's flags."""
    return [_contained_run([command, *spec, *extra])[0] for command, *extra in VERDICT_COMMANDS]


@pytest.mark.parametrize("theta_deg, alpha, alpha_prime", [
    # alpha = 0.001 and alpha' within an ulp of the boundary root
    ("90", "0.001", "0.9999994999998751"),
    ("60", "0.001", "0.999999624999836"),
    ("30", "0.001", "0.9999998749998985"),
    # symmetric, alpha = alpha' = alpha_max(theta)(1 + 1e-10), and 1/sqrt(2) + 5e-11
    *((theta, alpha, alpha) for theta, alpha in [
        ("30", "0.8164965810093758"), ("60", "0.7320508076420824"),
        ("90", "0.7071067812572581"), ("120", "0.7320508076420823"),
        ("150", "0.8164965810093758"), ("90", "0.7071067812365475")]),
])
def test_validate_and_uncertainty_agree_at_the_boundary(theta_deg, alpha, alpha_prime):
    # joint._decide admits each of these specs, and every command says so
    spec = ["--theta-deg", theta_deg, "--alpha", alpha, "--alpha-prime", alpha_prime]
    assert _verdicts(spec) == [0] * len(VERDICT_COMMANDS)


@st.composite
def boundary_flags(draw):
    """Spec flags on either side of the sharpness boundary: symmetric at
    alpha_max(theta)(1 + k 1e-11), or alpha log-uniform in [1e-7, 1) with
    alpha' within 2 ulp of its boundary root."""
    theta_deg = draw(st.floats(1.0, 179.0))
    theta = math.radians(theta_deg)
    if draw(st.booleans()):
        alpha = alpha_prime = max_symmetric_alpha(theta) * (1.0 + draw(st.integers(-100, 100))
                                                             * 1e-11)
    else:
        # alpha = 1 would leave alpha' = 0, a usage error of uncertainty
        alpha = 10.0 ** draw(st.floats(-7.0, -1e-9))
        root = math.sqrt((1.0 - alpha**2) / (1.0 - (alpha * math.cos(theta)) ** 2))
        alpha_prime = root + draw(st.integers(-2, 2)) * math.ulp(root)
    return ["--theta-deg", repr(theta_deg), "--alpha", repr(alpha),
            "--alpha-prime", repr(alpha_prime)]


@given(boundary_flags())
@settings(deadline=None, max_examples=200)
def test_every_command_gives_the_library_verdict(spec):
    admitted = is_admissible(cli._resolve_spec(cli.build_parser().parse_args(["validate", *spec])))
    assert _verdicts(spec) == [0 if admitted else 1] * len(VERDICT_COMMANDS)


def test_validate_violating_case(capsys):
    code, out, _ = run(
        capsys,
        ["validate", "--theta-deg", "90", "--alpha", "0.8", "--alpha-prime", "0.8"],
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["admissible"] is False
    assert "BoundViolated" in doc["error"]
    assert doc["min_eig_pp"] == pytest.approx(0.25 * (1 - 0.8 * SQ2), abs=1e-12)


def test_validate_reports_a_failing_measurement_check(capsys, monkeypatch):
    # an admissible spec whose generated POVM fails its check: exit 1, the
    # failures joined in "error", the defect filled in
    def failing(povm):
        return dataclasses.replace(
            validate(povm), passes=False, completeness_defect=0.5,
            failures=("effect '++' has eigenvalue -1", "completeness defect 0.5"),
        )

    monkeypatch.setattr(cli, "validate_povm", failing)
    code, out, err = run(capsys, ["validate"])
    assert code == 1
    assert err == ""
    doc = json.loads(out)
    assert doc["admissible"] is True
    assert doc["completeness_defect"] == 0.5
    assert doc["error"] == "effect '++' has eigenvalue -1; completeness defect 0.5"


def test_validate_malformed_vector_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["validate", "--a", "1,2"])
    assert excinfo.value.code == 2


def test_validate_conflicting_direction_flags(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["validate", "--a-prime", "1,0,0", "--theta-deg", "45"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["signal", "--theta-deg", "90", "--n", "0", "--seed", "1"],
        ["chsh", "--theta-deg", "90", "--n", "0"],
        ["bb84", "--n", "0", "--seed", "1"],
        ["sample", "--theta-deg", "90", "--n", "-5", "--seed", "1"],
        ["sample", "--theta-deg", "90", "--n", "10", "--seed", "-1"],
        ["validate", "--alpha", "nan"],
        ["validate", "--alpha", "1.5"],
        ["validate", "--alpha", "0.5", "--alpha-prime", "nan"],
        ["validate", "--alpha", "0.5", "--alpha-prime", "1.5"],
        ["uncertainty", "--theta-deg", "60", "--samples", "0"],
        ["bb84", "--theta-deg", "200", "--n", "10", "--seed", "1"],
        ["bb84", "--theta-deg", "-5", "--n", "10", "--seed", "1"],
        ["cloning", "--theta-deg", "200"],
        ["cloning", "--theta-deg", "nan"],
        ["chsh", "--alpha-prime", "0.3"],
        ["validate", "--alpha", "0.9", "--alpha-prime", "optimal-symmetric"],
        ["signal", "--alpha", "optimal-symmetric", "--alpha-prime", "0.5", "--n", "10", "--seed", "1"],
        ["validate", "--a=1e308,1e308,0"],  # |a| overflows
        ["uncertainty", "--alpha", "0", "--alpha-prime", "0.5"],
        ["uncertainty", "--alpha", "1e-200", "--alpha-prime", "1e-200"],  # alpha^2 underflows
        ["sample", "--bloch=nan,0,0", "--n", "10", "--seed", "1"],
        ["validate", "--a=inf,0,0"],
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    with warnings.catch_warnings(), pytest.raises(SystemExit) as excinfo:
        warnings.simplefilter("error")  # the usage message is all that is printed
        main(argv)
    out = capsys.readouterr()
    assert excinfo.value.code == 2
    assert out.out == ""
    assert out.err.startswith("usage: spinjoint")
    assert "Traceback" not in out.err


# the CLI's crash contract over an argv grammar: edge numbers and vectors in
# every flag, tiny sizes (uncertainty and scan-theta hold their whole output)
EDGE_NUMBERS = st.sampled_from(["nan", "inf", "-inf", "5e-324", "1e308", "-0", "1",
                                "1.000000000001", "0.999999999999", "", "x"])


def _numbers(low, high):
    # an edge value one time in four: each flag drawn is a usage error then
    return st.one_of(EDGE_NUMBERS, *[st.floats(low, high).map(repr)] * 3)


VECTORS = st.sampled_from(["0,0,0", "1,0,0", "-1,0,0", "1,1e-17,0", "-1,-1e-17,0",
                           "1e308,1e308,0", "inf,0,0", "nan,0,0", "5e-324,0,0", "1,2",
                           "1,2,3,4", "", "x,y,z"]) \
    | st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(lambda v: ",".join(map(repr, v)))
SIZE = st.integers(-1, 100)
SEED = st.integers(-1, 3)
SPEC_FLAGS = {"--a": VECTORS, "--a-prime": VECTORS, "--theta-deg": _numbers(0.0, 180.0),
              "--alpha": _numbers(-1.0, 1.0) | st.just("optimal-symmetric"),
              "--alpha-prime": _numbers(-1.0, 1.0)}
COMMAND_FLAGS = {
    "validate": SPEC_FLAGS,
    "scan-theta": {"--points": st.integers(0, 5)},
    "chsh": {**SPEC_FLAGS, "--n": SIZE, "--seed": SEED},
    "sample": {**SPEC_FLAGS, "--bloch": VECTORS, "--n": SIZE, "--seed": SEED},
    "signal": {**SPEC_FLAGS, "--n": SIZE, "--seed": SEED},
    "uncertainty": {**SPEC_FLAGS, "--samples": st.integers(-1, 10), "--seed": SEED},
    "bb84": {"--theta-deg": _numbers(0.0, 180.0), "--n": SIZE, "--seed": SEED},
    "cloning": {"--theta-deg": _numbers(0.0, 180.0), "--eta": _numbers(0.0, 1.0)},
}
REQUIRED = {"sample": ("--n", "--seed"), "signal": ("--n", "--seed"), "bb84": ("--n", "--seed")}


@st.composite
def cli_argvs(draw):
    """A subcommand and a subset of its flags, each written as --flag=value
    or as two words (a value such as -inf then reads as an option)."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    flags = COMMAND_FLAGS[command]
    argv = [command]
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), unique=True))
    # a missing required flag is one usage error among many: leave it out rarely
    chosen += [flag for flag in REQUIRED.get(command, ())
               if flag not in chosen and draw(st.integers(0, 9)) < 9]
    for flag in chosen:
        value = str(draw(flags[flag]))
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["csv", "json", "xml"]))]
    if draw(st.integers(0, 9)) == 0:  # an unknown flag or a stray word
        argv += draw(st.sampled_from([["--bogus"], ["--bogus=1"], ["--bogus", "1"], ["stray"]]))
    return argv


@given(cli_argvs())
@settings(deadline=None, max_examples=200)
def test_cli_crash_contract(argv):
    code, out, err = _contained_run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
        assert err.startswith(f"usage: spinjoint {argv[0]} ")
        return
    # --out FILE gets the bytes stdout got, and nothing else changes
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out"
        assert _contained_run([*argv, "--out", str(path)]) == (code, "", err)
        assert (path.read_text() if path.exists() else "") == out


# same seed, same bytes: every seeded command on valid spec flags, with any
# nonnegative seed, in both formats and at tiny sizes
N_FLAG = st.integers(1, 100).map(lambda n: [f"--n={n}"])
THETA_FLAG = st.floats(0.0, 180.0).map(lambda t: [f"--theta-deg={t!r}"])
ALPHA_FLAGS = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(
    lambda a: [f"--alpha={a[0]!r}", f"--alpha-prime={a[1]!r}"])
BLOCH_FLAG = st.tuples(*[st.floats(-0.5, 0.5)] * 3).map(
    lambda m: ["--bloch=" + ",".join(map(repr, m))])
# each command's size flag, then the flags it may leave at their defaults
SEEDED_FLAGS = {
    "sample": (N_FLAG, THETA_FLAG, ALPHA_FLAGS, BLOCH_FLAG),
    "signal": (N_FLAG, THETA_FLAG, ALPHA_FLAGS),
    "chsh": (N_FLAG, THETA_FLAG, ALPHA_FLAGS),
    "uncertainty": (st.integers(1, 10).map(lambda n: [f"--samples={n}"]),
                    THETA_FLAG, ALPHA_FLAGS),
    "bb84": (N_FLAG, THETA_FLAG),
}


@st.composite
def seeded_argvs(draw):
    command = draw(st.sampled_from(sorted(SEEDED_FLAGS)))
    size, *optional = SEEDED_FLAGS[command]
    argv = [command, f"--seed={draw(st.integers(min_value=0))}",
            f"--format={draw(st.sampled_from(['csv', 'json']))}", *draw(size)]
    for flags in optional:
        argv += draw(st.just([]) | flags)
    return argv


@given(seeded_argvs())
@settings(deadline=None, max_examples=100)
def test_same_seed_gives_the_same_bytes(argv):
    assert _contained_run(argv) == _contained_run(argv)


# a usage error found while a command runs prints the subcommand's usage
# line, as argparse's own errors do, wrapped as argparse wraps it at 80 columns
USAGE = {
    "validate": (
        "usage: spinjoint validate [-h] [--a A]\n"
        "                          [--a-prime A_PRIME | --theta-deg THETA_DEG]\n"
        "                          [--alpha ALPHA] [--alpha-prime ALPHA_PRIME]\n"
        "                          [--out OUT] [--format {csv,json}]\n"
    ),
    "chsh": (
        "usage: spinjoint chsh [-h] [--a A] [--a-prime A_PRIME | --theta-deg THETA_DEG]\n"
        "                      [--alpha ALPHA] [--alpha-prime ALPHA_PRIME] [--n N]\n"
        "                      [--seed SEED] [--out OUT] [--format {csv,json}]\n"
    ),
    "uncertainty": (
        "usage: spinjoint uncertainty [-h] [--a A]\n"
        "                             [--a-prime A_PRIME | --theta-deg THETA_DEG]\n"
        "                             [--alpha ALPHA] [--alpha-prime ALPHA_PRIME]\n"
        "                             [--samples SAMPLES] [--seed SEED] [--out OUT]\n"
        "                             [--format {csv,json}]\n"
    ),
    "scan-theta": (
        "usage: spinjoint scan-theta [-h] [--points POINTS] [--out OUT]\n"
        "                            [--format {csv,json}]\n"
    ),
}


@pytest.mark.parametrize(
    "argv, message",
    [
        # refused by argparse's mutually exclusive group while it parses
        (["validate", "--a-prime", "1,0,0", "--theta-deg", "45"],
         "argument --theta-deg: not allowed with argument --a-prime"),
        (["chsh", "--alpha-prime", "0.3"],
         "--alpha and --alpha-prime: two numbers or 'optimal-symmetric' for both"),
        (["uncertainty", "--alpha", "0", "--alpha-prime", "0"],
         "the relations divide by alpha^2 alpha'^2, which is 0 here"),
        (["validate", "--out", "{tmp}"], "cannot write --out {tmp}: Is a directory"),
        # arguments left over after the subcommand
        (["validate", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        (["scan-theta", "extra"], "unrecognized arguments: extra"),
    ],
)
def test_usage_errors_found_by_a_command_print_this_text(tmp_path, capsys, monkeypatch,
                                                         argv, message):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as excinfo:
        main([arg.format(tmp=tmp_path) for arg in argv])
    out = capsys.readouterr()
    assert excinfo.value.code == 2
    assert out.out == ""
    command = argv[0]
    assert out.err == (USAGE[command] + f"spinjoint {command}: error: "
                       + message.format(tmp=tmp_path) + "\n")


def _must_not_run(*args):
    raise AssertionError("the command ran before --out was checked")


def _no_draw(*args):
    raise AssertionError("a stream word was read")


@pytest.fixture
def no_draws(monkeypatch):
    # every stream word of the package is read through SeededStream._reader
    monkeypatch.setattr(sampling.SeededStream, "_reader", _no_draw)


def test_no_draws_fixture_catches_a_draw(no_draws):
    with pytest.raises(AssertionError, match="a stream word was read"):
        main(["uncertainty", "--samples", "1"])


BOUND_VIOLATED = ("error: BoundViolated: effect eigenvalue -0.10355339059327379 < 0: "
                  "sharpness bound exceeded (diagonal sum 2.82842712474619 > 2)\n")
COLLINEAR = "error: CollinearDirections: a and a_prime are (anti)parallel\n"
ZERO_ALPHA = (USAGE["uncertainty"] + "spinjoint uncertainty: error: the relations divide by "
              "alpha^2 alpha'^2, which is 0 here\n")


@pytest.mark.parametrize(
    "argv, code, err",
    [
        # alpha^2 alpha'^2 is 0: the library's ZeroAlpha becomes the usage error
        *(pytest.param(["uncertainty", "--alpha", alpha, "--alpha-prime", alpha], 2, ZERO_ALPHA,
                       id=alpha) for alpha in ("0", "1e-160", "1e-200")),
        pytest.param(["uncertainty", "--theta-deg", "0"], 1, COLLINEAR, id="collinear"),
        pytest.param(["uncertainty", "--alpha", "1", "--alpha-prime", "1"], 1, BOUND_VIOLATED,
                     id="inadmissible"),
        # ZeroAlpha comes first (a collinear spec is never inadmissible, |alpha| <= 1,
        # so CollinearDirections and BoundViolated never meet)
        pytest.param(["uncertainty", "--theta-deg", "0", "--alpha", "0"], 2, ZERO_ALPHA,
                     id="zero-alpha-and-collinear"),
        # the Monte Carlo commands, as guards
        pytest.param(["sample", "--alpha", "1", "--alpha-prime", "1", "--n", "10", "--seed", "1"],
                     1, BOUND_VIOLATED, id="sample-inadmissible"),
        pytest.param(["signal", "--alpha", "1", "--alpha-prime", "1", "--n", "10", "--seed", "1"],
                     1, BOUND_VIOLATED, id="signal-inadmissible"),
        pytest.param(["chsh", "--alpha", "1", "--alpha-prime", "1", "--n", "10"],
                     1, BOUND_VIOLATED, id="chsh-n-inadmissible"),
    ],
)
def test_vanishing_sharpness_is_refused_before_any_draw(capsys, monkeypatch, no_draws,
                                                        argv, code, err):
    # and every other refusal of a spec: no stream word is read
    monkeypatch.setenv("COLUMNS", "80")
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    out = capsys.readouterr()
    assert got == code
    assert out.out == ""
    assert out.err == err


@pytest.mark.parametrize(
    "argv",
    [["validate"], ["scan-theta", "--points", "5"], ["chsh", "--n", "3000000", "--seed", "1"]],
)
def test_out_into_missing_directory_exits_2(tmp_path, capsys, monkeypatch, argv):
    # rejected while the flags are parsed: the command's work never starts
    monkeypatch.setattr(cli, "_analyzer_counts", _must_not_run)
    target = tmp_path / "missing" / "x"
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--out", str(target)])
    out = capsys.readouterr()
    assert excinfo.value.code == 2
    assert out.out == ""
    assert out.err.startswith("usage: spinjoint")
    assert str(target) in out.err
    assert "Traceback" not in out.err
    assert not target.parent.exists()


def test_out_onto_a_directory_exits_2(tmp_path, capsys):
    # the parent exists, so only the write itself can fail
    with pytest.raises(SystemExit) as excinfo:
        main(["validate", "--out", str(tmp_path)])
    out = capsys.readouterr()
    assert excinfo.value.code == 2
    assert out.out == ""
    assert out.err.startswith("usage: spinjoint")
    assert str(tmp_path) in out.err
    assert "Traceback" not in out.err


@pytest.mark.parametrize("argv, cells", [
    (["uncertainty"], 24), (["uncertainty", "--format", "json"], 24),
    (["scan-theta"], 4), (["scan-theta", "--format", "json"], 4),
])
def test_row_commands_hold_one_block(tmp_path, argv, cells):
    # uncertainty and scan-theta make and write one block of rows at a time,
    # so going from 3 to 24 blocks adds (almost) nothing to the peak, and the
    # peak stays near one block: at most 256 bytes per cell of a block row
    # (24 cells per uncertainty sample, 4 per angle)
    size = "--samples" if argv[0] == "uncertainty" else "--points"
    out = str(tmp_path / "out")

    def peak(rows):
        tracemalloc.start()
        try:
            assert main([*argv, size, str(rows), "--out", out]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(4)  # caches and first-call set-up stay out of the measurement
    small, large = peak(3 * cli._ROWS), peak(24 * cli._ROWS)
    assert large - small <= 1 << 20, (small, large)
    assert max(small, large) <= 256 * cells * cli._ROWS, (small, large)


def test_scan_theta_deterministic_and_correct(capsys):
    code, first, _ = run(capsys, ["scan-theta", "--points", "181"])
    assert code == 0
    code, second, _ = run(capsys, ["scan-theta", "--points", "181"])
    assert first == second
    lines = first.strip().split("\n")
    assert lines[0] == "theta_deg,alpha_max,boundary_slack,cloning_gap"
    assert len(lines) == 182
    rows = [line.split(",") for line in lines[1:]]
    assert float(rows[0][1]) == 1.0
    assert float(rows[90][1]) == pytest.approx(1 / SQ2, abs=1e-12)
    assert float(rows[45][1]) == pytest.approx(0.76536686473017956, abs=1e-12)
    # optimal sharpness never increases on the way to 90 degrees
    alphas = [float(r[1]) for r in rows[:91]]
    assert all(a1 >= a2 - 1e-15 for a1, a2 in zip(alphas, alphas[1:]))
    assert all(abs(float(r[2])) <= 1e-10 for r in rows)


@pytest.mark.parametrize("points", [*range(2, 401), 1000])
def test_scan_theta_matches_the_per_point_route(points, capsys):
    # 17 significant digits pin every float's bits: the grid batch equals one
    # JointSpec and one product_form call per angle
    code, out, _ = run(capsys, ["scan-theta", "--points", str(points)])
    assert code == 0
    assert out == csv_text(scan_theta_rows(points))


def test_scan_theta_to_file(tmp_path, capsys):
    out_path = tmp_path / "scan.csv"
    code, out, _ = run(capsys, ["scan-theta", "--points", "5", "--out", str(out_path)])
    assert code == 0
    assert out == ""
    text = out_path.read_text()
    assert text.startswith("theta_deg,")


def test_chsh_optimal_spec(capsys):
    code, out, _ = run(capsys, ["chsh", "--theta-deg", "90"])
    assert code == 0
    doc = json.loads(out)
    assert doc["chsh"] == pytest.approx(2.0, abs=1e-10)
    assert doc["sharp_reference"] == pytest.approx(2 * SQ2, abs=1e-12)


def test_chsh_guessing_spec(capsys):
    code, out, _ = run(
        capsys, ["chsh", "--theta-deg", "0", "--alpha", "1", "--alpha-prime", "0"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["chsh"] == pytest.approx(2.0, abs=1e-12)  # 2|a.b| with b = a


def test_chsh_csv_rows_match_header(capsys):
    code, out, _ = run(
        capsys, ["chsh", "--theta-deg", "60", "--n", "1000", "--seed", "3", "--format", "csv"]
    )
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert len(rows) == 1
    assert all(len(row) == len(header) for row in rows)
    record = dict(zip(header, rows[0]))
    assert len(record["b"].split(",")) == 3
    assert len(record["b_prime"].split(",")) == 3


def test_chsh_empirical(capsys):
    code, out, _ = run(
        capsys, ["chsh", "--theta-deg", "90", "--n", "50000", "--seed", "3"]
    )
    doc = json.loads(out)
    assert code == 0
    assert abs(doc["chsh_empirical"] - 2.0) < 0.05


def test_chsh_inadmissible_exits_1(capsys):
    code, _, err = run(
        capsys, ["chsh", "--theta-deg", "90", "--alpha", "0.8", "--alpha-prime", "0.8"]
    )
    assert code == 1
    assert "BoundViolated" in err


def test_sample_csv_deterministic(capsys):
    argv = ["sample", "--theta-deg", "90", "--n", "1000", "--seed", "7",
            "--bloch", "0,0,0.5"]
    code, first, _ = run(capsys, argv)
    assert code == 0
    _, second, _ = run(capsys, argv)
    assert first == second
    lines = first.strip().split("\n")
    meta = json.loads(lines[0].lstrip("# "))
    assert meta == {"generator": "Philox", "n": 1000, "seed": 7, "stream_id": 0}
    assert lines[1] == "label,count,frequency"
    counts = {line.split(",")[0]: int(line.split(",")[1]) for line in lines[2:]}
    assert sum(counts.values()) == 1000
    assert set(counts) == {"++", "--", "+-", "-+"}


def test_sample_json_format(capsys):
    code, out, _ = run(
        capsys,
        ["sample", "--theta-deg", "90", "--n", "100", "--seed", "7", "--format", "json"],
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["metadata"]["generator"] == "Philox"
    assert sum(doc["counts"].values()) == 100


def test_sample_requires_n_and_seed(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["sample", "--theta-deg", "90"])
    assert excinfo.value.code == 2


def test_sample_bloch_out_of_ball_exits_1(capsys):
    # a length that overflows to inf too: the error line is all that is printed
    for bloch, length in (("1,1,1", math.sqrt(3.0)), ("1e308,1e308,0", math.inf)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy overflow warning would raise
            code, out, err = run(capsys, ["sample", "--n", "10", "--seed", "1", f"--bloch={bloch}"])
        assert code == 1
        assert out == ""
        assert err == f"error: BlochOutOfBall: |m| = {length} > 1\n"


def test_signal_null_result(capsys):
    code, out, _ = run(
        capsys, ["signal", "--theta-deg", "90", "--n", "20000", "--seed", "11"]
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["z_score"]) < 5.0
    assert doc["p_same_b"] == pytest.approx(0.5, abs=0.02)


def test_uncertainty_all_slack_nonnegative(capsys):
    code, out, _ = run(
        capsys,
        ["uncertainty", "--theta-deg", "60", "--alpha", "0.6", "--alpha-prime", "0.7",
         "--samples", "50", "--seed", "2"],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "relation_id,lhs,rhs,slack"
    assert len(lines) == 1 + 50 * 6
    assert all(float(line.split(",")[3]) >= -1e-10 for line in lines[1:])


def test_bb84_default_runs_both_angles(capsys):
    code, out, _ = run(capsys, ["bb84", "--n", "2000", "--seed", "4"])
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3
    first = lines[1].split(",")
    second = lines[2].split(",")
    assert float(first[0]) == 90.0
    assert float(second[0]) == 45.0
    assert float(first[2]) == pytest.approx((1 + 1 / SQ2) / 2, abs=1e-12)
    assert float(first[5]) < 5.0  # empirical within 5 sigma
    assert float(second[5]) < 5.0


def test_cloning_record(capsys):
    code, out, _ = run(capsys, ["cloning"])
    assert code == 0
    doc = json.loads(out)
    assert doc["gap"] == pytest.approx(1 / SQ2 - 2 / 3, abs=1e-12)
    assert doc["min_gap"] == pytest.approx(1 / SQ2 - 2 / 3, abs=1e-12)
    assert doc["min_gap_theta_deg"] == pytest.approx(90.0, abs=1e-9)


def test_cloning_eta_out_of_range_exits_1(capsys):
    code, _, err = run(capsys, ["cloning", "--eta", "0.9"])
    assert code == 1
    assert "EtaOutOfRange" in err


# the manifest's Monte Carlo ("mc-") and uncertainty csv ("uncertainty-csv-",
# in test_uncertainty.py) entries keep their own tests
@pytest.mark.parametrize(
    "name",
    [name for name in sorted(CLI_MANIFEST) if not name.startswith(("mc-", "uncertainty-csv-"))],
)
def test_cli_manifest(name):
    check_entry(name)


@pytest.mark.parametrize(
    "name",
    [name for name in sorted(CLI_MANIFEST) if name.startswith("mc-")],
    ids=lambda name: name.removeprefix("mc-"),
)
def test_monte_carlo_stdout_is_byte_identical(name):
    check_entry(name)


@pytest.mark.parametrize("name", sorted(MANY_ROW_MANIFEST))
def test_many_row_stdout_is_byte_identical(name):
    check_entry(name, MANY_ROW_MANIFEST)


def test_in_process_calls_are_independent():
    # one process, one parser: each call's output is the same in either order,
    # and a usage error or --help in between leaves nothing behind
    names = sorted(CLI_MANIFEST)
    for name in names:
        check_entry(name)
    for argv, code in [(["sample", "--n", "0", "--seed", "1"], 2), (["sample", "--help"], 0)]:
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == code
    for name in reversed(names):
        check_entry(name)


def test_parser_is_built_once_and_holds_no_arrays():
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    parsers = [parser]
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            parsers += action.choices.values()
    assert len(parsers) == 9
    # a shared array default would reach every call, and JointSpec freezes it
    defaults = [action.default for p in parsers for action in p._actions]
    assert not any(isinstance(default, np.ndarray) for default in defaults)


def test_tiny_sharpness_prints_no_overflow_warning(capsys):
    # alpha^2 alpha'^2 = 1e-312 is subnormal, not 0: the joint relations'
    # lhs is inf, with nothing on stderr
    argv = ["uncertainty", "--alpha", "1e-78", "--alpha-prime", "1e-78", "--samples", "2"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning would raise
        code, out, err = run(capsys, argv)
    assert code == 0
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c408cc930068ed779d2729a75fdaa5aae9d4ca7d9d97b8c9ec2619d937c54bd5"
    )


@pytest.mark.parametrize(
    "argv, code",
    [(["validate", "--format", "csv"], 0),
     (["validate", "--alpha", "1", "--alpha-prime", "1"], 1),
     (["bb84", "--n", "0"], 2)],
)
def test_python_dash_m_entry_point(argv, code):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "spinjoint", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == code, done.stderr
    if code == 0:
        digest = CLI_MANIFEST["validate-csv"][2]
        assert hashlib.sha256(done.stdout.encode()).hexdigest() == digest
    if code == 2:
        assert done.stderr.startswith("usage:")


def test_a_reader_that_stops_early_gets_no_traceback():
    # `spinjoint uncertainty --samples 20000 | head -1`: the pipe closes after
    # the first of about 8 MB of rows, and the command still ends quietly
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    argv = [sys.executable, "-m", "spinjoint", "uncertainty", "--samples", "20000"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        assert proc.stdout.readline() == b"relation_id,lhs,rhs,slack\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0, err
    assert err == b""
