import contextlib
import csv
import hashlib
import io
import json
import math
import warnings

import pytest

from spinjoint import cli
from spinjoint.cli import main

SQ2 = math.sqrt(2.0)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


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


def _must_not_run(*args):
    raise AssertionError("the command ran before --out was checked")


@pytest.mark.parametrize("alpha", ["0", "1e-160", "1e-200"])
def test_vanishing_sharpness_is_refused_before_any_draw(capsys, monkeypatch, alpha):
    # alpha^2 alpha'^2 is 0: the library's ZeroAlpha becomes the usage error
    monkeypatch.setattr(cli, "SeededStream", _must_not_run)
    with pytest.raises(SystemExit) as excinfo:
        main(["uncertainty", "--alpha", alpha, "--alpha-prime", alpha])
    out = capsys.readouterr()
    assert excinfo.value.code == 2
    assert out.out == ""
    assert out.err.startswith("usage: spinjoint")
    assert "alpha^2 alpha'^2" in out.err


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


# sha256 of seeded Monte Carlo stdout, recorded while the block walk still
# handed over doubles; --n is not a multiple of the 2^16-draw block, and
# bb84's 4n trials are not either
MONTE_CARLO_ARGV = {
    "sample": ["sample", "--theta-deg", "70", "--alpha", "0.6", "--alpha-prime", "0.7",
               "--bloch=0.2,0.1,-0.3", "--n", "70001", "--seed", "5"],
    "sample-mixed": ["sample", "--n", "70001", "--seed", "5"],  # boundaries at 1/4, 1/2, 3/4
    "signal": ["signal", "--theta-deg", "70", "--n", "70001", "--seed", "5"],
    "chsh": ["chsh", "--theta-deg", "70", "--n", "70001", "--seed", "5"],
    "bb84": ["bb84", "--n", "17501", "--seed", "5"],
}
MONTE_CARLO_SHA256 = {  # (command, format) -> digest
    ("sample", "csv"): "368bc14d94b980e3be7f4f0b9d8727b3cb8541aa8eec50d0d52ded57e00013c4",
    ("sample", "json"): "4acdbef12cc685a66b44f681e9d415231b4664ce13c4ca0e70d20721b8e89bc6",
    ("sample-mixed", "csv"): "a9dd1e90ce9057487793db2b8bc934c650b65f99abcd83be4b376e11c8acfe5b",
    ("sample-mixed", "json"): "241316c4de3799ed982b9404a7739dc9ca485e98fc92b5de2b21827faca06db3",
    ("signal", "csv"): "7245e75e1c1ed81777797265e342f198ef6ecf1271ea0768de15c439ff238f65",
    ("signal", "json"): "e182199977d8fe6c3ae35d21189419aeff381dfff6f4bc8a63b6259af8ddf771",
    ("chsh", "csv"): "269158b3f7c26975a9c038c895af48f90ee99d3f9efb455253f3810fa7f10657",
    ("chsh", "json"): "0f4e4b21f19ce71b2324b39babcd10a5e7fb6ee6bd097fd1432e616623c9e3fd",
    ("bb84", "csv"): "edbf39e9e2f67f7ac9512068e3ec0d6ddeeead5e76f09ed6783773184095c1da",
    ("bb84", "json"): "88da9278811eddc0600fece6c5861c52505e59799e36caccdd89b39be2921870",
}


@pytest.mark.parametrize("case", sorted(MONTE_CARLO_SHA256), ids="-".join)
def test_monte_carlo_stdout_is_byte_identical(case):
    command, fmt = case
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([*MONTE_CARLO_ARGV[command], "--format", fmt])
    assert code == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == MONTE_CARLO_SHA256[case]


# the CLI's golden manifest: name -> (argv, exit code, sha256 of stdout,
# whether stderr is empty); stderr itself is not hashed, and for the clamp
# case, whose RuntimeWarning names a file and line, it is not pinned (None)
CLI_MANIFEST = {
    "validate-json": (["validate", "--format", "json"], 0,
                      "425fdbef36bf70ad17e9480ff5e3f10ba3c627f5aaa90fbfc93d64aa82d5958b", True),
    "validate-csv": (["validate", "--format", "csv"], 0,
                     "d261f8d03b0b0fbf737f152b3f29f974c6e80e6c0ae751e50fef7871b6ebf79b", True),
    "validate-inadmissible": (["validate", "--alpha", "1", "--alpha-prime", "1"], 1,
                              "7d8588c43dbe04e8e8cd812f39ff276269e9ac6e51d8b889f70aa05f2260cf12",
                              True),
    "scan-theta-csv": (["scan-theta", "--points", "7", "--format", "csv"], 0,
                       "56568489830439ebbf1d4f261b1bddcf81bdda95b8d1afe93472e5162ac87dec", True),
    "scan-theta-json": (["scan-theta", "--points", "7", "--format", "json"], 0,
                        "a48beef8cd79bc8aaee03170555c9f17fadebc3c137039b9dfba4c5458d1efc6", True),
    "chsh-90": (["chsh", "--theta-deg", "90"], 0,
                "dad8ca8c4857a9b4b4e24565beda87a5d870278b536c444fe75675aa3f4bd5c8", True),
    "chsh-180": (["chsh", "--theta-deg", "180"], 1,
                 "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", False),
    "cloning": (["cloning"], 0,
                "f15af4421b29c75551db50a92b67e07950b684f922bd9cfa73c3ccf0fb5c0322", True),
    "uncertainty-json": (["uncertainty", "--format", "json"], 0,
                         "eb907be80c7622e7aa05568bd87a63e632c8627b05d03ea27458502f296cc129", True),
    "sample-clamped": (["sample", "--theta-deg", "180", "--bloch", "1,0,0", "--n", "10",
                        "--seed", "1"], 0,
                       "24a76d24cbf10dfcd3afc69388055892a1639b10a8a1ca4e592577aa42998279", None),
    "usage-error": (["bb84", "--n", "0", "--seed", "1"], 2,
                    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", False),
}


@pytest.mark.parametrize("name", sorted(CLI_MANIFEST))
def test_cli_manifest(capsys, name):
    argv, exit_code, digest, stderr_empty = CLI_MANIFEST[name]
    warns = pytest.warns(RuntimeWarning) if stderr_empty is None else contextlib.nullcontext()
    with warns:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    out = capsys.readouterr()
    assert code == exit_code
    assert hashlib.sha256(out.out.encode()).hexdigest() == digest
    if stderr_empty is not None:
        assert (out.err == "") is stderr_empty


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
