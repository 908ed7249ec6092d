"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats as scipy_stats

from helpers import (
    dense_admissibility,
    pauli_dot,
    random_admissible_spec,
    random_direction_pair,
    random_saturating_spec,
    random_state,
    random_unit,
    tensor2,
)
from spinjoint import (
    BoundViolated,
    JointSpec,
    SeededStream,
    Settings,
    admissibility_scan,
    arthurs_goodman,
    bb84_eve,
    born_correlations,
    bound_lhs,
    chsh_value,
    cirelson_product,
    cloning_joint,
    general_joint_povm,
    joint_correlations,
    max_symmetric_alpha,
    no_signalling_probe,
    optimal_joint_povm,
    optimal_settings,
    outcome_probabilities,
    product_form,
    product_form_check,
    projective_povm,
    robertson,
    sample_povm,
    schroedinger,
    sharp_chsh_reference,
    sharp_correlation,
    signalling_experiment,
    singlet,
    state_from_bloch,
    switch_povm,
    switch_realization,
    total_joint,
    validate,
)
from spinjoint.cli import main
from spinjoint.qubit import ID2

SQ2 = math.sqrt(2.0)
X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])


def _report(num, description, ok):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_01_bound_saturation():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst_bound = 0.0
    worst_slack = 0.0
    for _ in range(200):
        a, ap = random_direction_pair(rng, min_sin=0.0)
        theta = math.acos(np.clip(a @ ap, -1, 1))
        alpha = max_symmetric_alpha(theta)
        spec = JointSpec(a, ap, alpha, alpha)
        worst_bound = max(worst_bound, abs(bound_lhs(spec) - 2.0))
        if alpha < 1.0:  # product form needs nonzero division margin anyway
            worst_slack = max(worst_slack, abs(product_form(spec).slack))
    elapsed = time.perf_counter() - start
    ok = worst_bound <= 1e-10 and worst_slack <= 1e-10 and elapsed < 1.0
    _report(1, f"saturation 200 specs (bound dev {worst_bound:.2e}, "
               f"slack {worst_slack:.2e}, {elapsed:.2f}s)", ok)


def test_criterion_02_three_predicate_equivalence():
    rng = np.random.default_rng(102)
    n = 100_000
    start = time.perf_counter()
    a = rng.uniform(-1, 1, (n, 3))
    ap = rng.uniform(-1, 1, (n, 3))
    norms_a = np.linalg.norm(a, axis=1)
    norms_ap = np.linalg.norm(ap, axis=1)
    keep = (norms_a > 1e-6) & (norms_ap > 1e-6)
    a, ap = a[keep] / norms_a[keep, None], ap[keep] / norms_ap[keep, None]
    alpha = rng.uniform(0, 1, keep.sum())
    alpha_p = rng.uniform(0, 1, keep.sum())

    diag_sum, pform, min_eig = admissibility_scan(a, ap, alpha, alpha_p)
    off_boundary = (
        (np.abs(diag_sum - 2.0) > 1e-9)
        & (np.abs(pform - 1.0) > 1e-9)
        & (np.abs(4.0 * min_eig) > 1e-9)
    )
    v1 = diag_sum[off_boundary] <= 2.0
    v2 = pform[off_boundary] <= 1.0
    v3 = min_eig[off_boundary] >= 0.0
    agree = np.array_equal(v1, v2) and np.array_equal(v1, v3)

    # anchor the vectorized path to the scalar operations, including the
    # constructor's accept/reject decision, and both (one shared kernel) to
    # the dense oracle: explicit diagonals and matrix eigenvalues
    anchored = True
    for i in rng.choice(np.flatnonzero(off_boundary), size=2000, replace=False):
        spec = JointSpec(a[i], ap[i], alpha[i], alpha_p[i])
        dense_sum, dense_pform, dense_eig = dense_admissibility(spec)
        anchored &= abs(bound_lhs(spec) - diag_sum[i]) <= 1e-12
        anchored &= abs(dense_sum - diag_sum[i]) <= 1e-12
        anchored &= abs(product_form_check(spec) - pform[i]) <= 1e-12
        anchored &= abs(dense_pform - pform[i]) <= 1e-12
        anchored &= abs(dense_eig - min_eig[i]) <= 1e-12
        try:
            povm = general_joint_povm(spec)
            constructed = True
            anchored &= abs(min(validate(povm).min_eigenvalues) - min_eig[i]) <= 1e-12
        except BoundViolated as exc:
            constructed = False
            anchored &= abs(exc.min_eigenvalue - dense_eig) <= 1e-12
        anchored &= constructed == bool(diag_sum[i] <= 2.0)
    elapsed = time.perf_counter() - start
    ok = agree and anchored and elapsed < 5.0 and off_boundary.sum() > 0.99 * n
    _report(2, f"predicate agreement on {int(off_boundary.sum())} samples "
               f"({elapsed:.2f}s)", ok)


def test_criterion_03_povm_validity_and_marginals():
    rng = np.random.default_rng(103)
    worst_eig = 0.0
    worst_defect = 0.0
    worst_marginal = 0.0
    for _ in range(1000):
        spec = random_admissible_spec(rng)
        povm = general_joint_povm(spec)
        report = validate(povm)
        worst_eig = min(worst_eig, min(report.min_eigenvalues))
        worst_defect = max(worst_defect, report.completeness_defect)
        marg_plus = povm.effect("++").op + povm.effect("+-").op
        marg_minus = povm.effect("-+").op + povm.effect("--").op
        expected_plus = 0.5 * (ID2 + spec.alpha * pauli_dot(spec.a))
        expected_minus = 0.5 * (ID2 - spec.alpha * pauli_dot(spec.a))
        worst_marginal = max(
            worst_marginal,
            float(np.max(np.abs(marg_plus - expected_plus))),
            float(np.max(np.abs(marg_minus - expected_minus))),
        )
    ok = worst_eig >= -1e-10 and worst_defect <= 1e-10 and worst_marginal <= 1e-12
    _report(3, f"1000 admissible POVMs valid (min eig {worst_eig:.2e}, defect "
               f"{worst_defect:.2e}, marginal dev {worst_marginal:.2e})", ok)


def test_criterion_04_switch_reconstruction():
    rng = np.random.default_rng(104)
    worst = 0.0
    worst_p = 0.0
    for _ in range(200):
        spec = random_saturating_spec(rng)
        sw = switch_realization(spec)
        v_plus = spec.alpha * spec.a + spec.alpha_prime * spec.a_prime
        worst_p = max(worst_p, abs(sw.p - 0.5 * np.linalg.norm(v_plus)))
        rebuilt = switch_povm(sw)
        reference = optimal_joint_povm(spec)
        for label in ("++", "--", "+-", "-+"):
            diff = np.max(np.abs(rebuilt.effect(label).op - reference.effect(label).op))
            worst = max(worst, float(diff))
    ok = worst <= 1e-12 and worst_p <= 1e-12
    _report(4, f"switch rebuilds the saturating family on 200 specs "
               f"(entry dev {worst:.2e}, p dev {worst_p:.2e})", ok)


def test_criterion_05_correlation_closed_form():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(1000):
        spec = random_admissible_spec(rng, min_scale=0.0)
        settings = Settings(random_unit(rng), random_unit(rng))
        closed = joint_correlations(spec, settings)
        born = born_correlations(spec, settings)
        for field in ("e_ab", "e_apb", "e_abp", "e_apbp"):
            worst = max(worst, abs(getattr(closed, field) - getattr(born, field)))
    sharp_exact = True
    state = singlet()
    for _ in range(100):
        a, b = random_unit(rng), random_unit(rng)
        value = sharp_correlation(a, b)
        sharp_exact &= value == -float(a @ b)
        trace_route = float(
            np.trace(tensor2(pauli_dot(a), pauli_dot(b)) @ state.rho4).real
        )
        sharp_exact &= abs(value - trace_route) <= 1e-12
    ok = worst <= 1e-10 and sharp_exact
    _report(5, f"closed-form vs Born-rule correlations (max dev {worst:.2e})", ok)


def test_criterion_06_chsh_compliance():
    rng = np.random.default_rng(106)
    worst_excess = -math.inf
    for _ in range(10_000):
        spec = random_admissible_spec(rng, min_scale=0.0)
        settings = Settings(random_unit(rng), random_unit(rng))
        worst_excess = max(
            worst_excess, chsh_value(joint_correlations(spec, settings)) - 2.0
        )
    worst_saturation = 0.0
    for _ in range(200):
        spec = random_saturating_spec(rng)
        value = chsh_value(joint_correlations(spec, optimal_settings(spec)))
        worst_saturation = max(worst_saturation, abs(value - 2.0))
    _, sharp_ref = sharp_chsh_reference()
    ok = (
        worst_excess <= 1e-10
        and worst_saturation <= 1e-10
        and abs(sharp_ref - 2.0 * SQ2) <= 1e-12
    )
    _report(6, f"CHSH <= 2 on 1e4 specs (max excess {worst_excess:.2e}), "
               f"= 2 at optimum (dev {worst_saturation:.2e}), sharp ref 2*sqrt(2)", ok)


def test_criterion_07_no_signalling():
    rng = np.random.default_rng(107)
    worst_probe = 0.0
    for _ in range(100):
        spec = random_admissible_spec(rng, min_scale=0.0)
        settings = Settings(random_unit(rng), random_unit(rng))
        p_b, p_bp = no_signalling_probe(spec, settings)
        worst_probe = max(worst_probe, abs(p_b - p_bp))

    start = time.perf_counter()
    worst_z = 0.0
    canonical = JointSpec(X, Z, 1 / SQ2, 1 / SQ2)
    for run in range(20):
        if run < 10:
            spec, settings = canonical, optimal_settings(canonical)
        else:
            spec = random_admissible_spec(rng, min_scale=0.2)
            settings = Settings(random_unit(rng), random_unit(rng))
        result = signalling_experiment(spec, settings, 1_000_000, SeededStream(1000 + run))
        worst_z = max(worst_z, abs(result.z_score))
    elapsed = time.perf_counter() - start
    ok = worst_probe <= 1e-12 and worst_z < 5.0 and elapsed < 30.0
    _report(7, f"no-signalling: probe dev {worst_probe:.2e}, max |z| "
               f"{worst_z:.2f} over 20 runs at n=1e6 ({elapsed:.1f}s)", ok)


def _chi_square_pvalue(counts, probs, n):
    counts = np.asarray(counts, dtype=float)
    probs = np.asarray(probs, dtype=float)
    support = probs > 0
    if np.any(counts[~support] > 0):
        return 0.0
    counts, probs = counts[support], probs[support]
    if len(counts) < 2:
        return 1.0
    expected = probs * n
    expected *= counts.sum() / expected.sum()
    return float(scipy_stats.chisquare(counts, expected).pvalue)


def test_criterion_08_monte_carlo_born_consistency():
    n = 1_000_000
    canonical_blochs = [
        (0.0, 0.0, 0.0),
        (0.0, 0.0, 1.0),
        (1.0, 0.0, 0.0),
        (0.6, 0.0, 0.0),
        (0.36, -0.48, 0.6),
    ]
    spec = JointSpec(Z, X, 1 / SQ2, 1 / SQ2)
    povms = {"projective": projective_povm(Z), "joint": optimal_joint_povm(spec)}
    min_p = 1.0
    seed = 800
    for name, povm in povms.items():
        for bloch in canonical_blochs:
            state = state_from_bloch(bloch)
            expected = outcome_probabilities(povm, state)
            stats = sample_povm(povm, state, n, SeededStream(seed))
            seed += 1
            counts = [stats.counts[label] for label, _ in expected]
            min_p = min(min_p, _chi_square_pvalue(counts, [p for _, p in expected], n))

    # unbiasedness: estimate alpha from the first-slot average
    state = state_from_bloch(0.8 * Z)  # <a.sigma> = 0.8 for a = z
    stats = sample_povm(povms["joint"], state, n, SeededStream(seed))
    alpha_hat = stats.mean / 0.8
    alpha_dev = abs(alpha_hat - spec.alpha) / (stats.stderr / 0.8)
    ok = min_p > 1e-6 and alpha_dev < 5.0
    _report(8, f"Born consistency: min chi-square p {min_p:.2e}, alpha "
               f"estimate off by {alpha_dev:.2f} stderr", ok)


def test_criterion_09_uncertainty_suite():
    rng = np.random.default_rng(109)
    worst_slack = math.inf
    ordering_ok = True
    for _ in range(10_000):
        spec = random_admissible_spec(rng, min_sin=1e-2, min_scale=0.05)
        state = random_state(rng)
        rob = robertson(state, spec.a, spec.a_prime)
        schr = schroedinger(state, spec.a, spec.a_prime)
        reports = (
            product_form(spec),
            rob,
            total_joint(spec, state),
            arthurs_goodman(spec, state),
            schr,
            cirelson_product(spec),
        )
        worst_slack = min(worst_slack, min(r.slack for r in reports))
        ordering_ok &= schr.rhs >= rob.rhs - 1e-15

    # saturation spot checks at theta = 90 degrees
    normal_state = state_from_bloch(Y)  # spin-up along z cross x
    rob_sat = robertson(normal_state, Z, X).slack
    opt = JointSpec(Z, X, 1 / SQ2, 1 / SQ2)
    total_sat = total_joint(opt, normal_state).slack
    ok = (
        worst_slack >= -1e-10
        and ordering_ok
        and abs(rob_sat) <= 1e-9
        and abs(total_sat) <= 1e-9
    )
    _report(9, f"six relations on 1e4 pairs (min slack {worst_slack:.2e}), "
               f"saturations at the plane normal (rob {rob_sat:.1e}, "
               f"total {total_sat:.1e})", ok)


def test_criterion_10_scenario_numbers():
    gap = cloning_joint(math.pi / 2, 2 / 3).gap
    gap_ok = abs(gap - (1 / SQ2 - 2 / 3)) <= 1e-10
    deviations = []
    for k, theta in enumerate((math.pi / 2, math.pi / 4)):
        report = bb84_eve(100_000, SeededStream(1100 + k), theta=theta)
        p = report.guess_success_prob_after_announcement
        sigma = math.sqrt(p * (1 - p) / report.n_trials)
        deviations.append(abs(report.empirical_success - p) / sigma)
    ok = gap_ok and all(d < 5.0 for d in deviations)
    _report(10, f"cloning gap {gap:.6f}, eavesdropper within "
                f"{max(deviations):.2f} sigma at both angles", ok)


def test_criterion_11_cli_determinism(capsys, tmp_path):
    first = tmp_path / "scan1.csv"
    second = tmp_path / "scan2.csv"
    assert main(["scan-theta", "--points", "181", "--out", str(first)]) == 0
    assert main(["scan-theta", "--points", "181", "--out", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()

    code_boundary = main(
        ["validate", "--theta-deg", "90", "--alpha", "0.70710678",
         "--alpha-prime", "0.70710678", "--out", str(tmp_path / "v1.json")]
    )
    code_violating = main(
        ["validate", "--theta-deg", "90", "--alpha", "0.8", "--alpha-prime", "0.8",
         "--out", str(tmp_path / "v2.json")]
    )
    try:
        main(["validate", "--a", "not,a,vector"])
        code_parse = 0
    except SystemExit as exc:
        code_parse = exc.code
    capsys.readouterr()
    ok = identical and code_boundary == 0 and code_violating == 1 and code_parse == 2
    _report(11, f"CLI determinism (byte-identical scan: {identical}) and exit "
                f"codes {code_boundary}/{code_violating}/{code_parse}", ok)
