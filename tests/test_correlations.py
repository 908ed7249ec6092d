import math

import numpy as np
import pytest

from helpers import (
    pauli_dot,
    random_admissible_spec,
    random_direction_pair,
    random_saturating_spec,
    random_unit,
    reduced_state,
    tensor2,
)
from spinjoint import (
    CorrelationSet,
    DegenerateDirection,
    JointSpec,
    Settings,
    born_correlations,
    chsh_value,
    general_joint_povm,
    joint_correlations,
    no_signalling_probe,
    optimal_joint_povm,
    optimal_settings,
    projective_povm,
    sharp_chsh_reference,
    sharp_correlation,
    sharp_correlations,
    singlet,
    switch_realization,
    tsirelson_settings,
    two_party_probabilities,
)

X = np.array([1.0, 0.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])
SQ2 = math.sqrt(2.0)


def test_singlet_is_pure_with_mixed_marginals():
    state = singlet()
    assert np.trace(state.rho4 @ state.rho4).real == pytest.approx(1.0, abs=1e-12)
    for qubit in (1, 2):
        assert np.max(np.abs(reduced_state(state, qubit).rho - 0.5 * np.eye(2))) <= 1e-12
    zz = tensor2(pauli_dot(Z), pauli_dot(Z))
    assert np.trace(zz @ state.rho4).real == pytest.approx(-1.0, abs=1e-12)


def test_singlet_coordinates_are_exact():
    state = singlet()
    assert np.array_equal(state._pauli, np.diag([1.0, -1.0, -1.0, -1.0]))
    want = np.zeros((4, 4))
    want[1, 1] = want[2, 2] = 0.5
    want[1, 2] = want[2, 1] = -0.5
    assert np.array_equal(state.rho4, want)


def test_sharp_correlation_examples():
    assert sharp_correlation(Z, Z) == -1.0
    assert sharp_correlation(Z, X) == 0.0
    b = np.array([math.sin(math.radians(75)), 0.0, math.cos(math.radians(75))])
    assert sharp_correlation(Z, b) == pytest.approx(-math.cos(math.radians(75)), abs=1e-12)


def test_sharp_correlation_matches_trace():
    rng = np.random.default_rng(61)
    state = singlet()
    for _ in range(50):
        a, b = random_unit(rng), random_unit(rng)
        trace_value = np.trace(tensor2(pauli_dot(a), pauli_dot(b)) @ state.rho4).real
        assert sharp_correlation(a, b) == pytest.approx(trace_value, abs=1e-12)


def test_joint_correlations_closed_form_vs_born():
    rng = np.random.default_rng(67)
    for _ in range(50):
        spec = random_admissible_spec(rng)
        settings = Settings(random_unit(rng), random_unit(rng))
        closed = joint_correlations(spec, settings)
        born = born_correlations(spec, settings)
        for field in ("e_ab", "e_apb", "e_abp", "e_apbp"):
            assert getattr(closed, field) == pytest.approx(getattr(born, field), abs=1e-12)


def test_joint_correlations_guessing_branch():
    spec = JointSpec(Z, X, 1.0, 0.0)
    settings = Settings(Z, X)
    corr = joint_correlations(spec, settings)
    assert corr.e_ab == pytest.approx(-1.0, abs=1e-12)
    assert corr.e_apb == 0.0
    assert corr.e_apbp == 0.0


def test_joint_correlations_orthogonal_analyzer():
    spec = JointSpec(Z, X, 0.5, 0.5)
    y = np.array([0.0, 1.0, 0.0])
    corr = joint_correlations(spec, Settings(y, y))
    assert corr.e_ab == 0.0
    assert corr.e_apb == 0.0


def test_joint_correlations_sum_along_optimal_analyzer():
    spec = JointSpec(X, Z, 1 / SQ2, 1 / SQ2)
    b = (spec.alpha * X + spec.alpha_prime * Z)
    b = b / np.linalg.norm(b)
    corr = joint_correlations(spec, Settings(b, b))
    assert corr.e_ab + corr.e_apb == pytest.approx(-1.0, abs=1e-12)


def test_chsh_value_examples():
    assert chsh_value(CorrelationSet(0, 0, 0, 0)) == 0.0
    spec = JointSpec(X, Z, 1 / SQ2, 1 / SQ2)
    assert chsh_value(joint_correlations(spec, optimal_settings(spec))) == pytest.approx(
        2.0, abs=1e-10
    )


def test_chsh_at_most_two_for_joint_measurements():
    rng = np.random.default_rng(71)
    for _ in range(300):
        spec = random_admissible_spec(rng)
        settings = Settings(random_unit(rng), random_unit(rng))
        assert chsh_value(joint_correlations(spec, settings)) <= 2.0 + 1e-10


def test_chsh_strictly_below_two_off_optimal():
    spec = JointSpec(X, Z, 1 / SQ2, 1 / SQ2)
    opt = optimal_settings(spec)
    tilt = np.array([math.sin(0.2), 0.0, math.cos(0.2)])
    rotated = Settings(tilt, opt.b_prime)
    assert chsh_value(joint_correlations(spec, rotated)) < 2.0 - 1e-6


def test_optimal_settings_geometry():
    spec = JointSpec(X, Z, 1 / SQ2, 1 / SQ2)
    settings = optimal_settings(spec)
    assert np.max(np.abs(settings.b - (X + Z) / SQ2)) <= 1e-12
    assert np.max(np.abs(settings.b_prime - (X - Z) / SQ2)) <= 1e-12
    degenerate = JointSpec(Z, X, 1.0, 0.0)
    s = optimal_settings(degenerate)
    assert np.max(np.abs(s.b - Z)) <= 1e-12
    assert np.max(np.abs(s.b_prime - Z)) <= 1e-12
    with pytest.raises(DegenerateDirection):
        optimal_settings(JointSpec(Z, Z, 0.5, 0.5))


def test_sharp_reference_reaches_tsirelson():
    _, value = sharp_chsh_reference()
    assert value == pytest.approx(2.0 * SQ2, abs=1e-12)


def test_sharp_reference_is_built_once():
    assert sharp_chsh_reference() is sharp_chsh_reference()


def test_tsirelson_settings_bisectors():
    settings = tsirelson_settings(Z, X)
    assert np.max(np.abs(settings.b - (Z + X) / SQ2)) <= 1e-12
    with pytest.raises(DegenerateDirection):
        tsirelson_settings(Z, Z)


def test_joint_outcome_table_is_nonnegative():
    # the joint probabilities whose existence drives the CHSH-type bound
    rng = np.random.default_rng(69)
    state = singlet()
    for _ in range(200):
        spec = random_admissible_spec(rng)
        povm1 = general_joint_povm(spec)
        probs = two_party_probabilities(povm1, projective_povm(random_unit(rng)), state)
        assert probs.shape == (4, 2)
        assert float(probs.min()) >= -1e-12
        assert float(probs.sum()) == pytest.approx(1.0, abs=1e-12)


def test_no_signalling_probe_is_setting_independent():
    rng = np.random.default_rng(73)
    for _ in range(40):
        spec = random_admissible_spec(rng)
        settings = Settings(random_unit(rng), random_unit(rng))
        p_b, p_bp = no_signalling_probe(spec, settings)
        assert abs(p_b - p_bp) <= 1e-12
        assert 0.0 <= p_b <= 1.0 + 1e-12


def test_no_signalling_probe_values():
    # guessing branch: coin flip on the second slot
    spec = JointSpec(Z, X, 1.0, 0.0)
    p_b, _ = no_signalling_probe(spec, Settings(Z, X))
    assert p_b == pytest.approx(0.5, abs=1e-12)
    # optimal symmetric at 90 degrees: p(equal) equals the switch bias
    spec = JointSpec(X, Z, 1 / SQ2, 1 / SQ2)
    p_b, _ = no_signalling_probe(spec, optimal_settings(spec))
    assert p_b == pytest.approx(switch_realization(spec).p, abs=1e-12)


def _triple_probabilities(spec, direction):
    """p(A_J = A'_J = B) and p(A_J = A'_J = -B) from the full joint table."""
    povm1 = optimal_joint_povm(spec)
    probs = two_party_probabilities(povm1, projective_povm(direction), singlet())
    by_label = {label: probs[i] for i, label in enumerate(povm1.labels)}
    same_b = by_label["++"][0] + by_label["--"][1]
    same_minus_b = by_label["++"][1] + by_label["--"][0]
    return same_b, same_minus_b


def test_saturation_diagnostics_one_triple_probability_vanishes():
    rng = np.random.default_rng(79)
    for _ in range(25):
        spec = random_saturating_spec(rng)
        settings = optimal_settings(spec)
        same_b, same_minus_b = _triple_probabilities(spec, settings.b)
        assert min(same_b, same_minus_b) <= 1e-12
        assert max(same_b, same_minus_b) >= 0.0
        # and the analogous pair for the difference analyzer
        povm1 = optimal_joint_povm(spec)
        probs = two_party_probabilities(
            povm1, projective_povm(settings.b_prime), singlet()
        )
        by_label = {label: probs[i] for i, label in enumerate(povm1.labels)}
        diff_bp = by_label["+-"][0] + by_label["-+"][1]
        diff_minus_bp = by_label["+-"][1] + by_label["-+"][0]
        assert min(diff_bp, diff_minus_bp) <= 1e-12


def test_sharp_correlations_entries():
    corr = sharp_correlations(Z, X, Settings(Z, X))
    assert corr.e_ab == -1.0
    assert corr.e_apb == 0.0
    assert corr.e_abp == 0.0
    assert corr.e_apbp == -1.0


def test_correlation_set_rejects_out_of_range():
    with pytest.raises(ValueError):
        CorrelationSet(1.5, 0.0, 0.0, 0.0)
