import math

import numpy as np
import pytest

from helpers import min_cloning_gap_per_point
from spinjoint import (
    EtaOutOfRange,
    JointSpec,
    SeededStream,
    bb84_eve,
    cloning_joint,
    max_symmetric_alpha,
    min_cloning_gap,
    optimal_joint_povm,
    outcome_probabilities,
    sample_indices,
    state_from_bloch,
)

SQ2 = math.sqrt(2.0)


def test_cloning_joint_orthogonal_directions():
    scenario = cloning_joint(math.pi / 2, 2 / 3)
    assert scenario.alpha_clone == pytest.approx(2 / 3)
    assert scenario.alpha_optimal == pytest.approx(1 / SQ2, abs=1e-12)
    assert scenario.gap == pytest.approx(1 / SQ2 - 2 / 3, abs=1e-12)
    assert scenario.gap > 0.04


def test_cloning_joint_parallel_directions():
    scenario = cloning_joint(0.0, 2 / 3)
    assert scenario.alpha_optimal == 1.0
    assert scenario.gap == pytest.approx(1 / 3, abs=1e-12)


def test_cloning_eta_validation():
    with pytest.raises(EtaOutOfRange):
        cloning_joint(math.pi / 2, 0.0)
    with pytest.raises(EtaOutOfRange):
        cloning_joint(math.pi / 2, 0.7)
    with pytest.raises(EtaOutOfRange):
        cloning_joint(math.pi / 2, -0.1)


def test_cloning_gap_positive_on_full_grid():
    # cloning can never reach the optimum: 1/sqrt(1 + sin) >= 1/sqrt(2) > 2/3
    for i in range(181):
        theta = i * math.pi / 180
        assert max_symmetric_alpha(theta) > 2 / 3
        assert cloning_joint(theta).gap > 0.0
    worst = min_cloning_gap()
    assert worst.gap == pytest.approx(1 / SQ2 - 2 / 3, abs=1e-12)
    assert worst.theta == pytest.approx(math.pi / 2, abs=1e-12)


def test_min_cloning_gap_matches_the_per_point_route():
    # the grid's first smallest gap, taken from one array of alpha_max, is the
    # scenario min picks among one cloning_joint per angle, to the bit
    etas = [1e-320, 5e-324, 1e-9, 0.1, 0.5, 0.6, 0.66, 2 / 3]
    etas += np.linspace(1e-6, 2 / 3, 401).tolist()
    for eta in etas:
        assert repr(min_cloning_gap(eta)) == repr(min_cloning_gap_per_point(eta)), eta


@pytest.mark.parametrize("eta", [0.0, -1e-320, 0.7, math.nan, math.inf])
def test_min_cloning_gap_checks_eta(eta):
    with pytest.raises(EtaOutOfRange):
        min_cloning_gap(eta)


def test_bb84_eve_orthogonal_bases():
    report = bb84_eve(10_000, SeededStream(21), theta=math.pi / 2)
    assert report.alpha == pytest.approx(1 / SQ2, abs=1e-12)
    p = report.guess_success_prob_after_announcement
    assert p == pytest.approx((1 + 1 / SQ2) / 2, abs=1e-12)
    sigma = math.sqrt(p * (1 - p) / report.n_trials)
    assert abs(report.empirical_success - p) < 5 * sigma
    assert report.n_trials == 40_000


def test_bb84_eve_45_degree_sensitivity():
    report = bb84_eve(10_000, SeededStream(22), theta=math.pi / 4)
    p = report.guess_success_prob_after_announcement
    assert p == pytest.approx((1 + max_symmetric_alpha(math.pi / 4)) / 2, abs=1e-12)
    assert p == pytest.approx(0.8826834323650898, abs=1e-12)
    sigma = math.sqrt(p * (1 - p) / report.n_trials)
    assert abs(report.empirical_success - p) < 5 * sigma


def test_bb84_eve_never_perfect_for_positive_angle():
    for theta in (0.3, math.pi / 4, math.pi / 2):
        report = bb84_eve(2_000, SeededStream(23), theta=theta)
        assert report.guess_success_prob_after_announcement < 1.0
        assert report.empirical_success < 1.0


def test_bb84_eve_degenerate_single_basis():
    report = bb84_eve(1_000, SeededStream(24), theta=0.0)
    assert report.guess_success_prob_after_announcement == 1.0
    assert report.empirical_success == 1.0


def test_bb84_eve_reproducible():
    a = bb84_eve(5_000, SeededStream(25))
    b = bb84_eve(5_000, SeededStream(25))
    assert a.empirical_success == b.empirical_success


@pytest.mark.parametrize("theta", [0.0, math.pi / 4, math.pi / 2])
@pytest.mark.parametrize("n", [1, 7, 1000])
def test_bb84_eve_matches_per_draw_recount(theta, n):
    # draws [0, 4n) pick the basis, [4n, 8n) the bit, [8n, 12n) the outcome;
    # n = 1 leaves some basis/bit cells empty
    stream = SeededStream(26)
    report = bb84_eve(n, stream, theta=theta)
    trials = 4 * n
    spec = JointSpec.from_angle(theta, *(max_symmetric_alpha(theta),) * 2)
    povm = optimal_joint_povm(spec)
    basis = stream.uniforms(0, trials) < 0.5
    bits = stream.uniforms(trials, trials) < 0.5
    outcome_u = stream.uniforms(2 * trials, trials)
    probs = {}
    successes = 0
    for use_prime, minus, u in zip(basis, bits, outcome_u):
        cell = (bool(use_prime), bool(minus))
        if cell not in probs:
            direction = spec.a_prime if use_prime else spec.a
            state = state_from_bloch(-direction if minus else direction)
            probs[cell] = [p for _, p in outcome_probabilities(povm, state)]
        label = povm.labels[int(sample_indices(probs[cell], [u])[0])]
        successes += label[int(use_prime)] == ("-" if minus else "+")
    assert report.empirical_success == successes / trials
    assert report.n_trials == trials
    if n == 1:
        assert len(probs) < 4
