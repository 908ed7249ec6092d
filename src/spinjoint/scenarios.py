"""Applied studies: cloning-based joint measurement and a BB84 eavesdropper.

A universal cloner shrinks every Bloch vector by eta <= 2/3, so measuring
one observable on each clone yields a joint measurement with
alpha = alpha' = eta.  That never reaches the admissible optimum
1/sqrt(1 + |sin theta|) >= 1/sqrt(2) > 2/3, for any angle.

The eavesdropper study measures both candidate polarization bases of a
BB84-style link with one optimal symmetric joint measurement and keeps
the outcome slot for whichever basis is announced.  Physical polarization
bases at 45 degrees are orthogonal on the Bloch sphere, so the faithful
angle is theta = pi/2; theta is exposed as a parameter (pi/4 makes a
useful sensitivity study).  Success probability on an eigenstate is
(1 + alpha)/2 per trial, strictly below 1 for theta > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EtaOutOfRange
from .joint import JointSpec, max_symmetric_alpha, optimal_joint_povm, outcome_values
from .povm import _probabilities
from .qubit import _bloch_rows
from .sampling import SeededStream, _block_sum, _tally, _word_bounds

CLONER_ETA_MAX = 2.0 / 3.0
_GAP_SCAN_POINTS = 181  # theta grid of min_cloning_gap, 1 degree apart


@dataclass(frozen=True)
class CloningScenario:
    """Sharpness achieved through cloning versus the admissible optimum."""

    eta: float
    theta: float
    alpha_clone: float
    alpha_optimal: float
    gap: float


def cloning_joint(theta: float, eta: float = CLONER_ETA_MAX) -> CloningScenario:
    """Compare the cloning route (alpha = eta) with the optimal symmetric
    joint measurement at angle theta.  gap > 0 always: cloning is never
    optimal."""
    if not 0.0 < eta <= CLONER_ETA_MAX:
        raise EtaOutOfRange(f"eta = {eta} outside (0, {CLONER_ETA_MAX}]")
    alpha_opt = max_symmetric_alpha(theta)
    return CloningScenario(
        eta=eta,
        theta=float(theta),
        alpha_clone=eta,
        alpha_optimal=alpha_opt,
        gap=alpha_opt - eta,
    )


def min_cloning_gap(eta: float = CLONER_ETA_MAX) -> CloningScenario:
    """Scan of the gap over _GAP_SCAN_POINTS angles in [0, pi]; returns the
    worst case (attained at theta = pi/2, where the bound is strictest)."""
    scenarios = [
        cloning_joint(i * math.pi / (_GAP_SCAN_POINTS - 1), eta)
        for i in range(_GAP_SCAN_POINTS)
    ]
    return min(scenarios, key=lambda s: s.gap)


@dataclass(frozen=True)
class Bb84EveReport:
    theta: float
    alpha: float
    guess_success_prob_after_announcement: float
    empirical_success: float
    n_trials: int


def bb84_eve(
    n: int, stream: SeededStream, theta: float = math.pi / 2
) -> Bb84EveReport:
    """Joint-measurement eavesdropper over 4n trials.

    Each trial prepares a uniformly random basis/bit eigenstate, samples
    the optimal symmetric four-outcome measurement, and reads off the
    outcome slot of the (later announced) basis.
    """
    spec = JointSpec.from_angle(theta, *(max_symmetric_alpha(theta),) * 2)
    povm = optimal_joint_povm(spec)
    trials = 4 * n

    # cells (use_prime, minus): prepared eigenstates a+, a-, a'+, a'-
    cells = ((False, False), (False, True), (True, False), (True, True))
    a, ap = spec.a, spec.a_prime
    probs = _probabilities(povm, _bloch_rows(np.stack([a, -a, ap, -ap])))
    values = np.array([outcome_values(label) for label in povm.labels])
    # success: the announced basis's slot equals the prepared bit
    wanted = values.T[[0, 0, 1, 1]] == np.array([[1], [-1], [1], [-1]])
    tables = [_word_bounds(p) for p in probs]
    (coin,) = _word_bounds([0.5, 0.5])  # w < coin exactly when u < 0.5

    def successes(basis_w, bits_w, outcome_w):
        basis = basis_w < coin  # False: a-basis, True: a'-basis
        bits = bits_w < coin  # False: +, True: -
        return sum(
            int(_tally(bounds, outcome_w, (basis == use_prime) & (bits == minus))[w].sum())
            for (use_prime, minus), bounds, w in zip(cells, tables, wanted)
        )

    hits = _block_sum(successes, stream, (0, trials, 2 * trials), trials)

    alpha = spec.alpha
    return Bb84EveReport(
        theta=float(theta),
        alpha=alpha,
        guess_success_prob_after_announcement=(1.0 + alpha) / 2.0,
        empirical_success=hits / trials,
        n_trials=trials,
    )
