"""Two-observer singlet experiment.

Observer 1 measures jointly along a and a_prime, observer 2 sharply along
b or b_prime.  On the singlet the sharp correlation is E(A, B) = -a.b and
every joint-measurement correlation is damped by its sharpness factor,
E(A_J, B) = -alpha a.b.  The CHSH-type combination

    |E(A_J, B) + E(A'_J, B)| + |E(A_J, B') - E(A'_J, B')|

can never exceed 2 for a joint measurement (a joint probability table for
the outcome triples exists, and marginals cannot signal), while sharp
measurements on separate systems reach 2 sqrt(2).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .joint import (
    JointSpec,
    _diagonals,
    _spec_diagonals,
    _unit_diagonals,
    general_joint_povm,
    outcome_values,
    require_admissible,
)
from .povm import projective_povm, two_party_probabilities
from .qubit import ATOL, TOL, TwoQubitState, _freeze, unit3

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)

_SINGLET_VEC = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)


@dataclass(frozen=True)
class Settings:
    """Observer 2's two analyzer directions."""

    b: np.ndarray
    b_prime: np.ndarray

    def __post_init__(self):
        _freeze(self, b=unit3(self.b), b_prime=unit3(self.b_prime))


@dataclass(frozen=True)
class CorrelationSet:
    """The four correlation functions E(A_J, B), E(A'_J, B), E(A_J, B'),
    E(A'_J, B')."""

    e_ab: float
    e_apb: float
    e_abp: float
    e_apbp: float

    def __post_init__(self):
        for name in ("e_ab", "e_apb", "e_abp", "e_apbp"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or abs(v) > 1.0 + ATOL:
                raise ValueError(f"{name} = {v} outside [-1, 1]")
            object.__setattr__(self, name, v)


@functools.cache
def singlet() -> TwoQubitState:
    """The maximally entangled two-qubit state with E(a, b) = -a.b."""
    return TwoQubitState(np.outer(_SINGLET_VEC, _SINGLET_VEC.conj()))


def sharp_correlation(a, b) -> float:
    """Singlet correlation of sharp measurements along a and b: -a.b."""
    return -float(unit3(a) @ unit3(b))


def sharp_correlations(a, a_prime, settings: Settings) -> CorrelationSet:
    """Correlation set for sharp (unit-sharpness) measurements of both
    observables on separate singlet halves; this is the configuration the
    joint-measurement bound does NOT constrain."""
    return CorrelationSet(
        e_ab=sharp_correlation(a, settings.b),
        e_apb=sharp_correlation(a_prime, settings.b),
        e_abp=sharp_correlation(a, settings.b_prime),
        e_apbp=sharp_correlation(a_prime, settings.b_prime),
    )


def joint_correlations(spec: JointSpec, settings: Settings) -> CorrelationSet:
    """Closed-form correlation set for a joint measurement against sharp
    analyzers: each entry is -alpha(.) times a dot product."""
    require_admissible(spec)
    a, ap = spec.a, spec.a_prime
    al, alp = spec.alpha, spec.alpha_prime
    return CorrelationSet(
        e_ab=-al * float(a @ settings.b),
        e_apb=-alp * float(ap @ settings.b),
        e_abp=-al * float(a @ settings.b_prime),
        e_apbp=-alp * float(ap @ settings.b_prime),
    )


def _analyzer_tables(spec: JointSpec, settings: Settings):
    """Outcome values (+-1, +-1) of the joint measurement's effects and its
    two-party tables on the singlet against analyzers b and b_prime."""
    povm1 = general_joint_povm(spec)
    state = singlet()
    values = np.array([outcome_values(label) for label in povm1.labels])
    tables = [
        two_party_probabilities(povm1, projective_povm(direction), state)
        for direction in (settings.b, settings.b_prime)
    ]
    return values, tables


def _read_correlations(values, tables) -> np.ndarray:
    """(E(A_J,B), E(A'_J,B), E(A_J,B'), E(A'_J,B')) from the two analyzer
    tables, whose columns are the analyzer outcomes +1, -1: probabilities
    give the correlations, counts of n trials give n times them."""
    return np.concatenate([values.T @ (t[:, 0] - t[:, 1]) for t in tables])


def born_correlations(spec: JointSpec, settings: Settings) -> CorrelationSet:
    """Same correlation set computed the long way: four-outcome joint
    measurement paired with each analyzer in the Born rule on the singlet.

    Independent cross-check of ``joint_correlations``.
    """
    return CorrelationSet(*_read_correlations(*_analyzer_tables(spec, settings)))


def chsh_value(corr: CorrelationSet) -> float:
    """|E(A_J,B) + E(A'_J,B)| + |E(A_J,B') - E(A'_J,B')|."""
    return abs(corr.e_ab + corr.e_apb) + abs(corr.e_abp - corr.e_apbp)


def cirelson_check(corr: CorrelationSet) -> float:
    """CHSH combination with the quantum ceiling 2 sqrt(2) in mind.

    Any correlation set produced by the strategies in this library stays
    at or below 2 sqrt(2); a larger value means the input was not
    generated by a quantum strategy, and is flagged with a warning.
    """
    v = chsh_value(corr)
    if v > TSIRELSON_BOUND + TOL:
        warnings.warn(
            f"CHSH value {v} exceeds 2*sqrt(2); correlations are not "
            "quantum-realizable",
            RuntimeWarning,
            stacklevel=2,
        )
    return v


def optimal_settings(spec: JointSpec) -> Settings:
    """Analyzers maximizing the CHSH combination: b along
    alpha a + alpha' a', b_prime along alpha a - alpha' a'.

    The antiparallel choices are equally optimal (only absolute values
    enter); this function deterministically returns the +-parallel pair.
    """
    b, b_prime = _unit_diagonals(
        _spec_diagonals(spec),
        "optimal analyzer direction undefined: a diagonal vanishes",
    )
    return Settings(b=b, b_prime=b_prime)


def tsirelson_settings(a, a_prime) -> Settings:
    """Analyzers b along a + a', b_prime along a - a'; with sharp
    measurements of orthogonal a, a' these reach 2 sqrt(2)."""
    d = _diagonals(unit3(a), unit3(a_prime), 1.0, 1.0)
    b, b_prime = _unit_diagonals(d, "directions are (anti)parallel")
    return Settings(b=b, b_prime=b_prime)


def sharp_chsh_reference() -> tuple[CorrelationSet, float]:
    """The classic maximal-violation configuration: sharp measurements
    along z and x against analyzers on the bisectors; CHSH = 2 sqrt(2)."""
    a = np.array([0.0, 0.0, 1.0])
    ap = np.array([1.0, 0.0, 0.0])
    corr = sharp_correlations(a, ap, tsirelson_settings(a, ap))
    return corr, chsh_value(corr)


def no_signalling_probe(spec: JointSpec, settings: Settings) -> tuple[float, float]:
    """p(A_J = A'_J) computed from the full two-party distribution under
    analyzer b and under analyzer b_prime.

    The two numbers agree identically because observer 2's effects sum to
    the identity; any difference would be a usable signal.
    """
    values, tables = _analyzer_tables(spec, settings)
    same = values[:, 0] == values[:, 1]
    return tuple(float(probs[same].sum()) for probs in tables)
