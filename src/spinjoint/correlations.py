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
from dataclasses import dataclass

import numpy as np

from .joint import (
    JointSpec,
    _diagonals,
    _unit_diagonals,
    general_joint_povm,
    outcome_values,
    require_admissible,
)
from .povm import Povm, projective_povm, two_party_probabilities
from .qubit import ATOL, TwoQubitState, _freeze, unit3


@dataclass(frozen=True, eq=False)
class Settings:
    """Observer 2's two analyzer directions."""

    b: np.ndarray
    b_prime: np.ndarray

    def __post_init__(self):
        _freeze(self, b=unit3(self.b), b_prime=unit3(self.b_prime))

    @functools.cached_property
    def _analyzers(self) -> tuple[Povm, Povm]:
        """Sharp analyzer POVMs along b and b_prime, built on first use and
        kept: the settings are frozen."""
        return projective_povm(self.b), projective_povm(self.b_prime)


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
    """The maximally entangled two-qubit state with E(a, b) = -a.b, from
    its exact entries: T = diag(1, -1, -1, -1) holds bit for bit."""
    return TwoQubitState(0.5 * np.outer([0, 1, -1, 0], [0, 1, -1, 0]))


def sharp_correlation(a, b) -> float:
    """Singlet correlation of sharp measurements along a and b: -a.b."""
    return -float(unit3(a) @ unit3(b))


def _correlations(a, a_prime, alpha, alpha_prime, settings: Settings) -> CorrelationSet:
    """The one closed form E = -alpha(.) a(.).b(.) of a singlet correlation set, in
    field order (a, b), (a', b), (a, b'), (a', b'), for checked unit directions."""
    return CorrelationSet(*(-al * float(u @ b) for b in (settings.b, settings.b_prime)
                            for al, u in ((alpha, a), (alpha_prime, a_prime))))


def sharp_correlations(a, a_prime, settings: Settings) -> CorrelationSet:
    """Correlation set for sharp (unit-sharpness) measurements of both
    observables on separate singlet halves; this is the configuration the
    joint-measurement bound does NOT constrain."""
    return _correlations(unit3(a), unit3(a_prime), 1.0, 1.0, settings)


def joint_correlations(spec: JointSpec, settings: Settings) -> CorrelationSet:
    """Closed-form correlation set for a joint measurement against sharp
    analyzers: each entry is -alpha(.) times a dot product."""
    require_admissible(spec)
    return _correlations(spec.a, spec.a_prime, spec.alpha, spec.alpha_prime, settings)


def _analyzer_tables(spec: JointSpec, settings: Settings):
    """Outcome values (+-1, +-1) of the joint measurement's effects and its
    two-party tables on the singlet against analyzers b and b_prime."""
    povm1 = general_joint_povm(spec)
    state = singlet()
    values = np.array([outcome_values(label) for label in povm1.labels])
    tables = [two_party_probabilities(povm1, povm2, state) for povm2 in settings._analyzers]
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


def optimal_settings(spec: JointSpec) -> Settings:
    """Analyzers maximizing the CHSH combination: b along
    alpha a + alpha' a', b_prime along alpha a - alpha' a'.

    The antiparallel choices are equally optimal (only absolute values
    enter); this function deterministically returns the +-parallel pair.
    """
    b, b_prime = _unit_diagonals(
        spec._parallelogram,
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
