"""Joint unsharp measurement of spin along two directions.

A joint measurement returns one +-1 value for each of the unit directions
a and a_prime per shot.  Requiring the constructed averages to track the
ideal expectations with fixed proportionality factors alpha, alpha_prime
for every state confines the sharpness to the region

    |alpha a + alpha' a'| + |alpha a - alpha' a'| <= 2,

equivalently  alpha^2 + alpha'^2 - alpha^2 alpha'^2 (a.a')^2 <= 1.
Geometrically: the diagonals of the parallelogram with sides alpha a and
alpha' a' must not sum to more than 2.

This module builds the four-outcome measurement family realizing such
joint measurements, and the realization of a saturating one that
measures sharply along one of two directions c, c' chosen by a classical
coin of bias p.  A spec is classified on the family's effect eigenvalues
(w+- - |v+-|)/4, which share the sign of 1 - product_form: refused below
-TOL, saturating when both lie within TOL of 0, interior otherwise.
The uncertainty relations that restate the bound are ``uncertainty.py``'s.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import BoundViolated, DegenerateDirection, NotSaturating
from .povm import Povm
from .qubit import ATOL, REFERENCE_AXIS_COS, TOL, _freeze, _length, normalize, unit3

# Outcome alphabet, first slot tracks a, second slot tracks a_prime.
OUTCOME_LABELS = ("++", "--", "+-", "-+")


def outcome_values(label: str) -> tuple[int, ...]:
    """Decode an outcome label into one +-1 per character: "+-" -> (1, -1).

    The package's only reading of "+" and "-" labels."""
    if not label or set(label) - {"+", "-"}:
        raise ValueError(f"not an outcome label: {label!r}")
    return tuple(1 if ch == "+" else -1 for ch in label)


def _check_sharpness(name: str, value: float) -> None:
    if not math.isfinite(value) or abs(value) > 1.0 + ATOL:
        raise ValueError(f"|{name}| must be <= 1, got {value}")


@dataclass(frozen=True, eq=False)
class JointSpec:
    """Parameters of a joint measurement: directions a, a_prime and
    sharpness factors alpha, alpha_prime.

    ``theta`` is derived from a.a_prime and cannot be passed.
    Negative sharpness factors are permitted (the admissibility region
    only sees their moduli); they describe outcomes tracking the
    observables anti-proportionally.
    """

    a: np.ndarray
    a_prime: np.ndarray
    alpha: float
    alpha_prime: float
    theta: float = field(init=False)

    def __post_init__(self):
        a = unit3(self.a)
        ap = unit3(self.a_prime)
        alpha = float(self.alpha)
        alpha_p = float(self.alpha_prime)
        for name, val in (("alpha", alpha), ("alpha_prime", alpha_p)):
            _check_sharpness(name, val)
        _freeze(self, a=a, a_prime=ap)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "alpha_prime", alpha_p)
        object.__setattr__(self, "theta", math.acos(float(np.clip(a @ ap, -1.0, 1.0))))

    @functools.cached_property
    def _parallelogram(self) -> _Diagonals:
        """The admissibility kernel on this spec, run on first use and
        kept: the spec is frozen."""
        return _diagonals(self.a, self.a_prime, self.alpha, self.alpha_prime)

    @functools.cached_property
    def _general_povm(self) -> Povm:
        """``general_joint_povm``'s result, built on first use and kept:
        the spec is frozen, so every caller shares one validated POVM."""
        d = self._parallelogram
        _decide(d)
        rows = np.column_stack([(d.w_plus, d.w_plus, d.w_minus, d.w_minus),
                                (d.v_plus, -d.v_plus, d.v_minus, -d.v_minus)])
        return Povm._from_coordinates(OUTCOME_LABELS, 0.5 * rows)  # (w +- v.sigma)/4

    @classmethod
    def from_angle(cls, theta: float, alpha: float, alpha_prime: float, a=(0, 0, 1)):
        """Place a_prime at angle theta from a.

        With the default a along z the second direction lands in the
        xz-plane, at (sin theta, 0, cos theta).
        """
        a = unit3(a)
        ref = np.array([1.0, 0.0, 0.0])
        if abs(a @ ref) > REFERENCE_AXIS_COS:
            ref = np.array([0.0, 0.0, 1.0])
        perp = normalize(ref - (ref @ a) * a)
        ap = math.cos(theta) * a + math.sin(theta) * perp
        return cls(a, ap, alpha, alpha_prime)

    @classmethod
    def optimal_symmetric(cls, a, a_prime):
        """Equal sharpness factors at their largest admissible value."""
        spec = cls(a, a_prime, 0.0, 0.0)
        alpha = max_symmetric_alpha(spec.theta)
        return cls(spec.a, spec.a_prime, alpha, alpha)


@dataclass(frozen=True, eq=False)
class SwitchRealization:
    """Coin-and-projector realization: measure sharply along c with
    probability p, along c_prime with probability 1 - p."""

    p: float
    c: np.ndarray
    c_prime: np.ndarray

    def __post_init__(self):
        p = float(self.p)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p = {p} is not a probability")
        object.__setattr__(self, "p", p)
        _freeze(self, c=unit3(self.c), c_prime=unit3(self.c_prime))


class _Diagonals(NamedTuple):
    """Parallelogram quantities of one spec, or of a batch of specs."""

    v_plus: np.ndarray  # alpha a + alpha' a'
    v_minus: np.ndarray  # alpha a - alpha' a'
    n_plus: np.ndarray  # |v_plus|
    n_minus: np.ndarray  # |v_minus|
    w_plus: np.ndarray  # 1 + alpha alpha' a.a'
    w_minus: np.ndarray  # 1 - alpha alpha' a.a'
    diagonal_sum: np.ndarray  # reported: <= 2 on the admissible side
    product_form: np.ndarray  # reported: <= 1 on the admissible side
    eig_plus: np.ndarray  # (w_plus - |v_plus|)/4, effects ++ and --
    eig_minus: np.ndarray  # (w_minus - |v_minus|)/4, effects +- and -+


def _diagonals(a, a_prime, alpha, alpha_prime) -> _Diagonals:
    """The one kernel for every admissibility quantity, over ``(..., 3)``
    directions and ``(...)`` sharpness factors."""
    alpha = np.asarray(alpha, dtype=float)
    alpha_prime = np.asarray(alpha_prime, dtype=float)
    v_plus = alpha[..., None] * a + alpha_prime[..., None] * a_prime
    v_minus = alpha[..., None] * a - alpha_prime[..., None] * a_prime
    # vecdot rounds as the 1-D ``u @ v`` does, so a batch of one matches it
    n_plus, n_minus = _length(v_plus), _length(v_minus)
    c = np.vecdot(a, a_prime)
    x, y, k = alpha**2, alpha_prime**2, alpha * alpha_prime * c
    w_plus, w_minus = 1.0 + k, 1.0 - k
    return _Diagonals(
        v_plus, v_minus, n_plus, n_minus, w_plus, w_minus, n_plus + n_minus,
        x + y - x * y * c * c, 0.25 * (w_plus - n_plus), 0.25 * (w_minus - n_minus),
    )


def _decide(d: _Diagonals) -> None:
    """The package's only admissibility decision: raise BoundViolated unless
    the general family's smallest effect eigenvalue is >= -TOL.  The
    diagonal sum and the product form are reported, never compared."""
    min_eig = float(min(d.eig_plus, d.eig_minus))
    if not min_eig >= -TOL:
        raise BoundViolated(
            f"effect eigenvalue {min_eig} < 0: sharpness bound exceeded "
            f"(diagonal sum {float(d.diagonal_sum)} > 2)",
            min_eigenvalue=min_eig,
        )


def _require_saturating(d: _Diagonals, construction: str) -> None:
    """The only saturation decision: both effect eigenvalues within TOL of 0."""
    eig = max(abs(float(d.eig_plus)), abs(float(d.eig_minus)))
    if not eig <= TOL:
        raise NotSaturating(
            f"effect eigenvalue {eig} in modulus > {TOL}: the {construction} "
            "is defined only on the sharpness boundary"
        )


def _unit_diagonals(d: _Diagonals, message: str) -> tuple[np.ndarray, np.ndarray]:
    """Directions of the two diagonals; DegenerateDirection when one is
    shorter than ATOL."""
    if d.n_plus < ATOL or d.n_minus < ATOL:
        raise DegenerateDirection(message)
    return d.v_plus / d.n_plus, d.v_minus / d.n_minus


def bound_lhs(spec: JointSpec) -> float:
    """|alpha a + alpha' a'| + |alpha a - alpha' a'|.

    The spec is admissible iff this is <= 2 (the parallelogram-diagonal
    criterion); equality marks the sharpest possible joint measurement.
    """
    return float(spec._parallelogram.diagonal_sum)


def product_form_check(spec: JointSpec) -> float:
    """alpha^2 + alpha'^2 - alpha^2 alpha'^2 cos^2(theta).

    Admissible iff <= 1; algebraically equivalent to ``bound_lhs <= 2``
    (square the diagonal sum twice and cancel).
    """
    return float(spec._parallelogram.product_form)


def is_admissible(spec: JointSpec) -> bool:
    try:
        require_admissible(spec)
    except BoundViolated:
        return False
    return True


def max_symmetric_alpha(theta):
    """Largest alpha = alpha_prime admissible at each angle theta of an
    array; a float for a scalar angle, a batch of one.

    Closed form 1/sqrt(1 + |sin theta|), the positive boundary root of
    2 alpha^2 - alpha^4 cos^2(theta) = 1.
    """
    theta = np.asarray(theta, dtype=float)
    if not ((0.0 <= theta) & (theta <= math.pi + ATOL)).all():  # also rejects nan
        raise ValueError(f"theta = {theta} outside [0, pi]")
    alpha = 1.0 / np.sqrt(1.0 + np.abs(np.sin(theta)))
    return float(alpha) if alpha.ndim == 0 else alpha


def _theta_grid(points: int, half_turn: float = math.pi, start: int = 0,
                stop: int | None = None) -> np.ndarray:
    """i * half_turn / (points - 1) for start <= i < stop (default points), as
    Python would round it: each element alone, so any block of the grid
    holds the same bits as the whole."""
    return np.arange(start, points if stop is None else stop) * half_turn / (points - 1)


def optimal_joint_povm(spec: JointSpec) -> Povm:
    """Four-outcome measurement saturating the sharpness bound: the
    spec's general family, the very POVM ``general_joint_povm`` returns.

    On the boundary its weights 1 +- alpha alpha' a.a' equal |v+-|, so the
    effects are (|v+-| 1 +- v+- . sigma)/4 with v+- = alpha a +- alpha' a'.
    A spec whose effect eigenvalues are not both within TOL of 0 raises
    NotSaturating.
    """
    _require_saturating(spec._parallelogram, "saturating four-outcome family")
    return spec._general_povm


def general_joint_povm(spec: JointSpec) -> Povm:
    """Four-outcome measurement for any admissible spec.

    Effects ((1 +- alpha alpha' a.a') 1 +- v+- . sigma)/4.  Completeness
    holds identically; positivity of the constructed operators is exactly
    the admissibility bound, and an inadmissible spec raises
    BoundViolated carrying the offending eigenvalue.  At saturation
    ``optimal_joint_povm`` returns this same POVM.

    Built once per spec and kept on it; later calls return the same POVM.
    """
    return spec._general_povm


def admissibility_scan(a, a_prime, alpha, alpha_prime):
    """Vectorized evaluation of the three admissibility quantities.

    For N candidate parameter sets (rows of unit vectors ``a`` and
    ``a_prime``, arrays ``alpha``, ``alpha_prime``) returns three aligned
    arrays: the diagonal sum |alpha a + alpha' a'| + |alpha a - alpha' a'|
    (admissible iff <= 2), the product form (<= 1), and the smallest
    effect eigenvalue of the general four-outcome family (>= 0).  The
    scalar functions evaluate the same kernel on a batch of one.
    """
    d = _diagonals(
        np.atleast_2d(np.asarray(a, dtype=float)),
        np.atleast_2d(np.asarray(a_prime, dtype=float)),
        np.atleast_1d(alpha),
        np.atleast_1d(alpha_prime),
    )
    return d.diagonal_sum, d.product_form, np.minimum(d.eig_plus, d.eig_minus)


def general_effect_min_eigenvalues(spec: JointSpec) -> tuple[float, float, float, float]:
    """Smallest eigenvalue of each effect of the general family, in
    OUTCOME_LABELS order, from the closed form (w -+ |v|)/4."""
    d = spec._parallelogram
    eig_plus, eig_minus = float(d.eig_plus), float(d.eig_minus)
    return (eig_plus, eig_plus, eig_minus, eig_minus)


def require_admissible(spec: JointSpec) -> None:
    """Raise BoundViolated (with the offending eigenvalue) for an
    inadmissible spec; cheap closed-form check."""
    _decide(spec._parallelogram)


def switch_realization(spec: JointSpec) -> SwitchRealization:
    """Coin bias and sharp directions reproducing the saturating family.

    p = |alpha a + alpha' a'| / 2, c and c_prime the normalized diagonal
    directions.  Defined only at saturation (else NotSaturating);
    vanishing diagonals (e.g. alpha = alpha' with a = a') raise
    DegenerateDirection.
    """
    d = spec._parallelogram
    _require_saturating(d, "switch realization")
    c, c_prime = _unit_diagonals(d, "a diagonal of the parallelogram vanishes")
    # |alpha|, |alpha'| <= 1 + ATOL lets |v_plus|/2 pass 1 by rounding
    return SwitchRealization(p=min(1.0, 0.5 * d.n_plus), c=c, c_prime=c_prime)


def switch_povm(realization: SwitchRealization) -> Povm:
    """Assemble the four-outcome measurement that the switch performs.

    The sharp measurement along c is relabelled + -> ++, - -> -- and
    mixed with weight p; the one along c_prime is relabelled + -> +-,
    - -> -+ with weight 1 - p.
    """
    p, c, c_prime = realization.p, realization.c, realization.c_prime
    w = np.array([p, p, 1.0 - p, 1.0 - p])
    rows = np.column_stack([w, w[:, None] * np.stack([c, -c, c_prime, -c_prime])])
    return Povm._from_coordinates(OUTCOME_LABELS, rows)
