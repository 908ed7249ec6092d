"""Variance bounds for a pair of spin directions, in closed form.

All six relations are evaluated exactly from Bloch data (no sampling).
With A = a.sigma, A' = a'.sigma, cos(theta) = a.a' and a_perp the unit
normal to the measurement plane:

  product_form      (1-al^2)(1-al'^2)/(al^2 al'^2)    >= sin^2(theta)
  robertson         (1-<A>^2)(1-<A'>^2)               >= sin^2(theta) <a_perp.sigma>^2
  total_joint       Var(A_J) Var(A'_J)/(al^2 al'^2)   >= sin^2(theta) (1+|<a_perp.sigma>|)^2
  arthurs_goodman   Var(A_J) Var(A'_J)/(al^2 al'^2)   >= 4 sin^2(theta) <a_perp.sigma>^2
  schroedinger      (1-<A>^2)(1-<A'>^2)               >= sin^2(theta) <a_perp.sigma>^2
                                                         + (cos(theta) - <A><A'>)^2
  cirelson_product  (2-al^2)(2-al'^2)/(al^2 al'^2)    >= sin^2(theta)

product_form is state independent and saturates exactly when the
sharpness bound is saturated; cirelson_product is the analogous
translation of the 2 sqrt(2) correlation ceiling and admits al = al' = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CollinearDirections, ZeroAlpha
from .joint import JointSpec, joint_variances, require_admissible
from .qubit import ATOL, QubitState, norm3, unit3

RELATION_IDS = (
    "product_form",
    "robertson",
    "total_joint",
    "arthurs_goodman",
    "schroedinger",
    "cirelson_product",
)


@dataclass(frozen=True, eq=False)
class UncertaintyReport:
    relation_id: str
    lhs: float
    rhs: float
    slack: float
    a_perp: np.ndarray | None = None


def _report(relation_id, lhs, rhs, a_perp=None) -> UncertaintyReport:
    return UncertaintyReport(
        relation_id=relation_id, lhs=lhs, rhs=rhs, slack=lhs - rhs, a_perp=a_perp
    )


def _perp_axis(a, a_prime) -> tuple[np.ndarray, float]:
    """Right-handed unit normal to span{a, a'} and sin(theta) = |a x a'|."""
    cross = np.cross(unit3(a), unit3(a_prime))
    sin_t = norm3(cross)
    if sin_t < ATOL:
        raise CollinearDirections("a and a_prime are (anti)parallel")
    return cross / sin_t, sin_t


def _sin_sq(spec: JointSpec) -> float:
    c = spec.cos_theta
    return max(0.0, 1.0 - c * c)


def _sharpness_squares(spec: JointSpec) -> tuple[float, float]:
    """(alpha^2, alpha'^2); the product-form relations divide by both."""
    if spec.alpha == 0.0 or spec.alpha_prime == 0.0:
        raise ZeroAlpha("product-form relations require nonzero sharpness")
    return spec.alpha**2, spec.alpha_prime**2


def product_form(spec: JointSpec) -> UncertaintyReport:
    """State-independent cost of jointness; slack 0 exactly at saturation
    of the sharpness bound."""
    x, y = _sharpness_squares(spec)
    lhs = (1.0 - x) * (1.0 - y) / (x * y)
    return _report("product_form", lhs, _sin_sq(spec))


def robertson(state: QubitState, a, a_prime) -> UncertaintyReport:
    """Commutator bound on the bare variance product; state dependent and
    not always tight."""
    a_perp, sin_t = _perp_axis(a, a_prime)
    m = state.bloch_vector
    ea = float(unit3(a) @ m)
    eap = float(unit3(a_prime) @ m)
    lhs = (1.0 - ea * ea) * (1.0 - eap * eap)
    rhs = (sin_t * float(a_perp @ m)) ** 2
    return _report("robertson", lhs, rhs, a_perp)


def _joint_variance_product(spec: JointSpec, state: QubitState):
    """Var(A_J) Var(A'_J)/(al^2 al'^2) for an admissible spec, with the
    plane normal a_perp, sin(theta) and <a_perp.sigma>."""
    x, y = _sharpness_squares(spec)
    require_admissible(spec)
    a_perp, sin_t = _perp_axis(spec.a, spec.a_prime)
    v = joint_variances(spec, state)
    lhs = v.var_joint * v.var_joint_prime / (x * y)
    return lhs, a_perp, sin_t, float(a_perp @ state.bloch_vector)


def total_joint(spec: JointSpec, state: QubitState) -> UncertaintyReport:
    """Bound on the total joint-variance product, combining the jointness
    cost with the commutator bound; specific to spin directions."""
    lhs, a_perp, sin_t, x = _joint_variance_product(spec, state)
    return _report("total_joint", lhs, (sin_t * (1.0 + abs(x))) ** 2, a_perp)


def arthurs_goodman(spec: JointSpec, state: QubitState) -> UncertaintyReport:
    """General-observable joint-variance bound, rhs = |<[A, A']>|^2.

    For qubits |<a_perp.sigma>| <= 1, so (1 + |x|)^2 >= 4x^2 pointwise
    and the ``total_joint`` rhs is never smaller for the same state, with
    equality at |x| = 1.
    """
    lhs, a_perp, sin_t, x = _joint_variance_product(spec, state)
    return _report("arthurs_goodman", lhs, 4.0 * (sin_t * x) ** 2, a_perp)


def schroedinger(state: QubitState, a, a_prime) -> UncertaintyReport:
    """Commutator-plus-covariance bound on the bare variance product.

    rhs exceeds the robertson rhs by the squared covariance
    (cos(theta) - <A><A'>)^2; for every pure qubit state the relation is
    an identity (slack 0).
    """
    a_perp, sin_t = _perp_axis(a, a_prime)
    m = state.bloch_vector
    ea = float(unit3(a) @ m)
    eap = float(unit3(a_prime) @ m)
    cos_t = float(unit3(a) @ unit3(a_prime))
    lhs = (1.0 - ea * ea) * (1.0 - eap * eap)
    rhs = (sin_t * float(a_perp @ m)) ** 2 + (cos_t - ea * eap) ** 2
    return _report("schroedinger", lhs, rhs, a_perp)


def cirelson_product(spec: JointSpec) -> UncertaintyReport:
    """Product translation of the 2 sqrt(2) correlation ceiling; places
    no restriction below full sharpness."""
    x, y = _sharpness_squares(spec)
    lhs = (2.0 - x) * (2.0 - y) / (x * y)
    return _report("cirelson_product", lhs, _sin_sq(spec))


def evaluate_all(spec: JointSpec, state: QubitState) -> list[UncertaintyReport]:
    """All six relations for one (spec, state) pair, in RELATION_IDS order."""
    return [
        product_form(spec),
        robertson(state, spec.a, spec.a_prime),
        total_joint(spec, state),
        arthurs_goodman(spec, state),
        schroedinger(state, spec.a, spec.a_prime),
        cirelson_product(spec),
    ]

