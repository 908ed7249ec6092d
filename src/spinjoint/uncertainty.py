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

One kernel, ``_relations``, writes each formula once over the (N, 4) Pauli
rows (t, m) of a batch of states, for unit directions a and a' that the
caller checked (only ``robertson`` and ``schroedinger`` take theirs
unchecked).  Its spec half makes every refusal before it reads a row, in
this order: the product forms (ZeroAlpha), a_perp (CollinearDirections),
then the admissibility decision (BoundViolated).  The public functions and
``evaluate_all`` are batches of one; ``_product_forms`` also runs per spec
(``_spec_product_forms``) and on a whole grid of angles (``scan-theta``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CollinearDirections, ZeroAlpha
from .joint import JointSpec, _joint_variance, _squares, require_admissible
from .qubit import ATOL, QubitState, _length, unit3

RELATION_IDS = ("product_form", "robertson", "total_joint", "arthurs_goodman",
                "schroedinger", "cirelson_product")


@dataclass(frozen=True)
class UncertaintyReport:
    relation_id: str
    lhs: float
    rhs: float
    slack: float


def _plane_normal(a, a_prime) -> np.ndarray:
    """a x a' of two 3-vectors, written out: the same products and differences
    as np.cross, in the same order, so the same bits, without its axis handling."""
    (a1, a2, a3), (b1, b2, b3) = a.tolist(), a_prime.tolist()
    return np.array([a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1])


def _product_forms(x, y, cos_t) -> dict:
    """{relation_id: (lhs, rhs)} of the state-independent relations, over
    arrays of alpha^2, alpha'^2 and cos(theta): (k - x)(k - y)/(x y) >=
    sin^2(theta) with k = 1 (product_form) and k = 2 (cirelson_product)."""
    xy = x * y
    if not xy.all():  # alpha = 0, or alpha^2 alpha'^2 underflows
        raise ZeroAlpha("the relations divide by alpha^2 alpha'^2, which is 0 here")
    sin_sq = np.maximum(0.0, 1.0 - cos_t * cos_t)
    with np.errstate(over="ignore"):  # a subnormal alpha^2 alpha'^2 gives an inf lhs
        return {relation_id: ((k - x) * (k - y) / xy, sin_sq)
                for relation_id, k in (("product_form", 1.0), ("cirelson_product", 2.0))}


def _spec_product_forms(spec: JointSpec, n: int = 1) -> dict:
    """``_product_forms`` of one spec, repeated over a batch of n."""
    x, y, cos_t = spec.alpha**2, spec.alpha_prime**2, float(spec.a @ spec.a_prime)
    return _product_forms(*np.array([[x], [y], [cos_t]]).repeat(n, 1))


def _relations(rows, a, a_prime, spec: JointSpec | None = None) -> dict:
    """{relation_id: (lhs, rhs)}, one entry per (N, 4) Pauli row (t, m) of
    ``rows``, for checked unit directions: the bare relations (robertson,
    schroedinger), and with ``spec``, whose directions they are, all six."""
    table = {} if spec is None else _spec_product_forms(spec, len(rows))
    cos_t = float(a @ a_prime)
    normal = _plane_normal(a, a_prime)
    sin_t = float(_length(normal))
    if sin_t < ATOL:
        raise CollinearDirections("a and a_prime are (anti)parallel")
    if spec is not None:
        require_admissible(spec)
    m = rows[:, 1:]  # every refusal of the spec is made before a row is read
    ea, eap = np.vecdot(m, a), np.vecdot(m, a_prime)
    perp = np.vecdot(m, normal / sin_t)  # <a_perp.sigma>
    bare = (1.0 - ea * ea) * (1.0 - eap * eap)
    commutator = _squares(sin_t * perp)
    table["robertson"] = (bare, commutator)
    table["schroedinger"] = (bare, commutator + _squares(cos_t - ea * eap))
    if spec is not None:
        x, y = spec.alpha**2, spec.alpha_prime**2
        with np.errstate(over="ignore"):  # a subnormal alpha^2 alpha'^2 gives an inf lhs
            joint = _joint_variance(x, ea) * _joint_variance(y, eap) / (x * y)
        table["total_joint"] = (joint, _squares(sin_t * (1.0 + np.abs(perp))))
        table["arthurs_goodman"] = (joint, 4.0 * commutator)
    return table


def _report(relation_id: str, table: dict) -> UncertaintyReport:
    lhs, rhs = (float(v[0]) for v in table[relation_id])
    return UncertaintyReport(relation_id, lhs, rhs, lhs - rhs)


def product_form(spec: JointSpec) -> UncertaintyReport:
    """State-independent cost of jointness; slack 0 exactly at saturation
    of the sharpness bound."""
    return _report("product_form", _spec_product_forms(spec))


def robertson(state: QubitState, a, a_prime) -> UncertaintyReport:
    """Commutator bound on the bare variance product; state dependent and
    not always tight."""
    return _report("robertson", _relations(state._pauli[None], unit3(a), unit3(a_prime)))


def total_joint(spec: JointSpec, state: QubitState) -> UncertaintyReport:
    """Bound on the total joint-variance product, combining the jointness
    cost with the commutator bound; specific to spin directions."""
    return _report("total_joint", _relations(state._pauli[None], spec.a, spec.a_prime, spec))


def arthurs_goodman(spec: JointSpec, state: QubitState) -> UncertaintyReport:
    """General-observable joint-variance bound, rhs = |<[A, A']>|^2.

    For qubits |<a_perp.sigma>| <= 1, so (1 + |x|)^2 >= 4x^2 pointwise
    and the ``total_joint`` rhs is never smaller for the same state, with
    equality at |x| = 1.
    """
    return _report("arthurs_goodman", _relations(state._pauli[None], spec.a, spec.a_prime, spec))


def schroedinger(state: QubitState, a, a_prime) -> UncertaintyReport:
    """Commutator-plus-covariance bound on the bare variance product.

    rhs exceeds the robertson rhs by the squared covariance
    (cos(theta) - <A><A'>)^2; for every pure qubit state the relation is
    an identity (slack 0).
    """
    return _report("schroedinger", _relations(state._pauli[None], unit3(a), unit3(a_prime)))


def cirelson_product(spec: JointSpec) -> UncertaintyReport:
    """Product translation of the 2 sqrt(2) correlation ceiling; places
    no restriction below full sharpness."""
    return _report("cirelson_product", _spec_product_forms(spec))


def evaluate_all(spec: JointSpec, state: QubitState) -> list[UncertaintyReport]:
    """All six relations for one (spec, state) pair, in RELATION_IDS order."""
    table = _relations(state._pauli[None], spec.a, spec.a_prime, spec)
    return [_report(relation_id, table) for relation_id in RELATION_IDS]
