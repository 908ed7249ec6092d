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

product_form is state independent and restates the sharpness bound, with
slack (1 - product_form_check)/(al^2 al'^2); total_joint and arthurs_goodman
meet it at theta = 90 degrees, al = al' = 1/sqrt(2) and m = a x a'/|a x a'|.
On that scale an admitted boundary spec's slack can read slightly negative:
``joint._decide`` alone decides.  cirelson_product admits al = al' = 1.

One kernel, ``_relations``, writes the state-dependent formulas once over
the (N, 4) Pauli rows (t, m) of a batch of states, for unit directions a
and a' that the caller checked (only ``robertson`` and ``schroedinger``
take theirs unchecked).  A spec's state-independent half (alpha^2,
alpha'^2, the plane of a and a', and the two product forms of
``joint._product_forms``) is made once per spec and kept on it
(``JointSpec._relation_data``).  ``_spec_relations`` reads it and makes
every refusal of the spec before any row is read, in this order: the
product forms (ZeroAlpha), a_perp (CollinearDirections), then the
admissibility decision (BoundViolated).  The public functions and
``evaluate_all`` are batches of one, whose row ``_rows`` reads; ``_product_forms``
also runs on a whole grid of angles (``scan-theta``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CollinearDirections, InvalidState
from .joint import (JointSpec, _joint_variance, _plane, _SpecRelations, _squares,
                    require_admissible)
from .qubit import ATOL, QubitState, unit3

RELATION_IDS = ("product_form", "robertson", "total_joint", "arthurs_goodman",
                "schroedinger", "cirelson_product")


@dataclass(frozen=True)
class UncertaintyReport:
    relation_id: str
    lhs: float
    rhs: float
    slack: float


def _require_plane(sin_t: float) -> None:
    if sin_t < ATOL:
        raise CollinearDirections("a and a_prime are (anti)parallel")


def _spec_relations(spec: JointSpec) -> _SpecRelations:
    """The spec's relation data, after each spec refusal in the module docstring's order."""
    data = spec._relation_data
    _require_plane(data.sin_t)
    require_admissible(spec)
    return data


def _relations(rows, a, a_prime, spec: JointSpec | None = None) -> dict:
    """{relation_id: (lhs, rhs)}, one entry per (N, 4) Pauli row (t, m) of
    ``rows``, for checked unit directions: the bare relations (robertson,
    schroedinger), and with ``spec``, whose directions they are, all six."""
    if spec is None:
        table, (cos_t, normal, sin_t) = {}, _plane(a, a_prime)
        _require_plane(sin_t)
    else:
        data = _spec_relations(spec)
        table = {relation_id: (lhs.repeat(len(rows)), rhs.repeat(len(rows)))
                 for relation_id, (lhs, rhs) in data.product_forms.items()}
        cos_t, normal, sin_t = data.cos_t, data.normal, data.sin_t
    m = rows[:, 1:]  # every refusal of the spec is made before a row is read
    ea, eap = np.vecdot(m, a), np.vecdot(m, a_prime)
    perp = np.vecdot(m, normal / sin_t)  # <a_perp.sigma>
    bare = (1.0 - ea * ea) * (1.0 - eap * eap)
    commutator = _squares(sin_t * perp)
    table["robertson"] = (bare, commutator)
    table["schroedinger"] = (bare, commutator + _squares(cos_t - ea * eap))
    if spec is not None:
        x, y = data.alpha_sq, data.alpha_prime_sq
        with np.errstate(over="ignore"):  # a subnormal alpha^2 alpha'^2 gives an inf lhs
            joint = _joint_variance(x, ea) * _joint_variance(y, eap) / (x * y)
        table["total_joint"] = (joint, _squares(sin_t * (1.0 + np.abs(perp))))
        table["arthurs_goodman"] = (joint, 4.0 * commutator)
    return table


def _rows(state: QubitState) -> np.ndarray:
    """The (1, 4) row of a one-qubit state; anything else is refused as the Born rule refuses it."""
    if not isinstance(state, QubitState):
        raise InvalidState("expected a QubitState")
    return state._pauli[None]


def _report(relation_id: str, table: dict) -> UncertaintyReport:
    lhs, rhs = (float(v[0]) for v in table[relation_id])
    return UncertaintyReport(relation_id, lhs, rhs, lhs - rhs)


def product_form(spec: JointSpec) -> UncertaintyReport:
    """State-independent cost of jointness; slack 0 exactly at saturation
    of the sharpness bound."""
    return _report("product_form", spec._relation_data.product_forms)


def robertson(state: QubitState, a, a_prime) -> UncertaintyReport:
    """Commutator bound on the bare variance product; state dependent and
    not always tight."""
    return _report("robertson", _relations(_rows(state), unit3(a), unit3(a_prime)))


def total_joint(spec: JointSpec, state: QubitState) -> UncertaintyReport:
    """Bound on the total joint-variance product, combining the jointness
    cost with the commutator bound; specific to spin directions."""
    return _report("total_joint", _relations(_rows(state), spec.a, spec.a_prime, spec))


def arthurs_goodman(spec: JointSpec, state: QubitState) -> UncertaintyReport:
    """General-observable joint-variance bound, rhs = |<[A, A']>|^2.

    For qubits |<a_perp.sigma>| <= 1, so (1 + |x|)^2 >= 4x^2 pointwise
    and the ``total_joint`` rhs is never smaller for the same state, with
    equality at |x| = 1.
    """
    return _report("arthurs_goodman", _relations(_rows(state), spec.a, spec.a_prime, spec))


def schroedinger(state: QubitState, a, a_prime) -> UncertaintyReport:
    """Commutator-plus-covariance bound on the bare variance product.

    rhs exceeds the robertson rhs by the squared covariance
    (cos(theta) - <A><A'>)^2; for every pure qubit state the relation is
    an identity (slack 0).
    """
    return _report("schroedinger", _relations(_rows(state), unit3(a), unit3(a_prime)))


def cirelson_product(spec: JointSpec) -> UncertaintyReport:
    """Product translation of the 2 sqrt(2) correlation ceiling; places
    no restriction below full sharpness."""
    return _report("cirelson_product", spec._relation_data.product_forms)


def evaluate_all(spec: JointSpec, state: QubitState) -> list[UncertaintyReport]:
    """All six relations for one (spec, state) pair, in RELATION_IDS order."""
    table = _relations(_rows(state), spec.a, spec.a_prime, spec)
    return [_report(relation_id, table) for relation_id in RELATION_IDS]
