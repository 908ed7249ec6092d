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
the (N, 4) Pauli rows (t, m) of a batch of states, in the plane that
``_plane`` gives for unit directions a and a' (a, a', cos(theta), a x a',
sin(theta)), and for a spec also from its ``_spec_forms`` (alpha^2,
alpha'^2 and the two product forms of ``_product_forms``).
``robertson`` and ``schroedinger`` check the directions they are given
and build only the plane; ``product_form`` and ``cirelson_product`` build
only the product forms, so they refuse only ZeroAlpha.  ``_spec_relations``
builds both halves of a spec and makes every refusal of the spec before
any row is read, in this order: the product forms (ZeroAlpha), the plane
(CollinearDirections), then the admissibility decision (BoundViolated).
Nothing is kept on the spec: the command-line ``uncertainty`` passes the
pair it refused with on to the kernel.  The public functions and
``evaluate_all`` are batches of one, whose row ``_rows`` reads;
``_product_forms`` also runs on a whole grid of angles (``scan-theta``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CollinearDirections, InvalidState, ZeroAlpha
from .joint import JointSpec, require_admissible
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


def _plane(a, a_prime) -> tuple:
    """(a, a', a.a', a x a', |a x a'|) = (a, a', cos theta, normal, sin theta)
    of unit a, a'; CollinearDirections when they are (anti)parallel."""
    normal = _plane_normal(a, a_prime)
    sin_t = float(_length(normal))
    if sin_t < ATOL:
        raise CollinearDirections("a and a_prime are (anti)parallel")
    return a, a_prime, float(a @ a_prime), normal, sin_t


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


def _squares(v: np.ndarray) -> np.ndarray:
    """v**2 by libm pow per element, as Python's ``**`` does it (not as ``v * v``)."""
    return np.float_power(v, 2.0)


def _joint_variance(alpha_sq, expectation: np.ndarray) -> np.ndarray:
    """Var(A_J) = 1 - alpha^2 <A>^2 of the +-1 outcome that tracks A with
    sharpness alpha, over an array of <A>; the bare Var(A) at alpha^2 = 1."""
    return 1.0 - alpha_sq * _squares(expectation)


def _spec_forms(spec: JointSpec) -> tuple:
    """(alpha^2, alpha'^2, ``_product_forms`` on a batch of one) of a spec."""
    x, y = spec.alpha**2, spec.alpha_prime**2
    return x, y, _product_forms(np.array([x]), np.array([y]), np.array([spec.a @ spec.a_prime]))


def _spec_relations(spec: JointSpec) -> tuple:
    """(plane, spec forms) of a spec, after each spec refusal in the module docstring's order."""
    spec_forms = _spec_forms(spec)
    plane = _plane(spec.a, spec.a_prime)
    require_admissible(spec)
    return plane, spec_forms


def _relations(rows, plane, spec_forms=None) -> dict:
    """{relation_id: (lhs, rhs)}, one entry per (N, 4) Pauli row (t, m) of
    ``rows``, in a ``_plane``: the bare relations (robertson, schroedinger),
    and with the spec's ``_spec_forms`` all six."""
    a, a_prime, cos_t, normal, sin_t = plane
    m = rows[:, 1:]
    ea, eap = np.vecdot(m, a), np.vecdot(m, a_prime)
    perp = np.vecdot(m, normal / sin_t)  # <a_perp.sigma>
    bare = (1.0 - ea * ea) * (1.0 - eap * eap)
    commutator = _squares(sin_t * perp)
    table = {"robertson": (bare, commutator),
             "schroedinger": (bare, commutator + _squares(cos_t - ea * eap))}
    if spec_forms is not None:
        x, y, forms = spec_forms
        with np.errstate(over="ignore"):  # a subnormal alpha^2 alpha'^2 gives an inf lhs
            joint = _joint_variance(x, ea) * _joint_variance(y, eap) / (x * y)
        table["total_joint"] = (joint, _squares(sin_t * (1.0 + np.abs(perp))))
        table["arthurs_goodman"] = (joint, 4.0 * commutator)
        table.update({relation_id: (lhs.repeat(len(rows)), rhs.repeat(len(rows)))
                      for relation_id, (lhs, rhs) in forms.items()})
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
    return _report("product_form", _spec_forms(spec)[2])


def robertson(state: QubitState, a, a_prime) -> UncertaintyReport:
    """Commutator bound on the bare variance product; state dependent and
    not always tight."""
    return _report("robertson", _relations(_rows(state), _plane(unit3(a), unit3(a_prime))))


def total_joint(spec: JointSpec, state: QubitState) -> UncertaintyReport:
    """Bound on the total joint-variance product, combining the jointness
    cost with the commutator bound; specific to spin directions."""
    return _report("total_joint", _relations(_rows(state), *_spec_relations(spec)))


def arthurs_goodman(spec: JointSpec, state: QubitState) -> UncertaintyReport:
    """General-observable joint-variance bound, rhs = |<[A, A']>|^2.

    For qubits |<a_perp.sigma>| <= 1, so (1 + |x|)^2 >= 4x^2 pointwise
    and the ``total_joint`` rhs is never smaller for the same state, with
    equality at |x| = 1.
    """
    return _report("arthurs_goodman", _relations(_rows(state), *_spec_relations(spec)))


def schroedinger(state: QubitState, a, a_prime) -> UncertaintyReport:
    """Commutator-plus-covariance bound on the bare variance product.

    rhs exceeds the robertson rhs by the squared covariance
    (cos(theta) - <A><A'>)^2; for every pure qubit state the relation is
    an identity (slack 0).
    """
    return _report("schroedinger", _relations(_rows(state), _plane(unit3(a), unit3(a_prime))))


def cirelson_product(spec: JointSpec) -> UncertaintyReport:
    """Product translation of the 2 sqrt(2) correlation ceiling; places
    no restriction below full sharpness."""
    return _report("cirelson_product", _spec_forms(spec)[2])


def evaluate_all(spec: JointSpec, state: QubitState) -> list[UncertaintyReport]:
    """All six relations for one (spec, state) pair, in RELATION_IDS order."""
    table = _relations(_rows(state), *_spec_relations(spec))
    return [_report(relation_id, table) for relation_id in RELATION_IDS]
