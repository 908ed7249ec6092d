"""Shared random generators and dense-matrix oracles for the test suite.

Saturating specs are built from the exact boundary parametrization: for a
fixed ratio r = alpha'/alpha the diagonal sum is linear in alpha, so
alpha = 2 / (|a + r a'| + |a - r a'|) lands on the boundary to rounding.

The library computes Born probabilities and admissibility quantities from
Pauli coordinates in one kernel each, and has no Kronecker product,
partial trace or matrix expectation value.  The oracles here take the
other route, through explicit complex matrices (Kronecker products,
traces, ``eigvalsh``), so that tests comparing the two stay independent.
``pauli_dot`` builds test inputs with the library's own Pauli kernel, so
matrices made from it round as package-built operators do.

``exact_admissible`` and ``exact_eigenvalues`` take the spec's own floats
as exact rationals (``fractions.Fraction``): the admissibility verdict is
then a polynomial test, and the eigenvalues need only one square root,
taken to 50 digits with ``decimal``.

``exact_probabilities`` is the Born table of the float rows of a POVM and
of some states as exact rationals, before any rounding or clamping.

``python_squares`` and ``python_random_bloch`` keep the element-by-element
Python power loops that ``uncertainty._squares`` and ``cli._random_bloch`` once
ran, as the oracle for their ``np.float_power`` calls.

``reference_doc`` is the document ``povm_to_json`` once handed to
``json.dumps(doc, indent=2)``: the oracle for the text it now writes itself.

``joint_variances`` is the variance report the package once exported,
1 - alpha^2 <a.sigma>^2 next to the bare 1 - <a.sigma>^2, with <a.sigma>
read as tr(rho a.sigma); ``bloch_vector`` reads m the same way.  The
package writes Var(A_J) once, in ``uncertainty._joint_variance``, for the
``total_joint`` and ``arthurs_goodman`` relations.

``numpy_is_hermitian`` is the Hermiticity test ``qubit.is_hermitian`` once
made with numpy, max|m - m^H| <= ATOL, as the oracle for its verdict.

``scan_theta_rows`` and ``min_cloning_gap_per_point`` keep the per-point
route that ``scan-theta`` and ``min_cloning_gap`` once took (a
``JointSpec.from_angle`` and a ``product_form`` call per angle, ``min``
over one ``cloning_joint`` per angle), as the oracle for their batches.
"""

import decimal
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from spinjoint import (PAULI_X, PAULI_Y, PAULI_Z, JointSpec, QubitState, cloning_joint,
                       product_form, state_from_bloch)
from spinjoint.qubit import ATOL, _sigma, vec3
from spinjoint.scenarios import CLONER_ETA_MAX


def random_unit(rng):
    while True:
        v = rng.normal(size=3)
        n = np.linalg.norm(v)
        if n > 1e-6:
            return v / n


def random_direction_pair(rng, min_sin=1e-3):
    while True:
        a = random_unit(rng)
        ap = random_unit(rng)
        if np.linalg.norm(np.cross(a, ap)) >= min_sin:
            return a, ap


def boundary_alphas(a, ap, ratio):
    g = np.linalg.norm(a + ratio * ap) + np.linalg.norm(a - ratio * ap)
    alpha = 2.0 / g
    return alpha, ratio * alpha


def random_saturating_spec(rng, min_sin=1e-3):
    a, ap = random_direction_pair(rng, min_sin)
    ratio = rng.uniform(0.1, 1.0)
    if rng.random() < 0.5:
        ratio = 1.0 / ratio
    alpha, alpha_p = boundary_alphas(a, ap, ratio)
    return JointSpec(a, ap, alpha, alpha_p)


def random_admissible_spec(rng, min_sin=1e-3, min_scale=0.05, max_scale=1.0):
    spec = random_saturating_spec(rng, min_sin)
    s = rng.uniform(min_scale, max_scale)
    return JointSpec(spec.a, spec.a_prime, s * spec.alpha, s * spec.alpha_prime)


def random_bloch_in_ball(rng):
    return random_unit(rng) * rng.random() ** (1.0 / 3.0)


def random_state(rng):
    return state_from_bloch(random_bloch_in_ball(rng))


def random_pure_state(rng):
    return state_from_bloch(random_unit(rng))


def tensor2(a, b):
    """Kronecker product, qubit-1-major ordering."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def expectation(obs, state):
    """Re tr(obs rho) of a one-qubit state, by matrix product and trace."""
    return float(np.trace(np.asarray(obs, dtype=complex) @ state.rho).real)


def bloch_vector(state):
    """m = (tr(rho sigma_x), tr(rho sigma_y), tr(rho sigma_z)) of a one-qubit state."""
    return np.array([expectation(pauli, state) for pauli in (PAULI_X, PAULI_Y, PAULI_Z)])


@dataclass(frozen=True)
class VarianceReport:
    """Variances of the jointly measured +-1 outcomes next to the bare
    single-observable variances of the same state."""

    var_joint: float
    var_joint_prime: float
    var_bare: float
    var_bare_prime: float


def joint_variances(spec, state):
    """1 - alpha^2 <a.sigma>^2 for a and a_prime, and the bare 1 - <a.sigma>^2,
    with each <a.sigma> = tr(rho a.sigma) by matrix product and trace."""
    e, e_prime = (expectation(dense_sigma(u), state) for u in (spec.a, spec.a_prime))
    return VarianceReport(1 - spec.alpha**2 * e**2, 1 - spec.alpha_prime**2 * e_prime**2,
                          1 - e**2, 1 - e_prime**2)


def reduced_state(state, qubit):
    """Partial trace of a two-qubit state onto qubit 1 or 2."""
    r = state.rho4.reshape(2, 2, 2, 2)
    return QubitState(np.einsum({1: "ijkj->ik", 2: "ijik->jk"}[qubit], r))


def pauli_dot(v):
    """v . sigma = x*sigma_x + y*sigma_y + z*sigma_z, Hermitian traceless."""
    return _sigma(*vec3(v))


def dense_sigma(v):
    return v[0] * PAULI_X + v[1] * PAULI_Y + v[2] * PAULI_Z


def dense_projector(u, sign):
    """(1 + sign u.sigma)/2 as an explicit complex matrix."""
    return 0.5 * (np.eye(2, dtype=complex) + dense_sigma(sign * u))


def dense_joint_effects(spec, optimal=False):
    """The four effects (w 1 +- v.sigma)/4 of the general family (or, with
    ``optimal``, of the saturating one) in OUTCOME_LABELS order, as
    explicit complex matrices."""
    v_plus = spec.alpha * spec.a + spec.alpha_prime * spec.a_prime
    v_minus = spec.alpha * spec.a - spec.alpha_prime * spec.a_prime
    k = spec.alpha * spec.alpha_prime * float(np.dot(spec.a, spec.a_prime))
    weights = (np.linalg.norm(v_plus), np.linalg.norm(v_minus)) if optimal else (1 + k, 1 - k)
    return [
        0.25 * (w * np.eye(2, dtype=complex) + dense_sigma(sign * v))
        for w, v in zip(weights, (v_plus, v_minus))
        for sign in (1, -1)
    ]


def dense_switch_effects(realization):
    """The switch's four effects (w 1 +- w u.sigma)/2, w = p along c and
    w = 1 - p along c_prime, in OUTCOME_LABELS order, as explicit complex
    matrices."""
    p, c, c_prime = realization.p, realization.c, realization.c_prime
    return [
        0.5 * (w * np.eye(2, dtype=complex) + dense_sigma(sign * w * u))
        for w, u in ((p, c), (1.0 - p, c_prime))
        for sign in (1, -1)
    ]


def dense_admissibility(spec):
    """(diagonal sum, product form, smallest effect eigenvalue) of a spec
    from explicitly built diagonals and (w +- v.sigma)/4 matrices."""
    v_plus = spec.alpha * spec.a + spec.alpha_prime * spec.a_prime
    v_minus = spec.alpha * spec.a - spec.alpha_prime * spec.a_prime
    diag_sum = np.linalg.norm(v_plus) + np.linalg.norm(v_minus)
    k = spec.alpha * spec.alpha_prime * float(np.dot(spec.a, spec.a_prime))
    pform = spec.alpha**2 + spec.alpha_prime**2 - k**2
    min_eig = min(np.linalg.eigvalsh(m)[0] for m in dense_joint_effects(spec))
    return diag_sum, pform, float(min_eig)


def _exact_pairs(spec):
    """(w, |v|^2) of the general family's effects (w +- v.sigma)/4, for
    (w_plus, v_plus) and (w_minus, v_minus), in exact arithmetic on the
    spec's own floats."""
    a, ap = [Fraction(x) for x in spec.a.tolist()], [Fraction(x) for x in spec.a_prime.tolist()]
    al, alp = Fraction(spec.alpha), Fraction(spec.alpha_prime)
    k = al * alp * sum(x * y for x, y in zip(a, ap))
    pairs = []
    for sign in (1, -1):
        v = [al * x + sign * alp * y for x, y in zip(a, ap)]
        pairs.append((1 + sign * k, sum(c * c for c in v)))
    return pairs


def exact_admissible(spec, tol):
    """The verdict "smallest effect eigenvalue (w - |v|)/4 >= -tol", exactly:
    for each pair, w + 4 tol >= 0 and |v|^2 <= (w + 4 tol)^2."""
    t = 4 * Fraction(tol)
    return all(w + t >= 0 and n_sq <= (w + t) ** 2 for w, n_sq in _exact_pairs(spec))


def exact_eigenvalues(spec, digits=50):
    """(eig_plus, eig_minus) = (w - |v|)/4 as Decimals to ``digits`` digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        return tuple(
            (decimal.Decimal(w.numerator) / w.denominator
             - (decimal.Decimal(n_sq.numerator) / n_sq.denominator).sqrt()) / 4
            for w, n_sq in _exact_pairs(spec)
        )


def exact_probabilities(povm, rows):
    """Born table (t_j s_i + r_j.m_i)/2 of the effects (t_j + r_j.sigma)/2 on
    the (N, 4) state rows (s_i, m_i), in Fractions of their own floats: what
    ``povm._probabilities`` rounds, before it clamps."""
    effects = [[Fraction(x) for x in row] for row in povm._pauli.tolist()]
    return [[sum(e * Fraction(x) for e, x in zip(effect, state)) / 2 for effect in effects]
            for state in rows.tolist()]


def dense_outcome_probabilities(povm, state):
    """Re tr(effect rho) per effect."""
    return np.array([np.trace(e.op @ state.rho).real for e in povm.effects])


def dense_two_party_probabilities(povm1, povm2, state):
    """Re tr((effect1_i x effect2_j) rho4) by Kronecker product and trace."""
    return np.array([
        [np.trace(np.kron(e1.op, e2.op) @ state.rho4).real for e2 in povm2.effects]
        for e1 in povm1.effects
    ])


@functools.cache
def _boundary_point(theta):
    """(alpha_max, product_form slack) at one angle: alpha_max from math.sin,
    then a spec at that angle.  Kept per angle, as grids share angles."""
    alpha = 1.0 / math.sqrt(1.0 + abs(math.sin(theta)))
    return alpha, product_form(JointSpec.from_angle(theta, alpha, alpha)).slack


def scan_theta_rows(points):
    """scan-theta's rows one angle at a time."""
    rows = []
    for i in range(points):
        alpha, slack = _boundary_point(i * math.pi / (points - 1))
        rows.append({
            "theta_deg": i * 180.0 / (points - 1),
            "alpha_max": alpha,
            "boundary_slack": slack,
            "cloning_gap": alpha - CLONER_ETA_MAX,
        })
    return rows


def min_cloning_gap_per_point(eta, points=181):
    """The first smallest-gap scenario among one cloning_joint per grid angle."""
    scenarios = [cloning_joint(i * math.pi / (points - 1), eta) for i in range(points)]
    return min(scenarios, key=lambda s: s.gap)


def python_squares(v):
    """v**2 by Python's float power, one element at a time."""
    return np.array([t**2 for t in v.tolist()])


def python_random_bloch(u):
    """Bloch vectors uniform in the unit ball, one row per three uniforms,
    with the radii by Python's float power, one element at a time."""
    u1, u2, u3 = u.reshape(-1, 3).T
    r = np.array([t ** (1.0 / 3.0) for t in u1.tolist()])
    cos_t = 2.0 * u2 - 1.0
    sin_t = np.sqrt(np.maximum(0.0, 1.0 - cos_t * cos_t))
    phi = 2.0 * math.pi * u3
    return r[:, None] * np.column_stack([sin_t * np.cos(phi), sin_t * np.sin(phi), cos_t])


def reference_doc(povm):
    """{"effects": [{"label": ..., "op": [[re, im], ...]}, ...]} of a POVM,
    its matrices read from ``povm.effects``."""
    effects = []
    for e in povm.effects:
        flat = [[z.real, z.imag] for z in e.op.reshape(-1)]
        effects.append({"label": e.label, "op": flat})
    return {"effects": effects}


def numpy_is_hermitian(mat):
    """max|m - m^H| <= ATOL over a numpy array (nan and inf give False)."""
    m = np.asarray(mat, dtype=complex)
    with np.errstate(invalid="ignore"):  # inf - inf
        return bool(np.max(np.abs(m - m.conj().T)) <= ATOL)
