import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (bloch_vector, expectation, numpy_is_hermitian, pauli_dot, reduced_state,
                     tensor2)
from spinjoint import (
    ID2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    BlochOutOfBall,
    Effect,
    InvalidState,
    NotUnit,
    Povm,
    QubitState,
    TwoQubitState,
    state_from_bloch,
    validate,
)
from spinjoint.correlations import singlet
from spinjoint.errors import NotHermitian
from spinjoint.qubit import _coordinate_eigenvalues, is_hermitian, normalize, unit3

coord = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
vector = st.tuples(coord, coord, coord)


def test_pauli_dot_axes():
    assert np.array_equal(pauli_dot((0, 0, 1)), np.array([[1, 0], [0, -1]]))
    assert np.array_equal(pauli_dot((1, 0, 0)), np.array([[0, 1], [1, 0]]))
    assert np.array_equal(pauli_dot((0, 1, 0)), np.array([[0, -1j], [1j, 0]]))


@given(vector)
@settings(deadline=None)
def test_pauli_dot_squares_to_norm(v):
    m = pauli_dot(v)
    norm_sq = sum(x * x for x in v)
    assert np.max(np.abs(m @ m - norm_sq * ID2)) <= 1e-12
    assert abs(np.trace(m)) <= 1e-12
    assert np.max(np.abs(m - m.conj().T)) == 0.0


def test_state_from_bloch_examples():
    assert np.array_equal(state_from_bloch((0, 0, 0)).rho, 0.5 * ID2)
    assert np.array_equal(state_from_bloch((0, 0, 1)).rho, np.diag([1.0, 0.0]).astype(complex))
    # expand (1 + 0.6 sigma_x)/2 by hand
    assert np.array_equal(
        state_from_bloch((0.6, 0, 0)).rho, 0.5 * np.array([[1, 0.6], [0.6, 1]])
    )


def test_state_from_bloch_rejects_long_vectors():
    # a length that overflows to inf is refused too, without a numpy warning
    for m in ((0.8, 0.8, 0.0), (1e308, 1e308, 0.0)):
        with warnings.catch_warnings(), pytest.raises(BlochOutOfBall):
            warnings.simplefilter("error")
            state_from_bloch(m)


def test_state_from_bloch_equals_checked_matrix_path_bit_for_bit():
    # the unchecked coordinate path against the checked constructor that
    # reads the coordinates back from rho: signed zeros, subnormal
    # components and the poles included
    rng = np.random.default_rng(19)
    v = rng.normal(size=(2000, 3))
    v /= np.maximum(1.0, np.linalg.norm(v, axis=1))[:, None]
    edges = [(0.0, 0.0, 0.0), (-0.0, -0.0, -0.0), (0.0, 0.0, 1.0), (0.0, 0.0, -1.0),
             (1e-310, -1e-310, 5e-324), (-5e-324, 5e-324, -5e-324)]
    for m in [*v, *(1e-310 * v[:200]), *(1e-320 * v[:200]), *np.array(edges)]:
        state = state_from_bloch(m)
        checked = QubitState(0.5 * (ID2 + pauli_dot(m)))
        assert state._pauli.tobytes() == checked._pauli.tobytes(), m
        assert state.rho.tobytes() == checked.rho.tobytes(), m


@given(vector)
@settings(deadline=None)
def test_bloch_round_trip(v):
    v = np.asarray(v)
    n = np.linalg.norm(v)
    if n > 1.0:
        v = v / (n * (1.0 + 1e-9))
    state = state_from_bloch(v)
    assert np.max(np.abs(bloch_vector(state) - v)) <= 1e-12
    u = np.array([0.3, -0.5, 0.8])
    assert abs(expectation(pauli_dot(u), state) - u @ v) <= 1e-12


def test_expectation_examples():
    up = state_from_bloch((0, 0, 1))
    mixed = state_from_bloch((0, 0, 0))
    assert expectation(PAULI_Z, up) == pytest.approx(1.0, abs=1e-12)
    assert expectation(PAULI_Z, mixed) == pytest.approx(0.0, abs=1e-12)
    assert expectation(PAULI_X, state_from_bloch((0.6, 0, 0))) == pytest.approx(0.6, abs=1e-12)


def test_expectation_trace_is_real():
    rng = np.random.default_rng(7)
    for _ in range(50):
        v = rng.normal(size=3)
        m = rng.normal(size=3)
        m = m / max(1.0, np.linalg.norm(m))
        obs = pauli_dot(v) + rng.normal() * ID2
        state = state_from_bloch(m)
        raw = np.trace(obs @ state.rho)
        assert abs(raw.imag) < 1e-12


def _eigenvalues(m):
    # the library's one eigenvalue kernel, on a checked user-supplied matrix
    return _coordinate_eigenvalues(Effect("m", m)._pauli)


def test_hermitian_eigenvalues_examples():
    assert _eigenvalues(ID2) == (1.0, 1.0)
    assert _eigenvalues(PAULI_Z) == (-1.0, 1.0)
    lo, hi = _eigenvalues(0.5 * (ID2 + 0.5 * PAULI_X))
    assert (lo, hi) == pytest.approx((0.25, 0.75), abs=1e-15)
    assert validate(Povm((Effect("m", PAULI_Z),))).min_eigenvalues == (-1.0,)


@given(coord, coord, coord, coord)
@settings(deadline=None)
def test_hermitian_eigenvalues_against_numpy(a, b, c, d):
    m = np.array([[a, b - 1j * c], [b + 1j * c, d]])
    ours = _eigenvalues(m)
    ref = np.linalg.eigvalsh(m)
    assert ours[0] == pytest.approx(ref[0], abs=1e-12)
    assert ours[1] == pytest.approx(ref[1], abs=1e-12)
    # eigenvalues recombine to trace and determinant
    assert ours[0] + ours[1] == pytest.approx(a + d, abs=1e-12)
    det = a * d - (b * b + c * c)
    assert ours[0] * ours[1] == pytest.approx(det, abs=1e-12)


def test_tensor2_examples():
    assert np.array_equal(tensor2(ID2, ID2), np.eye(4))
    assert np.array_equal(tensor2(PAULI_Z, ID2), np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex))
    # direct Kronecker expansion
    assert np.array_equal(tensor2(PAULI_Z, PAULI_Z), np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex))


def test_tensor2_multiplicative():
    rng = np.random.default_rng(11)
    for _ in range(25):
        mats = [pauli_dot(rng.normal(size=3)) + rng.normal() * ID2 for _ in range(4)]
        a, b, c, d = mats
        lhs = tensor2(a, b) @ tensor2(c, d)
        rhs = tensor2(a @ c, b @ d)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_unit3_rejects_non_unit():
    with pytest.raises(NotUnit):
        unit3((1.0, 1.0, 0.0))


def test_normalize_rejects_zero_and_overflowing_lengths():
    assert np.array_equal(normalize((0.0, 3.0, 4.0)), [0.0, 0.6, 0.8])
    for v in [(0.0, 0.0, 0.0), (1e308, 1e308, 0.0)]:
        with np.errstate(over="ignore"), pytest.raises(ValueError):
            normalize(v)


def test_qubit_state_validation():
    with pytest.raises(InvalidState):
        QubitState(np.array([[1.0, 0.5], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(InvalidState):
        QubitState(np.array([[0.8, 0.0], [0.0, 0.8]]))  # trace 1.6
    with pytest.raises(InvalidState):
        QubitState(np.array([[1.2, 0.0], [0.0, -0.2]]))  # negative eigenvalue
    with pytest.raises(InvalidState):
        QubitState(np.zeros((3, 2)))  # not 2x2
    with pytest.raises(InvalidState):
        QubitState(np.array([[math.nan, 0.0], [0.0, 1.0]]))  # not finite


def test_two_qubit_state_validation_and_partial_trace():
    plus_x = state_from_bloch((1, 0, 0))
    up_z = state_from_bloch((0, 0, 1))
    product = TwoQubitState(tensor2(plus_x.rho, up_z.rho))
    assert np.max(np.abs(reduced_state(product, 1).rho - plus_x.rho)) <= 1e-12
    assert np.max(np.abs(reduced_state(product, 2).rho - up_z.rho)) <= 1e-12
    with pytest.raises(InvalidState):
        TwoQubitState(np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex))


PERTURBATIONS = [sign * size * unit for sign in (1, -1) for size in (1e-13, 1e-12, 2e-12)
                 for unit in (1.0, 1j)]


def _perturbed(m, diagonal=True):
    """Copies of m with one entry moved by each of PERTURBATIONS."""
    n = len(m)
    for i in range(n):
        for j in range(n):
            if i != j or diagonal:
                for delta in PERTURBATIONS:
                    out = m.copy()
                    out[i, j] += delta
                    yield out


def test_hermiticity_verdict_equals_numpy_oracle():
    rng = np.random.default_rng(59)
    checked = {True: 0, False: 0}
    for n in (2, 4):
        for _ in range(20):
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            for m in (g, 0.5 * (g + g.conj().T)):
                for candidate in (m, *_perturbed(m)):
                    verdict = is_hermitian(candidate)
                    assert verdict is numpy_is_hermitian(candidate)
                    checked[verdict] += 1
    assert min(checked.values()) > 1000  # both verdicts are exercised


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.inf, np.nan),
                                 complex(0.0, np.inf), complex(np.nan, 0.0)])
def test_hermiticity_of_non_finite_entries_warns_nothing(bad):
    for n in (2, 4):
        for i in range(n):
            for j in range(n):
                m = np.eye(n, dtype=complex) / n
                m[i, j] = bad
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    assert is_hermitian(m) is numpy_is_hermitian(m) is False


def test_checked_constructors_decide_hermiticity_as_the_oracle():
    werner = 0.5 * singlet().rho4 + 0.125 * np.eye(4)
    cases = (
        (lambda m: Effect("x", m), 0.5 * ID2 + 0.25 * pauli_dot((0.6, 0.0, 0.8)), NotHermitian),
        (QubitState, state_from_bloch((0.3, -0.4, 0.2)).rho.copy(), InvalidState),
        (TwoQubitState, werner, InvalidState),
    )
    for build, base, error in cases:
        refused = 0
        for m in _perturbed(base, diagonal=False):
            if numpy_is_hermitian(m):
                build(m)
            else:
                with pytest.raises(error, match="Hermitian"):
                    build(m)
                refused += 1
        assert refused > 0
