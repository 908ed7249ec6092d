"""Exact small-dimension algebra for spin-1/2.

Pauli matrices, Bloch vectors and closed-form eigenvalues.  A state or
effect m = (t + r.sigma)/2 is its real Pauli row (t, r) = Re tr(sigma_mu m):
eigenvalues and Born-rule quantities use the rows, and ``_operators`` makes
the matrix from a row only on first use.  Only ``_bloch_rows`` computes the
rows of package states; user-supplied matrices are checked and read once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BlochOutOfBall, InvalidState, NotUnit

# Rounding allowances, the only ones in the package.  ATOL: exactness of
# inputs and closed forms (Hermiticity, unit trace and norm, Bloch ball,
# |alpha| <= 1, theta, zero vectors).  TOL: derived quantities and POVMs
# (validity, clamping, admissibility, saturation, CHSH and slack checks).
ATOL = 1e-12
TOL = 1e-10
# A choice of axis, not a rounding allowance: JointSpec.from_angle leaves the
# x axis for z once |a.x| exceeds this; below, |x - (x.a) a| >= 0.04 keeps |a'| = 1.
REFERENCE_AXIS_COS = 1.0 - 1e-3

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)
_PAULI = np.stack([ID2, PAULI_X, PAULI_Y, PAULI_Z])


def vec3(v) -> np.ndarray:
    """Coerce to a finite float 3-vector."""
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("vector components must be finite")
    return arr


def unit3(v) -> np.ndarray:
    """Coerce to a 3-vector and require unit norm within ATOL."""
    arr = vec3(v)
    n = float(_length(arr))
    if abs(n - 1.0) > ATOL:
        raise NotUnit(f"|v| = {n!r}, expected 1 within {ATOL}")
    return arr


def normalize(v) -> np.ndarray:
    """v / |v|; ValueError unless ATOL <= |v| < inf."""
    arr = vec3(v)
    n = float(_length(arr))
    if not ATOL <= n < math.inf:
        raise ValueError(f"cannot normalize a vector of length {n}")
    return arr / n


def _sigma(x, y, z) -> np.ndarray:
    """x*sigma_x + y*sigma_y + z*sigma_z from trusted coordinates: no checks.
    For (k,) arrays x, y, z it is the (2, 2, k) stack, matrix axes first."""
    return np.array([[z, x - 1j * y], [x + 1j * y, -z]], dtype=complex)


def _operators(rows) -> np.ndarray:
    """The read-only (k, 2, 2) matrices 0.5 (t + r.sigma) of trusted (k, 4)
    Pauli rows (t, r): the package's one way from rows to matrices."""
    t, x, y, z = rows.T
    ops = 0.5 * (t[:, None, None] * ID2 + _sigma(x, y, z).transpose(2, 0, 1))
    ops.setflags(write=False)
    return ops


def is_hermitian(mat) -> bool:
    """|m[i][j] - conj(m[j][i])| <= ATOL for every entry of a square matrix,
    read once as Python complex numbers: nan or inf entries give False."""
    m = np.asarray(mat, dtype=complex).tolist()
    return all(abs(x - y.conjugate()) <= ATOL for row, col in zip(m, zip(*m))
               for x, y in zip(row, col))


def _pauli_coordinates(entries) -> np.ndarray:
    """(t, r) = Re tr(sigma_mu m) of a 2x2 matrix m from its entries
    (m00, m01, m10, m11): m = (t + r.sigma)/2 for its Hermitian part."""
    a, b, c, d = entries
    return np.array([(a + d).real, (b + c).real, (c - b).imag, (a - d).real])


def _length(v):
    """|v| = sqrt(v.v) over the last axis: the package's one vector norm,
    so unit checks, the Bloch ball, effect eigenvalues and the
    admissibility kernel all round alike."""
    return np.sqrt(np.vecdot(v, v))


def _coordinate_eigenvalues(coords):
    """Ascending eigenvalues (t -+ |r|)/2 of (t + r.sigma)/2, over the
    (..., 4) rows (t, r) of ``coords``."""
    t, r = coords[..., 0], _length(coords[..., 1:])
    return 0.5 * (t - r), 0.5 * (t + r)


def _freeze(obj, **arrays) -> None:
    """Set read-only array attributes on a frozen dataclass instance."""
    for name, arr in arrays.items():
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)


def _density_matrix(rho, dim: int) -> np.ndarray:
    """Copy of a dim x dim density matrix, checked for finite entries,
    Hermiticity and unit trace."""
    m = np.array(rho, dtype=complex)
    if m.shape != (dim, dim):
        raise InvalidState(f"expected a {dim}x{dim} density matrix, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidState("density matrix entries must be finite")
    if not is_hermitian(m):
        raise InvalidState("density matrix must be Hermitian")
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > ATOL:
        raise InvalidState(f"trace = {tr}, expected 1")
    return m


@dataclass(frozen=True, eq=False, init=False)
class QubitState:
    """Single-qubit state rho = (1 + m.sigma)/2, held as its Pauli row (tr rho, m).

    ``QubitState(rho)`` checks shape, entries, Hermiticity, trace and
    positivity and keeps the row; ``rho`` is made from it on first use.
    """

    _pauli: np.ndarray

    def __init__(self, rho):
        coords = _pauli_coordinates(_density_matrix(rho, 2).reshape(4).tolist())
        lo, _ = _coordinate_eigenvalues(coords)
        if lo < -ATOL:
            raise InvalidState(f"negative eigenvalue {lo}")
        _freeze(self, _pauli=coords)

    @classmethod
    def _from_coordinates(cls, pauli) -> QubitState:
        """The state of a ``_bloch_rows`` row ``pauli``: no checks."""
        state = object.__new__(cls)
        _freeze(state, _pauli=pauli)
        return state

    @functools.cached_property
    def rho(self) -> np.ndarray:
        return _operators(self._pauli[None])[0]


@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """Two-qubit density matrix in qubit-1-major (Kronecker) ordering."""

    rho4: np.ndarray

    def __post_init__(self):
        m = _density_matrix(self.rho4, 4)
        lo = float(np.linalg.eigvalsh(m)[0])
        if lo < -TOL:
            raise InvalidState(f"negative eigenvalue {lo}")
        # _pauli[mu, nu] = Re tr((sigma_mu x sigma_nu) rho4)
        corr = np.einsum("mki,nlj,ijkl->mn", _PAULI, _PAULI, m.reshape(2, 2, 2, 2)).real
        _freeze(self, rho4=m, _pauli=corr)


def _bloch_rows(m) -> np.ndarray:
    """Pauli rows (t, x, y, z) of (1 + m.sigma)/2 for Bloch vectors m in the
    unit ball, the rows of an (N, 3) array: the one source of state
    coordinates.  They round as a read of rho's entries does: t and z from
    the diagonal (1 +- z)/2, x and y from twice (0 + x)/2 and (0 + y)/2."""
    with np.errstate(over="ignore"):  # an overflowing |m| is inf, refused below
        n = float(np.max(_length(m)))
    if n > 1.0 + ATOL:
        raise BlochOutOfBall(f"|m| = {n} > 1")
    x, y, z = m.T
    hi, lo = 0.5 * (1.0 + z), 0.5 * (1.0 - z)
    hx, hy = 0.5 * (0.0 + x), 0.5 * (0.0 + y)
    return np.column_stack([hi + lo, hx + hx, hy + hy, hi - lo])


def state_from_bloch(m) -> QubitState:
    """rho = (1 + m.sigma)/2 for a Bloch vector inside the unit ball."""
    return QubitState._from_coordinates(_bloch_rows(vec3(m)[None])[0])
