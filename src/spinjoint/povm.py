"""Generalized one-qubit measurements.

An ``Effect`` is one labelled outcome operator (t + r.sigma)/2; a ``Povm``
is an ordered collection of them.  Effects the package builds start from
their real Pauli coordinates (t, r), and the dense operator ``op`` is
built from them with no checks.  A user-supplied matrix
(``Effect(label, op)``, used by ``povm_from_json``) is stored as given
after the full checks (shape, finite entries, Hermiticity), and its
coordinates are read from it once.
Construction checks only structure, so defective candidates can be built
and inspected; ``validate`` reports positivity and completeness, once per
POVM object, and the Born-rule evaluators refuse POVMs that fail it.
"""

from __future__ import annotations

import functools
import json
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidPovm, InvalidState, NotHermitian
from .qubit import (
    ID2,
    TOL,
    QubitState,
    TwoQubitState,
    _born,
    _coordinate_eigenvalues,
    _freeze,
    _pauli_coordinates,
    _sigma,
    is_hermitian,
    unit3,
)


@dataclass(frozen=True, eq=False)
class Effect:
    """One labelled POVM outcome operator (Hermitian 2x2)."""

    label: str
    op: np.ndarray

    def __post_init__(self):
        m = np.array(self.op, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"effect operator must be 2x2, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("effect operator entries must be finite")
        if not is_hermitian(m):
            raise NotHermitian(f"effect {self.label!r} is not Hermitian")
        _freeze(self, op=m, _pauli=_pauli_coordinates(m))  # op = (t + r.sigma)/2

    @classmethod
    def _from_coordinates(cls, label: str, t, r) -> Effect:
        """Effect (t + r.sigma)/2 the package built itself: no checks."""
        effect = object.__new__(cls)
        object.__setattr__(effect, "label", label)
        pauli = np.array([t, *r], dtype=float)
        _freeze(effect, op=0.5 * (pauli[0] * ID2 + _sigma(*pauli[1:])), _pauli=pauli)
        return effect

    def min_eigenvalue(self) -> float:
        return _coordinate_eigenvalues(self._pauli)[0]


@dataclass(frozen=True, eq=False)
class Povm:
    """Ordered, uniquely labelled set of effects."""

    effects: tuple[Effect, ...]

    def __post_init__(self):
        effects = tuple(self.effects)
        if not effects:
            raise ValueError("a POVM needs at least one effect")
        labels = [e.label for e in effects]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate outcome labels: {labels}")
        object.__setattr__(self, "effects", effects)
        _freeze(self, _pauli=np.stack([e._pauli for e in effects]))  # (t, r) rows

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(e.label for e in self.effects)

    def effect(self, label: str) -> Effect:
        for e in self.effects:
            if e.label == label:
                return e
        raise KeyError(label)

    def __len__(self) -> int:
        return len(self.effects)

    def __iter__(self):
        return iter(self.effects)

    @functools.cached_property
    def _report(self) -> ValidationReport:
        """``validate``'s report, computed on first use and kept: the
        effects are frozen, so one check per object is enough."""
        mins = tuple(e.min_eigenvalue() for e in self.effects)
        total = np.sum([e.op for e in self.effects], axis=0)
        defect = float(np.max(np.abs(total - ID2)))
        failures = []
        for e, lo in zip(self.effects, mins):
            if lo < -TOL:
                failures.append(f"effect {e.label!r} has eigenvalue {lo}")
        if defect > TOL:
            failures.append(f"completeness defect {defect}")
        return ValidationReport(
            min_eigenvalues=mins,
            completeness_defect=defect,
            tolerance=TOL,
            passes=not failures,
            failures=tuple(failures),
        )


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking a POVM: per-effect minimum eigenvalues and the
    completeness defect max|sum(effects) - identity|."""

    min_eigenvalues: tuple[float, ...]
    completeness_defect: float
    tolerance: float
    passes: bool
    failures: tuple[str, ...]


def projective_povm(a) -> Povm:
    """Sharp two-outcome measurement along a unit direction: (1 +- a.sigma)/2."""
    u = unit3(a)
    return Povm(
        (Effect._from_coordinates("+", 1.0, u), Effect._from_coordinates("-", 1.0, -u))
    )


def validate(povm: Povm) -> ValidationReport:
    """Check positivity of every effect and completeness of the sum to TOL.

    Runs once per POVM object; later calls return the same report."""
    return povm._report


def _require_valid(povm: Povm) -> None:
    if not povm._report.passes:
        raise InvalidPovm("; ".join(povm._report.failures))


def outcome_probabilities(povm: Povm, state: QubitState) -> list[tuple[str, float]]:
    """Born-rule probabilities (t + r.m)/2, in effect order.

    Negatives down to -TOL, the allowance validation grants, are clamped to
    0 and flagged with a RuntimeWarning so sampling stays deterministic.
    """
    _require_valid(povm)
    if not isinstance(state, QubitState):
        raise InvalidState("expected a QubitState")
    out = []
    for e, p in zip(povm.effects, _born(povm._pauli, state).tolist()):
        if -TOL <= p < 0.0:
            warnings.warn(
                f"clamped negative probability {p} for outcome {e.label!r}",
                RuntimeWarning,
                stacklevel=2,
            )
            p = 0.0
        out.append((e.label, p))
    return out


def two_party_probabilities(
    povm1: Povm, povm2: Povm, state: TwoQubitState
) -> np.ndarray:
    """Joint outcome matrix p[i, j] = Re tr((effect1_i x effect2_j) rho4),
    evaluated as A T B^T / 4 from the effects' Pauli coordinates (rows of
    A and B) and the state's T[mu, nu] = Re tr((sigma_mu x sigma_nu) rho4).

    Row sums depend only on povm1 and the reduced state of qubit 1, which
    is the exact operational statement that observer 2's choice of
    measurement cannot be detected on observer 1's side.
    """
    _require_valid(povm1)
    _require_valid(povm2)
    if not isinstance(state, TwoQubitState):
        raise InvalidState("expected a TwoQubitState")
    return 0.25 * (povm1._pauli @ state._pauli @ povm2._pauli.T)


def povm_to_json(povm: Povm) -> str:
    """Serialize as a JSON document; complex entries become [re, im] pairs.

    Round-trips bit-exactly at double precision.
    """
    effects = []
    for e in povm.effects:
        flat = [[z.real, z.imag] for z in e.op.reshape(-1)]
        effects.append({"label": e.label, "op": flat})
    return json.dumps({"effects": effects}, indent=2)


def povm_from_json(text: str) -> Povm:
    doc = json.loads(text)
    effects = []
    for item in doc["effects"]:
        entries = [complex(re, im) for re, im in item["op"]]
        if len(entries) != 4:
            raise ValueError("each effect needs exactly 4 complex entries")
        op = np.array(entries, dtype=complex).reshape(2, 2)
        effects.append(Effect(item["label"], op))
    return Povm(tuple(effects))
