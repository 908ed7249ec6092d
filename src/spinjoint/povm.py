"""Generalized one-qubit measurements.

A ``Povm`` is an ordered, uniquely labelled set of outcome operators
(t + r.sigma)/2, held only as one (k, 4) array of their real Pauli rows
(t, r).  POVMs the package builds start from the rows, with no checks.
A user-supplied matrix (``Effect(label, op)``, used by ``povm_from_json``)
is kept as given after the full checks (a hashable label, shape, finite
entries, Hermiticity), and its row is read from the same one read of its
entries.
``povm.effects`` yields one ``Effect`` per outcome; a package-built POVM
makes their matrices from the rows only when asked (iteration,
``effect(label)``, JSON).  ``povm_to_json`` writes the bytes that
``json.dumps(doc, indent=2)`` would, directly, without json's pure-Python
encoder.
Construction checks only structure, so defective candidates can be built
and inspected; ``validate`` reports positivity and completeness from the
rows, once per POVM object, and the Born-rule evaluators refuse POVMs
that fail it.  A state is its row too, so one-party probabilities come
from one kernel over (N, 4) state rows, ``_probabilities``, with no
matrix; ``outcome_probabilities`` is its batch of one.
"""

from __future__ import annotations

import cmath
import functools
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import InvalidPovm, InvalidState, NotHermitian
from .qubit import (
    TOL,
    QubitState,
    TwoQubitState,
    _coordinate_eigenvalues,
    _freeze,
    _operators,
    _pauli_coordinates,
    is_hermitian,
    unit3,
)


@dataclass(frozen=True, eq=False)
class Effect:
    """One labelled POVM outcome operator (Hermitian 2x2)."""

    label: str
    op: np.ndarray

    def __post_init__(self):
        try:
            hash(self.label)  # Povm's duplicate-label check puts it in a set
        except TypeError as exc:
            raise ValueError(f"effect label {self.label!r} is not hashable") from exc
        m = np.array(self.op, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"effect operator must be 2x2, got {m.shape}")
        entries = m.reshape(4).tolist()  # read once, as Python complex numbers
        if not all(map(cmath.isfinite, entries)):
            raise ValueError("effect operator entries must be finite")
        if not is_hermitian(m):
            raise NotHermitian(f"effect {self.label!r} is not Hermitian")
        _freeze(self, op=m, _pauli=_pauli_coordinates(entries))  # op = (t + r.sigma)/2


@dataclass(frozen=True, eq=False, init=False)
class Povm:
    """Ordered, uniquely labelled set of effects (t + r.sigma)/2, held as
    one (k, 4) array of their Pauli rows (t, r)."""

    labels: tuple[str, ...]
    _pauli: np.ndarray = field(repr=False)

    def __init__(self, effects: tuple[Effect, ...]):
        effects = tuple(effects)
        if not effects:
            raise ValueError("a POVM needs at least one effect")
        labels = tuple(e.label for e in effects)
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate outcome labels: {list(labels)}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "effects", effects)
        _freeze(self, _pauli=np.stack([e._pauli for e in effects]))

    @classmethod
    def _from_coordinates(cls, labels: tuple[str, ...], rows: np.ndarray) -> Povm:
        """Effects (t + r.sigma)/2 the package built itself from their
        (k, 4) rows (t, r): no checks."""
        povm = object.__new__(cls)
        object.__setattr__(povm, "labels", labels)
        _freeze(povm, _pauli=rows)
        return povm

    @functools.cached_property
    def effects(self) -> tuple[Effect, ...]:
        """The effects; for a package-built POVM, unchecked read-only
        operators 0.5 (t + r.sigma) made from the rows on first use."""
        ops = _operators(self._pauli)
        views = tuple(object.__new__(Effect) for _ in self.labels)
        for e, label, op, row in zip(views, self.labels, ops, self._pauli):
            vars(e).update(label=label, op=op, _pauli=row)  # read-only views
        return views

    def effect(self, label: str) -> Effect:
        for e in self.effects:
            if e.label == label:
                return e
        raise KeyError(label)

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.effects)

    @functools.cached_property
    def _report(self) -> ValidationReport:
        """``validate``'s report, computed on first use and kept (the
        effects are frozen); the sum adds each row's entries (t +- z)/2
        and (x + iy)/2 in order, as the matrices 0.5 (t + r.sigma) would."""
        mins = tuple(_coordinate_eigenvalues(self._pauli)[0].tolist())
        up = down = off = 0.0
        for t, x, y, z in self._pauli.tolist():
            up += 0.5 * (t + z)
            down += 0.5 * (t - z)
            off += 0.5 * complex(x, y)
        defect = max(abs(up - 1.0), abs(down - 1.0), abs(off))
        failures = []
        for label, lo in zip(self.labels, mins):
            if lo < -TOL:
                failures.append(f"effect {label!r} has eigenvalue {lo}")
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
    return Povm._from_coordinates(("+", "-"), np.array([[1.0, *u], [1.0, *-u]]))


def validate(povm: Povm) -> ValidationReport:
    """Check positivity of every effect and completeness of the sum to TOL.

    Runs once per POVM object; later calls return the same report."""
    return povm._report


def _require_valid(povm: Povm) -> None:
    if not povm._report.passes:
        raise InvalidPovm("; ".join(povm._report.failures))


def _probabilities(povm: Povm, rows: np.ndarray) -> np.ndarray:
    """Born-rule table p[i, j] = (t_j s_i + r_j.m_i)/2 of the effects
    (t_j + r_j.sigma)/2 on the states (s_i + m_i.sigma)/2, from their
    (N, 4) Pauli rows (s, m): one row of probabilities per state.

    Negatives down to -TOL lie within the allowance validation grants: that
    rounding is already ruled on, so they are set to 0 without a warning.
    """
    _require_valid(povm)
    probs = 0.5 * (povm._pauli @ rows[..., None])[..., 0]
    probs[(probs >= -TOL) & (probs < 0.0)] = 0.0
    return probs


def outcome_probabilities(povm: Povm, state: QubitState) -> list[tuple[str, float]]:
    """Born-rule probabilities (t + r.m)/2, in effect order: the kernel
    ``_probabilities`` on a batch of one state, clamping included."""
    if not isinstance(state, QubitState):
        _require_valid(povm)  # a defective POVM is reported before the state
        raise InvalidState("expected a QubitState")
    return list(zip(povm.labels, _probabilities(povm, state._pauli[None])[0].tolist()))


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


# One effect of povm_to_json's document, laid out as json.dumps(indent=2) does.
_EFFECT_JSON = ('    {\n      "label": %s,\n      "op": [\n'
                + ",\n".join(["        [\n          %r,\n          %r\n        ]"] * 4)
                + "\n      ]\n    }")


def povm_to_json(povm: Povm) -> str:
    """Serialize as a JSON document; complex entries become [re, im] pairs.

    The text is json.dumps({"effects": [{"label": ..., "op": ...}, ...]},
    indent=2) byte for byte, written directly: the entries are finite, so
    float.__repr__ is json's own float text, and a str label is escaped by
    json's own encode_basestring_ascii.  Round-trips bit-exactly at double
    precision.
    """
    effects = []
    for e in povm.effects:
        label = e.label
        text = encode_basestring_ascii(label) if isinstance(label, str) else json.dumps(label)
        flat = [x for z in e.op.reshape(4).tolist() for x in (z.real, z.imag)]
        effects.append(_EFFECT_JSON % (text, *flat))
    return '{\n  "effects": [\n' + ",\n".join(effects) + "\n  ]\n}"


def povm_from_json(text: str) -> Povm:
    """The POVM of a ``povm_to_json`` document; any malformed one (syntax, layout,
    entries, an unhashable label) raises ValueError, a non-Hermitian matrix NotHermitian."""
    doc = json.loads(text)
    try:
        effects = []
        for item in doc["effects"]:
            entries = [complex(re, im) for re, im in item["op"]]  # 2x2 only from 4 entries
            effects.append(Effect(item["label"], [entries[:2], entries[2:]]))
        return Povm(tuple(effects))
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed POVM document: {exc!r}") from exc
