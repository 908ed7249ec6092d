"""Pieces shared by the workload modules.

A workload module provides ``make_inputs(seed, smoke)``, which uses numpy
only and runs before ``spinjoint`` is imported, and ``build(sj, inputs)``,
which turns the inputs into ``Op``s once the package is loaded.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

SIGMAS = 5.0  # Monte Carlo tallies must sit within this many standard errors


@dataclass
class Op:
    """One timed call into the library and how to judge its output.

    ``call`` makes the public calls (its output is checked by ``check``,
    which returns a list of problems, and hashed through ``encode``);
    ``items`` is what the op adds to items_per_s.  ``counts`` gives the
    traced run's counters for an output.  ``notes`` counts findings in
    the output that are reported but are not failures.
    """

    kind: str
    call: Callable[[], object]
    items: int
    check: Callable[[object], list]
    encode: Callable[[object], bytes]
    counts: Callable[[object], dict] | None = None
    notes: Counter = field(default_factory=Counter)


def dumps(obj) -> bytes:
    """Stable bytes for the output digest (floats keep all their digits)."""
    return json.dumps(obj, sort_keys=True, default=repr).encode()


def tally_problems(kind, counts: dict, n: int, probs: dict) -> list:
    """A tally of n draws against its Born probabilities: the counts sum to
    n, cover the same outcomes, and each lies within SIGMAS standard
    errors (plus one count for rounding at p = 0 or 1)."""
    problems = []
    if sum(counts.values()) != n:
        problems.append(f"{kind}: counts sum to {sum(counts.values())}, not {n}")
    if set(counts) != set(probs):
        problems.append(f"{kind}: outcomes {sorted(counts)} != {sorted(probs)}")
        return problems
    for key, p in probs.items():
        sigma = math.sqrt(n * p * (1.0 - p)) if 0.0 < p < 1.0 else 0.0
        if abs(counts[key] - n * p) > SIGMAS * sigma + 1.0:
            problems.append(f"{kind}: outcome {key} count {counts[key]} vs {n * p:.1f}")
    return problems


def close(kind, name, got, want, tol) -> list:
    if not abs(got - want) <= tol:
        return [f"{kind}: {name} {got!r} differs from {want!r} by more than {tol}"]
    return []
