"""Monte Carlo outcome sampling.

Draws come from a counter-addressable Philox stream keyed by
(seed, stream_id): raw 64-bit word i of a stream is a pure function of
(seed, stream_id, i).  Trial ranges can therefore be evaluated in chunks
or fanned out across workers and the merged tallies are identical to a
serial run, for any partition.  ``uniforms`` is the doubles u = (w >> 11)·2⁻⁵³
of the words w.  Every count walks its words through ``_block_sum`` in blocks
of at most ``_BLOCK`` (512 KiB, sized for the L2 cache), so memory does not grow
with n, and builds its word thresholds once (``_word_bounds``), against which
``_tally`` counts each block.  One- and two-party samples are both ``SampleStats``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlations import Settings, _analyzer_tables, singlet
from .joint import JointSpec, outcome_values
from .povm import Povm, outcome_probabilities, projective_povm, two_party_probabilities
from .qubit import QubitState

GENERATOR_NAME = "Philox"
_WORDS_PER_COUNTER = 4  # Philox emits 4 64-bit words per counter step
_BLOCK = 1 << 16  # draws per block of each range: 512 KiB of 64-bit words


@dataclass(frozen=True)
class SeededStream:
    """Reproducible random stream addressed by (seed, stream_id)."""

    seed: int
    stream_id: int = 0

    def uniforms(self, offset: int, count: int) -> np.ndarray:
        """Doubles [offset, offset + count) of this stream: u = (w >> 11)·2⁻⁵³
        of each raw word w, bit for bit what numpy's ``Generator.random`` gives.

        Stable under chunking: concatenating adjacent blocks reproduces a
        single larger block exactly.
        """
        if count < 0:
            raise ValueError("offset and count must be nonnegative")
        return (self._reader(offset)(count) >> 11) * 2.0**-53

    def _reader(self, offset: int):
        """``random_raw`` of a Philox generator whose next word is word ``offset``."""
        if offset < 0:
            raise ValueError("offset and count must be nonnegative")
        key = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        bit_gen = np.random.Philox(key)
        bit_gen.advance(offset // _WORDS_PER_COUNTER)
        bit_gen.random_raw(offset % _WORDS_PER_COUNTER)  # the words before offset in its counter
        return bit_gen.random_raw

    def metadata(self, n: int) -> dict:
        return {
            "seed": self.seed,
            "stream_id": self.stream_id,
            "n": n,
            "generator": GENERATOR_NAME,
        }


@dataclass(frozen=True)
class SampleStats:
    """Tally of labelled draws plus moments of a numeric decoding."""

    n: int
    counts: dict
    mean: float
    variance: float
    stderr: float


def sample_indices(probabilities, uniforms) -> np.ndarray:
    """Inverse-CDF lookup of outcome indices for given uniforms.

    Tiny negative probabilities are clamped at zero.  Every draw at or
    above the last inner boundary of the cumulative sum goes to the last
    outcome, so a total that rounds below 1 cannot push a draw out of range.
    """
    p = np.maximum(np.asarray(probabilities, dtype=float), 0.0)
    return np.searchsorted(np.cumsum(p)[:-1], np.asarray(uniforms), side="right")


def _word_bounds(probabilities) -> list:
    """Word thresholds of an outcome table: the package's one float-to-word
    encoding.  The inner boundaries c of the cumulative sum of the probabilities,
    each clamped at 0 (nan counts as 0), are capped at 1; u = (w >> 11)·2⁻⁵³ < c
    exactly when w < ceil(c·2⁵³) << 11: 0 at c = 0, and 2⁶⁴, above every word,
    at c = 1 (numpy compares uint64 words with that Python int exactly)."""
    cum = np.cumsum(np.fmax(np.asarray(probabilities, dtype=float), 0.0))[:-1]
    return [math.ceil(c * 2**53) << 11 for c in np.minimum(cum, 1.0).tolist()]


def _tally(bounds, words, where=None) -> np.ndarray:
    """Outcome counts of the raw stream words ``words``, or of those where
    the mask ``where`` is true, against the thresholds ``bounds`` of
    ``_word_bounds``: the package's one count step.

    ``below[k]`` words fall under ``bounds[k]``, so outcome k gets
    ``below[k] - below[k - 1]``: the same counts as binning
    ``sample_indices`` of the words' doubles, without making the doubles,
    sorting or indexing every draw.
    """
    if where is None:
        below = [np.count_nonzero(words < b) for b in bounds]
        return np.diff([0, *below, len(words)])
    below = [np.count_nonzero((words < b) & where) for b in bounds]
    return np.diff([0, *below, np.count_nonzero(where)])


def _block_sum(count, stream: SeededStream, offsets, n: int):
    """Sum of ``count`` over the aligned blocks of the draw ranges [o, o + n)
    of ``stream``, one block of at most ``_BLOCK`` raw Philox words per
    offset: the package's one walk over stream draws.  Each range keeps one
    reader.  No block outlives its ``count`` call: blocks go straight
    into its arguments, never into a loop variable while the next ones are
    drawn, so memory holds one block per range."""
    if n < 1:
        raise ValueError("n must be >= 1")
    reads = [stream._reader(o) for o in offsets]
    return sum(
        count(*(read(min(_BLOCK, n - start)) for read in reads))
        for start in range(0, n, _BLOCK)
    )


def _counts(probabilities, stream: SeededStream, offset: int, n: int) -> np.ndarray:
    """Counts of the n draws [offset, offset + n) of ``stream`` over an
    outcome table of any shape, read in row-major order, summed over blocks."""
    p = np.asarray(probabilities, dtype=float)
    bounds = _word_bounds(p)
    return _block_sum(lambda w: _tally(bounds, w), stream, (offset,), n).reshape(p.shape)


def _stats_from_values(labels, tallies, values) -> SampleStats:
    n = int(sum(tallies))
    counts = {label: int(c) for label, c in zip(labels, tallies)}
    vals = np.asarray(values, dtype=float)
    weights = np.asarray(tallies, dtype=float)
    mean = float(weights @ vals) / n
    variance = float(weights @ (vals - mean) ** 2) / n
    return SampleStats(
        n=n,
        counts=counts,
        mean=mean,
        variance=variance,
        stderr=math.sqrt(variance / n),
    )


def _first_slot(label: str) -> float:
    return float(outcome_values(label)[0])


def sample_povm(
    povm: Povm,
    state: QubitState,
    n: int,
    stream: SeededStream,
    offset: int = 0,
) -> SampleStats:
    """Draw n outcome labels via inverse CDF on the Born probabilities.

    The moments are those of the first label slot read as +-1.
    ``offset`` selects where in the stream the draws start, so several
    collections can share one stream without overlap.
    """
    labels, probs = zip(*outcome_probabilities(povm, state))
    tallies = _counts(probs, stream, offset, n)
    return _stats_from_values(labels, tallies, [_first_slot(l) for l in labels])


def sample_two_party(
    povm1: Povm,
    setting,
    n: int,
    stream: SeededStream,
    offset: int = 0,
) -> SampleStats:
    """Sample n singlet trials: povm1 on qubit 1, a sharp analyzer along
    ``setting`` on qubit 2.

    Counts are keyed by (observer-1 label, observer-2 result +-1); the
    moments are those of (first slot of the label) * result, the
    empirical E(A_J, B).
    """
    povm2 = projective_povm(setting)
    probs = two_party_probabilities(povm1, povm2, singlet())
    tallies = _counts(probs, stream, offset, n).reshape(-1)
    keys = [(l1, outcome_values(l2)[0]) for l1 in povm1.labels for l2 in povm2.labels]
    return _stats_from_values(keys, tallies, [_first_slot(l1) * b for l1, b in keys])


def _analyzer_counts(spec: JointSpec, settings: Settings, n: int, stream: SeededStream):
    """Monte Carlo twin of ``correlations._analyzer_tables``: the outcome
    values and, per analyzer, the counts of n singlet trials in a table of
    the same shape.  Analyzer b uses draws [0, n), b_prime [n, 2n)."""
    values, tables = _analyzer_tables(spec, settings)
    return values, [_counts(p, stream, k * n, n) for k, p in enumerate(tables)]


@dataclass(frozen=True)
class SignallingResult:
    """Empirical p(A_J = A'_J) under each analyzer plus the two-proportion
    z-score of their difference."""

    stats_b: SampleStats
    stats_b_prime: SampleStats
    z_score: float


def signalling_experiment(
    spec: JointSpec,
    settings: Settings,
    n: int,
    stream: SeededStream,
) -> SignallingResult:
    """Try to signal: n trials with observer 2 on b, n on b_prime, then
    compare observer 1's rate of equal outcomes.

    The analytic rates are identical, so the z-score is that of a true
    null; |z| staying small is the Monte Carlo no-signalling check.
    """
    values, counts = _analyzer_counts(spec, settings, n, stream)
    same = values[:, 0] == values[:, 1]
    equal_counts = [int(c[same].sum()) for c in counts]
    stats_b, stats_b_prime = [
        _stats_from_values(["equal", "unequal"], [equal, n - equal], [1.0, 0.0])
        for equal in equal_counts
    ]
    pooled = sum(equal_counts) / (2 * n)
    denom = math.sqrt(max(pooled * (1.0 - pooled) * 2.0 / n, 0.0))
    diff = stats_b.mean - stats_b_prime.mean
    z = 0.0 if diff == 0.0 else (math.inf if denom == 0.0 else diff / denom)
    return SignallingResult(stats_b=stats_b, stats_b_prime=stats_b_prime, z_score=z)
