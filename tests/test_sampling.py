import math
import tracemalloc

import numpy as np
import pytest

from helpers import random_admissible_spec, random_unit
from spinjoint import (
    ATOL,
    TOL,
    JointSpec,
    SeededStream,
    Settings,
    bb84_eve,
    general_joint_povm,
    joint_correlations,
    optimal_joint_povm,
    optimal_settings,
    outcome_values,
    projective_povm,
    sample_indices,
    sample_povm,
    sample_two_party,
    signalling_experiment,
    state_from_bloch,
)
from spinjoint import sampling
from spinjoint.sampling import _tally

X = np.array([1.0, 0.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])
SQ2 = math.sqrt(2.0)


def test_uniform_blocks_are_chunk_stable():
    stream = SeededStream(seed=20240811, stream_id=3)
    whole = stream.uniforms(0, 1000)
    pieces = []
    offset = 0
    for size in (1, 7, 13, 100, 879):
        pieces.append(stream.uniforms(offset, size))
        offset += size
    assert np.array_equal(np.concatenate(pieces), whole)


def test_streams_are_reproducible_and_distinct():
    a = SeededStream(1, 0).uniforms(0, 100)
    b = SeededStream(1, 0).uniforms(0, 100)
    c = SeededStream(1, 1).uniforms(0, 100)
    d = SeededStream(2, 0).uniforms(0, 100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_sample_indices_covers_edges():
    # outcome i covers [cum_{i-1}, cum_i), so u = 0.5 already lands in bin 1
    idx = sample_indices([0.5, 0.5], np.array([0.0, 0.25, 0.5, 0.75, 1.0 - 1e-16]))
    assert idx.tolist() == [0, 0, 1, 1, 1]
    # clamped negative and stretched final bin
    idx = sample_indices([1.0, -1e-15], np.array([1.0 - 1e-16]))
    assert idx.tolist() == [0]


def _doubles(words):
    """The uniforms of raw Philox words, as ``Generator.random`` makes them."""
    return (words >> 11) * 2.0**-53


def test_tally_matches_sample_indices_oracle():
    # binning the searchsorted indices of the words' doubles is the
    # independent reference; the words hit every inner boundary from both
    # sides (with K = ceil(cum 2^53), K << 11 is the least word whose double
    # is not below cum and (K << 11) - 1 the greatest one whose double is),
    # plus 0, 2^64 - 1 and random words
    rng = np.random.default_rng(4242)
    for _ in range(300):
        k = int(rng.integers(2, 9))
        kind = rng.integers(0, 3, size=k)  # 0: clamped negative, 1: zero, 2: positive
        kind[rng.integers(k)] = 2
        p = np.where(kind == 0, -rng.uniform(0.0, TOL, size=k), 0.0)
        positive = kind == 2
        p[positive] = rng.dirichlet(np.ones(positive.sum())) * (1.0 - rng.uniform(0.0, ATOL))
        cum = np.cumsum(np.maximum(p, 0.0))[:-1]
        edges = [math.ceil(c * 2**53) << 11 for c in cum]
        words = [w for e in edges for w in (e, e - 1) if 0 <= w < 1 << 64]
        w = np.concatenate(
            [np.array(words + [0, (1 << 64) - 1], dtype=np.uint64),
             rng.integers(0, 1 << 64, size=40, dtype=np.uint64, endpoint=False)]
        )
        rng.shuffle(w)
        expected = np.bincount(sample_indices(p, _doubles(w)), minlength=k)
        assert _tally(p, w).tolist() == expected.tolist()
        assert _tally(p, w[:0]).tolist() == [0] * k


def test_tally_where_counts_only_the_masked_words():
    rng = np.random.default_rng(4343)
    w = rng.integers(0, 1 << 64, size=5000, dtype=np.uint64, endpoint=False)
    for k in (2, 4, 8):
        p = rng.dirichlet(np.ones(k))
        for where in (rng.random(w.size) < 0.25, np.zeros(w.size, bool), np.ones(w.size, bool)):
            assert _tally(p, w, where).tolist() == _tally(p, w[where]).tolist()
        assert _tally(p, w, np.zeros(w.size, bool)).tolist() == [0] * k


TINY = 2.0**-1074  # the least subnormal


@pytest.mark.parametrize(
    "c",
    [-math.inf, -1.0, -TINY, 0.0, TINY, 3 * TINY, 2.0**-1022, 2.0**-53, 3 * 2.0**-53,
     0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), 0.1, 0.25 + 2.0**-53,
     1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52, 2.0, 1e308, math.inf, math.nan],
)
def test_word_threshold_matches_the_doubles(c):
    # words at 0, around 1/2, at the top of the range and on both sides of
    # c's own threshold; the word count below the threshold is the doubles' count
    near = [0, 1, 1 << 11, (1 << 63) - 1, 1 << 63, (1 << 64) - 1]
    if 0.0 < c < 1.0:
        k = math.ceil(c * 2**53)
        near += [m << 11 | low for m in (k - 1, k, k + 1) for low in (0, 1, 2047)]
    w = np.array([x for x in near if 0 <= x < 1 << 64], dtype=np.uint64)
    expected = np.count_nonzero(_doubles(w) < c)
    assert np.count_nonzero(w < sampling._word_bound(c)) == expected
    # through _tally, c as the one inner boundary (a negative c is clamped to 0)
    assert _tally([c, 0.0], w)[0] == expected


def test_tally_with_a_cumsum_past_one():
    # 0.33 + 0.56 + 0.11 rounds to 1 + 2^-52: every draw is below that
    # boundary, so the last outcome gets none, as with searchsorted
    p = [0.33, 0.56, 0.11, 0.0]
    assert np.cumsum(p)[2] == 1.0 + 2.0**-52
    w = np.array([0, (1 << 64) - 1, 1 << 63, *range((1 << 64) - 4096, 1 << 64, 512)],
                 dtype=np.uint64)
    expected = np.bincount(sample_indices(p, _doubles(w)), minlength=4)
    assert _tally(p, w).tolist() == expected.tolist()
    assert _tally(p, w)[3] == 0


@pytest.mark.parametrize("block, n", [(1, 13), (7, 100), (1000, 2503)])
def test_tallies_do_not_depend_on_block_size(monkeypatch, block, n):
    # n is not a multiple of the block; at the default block size every
    # call below is a single block
    assert n < sampling._BLOCK
    spec = JointSpec(X, Z, 0.4, 0.6)
    povm = general_joint_povm(spec)
    state = state_from_bloch((0.2, 0.1, -0.3))
    settings = Settings(random_unit(np.random.default_rng(3)), Z)
    stream = SeededStream(41, 2)

    def run():
        return (
            sample_povm(povm, state, n, stream, offset=5),
            sample_two_party(povm, settings.b, n, stream, offset=3),
            signalling_experiment(spec, settings, n, stream),
            bb84_eve(n, stream, theta=math.pi / 3),
        )

    whole = run()
    monkeypatch.setattr(sampling, "_BLOCK", block)
    assert run() == whole


def test_memory_does_not_grow_with_n():
    # draws are held one block per range at a time, so going from 2 to 8
    # blocks of trials adds (almost) nothing to the peak, and the peak stays
    # near one block for one-range samplers and three for bb84_eve's basis,
    # bit and outcome ranges; bb84_eve runs 4n trials
    spec = JointSpec(X, Z, 0.4, 0.6)
    povm = general_joint_povm(spec)
    state = state_from_bloch((0.2, 0.1, -0.3))
    settings = optimal_settings(spec)
    stream = SeededStream(43)
    runs = (  # (peak bound in blocks of 64-bit words, run)
        (1.5, lambda trials: sample_povm(povm, state, trials, stream)),
        (1.5, lambda trials: sample_two_party(povm, settings.b, trials, stream)),
        (1.5, lambda trials: signalling_experiment(spec, settings, trials, stream)),
        (4.5, lambda trials: bb84_eve(trials // 4, stream)),
    )

    def peak(run, trials):
        tracemalloc.start()
        try:
            run(trials)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    block_bytes = 8 * sampling._BLOCK
    for bound, run in runs:
        run(4)  # caches and first-call set-up stay out of the measurement
        small, large = peak(run, 2 * sampling._BLOCK), peak(run, 8 * sampling._BLOCK)
        assert large - small <= 1 << 20, (small, large)
        assert max(small, large) <= bound * block_bytes, (small / block_bytes, large / block_bytes)


def test_block_per_range_stays_cache_sized():
    # one block of 64-bit words per range is in memory at a time; bb84_eve walks three
    assert 8 * sampling._BLOCK <= 1 << 20


@pytest.mark.parametrize("block", [1, 7, 1000, 1 << 16])
@pytest.mark.parametrize("stream_id", [0, 5])
@pytest.mark.parametrize(
    "offsets", [(0,), (1,), (2,), (3,), (4,), (5,), (1, 2506, 5011), (0, 2503, 5006)]
)
def test_block_walk_reproduces_one_draw(monkeypatch, block, stream_id, offsets):
    # oracle: one fresh generator per range drawing o + n doubles, no advance;
    # the walk's raw words map to those doubles bit for bit; the offsets
    # cover every position within a Philox counter, alone and as three
    # ranges walked together with blocks that end off the counter grid
    seed, n = 2024, 2503
    monkeypatch.setattr(sampling, "_BLOCK", block)
    seen = [[] for _ in offsets]

    def count(*blocks):
        assert len(blocks) == len(offsets)
        for kept, w in zip(seen, blocks):
            assert w.dtype == np.uint64
            kept.append(w.copy())
        return 0

    sampling._block_sum(count, SeededStream(seed, stream_id), offsets, n)
    key = np.random.SeedSequence(entropy=seed, spawn_key=(stream_id,))
    for o, kept in zip(offsets, seen):
        expected = np.random.Generator(np.random.Philox(key)).random(o + n)[o:]
        words = np.concatenate(kept)
        assert np.array_equal(_doubles(words), expected), o


def test_negative_offsets_and_counts_are_refused():
    stream = SeededStream(8)
    povm = projective_povm(Z)
    message = "offset and count must be nonnegative"
    calls = (
        lambda: stream.uniforms(-1, 3),
        lambda: stream.uniforms(0, -1),
        lambda: sample_povm(povm, state_from_bloch(Z), 10, stream, offset=-1),
        lambda: sample_two_party(povm, X, 10, stream, offset=-2),
    )
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


def test_sample_povm_deterministic_outcome():
    stats = sample_povm(
        projective_povm(Z), state_from_bloch(Z), 1000, SeededStream(5)
    )
    assert stats.counts == {"+": 1000, "-": 0}
    assert stats.mean == 1.0
    assert stats.variance == 0.0


def test_sample_povm_balanced_coin():
    n = 100_000
    stats = sample_povm(
        projective_povm(Z), state_from_bloch((0, 0, 0)), n, SeededStream(6)
    )
    sigma = 0.5 / math.sqrt(n)
    assert abs(stats.counts["+"] / n - 0.5) < 5 * sigma
    assert stats.stderr == pytest.approx(math.sqrt(stats.variance / n))


def test_sample_povm_four_outcomes_near_quarter():
    spec = JointSpec(X, Z, 1 / SQ2, 1 / SQ2)
    povm = optimal_joint_povm(spec)
    n = 100_000
    stats = sample_povm(povm, state_from_bloch((0, 0, 0)), n, SeededStream(7))
    sigma = math.sqrt(0.25 * 0.75 / n)
    for label in ("++", "--", "+-", "-+"):
        assert abs(stats.counts[label] / n - 0.25) < 5 * sigma


def test_sample_povm_merges_identically_under_partition():
    # trial i's outcome is a pure function of (seed, stream_id, i): a
    # partitioned evaluation over the same range reproduces the tallies
    spec = JointSpec(X, Z, 0.4, 0.6)
    povm = general_joint_povm(spec)
    state = state_from_bloch((0.2, 0.1, -0.3))
    stream = SeededStream(99)
    n = 10_000
    serial = sample_povm(povm, state, n, stream)

    from spinjoint.povm import outcome_probabilities

    probs = [p for _, p in outcome_probabilities(povm, state)]
    merged = {label: 0 for label, _ in outcome_probabilities(povm, state)}
    labels = list(merged)
    for start, stop in ((0, 1234), (1234, 5000), (5000, n)):
        idx = sample_indices(probs, stream.uniforms(start, stop - start))
        for k, count in zip(*np.unique(idx, return_counts=True)):
            merged[labels[int(k)]] += int(count)
    assert merged == serial.counts


def test_sample_povm_value_decoding():
    spec = JointSpec(X, Z, 1 / SQ2, 1 / SQ2)
    povm = optimal_joint_povm(spec)
    state = state_from_bloch((0, 0, 0.8))
    n = 200_000
    stats = sample_povm(povm, state, n, SeededStream(8))
    # the second slot, decoded from the counts
    mean = sum(outcome_values(label)[1] * c for label, c in stats.counts.items()) / n
    stderr = math.sqrt((1.0 - mean * mean) / n)
    expected = spec.alpha_prime * 0.8  # a' = z here
    assert abs(mean - expected) < 5 * stderr


def test_empirical_alpha_estimate():
    spec = JointSpec(X, Z, 0.6, 0.5)
    povm = general_joint_povm(spec)
    bloch = 0.8 * X  # <a.sigma> = 0.8
    n = 200_000
    stats = sample_povm(povm, state_from_bloch(bloch), n, SeededStream(9))
    alpha_hat = stats.mean / 0.8
    assert abs(alpha_hat - spec.alpha) < 5 * stats.stderr / 0.8


def test_sample_two_party_correlation():
    rng = np.random.default_rng(83)
    spec = random_admissible_spec(rng)
    povm = general_joint_povm(spec)
    b = random_unit(rng)
    n = 200_000
    stats = sample_two_party(povm, b, n, SeededStream(10))
    assert stats.n == sum(stats.counts.values()) == n
    # the moments are those of (first slot) * b
    product = sum(outcome_values(l1)[0] * b2 * c for (l1, b2), c in stats.counts.items())
    assert stats.mean == pytest.approx(product / n, abs=1e-15)
    settings = Settings(b, b)
    expected = joint_correlations(spec, settings).e_ab
    assert abs(stats.mean - expected) < 5 * stats.stderr


def test_sample_two_party_sharp_anticorrelation():
    povm = projective_povm(Z)
    stats = sample_two_party(povm, Z, 100_000, SeededStream(11))
    assert stats.mean == -1.0
    assert stats.variance == 0.0
    assert all(
        count == 0
        for (l1, b), count in stats.counts.items()
        if (1 if l1 == "+" else -1) == b
    )


def test_analyzer_counts_match_two_party_tallies():
    # the shared two-analyzer run draws b from [0, n) and b_prime from [n, 2n)
    from spinjoint.sampling import _analyzer_counts

    rng = np.random.default_rng(89)
    for seed, n in ((0, 1), (17, 50), (31, 4000)):
        spec = random_admissible_spec(rng)
        settings = Settings(random_unit(rng), random_unit(rng))
        stream = SeededStream(seed)
        values, counts = _analyzer_counts(spec, settings, n, stream)
        povm = general_joint_povm(spec)
        assert [tuple(v) for v in values] == [outcome_values(l) for l in povm.labels]
        for k, direction in enumerate((settings.b, settings.b_prime)):
            tally = sample_two_party(povm, direction, n, stream, offset=k * n)
            assert counts[k].shape == (4, 2)
            assert counts[k].sum() == n
            expected = [[tally.counts[(l1, b)] for b in (1, -1)] for l1 in povm.labels]
            assert counts[k].tolist() == expected
    with pytest.raises(ValueError):
        _analyzer_counts(spec, settings, 0, stream)


def test_signalling_experiment_null():
    spec = JointSpec(X, Z, 1 / SQ2, 1 / SQ2)
    settings = optimal_settings(spec)
    result = signalling_experiment(spec, settings, 100_000, SeededStream(12))
    assert abs(result.z_score) < 5.0
    assert result.stats_b.mean == pytest.approx(0.5, abs=0.01)
    assert result.stats_b_prime.mean == pytest.approx(0.5, abs=0.01)
    assert result.stats_b.counts["equal"] + result.stats_b.counts["unequal"] == 100_000


def test_signalling_experiment_reproducible():
    spec = JointSpec(X, Z, 0.5, 0.5)
    settings = optimal_settings(spec)
    r1 = signalling_experiment(spec, settings, 10_000, SeededStream(13))
    r2 = signalling_experiment(spec, settings, 10_000, SeededStream(13))
    assert r1.stats_b.counts == r2.stats_b.counts
    assert r1.z_score == r2.z_score


_BAD_N_RUNS = {
    "sample_povm": lambda n: sample_povm(
        projective_povm(Z), state_from_bloch((0, 0, 0)), n, SeededStream(1)
    ),
    "sample_two_party": lambda n: sample_two_party(projective_povm(Z), X, n, SeededStream(1)),
    "signalling_experiment": lambda n: signalling_experiment(
        JointSpec(X, Z, 0.5, 0.5), Settings(X, Z), n, SeededStream(1)
    ),
    "bb84_eve": lambda n: bb84_eve(n, SeededStream(1)),
}


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("sampler", list(_BAD_N_RUNS))
def test_samplers_reject_bad_n(sampler, n):
    # one check, in the draw walk, serves every sampler
    with pytest.raises(ValueError, match="n must be >= 1"):
        _BAD_N_RUNS[sampler](n)
