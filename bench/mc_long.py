"""mc_long: a pass of seven large Monte Carlo calls.

Three ``sample_povm`` calls (general family on a pure and on a mixed state,
saturating family on a mixed state), two ``sample_two_party`` calls (at
the ``optimal_settings`` analyzers b and b'), one ``signalling_experiment``
and one ``bb84_eve``.  Every call draws 2**24 uniforms in total (128 MiB of doubles,
more than the 105 MiB L3 of the reference machine), so Philox generation
and the outcome tally dominate; spec and POVM construction are negligible.
Specs, states, stream seeds, stream ids and offsets come from the seed.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from common import Op, close, dumps, tally_problems

DRAWS = 1 << 24
SMOKE_DRAWS = 1 << 12
# With an odd number of ops per pass, the median and the 75th percentile
# fall inside one op's block of repeats, not between two kinds of op.
TAIL_PCT = 75  # 6 passes of 7 ops leave 10 ops above the 75th percentile
MIN_PASSES = 6
ITEMS = "draws"


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _interior(rng):
    """(theta, a, alpha, alpha') strictly inside the admissible region."""
    theta = rng.uniform(0.15, math.pi - 0.15)
    alpha = rng.uniform(0.3, 0.9)
    c2 = math.cos(theta) ** 2
    alpha_p = rng.uniform(0.3, 0.95) * math.sqrt((1 - alpha**2) / (1 - alpha**2 * c2))
    return {"theta": theta, "a": _unit(rng), "alpha": alpha, "alpha_p": alpha_p}


def _stream(rng):
    return {
        "seed": int(rng.integers(0, 2**32)),
        "stream_id": int(rng.integers(0, 2**16)),
        "offset": int(rng.integers(0, 2**20)),
    }


def _pass(rng, draws):
    ops = []
    for bloch_scale in (1.0, rng.uniform(0.2, 0.9)):
        ops.append({"kind": "sample_povm", "saturating": False, **_interior(rng),
                    "bloch": bloch_scale * _unit(rng), "n": draws, **_stream(rng)})
    theta = rng.uniform(0.15, math.pi - 0.15)
    ops.append({"kind": "sample_povm", "saturating": True, "theta": theta,
                "a": _unit(rng), "bloch": rng.uniform(0.2, 0.9) * _unit(rng),
                "n": draws, **_stream(rng)})
    for use_b_prime in (False, True):
        ops.append({"kind": "sample_two_party", **_interior(rng),
                    "use_b_prime": use_b_prime, "n": draws, **_stream(rng)})
    ops.append({"kind": "signalling_experiment", **_interior(rng),
                "n": draws // 2, **_stream(rng)})
    ops.append({"kind": "bb84_eve", "theta": rng.uniform(math.pi / 4, math.pi / 2),
                "n": -(-draws // 12), **_stream(rng)})
    return ops


def make_inputs(seed, smoke):
    draws = SMOKE_DRAWS if smoke else DRAWS
    timed = _pass(np.random.default_rng([seed, 1]), draws)
    warm = _pass(np.random.default_rng([seed, 2]), SMOKE_DRAWS)
    return timed, warm


def _spec(sj, p):
    if p.get("saturating"):
        alpha = sj.max_symmetric_alpha(p["theta"])
        return sj.JointSpec.from_angle(p["theta"], alpha, alpha, a=p["a"])
    return sj.JointSpec.from_angle(p["theta"], p["alpha"], p["alpha_p"], a=p["a"])


def _povm(sj, p):
    spec = _spec(sj, p)
    if p.get("saturating"):
        return spec, sj.optimal_joint_povm(spec)
    return spec, sj.general_joint_povm(spec)


def _stats_dict(stats):
    return {"n": stats.n, "counts": stats.counts, "mean": stats.mean,
            "variance": stats.variance, "stderr": stats.stderr}


def _sample_povm(sj, p):
    def call():
        _, povm = _povm(sj, p)
        stream = sj.SeededStream(p["seed"], p["stream_id"])
        return sj.sample_povm(povm, sj.state_from_bloch(p["bloch"]), p["n"], stream,
                              offset=p["offset"])

    _, povm = _povm(sj, p)
    probs = dict(sj.outcome_probabilities(povm, sj.state_from_bloch(p["bloch"])))

    def check(stats):
        problems = tally_problems("sample_povm", stats.counts, p["n"], probs)
        if stats.n != p["n"]:
            problems.append(f"sample_povm: n = {stats.n}")
        mean = sum((1 if k[0] == "+" else -1) * c for k, c in stats.counts.items()) / p["n"]
        return problems + close("sample_povm", "mean", stats.mean, mean, 1e-12)

    return Op("sample_povm", call, p["n"], check, lambda s: dumps(_stats_dict(s)))


def _sample_two_party(sj, p):
    def setting(spec):
        settings = sj.optimal_settings(spec)
        return settings.b_prime if p["use_b_prime"] else settings.b

    def call():
        spec, povm = _povm(sj, p)
        stream = sj.SeededStream(p["seed"], p["stream_id"])
        return sj.sample_two_party(povm, setting(spec), p["n"], stream, offset=p["offset"])

    spec, povm = _povm(sj, p)
    table = sj.two_party_probabilities(povm, sj.projective_povm(setting(spec)), sj.singlet())
    probs = {(label, b): table[i, j] for i, label in enumerate(povm.labels)
             for j, b in enumerate((1, -1))}

    def check(tally):
        problems = tally_problems("sample_two_party", tally.counts, p["n"], probs)
        if tally.n != p["n"]:
            problems.append(f"sample_two_party: n = {tally.n}")
        return problems

    def encode(tally):
        return dumps({"n": tally.n, "counts": sorted(tally.counts.items())})

    return Op("sample_two_party", call, p["n"], check, encode)


def _signalling(sj, p):
    n = p["n"]

    def call():
        spec = _spec(sj, p)
        return sj.signalling_experiment(spec, sj.optimal_settings(spec), n,
                                        sj.SeededStream(p["seed"], p["stream_id"]))

    spec = _spec(sj, p)
    p_same = sj.no_signalling_probe(spec, sj.optimal_settings(spec))[0]
    sigma = math.sqrt(p_same * (1 - p_same) / n)

    def check(result):
        problems = []
        for name, stats in (("b", result.stats_b), ("b_prime", result.stats_b_prime)):
            if stats.n != n or sum(stats.counts.values()) != n:
                problems.append(f"signalling_experiment: branch {name} tallies {stats.counts}")
            problems += close("signalling_experiment", f"p_same_{name}", stats.mean,
                              p_same, 5 * sigma + 1 / n)
        if not abs(result.z_score) < 5:
            problems.append(f"signalling_experiment: z = {result.z_score}")
        return problems

    def encode(result):
        return dumps([_stats_dict(result.stats_b), _stats_dict(result.stats_b_prime),
                      result.z_score])

    return Op("signalling_experiment", call, 2 * n, check, encode)


def _bb84(sj, p):
    n = p["n"]

    def call():
        return sj.bb84_eve(n, sj.SeededStream(p["seed"], p["stream_id"]), theta=p["theta"])

    alpha = sj.max_symmetric_alpha(p["theta"])
    success = (1 + alpha) / 2

    def check(report):
        trials = 4 * n
        problems = []
        if report.n_trials != trials:
            problems.append(f"bb84_eve: n_trials = {report.n_trials}")
        problems += close("bb84_eve", "alpha", report.alpha, alpha, 1e-15)
        problems += close("bb84_eve", "analytic success",
                          report.guess_success_prob_after_announcement, success, 1e-15)
        sigma = math.sqrt(success * (1 - success) / trials)
        return problems + close("bb84_eve", "empirical success", report.empirical_success,
                                success, 5 * sigma)

    return Op("bb84_eve", call, 12 * n, check,
              lambda r: dumps(dataclasses.asdict(r)))


_BUILDERS = {
    "sample_povm": _sample_povm,
    "sample_two_party": _sample_two_party,
    "signalling_experiment": _signalling,
    "bb84_eve": _bb84,
}


def build(sj, inputs):
    return [_BUILDERS[p["kind"]](sj, p) for p in inputs]


def corrupt(out):
    """A wrong tally for the first op of a pass (a sample_povm)."""
    counts = dict(out.counts)
    first = next(iter(counts))
    counts[first] += 1
    return dataclasses.replace(out, counts=counts)
