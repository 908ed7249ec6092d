"""scalar_sweep: many independent scalar cases, one at a time.

A case is a random (theta, a, alpha, alpha', Bloch m).  Of every ten cases
eight are interior admissible, one saturates the bound exactly
(alpha = alpha' = max_symmetric_alpha(theta)) and one is clearly
inadmissible.  An admissible case runs the whole scalar chain
(JointSpec.from_angle, general_joint_povm, validate, outcome_probabilities,
optimal_settings, joint_correlations, born_correlations,
no_signalling_probe, evaluate_all) and a POVM JSON round trip; a
saturating case also builds optimal_joint_povm.  An inadmissible case
must raise BoundViolated.  The pass ends with one admissibility_scan over
all its cases.  Almost no sampling happens, so per-call overhead and the
dense 2x2/4x4 Born traces dominate.
"""

from __future__ import annotations

import math

import numpy as np

from common import Op, close, dumps

CASES = 300
SMOKE_CASES = 20
TAIL_PCT = 99  # 4 passes of 301 ops leave 12 ops above the 99th percentile
MIN_PASSES = 4
ITEMS = "cases"
TRACED = [("povm.json_roundtrip", "json_roundtrip")]  # benchmark code given a span
AGREE_TOL = 1e-10  # closed form vs Born route, and relation slack floor
SCAN_TOL = 1e-12  # admissibility_scan vs the scalar predicates


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _case(rng, category):
    if category == "inadmissible":
        # max_symmetric_alpha <= 0.82 here, so (1 + excess) * alpha_max < 1
        theta = rng.uniform(math.pi / 6, 5 * math.pi / 6)
        extra = {"excess": rng.uniform(0.05, 0.2)}
    elif category == "saturating":
        theta = rng.uniform(0.15, math.pi - 0.15)
        extra = {}
    else:
        theta = rng.uniform(0.15, math.pi - 0.15)
        alpha = rng.uniform(0.2, 0.95)
        c2 = math.cos(theta) ** 2
        limit = math.sqrt((1 - alpha**2) / (1 - alpha**2 * c2))
        extra = {"alpha": alpha, "alpha_p": rng.uniform(0.2, 0.95) * limit}
    radius = 1.0 if rng.random() < 0.5 else rng.random()
    return {"category": category, "theta": theta, "a": _unit(rng),
            "bloch": radius * _unit(rng), **extra}


def _cases(rng, count):
    categories = ["interior"] * (count - 2 * (count // 10))
    categories += ["saturating", "inadmissible"] * (count // 10)
    rng.shuffle(categories)
    return [_case(rng, c) for c in categories]


def make_inputs(seed, smoke):
    timed = _cases(np.random.default_rng([seed, 1]), SMOKE_CASES if smoke else CASES)
    warm = _cases(np.random.default_rng([seed, 2]), SMOKE_CASES)
    return timed, warm


def json_roundtrip(sj, povm):
    """POVM to JSON text and back: the dense-matrix I/O edge."""
    text = sj.povm_to_json(povm)
    return text, sj.povm_from_json(text)


def _alphas(sj, p):
    if p["category"] == "interior":
        return p["alpha"], p["alpha_p"]
    alpha = sj.max_symmetric_alpha(p["theta"])
    if p["category"] == "inadmissible":
        alpha *= 1 + p["excess"]
    return alpha, alpha


def _case_op(sj, p):
    alpha, alpha_p = _alphas(sj, p)
    saturating = p["category"] == "saturating"

    def call():
        spec = sj.JointSpec.from_angle(p["theta"], alpha, alpha_p, a=p["a"])
        try:
            povm = sj.general_joint_povm(spec)
        except sj.BoundViolated as exc:
            return {"bound_violated": exc}
        state = sj.state_from_bloch(p["bloch"])
        settings = sj.optimal_settings(spec)
        return {
            "report": sj.validate(povm),
            "probs": sj.outcome_probabilities(povm, state),
            "closed": sj.joint_correlations(spec, settings),
            "born": sj.born_correlations(spec, settings),
            "probe": sj.no_signalling_probe(spec, settings),
            "relations": sj.evaluate_all(spec, state),
            "json": json_roundtrip(sj, povm),
            "povm": povm,
            "optimal": sj.optimal_joint_povm(spec) if saturating else None,
        }

    def check(out):
        if p["category"] == "inadmissible":
            exc = out.get("bound_violated")
            if exc is None or not exc.min_eigenvalue < 0:
                return ["inadmissible case did not raise BoundViolated"]
            return []
        if "bound_violated" in out:
            return [f"admissible case raised {out['bound_violated']}"]
        problems = [] if out["report"].passes else [f"validate: {out['report'].failures}"]
        probs = [q for _, q in out["probs"]]
        problems += close("case", "sum of probabilities", sum(probs), 1.0, 1e-12)
        if min(probs) < 0:
            problems.append(f"case: negative probability in {probs}")
        for name in ("e_ab", "e_apb", "e_abp", "e_apbp"):
            problems += close("case", f"born {name}", getattr(out["born"], name),
                              getattr(out["closed"], name), AGREE_TOL)
        problems += close("case", "no-signalling probe", out["probe"][0], out["probe"][1],
                          1e-12)
        ids = tuple(r.relation_id for r in out["relations"])
        if ids != sj.RELATION_IDS:
            problems.append(f"case: relations {ids}")
        worst = min(r.slack for r in out["relations"])
        if worst < -AGREE_TOL:
            problems.append(f"case: relation slack {worst}")
        text, back = out["json"]
        if back.labels != out["povm"].labels or any(
            e.op.tobytes() != f.op.tobytes() for e, f in zip(out["povm"], back)
        ):
            problems.append("case: JSON round trip is not bit-exact")
        if saturating:
            gap = max(float(np.max(np.abs(e.op - f.op)))
                      for e, f in zip(out["optimal"], out["povm"]))
            problems += close("case", "optimal vs general family", gap, 0.0, 1e-12)
        return problems

    def encode(out):
        if "bound_violated" in out:
            return dumps(["BoundViolated", out["bound_violated"].min_eigenvalue])
        return dumps([out["probs"], vars(out["closed"]), vars(out["born"]), out["probe"],
                      [(r.lhs, r.rhs) for r in out["relations"]], out["json"][0]])

    return Op("case", call, 1, check, encode)


def _scan_op(sj, cases):
    specs = [sj.JointSpec.from_angle(p["theta"], *_alphas(sj, p), a=p["a"]) for p in cases]
    a = np.array([s.a for s in specs])
    a_prime = np.array([s.a_prime for s in specs])
    alpha = np.array([s.alpha for s in specs])
    alpha_p = np.array([s.alpha_prime for s in specs])
    want = (
        [sj.bound_lhs(s) for s in specs],
        [sj.product_form_check(s) for s in specs],
        [min(sj.general_effect_min_eigenvalues(s)) for s in specs],
    )
    signs = {"interior": 1, "saturating": 0, "inadmissible": -1}

    def call():
        return sj.admissibility_scan(a, a_prime, alpha, alpha_p)

    def check(out):
        problems = []
        for name, got, expected in zip(("diagonal sum", "product form", "min eigenvalue"),
                                       out, want):
            err = float(np.max(np.abs(np.asarray(got) - expected)))
            problems += close("admissibility_scan", name, err, 0.0, SCAN_TOL)
        for p, eig in zip(cases, out[2]):
            sign = 0 if abs(eig) <= SCAN_TOL else (1 if eig > 0 else -1)
            if sign != signs[p["category"]]:
                problems.append(f"admissibility_scan: {p['category']} case has min eig {eig}")
        return problems

    return Op("admissibility_scan", call, 0, check,
              lambda out: b"".join(np.asarray(x).tobytes() for x in out))


def build(sj, inputs):
    return [_case_op(sj, p) for p in inputs] + [_scan_op(sj, inputs)]


def corrupt(out):
    """A wrong Born correlation (or a missing BoundViolated) for the first
    case of a pass."""
    if "born" not in out:
        return {}
    born = out["born"]
    shifted = born.e_ab - math.copysign(1e-6, born.e_ab)
    return {**out, "born": type(born)(shifted, born.e_apb, born.e_abp, born.e_apbp)}
