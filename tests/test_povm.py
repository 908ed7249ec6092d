import dataclasses
import functools
import hashlib
import json
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    dense_joint_effects,
    dense_outcome_probabilities,
    dense_projector,
    dense_switch_effects,
    dense_two_party_probabilities,
    pauli_dot,
    random_admissible_spec,
    random_bloch_in_ball,
    random_direction_pair,
    random_saturating_spec,
    random_state,
    random_unit,
    reduced_state,
    reference_doc,
    tensor2,
)
from spinjoint import (
    ID2,
    OUTCOME_LABELS,
    TOL,
    Effect,
    InvalidPovm,
    InvalidState,
    JointSpec,
    NotHermitian,
    NotUnit,
    Povm,
    SeededStream,
    Settings,
    SwitchRealization,
    TwoQubitState,
    bb84_eve,
    born_correlations,
    evaluate_all,
    general_joint_povm,
    max_symmetric_alpha,
    no_signalling_probe,
    optimal_joint_povm,
    optimal_settings,
    outcome_probabilities,
    povm_from_json,
    povm_to_json,
    projective_povm,
    sample_povm,
    sample_two_party,
    signalling_experiment,
    robertson,
    schroedinger,
    singlet,
    state_from_bloch,
    switch_povm,
    switch_realization,
    two_party_probabilities,
    validate,
)
from spinjoint import qubit as qubit_module
from spinjoint.cli import main
from spinjoint.povm import _probabilities
from spinjoint.qubit import _bloch_rows


def test_projective_povm_along_z():
    povm = projective_povm((0, 0, 1))
    assert povm.labels == ("+", "-")
    assert np.array_equal(povm.effect("+").op, np.diag([1.0, 0.0]).astype(complex))
    assert np.array_equal(povm.effect("-").op, np.diag([0.0, 1.0]).astype(complex))


def test_projective_povm_along_x():
    povm = projective_povm((1, 0, 0))
    assert np.allclose(povm.effect("+").op, 0.5 * np.array([[1, 1], [1, 1]]), atol=1e-15)
    assert np.allclose(povm.effect("-").op, 0.5 * np.array([[1, -1], [-1, 1]]), atol=1e-15)


def test_projective_povm_requires_unit_direction():
    with pytest.raises(NotUnit):
        projective_povm((0, 0, 2))


def test_projective_effects_are_idempotent_projectors():
    rng = np.random.default_rng(3)
    for _ in range(50):
        povm = projective_povm(random_unit(rng))
        total = np.zeros((2, 2), dtype=complex)
        for e in povm:
            assert np.max(np.abs(e.op @ e.op - e.op)) <= 1e-12
            total += e.op
        assert np.max(np.abs(total - ID2)) <= 1e-12


def test_validate_passes_projective():
    assert validate(projective_povm((0, 0, 1))).passes


def test_validate_fails_incomplete():
    e = np.diag([1.0, 0.0]).astype(complex)
    report = validate(Povm((Effect("a", e), Effect("b", e))))
    assert not report.passes
    assert report.completeness_defect == pytest.approx(1.0)
    assert any("completeness" in f for f in report.failures)


def test_validate_fails_positivity():
    # the general four-outcome family at theta=90deg, alpha=alpha'=0.9,
    # assembled by hand: weight (1 +- 0) / 4, vectors 0.9 (x +- z)
    v_plus = 0.9 * np.array([1.0, 0.0, 0.0]) + 0.9 * np.array([0.0, 0.0, 1.0])
    v_minus = 0.9 * np.array([1.0, 0.0, 0.0]) - 0.9 * np.array([0.0, 0.0, 1.0])
    effects = (
        Effect("++", 0.25 * (ID2 + pauli_dot(v_plus))),
        Effect("--", 0.25 * (ID2 - pauli_dot(v_plus))),
        Effect("+-", 0.25 * (ID2 + pauli_dot(v_minus))),
        Effect("-+", 0.25 * (ID2 - pauli_dot(v_minus))),
    )
    report = validate(Povm(effects))
    assert not report.passes
    assert min(report.min_eigenvalues) == pytest.approx(0.25 * (1 - 0.9 * np.sqrt(2)), abs=1e-12)
    assert report.completeness_defect <= 1e-15


def test_outcome_probabilities_examples():
    up = state_from_bloch((0, 0, 1))
    mixed = state_from_bloch((0, 0, 0))
    z = projective_povm((0, 0, 1))
    x = projective_povm((1, 0, 0))
    assert [p for _, p in outcome_probabilities(z, up)] == pytest.approx([1.0, 0.0], abs=1e-12)
    assert [p for _, p in outcome_probabilities(z, mixed)] == pytest.approx([0.5, 0.5], abs=1e-12)
    # (1 +- 0.6) / 2
    probs = outcome_probabilities(x, state_from_bloch((0.6, 0, 0)))
    assert [p for _, p in probs] == pytest.approx([0.8, 0.2], abs=1e-12)


def test_outcome_probabilities_normalized_nonnegative():
    rng = np.random.default_rng(5)
    for _ in range(100):
        povm = projective_povm(random_unit(rng))
        probs = [p for _, p in outcome_probabilities(povm, random_state(rng))]
        assert all(p >= 0.0 for p in probs)
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("d", [1e-11, 1e-9])
def test_clamping_and_validation_share_one_allowance(d):
    # effect "a" has eigenvalue -d and Born probability -d on |down>
    e = np.diag([1.0 + d, -d]).astype(complex)
    povm = Povm((Effect("a", e), Effect("b", ID2 - e)))
    down = state_from_bloch((0, 0, -1))
    if d < TOL:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # validation admitted it: no warning
            probs = dict(outcome_probabilities(povm, down))
        assert probs["a"] == 0.0
    else:
        with pytest.raises(InvalidPovm):
            outcome_probabilities(povm, down)


def test_outcome_probabilities_rejects_invalid_povm():
    e = np.diag([1.0, 0.0]).astype(complex)
    bad = Povm((Effect("a", e), Effect("b", e)))
    with pytest.raises(InvalidPovm):
        outcome_probabilities(bad, state_from_bloch((0, 0, 0)))
    with pytest.raises(InvalidState):
        outcome_probabilities(projective_povm((0, 0, 1)), np.eye(2))


def test_probability_kernel_rounds_as_a_batch_of_one():
    # every row of a batched table equals, bit for bit, the one-state call
    # and the matrix-vector product (A @ s)/2 of the effect rows A
    rng = np.random.default_rng(23)
    spec = random_saturating_spec(rng)
    povms = (
        general_joint_povm(random_admissible_spec(rng)),
        optimal_joint_povm(spec),
        projective_povm(random_unit(rng)),
        switch_povm(switch_realization(spec)),
    )
    blochs = np.array([random_bloch_in_ball(rng) for _ in range(2000)])
    rows = _bloch_rows(blochs)
    for povm in povms:
        table = _probabilities(povm, rows)
        assert table.shape == (2000, len(povm))
        for bloch, row, got in zip(blochs, rows, table.tolist()):
            assert got == [p for _, p in outcome_probabilities(povm, state_from_bloch(bloch))]
            assert got == (0.5 * (povm._pauli @ row)).tolist()


def test_clamp_is_silent_for_one_state_and_a_batch():
    # cos(pi) leaves outcome "--" at -6.1e-18 on this state
    alpha = max_symmetric_alpha(math.pi)
    povm = general_joint_povm(JointSpec.from_angle(math.pi, alpha, alpha))
    state = state_from_bloch((0.2, -0.1, 0.5))
    unclamped = dict(zip(povm.labels, (0.5 * (povm._pauli @ state._pauli)).tolist()))
    assert unclamped["--"] == -6.123233995736766e-18
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        probs = dict(outcome_probabilities(povm, state))
        # a batch clamps each of its (state, outcome) entries alike
        table = _probabilities(povm, np.stack([state._pauli] * 3))
    assert probs["--"] == 0.0
    assert table.tolist() == [list(probs.values())] * 3


def test_two_party_singlet_anticorrelation():
    z = projective_povm((0, 0, 1))
    probs = two_party_probabilities(z, z, singlet())
    assert probs[0, 1] == pytest.approx(0.5, abs=1e-12)
    assert probs[1, 0] == pytest.approx(0.5, abs=1e-12)
    assert probs[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert probs[1, 1] == pytest.approx(0.0, abs=1e-12)


def test_two_party_refuses_a_one_qubit_state():
    z = projective_povm((0, 0, 1))
    with pytest.raises(InvalidState):
        two_party_probabilities(z, z, state_from_bloch((0, 0, 0.5)))


def test_two_party_product_state_factorizes():
    rng = np.random.default_rng(9)
    s1, s2 = random_state(rng), random_state(rng)
    pair = TwoQubitState(tensor2(s1.rho, s2.rho))
    povm1 = projective_povm(random_unit(rng))
    povm2 = projective_povm(random_unit(rng))
    probs = two_party_probabilities(povm1, povm2, pair)
    p1 = np.array([p for _, p in outcome_probabilities(povm1, s1)])
    p2 = np.array([p for _, p in outcome_probabilities(povm2, s2)])
    assert np.max(np.abs(probs - np.outer(p1, p2))) <= 1e-12


def test_row_sums_do_not_depend_on_other_party():
    # observer 1's marginals are fixed by the reduced state alone
    rng = np.random.default_rng(13)
    for _ in range(20):
        a, ap = random_direction_pair(rng)
        povm1 = projective_povm(random_unit(rng))
        m1 = two_party_probabilities(povm1, projective_povm(a), singlet()).sum(axis=1)
        m2 = two_party_probabilities(povm1, projective_povm(ap), singlet()).sum(axis=1)
        assert np.max(np.abs(m1 - m2)) <= 1e-12
        reduced = reduced_state(singlet(), 1)
        direct = np.array([p for _, p in outcome_probabilities(povm1, reduced)])
        assert np.max(np.abs(m1 - direct)) <= 1e-12


def test_two_party_total_probability():
    rng = np.random.default_rng(17)
    povm1 = projective_povm(random_unit(rng))
    povm2 = projective_povm(random_unit(rng))
    probs = two_party_probabilities(povm1, povm2, singlet())
    assert np.min(probs) >= -1e-12
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_born_probabilities_match_dense_oracle():
    # Pauli-coordinate Born rule against Kronecker products and traces
    rng = np.random.default_rng(19)
    worst_one = worst_two = 0.0
    for _ in range(50):
        povms = (
            projective_povm(random_unit(rng)),
            general_joint_povm(random_admissible_spec(rng)),
            switch_povm(switch_realization(random_saturating_spec(rng))),
        )
        state = random_state(rng)
        for povm in povms:
            got = np.array([p for _, p in outcome_probabilities(povm, state)])
            worst_one = max(worst_one, np.max(np.abs(got - dense_outcome_probabilities(povm, state))))
        product = np.kron(random_state(rng).rho, random_state(rng).rho)
        p = rng.uniform()
        pairs = (
            singlet(),
            TwoQubitState(product),
            TwoQubitState(p * singlet().rho4 + (1 - p) * product),
        )
        for pair in pairs:
            for povm1 in povms:
                for povm2 in povms:
                    got = two_party_probabilities(povm1, povm2, pair)
                    want = dense_two_party_probabilities(povm1, povm2, pair)
                    worst_two = max(worst_two, np.max(np.abs(got - want)))
    assert worst_one <= 1e-12
    assert worst_two <= 1e-12


finite = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@given(st.lists(st.tuples(finite, finite, finite, finite), min_size=1, max_size=4))
@settings(deadline=None)
def test_povm_json_round_trip_is_bit_exact(entries):
    effects = []
    for k, (a, b, c, d) in enumerate(entries):
        op = np.array([[a, b - 1j * c], [b + 1j * c, d]])
        effects.append(Effect(f"out{k}", op))
    povm = Povm(tuple(effects))
    restored = povm_from_json(povm_to_json(povm))
    assert restored.labels == povm.labels
    for e1, e2 in zip(povm, restored):
        assert np.array_equal(e1.op, e2.op)


def _package_built_povms(rng):
    """Each package-built POVM with its dense oracle matrices."""
    spec = random_admissible_spec(rng)
    saturating = random_saturating_spec(rng)
    realization = switch_realization(saturating)
    u = random_unit(rng)
    return [
        (general_joint_povm(spec), dense_joint_effects(spec)),
        # the general family's weights: at saturation optimal_joint_povm returns it
        (optimal_joint_povm(saturating), dense_joint_effects(saturating)),
        (switch_povm(realization), dense_switch_effects(realization)),
        (projective_povm(u), [dense_projector(u, 1), dense_projector(u, -1)]),
    ]


def test_package_built_effects_equal_dense_oracle_bit_for_bit():
    # op is derived from the coordinates (t, r) as 0.5 (t + r.sigma); it
    # must be the very matrix 0.25 (w + v.sigma) or 0.5 (1 +- u.sigma)
    rng = np.random.default_rng(29)
    for _ in range(200):
        for povm, oracle in _package_built_povms(rng):
            assert [e.op.tobytes() for e in povm] == [m.tobytes() for m in oracle]
    for u in np.vstack([np.eye(3), -np.eye(3)]):  # exact zeros in u
        povm = projective_povm(u)
        assert [e.op.tobytes() for e in povm] == [
            dense_projector(u, 1).tobytes(), dense_projector(u, -1).tobytes()
        ]


def test_package_built_povm_json_round_trip_is_bit_exact():
    rng = np.random.default_rng(31)
    for _ in range(50):
        for povm, _ in _package_built_povms(rng):
            restored = povm_from_json(povm_to_json(povm))
            assert restored.labels == povm.labels
            assert [e.op.tobytes() for e in restored] == [e.op.tobytes() for e in povm]


def _seeded_povm(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "general":
        return general_joint_povm(random_admissible_spec(rng))
    if kind == "projective":
        return projective_povm(random_unit(rng))
    saturating = random_saturating_spec(rng)
    if kind == "optimal":
        return optimal_joint_povm(saturating)
    return switch_povm(switch_realization(saturating))


def _json_labelled_povm():
    quarter = [[0.25, 0.0], [0.0, 0.0], [0.0, 0.0], [0.25, 0.0]]
    labels = (5, 2.5, True, None)
    return povm_from_json(json.dumps({"effects": [{"label": x, "op": quarter} for x in labels]}))


GOLDEN_POVMS = {
    **{f"{kind}-{seed}": functools.partial(_seeded_povm, kind, seed)
       for kind in ("general", "optimal", "switch", "projective") for seed in (1, 2, 3)},
    # exact zeros in u, so the rows hold signed zeros
    **{f"axis{sign:+d}{k}": functools.partial(projective_povm, sign * np.eye(3)[k])
       for k in range(3) for sign in (1, -1)},
    "escaped-labels": lambda: Povm(tuple(Effect(x, 0.25 * ID2) for x in ("", 'a"b\\c', "é", "\n"))),
    "json-labels": _json_labelled_povm,
    "entries": lambda: Povm((
        Effect("x", np.array([[-0.0, 0.1 + 5e-324j], [0.1 - 5e-324j, 5e-324]])),
        Effect("y", np.array([[1e16, -1e-7j], [1e-7j, 123.456]])),
    )),
}

# sha256 of povm_to_json's text, recorded while it still called
# json.dumps(doc, indent=2); a format change shows up as an edit here
POVM_JSON_MANIFEST = {
    "axis+10": "5cdb9df473abb59aebee8d1d6d947bd3311c089ff2316024db56b23621ceca0e",
    "axis+11": "d75b136db7ab8ce5441829811a6c9c6e8317cfad61f4b57592fa6d000c3569d1",
    "axis+12": "c28b983ffef58aba2346a9cb79e82c267f5055ef88c10f425ff01c3bc11af194",
    "axis-10": "70670e677481e3f59d57597c64dfbafd6df50d4c661536415552a9c43d5b5a4e",
    "axis-11": "5f3d77d3b161245135003c22961bf8d387248d6f52fa3fd7ef48a533f975dfca",
    "axis-12": "09667bc6256e5ed0b28560d437823f574fa0eeb89e8e69810027eda6b13699da",
    "entries": "9b189066c67d0271f4d86dd03501d9797532b586fd50bf030191b4e750af11de",
    "escaped-labels": "75c2197dfeec59bbcc4821178a3aee018ab9797f6cbd94be9b32bde907e04d1d",
    "general-1": "80f6985bdf21ca7d9ba34ffa14257f6f90e19be1be45ea805a00c48446ac76d1",
    "general-2": "5ed9613d8fad33c5c1b9a6e0dcd05b2dd448212d4e936973346c7fbdf2167d36",
    "general-3": "874a77a6640c0616eb2b32a5cbc1b6ebe90ac89c1ddfa540526e04a10729e4b3",
    "json-labels": "ad14160018672c912f2c79871e2a26e07dd964ee71567d49be198f4e53afc526",
    "optimal-1": "eb05a1e721367babe258e026cedee9a886de6b2cfca728cbae5e7cc7467cfa9f",
    "optimal-2": "0e7257a8dbd976df40f71174470ea051e398f945874daf8efbed743c05c9b65f",
    "optimal-3": "7b7b18107d9220ed6ea9033a1201e3a215c60d4f58e0b262f0c20a949fe256de",
    "projective-1": "aee961350e532be9b04c77f04a1c1835220b1b6a71aa556488ed182765ddb5df",
    "projective-2": "271bb54a3b3b7ea1fde6138d7b480bd29d28d57f78e5553e85a6eac4eeefde09",
    "projective-3": "aadab7b8c97f73faafe3acfeb937f7ef63f4771d270e86691d6f26a0cd2967a9",
    "switch-1": "be6190f3d208ae27da4e5c884358f05202658ab0bd24f7e5f0907eebc735bbc3",
    "switch-2": "01df2d2963a23bcded62a068b5ddf61488de16ae5a64ffa706e73378764ebf41",
    "switch-3": "2c88e46fcf68313b2b3bdf93bbf006b0d1bebb946566e17df03a28a25ef30779",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_POVMS))
def test_povm_json_text_is_byte_identical(name):
    povm = GOLDEN_POVMS[name]()
    text = povm_to_json(povm)
    assert hashlib.sha256(text.encode()).hexdigest() == POVM_JSON_MANIFEST[name]
    assert text == json.dumps(reference_doc(povm), indent=2)


json_labels = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())
any_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def user_povms(draw):
    """Hermitian effects with any finite entries and any label a JSON
    document can carry."""
    items = draw(st.lists(st.tuples(json_labels, st.tuples(*[any_finite] * 4)),
                          min_size=1, max_size=4, unique_by=lambda item: item[0]))
    return Povm(tuple(Effect(label, np.array([[a, b - 1j * c], [b + 1j * c, d]]))
                      for label, (a, b, c, d) in items))


package_povms = st.builds(_seeded_povm, st.sampled_from(("general", "optimal", "switch", "projective")),
                          st.integers(0, 2**32 - 1))


@given(st.one_of(user_povms(), package_povms))
@settings(deadline=None)
def test_povm_json_text_is_what_json_dumps_writes(povm):
    assert povm_to_json(povm) == json.dumps(reference_doc(povm), indent=2)


def test_povm_json_does_not_use_the_pure_python_encoder(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder was called")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError):  # the patch sees an indented dumps
        json.dumps({"effects": []}, indent=2)
    for name in sorted(GOLDEN_POVMS):  # every package-built kind and user POVMs
        povm_to_json(GOLDEN_POVMS[name]())


def _dense_defect(oracle):
    """max|sum(effects) - identity| of explicit complex matrices."""
    return float(np.max(np.abs(np.sum(oracle, axis=0) - ID2)))


def test_completeness_defect_equals_dense_oracle_bit_for_bit():
    # the defect comes from the rows, and must be the very number the
    # oracle matrices give, rounding included
    rng = np.random.default_rng(47)
    nonzero = 0
    for _ in range(500):
        for povm, oracle in _package_built_povms(rng):
            defect = validate(povm).completeness_defect
            assert defect == _dense_defect(oracle)
            nonzero += defect != 0.0
    assert nonzero > 100  # rounding shows, so the comparison has teeth
    for u in np.vstack([np.eye(3), -np.eye(3)]):  # exact zeros in u
        oracle = [dense_projector(u, 1), dense_projector(u, -1)]
        assert validate(projective_povm(u)).completeness_defect == _dense_defect(oracle) == 0.0
        for p in (0.0, 1.0):  # a switch that never uses one of its projectors
            realization = SwitchRealization(p, u, random_unit(rng))
            oracle = dense_switch_effects(realization)
            assert validate(switch_povm(realization)).completeness_defect == _dense_defect(oracle)


def test_package_paths_make_no_operator_matrices(monkeypatch, capsys):
    # _sigma is patched where it is defined and in every package module
    # that imports it, so neither effect nor state matrices go unseen
    made = []
    sigma = qubit_module._sigma
    for name, module in list(sys.modules.items()):
        if name.startswith("spinjoint") and getattr(module, "_sigma", None) is sigma:
            monkeypatch.setattr(module, "_sigma", lambda *r: made.append(r) or sigma(*r))
    rng = np.random.default_rng(53)
    spec = random_admissible_spec(rng)
    settings = optimal_settings(spec)
    povm = general_joint_povm(spec)
    state = state_from_bloch(random_bloch_in_ball(rng))
    stream = SeededStream(7)
    validate(povm)
    outcome_probabilities(povm, state)
    evaluate_all(spec, state)
    robertson(state, spec.a, spec.a_prime)
    schroedinger(state, spec.a, spec.a_prime)
    born_correlations(spec, settings)
    no_signalling_probe(spec, settings)
    sample_povm(povm, state, 1000, stream)
    sample_two_party(povm, settings.b, 1000, stream)
    signalling_experiment(spec, settings, 1000, stream)
    bb84_eve(1000, stream)
    for argv in (
        ["validate"],
        ["chsh", "--n", "1000", "--seed", "1"],
        ["signal", "--n", "1000", "--seed", "1"],
        ["sample", "--n", "1000", "--seed", "1"],
        ["bb84", "--n", "1000", "--seed", "1"],
        ["uncertainty", "--samples", "5"],
    ):
        assert main(argv) == 0
    assert made == []
    # asking for a state's rho or a POVM's effects is what makes their
    # matrices, once each
    state.rho
    assert len(made) == 1
    state.rho
    assert len(made) == 1
    list(povm)
    assert len(made) == 2


def test_povm_contract():
    with pytest.raises(ValueError):
        Povm(())
    povm = general_joint_povm(random_admissible_spec(np.random.default_rng(41)))
    with pytest.raises(KeyError):
        povm.effect("missing")
    with pytest.raises(dataclasses.FrozenInstanceError):
        povm.labels = ("+",)
    assert len(povm) == 4
    assert povm.labels == OUTCOME_LABELS
    assert [e.label for e in povm] == list(OUTCOME_LABELS)
    assert povm.effect("+-") is povm.effects[2]
    rebuilt = Povm(povm.effects)
    assert rebuilt.effects == povm.effects
    assert rebuilt._pauli.tobytes() == povm._pauli.tobytes()
    assert [e.op.tobytes() for e in rebuilt] == [e.op.tobytes() for e in povm]
    for p in (povm, rebuilt):
        arrays = [p._pauli, *(a for e in p for a in (e.op, e._pauli))]
        assert not any(a.flags.writeable for a in arrays)


def test_package_paths_make_no_effect_objects():
    rng = np.random.default_rng(43)
    spec = random_admissible_spec(rng)
    settings = optimal_settings(spec)
    povm, sharp = general_joint_povm(spec), projective_povm(random_unit(rng))
    for p in (povm, sharp):
        validate(p)
        outcome_probabilities(p, random_state(rng))
    born_correlations(spec, settings)
    no_signalling_probe(spec, settings)
    for p in (povm, sharp, *settings._analyzers):
        assert "effects" not in vars(p)


def test_each_povm_is_validated_once(monkeypatch):
    checked = []
    check = Povm._report.func

    def counting(povm):
        checked.append(povm)
        return check(povm)

    report = functools.cached_property(counting)
    report.__set_name__(Povm, "_report")
    monkeypatch.setattr(Povm, "_report", report)
    spec = random_admissible_spec(np.random.default_rng(37))
    settings = optimal_settings(spec)
    born_correlations(spec, settings)
    no_signalling_probe(spec, settings)
    validate(general_joint_povm(spec))
    # one joint POVM and two analyzers, each built and checked once
    ids = {id(p) for p in checked}  # ``checked`` keeps them alive: no id reuse
    assert len(checked) == len(ids) == 3
    assert ids == {id(general_joint_povm(spec)), *map(id, settings._analyzers)}
    born_correlations(spec, Settings(settings.b, settings.b_prime))
    assert len(checked) == 5  # new settings, new analyzers; the joint POVM is kept


@pytest.mark.parametrize(
    "op, error",
    [
        (np.eye(3), ValueError),
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), ValueError),
        (np.array([[0.5, np.inf], [0.0, 0.5]]), ValueError),
        (np.array([[0.5, 0.1], [0.2, 0.5]]), NotHermitian),
        (np.array([[0.5, 0.1j], [0.1j, 0.5]]), NotHermitian),
    ],
)
def test_user_supplied_matrices_keep_full_checks(op, error):
    with pytest.raises(error):
        Effect("x", op)
    flat = [[z.real, z.imag] for z in np.asarray(op, dtype=complex).reshape(-1)]
    with pytest.raises(error):  # a 3x3 has 9 entries, not 4: ValueError too
        povm_from_json(json.dumps({"effects": [{"label": "x", "op": flat}]}))


HALF = [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]


@pytest.mark.parametrize(
    "text",
    [
        "{}",
        "[]",
        '"effects"',
        '{"effects": 3}',
        '{"effects": [3]}',
        '{"effects": [{"op": %s}]}' % json.dumps(HALF),
        '{"effects": [{"label": "x"}]}',
        '{"effects": [{"label": "x", "op": [1, 2, 3, 4]}]}',
        '{"effects": [{"label": "x", "op": %s}]}' % json.dumps(HALF[:2]),  # 2 entries
        '{"effects": [{"label": "x", "op": %s}]}' % json.dumps(HALF * 2),  # 8 entries
        '{"effects": [{"label": "x", "op": [["x", 0], [0, 0], [0, 0], [1, 0]]}]}',
        '{"effects": [{"label": "x", "op": [[1e999, 0], [0, 0], [0, 0], [1, 0]]}]}',
        '{"effects": [{"label": "x", "op": [[1%s, 0], [0, 0], [0, 0], [1, 0]]}]}' % ("0" * 400),
        '{"effects": [{"label": ["x"], "op": %s}]}' % json.dumps(HALF),
        '{"effects": []}',
        '{"effects": [',
    ],
)
def test_malformed_json_documents_raise_one_value_error(text):
    with pytest.raises(ValueError):
        povm_from_json(text)


def test_povm_rejects_duplicate_labels():
    e = Effect("+", 0.5 * ID2)
    with pytest.raises(ValueError):
        Povm((e, Effect("+", 0.5 * ID2)))


@pytest.mark.parametrize("label", [["x"], ("x", ["y"]), {"x": 1}])
def test_effect_refuses_an_unhashable_label(label):
    with pytest.raises(ValueError, match="is not hashable"):
        Effect(label, 0.5 * ID2)


def test_int_labels_round_trip_through_json():
    povm = Povm((Effect(1, 0.5 * ID2), Effect(2, 0.5 * ID2)))
    assert povm_from_json(povm_to_json(povm)).labels == (1, 2)
