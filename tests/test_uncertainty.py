import itertools
import math

import numpy as np
import pytest

from golden import CLI_MANIFEST, check_entry
from helpers import (
    joint_variances,
    pauli_dot,
    python_random_bloch,
    python_squares,
    random_admissible_spec,
    random_direction_pair,
    random_pure_state,
    random_state,
    random_unit,
)
from spinjoint import (
    RELATION_IDS,
    BoundViolated,
    CollinearDirections,
    InvalidState,
    JointSpec,
    ZeroAlpha,
    arthurs_goodman,
    cirelson_product,
    evaluate_all,
    outcome_probabilities,
    product_form,
    product_form_check,
    projective_povm,
    robertson,
    schroedinger,
    singlet,
    state_from_bloch,
    total_joint,
)
from spinjoint.cli import _random_bloch, main
from spinjoint import uncertainty as uncertainty_module
from spinjoint.sampling import SeededStream
from spinjoint.uncertainty import _plane_normal, _relations, _spec_relations, _squares

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])
SQ2 = math.sqrt(2.0)
MIXED = state_from_bloch((0, 0, 0))


def _matrix_commutator_rhs(state, a, ap):
    # quarter squared modulus of the commutator expectation, from matrices
    A, Ap = pauli_dot(a), pauli_dot(ap)
    val = np.trace((A @ Ap - Ap @ A) @ state.rho)
    return 0.25 * abs(val) ** 2


def _matrix_schroedinger_rhs(state, a, ap):
    A, Ap = pauli_dot(a), pauli_dot(ap)
    ea = np.trace(A @ state.rho).real
    eap = np.trace(Ap @ state.rho).real
    anti = np.trace((A @ Ap + Ap @ A) @ state.rho).real
    return _matrix_commutator_rhs(state, a, ap) + 0.25 * (anti - 2 * ea * eap) ** 2


def test_product_form_examples():
    report = product_form(JointSpec(X, Z, 1 / SQ2, 1 / SQ2))
    assert report.lhs == pytest.approx(1.0, abs=1e-12)
    assert report.rhs == pytest.approx(1.0, abs=1e-12)
    assert abs(report.slack) <= 1e-12
    report = product_form(JointSpec(Z, Z, 1.0, 1.0))
    assert report.lhs == 0.0 and report.rhs == 0.0
    report = product_form(JointSpec(X, Z, 0.5, 0.5))
    assert report.lhs == pytest.approx(9.0, abs=1e-12)
    assert report.rhs == pytest.approx(1.0, abs=1e-12)


def test_product_form_rejects_zero_alpha():
    with pytest.raises(ZeroAlpha):
        product_form(JointSpec(X, Z, 0.0, 0.5))


@pytest.mark.parametrize("alpha", [0.0, 1e-160, 1e-200])
def test_vanishing_sharpness_product_raises_zero_alpha(alpha):
    # alpha^2 alpha'^2 is 0 here, exactly or by underflow below ~1e-154
    spec = JointSpec(X, Z, alpha, alpha)
    for relation in (product_form, cirelson_product):
        with pytest.raises(ZeroAlpha):
            relation(spec)
    for relation in (total_joint, arthurs_goodman, evaluate_all):
        with pytest.raises(ZeroAlpha):
            relation(spec, MIXED)


def test_tiny_sharpness_gives_an_infinite_lhs():
    spec = JointSpec(X, Z, 1e-78, 1e-78)  # alpha^2 alpha'^2 = 1e-312, subnormal
    assert product_form(spec).lhs == math.inf
    assert cirelson_product(spec).lhs == math.inf


def test_product_form_saturates_exactly_when_bound_does():
    rng = np.random.default_rng(101)
    for _ in range(100):
        boundary = random_admissible_spec(rng, min_scale=1.0)  # on the boundary
        assert abs(product_form(boundary).slack) <= 1e-10
        interior = JointSpec(
            boundary.a, boundary.a_prime, 0.8 * boundary.alpha, 0.8 * boundary.alpha_prime
        )
        assert product_form(interior).slack > 1e-3


@pytest.mark.parametrize("relation", [total_joint, arthurs_goodman, evaluate_all])
def test_joint_relations_reject_inadmissible_spec(relation):
    spec = JointSpec.from_angle(math.pi / 2, 0.8, 0.8)
    with pytest.raises(BoundViolated) as excinfo:
        relation(spec, MIXED)
    assert excinfo.value.min_eigenvalue < 0.0


ADMISSIBLE = JointSpec.from_angle(math.pi / 2, 0.5, 0.5)
STATE_RELATIONS = {
    "robertson": lambda state: robertson(state, X, Z),
    "schroedinger": lambda state: schroedinger(state, X, Z),
    "total_joint": lambda state: total_joint(ADMISSIBLE, state),
    "arthurs_goodman": lambda state: arthurs_goodman(ADMISSIBLE, state),
    "evaluate_all": lambda state: evaluate_all(ADMISSIBLE, state),
}


@pytest.mark.parametrize("relation", sorted(STATE_RELATIONS))
@pytest.mark.parametrize("state", [singlet(), "x", 0.5 * np.eye(2), None],
                         ids=["singlet", "str", "ndarray", "none"])
def test_relations_refuse_a_non_state_as_the_born_rule_does(relation, state):
    with pytest.raises(InvalidState, match="^expected a QubitState$"):
        outcome_probabilities(projective_povm(Z), state)
    with pytest.raises(InvalidState, match="^expected a QubitState$"):
        STATE_RELATIONS[relation](state)


class _UnreadRows:
    """State rows of known length whose every read fails."""

    def __len__(self):
        return 3

    def __getitem__(self, key):
        raise AssertionError("a state row was read")


@pytest.mark.parametrize(
    "spec, error",
    [
        (JointSpec(X, Z, 0.0, 0.5), ZeroAlpha),
        (JointSpec(Z, -Z, 0.5, 0.5), CollinearDirections),
        (JointSpec(X, Z, 1.0, 1.0), BoundViolated),
        (JointSpec(Z, Z, 0.0, 0.0), ZeroAlpha),  # collinear too: ZeroAlpha comes first
        (JointSpec(X, Z, 0.5, 0.5), AssertionError),  # admissible: the rows are read
    ],
    ids=["zero-alpha", "collinear", "inadmissible", "zero-alpha-and-collinear", "admissible"],
)
def test_kernel_refuses_a_spec_before_reading_a_row(spec, error):
    with pytest.raises(error):
        _relations(_UnreadRows(), *_spec_relations(spec))


@pytest.mark.parametrize(
    "relation, spec, lhs, rhs",
    [
        (product_form, JointSpec(X, Z, 0.9, 0.9), 0.05502210028958996, 1.0),
        (cirelson_product, JointSpec(X, Z, 0.9, 0.9), 2.1583600060966313, 1.0),
        (product_form, JointSpec(Z, Z, 0.9, 0.9), 0.05502210028958996, 0.0),
        (cirelson_product, JointSpec(Z, Z, 0.9, 0.9), 2.1583600060966313, 0.0),
    ],
    ids=["product-inadmissible", "cirelson-inadmissible", "product-collinear",
         "cirelson-collinear"],
)
def test_state_independent_relations_refuse_only_a_zero_alpha(relation, spec, lhs, rhs):
    # an inadmissible or collinear spec is reported, not refused: its slack
    # says how far the spec sits from the bound
    report = relation(spec)
    assert (report.lhs, report.rhs, report.slack) == (lhs, rhs, lhs - rhs)


def test_spec_relation_data_is_made_once_per_run(monkeypatch, capsys):
    made = []
    forms = uncertainty_module._product_forms
    monkeypatch.setattr(uncertainty_module, "_product_forms",
                        lambda *args: made.append(args) or forms(*args))
    # the pre-draw refusals and the drawn rows share one evaluation
    assert main(["uncertainty", "--samples", "5"]) == 0
    assert len(made) == 1
    # a refused spec is refused again on every call
    for _ in range(2):
        with pytest.raises(ZeroAlpha):
            _spec_relations(JointSpec(X, Z, 0.0, 0.5))


def test_robertson_examples():
    report = robertson(MIXED, Z, X)
    assert report.lhs == 1.0 and report.rhs == 0.0
    # spin-up along the plane normal saturates at 90 degrees
    report = robertson(state_from_bloch(Y), Z, X)
    assert report.lhs == pytest.approx(1.0, abs=1e-12)
    assert report.rhs == pytest.approx(1.0, abs=1e-12)
    report = robertson(state_from_bloch(Z), Z, X)
    assert report.lhs == pytest.approx(0.0, abs=1e-12)
    assert report.rhs == pytest.approx(0.0, abs=1e-12)


def test_robertson_rejects_collinear():
    with pytest.raises(CollinearDirections):
        robertson(MIXED, Z, Z)


def test_robertson_rhs_matches_matrix_commutator():
    rng = np.random.default_rng(103)
    for _ in range(100):
        a, ap = random_direction_pair(rng)
        state = random_state(rng)
        report = robertson(state, a, ap)
        assert report.rhs == pytest.approx(_matrix_commutator_rhs(state, a, ap), abs=1e-12)
        assert report.slack >= -1e-12


def test_total_joint_examples():
    spec = JointSpec(Z, X, 1 / SQ2, 1 / SQ2)
    report = total_joint(spec, MIXED)
    assert report.lhs == pytest.approx(4.0, abs=1e-12)
    assert report.rhs == pytest.approx(1.0, abs=1e-12)
    report = total_joint(spec, state_from_bloch(Y))  # y = z cross x, the plane normal
    assert report.lhs == pytest.approx(4.0, abs=1e-12)
    assert report.rhs == pytest.approx(4.0, abs=1e-12)
    # small angles make the bound trivial
    tiny = JointSpec.from_angle(1e-4, 0.9, 0.9)
    assert total_joint(tiny, MIXED).rhs <= 1e-7


def test_total_joint_holds_over_random_pairs():
    rng = np.random.default_rng(107)
    for _ in range(200):
        spec = random_admissible_spec(rng, min_scale=0.3)
        report = total_joint(spec, random_state(rng))
        assert report.slack >= -1e-10


def test_joint_relations_lhs_is_the_dense_variance_product():
    # Var(A_J) Var(A'_J) / (alpha^2 alpha'^2), each Var(A_J) = 1 - alpha^2 tr(rho A)^2
    rng = np.random.default_rng(149)
    for _ in range(200):
        spec = random_admissible_spec(rng, min_scale=0.3)
        state = random_state(rng)
        report = joint_variances(spec, state)
        lhs = report.var_joint * report.var_joint_prime / (spec.alpha**2 * spec.alpha_prime**2)
        assert total_joint(spec, state).lhs == pytest.approx(lhs, rel=1e-12)
        assert arthurs_goodman(spec, state).lhs == pytest.approx(lhs, rel=1e-12)


def test_arthurs_goodman_examples():
    spec = JointSpec(Z, X, 1 / SQ2, 1 / SQ2)
    assert arthurs_goodman(spec, MIXED).rhs == 0.0
    report = arthurs_goodman(spec, state_from_bloch(Y))
    assert report.rhs == pytest.approx(4.0, abs=1e-12)
    assert total_joint(spec, state_from_bloch(Y)).rhs == pytest.approx(4.0, abs=1e-12)
    # halfway up the normal: (1 + 1/2)^2 = 2.25 versus 4 * (1/2)^2 = 1
    half = state_from_bloch(0.5 * Y)
    total_rhs, ag_rhs = total_joint(spec, half).rhs, arthurs_goodman(spec, half).rhs
    assert ag_rhs == pytest.approx(1.0, abs=1e-12)
    assert total_rhs == pytest.approx(2.25, abs=1e-12)


def test_total_joint_never_weaker_than_arthurs_goodman():
    rng = np.random.default_rng(109)
    for _ in range(200):
        spec = random_admissible_spec(rng, min_scale=0.3)
        state = random_state(rng)
        total_rhs, ag_rhs = total_joint(spec, state).rhs, arthurs_goodman(spec, state).rhs
        assert total_rhs >= ag_rhs - 1e-12
        assert arthurs_goodman(spec, state).slack >= -1e-10


def test_schroedinger_examples():
    for theta in (0.4, math.pi / 3, 2.0):
        a = Z
        ap = np.array([math.sin(theta), 0.0, math.cos(theta)])
        report = schroedinger(MIXED, a, ap)
        assert report.lhs == 1.0
        assert report.rhs == pytest.approx(math.cos(theta) ** 2, abs=1e-12)
    report = schroedinger(state_from_bloch(Y), Z, X)
    assert report.lhs == pytest.approx(1.0, abs=1e-12)
    assert report.rhs == pytest.approx(1.0, abs=1e-12)


def test_schroedinger_rhs_matches_matrix_route():
    rng = np.random.default_rng(113)
    for _ in range(100):
        a, ap = random_direction_pair(rng)
        state = random_state(rng)
        report = schroedinger(state, a, ap)
        assert report.rhs == pytest.approx(_matrix_schroedinger_rhs(state, a, ap), abs=1e-12)


def test_schroedinger_tight_on_pure_states():
    rng = np.random.default_rng(127)
    for _ in range(10_000):
        a, ap = random_direction_pair(rng)
        report = schroedinger(random_pure_state(rng), a, ap)
        assert abs(report.slack) <= 1e-10


def test_schroedinger_dominates_robertson():
    rng = np.random.default_rng(131)
    for _ in range(200):
        a, ap = random_direction_pair(rng)
        state = random_state(rng)
        assert schroedinger(state, a, ap).rhs >= robertson(state, a, ap).rhs - 1e-15
        assert schroedinger(state, a, ap).slack >= -1e-10


def test_cirelson_product_examples():
    report = cirelson_product(JointSpec(Z, X, 1.0, 1.0))
    assert report.lhs == pytest.approx(1.0, abs=1e-12)
    assert report.rhs == pytest.approx(1.0, abs=1e-12)
    assert cirelson_product(JointSpec(Z, Z, 0.7, 0.9)).rhs == pytest.approx(0.0, abs=1e-12)
    report = cirelson_product(JointSpec(Z, X, 1 / SQ2, 1 / SQ2))
    assert report.lhs == pytest.approx(9.0, abs=1e-12)


def test_cirelson_product_admits_full_sharpness():
    # no restriction below alpha = alpha' = 1, for any angle
    for theta in np.linspace(0.0, math.pi, 19):
        spec = JointSpec.from_angle(theta, 1.0, 1.0)
        assert cirelson_product(spec).slack >= -1e-12


def test_squaring_chain_equivalence():
    # the product form is the twice-squared diagonal bound: agreement of
    # the admissibility verdicts over random parameters
    rng = np.random.default_rng(137)
    from spinjoint import bound_lhs

    for _ in range(500):
        a, ap = random_direction_pair(rng)
        spec = JointSpec(a, ap, rng.uniform(0, 1), rng.uniform(0, 1))
        lhs_margin = bound_lhs(spec) - 2.0
        pf_margin = product_form_check(spec) - 1.0
        if min(abs(lhs_margin), abs(pf_margin)) <= 1e-9:
            continue
        assert (lhs_margin <= 0) == (pf_margin <= 0)


def test_evaluate_all_order_and_csv(capsys):
    spec = JointSpec(Z, X, 0.6, 0.5)
    reports = evaluate_all(spec, state_from_bloch((0.2, 0.3, 0.1)))
    assert [r.relation_id for r in reports] == [
        "product_form",
        "robertson",
        "total_joint",
        "arthurs_goodman",
        "schroedinger",
        "cirelson_product",
    ]
    assert all(r.slack >= -1e-10 for r in reports)
    # the CLI writes one csv row per relation, in the same order, and
    # each row round-trips slack = lhs - rhs exactly
    argv = ["uncertainty", "--a", "0,0,1", "--a-prime", "1,0,0",
            "--alpha", "0.6", "--alpha-prime", "0.5", "--samples", "1"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "relation_id,lhs,rhs,slack"
    assert [line.split(",")[0] for line in lines[1:]] == list(RELATION_IDS)
    for line in lines[1:]:
        lhs, rhs, slack = map(float, line.split(",")[1:])
        assert slack == lhs - rhs


def test_kernel_rows_equal_batches_of_one():
    # the CLI's one kernel call over N states and the public batch-of-one
    # functions give the same numbers, state by state, bit for bit
    rng = np.random.default_rng(139)
    for _ in range(20):
        spec = random_admissible_spec(rng, min_sin=1e-2)
        states = [random_state(rng) if k % 2 else random_pure_state(rng) for k in range(50)]
        rows = np.array([state._pauli for state in states])
        plane, spec_forms = _spec_relations(spec)
        table = _relations(rows, plane, spec_forms)
        bare = _relations(rows, plane)
        for k, state in enumerate(states):
            reports = evaluate_all(spec, state) + [
                robertson(state, spec.a, spec.a_prime), schroedinger(state, spec.a, spec.a_prime)
            ]
            for report, source in zip(reports, [table] * 6 + [bare] * 2):
                lhs, rhs = source[report.relation_id]
                assert [lhs[k].hex(), rhs[k].hex()] == [report.lhs.hex(), report.rhs.hex()]


def test_plane_normal_is_np_cross_bit_for_bit():
    rng = np.random.default_rng(2005)
    pairs = []
    for _ in range(1000):
        a = random_unit(rng)
        pairs.append((a, random_unit(rng)))
        tilt = random_unit(rng) * 10.0 ** rng.uniform(-15, -6)
        pairs.append((a, (a + tilt) / np.linalg.norm(a + tilt)))  # near-collinear
        pairs.append((a, -a + tilt))  # near-antiparallel
    signed = [0.0, -0.0, 1.0, -1.0]
    for a in itertools.product(signed, repeat=3):
        for b in itertools.product(signed, repeat=3):
            pairs.append((np.array(a), np.array(b)))
    for a, b in pairs:
        assert _plane_normal(a, b).tobytes() == np.cross(a, b).tobytes()


# zeros of both signs, the smallest subnormal, an underflowing square, 1 and
# the largest double below 1
POWER_EDGES = [-0.0, 0.0, 5e-324, 1e-200, 1.0, 1.0 - 2.0**-53]


def test_powers_round_as_python_float_power():
    # np.float_power calls libm pow per element, as Python's ** does: the
    # squares and the radii equal the element-by-element loops bit for bit,
    # where v * v differs on about 0.1% of squares and np.cbrt on about 12%
    # of cube roots
    rng = np.random.default_rng(22)
    edges = np.array(POWER_EDGES)
    v = np.concatenate([rng.standard_normal(10**5), rng.uniform(-2.0, 2.0, 10**5),
                        edges, -edges])
    assert _squares(v).tobytes() == python_squares(v).tobytes()
    assert _squares(v[:1]).tobytes() == python_squares(v[:1]).tobytes()
    u = np.concatenate([SeededStream(22).uniforms(0, 3 * 10**5), edges.repeat(3)])
    assert _random_bloch(u).tobytes() == python_random_bloch(u).tobytes()


@pytest.mark.parametrize(
    "name",
    sorted(name for name in CLI_MANIFEST if name.startswith("uncertainty-csv-")),
    ids=lambda name: name.removeprefix("uncertainty-csv-"),
)
def test_uncertainty_csv_is_byte_identical(name):
    check_entry(name)
