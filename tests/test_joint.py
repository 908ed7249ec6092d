import contextlib
import io
import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from helpers import (
    bloch_vector,
    boundary_alphas,
    dense_admissibility,
    dense_joint_effects,
    exact_admissible,
    exact_eigenvalues,
    exact_probabilities,
    joint_variances,
    pauli_dot,
    random_admissible_spec,
    random_direction_pair,
    random_saturating_spec,
    random_state,
    random_unit,
)
from spinjoint import (
    ATOL,
    ID2,
    TOL,
    BoundViolated,
    DegenerateDirection,
    Effect,
    JointSpec,
    NotSaturating,
    Settings,
    SwitchRealization,
    TwoQubitState,
    bound_lhs,
    general_effect_min_eigenvalues,
    general_joint_povm,
    is_admissible,
    joint_correlations,
    max_symmetric_alpha,
    optimal_joint_povm,
    optimal_settings,
    outcome_probabilities,
    outcome_values,
    product_form_check,
    projective_povm,
    singlet,
    state_from_bloch,
    switch_povm,
    switch_realization,
    validate,
)
from spinjoint import cli, joint
from spinjoint.joint import _decide, require_admissible
from spinjoint.povm import _probabilities
from spinjoint.qubit import _bloch_rows

X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])
Z = np.array([0.0, 0.0, 1.0])
SQ2 = math.sqrt(2.0)


def test_bound_lhs_examples():
    assert bound_lhs(JointSpec(Z, Z, 1.0, 1.0)) == pytest.approx(2.0, abs=1e-12)
    assert bound_lhs(JointSpec(X, Z, 1 / SQ2, 1 / SQ2)) == pytest.approx(2.0, abs=1e-12)
    # 2 * 0.8 * sqrt(2), inadmissible
    assert bound_lhs(JointSpec(X, Z, 0.8, 0.8)) == pytest.approx(1.6 * SQ2, abs=1e-12)


def test_product_form_examples():
    assert product_form_check(JointSpec(X, Z, 1 / SQ2, 1 / SQ2)) == pytest.approx(1.0, abs=1e-12)
    assert product_form_check(JointSpec(X, Z, 1.0, 0.0)) == pytest.approx(1.0, abs=1e-12)
    assert product_form_check(JointSpec(Z, Z, 1.0, 1.0)) == pytest.approx(1.0, abs=1e-12)


def test_max_symmetric_alpha_examples():
    assert max_symmetric_alpha(math.pi / 2) == pytest.approx(1 / SQ2, abs=1e-12)
    assert max_symmetric_alpha(0.0) == 1.0
    # positive root of 2 a^2 - a^4/2 = 1, i.e. a^2 = 2 - sqrt(2)
    assert max_symmetric_alpha(math.pi / 4) == pytest.approx(math.sqrt(2 - SQ2), abs=1e-12)


def _theta_grids():
    return [np.arange(p) * math.pi / (p - 1) for p in (*range(2, 401), 1000, 5001)]


def test_max_symmetric_alpha_scalar_is_a_batch_of_one():
    rng = np.random.default_rng(1801)
    batches = [*_theta_grids(), rng.uniform(0.0, math.pi, 100_000),
               np.array([0.0, math.pi, math.pi + 0.5 * ATOL, 5e-324])]
    for thetas in batches:
        batch = max_symmetric_alpha(thetas)
        assert batch.shape == thetas.shape
        for theta, alpha in zip(thetas.tolist(), batch.tolist()):
            scalar = max_symmetric_alpha(theta)
            assert type(scalar) is float
            assert scalar == alpha == 1 / math.sqrt(1 + abs(math.sin(theta))), theta
    assert type(max_symmetric_alpha(np.float64(1.0))) is float
    assert type(max_symmetric_alpha(1)) is float


@pytest.mark.parametrize("bad", [-1e-300, -0.5, math.pi + 2 * ATOL, 4.0, math.nan, math.inf])
def test_max_symmetric_alpha_checks_every_angle(bad):
    with pytest.raises(ValueError):
        max_symmetric_alpha(bad)
    for where in (0, 90, 180):
        thetas = np.linspace(0.0, math.pi, 181)
        thetas[where] = bad
        with pytest.raises(ValueError):
            max_symmetric_alpha(thetas)


def test_max_symmetric_alpha_against_root_finder():
    # independent oracle: root of the product-form boundary in alpha
    for theta in np.linspace(0.05, math.pi - 0.05, 29):
        c2 = math.cos(theta) ** 2

        def boundary(alpha):
            return 2 * alpha**2 - alpha**4 * c2 - 1.0

        root = brentq(boundary, 0.5, 1.0, xtol=1e-15)
        assert max_symmetric_alpha(theta) == pytest.approx(root, abs=1e-12)


def test_max_symmetric_alpha_saturates_bound():
    rng = np.random.default_rng(23)
    for _ in range(100):
        a, ap = random_direction_pair(rng)
        theta = math.acos(np.clip(a @ ap, -1, 1))
        alpha = max_symmetric_alpha(theta)
        spec = JointSpec(a, ap, alpha, alpha)
        assert abs(bound_lhs(spec) - 2.0) <= 1e-12


alpha_floats = st.floats(0.0, 1.0, allow_nan=False)
coords = st.floats(-1.0, 1.0, allow_nan=False)


@given(st.tuples(coords, coords, coords), st.tuples(coords, coords, coords),
       alpha_floats, alpha_floats)
@settings(deadline=None, max_examples=300)
def test_admissibility_predicates_agree(va, vap, alpha, alpha_p):
    na, nap = np.linalg.norm(va), np.linalg.norm(vap)
    if na < 1e-3 or nap < 1e-3:
        return
    spec = JointSpec(np.asarray(va) / na, np.asarray(vap) / nap, alpha, alpha_p)
    margin_bound = bound_lhs(spec) - 2.0
    margin_product = product_form_check(spec) - 1.0
    min_eig = min(general_effect_min_eigenvalues(spec))
    if min(abs(margin_bound), abs(margin_product), 4 * abs(min_eig)) <= 1e-9:
        return  # boundary band excluded
    verdicts = (margin_bound <= 0, margin_product <= 0, min_eig >= 0)
    assert len(set(verdicts)) == 1
    # the constructor's accept/reject decision matches
    try:
        general_joint_povm(spec)
        constructed = True
    except BoundViolated:
        constructed = False
    assert constructed == verdicts[0]


def _accepts(fn, spec):
    try:
        fn(spec)
    except BoundViolated:
        return False
    return True


def _cli_validate_exit(theta_deg, alpha):
    argv = ["validate", "--theta-deg", repr(theta_deg), "--alpha", repr(alpha),
            "--alpha-prime", repr(alpha)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _boundary_band(signs=(1.0,)):
    """(theta_deg, eps, alpha, spec) for alpha = alpha_max(theta)(1 + s eps):
    24 angles from 3 to 177 degrees, 100 eps in logspace(-13, -8), each
    sign s.  The band that test_admissibility_predicates_agree excludes."""
    for theta_deg in np.linspace(3.0, 177.0, 24):
        theta = math.radians(theta_deg)
        for eps in np.logspace(-13, -8, 100):
            for s in signs:
                alpha = max_symmetric_alpha(theta) * (1.0 + s * float(eps))
                # the spec the CLI resolves from the same flags
                yield theta_deg, eps, alpha, JointSpec.from_angle(theta, alpha, alpha)


def test_admissibility_entry_points_agree_in_boundary_band():
    # alpha above alpha_max straddles the boundary
    settings = Settings(X, Z)
    disagreements = []
    for theta_deg, eps, alpha, spec in _boundary_band():
        verdicts = (
            is_admissible(spec),
            _accepts(require_admissible, spec),
            _accepts(general_joint_povm, spec),
            _accepts(lambda s: joint_correlations(s, settings), spec),
            _cli_validate_exit(float(theta_deg), alpha) == 0,
        )
        if len(set(verdicts)) != 1:
            disagreements.append((theta_deg, eps, verdicts))
    assert disagreements == []


def test_validate_eigenvalues_equal_closed_form_in_boundary_band():
    # exact coordinates (w/2, v/2) and one norm: validate's eigenvalues are
    # the closed form (w -+ |v|)/4 bit for bit, so the two cannot disagree
    # about a value near -TOL
    compared = 0
    for *_, spec in _boundary_band(signs=(1.0, -1.0)):
        try:
            povm = general_joint_povm(spec)
        except BoundViolated:
            continue
        assert validate(povm).min_eigenvalues == general_effect_min_eigenvalues(spec)
        compared += 1
    assert compared > 2400  # every spec below alpha_max and some above it


# allowance of the float eigenvalues (w - |v|)/4 against exact ones: w and
# |v| are O(1) sums of a few rounded products
EIG_ERROR = 4 * np.finfo(float).eps


@st.composite
def near_boundary_specs(draw):
    """Specs at alpha = alpha_max(theta)(1 +- 10^e) for e in [-16, -8], with
    alpha' within 1e-9 of alpha and a random first direction."""
    theta = draw(st.floats(0.01, math.pi - 0.01))
    alpha = max_symmetric_alpha(theta) * (1.0 + draw(st.sampled_from((1.0, -1.0)))
                                          * 10.0 ** draw(st.floats(-16.0, -8.0)))
    alpha_p = alpha * (1.0 + draw(st.floats(-1e-9, 1e-9)))
    a = np.array(draw(st.tuples(coords, coords, coords)
                      .filter(lambda v: np.linalg.norm(v) > 1e-3)))
    return JointSpec.from_angle(theta, alpha, alpha_p, a / np.linalg.norm(a))


@given(near_boundary_specs())
@settings(deadline=None, max_examples=200)
def test_float_eigenvalues_are_within_rounding_of_exact(spec):
    d = spec._parallelogram
    for got, want in zip((d.eig_plus, d.eig_minus), exact_eigenvalues(spec)):
        assert abs(Decimal(float(got)) - want) <= EIG_ERROR


@given(near_boundary_specs())
@settings(deadline=None, max_examples=200)
def test_admissibility_decision_matches_exact_arithmetic(spec):
    if abs(min(exact_eigenvalues(spec)) + Decimal(TOL)) <= EIG_ERROR:
        return  # within rounding of the threshold, either verdict is right
    exact = exact_admissible(spec, TOL)
    assert _accepts(lambda s: _decide(s._parallelogram), spec) == exact
    assert is_admissible(spec) == exact


# allowance of a Born entry against the exact value of the same float rows:
# 0.5 (t s + r.m) is a dot product of four terms whose sizes sum to at most 2
BORN_ERROR = 4 * np.finfo(float).eps


def _unit_rows(draw, k):
    rows = draw(st.lists(st.tuples(coords, coords, coords)
                         .filter(lambda v: np.linalg.norm(v) > 1e-3), min_size=k, max_size=k))
    return np.array(rows) / np.linalg.norm(rows, axis=1)[:, None]


@st.composite
def born_cases(draw):
    """A POVM, the general family just below alpha_max(theta), the saturating
    family at alpha_max(theta) or a sharp one, and ``_bloch_rows`` rows of
    states inside the ball and on the sphere."""
    theta = draw(st.floats(0.01, math.pi - 0.01))
    alpha = max_symmetric_alpha(theta)
    a = _unit_rows(draw, 1)[0]
    kind = draw(st.sampled_from(("general", "optimal", "projective")))
    if kind == "general":
        below = [1.0 - 10.0 ** draw(st.floats(-16.0, -8.0)) for _ in range(2)]
        povm = general_joint_povm(JointSpec.from_angle(theta, alpha * below[0],
                                                       alpha * below[1], a))
    elif kind == "optimal":
        povm = optimal_joint_povm(JointSpec.from_angle(theta, alpha, alpha, a))
    else:
        povm = projective_povm(a)
    sphere = _unit_rows(draw, 4)
    radii = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4)))
    return povm, _bloch_rows(np.concatenate([sphere * radii[:, None], sphere]))


@given(born_cases())
@settings(deadline=None, max_examples=100)
def test_born_probabilities_are_within_rounding_of_exact(case):
    povm, rows = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # entries just below 0 are set to 0 silently
        probs = _probabilities(povm, rows)
    for got_row, exact_row in zip(probs.tolist(), exact_probabilities(povm, rows)):
        for got, exact in zip(got_row, exact_row):
            assert got >= 0.0
            assert abs(Fraction(got) - max(Fraction(0), exact)) <= BORN_ERROR


def test_clamped_born_entry_is_negative_in_exact_arithmetic():
    # sample --theta-deg 180 --bloch 1,0,0: a' = (sin pi, 0, cos pi) leaves the
    # effect "--" with t = 0 and r = (-6.1e-17, 0, 0), so the exact value of
    # its float rows is negative too; the clamp is not rounding in the dot product,
    # and it lies within the -TOL that validation admits, so it warns nothing
    alpha = max_symmetric_alpha(math.pi)
    povm = general_joint_povm(JointSpec.from_angle(math.pi, alpha, alpha))
    rows = _bloch_rows(np.array([[1.0, 0.0, 0.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        probs = dict(zip(povm.labels, _probabilities(povm, rows)[0].tolist()))
    exact = dict(zip(povm.labels, exact_probabilities(povm, rows)[0]))
    assert probs["--"] == 0.0
    assert float(exact["--"]) == -3.061616997868383e-17
    assert -TOL <= exact["--"] < 0
    assert all(abs(Fraction(probs[k]) - exact[k]) <= BORN_ERROR for k in povm.labels if k != "--")


def test_optimal_joint_povm_explicit_matrix():
    spec = JointSpec(X, Z, 1 / SQ2, 1 / SQ2)
    povm = optimal_joint_povm(spec)
    assert povm.labels == ("++", "--", "+-", "-+")
    expected_pp = 0.25 * np.array(
        [[1 + 1 / SQ2, 1 / SQ2], [1 / SQ2, 1 - 1 / SQ2]], dtype=complex
    )
    assert np.max(np.abs(povm.effect("++").op - expected_pp)) <= 1e-12
    assert validate(povm).passes


def test_optimal_joint_povm_marginals():
    rng = np.random.default_rng(29)
    for _ in range(30):
        spec = random_saturating_spec(rng)
        povm = optimal_joint_povm(spec)
        marg_a = povm.effect("++").op + povm.effect("+-").op
        marg_ap = povm.effect("++").op + povm.effect("-+").op
        assert np.max(np.abs(marg_a - 0.5 * (ID2 + spec.alpha * pauli_dot(spec.a)))) <= 1e-12
        assert np.max(np.abs(marg_ap - 0.5 * (ID2 + spec.alpha_prime * pauli_dot(spec.a_prime)))) <= 1e-12


def test_optimal_joint_povm_collinear_limit():
    povm = optimal_joint_povm(JointSpec(Z, Z, 1.0, 1.0))
    assert np.max(np.abs(povm.effect("++").op - np.diag([1.0, 0.0]))) <= 1e-12
    assert np.max(np.abs(povm.effect("--").op - np.diag([0.0, 1.0]))) <= 1e-12
    assert np.max(np.abs(povm.effect("+-").op)) <= 1e-12
    assert np.max(np.abs(povm.effect("-+").op)) <= 1e-12


def test_optimal_joint_povm_requires_saturation():
    with pytest.raises(NotSaturating):
        optimal_joint_povm(JointSpec(X, Z, 0.5, 0.5))


def _right_angle_spec(k):
    """theta = pi/2 and alpha = alpha' = (1 + k 5e-11)/sqrt(2): the diagonal
    sum is 2 + k 1e-10 and both effect eigenvalues are -k 1.25e-11."""
    alpha = (1.0 + k * 5e-11) / SQ2
    return JointSpec.from_angle(math.pi / 2, alpha, alpha)


def _root_alphas(theta, alpha, k):
    """alpha and its boundary root sqrt((1 - alpha^2)/(1 - alpha^2 cos^2 theta)),
    both scaled by 1 + k 1e-11."""
    root = math.sqrt((1.0 - alpha**2) / (1.0 - (alpha * math.cos(theta)) ** 2))
    scale = 1.0 + k * 1e-11
    return scale * alpha, scale * root


@st.composite
def boundary_root_specs(draw):
    """``_root_alphas`` for alpha log-uniform in [1e-7, 1], theta in (0, pi)
    and k in [-100, 100], with a random first direction."""
    alpha = 10.0 ** draw(st.floats(-7.0, 0.0))
    theta = draw(st.floats(0.0, math.pi, exclude_min=True, exclude_max=True))
    assume(alpha * abs(math.cos(theta)) < 1.0)
    alphas = _root_alphas(theta, alpha, draw(st.floats(-100.0, 100.0)))
    assume(max(alphas) <= 1.0 + ATOL)
    return JointSpec.from_angle(theta, *alphas, _unit_rows(draw, 1)[0])


@given(boundary_root_specs())
# admitted past the boundary, with the diagonal sum more than TOL above 2
@example(_right_angle_spec(2.0))
@example(_right_angle_spec(4.0))
@example(_right_angle_spec(7.9))
# eigenvalues 1.8e-11 and 2.8e-10: interior, though the smaller is within TOL
@example(JointSpec.from_angle(0.1, *_root_alphas(0.1, 0.9, -60.0)))
@settings(deadline=None, max_examples=300)
def test_saturation_is_read_from_both_effect_eigenvalues(spec):
    if not is_admissible(spec):
        return
    saturating = max(map(abs, general_effect_min_eigenvalues(spec))) <= TOL
    try:
        optimal = optimal_joint_povm(spec)
    except NotSaturating:
        optimal = None
    assert (optimal is not None) == saturating
    # an admitted spec on or past the boundary in exact arithmetic saturates it
    assert optimal is not None or max(exact_eigenvalues(spec)) > 0
    if optimal is None:
        return
    assert validate(optimal).passes
    try:
        realization = switch_realization(spec)
    except DegenerateDirection:
        return
    rebuilt = switch_povm(realization)
    assert validate(rebuilt).passes
    assert np.max(np.abs(rebuilt._pauli - optimal._pauli)) <= 4 * TOL


def test_general_joint_povm_interior_weights():
    povm = general_joint_povm(JointSpec(X, Z, 0.5, 0.5))
    for label in ("++", "--", "+-", "-+"):
        assert np.trace(povm.effect(label).op).real == pytest.approx(0.5, abs=1e-12)
    assert validate(povm).passes


def test_general_equals_optimal_at_saturation():
    # optimal_joint_povm returns the general family; the paper's |v+-|-weighted
    # effects (|v+-| 1 +- v+- . sigma)/4, built densely, check it independently
    rng = np.random.default_rng(31)
    for _ in range(30):
        spec = random_saturating_spec(rng)
        optimal = optimal_joint_povm(spec)
        assert optimal is general_joint_povm(spec)
        for effect, paper in zip(optimal, dense_joint_effects(spec, optimal=True)):
            assert np.max(np.abs(effect.op - paper)) <= 1e-12


def test_general_joint_povm_bound_violated():
    with pytest.raises(BoundViolated) as excinfo:
        general_joint_povm(JointSpec(X, Z, 0.8, 0.8))
    assert excinfo.value.min_eigenvalue == pytest.approx(0.25 * (1 - 0.8 * SQ2), abs=1e-12)


def test_general_joint_povm_degenerate_guess_branch():
    # alpha' = 0: sharp measurement of a plus a fair coin for the second slot
    povm = general_joint_povm(JointSpec(Z, X, 1.0, 0.0))
    mixed = state_from_bloch((0, 0, 0))
    probs = dict(outcome_probabilities(povm, mixed))
    assert probs["++"] == pytest.approx(0.25, abs=1e-12)
    second_mean = sum(outcome_values(l)[1] * p for l, p in probs.items())
    assert second_mean == pytest.approx(0.0, abs=1e-12)


def test_unbiased_averages_from_general_povm():
    # constructed averages track alpha <A> for every admissible spec and state
    rng = np.random.default_rng(37)
    specs = [random_admissible_spec(rng) for _ in range(20)]
    for k in range(1000):
        spec = specs[k % len(specs)]
        state = random_state(rng)
        probs = dict(outcome_probabilities(general_joint_povm(spec), state))
        mean_a = sum(outcome_values(l)[0] * p for l, p in probs.items())
        mean_ap = sum(outcome_values(l)[1] * p for l, p in probs.items())
        m = bloch_vector(state)
        assert mean_a == pytest.approx(spec.alpha * float(spec.a @ m), abs=1e-10)
        assert mean_ap == pytest.approx(spec.alpha_prime * float(spec.a_prime @ m), abs=1e-10)


def test_negative_sharpness_factors_are_symmetric():
    # only the moduli enter the admissibility region
    spec = JointSpec(X, Z, -1 / SQ2, 1 / SQ2)
    assert bound_lhs(spec) == pytest.approx(2.0, abs=1e-12)
    povm = optimal_joint_povm(spec)
    assert validate(povm).passes
    state = state_from_bloch(0.5 * X)
    probs = dict(outcome_probabilities(povm, state))
    mean_a = sum(outcome_values(l)[0] * p for l, p in probs.items())
    assert mean_a == pytest.approx(-0.5 / SQ2, abs=1e-12)


def test_joint_variances_examples():
    spec_sharp = JointSpec(Z, X, 1.0, 0.0)
    up = state_from_bloch(Z)
    assert joint_variances(spec_sharp, up).var_joint == pytest.approx(0.0, abs=1e-12)
    mixed = state_from_bloch((0, 0, 0))
    spec = JointSpec(X, Z, 1 / SQ2, 1 / SQ2)
    assert joint_variances(spec, mixed).var_joint == pytest.approx(1.0, abs=1e-12)
    up_a = state_from_bloch(X)
    assert joint_variances(spec, up_a).var_joint == pytest.approx(0.5, abs=1e-12)


def test_variance_decomposition_identity():
    rng = np.random.default_rng(41)
    for _ in range(50):
        spec = random_admissible_spec(rng, min_scale=0.2)
        report = joint_variances(spec, random_state(rng))
        alpha_sq = spec.alpha**2
        assert report.var_joint == pytest.approx(
            (1 - alpha_sq) + alpha_sq * report.var_bare, abs=1e-12
        )
        assert report.var_joint / alpha_sq - report.var_bare == pytest.approx(
            (1 - alpha_sq) / alpha_sq, abs=1e-9
        )


def test_switch_realization_symmetric():
    spec = JointSpec(X, Z, 1 / SQ2, 1 / SQ2)
    sw = switch_realization(spec)
    assert sw.p == pytest.approx(0.5, abs=1e-12)
    assert np.max(np.abs(sw.c - (X + Z) / SQ2)) <= 1e-12
    assert np.max(np.abs(sw.c_prime - (X - Z) / SQ2)) <= 1e-12


def test_switch_realization_requires_saturation_and_nondegenerate():
    with pytest.raises(NotSaturating):
        switch_realization(JointSpec(X, Z, 0.5, 0.5))
    with pytest.raises(DegenerateDirection):
        switch_realization(JointSpec(Z, Z, 1.0, 1.0))


def test_switch_reconstruction_matches_optimal_family():
    rng = np.random.default_rng(43)
    for _ in range(50):
        spec = random_saturating_spec(rng)
        sw = switch_realization(spec)
        assert sw.p == pytest.approx(
            0.5 * np.linalg.norm(spec.alpha * spec.a + spec.alpha_prime * spec.a_prime),
            abs=1e-12,
        )
        rebuilt = switch_povm(sw)
        reference = optimal_joint_povm(spec)
        for label in ("++", "--", "+-", "-+"):
            assert np.max(np.abs(rebuilt.effect(label).op - reference.effect(label).op)) <= 1e-12
        # the switch's defining linear constraints
        v_plus = spec.alpha * spec.a + spec.alpha_prime * spec.a_prime
        v_minus = spec.alpha * spec.a - spec.alpha_prime * spec.a_prime
        assert np.max(np.abs(2 * sw.p * sw.c - v_plus)) <= 1e-12
        assert np.max(np.abs(2 * (1 - sw.p) * sw.c_prime - v_minus)) <= 1e-12


def test_switch_realization_clamps_a_coin_bias_past_one():
    # |alpha|, |alpha'| <= 1 + ATOL are accepted, so on this admissible,
    # saturating spec |v_plus|/2 exceeds 1 by rounding
    spec = JointSpec.from_angle(1e-11, 1 + 5e-13, 1 + 5e-13)
    assert is_admissible(spec) and abs(bound_lhs(spec) - 2.0) <= TOL
    assert 0.5 * np.linalg.norm(spec.alpha * spec.a + spec.alpha_prime * spec.a_prime) > 1.0
    sw = switch_realization(spec)
    assert sw.p == 1.0
    rebuilt, reference = switch_povm(sw), optimal_joint_povm(spec)
    assert validate(reference).passes
    for label in ("++", "--", "+-", "-+"):
        assert np.max(np.abs(rebuilt.effect(label).op - reference.effect(label).op)) <= TOL


def test_boundary_specs_saturate_exactly():
    rng = np.random.default_rng(47)
    for _ in range(100):
        spec = random_saturating_spec(rng)
        assert abs(bound_lhs(spec) - 2.0) <= 1e-12
        assert is_admissible(spec)


def test_joint_spec_validation():
    with pytest.raises(ValueError):
        JointSpec(X, Z, 1.2, 0.5)
    # theta is derived from a.a_prime, never passed
    assert JointSpec(X, Z, 0.5, 0.5).theta == pytest.approx(math.pi / 2, abs=1e-12)
    with pytest.raises(TypeError):
        JointSpec(X, Z, 0.5, 0.5, theta=math.pi / 2)


def test_outcome_values_decodes_plus_minus_labels():
    assert outcome_values("+") == (1,)
    assert outcome_values("-") == (-1,)
    assert outcome_values("+-") == (1, -1)
    for label in ("", "+x", "0"):
        with pytest.raises(ValueError):
            outcome_values(label)


def test_joint_spec_from_angle_geometry():
    for theta in (0.0, 0.3, math.pi / 2, 2.5, math.pi):
        spec = JointSpec.from_angle(theta, 0.3, 0.4)
        assert float(spec.a @ spec.a_prime) == pytest.approx(math.cos(theta), abs=1e-12)
    spec = JointSpec.from_angle(math.pi / 3, 0.3, 0.4)
    assert spec.a_prime[1] == pytest.approx(0.0, abs=1e-15)  # xz-plane for default a


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_joint_spec_from_angle_on_the_x_axis_turns_toward_z(sign):
    # a along the x reference axis: a' is placed in the plane of a and z
    for theta in (0.0, 0.3, math.pi / 2, 2.5, math.pi):
        spec = JointSpec.from_angle(theta, 0.3, 0.4, a=(sign, 0.0, 0.0))
        assert float(spec.a @ spec.a_prime) == math.cos(theta)
        assert float(np.linalg.norm(spec.a_prime)) == pytest.approx(1.0, abs=1e-15)
        assert spec.a_prime[1] == 0.0
        assert spec.a_prime[2] == math.sin(theta)


def test_joint_spec_from_angle_near_the_x_axis_is_a_unit_pair():
    # a within 1e-9 ... 1 of +-x, where x - (x.a) a is short: a' must still be
    # a unit vector within ATOL, or JointSpec refuses it (a 10^5-case run of
    # this draw reads at most 25 eps)
    rng = np.random.default_rng(1996)
    for _ in range(5000):
        tilt = rng.uniform(-1.0, 1.0, 2) * 10.0 ** rng.uniform(-9.0, 0.0)
        v = np.array([rng.choice([-1.0, 1.0]), *tilt])
        theta = rng.uniform(0.0, math.pi)
        spec = JointSpec.from_angle(theta, 0.3, 0.4, a=v / np.linalg.norm(v))
        assert abs(float(np.linalg.norm(spec.a_prime)) - 1.0) <= 64 * np.finfo(float).eps
        assert float(spec.a @ spec.a_prime) == pytest.approx(math.cos(theta), abs=1e-13)


def test_switch_realization_refuses_a_non_probability():
    for p in (1.5, -0.1, math.nan):
        with pytest.raises(ValueError):
            SwitchRealization(p, X, Z)


def test_admissibility_scan_matches_scalar_functions():
    from spinjoint import admissibility_scan

    rng = np.random.default_rng(59)
    n = 300
    a = np.array([random_unit(rng) for _ in range(n)])
    ap = np.array([random_unit(rng) for _ in range(n)])
    alpha = rng.uniform(0, 1, n)
    alpha_p = rng.uniform(0, 1, n)
    diag_sum, pform, min_eig = admissibility_scan(a, ap, alpha, alpha_p)
    for i in range(n):
        spec = JointSpec(a[i], ap[i], alpha[i], alpha_p[i])
        # both routes share one kernel, so each is held to the dense oracle
        dense_sum, dense_pform, dense_eig = dense_admissibility(spec)
        for value in (diag_sum[i], bound_lhs(spec)):
            assert value == pytest.approx(dense_sum, abs=1e-12)
        for value in (pform[i], product_form_check(spec)):
            assert value == pytest.approx(dense_pform, abs=1e-12)
        for value in (min_eig[i], min(general_effect_min_eigenvalues(spec))):
            assert value == pytest.approx(dense_eig, abs=1e-12)


def test_boundary_alphas_helper_respects_caps():
    rng = np.random.default_rng(53)
    for _ in range(200):
        a, ap = random_direction_pair(rng)
        ratio = rng.uniform(0.05, 20.0)
        alpha, alpha_p = boundary_alphas(a, ap, ratio)
        assert abs(alpha) <= 1 + 1e-12
        assert abs(alpha_p) <= 1 + 1e-12


def test_spec_runs_its_kernel_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    kernel = joint._diagonals
    monkeypatch.setattr(joint, "_diagonals", counted)
    spec = JointSpec(X, Z, 0.6, 0.5)
    for _ in range(2):
        bound_lhs(spec)
        product_form_check(spec)
        general_effect_min_eigenvalues(spec)
        assert is_admissible(spec)
        joint_correlations(spec, optimal_settings(spec))
        general_joint_povm(spec)
    assert len(calls) == 1
    # an inadmissible spec keeps its kernel too, and raises on every call
    bad = JointSpec(X, Z, 0.8, 0.8)
    for _ in range(3):
        with pytest.raises(BoundViolated):
            general_joint_povm(bad)
        with pytest.raises(BoundViolated):
            require_admissible(bad)
    assert len(calls) == 2


@pytest.mark.parametrize(
    "make",
    [
        lambda: JointSpec.from_angle(1.0, 0.5, 0.5),
        lambda: Settings(X, Z),
        lambda: state_from_bloch((0.1, 0.2, 0.3)),
        lambda: TwoQubitState(singlet().rho4),
        lambda: switch_realization(JointSpec(X, Z, 1 / SQ2, 1 / SQ2)),
        lambda: Effect("+", 0.5 * ID2),
        lambda: projective_povm(Z),
    ],
    ids=["JointSpec", "Settings", "QubitState", "TwoQubitState",
         "SwitchRealization", "Effect", "Povm"],
)
def test_array_holders_compare_by_identity(make):
    # equal fields would compare arrays elementwise; these compare and hash
    # as objects instead
    x, y = make(), make()
    assert x == x and x != y
    assert hash(x) == hash(x) and len({x, y}) == 2
