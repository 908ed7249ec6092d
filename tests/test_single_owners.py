"""Each decision has one owner in spinjoint: the Philox stream is keyed,
positioned and read (``random_raw``) only in ``SeededStream._reader``,
which only ``SeededStream.uniforms`` and the one walk over stream draws
``sampling._block_sum`` call, so no numpy ``Generator`` is made anywhere,
``uniforms`` is called in the package only by ``cli.cmd_uncertainty``
(which reads its draws in one piece), only the walk reads the block size
``_BLOCK``, probabilities become word thresholds only in
``sampling._word_bounds``, called once per count by ``sampling._counts``
and ``scenarios.bb84_eve`` (never per block, so not inside its
``successes``), words become counts only in ``sampling._tally``, so
``scenarios.bb84_eve`` counts its basis/bit cells through ``_tally``'s
mask rather than by itself (``sample_indices`` keeps the public index
lookup), the generator's name is spelled only in ``sampling.py``,
"+"/"-" labels are read only by ``joint.outcome_values``, ``chsh --n``
and ``signal`` share one two-analyzer run, and the measurement-plane
normal a x a' is computed only in the uncertainty kernel
``uncertainty._relations``.
POVMs are row arrays: package code builds each one from its (k, 4) Pauli
rows in ``Povm._from_coordinates``, and the checked constructors
``Effect(label, op)`` and ``Povm(effects)`` serve only matrices read by
``povm_from_json``.  States follow the same split: ``qubit._bloch_rows``
alone checks the Bloch ball and computes the coordinates of a
package-built state, the checked matrix constructor ``QubitState(rho)``
is never called by package code, and only the two checked constructors
``QubitState.__post_init__`` and ``Effect.__post_init__`` read
coordinates back from a matrix.  The one two-qubit state the package
builds, ``correlations.singlet``, is its only call of the checked
``TwoQubitState(rho4)``.  One-party Born probabilities come from one
kernel over state rows, ``povm._probabilities``, called only by
``outcome_probabilities`` (a batch of one) and ``scenarios.bb84_eve``
(its four cells in one call), so the scenarios build no state object and
call neither ``state_from_bloch`` nor ``outcome_probabilities``.
Operators are built from coordinates (``_sigma``) only by
``Povm.effects``, the one place a POVM's matrices are made, and by
``QubitState._from_coordinates``, and
eigenvalues come from coordinates (``_coordinate_eigenvalues``) only in
``Povm._report`` and ``QubitState.__post_init__``."""

import ast
from pathlib import Path

import spinjoint

SRC = Path(spinjoint.__file__).parent

# referenced name -> the one (module file, function) allowed to use it
OWNERS = {
    "bincount": ("sampling.py", "_tally"),
    "count_nonzero": ("sampling.py", "_tally"),
    "random_raw": ("sampling.py", "SeededStream._reader"),
    "searchsorted": ("sampling.py", "sample_indices"),
    "Philox": ("sampling.py", "SeededStream._reader"),
    "SeedSequence": ("sampling.py", "SeededStream._reader"),
    "cross": ("uncertainty.py", "_relations"),
}
LABEL_DECODER = ("joint.py", "outcome_values")
MATRIX_EFFECTS = ("povm.py", "povm_from_json")
BALL_CHECK = ("qubit.py", "_bloch_rows")
MATRIX_READERS = {("qubit.py", "QubitState.__post_init__"), ("povm.py", "Effect.__post_init__")}
SIGMA_CALLERS = {("povm.py", "Povm.effects"), ("qubit.py", "QubitState._from_coordinates")}
EIGENVALUE_CALLERS = {("povm.py", "Povm._report"), ("qubit.py", "QubitState.__post_init__")}
SINGLET = ("correlations.py", "singlet")
PROBABILITY_CALLERS = {("povm.py", "outcome_probabilities"), ("scenarios.py", "bb84_eve")}
DRAW_WALK = ("sampling.py", "_block_sum")
READER_CALLERS = {("sampling.py", "SeededStream.uniforms"), DRAW_WALK}
WORD_BOUNDS_CALLERS = {("sampling.py", "_counts"), ("scenarios.py", "bb84_eve")}
UNIFORMS_CALLERS = {("cli.py", "cmd_uncertainty")}


def _nodes():
    """(module file, dotted name of the enclosing classes and functions or
    None, node) for every node in the package."""
    scopes = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(SRC.glob("*.py")):
        stack = [(ast.parse(path.read_text()), None)]
        while stack:
            node, func = stack.pop()
            if isinstance(node, scopes):
                func = node.name if func is None else f"{func}.{node.name}"
            yield path.name, func, node
            stack.extend((child, func) for child in ast.iter_child_nodes(node))


def _calls(name):
    """(module file, scope) of every call of ``name``, bare or as an
    attribute."""
    return [
        (path, func)
        for path, func, node in _nodes()
        if isinstance(node, ast.Call) and _name(node.func) == name
    ]


def _name(node):
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.alias):
        return node.name
    return None


def test_one_draw_and_count_site():
    found = [
        f"{path}:{func}: {_name(node)}"
        for path, func, node in _nodes()
        if _name(node) in OWNERS and (path, func) != OWNERS[_name(node)]
    ]
    assert found == []


def test_one_walk_over_stream_draws():
    assert set(_calls("_reader")) == READER_CALLERS
    assert set(_calls("uniforms")) == UNIFORMS_CALLERS
    block_reads = {
        (path, func)
        for path, func, node in _nodes()
        if _name(node) == "_BLOCK" and isinstance(getattr(node, "ctx", None), ast.Load)
    }
    assert block_reads == {DRAW_WALK}


def test_word_thresholds_are_built_once_per_count():
    # exact scopes: a use inside bb84_eve's per-block ``successes``, called
    # or handed on (say to ``map``), would be ("scenarios.py", "bb84_eve.successes")
    uses = {(path, func) for path, func, node in _nodes()
            if isinstance(node, ast.Name) and node.id == "_word_bounds"}
    assert uses == WORD_BOUNDS_CALLERS


def test_no_numpy_generator():
    found = [f"{path}:{func}" for path, func, node in _nodes() if _name(node) == "Generator"]
    assert found == []


def test_generator_name_has_one_owner():
    found = [
        f"{path}:{node.lineno} in {func}"
        for path, func, node in _nodes()
        if isinstance(node, ast.Constant) and node.value == "Philox" and path != "sampling.py"
    ]
    assert found == []


def test_one_label_decoder():
    found = [
        f"{path}:{node.lineno} in {func}"
        for path, func, node in _nodes()
        if isinstance(node, ast.Compare)
        and (path, func) != LABEL_DECODER
        and any(
            isinstance(x, ast.Constant) and x.value in ("+", "-")
            for x in (node.left, *node.comparators)
        )
    ]
    assert found == []


def test_two_analyzer_runs_share_one_kernel():
    for owner in (("cli.py", "cmd_chsh"), ("sampling.py", "signalling_experiment")):
        names = {_name(node) for path, func, node in _nodes() if (path, func) == owner}
        assert "_analyzer_counts" in names, owner
        assert not {"sample_two_party", "correlation"} & names, owner


def test_matrix_effects_only_from_json():
    assert set(_calls("Effect")) == {MATRIX_EFFECTS}
    assert set(_calls("Povm")) == {MATRIX_EFFECTS}


def test_operators_and_eigenvalues_from_coordinates_in_one_place():
    assert set(_calls("_sigma")) == SIGMA_CALLERS
    assert set(_calls("_coordinate_eigenvalues")) == EIGENVALUE_CALLERS


def test_one_bloch_ball_check():
    raised = [
        (path, func)
        for path, func, node in _nodes()
        if isinstance(node, ast.Raise)
        and _name(getattr(node.exc, "func", node.exc)) == "BlochOutOfBall"
    ]
    assert raised == [BALL_CHECK]


def test_coordinates_read_from_matrices_only_when_checked():
    assert set(_calls("_pauli_coordinates")) == MATRIX_READERS
    assert _calls("QubitState") == []


def test_one_singlet_and_one_probability_kernel():
    assert _calls("TwoQubitState") == [SINGLET]
    assert set(_calls("_probabilities")) == PROBABILITY_CALLERS
    scenario_calls = {
        _name(node.func)
        for path, _, node in _nodes()
        if path == "scenarios.py" and isinstance(node, ast.Call)
    }
    assert not {"state_from_bloch", "outcome_probabilities"} & scenario_calls
