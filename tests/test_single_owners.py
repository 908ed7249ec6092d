"""Each decision has one owner in spinjoint: draws come only from
``SeededStream.uniforms``, they become counts only in ``sampling._tally``
(``sample_indices`` keeps the public index lookup), the generator's name
is spelled only in ``sampling.py``, "+"/"-" labels are read only by
``joint.outcome_values``, ``chsh --n`` and ``signal`` share one
two-analyzer run, and the checked matrix constructor ``Effect(label, op)``
serves only matrices read by ``povm_from_json``: package code builds its
effects from coordinates, and the measurement-plane normal a x a' is
computed only in the uncertainty kernel ``uncertainty._relations``."""

import ast
from pathlib import Path

import spinjoint

SRC = Path(spinjoint.__file__).parent

# referenced name -> the one (module file, function) allowed to use it
OWNERS = {
    "bincount": ("sampling.py", "_tally"),
    "count_nonzero": ("sampling.py", "_tally"),
    "searchsorted": ("sampling.py", "sample_indices"),
    "Philox": ("sampling.py", "uniforms"),
    "SeedSequence": ("sampling.py", "uniforms"),
    "cross": ("uncertainty.py", "_relations"),
}
LABEL_DECODER = ("joint.py", "outcome_values")
MATRIX_EFFECTS = ("povm.py", "povm_from_json")


def _nodes():
    """(module file, innermost enclosing function or None, node) for every
    node in the package."""
    for path in sorted(SRC.glob("*.py")):
        stack = [(ast.parse(path.read_text()), None)]
        while stack:
            node, func = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func = node.name
            yield path.name, func, node
            stack.extend((child, func) for child in ast.iter_child_nodes(node))


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
    found = [
        f"{path}:{node.lineno} in {func}"
        for path, func, node in _nodes()
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "Effect"
        and (path, func) != MATRIX_EFFECTS
    ]
    assert found == []
