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
normal a x a' is computed only in ``uncertainty._plane_normal``, which
only ``uncertainty._plane`` calls, for a spec's relations
(``_spec_relations``) and for the bare directions of ``robertson`` and
``schroedinger``.  The relations have one module: no module but
``uncertainty.py`` defines a relation helper (the plane, the product
forms, the squares, the joint variance), and ``joint.py`` spells no
relation id.  The uncertainty kernel ``uncertainty._relations`` has one
call shape, (N, 4) state rows first and never ``None``, and checks no
directions: in ``uncertainty.py`` only ``robertson`` and
``schroedinger``, whose directions come from the caller, call ``unit3``.
Powers of arrays are taken by libm pow per element through
``np.float_power``, only in ``uncertainty._squares`` and
``cli._random_bloch``, and no comprehension raises its own variable to a
power.
POVMs are row arrays: package code builds each one from its (k, 4) Pauli
rows in ``Povm._from_coordinates``, and the checked constructors
``Effect(label, op)`` and ``Povm(effects)`` serve only matrices read by
``povm_from_json``.  States follow the same split: ``qubit._bloch_rows``
alone checks the Bloch ball and computes the coordinates of a
package-built state, a state holds only that row, the checked matrix
constructor ``QubitState(rho)`` is never called by package code, and
only the two checked constructors ``QubitState.__init__`` and
``Effect.__post_init__`` read coordinates back from a matrix.  The one
two-qubit state the package builds, ``correlations.singlet``, is its only
call of the checked ``TwoQubitState(rho4)``.  One-party Born probabilities come from one
kernel over state rows, ``povm._probabilities``, called only by
``outcome_probabilities`` (a batch of one) and ``scenarios.bb84_eve``
(its four cells in one call), so the scenarios build no state object and
call neither ``state_from_bloch`` nor ``outcome_probabilities``.
Operators are built from rows only by ``qubit._operators``, the one
caller of ``_sigma``, which only ``Povm.effects`` and ``QubitState.rho``
call, on first use, and eigenvalues come from coordinates
(``_coordinate_eigenvalues``) only in ``Povm._report`` and
``QubitState.__init__``.
A spec is classified once, on its two effect eigenvalues ``eig_plus``
and ``eig_minus``: in ``joint.py`` only ``_decide`` (refused below -TOL)
and ``_require_saturating`` (saturating when both lie within TOL of 0)
read ``TOL``, no comparison takes the diagonal sum or the product form,
and only the reporters ``bound_lhs``, ``product_form_check``,
``admissibility_scan`` and ``_decide``'s ``BoundViolated`` message read
them.  The four-outcome joint family is built only in
``JointSpec._general_povm``; ``switch_povm`` is the one other function
that reads ``OUTCOME_LABELS``.
The theta grid i * pi / (P - 1) is built only in ``joint._theta_grid``,
called only by ``cli.cmd_scan_theta`` and ``scenarios.min_cloning_gap``,
which go over the grid as arrays: ``cmd_scan_theta`` builds no
``JointSpec`` and calls no ``product_form``, and ``min_cloning_gap`` calls
``cloning_joint`` once, outside any loop.
Each CLI command is a function of its parsed flags alone: no ``cmd_*``
takes the parser, a usage error a command raises becomes exit 2 only
through the subcommand parser's ``error`` in ``cli.main`` (the one caller
of ``build_parser`` in ``cli.py``), and ``cmd_validate`` takes its admissibility verdict from the
one ``general_joint_povm`` call, never from ``is_admissible`` or
``require_admissible``.  ``cli.py`` reads neither ``TOL`` nor ``ATOL``, so
every exit 1 about a spec is a library refusal, never a second verdict.
Indented JSON goes through ``json.dumps(..., indent=...)`` only in
``cli._emit_rows``: ``povm_to_json`` writes its text itself.  Hermiticity
is decided only by ``qubit.is_hermitian``, called only by the checked
constructors' ``Effect.__post_init__`` and ``qubit._density_matrix``, and
no other function takes a conjugate.  No module imports ``warnings`` or
calls ``warn``: stdout and stderr carry only results, usage lines and
refusals, and a Born entry in [-TOL, 0), which validation admits, is set
to 0 silently.
An export ledger: every name ``spinjoint/__init__.py`` imports, and every
public method or property defined on an exported class, is named in a
module of ``src/spinjoint/`` other than ``__init__.py`` (an AST name or
attribute), in a ``bench/`` module (also as a dotted string such as
``"sampling.sample_indices"``) or in an inline code span of ``README.md``.
No module in ``src/`` imports a name at module level that it never reads,
and no module-level private function, class or constant goes unread."""

import ast
import functools
import re
from pathlib import Path

import spinjoint
from spinjoint import RELATION_IDS

SRC = Path(spinjoint.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
README = ROOT / "README.md"

# referenced name -> the one (module file, function) allowed to use it
OWNERS = {
    "bincount": ("sampling.py", "_tally"),
    "count_nonzero": ("sampling.py", "_tally"),
    "random_raw": ("sampling.py", "SeededStream._reader"),
    "searchsorted": ("sampling.py", "sample_indices"),
    "Philox": ("sampling.py", "SeededStream._reader"),
    "SeedSequence": ("sampling.py", "SeededStream._reader"),
    "cross": ("uncertainty.py", "_plane_normal"),
    "arange": ("joint.py", "_theta_grid"),
    "linspace": ("joint.py", "_theta_grid"),
}
LABEL_DECODER = ("joint.py", "outcome_values")
MATRIX_EFFECTS = ("povm.py", "povm_from_json")
BALL_CHECK = ("qubit.py", "_bloch_rows")
MATRIX_READERS = {("qubit.py", "QubitState.__init__"), ("povm.py", "Effect.__post_init__")}
SIGMA_CALLERS = {("qubit.py", "_operators")}
OPERATOR_CALLERS = {("povm.py", "Povm.effects"), ("qubit.py", "QubitState.rho")}
EIGENVALUE_CALLERS = {("povm.py", "Povm._report"), ("qubit.py", "QubitState.__init__")}
SINGLET = ("correlations.py", "singlet")
PROBABILITY_CALLERS = {("povm.py", "outcome_probabilities"), ("scenarios.py", "bb84_eve")}
DRAW_WALK = ("sampling.py", "_block_sum")
READER_CALLERS = {("sampling.py", "SeededStream.uniforms"), DRAW_WALK}
WORD_BOUNDS_CALLERS = {("sampling.py", "_counts"), ("scenarios.py", "bb84_eve")}
UNIFORMS_CALLERS = {("cli.py", "cmd_uncertainty")}
SCAN_THETA = ("cli.py", "cmd_scan_theta")
CLI_MAIN = ("cli.py", "main")
JSON_WRITER = ("cli.py", "_emit_rows")
PLANE_CALLERS = {("uncertainty.py", "_spec_relations"), ("uncertainty.py", "robertson"),
                 ("uncertainty.py", "schroedinger")}
RELATION_HELPERS = {"_plane", "_plane_normal", "_product_forms", "_squares", "_joint_variance"}
SPEC_CLASSIFIERS = {("joint.py", "_decide"), ("joint.py", "_require_saturating")}
REPORTED = {"diagonal_sum", "product_form"}
REPORTERS = {("joint.py", "bound_lhs"), ("joint.py", "product_form_check"),
             ("joint.py", "admissibility_scan"), ("joint.py", "_decide")}
LABEL_BUILDERS = {("joint.py", "JointSpec._general_povm"), ("joint.py", "switch_povm")}
HERMITICITY_CALLERS = {("povm.py", "Effect.__post_init__"), ("qubit.py", "_density_matrix")}
HERMITICITY = ("qubit.py", "is_hermitian")
GAP_SCAN = ("scenarios.py", "min_cloning_gap")
DIRECTION_CHECKS = {("uncertainty.py", "robertson"), ("uncertainty.py", "schroedinger")}
POWER_CALLERS = {("uncertainty.py", "_squares"), ("cli.py", "_random_bloch")}
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
MEMBER_KINDS = (property, functools.cached_property, classmethod, staticmethod)
LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp,
         ast.Lambda, ast.FunctionDef)


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
    assert set(_calls("_operators")) == OPERATOR_CALLERS
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


def test_theta_grid_is_one_batch():
    assert set(_calls("_theta_grid")) == {SCAN_THETA, GAP_SCAN}
    scan_names = {_name(node) for path, func, node in _nodes() if (path, func) == SCAN_THETA}
    assert not {"JointSpec", "from_angle", "product_form"} & scan_names
    (gap_scan,) = [node for path, func, node in _nodes()
                   if (path, func) == GAP_SCAN and isinstance(node, ast.FunctionDef)]
    # one flag per cloning_joint call: whether a loop, a comprehension or a
    # nested function holds it
    stack = [(child, False) for child in gap_scan.body]
    calls = []
    while stack:
        node, looped = stack.pop()
        looped = looped or isinstance(node, LOOPS)
        if isinstance(node, ast.Call) and _name(node.func) == "cloning_joint":
            calls.append(looped)
        stack.extend((child, looped) for child in ast.iter_child_nodes(node))
    assert calls == [False]


def test_plane_normal_has_one_caller():
    assert _calls("_plane_normal") == [("uncertainty.py", "_plane")]
    assert set(_calls("_plane")) == PLANE_CALLERS


def _joint_reads(names):
    """(module file, scope) of every read of one of ``names`` in ``joint.py``."""
    return {(path, func) for path, func, node in _nodes()
            if path == "joint.py" and isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load) and _name(node) in names}


def test_one_classification_of_a_spec():
    assert _joint_reads({"TOL"}) == SPEC_CLASSIFIERS
    assert SPEC_CLASSIFIERS <= _joint_reads({"eig_plus"}) & _joint_reads({"eig_minus"})
    compared = [f"joint.py:{node.lineno} in {func}" for path, func, node in _nodes()
                if path == "joint.py" and isinstance(node, ast.Compare)
                and REPORTED & {_name(n) for n in ast.walk(node)}]
    assert compared == []
    assert _joint_reads(REPORTED) <= REPORTERS
    label_reads = {(path, func) for path, func, node in _nodes()
                   if isinstance(node, ast.Name) and node.id == "OUTCOME_LABELS"
                   and isinstance(node.ctx, ast.Load)}
    assert label_reads == LABEL_BUILDERS


def test_relations_have_one_module():
    # a def, or a name bound by assignment
    defined = [f"{path}:{node.lineno}" for path, _, node in _nodes()
               if path != "uncertainty.py"
               and (isinstance(node, ast.FunctionDef) and node.name in RELATION_HELPERS
                    or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                    and node.id in RELATION_HELPERS)]
    spelled = [f"joint.py:{node.lineno}: {node.value}" for path, _, node in _nodes()
               if path == "joint.py" and isinstance(node, ast.Constant)
               and node.value in RELATION_IDS]
    assert defined + spelled == []


def test_uncertainty_kernel_has_one_call_shape():
    assert {call for call in _calls("unit3") if call[0] == "uncertainty.py"} == DIRECTION_CHECKS
    calls = [node for _, _, node in _nodes()
             if isinstance(node, ast.Call) and _name(node.func) == "_relations"]
    assert calls  # the rule has something to check
    assert all(node.args and not isinstance(node.args[0], ast.Constant) for node in calls)


def test_powers_are_taken_per_array():
    assert {(path, func) for path, func, node in _nodes()
            if _name(node) == "float_power"} == POWER_CALLERS
    # a power of a comprehension's own variable is a per-element Python loop
    looped = []
    for path, func, node in _nodes():
        if isinstance(node, COMPREHENSIONS):
            bound = {n.id for gen in node.generators for n in ast.walk(gen.target)
                     if isinstance(n, ast.Name)}
            looped += [f"{path}:{power.lineno} in {func}" for power in ast.walk(node)
                       if isinstance(power, ast.BinOp) and isinstance(power.op, ast.Pow)
                       and bound & {n.id for n in ast.walk(power) if isinstance(n, ast.Name)}]
    assert looped == []


def test_cli_commands_take_only_their_flags():
    commands = {func: [arg.arg for arg in node.args.args]
                for path, func, node in _nodes()
                if path == "cli.py" and isinstance(node, ast.FunctionDef)
                and func.startswith("cmd_")}
    assert len(commands) == 8
    assert all(params == ["args"] for params in commands.values()), commands


def test_one_usage_error_exit():
    assert _calls("error") == [CLI_MAIN]
    assert [(path, func) for path, func in _calls("build_parser") if path == "cli.py"] == [CLI_MAIN]


def test_one_indented_json_writer():
    indented = [
        (path, func)
        for path, func, node in _nodes()
        if isinstance(node, ast.Call) and _name(node.func) == "dumps"
        and any(keyword.arg == "indent" for keyword in node.keywords)
    ]
    assert indented == [JSON_WRITER]


def test_one_hermiticity_decision():
    assert set(_calls("is_hermitian")) == HERMITICITY_CALLERS
    conjugates = {(path, func) for path, func, node in _nodes()
                  if _name(node) in ("conj", "conjugate")}
    assert conjugates == {HERMITICITY}


def test_validate_decides_admissibility_once():
    validate = ("cli.py", "cmd_validate")
    names = {_name(node) for path, func, node in _nodes() if (path, func) == validate}
    assert not {"is_admissible", "require_admissible"} & names
    assert _calls("general_joint_povm").count(validate) == 1


def test_cli_reads_no_tolerance():
    reads = [f"{path}:{node.lineno} in {func}" for path, func, node in _nodes()
             if path == "cli.py" and isinstance(node, (ast.Name, ast.Attribute))
             and _name(node) in ("TOL", "ATOL")]
    assert reads == []


def test_package_emits_no_warnings():
    found = [f"{path}:{node.lineno}" for path, _, node in _nodes()
             if isinstance(node, ast.Call) and _name(node.func) in ("warn", "warn_explicit")
             or isinstance(node, ast.Import) and "warnings" in map(_name, node.names)
             or isinstance(node, ast.ImportFrom) and node.module == "warnings"]
    assert found == []


def _exports():
    """Every name ``__init__.py`` imports, then ``Class.member`` for every
    public method or property defined on an exported class (no fields)."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    names = [alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    members = []
    for name in names:
        cls = getattr(spinjoint, name)
        if isinstance(cls, type):
            fields = set(getattr(cls, "__dataclass_fields__", ()))
            members += [f"{name}.{attr}" for attr, value in vars(cls).items()
                        if not attr.startswith("_") and attr not in fields
                        and (callable(value) or isinstance(value, MEMBER_KINDS))]
    return names + members


def _identifiers(tree):
    """Names and attributes read in a module, and the parts of its dotted
    string constants such as ``"sampling.sample_indices"``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)):
            found.add(_name(node))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and re.fullmatch(r"\w+(\.\w+)*", node.value):
            found.update(node.value.split("."))
    return found


def _callers():
    """Identifiers that count as a use of a public name: AST names and
    attributes in ``src/`` outside ``__init__.py``, identifiers of the
    ``bench/`` modules, and words in the README's inline code spans (its
    fenced blocks are examples, not the documented API)."""
    src = {_name(node) for path, _, node in _nodes()
           if path != "__init__.py" and isinstance(node, (ast.Name, ast.Attribute))}
    bench = set().union(*(_identifiers(ast.parse(path.read_text()))
                          for path in sorted(BENCH.glob("*.py"))))
    prose = re.sub(r"```.*?```", "", README.read_text(), flags=re.DOTALL)
    readme = {word for span in re.findall(r"`[^`]+`", prose) for word in re.findall(r"\w+", span)}
    return src | bench | readme


def test_every_export_has_a_caller():
    exports = _exports()
    assert len(exports) > 80  # the ledger has something to check
    callers = _callers()
    assert [name for name in exports if name.rsplit(".", 1)[-1] not in callers] == []


def _module_level(tree):
    """(statement, names it binds) for each top-level statement of a module."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node, [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node, [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield node, [target.id for target in targets if isinstance(target, ast.Name)]


def _loads(tree, kinds=(ast.Name, ast.Attribute)):
    return {_name(node) for node in ast.walk(tree)
            if isinstance(node, kinds) and isinstance(node.ctx, ast.Load)}


def test_no_dead_imports():
    # __init__.py imports what the package exports: the ledger checks those
    dead = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = _loads(tree, ast.Name)  # an import binds a bare name; x.name is another
        dead += [f"{path.name}: {name}" for node, names in _module_level(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 and getattr(node, "module", None) != "__future__"
                 for name in names if name not in used]
    assert dead == []


def test_no_dead_private_names():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = set().union(*map(_loads, trees.values()))
    private = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for node, names in _module_level(tree)
        if not isinstance(node, (ast.Import, ast.ImportFrom))
        for name in names if name.startswith("_") and not name.endswith("__")
    ]
    assert len(private) > 40  # the rule has something to check
    assert [entry for entry in private if entry.split(": ")[1] not in used] == []
