"""Every rounding allowance lives in the table at the top of spinjoint.qubit."""

import ast
import re
import tokenize
from pathlib import Path

import spinjoint

SRC = Path(spinjoint.__file__).parent
TABLE = ("ATOL", "TOL", "REFERENCE_AXIS_COS")


def _table_lines() -> set[int]:
    tree = ast.parse((SRC / "qubit.py").read_text())
    return {
        node.lineno
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id in TABLE for t in node.targets)
    }


def test_no_rounding_literal_outside_the_table():
    """A number with a negative exponent (1e-10, 2.5E-9, ...) is a rounding
    allowance; only the table in qubit.py may spell one out.  Numbers in
    comments and docstrings are not NUMBER tokens."""
    table = _table_lines()
    assert len(table) == len(TABLE)
    strays, in_table = [], 0
    for path in sorted(SRC.glob("*.py")):
        with path.open("rb") as fh:
            for tok in tokenize.tokenize(fh.readline):
                if tok.type != tokenize.NUMBER or not re.search(r"[eE]-", tok.string):
                    continue
                if path.name == "qubit.py" and tok.start[0] in table:
                    in_table += 1
                else:
                    strays.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    assert strays == []
    assert in_table == len(TABLE)


def _mentions_table(node) -> bool:
    return any(isinstance(n, ast.Name) and n.id in TABLE for n in ast.walk(node))


def test_no_tolerance_aliases_or_knobs():
    """No second name for a table entry (``SLACK_FLOOR = -TOL``), and no
    parameter that lets a caller pick an allowance (``tol``, ``eps``, or a
    default taken from the table)."""
    table = _table_lines()
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                in_table = path.name == "qubit.py" and node.lineno in table
                if _mentions_table(node.value) and not in_table:
                    found.append(f"{path.name}:{node.lineno}: alias")
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                a = node.args
                names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
                defaults = [d for d in a.defaults + a.kw_defaults if d is not None]
                if {"tol", "eps", "atol", "rtol"} & set(names) or any(
                    _mentions_table(d) for d in defaults
                ):
                    found.append(f"{path.name}:{node.lineno}: knob")
    assert found == []
    assert (spinjoint.ATOL, spinjoint.TOL) == (1e-12, 1e-10)
    assert not hasattr(spinjoint, "ADMISSIBILITY_TOL")
